"""The split helper: one forked process that searches every other cube of a split.

solver._search splits a slow target over two processes (see solver).  The
first split that solver._can_split() allows forks this helper, and the process
keeps it for every later split, of any search, until it exits.

Process 0, the process that runs the search, sends each split down a command
pipe as one message: its length, then marshal.dumps of (k, r, loop state).
The helper runs solver._search from that state, as a forked copy of process 0
would, and writes an 8-byte report down a report pipe for each of its cubes
that it refutes: the cube's nodes.  It ends every split it runs with one DONE
report, whether it left the split by itself (a hit, its budget or no cube
left) or process 0 ended it.  Process 0 ends a split with an empty message;
the helper polls for it at its slice checks and cube roots, and then waits
for the next split.  Process 0 counts the splits whose DONE it has not read
yet (_open): while more than the current one is open, a report belongs to an
earlier split and is skipped.  At the current split's DONE it searches on
alone, as it does at EOF.  A split costs one marshal.dumps and one pipe
write, not a fork.

The helper exits at EOF on its command pipe or once its parent is gone.  An
atexit handler reaps it, close() reaps it on demand, and a process forked
later drops it (os.register_at_fork), so its pipes close when process 0 exits.
A helper that has died is reaped at the next split, and replaced at the one
after.  The helper's first report holds its pid, which _fork reads, also when
os.fork made the helper and then raised (a warning raised as an error), so
that such a helper is kept, and reaped, too.
"""

from __future__ import annotations

import atexit
import marshal
import os
import select

from . import solver

DONE = (1 << 64) - 1  # the report that ends the helper's part of a split

# In process 0: (pid, command pipe's write end, report pipe's read end) of the
# helper, or None; and the number of splits sent to it whose DONE is unread.
_helper: tuple[int, int, int] | None = None
_open = 0
# In the helper: a poll object on the command pipe, the report pipe's write
# end and the pid of process 0.
_commands = None
_reports = -1
_parent = 0


def start(k: int, r: int, state: tuple) -> bool:
    """Send a split to the helper, forked first if there is none.

    False if no helper can be had: the search goes on alone.
    """
    global _open
    if _helper is None:
        _fork()
        if _helper is None:
            return False
    message = marshal.dumps((k, r, state))
    try:
        _write(_helper[1], len(message).to_bytes(8, "little") + message)
    except BrokenPipeError:  # it has died: the next split forks another
        close()
        return False
    _open += 1
    return True


def report() -> int | None:
    """The nodes of the helper's next refuted cube of this split, or None once
    the helper has left the split."""
    global _open
    reports = _helper[2]
    while len(data := os.read(reports, 8)) == 8:
        count = int.from_bytes(data, "little")
        if count == DONE:
            _open -= 1
            if not _open:
                return None
        elif _open == 1:
            return count
    close()  # EOF: the helper is gone
    return None


def end() -> None:
    """End this split: the helper drops it at its next poll."""
    if _helper is not None:
        try:
            os.write(_helper[1], bytes(8))
        except BrokenPipeError:
            close()


def close() -> None:
    """Reap the helper, if this process has one.  With its pipes closed, it
    exits at its next poll, or at once if it is idle or writing a report."""
    global _helper, _open
    if _helper is not None:
        pid, commands, reports = _helper
        _helper, _open = None, 0
        os.close(commands)
        os.close(reports)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped by someone else
            pass


def ended() -> bool:
    """In the helper: process 0 has ended the split, or is gone."""
    return bool(_commands.poll(0)) or os.getppid() != _parent


def refuted(count: int) -> None:
    """In the helper: report a refuted cube of count nodes, or DONE."""
    os.write(_reports, count.to_bytes(8, "little"))


def _fork() -> None:
    """Fork the helper into _helper, which stays None if no process is to be had."""
    global _helper
    commands, command_end = os.pipe()
    report_end, reports = os.pipe()
    parent, pid = os.getpid(), 0
    try:
        if not (pid := os.fork()):
            try:
                os.close(command_end)
                os.close(report_end)
                _serve(commands, reports, parent)
            finally:
                os._exit(0)
    except OSError:  # no process to spare: no split
        pass
    finally:
        os.close(commands)
        os.close(reports)
        # The helper's first report is its pid: EOF if there is no helper, or
        # if it has died already, when os.fork's pid is kept, to be reaped.
        if pid := int.from_bytes(os.read(report_end, 8), "little") or pid:
            _helper = pid, command_end, report_end
        else:
            os.close(command_end)
            os.close(report_end)


def _serve(commands: int, reports: int, parent: int) -> None:
    """The helper's life: run each split sent to it until EOF or its parent is gone."""
    global _commands, _reports, _parent
    _reports, _parent = reports, parent
    _commands = select.poll()
    _commands.register(commands, select.POLLIN)
    refuted(os.getpid())
    while (message := _receive(commands)) is not None:
        if message:  # not the end of a split, which it has left already
            k, r, state = marshal.loads(message)
            solver._search(None, k, r, 0, solver.UNLIMITED, state)
            refuted(DONE)


def _receive(fd: int) -> bytes | None:
    """The next message, b"" for the end of a split; None at EOF or once the
    parent is gone (a later fork may hold the pipe open)."""
    while not _commands.poll(1000):
        if os.getppid() != _parent:
            return None
    size = _read(fd, 8)
    return None if size is None else _read(fd, int.from_bytes(size, "little"))


def _read(fd: int, size: int) -> bytes | None:
    data = b""
    while len(data) < size:
        if not (chunk := os.read(fd, size - len(data))):
            return None
        data += chunk
    return data


def _write(fd: int, data: bytes) -> None:
    while data:  # a signal can cut a long write short
        data = data[os.write(fd, data):]


def _forget() -> None:
    """In a process forked later: the helper is its parent's, not its own."""
    global _helper, _open
    if _helper is not None:
        os.close(_helper[1])
        os.close(_helper[2])
        _helper, _open = None, 0


os.register_at_fork(after_in_child=_forget)
atexit.register(close)
