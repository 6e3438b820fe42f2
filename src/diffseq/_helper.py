"""The split helper: one forked process that searches every other cube of a split.

solver._search splits a slow target over two processes (see solver).  The
first split that solver._can_split() allows forks this helper, and the process
keeps it for every later split, of any search, until it exits.

Process 0, the process that runs the search, sends each split down a command
pipe as one message: its length, then marshal.dumps of (split number, k, r,
loop state).  The helper runs solver._search from that state, as a forked
copy of process 0 would, and writes a 16-byte report down a report pipe for
each of its cubes that it refutes: the split's number, then the cube's nodes.
When it leaves the split by itself (a hit, its budget or no cube left), it
reports DONE instead, and process 0 searches on alone, as it does at EOF.
Process 0 ends a split with an empty message; the helper polls for it at its
slice checks and cube roots, and then waits for the next split.  Process 0
drops any report from an earlier split.  A split costs one marshal.dumps and
one pipe write, not a fork.

The helper exits at EOF on its command pipe or once its parent is gone.  An
atexit handler reaps it, close() reaps it on demand, and a process forked
later drops it (os.register_at_fork), so its pipes close when process 0 exits.
A helper that has died is reaped, and replaced, at the next split.  The
helper's first report, of split 0, holds its pid: it is read only when os.fork
made the helper and then raised (a warning raised as an error), so that such a
helper is kept, and reaped, too.
"""

from __future__ import annotations

import atexit
import marshal
import os
import select

from . import solver

DONE = (1 << 64) - 1  # the count of a report that ends the helper's part of a split

# In process 0: (pid, command pipe's write end, report pipe's read end) of the
# helper, or None; and the number of the last split started.
_helper: tuple[int, int, int] | None = None
_sid = 0
# In the helper: a poll object on the command pipe, the report pipe's write
# end and the pid of process 0.
_commands = None
_reports = -1
_parent = 0


def start(k: int, r: int, state: tuple) -> bool:
    """Send a split to the helper, forked first if there is none.

    False if no helper can be had: the search goes on alone.
    """
    global _sid
    if _helper is not None:
        _drain()
    if _helper is None:
        _fork()
        if _helper is None:
            return False
    _sid += 1
    message = marshal.dumps((_sid, k, r, state))
    try:
        _write(_helper[1], len(message).to_bytes(8, "little") + message)
    except BrokenPipeError:  # it died since the drain
        close()
        return False
    return True


def report() -> int | None:
    """The nodes of the helper's next refuted cube of this split, or None once
    the helper has left the split."""
    reports = _helper[2]
    while len(data := os.read(reports, 16)) == 16:
        if int.from_bytes(data[:8], "little") == _sid:
            count = int.from_bytes(data[8:], "little")
            return None if count == DONE else count
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
    global _helper
    if _helper is not None:
        pid, commands, reports = _helper
        _helper = None
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
    os.write(_reports, _sid.to_bytes(8, "little") + count.to_bytes(8, "little"))


def _drain() -> None:
    """Drop the reports left from earlier splits; reap the helper if it is gone."""
    reports = _helper[2]
    ready = select.poll()  # not select.select, which refuses fds past FD_SETSIZE
    ready.register(reports, select.POLLIN)
    while ready.poll(0):
        # Reports are written whole (16 bytes, under PIPE_BUF), so a read of
        # a multiple of 16 bytes ends on a report's boundary.
        if not os.read(reports, 1 << 16):
            close()
            return


def _fork() -> None:
    """Fork the helper into _helper, which stays None if no process is to be had."""
    global _helper
    commands, command_end = os.pipe()
    report_end, reports = os.pipe()
    parent, pid = os.getpid(), -1
    try:
        pid = os.fork()
        if not pid:
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
        if pid < 0:  # no pid: learn it from the helper's first report, if it exists
            pid = int.from_bytes(os.read(report_end, 16)[8:], "little")
        if pid:
            _helper = pid, command_end, report_end
        else:
            os.close(command_end)
            os.close(report_end)


def _serve(commands: int, reports: int, parent: int) -> None:
    """The helper's life: run each split sent to it until EOF or its parent is gone."""
    global _commands, _reports, _parent, _sid
    _sid, _reports, _parent = 0, reports, parent
    _commands = select.poll()
    _commands.register(commands, select.POLLIN)
    refuted(os.getpid())  # split 0's report
    while (message := _receive(commands)) is not None:
        if message:  # not the end of a split it has left already
            _sid, k, r, state = marshal.loads(message)
            solver._search(None, k, r, 0, solver.UNLIMITED, state)
            if not ended():  # a hit, the budget or no cube left
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
    global _helper
    if _helper is not None:
        os.close(_helper[1])
        os.close(_helper[2])
        _helper = None


os.register_at_fork(after_in_child=_forget)
atexit.register(close)
