"""Exact computation of f(S,k;r) by complete backtracking over colorings.

f(S,k;r) is the least n at which every r-coloring of [1, n] has a
monochromatic k-term chain.  feasible and compute_f share one pass, _search:
a single depth-first loop whose target length n grows one position at a
time from 1.  Only a descent can reach position n; when one does, the search
holds the lexicographically least avoiding coloring of [1, n] under canonical
color order, records it, appends position n + 1 and goes on from there.
Every subtree left behind holds no avoiding coloring of [1, n], hence none
of any longer interval, so each hit is again lex-least.

feasible(S, k, r, n) runs the pass up to n.  compute_f runs it until the
first n with no avoiding coloring: that n is the exact value, certified by
the coloring recorded at n - 1.  Its nodes are those of the whole pass, so
they equal feasible(S, k, r, value).nodes.

The search colors positions left to right.  Canonical color order breaks the
color-relabeling symmetry: a position may reuse any color already present or
introduce the single next unused color, which in particular pins position 1
to color 0.  A node is one attempted (position, color) assignment, counted
whether or not it prunes.  A node is pruned when the exact longest-chain
value at the new position reaches k, or when propagation finds a dead
position further on.  With propagation that value is read off the node's own
levels, which hold every gap below the target, so a color that would reach k
is ruled out before it costs a node; without it every gap is scanned.

Propagation (forward checking with forced colors, in the style of Kouril and
Paul, "The van der Waerden number W(2,6) is 1132", Exp. Math. 2008) keeps one
int per color, k - 1 bits per later position: level l of a position is set
when a chain of that color of length >= l reaches it through one more gap,
and level k - 1 rules the color out there.  A colored position ORs in one
precomputed int: the gap set, spread k - 1 bits apart, times its levels
1..chain length.  A sweep then visits the later positions of [1, n] that a
color rules out, lowest first: one ruled out in a single color is forced to
the other and pushes in turn, at the level read off its bits, until a push
rules a position out in both colors (dead).  The swept window moves with the
stack.  A color ruled out at the next position is skipped without a node.
A gap that joins the target adds its pairs to the top state at once, and to
a stored state when the search backtracks into it.  Every level
under-approximates what holds in all avoiding extensions, so only subtrees
without an avoiding coloring are cut: values and certificates are those of
plain backtracking, and node counts are at most its.  Propagation runs for
r = 2 and k <= _PROPAGATION_MAX_K; any other search is plain backtracking.

A slow target is split over two processes, cube-and-conquer style (Heule,
Kullmann and Marek, SAT 2016).  At a slice check with no split active, if
_can_split(), the search sends its loop state to a helper process (_helper),
forked at the first split and kept for every later one, which runs this loop
from that state.  The rest of the target is cut into cubes rooted _CUBE_SPAN
levels below the shallowest depth with an untried color.  Both walk the
levels above; cube x is searched by process x mod 2 (0 sends the state, and
also ends the cube it is in).  The helper reports each refuted cube's nodes
and leaves the split at a hit or at the node budget, which its count, short
of process 0's cubes, reaches no sooner than the sequential one.  Process 0
adds a refuted cube's nodes instead of searching it and searches the rest
itself once the helper has left: nodes, certificates and node budgets are
those of one process.  It ends the split at every raise and on every way
out; the helper polls for that at its slice checks and cube roots.

Node counts and certificates are reproducible across runs.  Node budgets are
enforced exactly; wall-clock budgets are best-effort (the clock is read every
_SLICE = 1,000 nodes), so timeout outcomes are inherently timing-dependent.
"""

from __future__ import annotations

import operator
import time
from typing import NamedTuple

from .coloring import Coloring, has_k_term
from .gapsets import GapSet, _Value, make_set

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

EXACT = "exact"
NOT_FOUND_UP_TO = "not_found_up_to"
TIMEOUT = "timeout"

_SLICE = 1_000
# A split roots its cubes this many levels below the shallowest open depth.
_CUBE_SPAN = 8
# Propagation keeps k - 1 bits per position and color at each depth; above
# this k, far beyond any cell that can be exhausted, the search runs without.
_PROPAGATION_MAX_K = 32

RESULT_VERSION = "1"


class SearchBudget(_Value):
    """Immutable limits for one solver call; None means unlimited."""

    _fields = ("max_nodes", "max_seconds")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        if max_nodes is not None and operator.index(max_nodes) < 0:
            raise ValueError("max_nodes must be >= 0")
        if max_seconds is not None and not max_seconds >= 0:
            raise ValueError("max_seconds must be >= 0")
        self.__dict__.update(max_nodes=max_nodes, max_seconds=max_seconds)


UNLIMITED = SearchBudget()


class FeasibleResult(NamedTuple):
    """Outcome of one fixed-n feasibility search."""

    status: str  # feasible | infeasible | budget_exceeded
    coloring: Coloring | None
    nodes: int
    elapsed: float


class SolveResult(NamedTuple):
    """Outcome of a compute_f run, JSON-serializable for the CLI.

    An exact value is read off its certificate, which colors [1, value - 1]:
    value is 1 when there is none (only at k = 1), and None unless exact.
    """

    set_spec: str
    k: int
    r: int
    status: str  # exact | not_found_up_to | timeout
    certificate: Coloring | None
    nodes: int
    elapsed: float
    feasible_up_to: int | None = None

    @property
    def value(self) -> int | None:
        if self.status != EXACT:
            return None
        return 1 if self.certificate is None else self.certificate.n + 1

    def to_json_dict(self) -> dict:
        return {
            "spec": self.set_spec,
            "k": self.k,
            "r": self.r,
            "status": self.status,
            "value": self.value,
            "certificate": self.certificate.to_text() if self.certificate else None,
            "nodes": self.nodes,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "feasible_up_to": self.feasible_up_to,
            "version": RESULT_VERSION,
        }


def _search(S: GapSet | None, k: int, r: int, n_max: int, budget: SearchBudget,
            split: tuple | None = None) -> tuple[str, list[int], int]:
    """The single pass: one DFS whose target length n rises from 1 to n_max.

    Returns (status, best, nodes).  FEASIBLE: best is the lex-least avoiding
    coloring of [1, n_max].  INFEASIBLE: [1, n] has no avoiding coloring,
    for n = len(best) + 1.  BUDGET_EXCEEDED: the budget ran out while
    searching at target n = len(best) + 1.  In both of those best is the
    lex-least avoiding coloring of [1, n - 1], empty when n == 1.

    The split helper passes split, the loop state process 0 sent it, instead
    of S, n_max and budget: it never raises the target, and its result is
    not read.
    """
    max_nodes = budget.max_nodes
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    # c is the color on trial at position i and u the largest color allowed
    # there: one past the colors used before i, capped at r - 1.  Below i,
    # colors[j] is j's color, stored at the descent, L[j] its chain length and
    # used[j] its u.  gaps holds the gaps below n, ascending.  No list is
    # sized to n_max, which may come from the command line: each grows with n.
    colors, L, used = [0, 0], [0, 0], [0, 0]
    gaps: list[int] = []
    # m0[i] and m1[i] hold colors 0 and 1 before position i is colored, w bits
    # per position: bit q*w + l - 1 (level l) is set when a chain of that color
    # of length >= l reaches position i + q through one more gap, in every
    # avoiding extension of colors[:i]; level k - 1 (out) rules the color out.
    # A position's levels are always 1..e; push[l] sets levels 1..l at every
    # gap below n.  window, the out bits of positions i + 1..n - 1, moves with
    # i; after a descent it has i's too, where only the untried color can be
    # out.  Without propagation w is 0, push is empty and all states stay 0.
    # The state at i holds every pair (j, j + g) with j < i and g < n, so a
    # node's chain length is its own top level plus one.  stamp[i] counts the
    # gaps it was built with: a gap g that joins later is added to the top
    # state at once and to a lower one when the search backtracks into it, as
    # (p[c] & low(i)) << (g - i)*w, where p[c] holds levels 1..L[j] at bit j*w
    # for each position j < n of color c, as of the last target raise.
    m0, m1, stamp = [0, 0], [0, 0], [0, 0]
    w = k - 1 if r == 2 and k <= _PROPAGATION_MAX_K else 0
    full = (1 << w) - 1
    out, window, push = (full + 1) >> 1, 0, [0] * k if w else []
    p, ng = [0, 0], 0
    best: list[int] = []
    lo = 0  # best[:lo] still equals colors[:lo]
    top, n = r - 1, 1
    # The budget is checked when nodes reaches check, first before node 1.
    nodes = check = i = c = u = 0
    # The split: side is -1 without one, 1 in process 0 while one is on and 0
    # in the helper.  A descent to edge roots a cube at cut or reaches the
    # target n; a backtrack below floor leaves a cube this process searches.
    side, edge, floor = -1, n, 0
    cut = cube = start = 0
    helper = None  # the _helper module, loaded at the first split
    if split is not None:  # the helper, at process 0's node where it split
        (max_nodes, deadline, n, nodes, i, c, u, cut, window, ng, p, push,
         colors, L, used, gaps, m0, m1, stamp) = split
        from . import _helper as helper

        side, edge, check = 0, cut, nodes
        if i >= cut:  # the helper leaves cube 0
            for _ in range(i - cut):
                window = (window | out) << w
            i, c = cut, r
    try:
        while True:
            if c > u:
                i -= 1
                if i < floor:
                    if i < 0:
                        break
                    if not side:  # the helper's cube is refuted
                        helper.refuted(nodes - start)
                    edge, floor = cut, 0
                c, u = colors[i] + 1, used[i]
                lo = i if i < lo else lo
                window = (window | out) << w
                if stamp[i] < ng and i > 0:
                    # Gaps joined since this state was stored.  colors[:i] has
                    # not changed since, so p still holds it.
                    low = (1 << i * w) - 1
                    for g in gaps[stamp[i]:]:
                        m0[i] |= (p[0] & low) << (g - i) * w
                        m1[i] |= (p[1] & low) << (g - i) * w
                    stamp[i] = ng
                continue
            M0, M1 = m0[i], m1[i]
            Mc = M1 if c else M0
            if Mc & out:  # c is ruled out at i, so it is not tried
                c += 1
                continue
            if nodes == check:
                if nodes == max_nodes or (deadline is not None and time.monotonic() >= deadline):
                    return BUDGET_EXCEEDED, best, nodes
                check = nodes + _SLICE if max_nodes is None else min(nodes + _SLICE, max_nodes)
                if not side:
                    if helper.ended():
                        break  # process 0 has ended the split, or is gone
                elif side < 0 and _can_split():
                    cut = next((j for j in range(i) if colors[j] < used[j]), i) + _CUBE_SPAN
                    if cut < n:
                        from . import _helper as helper

                        if helper.start(k, r, (max_nodes, deadline, n, nodes, i, c, u, cut,
                                               window, ng, p, push, colors, L, used, gaps,
                                               m0, m1, stamp)):
                            # Cube 0, the one it is in, if any, is its own.
                            side, cube = 1, 0
                            edge, floor = (n, cut) if i >= cut else (cut, 0)
            nodes += 1
            if push:
                # c is not out at i, so the chain that ends here is shorter than k.
                li = (Mc & full).bit_length() + 1
                if c:
                    M1 = Mc | push[li]
                else:
                    M0 = Mc | push[li]
                # Sweep the later positions of [1, n] that a color rules out, from
                # the lowest up: one in a single color is forced to the other one
                # level above its top level, until a push makes a position dead.
                # Pushes land only higher up, so one pass is a fixpoint.  A target
                # raise can bring a dead position into the window: checked first.
                if M0 & M1 & window:
                    c += 1
                    continue
                pending = (M0 | M1) & window
                while pending:
                    bit = pending & -pending
                    s = bit.bit_length() - w
                    if M0 & bit:
                        add = push[((M1 >> s) & full).bit_length() + 1] << s
                        M1 |= add
                        add &= window
                        if add & M0:
                            break  # dead: pending stays non-zero
                    else:
                        add = push[((M0 >> s) & full).bit_length() + 1] << s
                        M0 |= add
                        add &= window
                        if add & M1:
                            break
                    pending = (pending ^ bit) | add
                if pending:
                    c += 1
                    continue
            else:
                li = 1
                for g in gaps:
                    if g > i:
                        break
                    if colors[i - g] == c and L[i - g] >= li:
                        li = L[i - g] + 1
                if li >= k:
                    c += 1
                    continue
            colors[i], L[i] = c, li
            i += 1
            used[i] = u = u + 1 if c == u < top else u
            m0[i], m1[i] = M0 >> w, M1 >> w  # bits 0..w-1 now stand for position i
            stamp[i] = ng
            window >>= w
            c = 0
            if i == edge:
                if i < n:  # a cube root
                    cube += 1
                    if not side and helper.ended():
                        break
                    if cube & 1 == (not side):
                        edge, floor, start = n, cut, nodes
                    elif not side:
                        c = r
                    elif (report := helper.report()) is not None:
                        # Refuted by the helper: its nodes are counted, not searched.
                        nodes += report
                        if max_nodes is not None and nodes > max_nodes:
                            return BUDGET_EXCEEDED, best, max_nodes
                        c, check = r, nodes
                    else:  # the helper has left the split, at a hit or not: search on alone
                        edge = n
                    continue
                if not side:  # a hit in the helper, which never raises the target
                    break
                if side > 0:
                    helper.end()
                    side, floor = -1, 0
                if push:
                    # Only positions lo..n - 1 changed since the last raise.
                    p = [x & (1 << lo * w) - 1 for x in p]
                    for j in range(lo, n):
                        p[colors[j]] |= ((1 << L[j]) - 1) << (j * w)
                best[lo:] = colors[lo:n]
                lo = n
                if n == n_max:
                    return FEASIBLE, best, nodes
                # The search at target n + 1 resumes right here.  The pair
                # (j, j + n) lands at position j of the top state.
                if S.contains(n):
                    gaps.append(n)
                    if push:
                        push = [b | ((1 << l) - 1) << (n * w) for l, b in enumerate(push)]
                        m0[n], m1[n] = m0[n] | p[0], m1[n] | p[1]
                        stamp[n] = ng = len(gaps)
                for state in (colors, L, used, m0, m1, stamp):
                    state.append(0)
                n = edge = n + 1
    finally:
        if side > 0:
            helper.end()
    return INFEASIBLE, best, nodes


def _can_split() -> bool:
    """os.fork exists, 2 CPUs are usable and no other Python thread is alive
    (threading is read from sys.modules, so nothing new is imported).  A thread
    Python did not start, such as a BLAS pool, is allowed: the helper calls no
    code that waits on its locks.  Python 3.12 warns at such a fork; a warning
    raised as an error propagates, and the helper it made is kept (_helper)."""
    import os
    import sys

    from .gapsets import _usable_cpus  # looked up per call, so a patch of it reaches here

    threading = sys.modules.get("threading")
    return (hasattr(os, "fork") and _usable_cpus() > 1
            and (threading is None or threading.active_count() == 1))


def _close_helper() -> None:
    """Reap this process's split helper, if it has one."""
    import sys

    helper = sys.modules.get(f"{__package__}._helper")
    if helper is not None:
        helper.close()


def feasible(S: GapSet, k: int, r: int, n: int,
             budget: SearchBudget = UNLIMITED) -> FeasibleResult:
    """Search for an r-coloring of [1, n] with no monochromatic k-term chain.

    Returns the lexicographically least avoiding coloring under canonical
    color order (position 1 is color 0, new colors appear in increasing
    order), or infeasible after complete exhaustion, or budget_exceeded.
    """
    k, r, n = operator.index(k), operator.index(r), operator.index(n)
    if k < 1 or r < 1 or n < 1:
        raise ValueError("k, r and n must all be >= 1")
    t0 = time.monotonic()
    status, best, nodes = _search(S, k, r, n, budget)
    coloring = Coloring.from_colors(best, r) if status == FEASIBLE else None
    return FeasibleResult(status, coloring, nodes, time.monotonic() - t0)


def compute_f(S: GapSet, k: int, r: int, n_max: int = 1000,
              budget: SearchBudget = UNLIMITED) -> SolveResult:
    """Least n such that every r-coloring of [1, n] has a k-term chain.

    The first n <= n_max with no avoiding coloring is the value, certified by
    the lex-least avoiding coloring of [1, n - 1].  nodes counts the one pass
    up to that n, the same nodes as feasible(S, k, r, value).
    """
    k, r, n_max = operator.index(k), operator.index(r), operator.index(n_max)
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t0 = time.monotonic()
    status, best, nodes = _search(S, k, r, n_max, budget)
    if status == INFEASIBLE:
        outcome, certificate = EXACT, Coloring.from_colors(best, r) if best else None
    else:
        outcome, certificate = NOT_FOUND_UP_TO if status == FEASIBLE else TIMEOUT, None
    return SolveResult(
        set_spec=S.spec, k=k, r=r, status=outcome, certificate=certificate,
        nodes=nodes, elapsed=time.monotonic() - t0,
        feasible_up_to=None if outcome == EXACT else len(best) or None,
    )


def verify_certificate(result: SolveResult) -> bool:
    """Re-check an exact result: certificate avoids, and n = value exhausts.

    The question f(S,k;r) is read off the result itself: S from its set_spec
    by make_set, k and r from its fields.  The value is the certificate's
    length plus one, so it remains to check the certificate's r and that it
    has no k-term chain, then run a fresh feasibility search at n = value.
    """
    if result.status != EXACT:
        raise ValueError("verify_certificate requires an exact result")
    S, k, r = make_set(result.set_spec), result.k, result.r
    cert = result.certificate
    if cert is not None and (cert.r != r or has_k_term(cert, S, k)):
        return False
    return feasible(S, k, r, result.value).status == INFEASIBLE
