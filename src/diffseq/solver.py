"""Exact computation of f(S,k;r) by complete backtracking over colorings.

f(S,k;r) is the least n at which every r-coloring of [1, n] has a
monochromatic k-term chain.  feasible and compute_f share one pass: a single
depth-first search whose target length n rises from 1.  When the search
reaches position n it holds the lexicographically least avoiding coloring of
[1, n] under canonical color order; the pass records it, raises the target to
n + 1 and resumes from where it stopped.  Every subtree left behind holds no
avoiding coloring of [1, n], hence none of any longer interval, so each hit
is again lex-least and the node count always equals that of a fresh search
at the last target.

feasible(S, k, r, n) runs the pass up to n.  compute_f runs it until the
first n with no avoiding coloring: that n is the exact value, certified by
the coloring recorded at n - 1, and its node count is the final exhaustion's.

Search is plain chronological backtracking, pruned the moment the incremental
longest-chain value at the newest position reaches k.  Node counts and
certificates are reproducible across runs.  Node budgets are enforced
exactly; wall-clock budgets are best-effort (checked between node slices),
so timeout outcomes are inherently timing-dependent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ._kernels import PAUSED, SAT, UNSAT, search
from .coloring import Coloring, has_k_term
from .gapsets import GapSet

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

EXACT = "exact"
NOT_FOUND_UP_TO = "not_found_up_to"
TIMEOUT = "timeout"

_SLICE = 200_000
_FIRST_SIZE = 64

RESULT_VERSION = "1"


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one solver call; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")


UNLIMITED = SearchBudget()


@dataclass
class FeasibleResult:
    """Outcome of one fixed-n feasibility search."""

    status: str  # feasible | infeasible | budget_exceeded
    coloring: Coloring | None
    nodes: int
    elapsed: float


@dataclass
class SolveResult:
    """Outcome of a compute_f run, JSON-serializable for the CLI."""

    set_spec: str
    k: int
    r: int
    status: str  # exact | not_found_up_to | timeout
    value: int | None
    certificate: Coloring | None
    nodes: int
    elapsed: float
    feasible_up_to: int | None = None

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
            "version": RESULT_VERSION,
        }


def _search(S: GapSet, k: int, r: int, n_max: int,
            budget: SearchBudget) -> tuple[int, int, list[int] | None, int]:
    """The single pass: one DFS whose target length n rises from 1 to n_max.

    Returns (status, n, best, nodes).  SAT: n == n_max and best is the
    lex-least avoiding coloring of [1, n].  UNSAT: [1, n] has no avoiding
    coloring.  PAUSED: the budget ran out while searching at target n.  In
    both of those best is the lex-least avoiding coloring of [1, n - 1], or
    None when n == 1.
    """
    nodes_left = budget.max_nodes
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    # The state lists and the gap list grow geometrically with the target and
    # are never sized to n_max, which may come straight from the command line.
    colors, L, used, gaps = [], [], [], []
    cand = [0]
    best: list[int] | None = None
    nodes = 0
    n = 1
    # Positions below floor are a fixed prefix for the kernel.  A new target
    # first searches position n - 1 alone (floor = n - 1), so while it
    # succeeds there the prefix is untouched and best just grows by one.
    floor = i = 0
    while True:
        if n > len(colors):
            size = min(max(2 * len(colors), _FIRST_SIZE), n_max)
            grow = [0] * (size - len(colors))
            for state in (colors, L, used, cand):
                state.extend(grow)
            gaps = S.enumerate(size - 1)
        if deadline is not None and time.monotonic() >= deadline:
            return PAUSED, n, best, nodes
        step = _SLICE if nodes_left is None else min(_SLICE, nodes_left)
        status, done, i = search(n, r, k, gaps, colors, L, used, cand, floor, i, step)
        nodes += done
        if nodes_left is not None:
            nodes_left -= done
        if status == PAUSED:
            if nodes_left == 0:
                return PAUSED, n, best, nodes
        elif status == UNSAT:
            if floor == 0:
                return UNSAT, n, best, nodes
            floor = 0  # position n - 1 is exhausted: backtrack into the prefix
        else:
            # SAT at i == n; the kernel has already set cand[n] = 0, so the
            # search resumes at target n + 1 exactly where it stopped.
            if floor == 0:
                best = colors[:n]
            else:
                best.append(colors[n - 1])
            if n == n_max:
                return SAT, n, best, nodes
            n += 1
            floor = n - 1


def feasible(S: GapSet, k: int, r: int, n: int,
             budget: SearchBudget = UNLIMITED) -> FeasibleResult:
    """Search for an r-coloring of [1, n] with no monochromatic k-term chain.

    Returns the lexicographically least avoiding coloring under canonical
    color order (position 1 is color 0, new colors appear in increasing
    order), or infeasible after complete exhaustion, or budget_exceeded.
    """
    if k < 1 or r < 1 or n < 1:
        raise ValueError("k, r and n must all be >= 1")
    t0 = time.monotonic()
    status, _, best, nodes = _search(S, k, r, n, budget)
    if status == SAT:
        return FeasibleResult(FEASIBLE, Coloring.from_colors(best, r), nodes,
                              time.monotonic() - t0)
    outcome = INFEASIBLE if status == UNSAT else BUDGET_EXCEEDED
    return FeasibleResult(outcome, None, nodes, time.monotonic() - t0)


def compute_f(S: GapSet, k: int, r: int, n_max: int = 1000,
              budget: SearchBudget = UNLIMITED) -> SolveResult:
    """Least n such that every r-coloring of [1, n] has a k-term chain.

    The first n <= n_max with no avoiding coloring is the value, certified by
    the lex-least avoiding coloring of [1, n - 1].  nodes counts one search:
    the same nodes as feasible(S, k, r, value) spends on the final exhaustion.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t0 = time.monotonic()
    status, n, best, nodes = _search(S, k, r, n_max, budget)
    proven = None if best is None else len(best)
    if status == UNSAT:
        outcome, value = EXACT, n
        certificate = None if best is None else Coloring.from_colors(best, r)
    else:
        outcome = NOT_FOUND_UP_TO if status == SAT else TIMEOUT
        value = certificate = None
    return SolveResult(
        set_spec=S.spec, k=k, r=r, status=outcome, value=value,
        certificate=certificate, nodes=nodes, elapsed=time.monotonic() - t0,
        feasible_up_to=None if outcome == EXACT else proven,
    )


def verify_certificate(result: SolveResult, S: GapSet, k: int, r: int) -> bool:
    """Re-check an exact result: certificate avoids, and n = value exhausts.

    Runs a fresh feasibility search at n = value, so cost matches the
    original exhaustion.
    """
    if result.status != EXACT:
        raise ValueError("verify_certificate requires an exact result")
    if result.value is None or result.value < 1:
        return False
    if result.value == 1:
        if result.certificate is not None:
            return False
    else:
        cert = result.certificate
        if cert is None or cert.n != result.value - 1 or cert.r != r:
            return False
        if has_k_term(cert, S, k):
            return False
    fresh = feasible(S, k, r, result.value)
    return fresh.status == INFEASIBLE
