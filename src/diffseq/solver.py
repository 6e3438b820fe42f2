"""Exact computation of f(S,k;r) by complete backtracking over colorings.

f(S,k;r) is the least n at which every r-coloring of [1, n] has a
monochromatic k-term chain.  feasible and compute_f share one pass, _search:
a single depth-first loop whose target length n grows one position at a
time from 1.  When the search reaches position n it holds the
lexicographically least avoiding coloring of [1, n] under canonical color
order; the loop records it, appends position n + 1 and goes on from where it
stopped.  Every subtree left behind holds no avoiding coloring of [1, n],
hence none of any longer interval, so each hit is again lex-least.

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

Node counts and certificates are reproducible across runs.  Node budgets are
enforced exactly; wall-clock budgets are best-effort (the clock is read every
_SLICE = 10,000 nodes), so timeout outcomes are inherently timing-dependent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coloring import Coloring, has_k_term
from .gapsets import GapSet

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

EXACT = "exact"
NOT_FOUND_UP_TO = "not_found_up_to"
TIMEOUT = "timeout"

_SLICE = 10_000
# Propagation keeps k - 1 bits per position and color at each depth; above
# this k, far beyond any cell that can be exhausted, the search runs without.
_PROPAGATION_MAX_K = 32

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
            "feasible_up_to": self.feasible_up_to,
            "version": RESULT_VERSION,
        }


def _search(S: GapSet, k: int, r: int, n_max: int,
            budget: SearchBudget) -> tuple[str, int, list[int], int]:
    """The single pass: one DFS whose target length n rises from 1 to n_max.

    Returns (status, n, best, nodes).  FEASIBLE: n == n_max and best is the
    lex-least avoiding coloring of [1, n].  INFEASIBLE: [1, n] has no avoiding
    coloring.  BUDGET_EXCEEDED: the budget ran out while searching at target
    n.  In both of those best is the lex-least avoiding coloring of
    [1, n - 1], empty when n == 1.
    """
    max_nodes = budget.max_nodes
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    # colors[i] is the last color tried at position i (-1 before the first)
    # and, below the current position, its assigned color; L[i] is that
    # color's chain length at i and used[i] the colors in use before i.  Every
    # list grows by one with the target, never sized to n_max, which may come
    # straight from the command line; gaps holds the gaps below n, ascending.
    colors, L, used = [-1, 0], [0, 0], [0, 0]
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
    top = r - 1
    n = 1
    # The budget is checked when nodes reaches check, first before node 1.
    nodes = check = i = 0
    while i >= 0:
        if i == n:
            if push:
                # Only positions lo..n - 1 changed since the last raise.
                p = [x & (1 << lo * w) - 1 for x in p]
                for j in range(lo, n):
                    p[colors[j]] |= ((1 << L[j]) - 1) << (j * w)
            best[lo:] = colors[lo:n]
            lo = n
            if n == n_max:
                return FEASIBLE, n, best, nodes
            # Every subtree left behind holds no avoiding coloring of [1, n],
            # so the search at target n + 1 resumes right here.  The pair
            # (j, j + n) lands at position j of the top state.
            if S.contains(n):
                gaps.append(n)
                if push:
                    push = [b | ((1 << l) - 1) << (n * w) for l, b in enumerate(push)]
                    m0[n], m1[n] = m0[n] | p[0], m1[n] | p[1]
                    stamp[n] = ng = len(gaps)
            for state in (colors, L, used, m0, m1, stamp):
                state.append(0)
            n += 1
            continue
        c = colors[i] + 1
        u = used[i]
        if c > (u if u < top else top):
            i -= 1
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
        if (M1 if c else M0) & out:
            # A forced position: c is ruled out here, so it is not tried.
            colors[i] = c
            continue
        if nodes == check:
            if nodes == max_nodes or (deadline is not None and time.monotonic() >= deadline):
                return BUDGET_EXCEEDED, n, best, nodes
            check = nodes + _SLICE if max_nodes is None else min(nodes + _SLICE, max_nodes)
        colors[i] = c
        nodes += 1
        if push:
            # c is not out at i, so the chain that ends here is shorter than k.
            li = ((M1 if c else M0) & full).bit_length() + 1
            if c:
                M1 |= push[li]
            else:
                M0 |= push[li]
            # Sweep the later positions of [1, n] that a color rules out, from
            # the lowest up: one in a single color is forced to the other one
            # level above its top level, until a push makes a position dead.
            # Pushes land only higher up, so one pass is a fixpoint.  A target
            # raise can bring a dead position into the window: checked first.
            if M0 & M1 & window:
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
                continue
        else:
            li = 1
            for g in gaps:
                if g > i:
                    break
                if colors[i - g] == c and L[i - g] >= li:
                    li = L[i - g] + 1
            if li >= k:
                continue
        L[i] = li
        i += 1
        used[i] = u + (1 if c == u else 0)
        colors[i] = -1
        m0[i], m1[i] = M0 >> w, M1 >> w  # bits 0..w-1 now stand for position i
        stamp[i] = ng
        window >>= w
    return INFEASIBLE, n, best, nodes


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
    coloring = Coloring.from_colors(best, r) if status == FEASIBLE else None
    return FeasibleResult(status, coloring, nodes, time.monotonic() - t0)


def compute_f(S: GapSet, k: int, r: int, n_max: int = 1000,
              budget: SearchBudget = UNLIMITED) -> SolveResult:
    """Least n such that every r-coloring of [1, n] has a k-term chain.

    The first n <= n_max with no avoiding coloring is the value, certified by
    the lex-least avoiding coloring of [1, n - 1].  nodes counts the one pass
    up to that n, the same nodes as feasible(S, k, r, value).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t0 = time.monotonic()
    status, n, best, nodes = _search(S, k, r, n_max, budget)
    if status == INFEASIBLE:
        outcome, value = EXACT, n
        certificate = Coloring.from_colors(best, r) if best else None
    else:
        outcome = NOT_FOUND_UP_TO if status == FEASIBLE else TIMEOUT
        value = certificate = None
    return SolveResult(
        set_spec=S.spec, k=k, r=r, status=outcome, value=value,
        certificate=certificate, nodes=nodes, elapsed=time.monotonic() - t0,
        feasible_up_to=None if outcome == EXACT else len(best) or None,
    )


def verify_certificate(result: SolveResult, S: GapSet, k: int, r: int) -> bool:
    """Re-check an exact result: certificate avoids, and n = value exhausts.

    Runs a fresh feasibility search at n = value, so cost matches the
    original exhaustion.  S, k and r must be the result's own question.
    """
    if result.status != EXACT:
        raise ValueError("verify_certificate requires an exact result")
    if (S.spec, k, r) != (result.set_spec, result.k, result.r):
        raise ValueError(f"verify_certificate asked f({S.spec},{k};{r}) of a result for "
                         f"f({result.set_spec},{result.k};{result.r})")
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
