"""Prime chains with shifted-prime gaps, and residue admissibility of offset systems.

A chain for shift t is a sequence of primes p1 < p2 < ... < pk whose every
consecutive gap p[i] - p[i-1] equals q + t for some prime q (the gap witness).
This module provides a deterministic searcher for such chains, an independent
re-verifier (trial division, no shared sieve state), and the p-admissibility
test for offset systems derived from gap witness tuples.  sieve and is_prime
are defined in gapsets, whose prime kinds need them, and imported here, so
primechain.sieve and primechain.is_prime are the same functions.

The searcher is one loop over a stack of frames, one per chain element, under
a root frame at p = -t whose candidates are the starting primes.  A frame
extends a chain from p by the candidates p + q + t, which rise with q, so it
tests their primality by a merge walk: one index into the sorted prime list
that only moves forward.  It holds primes only as far as its search reaches:
when the walk runs off the end, it grows the list in place to twice its sieve
limit, or to its bound once twice the limit passes half the bound, so only a
search that finds nothing sieves to its bound, under twice it in all.  Its bfs
strategy reads the least chain maximum M, and the longest chain from each x in
[1, M], off two runs of the coloring module's chain DP over the primes it holds,
then walks the chain off them.  find_chain refuses bounds above 10**8.
"""

from __future__ import annotations

import operator

from .coloring import _table_for
from .gapsets import _Value, explicit, is_prime, sieve  # noqa: F401  is_prime is re-exported

# find_chain holds primes only as far as its search reaches, but a search that
# finds nothing holds every prime <= bound as a Python int (about 200 MB at
# this cap), so larger bounds are refused.
_CHAIN_BOUND_LIMIT = 10**8

# find_chain first sieves to this (or its bound, if smaller), then doubles the
# limit each time its prime list grows, or takes the bound once twice the limit
# passes half of it, so its limits sum to under twice the bound.
_FIRST_SIEVE_LIMIT = 2**10


def _trial_division_prime(n: int) -> bool:
    # Independent of the sieve on purpose: verify_chain must not trust it.
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeChain(_Value):
    """An immutable chain of primes whose gaps are witnessed shifted primes.

    Only t and the elements are stored, as ints; gaps and gap_witnesses derive
    from them, gap_witnesses[i] being the q with gaps[i] == q + t.
    """

    _fields = ("t", "elements")

    def __init__(self, t: int, elements: tuple[int, ...]):
        self.__dict__.update(t=operator.index(t), elements=tuple(map(operator.index, elements)))

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.elements, self.elements[1:]))

    @property
    def gap_witnesses(self) -> tuple[int, ...]:
        return tuple(gap - self.t for gap in self.gaps)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "k": len(self.elements),
            "elements": list(self.elements),
            "gaps": list(self.gaps),
            "gap_witnesses": list(self.gap_witnesses),
        }


class OffsetSystem(_Value):
    """Offsets b1 = 0 < b2 < ..., consecutive ones q_j + t apart for sources q_j.

    Only t and the offsets are stored, as ints; the sources derive from them.
    """

    _fields = ("t", "offsets")

    def __init__(self, t: int, offsets: tuple[int, ...]):
        self.__dict__.update(t=operator.index(t), offsets=tuple(map(operator.index, offsets)))

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(b2 - b1 - self.t for b1, b2 in zip(self.offsets, self.offsets[1:]))

    @classmethod
    def from_sources(cls, t: int, sources: tuple[int, ...] | list[int]) -> "OffsetSystem":
        t, offsets = operator.index(t), [0]
        for q in sources:
            offsets.append(offsets[-1] + operator.index(q) + t)
        return cls(t=t, offsets=tuple(offsets))


def find_chain(t: int, k: int, bound: int, strategy: str = "dfs") -> PrimeChain | None:
    """Search for a k-element chain with all elements <= bound.

    dfs tries starting primes in ascending order and extends by the smallest
    admissible next element first, so the first complete chain found is the
    lexicographically least one within the bound.  bfs returns the
    lexicographically least chain among those with the least possible maximum
    element.  Returns None when no chain exists within the bound (which says
    nothing about larger bounds).

    The search is one loop over an explicit stack of frames, one per chain
    element, under a root frame at p = -t whose candidates -t + q + t are the
    starts in ascending order.  It starts on the primes <= _FIRST_SIEVE_LIMIT
    (or bound); when a walk runs off the end of the list before its candidate
    passes the bound, it grows the list in place (see _FIRST_SIEVE_LIMIT) and
    every frame goes on over the longer list, visiting the same nodes, in the
    same order, as a search over every prime <= bound.  A prime chain is a
    one-color chain over the primes for the gaps q + t, so bfs reads the least
    maximum M off the chain DP over [1, dfs chain's largest element], then the
    longest chain from each x off the DP over [1, M] reflected, and walks k
    steps from p = -t, each to the least candidate that can still finish.
    """
    t, k, bound = operator.index(t), operator.index(k), operator.index(bound)
    if t < 1 or t % 2 == 0:
        raise ValueError(f"shift t must be a positive odd integer, got {t}")
    if k < 2:
        raise ValueError(f"chain length k must be >= 2, got {k}")
    if strategy not in ("dfs", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if bound > _CHAIN_BOUND_LIMIT:
        raise ValueError(f"chain bound {bound} exceeds the supported maximum {_CHAIN_BOUND_LIMIT}")
    if bound < 2:
        return None

    limit = min(bound, _FIRST_SIEVE_LIMIT)
    primes = sieve(limit).tolist()  # every prime <= limit

    def reaches(n: int) -> bool:
        """Grow primes in place until it passes n (see _FIRST_SIEVE_LIMIT); False if it cannot."""
        nonlocal limit
        while primes[-1] < n:
            if limit == bound:
                return False
            limit = bound if 4 * limit > bound else 2 * limit
            primes.extend(sieve(limit)[len(primes) :].tolist())
        return True

    def upto() -> list[int] | None:
        """The lex-least chain with every element <= bound, starts in ascending order."""
        # The frame (p, idx, walk) extends a chain ending at p by the candidates
        # p + q + t for q off walk.  The root stands at p = -t, so its
        # candidates are the starts; the stack holds the frames below p.
        stack = []
        p, idx, walk = -t, 0, iter(primes)
        while True:
            for q in walk:
                nxt = p + q + t
                # Once the list holds every prime <= bound and still does not
                # pass nxt, no candidate from here on is prime.
                if nxt > bound or primes[-1] < nxt and not reaches(nxt):
                    break
                # Candidates rise with q, so the index of the least prime >= nxt
                # only moves forward: one merge walk instead of a search per q.
                while primes[idx] < nxt:
                    idx += 1
                if primes[idx] == nxt:
                    if len(stack) == k - 1:  # the chain below p holds k - 2 primes
                        return [f[0] for f in stack[1:]] + [p, nxt]
                    stack.append((p, idx, walk))
                    # t is odd, so from 2 every candidate but 2 + 2 + t is even.
                    p, walk = nxt, iter(primes[:1] if nxt == 2 else primes)
                    break
            # nxt is the last candidate of this frame or of one above it, all
            # of which exceed p, so it equals p only just after a descent.
            if nxt != p:
                if not stack:
                    return None
                p, idx, walk = stack.pop()

    found = upto()
    if found is None:
        return None
    if strategy == "bfs":
        below = primes[: primes.index(found[-1]) + 1]
        colors = [-1] * below[-1]
        for p in below:
            colors[p - 1] = 0
        # The gaps below the dfs chain's top are q + t for primes q below it, all held.
        gaps = explicit(q + t for q in below)
        # Each L-value is one more than an earlier one, so the first to reach
        # k equals it.  far[x - 1] is the longest chain from x within [1, M].
        M = _table_for(gaps, colors, 1).index(k) + 1
        far = _table_for(gaps, colors[M - 1 :: -1], 1)[::-1]
        found, p = [], -t
        for need in range(k, 0, -1):  # the least candidate that can still finish
            p = next(p + q + t for q in primes if far[p + q + t - 1] >= need)
            found.append(p)
    return PrimeChain(t, tuple(found))


def verify_chain(chain: PrimeChain) -> bool:
    """Re-check a chain from scratch; primality by trial division only."""
    if chain.t < 1 or chain.t % 2 == 0:
        return False
    if len(chain.elements) < 1:
        return False
    if any(b <= a for a, b in zip(chain.elements, chain.elements[1:])):
        return False
    if not all(_trial_division_prime(p) for p in chain.elements):
        return False
    return all(_trial_division_prime(q) for q in chain.gap_witnesses)


def is_p_admissible(system: OffsetSystem, p: int) -> bool:
    """True iff some residue h mod p keeps every h + offset nonzero mod p."""
    p = operator.index(p)
    if not _trial_division_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    # h works exactly when -h is a class mod p that no offset falls in.
    return len({b % p for b in system.offsets}) < p


def is_admissible_small_primes(system: OffsetSystem) -> bool:
    """Conjunction of is_p_admissible over primes p <= k, k the number of offsets.

    Only primes p > k are always safe: k offsets fill at most k of the p
    residue classes.  At p = k they can fill all of them, as (0, 2, 4) does
    mod 3.  Vacuously true for k <= 1.
    """
    k = len(system.offsets)
    return all(is_p_admissible(system, p) for p in range(2, k + 1) if _trial_division_prime(p))
