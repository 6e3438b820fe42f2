"""Prime chains with shifted-prime gaps, and residue admissibility of offset systems.

A chain for shift t is a sequence of primes p1 < p2 < ... < pk whose every
consecutive gap p[i] - p[i-1] equals q + t for some prime q (the gap witness).
This module provides the segmented prime sieve, a deterministic searcher for
such chains, an independent re-verifier (trial division, no shared sieve
state), and the p-admissibility test for offset systems derived from gap
witness tuples.

The searcher extends a chain from p by the candidates p + q + t, which rise
with q, so it tests their primality by a merge walk: one index into the
sorted prime list that only moves forward.  It holds primes only as far as
its search reaches, about doubling the sieve limit when a scan runs off the
end, so only a search that finds nothing sieves all the way to its bound.
find_chain refuses bounds above _CHAIN_BOUND_LIMIT (10**8), and the sieve
works in fixed-span segments so its working mask never exceeds
_SEGMENT_SPAN.  is_prime holds no state: it is
deterministic Miller-Rabin, exact below _MR_LIMIT (about 3.3 * 10**24);
larger queries raise ValueError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# The sieve marks composites one segment of this many integers at a time, so
# its memory stays proportional to the span, not the bound.
_SEGMENT_SPAN = 4_000_000

# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86,
# 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# find_chain holds primes only as far as its search reaches, but a search that
# finds nothing holds every prime <= bound as a Python int (about 200 MB at
# this cap), so larger bounds are refused.
_CHAIN_BOUND_LIMIT = 10**8

# find_chain's first sieve limit is at least this (or its bound, if smaller)
# and below twice this; see _sieve_limits.
_FIRST_SIEVE_LIMIT = 2**10


def _simple_sieve(limit: int) -> np.ndarray:
    """Primes <= limit via a plain Eratosthenes bool mask: sieve's base primes."""
    import numpy as np

    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def sieve(n: int) -> np.ndarray:
    """All primes <= n in ascending order, sieved in segments of _SEGMENT_SPAN.

    numpy is imported here, on the first sieve, not with the package.
    """
    import numpy as np

    if n < 2:
        raise ValueError(f"sieve bound must be >= 2, got {n}")
    base = _simple_sieve(math.isqrt(n)).tolist()
    parts = []
    for low in range(2, n + 1, _SEGMENT_SPAN):
        high = min(low + _SEGMENT_SPAN, n + 1)  # exclusive
        mask = np.ones(high - low, dtype=bool)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start < high:
                mask[start - low :: p] = False
        parts.append((np.flatnonzero(mask) + low).astype(np.int64))
    return np.concatenate(parts)


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(d: int) -> bool:
    """Deterministic primality test by Miller-Rabin; ValueError from _MR_LIMIT on."""
    d = operator.index(d)
    return d >= 2 and _miller_rabin(d)


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


@dataclass(frozen=True)
class PrimeChain:
    """A chain of primes whose gaps are witnessed shifted primes.

    gap_witnesses[i] is the prime q with gaps[i] == q + t.
    """

    t: int
    elements: tuple[int, ...]
    gaps: tuple[int, ...]
    gap_witnesses: tuple[int, ...]

    @classmethod
    def from_elements(cls, t: int, elements: tuple[int, ...] | list[int]) -> "PrimeChain":
        elements = tuple(int(p) for p in elements)
        gaps = tuple(b - a for a, b in zip(elements, elements[1:]))
        return cls(t=t, elements=elements, gaps=gaps,
                   gap_witnesses=tuple(gap - t for gap in gaps))

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "k": len(self.elements),
            "elements": list(self.elements),
            "gaps": list(self.gaps),
            "gap_witnesses": list(self.gap_witnesses),
        }


@dataclass(frozen=True)
class OffsetSystem:
    """Offsets b1=0 < b2 < ... built as partial sums of gap sources q_j + t."""

    t: int
    sources: tuple[int, ...]
    offsets: tuple[int, ...]

    @classmethod
    def from_sources(cls, t: int, sources: tuple[int, ...] | list[int]) -> "OffsetSystem":
        sources = tuple(int(q) for q in sources)
        offsets = [0]
        for q in sources:
            offsets.append(offsets[-1] + q + t)
        return cls(t=t, sources=sources, offsets=tuple(offsets))

    @classmethod
    def from_offsets(cls, t: int, offsets: tuple[int, ...] | list[int]) -> "OffsetSystem":
        """Offsets given directly; sources recovered from consecutive sums."""
        offsets = tuple(int(b) for b in offsets)
        sources = tuple(b2 - b1 - t for b1, b2 in zip(offsets, offsets[1:]))
        return cls(t=t, sources=sources, offsets=offsets)


class _PrimesExhausted(Exception):
    """A scan ran off the end of the prime list before its candidate passed the bound."""


def _dfs_extend(chain: list[int], idx: int, t: int, k: int, bound: int,
                prime_list: list[int], limit: int) -> list[int] | None:
    # idx starts as the index of chain[-1] in prime_list, which holds every
    # prime <= limit.
    if len(chain) == k:
        return chain
    p = chain[-1]
    m = len(prime_list)
    # t is odd, so from p = 2 every candidate but 2 + 2 + t is even.
    witnesses = prime_list[:1] if p == 2 else prime_list
    for q in witnesses:
        nxt = p + q + t
        if nxt > bound:
            break
        # Candidates rise with q, so the index of the least prime >= nxt
        # only moves forward: one merge walk instead of a search per q.
        while idx < m and prime_list[idx] < nxt:
            idx += 1
        if idx == m:
            if limit < bound:
                raise _PrimesExhausted
            break
        if prime_list[idx] == nxt:
            found = _dfs_extend(chain + [nxt], idx, t, k, bound, prime_list, limit)
            if found is not None:
                return found
    return None


def _dfs_upto(t: int, k: int, cap: int, prime_list: list[int], limit: int) -> list[int] | None:
    """The lex-least chain with every element <= cap, starts in ascending order."""
    for idx, p1 in enumerate(prime_list):
        if p1 + 2 + t > cap:
            return None  # every candidate from here on exceeds cap
        found = _dfs_extend([p1], idx, t, k, cap, prime_list, limit)
        if found is not None:
            return found
    if limit < cap:
        raise _PrimesExhausted
    return None


def _sieve_limits(bound: int) -> list[int]:
    """find_chain's rising sieve limits: ceil(bound / 2**j) for j down to 0.

    The first is the one in [_FIRST_SIEVE_LIMIT, 2 * _FIRST_SIEVE_LIMIT), or
    bound itself when that is smaller, so the limits sum to under 2 * bound
    plus their number.
    """
    shift = max(0, (bound // _FIRST_SIEVE_LIMIT).bit_length() - 1)
    return [-(-bound >> j) for j in range(shift, -1, -1)]


def find_chain(t: int, k: int, bound: int, strategy: str = "dfs") -> PrimeChain | None:
    """Search for a k-element chain with all elements <= bound.

    dfs tries starting primes in ascending order and extends by the smallest
    admissible next element first, so the first complete chain found is the
    lexicographically least one within the bound.  bfs wraps dfs in iterative
    deepening over the largest allowed element, so its result additionally has
    the least possible maximum element.  Returns None when no chain exists
    within the bound (which says nothing about larger bounds).

    The search runs on the primes <= limit, for the limits of
    _sieve_limits(bound) in turn.  A scan that runs off the end of the list
    before its candidate passes the bound moves on to the next limit and runs
    the search again; a search that never does visits the same nodes, in the
    same order, as one over every prime <= bound.
    """
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

    failed_cap = 0  # bfs: no chain has every element <= failed_cap
    for limit in _sieve_limits(bound):
        prime_list = sieve(limit).tolist()
        # A bfs cap <= limit never runs off the list, so after a restart bfs
        # goes on from the caps above the last limit.
        caps = [bound] if strategy == "dfs" else [
            cap for cap in prime_list[k - 1 :] if cap > failed_cap]
        try:
            for cap in caps:
                found = _dfs_upto(t, k, cap, prime_list, limit)
                if found is not None:
                    return PrimeChain.from_elements(t, found)
                failed_cap = cap
        except _PrimesExhausted:
            continue
        if strategy == "dfs":
            return None  # it ended without running off the list
    return None


def verify_chain(chain: PrimeChain) -> bool:
    """Re-check a chain from scratch; primality by trial division only."""
    if chain.t < 1 or chain.t % 2 == 0:
        return False
    if len(chain.elements) < 1:
        return False
    if any(b <= a for a, b in zip(chain.elements, chain.elements[1:])):
        return False
    if chain.gaps != tuple(b - a for a, b in zip(chain.elements, chain.elements[1:])):
        return False
    if chain.gap_witnesses != tuple(gap - chain.t for gap in chain.gaps):
        return False
    if not all(_trial_division_prime(p) for p in chain.elements):
        return False
    return all(_trial_division_prime(q) for q in chain.gap_witnesses)


def is_p_admissible(system: OffsetSystem, p: int) -> bool:
    """True iff some residue h mod p keeps every h + offset nonzero mod p."""
    if not _trial_division_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    residues = [b % p for b in system.offsets]
    for h in range(p):
        if all((h + b) % p != 0 for b in residues):
            return True
    return False


def is_admissible_small_primes(system: OffsetSystem, k: int) -> bool:
    """Conjunction of is_p_admissible over primes p < k.

    Primes >= k never obstruct an offset system of k entries (there are more
    residue classes than offsets), so only the small primes need checking.
    Vacuously true for k <= 2.
    """
    return all(is_p_admissible(system, p) for p in range(2, k) if _trial_division_prime(p))
