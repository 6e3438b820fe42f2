"""Colorings of an integer interval and longest monochromatic chain search.

A coloring assigns one of r colors to every integer in [1, n].  A chain for a
gap set S is a strictly increasing sequence of positions whose consecutive
differences all lie in S; it is monochromatic when all its positions share one
color.  The central quantity is the length of the longest monochromatic chain,
computed by a left-to-right dynamic program:

    L[i] = 1 + max{ L[i - s] : s in S, s < i, color(i - s) == color(i) }

with the maximum over the empty set taken as 0.  Two concerns are kept
apart.  _chain_table computes the maxima only, with two shortcuts that
change no value: a gap scan that stops early and, for a periodic gap set
with r*m <= n, one best entry per (color, residue class mod m) in place of
the periodic gaps.  _extract_witness alone picks the witness chain,
smallest predecessor first, by S's own membership test, and
DiffseqWitness.is_valid_for re-checks a chain by the same test; both test
each distinct gap once.  has_k_term needs no table when k is small and S
takes the gap scan: _has_short_chain decides it in one pass, level by level
on bitsets, the shift-OR update of Baeza-Yates and Gonnet (CACM 35, 1992).
The solver's search evaluates the same recurrence incrementally, and
brute_force_longest re-derives the answer by plain exhaustive chain
enumeration.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import cache
from itertools import islice
from typing import Collection, Sequence

from .gapsets import GapSet, _Value

COLOR_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_COLORS = len(COLOR_ALPHABET)

# Byte -> color for the text format, letters in either case; any other byte
# maps to _NOT_A_COLOR.
_NOT_A_COLOR = 255
_TEXT_COLORS = bytes(
    COLOR_ALPHABET.find(chr(b).lower()) if chr(b).isascii() and chr(b).isalnum()
    else _NOT_A_COLOR for b in range(256))

_BRUTE_FORCE_LIMIT = 20

# has_k_term takes _has_short_chain for k up to this on sets without a class
# route.  Its cost grows with the levels it builds and the scan's does not.  On
# seeded colorings with no k-term chain (n = 500 to 8000, up to 24 colors) it
# was never the slower route up to k = 12; it first lost at k = 15, on primes
# and primes+3 at n = 500 with 24 colors (about 1.4x in the median over 21
# colorings, in one pass), while on sparse sets it stayed the faster up to
# k = 40.
_SHORT_CHAIN = 16


def _out_of_range(colors: Sequence[int], r: int) -> ValueError:
    """The error naming the first color outside [0, r)."""
    bad = next(c for c in colors if not 0 <= c < r)
    return ValueError(f"color {bad} out of range for r={r}")


class Coloring(_Value):
    """An immutable r-coloring of [1, n]; colors[i] is the color of integer i + 1."""

    _fields = ("colors", "r")

    def __init__(self, colors: Sequence[int], r: int):
        colors, r = tuple(colors), operator.index(r)
        self.__dict__.update(colors=colors, r=r)
        # The range check (parse makes its own); it also refuses r < 1, where
        # no color fits.
        if len(colors) < 1:
            raise ValueError("a coloring needs at least one position")
        if not (0 <= min(colors) and max(colors) < r):
            raise _out_of_range(colors, r)

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, x: int) -> int:
        """Color of the integer x (1-based)."""
        if not 1 <= x <= self.n:
            raise IndexError(f"position {x} outside [1, {self.n}]")
        return self.colors[x - 1]

    @classmethod
    def from_colors(cls, seq: Sequence[int], r: int) -> "Coloring":
        return cls(colors=tuple(map(operator.index, seq)), r=r)

    @classmethod
    def parse(cls, text: str, r: int | None = None) -> "Coloring":
        """Parse the text format: character i is the color of integer i.

        The format is ASCII: colors 0-9 then a-z, letters in either case.
        Without r, r is inferred as max color + 1; with r, the first color
        outside [0, r) is named, as the constructor names it.
        """
        # "replace" turns each non-ASCII character into one "?", so positions hold.
        values = text.encode("ascii", "replace").translate(_TEXT_COLORS)
        i = values.find(_NOT_A_COLOR)
        if i >= 0:
            raise ValueError(f"invalid color character {text[i]!r} at position {i + 1}")
        if not values:
            raise ValueError("empty coloring text")
        # The one scan of the colors: translated bytes are never negative, so
        # the constructor's min and max checks reduce to max(values) < r.
        top = max(values)
        r = top + 1 if r is None else operator.index(r)
        if top >= r:
            raise _out_of_range(values, r)
        coloring = object.__new__(cls)
        coloring.__dict__.update(colors=tuple(values), r=r)
        return coloring

    def to_text(self) -> str:
        if self.r > MAX_COLORS:
            raise ValueError(f"text format supports at most {MAX_COLORS} colors")
        return "".join(COLOR_ALPHABET[c] for c in self.colors)

    def __str__(self) -> str:
        return self.to_text()


class DiffseqWitness(_Value):
    """An immutable monochromatic chain: 1-based positions plus their common color."""

    _fields = ("positions", "color")

    def __init__(self, positions: Sequence[int], color: int):
        self.__dict__.update(positions=tuple(positions), color=operator.index(color))

    def __len__(self) -> int:
        return len(self.positions)

    def is_valid_for(self, coloring: Coloring, S: GapSet) -> bool:
        """Independent re-check: strictly increasing, same color, gaps in S.

        Membership comes from S.contains alone, once per distinct gap.
        """
        pos, colors = self.positions, coloring.colors
        if not pos or pos[0] < 1 or pos[-1] > len(colors):
            return False
        gaps = {b - a for a, b in zip(pos, pos[1:])}
        # Strictly increasing from pos[0] >= 1 to pos[-1] <= n: every position is in range.
        if gaps and min(gaps) < 1:
            return False
        if any(colors[x - 1] != self.color for x in pos):
            return False
        return all(map(S.contains, gaps))


def _chain_table(colors: Sequence[int], r: int, m: int, classes: Collection[int],
                 gaps: Sequence[int]) -> list[int]:
    """L-values only: the length of the longest chain ending at each position.

    The gap set is {d >= 1 : d mod m in classes} union gaps, gaps ascending,
    as _table_for splits it.  Colors lie in [0, r); a position of color -1
    is excluded: it matches no color, gets L = 0 and never extends anything.

    No route records which predecessor gave the maximum: _extract_witness
    re-derives the chain from the table and owns the tie-break.  Each
    position i takes the best of two routes, and neither looks past run[c],
    the largest L-value of color c so far:

    - The gap scan.  top[j] is the largest L-value among positions <= j of
      j's color, so it stops at the first same-color j with top[j] <= best:
      no predecessor at or below j can beat best.
    - The residue classes.  A predecessor i - d with d mod m = rho lies in
      class (i - rho) mod m, so the largest L-value per (color, class)
      stands for the whole class.
    """
    n = len(colors)
    L = [0] * n
    top = [0] * n
    run = [0] * r
    # class_L[c][q]: the largest L-value of color c in residue class q mod m.
    class_L = [[0] * m for _ in range(r)]
    for i in range(n):
        ci = colors[i]
        if ci < 0:
            continue
        q = i % m
        row_L = class_L[ci]
        most = run[ci]
        best = 0
        for s in gaps:
            j = i - s
            if j < 0:
                break
            if colors[j] == ci:
                if L[j] > best:
                    best = L[j]
                if top[j] <= best:
                    break
        if best < most:
            for rho in classes:
                # q - rho lies in (-m, m); a negative index wraps to its class.
                if row_L[q - rho] > best:
                    best = row_L[q - rho]
                    if best == most:
                        break
        li = best + 1
        L[i] = li
        if li > most:
            run[ci] = li
        top[i] = run[ci]
        if li > row_L[q]:
            row_L[q] = li
    return L


def _class_period(S: GapSet, n: int, r: int
                  ) -> tuple[int, Collection[int], frozenset[int]] | None:
    """S.period when _table_for takes the residue-class route on [1, n], else None.

    The r*m class entries must not outgrow L, r counting every stated color,
    used or not, so a period m with r*m > n is scanned gap by gap.
    """
    period = S.period
    if period is not None and period[0] * r <= n:
        return period
    return None


def _table_for(S: GapSet, colors: Sequence[int], r: int) -> list[int]:
    """_chain_table for S on [1, len(colors)], by residue class when S is periodic.

    colors lie in [0, r), or are -1 where excluded.  Only gaps below n matter.
    """
    n = len(colors)
    period = _class_period(S, n, r)
    if period is None:
        return _chain_table(colors, r, 1, (), S.enumerate(n - 1))
    m, classes, extras = period
    return _chain_table(colors, r, m, classes, sorted(e for e in extras if e < n))


def _has_short_chain(colors: Sequence[int], r: int, S: GapSet, k: int) -> bool:
    """Whether some color of colors (each in [0, r)) holds a k-term chain.

    Level l of color c holds the positions of color c that end an l-term
    chain.  Level 1 is c's positions, and level l + 1 is c's positions that
    lie a gap s in S above a position of level l; a k-term chain exists iff
    level k is non-empty.  All colors share one bitset: position i of color c
    is bit i*r + c, so a shift by s*r moves every color's level by the gap s.
    One pass over [1, n] builds the levels and stops at the first empty one.
    """
    lanes = ["0" * (r - 1 - c) + "1" + "0" * c for c in range(r)]
    mask = int("".join(map(lanes.__getitem__, reversed(colors))), 2)
    shifts = [s * r for s in S.enumerate(len(colors) - 1)]
    level = mask
    for _ in range(k - 1):
        reach = 0
        for s in shifts:
            reach |= level << s
        level = reach & mask
        if not level:
            return False
    return True


def _extract_witness(colors: Sequence[int], L: list[int], S: GapSet) -> tuple[int, DiffseqWitness]:
    """The longest chain, read back from an L-table by S's own membership test.

    It ends at the smallest position holding max(L) and steps each time to
    the smallest earlier same-color position one shorter whose gap lies in
    S.  Raises ValueError where there is none: then L is not S's table.
    S.contains runs once per distinct gap.
    """
    contains = cache(S.contains)
    best = max(L)
    at_length: list[list[int]] = [[] for _ in range(best + 1)]
    for i, li in enumerate(L):
        at_length[li].append(i)
    i = at_length[best][0]
    color = colors[i]
    chain = [i + 1]
    for length in range(best - 1, 0, -1):
        below = at_length[length]
        for j in islice(below, bisect_left(below, i)):
            if colors[j] == color and contains(i - j):
                break
        else:
            raise ValueError(f"L-table contradicts {S.spec}: no color-{color} position "
                             f"with L = {length} lies a gap below position {i + 1}")
        i = j
        chain.append(i + 1)
    chain.reverse()
    return best, DiffseqWitness(positions=tuple(chain), color=color)


def longest_mono_diffseq(c: Coloring, S: GapSet) -> tuple[int, DiffseqWitness]:
    """Length of the longest monochromatic chain in c, with one witness.

    Deterministic: the witness ends at the smallest position attaining the
    maximum and each step follows the smallest predecessor attaining its
    L-value.  Singletons count, so the length is always >= 1.
    """
    return _extract_witness(c.colors, _table_for(S, c.colors, c.r), S)


def longest_restricted(c: Coloring, S: GapSet, allowed: Sequence[bool]) -> tuple[int, DiffseqWitness | None]:
    """Longest monochromatic chain using only positions marked allowed.

    allowed[i] covers integer i + 1.  An excluded position takes color -1,
    which the chain DP matches with nothing.  Returns (0, None) when every
    position is excluded.
    """
    if len(allowed) != c.n:
        raise ValueError("allowed mask must cover the whole interval")
    if not any(allowed):
        return 0, None
    colors = [ci if ok else -1 for ci, ok in zip(c.colors, allowed)]
    return _extract_witness(colors, _table_for(S, colors, c.r), S)


def has_k_term(c: Coloring, S: GapSet, k: int) -> bool:
    """True iff c contains a monochromatic k-term chain.

    Up to k = _SHORT_CHAIN, a set that _table_for would scan gap by gap is
    decided by _has_short_chain on bitsets in one pass over [1, n], chain or
    no chain; otherwise the chain table over [1, n] decides it.  The bitsets
    hold r bits per position, so a coloring with more than MAX_COLORS colors
    (mod_block's r = m, up to 10**5) keeps to the table.
    """
    if operator.index(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k <= _SHORT_CHAIN and c.r <= MAX_COLORS and _class_period(S, c.n, c.r) is None:
        return _has_short_chain(c.colors, c.r, S, k)
    return max(_table_for(S, c.colors, c.r)) >= k


def brute_force_longest(c: Coloring, S: GapSet) -> int:
    """Oracle: longest monochromatic chain by exhaustive chain enumeration.

    Walks every monochromatic chain by recursive extension, querying gap
    membership directly; no tables, no recurrence.  Exponential in the worst
    case, hence the hard n <= 20 guard.
    """
    n = c.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force oracle limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    colors = c.colors
    best = 1

    def extend(last: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for nxt in range(last + 1, n):
            if colors[nxt] == colors[last] and S.contains(nxt - last):
                extend(nxt, length + 1)

    for start in range(n):
        extend(start, 1)
    return best

