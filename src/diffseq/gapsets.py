"""Catalog of gap sets, a small textual grammar to name them, and membership.

A gap set is a set of positive integers used as the allowed differences
between consecutive elements of a chain.  Sets are described by a canonical
ASCII spec:

    powers(a) | thm23(a) | fibonacci | primes | primes+t | s_m(m)
    | residues(m; c1,c2,...) | diffs(t1,t2,...) | scaled(j, SPEC)
    | union(SPEC, SPEC) | explicit(d1,d2,...) | odds_plus_two

Kinds:
    powers(a)        {a^i : i >= 0}
    thm23(a)         {(a-1)*a^j} union {(a-1)^2*a^j}, j >= 0 (a >= 2, a != 3)
    fibonacci        the Fibonacci numbers as a set: {1, 2, 3, 5, 8, ...}
    primes           the primes
    primes+t         every prime shifted up by t (t >= 1)
    s_m(m)           positive integers not divisible by m
    residues(m; C)   positive integers whose residue mod m lies in C
    diffs(T)         pairwise differences {t - s : s < t in T}
    scaled(j, S)     {j*d : d in S}
    union(A, B)      set union
    explicit(...)    a finite list
    odds_plus_two    {2} union the odd numbers

GapSet objects are immutable; membership and bounded enumeration agree
pointwise, as the tests check, and read one description of each kind.
powers(a), fibonacci and thm23(a) are a seed (x, y) and a step, and
x, y = y, step(x, y) walks the members in ascending order; thm23(a) steps a*x.
primes is the primes+t rule at t = 0 (params (0,)).  GapSet.period alone
describes a periodic or finite set, in least terms.  The builders store the
ints they check, so make_set(S.spec) == S.  _Value, the
immutable record that GapSet, Coloring, DiffseqWitness, SearchBudget,
PrimeChain, OffsetSystem and WitnessClaim share, compares, hashes and shows
an object by its _fields.

Primality lives here, with the prime kinds that use it; primechain imports
sieve and is_prime back.  The sieve marks odd numbers only (Pritchard's
2-wheel, Acta Inf. 17, 1982): one mask entry per odd number, _SEGMENT_SPAN of
them per segment, with 2 written first.  It fills one array sized by the bound
pi(x) < 1.25506 x / ln x (Rosser & Schoenfeld, Illinois J. Math. 6, 1962) and
shrinks it in place, so its peak stays near its result.  One routine, _strike,
strikes a run of segments.  The segments are independent (Bays & Hudson, BIT
17, 1977), so past one segment, with 2 usable CPUs, a helper thread runs
_strike on the upper half of them, down from the end of the same array, while
the caller runs it on the lower half, up from the start; numpy's strided
fills and flatnonzero release the GIL, so the halves run in parallel.  It
uses a thread where the search forks: the search is pure Python, which holds
the GIL, while a fork of a large process pays a copy-on-write fault for every
page either side then writes.

is_prime holds no state: it is deterministic Miller-Rabin, exact below
_MR_LIMIT (about 3.3 * 10**24); larger queries raise ValueError.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right, insort
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# The sieve marks composites one segment of this many odd numbers at a time,
# so its working mask stays proportional to the span, not the bound.
_SEGMENT_SPAN = 2**20

# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86,
# 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


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
    """All primes <= n in ascending order, as int64.

    _strike writes the primes 2*j + 1 of a run low <= j < high into out.
    Past one segment, with 2 CPUs usable, a helper thread strikes [mid, half),
    the upper half of the segments, from the top one down, and writes them
    down from the end of out, while this thread strikes [0, mid) up from the
    start: out holds all the primes, so the two blocks never meet.  This
    thread joins the helper and slides the upper block down.  Otherwise mid
    is half and no thread starts.  Either way the result is the same array.
    numpy is imported here, on the first sieve, not with the package.
    """
    import numpy as np

    if n < 2:
        raise ValueError(f"sieve bound must be >= 2, got {n}")
    odd_base = _simple_sieve(math.isqrt(n)).tolist()[1:]
    half = (n + 1) // 2  # the odd numbers <= n are 2*j + 1 for j < half
    length = int(1.25506 * n / math.log(n)) + 1
    out = np.empty(length, dtype=np.int64)
    out[0] = 2
    if half <= _SEGMENT_SPAN or _usable_cpus() < 2:
        count = _strike(out, 1, 0, half, odd_base)
        out.resize(count, refcheck=False)  # no view of out exists
        return out
    import threading

    mid = -(-half // _SEGMENT_SPAN) // 2 * _SEGMENT_SPAN  # the upper half's first index
    upper: list = []

    def strike_upper() -> None:
        try:
            upper.append(_strike(out, length, mid, half, odd_base, down=True))
        except BaseException as exc:  # re-raised by the caller
            upper.append(exc)

    helper = threading.Thread(target=strike_upper, name="diffseq-sieve")
    helper.start()
    try:
        count = _strike(out, 1, 0, mid, odd_base)
    finally:
        helper.join()
    top = upper[0]
    if isinstance(top, BaseException):
        raise top
    # Chunks no longer than the gap, so no copy overlaps its source and numpy
    # needs no temporary.
    step = top - count
    for src in range(top, length, step):
        size = min(step, length - src)
        out[count : count + size] = out[src : src + size]
        count += size
    out.resize(count, refcheck=False)  # no view of out exists
    return out


def _strike(out: np.ndarray, count: int, low: int, high: int, odd_base: list[int],
            down: bool = False) -> int:
    """Write the primes 2*j + 1, low <= j < high, into out from index count up.

    Index j of a segment's mask stands for the odd number 2*j + 1, so the odd
    multiples of p are every p-th index.  One mask, allocated once, is
    refilled for each segment.  Returns the index past the last prime written;
    down, the segments run from the top one down and the primes end just
    below index count, and the index of the first is returned.
    """
    import numpy as np

    buffer = np.empty(min(_SEGMENT_SPAN, high - low), dtype=bool)
    starts = range(low, high, _SEGMENT_SPAN)
    for start in reversed(starts) if down else starts:
        stop = min(start + _SEGMENT_SPAN, high)  # exclusive
        mask = buffer[: stop - start]
        mask.fill(True)
        if start == 0:
            mask[0] = False  # 1 is not prime
        for p in odd_base:
            j = p * p // 2  # the first multiple left to strike is p*p
            if j >= stop:
                break
            if j < start:
                j = start + (p // 2 - start) % p  # the first odd multiple of p at or above start
            mask[j - start :: p] = False
        found = np.flatnonzero(mask)
        found *= 2
        found += 2 * start + 1
        if down:
            count -= len(found)
        out[count : count + len(found)] = found
        if not down:
            count += len(found)
    return count


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    import os

    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


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


# perfbench's tracing test checks that this binding of sieve outlives a traced pass.
_sieve = sieve


class GapSetError(ValueError):
    """A structurally valid spec with out-of-domain parameters."""


class GapSpecError(GapSetError):
    """A malformed spec string; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Value:
    """An immutable record, compared, hashed and shown by the fields in _fields.

    The base of GapSet, Coloring, DiffseqWitness, SearchBudget, PrimeChain,
    OffsetSystem and WitnessClaim: each checks or normalizes its input in its
    __init__, which stores the fields through __dict__, past __setattr__.
    Objects of different types never compare equal.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({body})"


class GapSet(_Value):
    """An immutable set of positive integers with a canonical textual spec.

    The cached properties below write the instance __dict__, past __setattr__.
    """

    _fields = ("kind", "params", "spec")

    def __init__(self, kind: str, params: tuple, spec: str):
        self.__dict__.update(kind=kind, params=params, spec=spec)

    def __str__(self) -> str:
        return self.spec

    def contains(self, d: int) -> bool:
        """Membership test for a positive integer d; TypeError for a non-integer."""
        d = operator.index(d)
        if d < 1:
            return False
        if self.period is not None:
            m, classes, extras = self.period
            return d % m in classes or d in extras
        if self._sparse is not None:
            (x, y), step = self._sparse
            while x < d:
                x, y = y, step(x, y)
            return x == d
        kind = self.kind
        if kind in ("primes", "primes_shifted"):
            t = self.params[0]
            return d > t and is_prime(d - t)
        if kind == "diff_of_set":
            return any(s + d in self._elements for s in self.params)
        if kind == "scaled":
            j, inner = self.params
            return d % j == 0 and inner.contains(d // j)
        if kind == "union":
            a, b = self.params
            return a.contains(d) or b.contains(d)
        raise AssertionError(f"unhandled kind {kind}")

    def __contains__(self, d: int) -> bool:
        return self.contains(d)

    @cached_property
    def _elements(self) -> frozenset[int]:
        # diffs(T): T itself, so membership costs O(|T|) memory, not |T|^2.
        return frozenset(self.params)

    @cached_property
    def _sparse(self) -> tuple[tuple[int, int], Callable[[int, int], int]] | None:
        """((x, y), step) when x, y = y, step(x, y) walks S in ascending order, else None."""
        if self.kind == "fibonacci":
            return (1, 2), operator.add
        if self.kind not in ("powers", "thm23"):
            return None
        a = self.params[0]
        if self.kind == "powers":
            return (1, a), lambda x, y: a * y
        return (a - 1, (a - 1) ** 2), lambda x, y: a * x

    @cached_property
    def period(self) -> tuple[int, range | frozenset[int], frozenset[int]] | None:
        """(m, classes, extras) when S = {d >= 1 : d mod m in classes} | extras, else None.

        In least terms: m is the least modulus, classes lie in [0, m) and the
        finitely many extras outside them; a finite set is (1, {}, its values).
        s_m(m) keeps its classes as a range, so s_m(10**9) costs no memory.
        diffs (quadratic in its spec) and union (an lcm modulus) have none.
        """
        kind = self.kind
        if kind == "s_m":
            return self.params[0], range(1, self.params[0]), frozenset()
        if kind == "residues":
            # Least modulus: the shortest self-rotation of the classes' cyclic gaps; m unfactored.
            m, cs = self.params
            gaps = [b - a for a, b in zip(cs, cs[1:] + (cs[0] + m,))]
            s = next(s for s in range(1, len(cs) + 1) if len(cs) % s == 0 and gaps[s:] == gaps[:-s])
            least = sum(gaps[:s])
            return least, frozenset(c % least for c in cs), frozenset()
        if kind == "explicit":
            return 1, frozenset(), frozenset(self.params)
        if kind == "odds_plus_two":
            return 2, frozenset({1}), frozenset({2})
        if kind == "scaled" and self.params[1].period is not None:
            j = self.params[0]
            m, classes, extras = self.params[1].period
            if isinstance(classes, range):
                classes = range(j * classes.start, j * classes.stop, j * classes.step)
            else:
                classes = frozenset(j * c for c in classes)
            return j * m if classes else 1, classes, frozenset(j * e for e in extras)
        return None

    def enumerate(self, bound: int) -> list[int]:
        """The members in [1, bound], ascending.  bound 0 yields []."""
        bound = operator.index(bound)
        if bound < 0:
            raise ValueError(f"enumeration bound must be >= 0, got {bound}")
        if self.period is not None and self.period[0] <= bound:
            # Class c (0 counted as m) holds c, c + m, ...: the full periods interleave
            # the sorted classes, then the partial last period.  The few extras lie
            # outside the classes and are inserted in place.
            m, classes, extras = self.period
            cls = sorted(c or m for c in classes)
            if not cls:
                return sorted(e for e in extras if e <= bound)
            if len(cls) == 1:
                out = list(range(cls[0], bound + 1, m))
            else:
                full = bound // m
                out = [0] * (full * len(cls))
                for t, c in enumerate(cls):
                    out[t::len(cls)] = range(c, full * m + 1, m)
                out.extend(full * m + c for c in cls if full * m + c <= bound)
            for e in extras:
                if e <= bound:
                    insort(out, e)
            return out
        if self._sparse is not None:
            (x, y), step = self._sparse
            out = []
            while x <= bound:
                if x != y:  # thm23(2) walks each member twice, as x == y first
                    out.append(x)
                x, y = y, step(x, y)
            return out
        kind = self.kind
        if kind in ("primes", "primes_shifted"):
            t = self.params[0]
            return (sieve(bound - t) + t).tolist() if bound - t >= 2 else []
        if kind == "scaled":
            j, inner = self.params
            return [j * d for d in inner.enumerate(bound // j)]
        if kind == "union":
            a, b = self.params
            return sorted(set(a.enumerate(bound)) | set(b.enumerate(bound)))
        if kind == "diff_of_set":
            base = self.params
            return sorted({t - s for i, s in enumerate(base)
                           for t in base[i + 1 : bisect_right(base, s + bound, i + 1)]})
        return [d for d in range(1, bound + 1) if self.contains(d)]


def powers(a: int) -> GapSet:
    if (a := operator.index(a)) < 2:
        raise GapSetError(f"powers(a) requires a >= 2, got {a}")
    return GapSet("powers", (a,), f"powers({a})")


def thm23(a: int) -> GapSet:
    if (a := operator.index(a)) < 2 or a == 3:
        raise GapSetError(f"thm23(a) requires a >= 2 and a != 3, got {a}")
    return GapSet("thm23", (a,), f"thm23({a})")


def fibonacci() -> GapSet:
    return GapSet("fibonacci", (), "fibonacci")


def primes() -> GapSet:
    return GapSet("primes", (0,), "primes")


def primes_shifted(t: int) -> GapSet:
    if (t := operator.index(t)) < 1:
        raise GapSetError(f"primes+t requires t >= 1, got {t}")
    return GapSet("primes_shifted", (t,), f"primes+{t}")


def s_m(m: int) -> GapSet:
    if (m := operator.index(m)) < 2:
        raise GapSetError(f"s_m(m) requires m >= 2, got {m}")
    return GapSet("s_m", (m,), f"s_m({m})")


def residues(m: int, classes) -> GapSet:
    if (m := operator.index(m)) < 2:
        raise GapSetError(f"residues(m; ...) requires m >= 2, got {m}")
    cset = tuple(sorted(set(map(operator.index, classes))))
    if not cset:
        raise GapSetError("residues(m; ...) requires at least one class")
    bad = [c for c in cset if c < 0 or c >= m]
    if bad:
        raise GapSetError(f"residue classes must lie in [0, {m - 1}], got {bad}")
    body = ",".join(str(c) for c in cset)
    return GapSet("residues", (m, cset), f"residues({m}; {body})")


def diff_of_set(elements) -> GapSet:
    base = tuple(sorted(set(map(operator.index, elements))))
    if len(base) < 2:
        raise GapSetError("diffs(...) requires at least two distinct elements")
    if base[0] < 1:
        raise GapSetError(f"diffs(...) elements must be positive, got {base[0]}")
    return GapSet("diff_of_set", base, f"diffs({','.join(str(x) for x in base)})")


def scaled(j: int, inner: GapSet) -> GapSet:
    if (j := operator.index(j)) < 1:
        raise GapSetError(f"scaled(j, S) requires j >= 1, got {j}")
    return GapSet("scaled", (j, inner), f"scaled({j}, {inner.spec})")


def union(a: GapSet, b: GapSet) -> GapSet:
    return GapSet("union", (a, b), f"union({a.spec}, {b.spec})")


def explicit(elements) -> GapSet:
    vals = tuple(sorted(set(map(operator.index, elements))))
    if not vals:
        raise GapSetError("explicit(...) requires at least one element")
    if vals[0] < 1:
        raise GapSetError(f"explicit(...) elements must be positive, got {vals[0]}")
    return GapSet("explicit", vals, f"explicit({','.join(str(x) for x in vals)})")


def odds_plus_two() -> GapSet:
    return GapSet("odds_plus_two", (), "odds_plus_two")


def not_multiple_of(S: GapSet) -> int | None:
    """If S is (an alias of) the non-multiples of some m, return m.

    Read off S.period: every class but 0 and no extras.  O(1) for s_m,
    whose classes are a range.
    """
    if S.period is None or S.period[2]:
        return None
    m, classes, _ = S.period
    return m if len(classes) == m - 1 and 0 not in classes else None


class _Production(NamedTuple):
    """One grammar production: its builder, argument shape and docs.

    The shape lists, in order, the parser methods that read the builder's
    arguments ("integer", "int_list", "parse_spec") and the separators
    ("," or ";") between them, all inside parentheses; an empty shape is a
    bare word.
    """

    build: Callable[..., GapSet]
    shape: tuple[str, ...]
    usage: str
    description: str


# Keyed by head word.  primes+t is one word with a numeric suffix, read by its
# own parser branch.
_GRAMMAR: dict[str, _Production] = {
    "powers": _Production(
        powers, ("integer",), "powers(a)", "geometric gaps {a^i : i >= 0}; a >= 2"),
    "thm23": _Production(
        thm23, ("integer",), "thm23(a)", "{(a-1)a^j} union {(a-1)^2 a^j}; a >= 2, a != 3"),
    "fibonacci": _Production(
        fibonacci, (), "fibonacci", "the Fibonacci numbers as a set {1,2,3,5,8,...}"),
    "primes": _Production(primes, (), "primes", "the prime numbers"),
    "primes+": _Production(primes_shifted, (), "primes+t", "primes shifted up by t >= 1"),
    "s_m": _Production(
        s_m, ("integer",), "s_m(m)", "positive integers not divisible by m; m >= 2"),
    "residues": _Production(
        residues, ("integer", ";", "int_list"), "residues(m; c1,c2,...)",
        "integers whose residue mod m is listed"),
    "diffs": _Production(
        diff_of_set, ("int_list",), "diffs(t1,t2,...)", "pairwise differences of a finite set"),
    "scaled": _Production(
        scaled, ("integer", ",", "parse_spec"), "scaled(j, SPEC)",
        "every element of SPEC multiplied by j >= 1"),
    "union": _Production(
        union, ("parse_spec", ",", "parse_spec"), "union(SPEC, SPEC)", "set union"),
    "explicit": _Production(
        explicit, ("int_list",), "explicit(d1,d2,...)", "a finite list of gaps"),
    "odds_plus_two": _Production(
        odds_plus_two, (), "odds_plus_two", "{2} union the odd numbers"),
}

# Shown by the CLI catalog listing; one entry per grammar production.
CATALOG: tuple[tuple[str, str], ...] = tuple(
    (p.usage, p.description) for p in _GRAMMAR.values())


class _Parser:
    """Recursive-descent parser for the gap-set grammar."""

    _WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_+")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> GapSpecError:
        return GapSpecError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in self._WORD_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a set name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def int_list(self) -> list[int]:
        vals = [self.integer()]
        while True:
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                vals.append(self.integer())
            else:
                return vals

    def parse_spec(self) -> GapSet:
        head = self.word()
        if head.startswith("primes+"):
            suffix = head[len("primes+"):]
            if not suffix.isdigit():
                raise self.error("primes+t requires an integer shift")
            return primes_shifted(int(suffix))
        production = _GRAMMAR.get(head)
        if production is None:
            raise self.error(f"unknown set kind {head!r}")
        if not production.shape:
            return production.build()
        self.expect("(")
        args = []
        for part in production.shape:
            if part in (",", ";"):
                self.expect(part)
            else:
                args.append(getattr(self, part)())
        self.expect(")")
        return production.build(*args)


def make_set(spec: str) -> GapSet:
    """Parse a spec string into a GapSet; the result carries a canonical spec."""
    parser = _Parser(spec)
    result = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(spec):
        raise parser.error("trailing characters after set spec")
    return result
