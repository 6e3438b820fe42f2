"""Named blocking colorings, their checkable claims, and product colorings.

Every entry in the witness catalog produces a coloring together with a
machine-checkable claim: the longest monochromatic chain for the attached gap
set stays at or below a stated length (optionally with all chain elements
restricted to a domain set).  Claims are data, so callers and the test
harness can verify any witness the same way.

Colorings defined on all positive integers (the blocking colorings) are
materialized on a caller-supplied prefix [1, n]; claims are then prefix
claims.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass
from math import gcd
from typing import Callable

from .coloring import Coloring, has_k_term, longest_restricted
from .gapsets import make_set


@dataclass(frozen=True)
class WitnessClaim:
    """Longest monochromatic chain for set_spec stays <= max_length.

    With domain_spec set, only chains whose elements all lie in the domain
    count.
    """

    set_spec: str
    max_length: int
    domain_spec: str | None = None

    def __post_init__(self):
        # A fractional or negative length would still get an answer from a check path.
        if operator.index(self.max_length) < 0:
            raise ValueError(f"max_length must be >= 0, got {self.max_length}")

    def check(self, coloring: Coloring) -> bool:
        S = make_set(self.set_spec)
        if self.domain_spec is None:
            return not has_k_term(coloring, S, self.max_length + 1)
        allowed = [False] * coloring.n
        for x in make_set(self.domain_spec).enumerate(coloring.n):
            allowed[x - 1] = True
        length, _ = longest_restricted(coloring, S, allowed)
        return length <= self.max_length

    def describe(self) -> str:
        base = (
            f"no monochromatic {self.max_length + 1}-term "
            f"{self.set_spec}-diffsequence"
        )
        if self.domain_spec is not None:
            base += f" with all elements in {self.domain_spec}"
        return base

    def to_dict(self) -> dict:
        out = {"set_spec": self.set_spec, "max_length": self.max_length}
        if self.domain_spec is not None:
            out["domain_spec"] = self.domain_spec
        return out


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Pair two colorings into one with r1*r2 colors: (a, b) -> a*r2 + b.

    Two positions share a product color exactly when they agree in both
    factors, so a monochromatic chain here is monochromatic in each factor.
    """
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} vs {c2.n}")
    colors = tuple(a * c2.r + b for a, b in zip(c1.colors, c2.colors))
    return Coloring(colors=colors, r=c1.r * c2.r)


# --- the witness catalog -------------------------------------------------

def _require(params: dict, **constraints) -> None:
    for name, (ok, msg) in constraints.items():
        if not ok:
            raise ValueError(f"witness parameter {name}: {msg} (got {params.get(name)})")


def _chi_k(k: int) -> tuple[Coloring, WitnessClaim]:
    """8-periodic block coloring avoiding k-term power-of-two chains."""
    _require({"k": k}, k=(k >= 5, "requires k >= 5"))
    return Coloring.parse("10010110" * (k - 3), 2), WitnessClaim("powers(2)", k - 1)


def _c_k(k: int) -> tuple[Coloring, WitnessClaim]:
    """Even-k blocking coloring for {2}-union-odds gaps."""
    _require({"k": k}, k=(k >= 4 and k % 2 == 0, "requires even k >= 4"))
    text = "1" + "000111" * ((k - 2) // 2) + "0"
    return Coloring.parse(text, 2), WitnessClaim("odds_plus_two", k - 1)


def _d_k(k: int) -> tuple[Coloring, WitnessClaim]:
    """Odd-k blocking coloring for {2}-union-odds gaps."""
    _require({"k": k}, k=(k >= 3 and k % 2 == 1, "requires odd k >= 3"))
    text = "11" + "000111" * ((k - 3) // 2) + "00"
    return Coloring.parse(text, 2), WitnessClaim("odds_plus_two", k - 1)


def _thm34(k: int) -> tuple[Coloring, WitnessClaim]:
    # Mod-4 blocking coloring on [1, 4k-6]: 0 on residues 2 and 3, 1 on 0 and 1.
    _require({"k": k}, k=(k >= 2, "requires k >= 2"))
    colors = [0 if x % 4 in (2, 3) else 1 for x in range(1, 4 * k - 6 + 1)]
    return Coloring.from_colors(colors, 2), WitnessClaim("s_m(3)", k - 1)


def _thm35(m: int, k: int) -> tuple[Coloring, WitnessClaim]:
    """Block coloring avoiding k-term non-multiple-of-m chains."""
    _require({"m": m, "k": k}, m=(m >= 5, "requires m >= 5"), k=(k >= 2, "requires k >= 2"))
    a = k // m
    tail = k - a * (m - 1) - 1
    text = ("1" + "0" * (m - 1)) * a + ("1" * (m - 1) + "0") * a + "0" * tail + "1" * tail
    return Coloring.parse(text, 2), WitnessClaim(f"s_m({m})", k - 1)


_PROP36_BLOCK = "10011000110011"  # 14 characters; length comes out to 7k-13


def _prop36(k: int) -> tuple[Coloring, WitnessClaim]:
    """14-periodic coloring for gaps divisible by neither 3 nor 4."""
    _require({"k": k}, k=(k >= 3, "requires k >= 3"))
    if k % 2 == 0:
        text = "1" + _PROP36_BLOCK * ((k - 2) // 2)
    else:
        text = "1" + _PROP36_BLOCK * ((k - 3) // 2) + "1001100"
    return Coloring.parse(text, 2), WitnessClaim("residues(12; 1,2,5,7,10,11)", k - 1)


def _mod_block(m: int, n: int, set_spec: str | None = None) -> tuple[Coloring, WitnessClaim]:
    # x -> x mod m blocks every 2-term chain over any set without a multiple
    # of m; the default claim set s_m(m) has none by construction.
    _require({"m": m, "n": n}, m=(m >= 2, "requires m >= 2"), n=(n >= 1, "requires n >= 1"))
    colors = [x % m for x in range(1, n + 1)]
    claim_spec = set_spec if set_spec is not None else f"s_m({m})"
    return Coloring.from_colors(colors, m), WitnessClaim(claim_spec, 1)


def _lemma25(m: int, n: int, i: int = 1) -> tuple[Coloring, WitnessClaim]:
    """Multiples of m vs the rest; blocks m-term chains over one coprime class."""
    _require(
        {"m": m, "n": n, "i": i},
        m=(m >= 2, "requires m >= 2"),
        n=(n >= 1, "requires n >= 1"),
        i=(1 <= i < m and gcd(i, m) == 1, "requires 1 <= i < m coprime to m"),
    )
    colors = [0 if x % m == 0 else 1 for x in range(1, n + 1)]
    return Coloring.from_colors(colors, 2), WitnessClaim(f"residues({m}; {i})", m - 1)


def _p_not_3acc(n: int) -> tuple[Coloring, WitnessClaim]:
    # Color 0: multiples of 9; color 1: remaining evens; color 2: remaining odds.
    _require({"n": n}, n=(n >= 1, "requires n >= 1"))
    colors = [0 if x % 9 == 0 else (1 if x % 2 == 0 else 2) for x in range(1, n + 1)]
    return Coloring.from_colors(colors, 3), WitnessClaim("primes", 9)


def _remark1(n: int) -> tuple[Coloring, WitnessClaim]:
    # 2-coloring of the gap set itself: chains must draw their elements from
    # it, hence the domain restriction in the claim.
    _require({"n": n}, n=(n >= 1, "requires n >= 1"))
    colors = [1 if (x % 4 == 1 or x == 2) else 0 for x in range(1, n + 1)]
    claim = WitnessClaim("odds_plus_two", 3, domain_spec="odds_plus_two")
    return Coloring.from_colors(colors, 2), claim


# Each builder's signature is its parameter list: parameters with a default
# are optional.
WITNESSES: dict[str, Callable[..., tuple[Coloring, WitnessClaim]]] = {
    "chi_k": _chi_k,
    "C_k": _c_k,
    "D_k": _d_k,
    "thm34": _thm34,
    "thm35": _thm35,
    "prop36": _prop36,
    "mod_block": _mod_block,
    "lemma25": _lemma25,
    "p_not_3acc": _p_not_3acc,
    "remark1": _remark1,
}

# Largest integer parameter named_witness accepts.  Coloring lengths grow
# linearly in k, m and n, by at most 8 positions per unit (chi_k), and
# building and checking a witness takes about 100 bytes per position, so the
# cap keeps every witness within 8*10^5 positions and about 100 MB.
MAX_WITNESS_PARAM = 10**5


def named_witness(name: str, **params) -> tuple[Coloring, WitnessClaim]:
    """Build a cataloged witness coloring and its claim.

    Parameters are keyword-only and per-name: those of the builder in
    WITNESSES, where a default marks an optional one.  Integer parameters
    above MAX_WITNESS_PARAM are refused before anything is built.
    """
    build = WITNESSES.get(name)
    if build is None:
        raise ValueError(f"unknown witness {name!r}; known: {', '.join(sorted(WITNESSES))}")
    signature = inspect.signature(build).parameters
    missing = [p for p, param in signature.items()
               if param.default is inspect.Parameter.empty and p not in params]
    if missing:
        raise ValueError(f"witness {name} requires parameters {missing}")
    extra = [p for p in params if p not in signature]
    if extra:
        raise ValueError(f"witness {name} does not take parameters {extra}")
    for p, value in params.items():
        if isinstance(value, int) and value > MAX_WITNESS_PARAM:
            raise ValueError(f"witness parameter {p}: at most {MAX_WITNESS_PARAM} "
                             f"(got {value})")
    return build(**params)
