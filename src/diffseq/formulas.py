"""Closed-form values, bounds and conjectures for f(S,k;r), as a registry.

Each entry ties a gap-set family to a formula in k, a kind (exact / lower /
upper / conjecture) and an applicability predicate.  The solver never
consults the registry: it searches upward from n = 1, so neither a wrong
bound nor a wrong conjecture can corrupt an exact result, and the registry
can be checked against the solver.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from .gapsets import GapSet, make_set, not_multiple_of


def g(k: int) -> int:
    """3k-4 for odd k, 3k-3 for even k.

    The two-color threshold for the non-multiples of 4, and a lower bound
    for {2}-union-odds gaps (a subset of them); see the registry.
    """
    if operator.index(k) < 2:
        raise ValueError(f"g(k) requires k >= 2, got {k}")
    return 3 * k - 4 if k % 2 == 1 else 3 * k - 3


def fib(i: int) -> int:
    """Fibonacci numbers with F(1) = F(2) = 1."""
    if i < 1:
        raise ValueError(f"fib(i) requires i >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def scaled_value(m_value: int, j: int) -> int:
    """Threshold after scaling every gap by j: M maps to j*(M-1)+1."""
    if operator.index(m_value) < 1 or operator.index(j) < 1:
        raise ValueError("scaled_value requires M >= 1 and j >= 1")
    return j * (m_value - 1) + 1


# k at which exhaustive search gives f({2} union odds, k; 2) = g(k); it does
# not at k = 9 (25) nor at k = 11, 12, 13 (31, 35, 37).
_ODDS_TWO_EXACT_K = frozenset({2, 3, 4, 5, 6, 7, 8, 10})


def _conj_s6(k: int) -> int:
    # Piecewise by k mod 4; conjectured exact value for the non-multiples of 6.
    offset = {2: 4, 3: 5, 0: 6, 1: 7}[k % 4]
    return (5 * k - offset) // 2


# Periodic families match by least-terms period, so every spelling gets the entries.
_ODDS_TWO_PERIOD = make_set("odds_plus_two").period
_MOD12_PERIOD = make_set("residues(12; 1,2,5,7,10,11)").period


def _geometric_base(S: GapSet) -> int | None:
    return S.params[0] if S.kind == "thm23" or (S.kind, S.params) == ("powers", (2,)) else None


@dataclass(frozen=True)
class BoundEntry:
    """One registered formula: kind, value in k, and where it applies."""

    family: str
    params: str
    kind: str  # exact | lower | upper | conjecture
    formula_id: str
    formula: str
    k_range: str
    statement: str
    applies: Callable[[GapSet, int, int], bool] = field(repr=False)
    value: Callable[[GapSet, int], int] = field(repr=False)


_REGISTRY: tuple[BoundEntry, ...] = (
    BoundEntry(
        family="odds_plus_two", params="-", kind="lower",
        formula_id="odds-two-lower", formula="g(k)", k_range="k>=2",
        statement="f >= 3k-4 for odd k and 3k-3 for even k, two colors",
        applies=lambda S, k, r: S.period == _ODDS_TWO_PERIOD and r == 2 and k >= 2,
        value=lambda S, k: g(k),
    ),
    BoundEntry(
        family="odds_plus_two", params="-", kind="exact",
        formula_id="odds-two-exact", formula="g(k)", k_range="2<=k<=8, k=10",
        statement="f = g(k) where exhaustive search confirms it; f = 25 > g(9) at k=9",
        applies=lambda S, k, r: S.period == _ODDS_TWO_PERIOD and r == 2 and k in _ODDS_TWO_EXACT_K,
        value=lambda S, k: g(k),
    ),
    BoundEntry(
        family="odds_plus_two", params="-", kind="upper",
        formula_id="odds-two-3color-upper", formula="6k^2-13k+6", k_range="k>=2",
        statement="f <= 6k^2-13k+6 with three colors",
        applies=lambda S, k, r: S.period == _ODDS_TWO_PERIOD and r == 3 and k >= 2,
        value=lambda S, k: 6 * k * k - 13 * k + 6,
    ),
    BoundEntry(
        family="s_m(3)", params="m=3", kind="exact",
        formula_id="nonmult3-exact", formula="4k-5", k_range="k>=2",
        statement="f = 4k-5 for the non-multiples of 3, two colors",
        applies=lambda S, k, r: not_multiple_of(S) == 3 and r == 2 and k >= 2,
        value=lambda S, k: 4 * k - 5,
    ),
    BoundEntry(
        family="s_m(4)", params="m=4", kind="exact",
        formula_id="nonmult4-exact", formula="g(k)", k_range="k>=2",
        statement="f = g(k) for the non-multiples of 4, two colors",
        applies=lambda S, k, r: not_multiple_of(S) == 4 and r == 2 and k >= 2,
        value=lambda S, k: g(k),
    ),
    BoundEntry(
        family="s_m(m)", params="m>=5", kind="exact",
        formula_id="nonmult-small-k-exact", formula="2k-1", k_range="1<=k<m",
        statement="f = 2k-1 for the non-multiples of m when k < m, two colors",
        applies=lambda S, k, r: ((not_multiple_of(S) or 0) >= 5
                                 and r == 2 and 1 <= k < not_multiple_of(S)),
        value=lambda S, k: 2 * k - 1,
    ),
    BoundEntry(
        family="s_m(m)", params="m>=5", kind="lower",
        formula_id="nonmult-lower", formula="2k+2a-1, a=floor(k/m)", k_range="k>=1",
        statement="f >= 2k+2a-1 for the non-multiples of m, where am <= k < (a+1)m",
        applies=lambda S, k, r: (not_multiple_of(S) or 0) >= 5 and r == 2 and k >= 1,
        value=lambda S, k: 2 * k + 2 * (k // not_multiple_of(S)) - 1,
    ),
    BoundEntry(
        family="powers(2)", params="a=2", kind="lower",
        formula_id="pow2-lower", formula="8(k-3)+1", k_range="k>=3",
        statement="f >= 8(k-3)+1 for power-of-two gaps, two colors",
        applies=lambda S, k, r: _geometric_base(S) == 2 and r == 2 and k >= 3,
        value=lambda S, k: 8 * (k - 3) + 1,
    ),
    BoundEntry(
        family="thm23(a)", params="a>=2, a!=3 (a=2 covers powers(2))", kind="upper",
        formula_id="geometric-upper", formula="a^k-a+1", k_range="k>=1",
        statement="f <= a^k-a+1 for the two-track geometric gap family, two colors",
        applies=lambda S, k, r: _geometric_base(S) is not None and r == 2 and k >= 1,
        value=lambda S, k: _geometric_base(S) ** k - _geometric_base(S) + 1,
    ),
    BoundEntry(
        family="fibonacci", params="-", kind="upper",
        formula_id="fibonacci-upper", formula="F(k+3)-2", k_range="k>=1",
        statement="f <= F(k+3)-2 for Fibonacci gaps, two colors",
        applies=lambda S, k, r: S.spec == "fibonacci" and r == 2 and k >= 1,
        value=lambda S, k: fib(k + 3) - 2,
    ),
    BoundEntry(
        family="residues(12; 1,2,5,7,10,11)", params="mod 12", kind="exact",
        formula_id="mod12-classes-exact", formula="7k-12", k_range="k>=3",
        statement="f = 7k-12 for gaps divisible by neither 3 nor 4, two colors",
        applies=lambda S, k, r: S.period == _MOD12_PERIOD and r == 2 and k >= 3,
        value=lambda S, k: 7 * k - 12,
    ),
    BoundEntry(
        family="s_m(6)", params="m=6", kind="conjecture",
        formula_id="nonmult6-conjecture",
        formula="(5k-4)/2, (5k-5)/2, (5k-6)/2, (5k-7)/2 by k mod 4 = 2,3,0,1",
        k_range="k>=2",
        statement="conjectured exact value for the non-multiples of 6, two colors",
        applies=lambda S, k, r: not_multiple_of(S) == 6 and r == 2 and k >= 2,
        value=lambda S, k: _conj_s6(k),
    ),
)


@dataclass
class Bounds:
    """The registry entries that apply to one (set, k, r) query, with values.

    The tightest bounds fold from them; an exact entry counts on both sides.
    """

    entries: list[tuple[BoundEntry, int]]
    scale: int = 1  # the j of scaled(j, S): each value is scaled_value(formula, j)

    @property
    def lower(self) -> int | None:
        return max((v for e, v in self.entries if e.kind in ("exact", "lower")), default=None)

    @property
    def upper(self) -> int | None:
        return min((v for e, v in self.entries if e.kind in ("exact", "upper")), default=None)

    @property
    def exact(self) -> bool:
        return any(e.kind == "exact" for e, _ in self.entries)

    @property
    def conjectures(self) -> list[tuple[str, int]]:
        return [(e.formula_id, v) for e, v in self.entries if e.kind == "conjecture"]


def bounds_for(S: GapSet, k: int, r: int) -> Bounds:
    """Collect every registry entry that applies, in registry order.

    Unknown families yield no entries.  scaled(j, S) takes S's values through
    scaled_value(., j), a law for all k, r.
    """
    if operator.index(k) < 1 or operator.index(r) < 1:
        raise ValueError("k and r must be >= 1")
    j = 1
    while S.kind == "scaled":
        j *= S.params[0]
        S = S.params[1]
    return Bounds([(e, scaled_value(e.value(S, k), j)) for e in _REGISTRY if e.applies(S, k, r)],
                  scale=j)


def registry_rows() -> list[dict]:
    """Registry dump rows: family, params, k-range, kind, formula, citation."""
    return [
        {
            "family": entry.family,
            "params": entry.params,
            "k-range": entry.k_range,
            "kind": entry.kind,
            "formula": entry.formula,
            "citation": entry.statement,
        }
        for entry in _REGISTRY
    ]
