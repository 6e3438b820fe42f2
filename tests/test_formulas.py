"""Closed-form values and the bound registry."""

from __future__ import annotations

import itertools

import pytest

from diffseq import solver
from diffseq.formulas import (
    _REGISTRY,
    MAX_BOUNDS_K,
    Bounds,
    bounds_for,
    fib,
    g,
    registry_rows,
    scaled_value,
)
from diffseq.gapsets import make_set


def test_g_values():
    assert g(2) == 3
    assert g(3) == 5
    assert g(4) == 9
    with pytest.raises(ValueError):
        g(1)


def test_g_refuses_a_fractional_length():
    with pytest.raises(TypeError):
        g(4.5)


def test_g_parity_identity():
    for k in range(2, 40):
        assert g(k + 2) == g(k) + 6


def test_fib_values():
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(6) == 8
    assert fib(10) == 55
    with pytest.raises(ValueError):
        fib(0)


def test_scaled_value():
    assert scaled_value(7, 2) == 13
    assert scaled_value(3, 1) == 3
    assert scaled_value(7, 3) == 19
    with pytest.raises(ValueError, match="M >= 1"):
        scaled_value(0, 2)
    # Unrefused, scaled_value(3.5, 2) answered 6.0.
    for m_value, j in ((3.5, 2), (7, 2.0)):
        with pytest.raises(TypeError):
            scaled_value(m_value, j)


@pytest.mark.parametrize("k, r", [(0, 2), (3, 0)])
def test_bounds_for_rejects_parameters_below_one(k, r):
    with pytest.raises(ValueError, match="k and r"):
        bounds_for(make_set("powers(2)"), k, r)


def test_bounds_for_refuses_k_above_the_cap():
    # Uncapped, k = 3 * 10**6 ran past 20 s on fibonacci, and at k = 3 * 10**5
    # F(k+3) was built and then could not be printed.
    assert MAX_BOUNDS_K == 10**4
    top = bounds_for(make_set("fibonacci"), MAX_BOUNDS_K, 2).upper
    assert top == fib(MAX_BOUNDS_K + 3) - 2 and len(str(top)) == 2091
    for spec in ("fibonacci", "thm23(1000)"):
        with pytest.raises(ValueError, match="k must be <= 10000"):
            bounds_for(make_set(spec), MAX_BOUNDS_K + 1, 2)


def test_bounds_for_refuses_values_past_the_print_limit(capsys):
    # Unrefused, thm23(10) at k = 5000 built 10^5000, and diffseq bounds then
    # exited with Python's own message on printing it.
    from diffseq.cli import main

    for spec, k in [("thm23(10)", 5000), ("thm23(1000)", 1500), ("scaled(100, thm23(10))", 4298)]:
        with pytest.raises(ValueError, match="-digit limit on printing an int"):
            bounds_for(make_set(spec), k, 2)
    top = bounds_for(make_set("thm23(10)"), 4298, 2).upper
    assert top == 10**4298 - 9 and len(str(top)) == 4298
    assert main(["bounds", "--set", "thm23(10)", "--k", "5000", "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "-digit limit on printing an int" in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("k, r", [(4.5, 2), (4, 2.5)])
def test_bounds_for_refuses_fractional_parameters(k, r):
    # s_m(3) at k = 4.5 would read lower = upper = 13, exact: no such query exists.
    with pytest.raises(TypeError):
        bounds_for(make_set("s_m(3)"), k, r)


def test_exact_family_nonmult3():
    b = bounds_for(make_set("s_m(3)"), 5, 2)
    assert (b.lower, b.upper, b.exact) == (15, 15, True)


def test_power_of_two_sandwich():
    b = bounds_for(make_set("powers(2)"), 6, 2)
    assert (b.lower, b.upper) == (25, 63)
    assert not b.exact


def test_geometric_upper_specializes_to_power_of_two():
    # base a=2 collapses the two geometric tracks onto the powers of two
    for k in range(1, 12):
        b = bounds_for(make_set("powers(2)"), k, 2)
        assert b.upper == 2**k - 1
        b4 = bounds_for(make_set("thm23(4)"), k, 2)
        assert b4.upper == 4**k - 3


def test_nonmult6_conjecture_value():
    b = bounds_for(make_set("s_m(6)"), 7, 2)
    assert ("nonmult6-conjecture", 15) in b.conjectures
    # conjectures never feed the theorem lower bound
    assert bounds_for(make_set("s_m(6)"), 7, 2).lower == 15  # from 2k+2a-1
    b2 = bounds_for(make_set("s_m(6)"), 2, 2)
    assert ("nonmult6-conjecture", 3) in b2.conjectures


def test_nonmult_small_k_exact_range():
    S = make_set("s_m(7)")
    for k in range(2, 7):
        b = bounds_for(S, k, 2)
        assert b.exact and b.lower == b.upper == 2 * k - 1
    b = bounds_for(S, 7, 2)  # k == m leaves only the lower bound
    assert not b.exact
    assert b.lower == 2 * 7 + 2 * 1 - 1


def test_nonmult_lower_bound_gap_case():
    # m=5, k=8: the registered lower bound is 17 while the reference table
    # value is 19; the registry records the bound, not the table.
    assert bounds_for(make_set("s_m(5)"), 8, 2).lower == 17
    assert 17 <= 19


def test_odds_plus_two_entries():
    S = make_set("odds_plus_two")
    b = bounds_for(S, 6, 2)
    assert b.exact and b.lower == b.upper == g(6)
    # exhaustive search gives f = 25 at k=9, so g(9) = 23 is only a lower bound
    b9 = bounds_for(S, 9, 2)
    assert b9.lower == 23 and b9.upper is None and b9.exact is False
    b3 = bounds_for(S, 4, 3)
    assert b3.upper == 6 * 16 - 13 * 4 + 6
    assert b3.lower is None


def test_fibonacci_upper():
    S = make_set("fibonacci")
    for k, expected in ((2, 3), (3, 6), (8, 87)):
        assert bounds_for(S, k, 2).upper == expected


def test_mod12_family_exact():
    S = make_set("residues(12; 1,2,5,7,10,11)")
    b = bounds_for(S, 5, 2)
    assert b.exact and b.lower == b.upper == 23
    assert bounds_for(S, 2, 2).lower is None  # formula starts at k=3


def test_unknown_family_yields_empty_bounds():
    b = bounds_for(make_set("primes"), 4, 2)
    assert b.lower is None and b.upper is None and not b.conjectures


def test_bounds_store_only_their_entries_and_scale():
    assert Bounds._fields == ("entries", "scale")


def _fold(entries):
    # The tightest bounds, accumulated entry by entry.
    lower = upper = None
    exact, conjectures = False, []
    for entry, value in entries:
        if entry.kind == "conjecture":
            conjectures.append((entry.formula_id, value))
            continue
        if entry.kind != "upper":
            lower = value if lower is None else max(lower, value)
        if entry.kind != "lower":
            upper = value if upper is None else min(upper, value)
        exact = exact or entry.kind == "exact"
    return lower, upper, exact, conjectures


@pytest.mark.parametrize("spec", [
    "odds_plus_two", "s_m(3)", "s_m(4)", "s_m(5)", "s_m(6)", "s_m(7)", "powers(2)",
    "thm23(4)", "fibonacci", "residues(12; 1,2,5,7,10,11)",
    # aliases of the periodic families, scaled copies and an unknown set
    "scaled(1, odds_plus_two)", "residues(3; 1,2)", "residues(4; 1,2,3)",
    "residues(10; 1,2,3,4,6,7,8,9)", "residues(6; 1,2,3,4,5)",
    "residues(24; 1,2,5,7,10,11,13,14,17,19,22,23)", "thm23(2)",
    "scaled(2, s_m(3))", "scaled(3, odds_plus_two)", "primes"])
def test_bounds_fold_from_their_entries(spec):
    S = make_set(spec)
    for k in range(1, 13):
        for r in (1, 2, 3):
            b = bounds_for(S, k, r)
            assert (b.lower, b.upper, b.exact, b.conjectures) == _fold(b.entries), (k, r)


def test_bounds_fold_entries_of_unequal_values():
    # No registered query yet has two values on one side, so the fold is also
    # checked on each pair of registry entries given the values 3 and 5.
    for a, b in itertools.product(_REGISTRY, repeat=2):
        for entries in ([(a, 3), (b, 5)], [(a, 5), (b, 3)]):
            bounds = Bounds(entries)
            assert (bounds.lower, bounds.upper, bounds.exact, bounds.conjectures) == \
                _fold(entries), (a.formula_id, b.formula_id)


def test_residue_alias_matches_nonmult_family():
    alias = make_set("residues(3; 1,2)")
    assert bounds_for(alias, 5, 2).lower == 15


@pytest.mark.parametrize("alias, plain", [
    ("scaled(1, s_m(5))", "s_m(5)"),
    ("scaled(1, odds_plus_two)", "odds_plus_two"),
    ("scaled(1, residues(12; 1,2,5,7,10,11))", "residues(12; 1,2,5,7,10,11)"),
    ("residues(6; 1,2,3,4,5)", "s_m(6)"),
    ("residues(6; 1,2,4,5)", "s_m(3)"),
    ("residues(24; 1,2,5,7,10,11,13,14,17,19,22,23)", "residues(12; 1,2,5,7,10,11)"),
    ("scaled(1, fibonacci)", "fibonacci"),
    ("scaled(1, powers(2))", "powers(2)"),
    ("thm23(2)", "powers(2)"),
])
def test_alias_gets_the_bounds_of_its_plain_spec(alias, plain):
    for k in range(1, 13):
        for r in (2, 3):
            assert bounds_for(make_set(alias), k, r) == bounds_for(make_set(plain), k, r)
    assert bounds_for(make_set(alias), 6, 2).entries


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("spec", [
    "s_m(3)", "s_m(4)", "s_m(5)", "s_m(6)", "odds_plus_two", "powers(2)", "thm23(4)",
    "fibonacci", "residues(12; 1,2,5,7,10,11)", "scaled(2, s_m(7))"])
def test_scaled_set_gets_the_bounds_of_its_inner_set_through_the_law(spec, j):
    def law(v):
        return None if v is None else scaled_value(v, j)

    for k in range(1, 13):
        for r in (2, 3):
            plain = bounds_for(make_set(spec), k, r)
            b = bounds_for(make_set(f"scaled({j}, {spec})"), k, r)
            assert (b.lower, b.upper, b.exact) == (law(plain.lower), law(plain.upper), plain.exact)
            assert b.conjectures == [(f, law(v)) for f, v in plain.conjectures]
            assert b.entries == [(e, law(v)) for e, v in plain.entries]
    assert bounds_for(make_set(f"scaled({j}, {spec})"), 6, 2).entries


def test_registry_rows_have_dump_columns():
    rows = registry_rows()
    assert len(rows) >= 8
    for row in rows:
        assert set(row) == {"family", "params", "k-range", "kind", "formula", "citation"}
        assert row["kind"] in ("exact", "lower", "upper", "conjecture")


def test_reference_table_values_respect_registered_bounds():
    # every known table value sits inside whatever bounds the registry has
    from diffseq.table1 import TABLE_ROWS

    checked = 0
    for row in TABLE_ROWS:
        S = make_set(row.set_spec)
        for k, value in zip(range(2, 9), row.expected):
            if value is None:
                continue
            b = bounds_for(S, k, 2)
            if b.lower is not None:
                assert b.lower <= value, (row.label, k)
                checked += 1
            if b.upper is not None:
                assert value <= b.upper, (row.label, k)
                checked += 1
    assert checked > 20  # T, F, S5, S6 all carry bounds


# (spec, r, k range) for the self-audit: every exact and upper entry applies
# to at least one query, and each exhaustion stays under about 10^6 nodes.
_AUDIT_QUERIES = [
    ("odds_plus_two", 2, range(2, 11)),
    ("odds_plus_two", 3, range(2, 5)),
    ("s_m(3)", 2, range(2, 9)),
    ("residues(6; 1,2,4,5)", 2, range(2, 9)),
    ("scaled(2, s_m(3))", 2, range(2, 7)),
    ("residues(4; 1,2,3)", 2, range(2, 10)),
    ("s_m(5)", 2, range(1, 7)),
    ("s_m(7)", 2, range(1, 7)),
    ("powers(2)", 2, range(1, 8)),
    ("thm23(2)", 2, range(1, 7)),
    ("thm23(4)", 2, range(1, 4)),
    ("thm23(5)", 2, range(1, 3)),
    ("fibonacci", 2, range(1, 9)),
    ("residues(12; 1,2,5,7,10,11)", 2, range(3, 8)),
    ("residues(24; 1,2,5,7,10,11,13,14,17,19,22,23)", 2, range(3, 6)),
]


def test_registry_never_contradicts_the_solver():
    audited = set()
    for spec, r, ks in _AUDIT_QUERIES:
        S = make_set(spec)
        for k in ks:
            entries = [(e, v) for e, v in bounds_for(S, k, r).entries if e.kind != "conjecture"]
            upper = min((v for e, v in entries if e.kind != "lower"), default=None)
            result = solver.compute_f(S, k, r, n_max=200 if upper is None else upper,
                                      budget=solver.SearchBudget(max_nodes=2_000_000))
            # An upper bound U is refuted when [1, U] still has an avoiding
            # coloring: compute_f then stops short of EXACT.
            assert result.status == solver.EXACT, (spec, r, k, result.status)
            for entry, value in entries:
                where = (entry.formula_id, spec, r, k, value, result.value)
                if entry.kind in ("exact", "lower"):
                    assert result.value >= value, where
                if entry.kind in ("exact", "upper"):
                    assert result.value <= value, where
                audited.add(entry.formula_id)
    claims = {e.formula_id for e in _REGISTRY if e.kind in ("exact", "upper")}
    assert claims <= audited
