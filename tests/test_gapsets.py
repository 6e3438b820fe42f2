"""Gap-set grammar, membership, and enumeration consistency."""

from __future__ import annotations

import random
import re
import time
import tracemalloc

import pytest

from diffseq.gapsets import (
    _GRAMMAR,
    CATALOG,
    GapSetError,
    GapSpecError,
    diff_of_set,
    explicit,
    make_set,
    not_multiple_of,
    powers,
    residues,
    s_m,
    scaled,
    union,
)


def test_parse_basic_kinds():
    assert make_set("powers(2)").enumerate(20) == [1, 2, 4, 8, 16]
    assert make_set("scaled(3, explicit(1,2))").enumerate(10) == [3, 6]
    assert make_set("s_m(4)").enumerate(10) == [1, 2, 3, 5, 6, 7, 9, 10]


def test_parse_canonicalizes():
    s = make_set("  scaled( 3 ,  explicit( 2 , 1 , 2 ) ) ")
    assert s.spec == "scaled(3, explicit(1,2))"
    # round trip: canonical spec parses to itself
    assert make_set(s.spec).spec == s.spec
    assert make_set("residues(12; 11,1,2,5,7,10)").spec == "residues(12; 1,2,5,7,10,11)"


def test_parse_errors_carry_position():
    with pytest.raises(GapSpecError) as err:
        make_set("powers(x)")
    assert "position" in str(err.value)
    with pytest.raises(GapSpecError):
        make_set("powers(2) trailing")
    with pytest.raises(GapSpecError):
        make_set("unknown_kind(3)")
    with pytest.raises(GapSpecError):
        make_set("primes+x")
    # where each error points, one per way a production can go wrong
    for spec, position in [
        ("powers(x)", 7), ("union(primes; fibonacci)", 12), ("residues(12, 1)", 11),
        ("scaled(3 explicit(1))", 9), ("primes+x", 8), ("unknown_kind(3)", 12),
        ("explicit(1,)", 11), ("", 0), ("fibonacci(3)", 9),
    ]:
        with pytest.raises(GapSpecError) as err:
            make_set(spec)
        assert err.value.position == position, spec
        assert str(err.value).endswith(f"(at position {position})"), spec


@pytest.mark.parametrize("bad", [
    "powers(1)", "thm23(1)", "thm23(3)", "s_m(1)", "scaled(0, explicit(1))",
    "residues(4; 9)", "residues(1; 0)", "explicit()", "diffs(5)", "primes+0",
])
def test_domain_errors(bad):
    with pytest.raises(GapSetError):
        make_set(bad)


@pytest.mark.parametrize("build", [
    lambda: residues(5, []), lambda: diff_of_set([0, 3]),
    lambda: explicit([]), lambda: explicit([0]),
])
def test_builders_refuse_empty_or_nonpositive_elements(build):
    # make_set("explicit()") stops in the parser; the builders check on their own.
    with pytest.raises(GapSetError):
        build()


@pytest.mark.parametrize("build", [
    lambda: explicit([1.9, 2.2]), lambda: residues(4, [1.5]), lambda: residues(4.0, [1]),
    lambda: diff_of_set([1, 2.5]), lambda: powers(2.0), lambda: s_m(3.0),
    lambda: scaled(2.0, powers(2)),
])
def test_builders_refuse_a_float(build):
    # Unrefused, explicit([1.9, 2.2]) was explicit(1,2) and residues(4, [1.5])
    # was residues(4; 1).
    with pytest.raises(TypeError):
        build()


def test_str_is_the_canonical_spec():
    assert str(make_set(" union( powers(2) ,explicit(3) )")) == "union(powers(2), explicit(3))"


def test_enumerate_examples():
    assert make_set("fibonacci").enumerate(10) == [1, 2, 3, 5, 8]
    # the two geometric tracks for a=4: 3*4^j and 9*4^j
    assert make_set("thm23(4)").enumerate(50) == [3, 9, 12, 36, 48]
    assert make_set("diffs(1,2,4,8)").enumerate(7) == [1, 2, 3, 4, 6, 7]


@pytest.mark.parametrize("a", [2, 4, 5, 7, 10])
def test_thm23_enumeration_is_its_two_geometric_tracks(a):
    # Theorem 2.3's definition, written out by plain loops: (a-1)a^j and (a-1)^2 a^j.
    bound = 10**6
    tracks = set()
    for start in (a - 1, (a - 1) ** 2):
        v = start
        while v <= bound:
            tracks.add(v)
            v *= a
    assert make_set(f"thm23({a})").enumerate(bound) == sorted(tracks)


def test_membership_examples():
    assert 4 in make_set("primes+1")  # 4 = 3 + 1
    assert 6 not in make_set("s_m(3)")
    assert 2 in make_set("odds_plus_two")
    assert 4 not in make_set("odds_plus_two")
    assert 9 in make_set("powers(3)")
    assert 6 not in make_set("powers(2)")


ALL_KINDS = [
    "powers(2)", "powers(3)", "thm23(4)", "fibonacci", "primes", "primes+3",
    "s_m(5)", "residues(12; 1,2,5,7,10,11)", "diffs(1,2,4,8,100)",
    "scaled(3, s_m(3))", "union(explicit(2), residues(2; 1))",
    "explicit(1,4,9)", "odds_plus_two", "thm23(2)", "thm23(5)", "thm23(10)",
]


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_membership_matches_enumeration(spec):
    # Pointwise agreement up to 10**4 for every kind.
    S = make_set(spec)
    bound = 10**4
    members = set(S.enumerate(bound))
    for d in range(1, bound + 1):
        assert (d in S) == (d in members), f"{spec} disagrees at {d}"


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_membership_refuses_a_non_integer(spec):
    # Unrefused, powers(2) would answer True at 4.0 while primes raised from
    # is_prime; every kind refuses before its own rule.
    with pytest.raises(TypeError):
        make_set(spec).contains(4.0)


NESTED = [
    "scaled(2, union(powers(3), scaled(5, fibonacci)))",
    "union(scaled(4, primes+1), union(explicit(9,3,3), diffs(4,2,9)))",
    " union( residues(6; 5,1) ,scaled( 1 , thm23(2) ) )",
]


@pytest.mark.parametrize("spec", ALL_KINDS + NESTED)
def test_canonical_spec_round_trips(spec):
    S = make_set(spec)
    again = make_set(S.spec)
    assert again.spec == S.spec
    assert again.enumerate(200) == S.enumerate(200)
    assert [d for d in range(1, 201) if d in again] == S.enumerate(200)


def test_catalog_usages_name_grammar_rows():
    assert len(CATALOG) == len(_GRAMMAR)
    for usage, _ in CATALOG:
        head = re.match(r"[a-z0-9_]+\+?", usage).group()
        assert _GRAMMAR[head].usage == usage


def test_enumerate_is_sorted_and_bounded():
    for spec in ALL_KINDS:
        S = make_set(spec)
        values = S.enumerate(500)
        assert values == sorted(set(values))
        assert all(1 <= v <= 500 for v in values)


def test_enumerate_zero_bound_is_empty():
    # No kind needs its own rule at 0; a negative bound is refused by all.
    for spec in ALL_KINDS:
        S = make_set(spec)
        assert S.enumerate(0) == [], spec
        with pytest.raises(ValueError, match="bound"):
            S.enumerate(-1)


def test_enumerate_refuses_a_fractional_bound():
    # Unrefused, powers(2) would answer [1, 2, 4, 8] at 10.5 and other kinds
    # fail deep inside range or numpy.
    for spec in ALL_KINDS:
        with pytest.raises(TypeError, match="integer"):
            make_set(spec).enumerate(10.5)


@pytest.mark.parametrize("a", [3, 4, 5])
def test_powers_inside_residue_class(a):
    # a^j is always 1 mod (a-1), the containment behind the residue blocker.
    S = powers(a)
    R = residues(a - 1, [1 % (a - 1)])
    for d in S.enumerate(10**4):
        assert d in R


def test_union_membership_is_disjunction():
    A = make_set("explicit(2,4)")
    B = make_set("residues(3; 1)")
    U = union(A, B)
    for d in range(1, 200):
        assert (d in U) == ((d in A) or (d in B))


def test_scaled_membership_law():
    inner = make_set("s_m(3)")
    for j in (1, 2, 5):
        S = scaled(j, inner)
        for d in range(1, 300):
            assert (d in S) == (d % j == 0 and (d // j) in inner)


def test_diff_of_set_elements_are_real_differences():
    base = (3, 7, 20, 21, 50)
    S = diff_of_set(base)
    for d in S.enumerate(100):
        assert any(t - s == d for i, s in enumerate(base) for t in base[i + 1:])


def test_explicit_dedup_and_sort():
    assert explicit([4, 1, 4, 2]).spec == "explicit(1,2,4)"


def test_not_multiple_of_alias():
    assert not_multiple_of(s_m(6)) == 6
    assert not_multiple_of(make_set("residues(4; 1,2,3)")) == 4
    assert not_multiple_of(make_set("residues(4; 1,2)")) is None
    assert not_multiple_of(make_set("primes")) is None
    assert not_multiple_of(make_set("scaled(1, s_m(5))")) == 5
    assert not_multiple_of(make_set("scaled(2, s_m(5))")) is None
    assert not_multiple_of(make_set("odds_plus_two")) is None
    assert not_multiple_of(make_set("residues(2; 1)")) == 2


def test_not_multiple_of_a_huge_modulus_reads_the_range():
    tracemalloc.start()
    try:
        assert not_multiple_of(make_set("s_m(1000000000)")) == 10**9
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_diffs_matches_its_pairwise_definition():
    rng = random.Random(5)
    for _ in range(50):
        base = rng.sample(range(1, 300), rng.randint(2, 30))
        pairwise = {t - s for s in base for t in base if t > s}
        S = diff_of_set(base)
        for bound in (0, 1, 17, 150, 400):
            assert S.enumerate(bound) == sorted(d for d in pairwise if d <= bound)
        assert [d for d in range(-2, 400) if S.contains(d)] == sorted(pairwise)


def test_diffs_of_a_large_spread_set_stays_linear_in_memory():
    # 20,000 squares have about 2*10^8 pairwise differences; neither
    # membership nor a bounded enumeration may build them all.
    spec = "diffs(" + ",".join(str(i * i) for i in range(1, 20001)) + ")"
    queries = (1, 3, 8, 399_960_001, 399_999_999, 400_000_000, 10**9)
    expected = [False, True, True, False, True, False, False]
    S = make_set(spec)
    start = time.perf_counter()
    assert [S.contains(d) for d in queries] == expected
    assert len(S.enumerate(1000)) == 748
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        S = make_set(spec)
        assert [S.contains(d) for d in queries] == expected
        assert S.enumerate(1000)[:6] == [3, 5, 7, 8, 9, 11]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_geometric_family_at_base_two_is_powers_of_two():
    # both tracks collapse onto {2^j} when the base is 2
    assert make_set("thm23(2)").enumerate(1024) == make_set("powers(2)").enumerate(1024)


# --- periodic sets: the period and the slice-built enumeration ---------------

# Least terms: residues reduce to their least modulus, and a finite set has
# no classes and modulus 1.
PERIODIC = {
    "s_m(5)": (5, set(range(1, 5)), set()),
    "s_m(1000)": (1000, set(range(1, 1000)), set()),
    "residues(6; 0,3)": (3, {0}, set()),
    "residues(6; 1,2,4,5)": (3, {1, 2}, set()),
    "residues(4; 0,1,2,3)": (1, {0}, set()),
    "residues(4; 0,1,3)": (4, {0, 1, 3}, set()),
    "residues(12; 1,2,5,7,10,11)": (12, {1, 2, 5, 7, 10, 11}, set()),
    "residues(24; 1,2,5,7,10,11,13,14,17,19,22,23)": (12, {1, 2, 5, 7, 10, 11}, set()),
    "explicit(1,2,4)": (1, set(), {1, 2, 4}),
    "scaled(2, explicit(1,3))": (1, set(), {2, 6}),
    "odds_plus_two": (2, {1}, {2}),
    "scaled(3, s_m(2))": (6, {3}, set()),
    "scaled(2, odds_plus_two)": (4, {2}, {4}),
    "scaled(2, residues(5; 0,2))": (10, {0, 4}, set()),
    "scaled(3, scaled(2, s_m(4)))": (24, {6, 12, 18}, set()),
}


@pytest.mark.parametrize("spec", sorted(PERIODIC))
def test_period_describes_the_set(spec):
    m, classes, extras = make_set(spec).period
    assert (m, set(classes), set(extras)) == PERIODIC[spec]


@pytest.mark.parametrize("spec", sorted(PERIODIC))
def test_periodic_enumeration_matches_membership(spec):
    S = make_set(spec)
    m = S.period[0]
    for bound in sorted({0, 1, m - 1, m, m + 1, 2 * m, 10**4}):
        assert S.enumerate(bound) == [d for d in range(1, bound + 1) if S.contains(d)], bound


@pytest.mark.parametrize("spec", [
    "odds_plus_two", "scaled(3, odds_plus_two)", "residues(7; 3)",   # one class, extras or not
    "explicit(3,9,1)", "scaled(2, explicit(1,4))",                   # no class: extras alone
])
def test_one_class_and_extras_enumeration_matches_membership(spec):
    S = make_set(spec)
    m, _, extras = S.period
    for bound in [*range(3 * m + max(extras, default=0) + 1), 10**5]:
        assert S.enumerate(bound) == [d for d in range(1, bound + 1) if S.contains(d)], bound


@pytest.mark.parametrize("spec", [
    "primes", "primes+3", "powers(2)", "fibonacci", "thm23(2)", "diffs(1,3,7)",
    "union(s_m(3), s_m(5))", "scaled(2, primes)"])
def test_aperiodic_sets_have_no_period(spec):
    assert make_set(spec).period is None


def test_residues_reduce_to_the_least_modulus_by_brute_force():
    rng = random.Random(1)
    for _ in range(500):
        m = rng.randrange(2, 40)
        spelled = {c for c in range(m) if rng.random() < 0.5} or {0}
        p, classes, extras = residues(m, spelled).period
        assert m % p == 0 and not extras and classes <= set(range(p))
        assert {d for d in range(m) if d % p in classes} == spelled
        # no shorter shift maps the spelled classes onto themselves
        assert all({(c + q) % m for c in spelled} != spelled for q in range(1, p))


@pytest.mark.parametrize("classes, least", [
    # 10^4 classes with no shorter rotation: every divisor of 10^4 is tried.
    (set(map(random.Random(0).randrange, [10**30] * 10**4)), 10**30),
    # 100 blocks of 100 classes, one block per 10^28.
    ({q * 10**28 + c for q in range(100) for c in range(1, 101)}, 10**28),
], ids=["random", "blocks"])
def test_hostile_residues_get_their_period_quickly(classes, least):
    assert len(classes) == 10**4
    S = make_set(f"residues({10**30}; {','.join(map(str, classes))})")
    start = time.perf_counter()
    m, reduced, extras = S.period
    assert time.perf_counter() - start < 1.0
    assert m == least and reduced == {c % least for c in classes} and not extras


def test_huge_period_costs_no_memory():
    # s_m keeps its classes as a range, and a period above the bound is
    # enumerated by membership.
    S = make_set("scaled(3, s_m(1000000000))")
    m, classes, _ = S.period
    assert m == 3 * 10**9 and len(classes) == 10**9 - 1 and 3 * 10**8 in classes
    assert S.enumerate(10) == [3, 6, 9]
