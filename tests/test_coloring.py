"""Coloring type, longest-chain dynamic program and brute-force oracle."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from diffseq import coloring
from diffseq.coloring import (
    Coloring,
    DiffseqWitness,
    _table_for,
    brute_force_longest,
    has_k_term,
    longest_mono_diffseq,
    longest_restricted,
)
from diffseq.gapsets import GapSpecError, make_set
from diffseq.primechain import OffsetSystem, PrimeChain
from diffseq.witnesses import WitnessClaim, named_witness
from test_gapsets import ALL_KINDS

ODDS = make_set("residues(2; 1)")
POW2 = make_set("powers(2)")


def all_zero(n: int) -> Coloring:
    return Coloring.from_colors([0] * n, 1)


def alternating(n: int) -> Coloring:
    return Coloring.from_colors([i % 2 for i in range(n)], 2)


# --- Coloring type ---------------------------------------------------------

def test_parse_and_text_round_trip():
    c = Coloring.parse("0120", 3)
    assert c.colors == (0, 1, 2, 0)
    assert c.to_text() == "0120"
    assert Coloring.parse(c.to_text(), 3) == c


def test_parse_rejects_color_at_or_above_r():
    with pytest.raises(ValueError, match=r"^color 2 out of range for r=2$"):
        Coloring.parse("012", 2)
    # The first offending color is named, not the largest.
    with pytest.raises(ValueError, match=r"^color 3 out of range for r=2$"):
        Coloring.parse("0132", 2)
    with pytest.raises(ValueError, match=r"^color 11 out of range for r=11$"):
        Coloring.parse("0Bz", 11)
    with pytest.raises(ValueError):
        Coloring.parse("0!1", 2)
    with pytest.raises(ValueError):
        Coloring.parse("", 2)


def test_parse_infers_r():
    assert Coloring.parse("0120").r == 3
    assert Coloring.parse("0").r == 1
    assert Coloring.parse("00z0").r == 36
    c = Coloring.parse("0C2")
    assert (c.colors, c.r) == ((0, 12, 2), 13)


def test_letters_cover_colors_past_nine():
    c = Coloring.parse("0a", 11)
    assert c.colors == (0, 10)
    assert c.to_text() == "0a"
    upper = "".join(map(chr, range(ord("A"), ord("Z") + 1)))
    assert Coloring.parse(upper).colors == tuple(range(10, 36))
    assert Coloring.parse(upper.lower()).colors == tuple(range(10, 36))


@pytest.mark.parametrize("text, message", [
    ("!01", "invalid color character '!' at position 1"),
    ("0 1", "invalid color character ' ' at position 2"),
    ("01-", "invalid color character '-' at position 3"),
    ("0\n", "invalid color character '\\n' at position 2"),
    # Its lower() has two code points, so positions must not be read off a
    # lower-cased copy of the text.
    ("01İ", "invalid color character 'İ' at position 3"),
    ("0é1", "invalid color character 'é' at position 2"),
    # KELVIN SIGN lower-cases to "k", but the format is ASCII.
    ("0\u212a", "invalid color character '\u212a' at position 2"),
    ("", "empty coloring text"),
])
def test_parse_names_the_first_invalid_character(text, message):
    with pytest.raises(ValueError) as info:
        Coloring.parse(text)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Coloring.parse(text, 36)
    assert str(info.value) == message


def test_constructor_invariants():
    with pytest.raises(ValueError):
        Coloring.from_colors([], 2)
    with pytest.raises(ValueError, match=r"^color 2 out of range for r=2$"):
        Coloring.from_colors([0, 2], 2)
    # The first offender is named, as Coloring.parse names it.
    with pytest.raises(ValueError, match=r"^color -1 out of range for r=2$"):
        Coloring.from_colors([-1, 0, 5, 7, 9], 2)
    with pytest.raises(ValueError, match=r"^color 0 out of range for r=0$"):
        Coloring.from_colors([0], 0)


def test_coloring_stores_a_tuple_and_an_int():
    colors = [0, 1]
    c = Coloring(colors, np.int64(2))
    colors.append(5)
    assert type(c.colors) is tuple and c.colors == (0, 1)
    assert type(c.r) is int and repr(c) == "Coloring(colors=(0, 1), r=2)"
    assert c == Coloring((0, 1), 2) and hash(c) == hash(Coloring((0, 1), 2))
    # Every color passes through operator.index, a tuple's too, so a numpy or
    # bool color is stored as an int that JSON takes, and a float is refused.
    held = (np.int64(0), True, 1)
    c = Coloring(held, 2)
    assert c == Coloring((0, 1, 1), 2) and all(type(x) is int for x in c.colors)
    assert json.dumps(c.colors) == "[0, 1, 1]"
    for colors in ([0.5, 1.0], [0.0, 1.0], (0, 1.0)):
        with pytest.raises(TypeError):
            Coloring(colors, 2)


def test_witness_stores_a_tuple_and_an_int():
    positions = [1, 2]
    w = DiffseqWitness(positions, np.int64(0))
    positions.append(3)
    assert type(w.positions) is tuple and w.positions == (1, 2)
    assert type(w.color) is int and repr(w) == "DiffseqWitness(positions=(1, 2), color=0)"
    assert w == DiffseqWitness((1, 2), 0) and hash(w) == hash(DiffseqWitness((1, 2), 0))
    assert all(type(p) is int for p in DiffseqWitness((np.int64(1), 2), 0).positions)
    for positions, color in (([1, 2], 0.5), ([1.0, 2.0], 0)):
        with pytest.raises(TypeError):
            DiffseqWitness(positions, color)


def test_chain_offsets_and_claim_store_tuples_and_ints():
    # A list is stored as a tuple, so the value hashes and equals its tuple form.
    chain = PrimeChain(np.int64(1), [2, np.int64(5)])
    assert chain == PrimeChain(1, (2, 5)) and hash(chain) == hash(PrimeChain(1, (2, 5)))
    assert type(chain.t) is int and all(type(p) is int for p in chain.elements)
    system = OffsetSystem(1, [0, 3])
    assert system == OffsetSystem(1, (0, 3)) and hash(system) == hash(OffsetSystem(1, (0, 3)))
    claim = WitnessClaim("powers(2)", np.int64(3))
    assert type(claim.max_length) is int
    assert json.dumps(claim.to_dict()) == '{"set_spec": "powers(2)", "max_length": 3}'
    # Specs are stored canonical: two spellings of one claim are equal, and a
    # malformed spec is refused where the claim is built.
    spaced = WitnessClaim(" s_m( 5 )", 3, " odds_plus_two ")
    assert spaced == WitnessClaim("s_m(5)", 3, "odds_plus_two")
    assert spaced.to_dict() == {"set_spec": "s_m(5)", "max_length": 3,
                                "domain_spec": "odds_plus_two"}
    for spec, domain in (("bogus", None), ("powers(2", None), ("primes", "bogus")):
        with pytest.raises(GapSpecError):
            WitnessClaim(spec, 3, domain)
    # A float is refused, where verify_chain would have passed PrimeChain(1.0, (2, 5)).
    for build in (lambda: PrimeChain(1.0, (2, 5)), lambda: PrimeChain(1, (2, 5.0)),
                  lambda: OffsetSystem(1.0, (0, 3)), lambda: OffsetSystem(1, [0, 3.0]),
                  lambda: OffsetSystem.from_sources(1, [2.0]),
                  lambda: WitnessClaim("powers(2)", 3.0)):
        with pytest.raises(TypeError):
            build()


def test_coloring_refuses_a_fractional_color_count():
    with pytest.raises(TypeError):
        Coloring.from_colors([0, 1, 0], 2.5)


def test_from_colors_refuses_fractional_colors():
    # int() would truncate these to (0, 1, 0) without a word
    with pytest.raises(TypeError):
        Coloring.from_colors([0, 1.7, 0.2], 2)


def test_color_of_is_one_based():
    c = Coloring.parse("011", 2)
    assert [c.color_of(x) for x in (1, 2, 3)] == [0, 1, 1]
    with pytest.raises(IndexError):
        c.color_of(4)


# --- longest_mono_diffseq --------------------------------------------------

def test_single_color_unit_gaps_spans_interval():
    length, witness = longest_mono_diffseq(all_zero(5), make_set("explicit(1)"))
    assert length == 5
    assert witness.positions == (1, 2, 3, 4, 5)


def test_alternating_coloring_blocks_odd_gaps():
    # Same-colored positions differ by even numbers, never an odd gap.
    length, _ = longest_mono_diffseq(alternating(20), ODDS)
    assert length == 1


def test_period_four_coloring_blocks_gap_two():
    c = Coloring.parse("001100110011", 2)
    length, _ = longest_mono_diffseq(c, make_set("explicit(2)"))
    assert length == 1


def test_eight_periodic_coloring_longest_is_four():
    c = Coloring.parse("10010110" * 2, 2)
    length, witness = longest_mono_diffseq(c, POW2)
    assert length == 4
    assert length == brute_force_longest(c, POW2)
    assert witness.is_valid_for(c, POW2)


def test_witness_always_validates():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 16)
        r = rng.randint(1, 3)
        c = Coloring.from_colors([rng.randrange(r) for _ in range(n)], r)
        S = make_set(rng.choice(["powers(2)", "s_m(3)", "odds_plus_two", "fibonacci"]))
        length, witness = longest_mono_diffseq(c, S)
        assert witness.is_valid_for(c, S)
        assert len(witness.positions) == length


def test_witness_rejects_empty_out_of_range_and_mixed_positions():
    c = Coloring.parse("0010", 2)
    S = make_set("explicit(1)")
    assert DiffseqWitness((1, 2), 0).is_valid_for(c, S)
    assert not DiffseqWitness((), 0).is_valid_for(c, S)
    assert not DiffseqWitness((0, 1, 2), 0).is_valid_for(c, S)
    assert not DiffseqWitness((1, 2, 3), 0).is_valid_for(c, S)


def test_witness_is_deterministic():
    c = Coloring.parse("0101100110", 2)
    S = make_set("s_m(3)")
    first = longest_mono_diffseq(c, S)
    for _ in range(3):
        assert longest_mono_diffseq(c, S) == first


# --- has_k_term ------------------------------------------------------------

def test_has_k_term_examples():
    assert has_k_term(all_zero(5), make_set("explicit(1)"), 5)
    assert not has_k_term(alternating(20), ODDS, 2)
    assert not has_k_term(Coloring.parse("10010110" * 2, 2), POW2, 5)


def test_has_k_term_matches_longest():
    rng = random.Random(11)
    S = make_set("s_m(3)")
    for _ in range(200):
        n = rng.randint(1, 14)
        c = Coloring.from_colors([rng.randrange(2) for _ in range(n)], 2)
        length, _ = longest_mono_diffseq(c, S)
        for k in range(1, length + 2):
            assert has_k_term(c, S, k) == (k <= length)


def test_one_term_chains_always_exist():
    assert has_k_term(Coloring.parse("0"), make_set("explicit(5)"), 1)


def test_has_k_term_short_route_matches_the_chain_table():
    # Lengths from one position to 2000, and k on both sides of _SHORT_CHAIN,
    # where has_k_term hands over to the chain table.
    rng = random.Random(19)
    answers = {}
    for spec in ALL_KINDS:
        S = make_set(spec)
        if S.period is not None:
            continue
        for n in (1, 63, 64, 65, 127, 129, 400, 2000):
            r = rng.randint(1, 3)
            for c in (Coloring.from_colors([rng.randrange(r) for _ in range(n)], r),
                      Coloring.from_colors([x % 3 for x in range(1, n + 1)], 3),
                      Coloring.from_colors([x // 7 % 3 for x in range(1, n + 1)], 3)):
                longest = max(_table_for(S, c.colors, c.r))
                for k in range(1, coloring._SHORT_CHAIN + 3):
                    want = k <= longest
                    assert has_k_term(c, S, k) == want, (spec, c.colors, k)
                    answers.setdefault(n, set()).add(want)
    assert all(seen == {True, False} for seen in answers.values())
    # The claim that the primes are not 3-accessible: its longest chain is 8.
    c, _ = named_witness("p_not_3acc", n=8000)
    assert [has_k_term(c, make_set("primes"), k) for k in (8, 9, 10)] == [True, False, False]


def test_has_k_term_short_route_enumerates_the_gaps_once(monkeypatch):
    # A coloring with no chain is decided in one pass over [1, n].
    c, _ = named_witness("p_not_3acc", n=2000)
    S = make_set("primes")
    bounds = []
    enumerate_gaps = type(S).enumerate
    monkeypatch.setattr(type(S), "enumerate",
                        lambda self, bound: bounds.append(bound) or enumerate_gaps(self, bound))
    assert not has_k_term(c, S, 10)
    assert bounds == [1999]


def test_has_k_term_rejects_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            has_k_term(all_zero(5), POW2, k)


def test_has_k_term_refuses_a_fractional_length():
    # A fractional k names no question.  chi_k(20) has no 20-term chain, so
    # the table route (k > _SHORT_CHAIN) would answer False for 19.5.
    c, _ = named_witness("chi_k", k=20)
    for k in (3.5, 19.5):
        with pytest.raises(TypeError):
            has_k_term(c, POW2, k)


def test_longest_restricted_rejects_a_mask_of_the_wrong_length():
    for allowed in ([True] * 4, [True] * 6):
        with pytest.raises(ValueError, match="allowed mask"):
            longest_restricted(all_zero(5), POW2, allowed)


def test_has_k_term_keeps_many_colors_on_the_chain_table(monkeypatch):
    # The bitsets take r bits per position: mod_block(m, n) has r = m colors,
    # and at m = n = 10**5 they would need 10**10 bits.
    monkeypatch.setattr(coloring, "_has_short_chain", None)
    c, claim = named_witness("mod_block", m=coloring.MAX_COLORS + 1, n=100)
    assert claim.check(c)
    assert has_k_term(c, make_set("primes"), 2)


# --- brute_force_longest (the oracle itself) -------------------------------

def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_longest(all_zero(21), POW2)


def test_brute_force_against_subset_enumeration():
    # Check the oracle itself against literal subset enumeration on tiny inputs.
    def subset_longest(c: Coloring, S) -> int:
        best = 1
        for size in range(2, c.n + 1):
            for positions in itertools.combinations(range(1, c.n + 1), size):
                if len({c.color_of(x) for x in positions}) != 1:
                    continue
                if all((b - a) in S for a, b in zip(positions, positions[1:])):
                    best = max(best, size)
        return best

    rng = random.Random(3)
    S = make_set("s_m(3)")
    for _ in range(25):
        n = rng.randint(1, 9)
        c = Coloring.from_colors([rng.randrange(2) for _ in range(n)], 2)
        assert brute_force_longest(c, S) == subset_longest(c, S)


def test_oracle_equivalence_exhaustive_small():
    S = make_set("odds_plus_two")
    for n in range(1, 9):
        for bits in range(2**n):
            c = Coloring.from_colors([(bits >> i) & 1 for i in range(n)], 2)
            length, _ = longest_mono_diffseq(c, S)
            assert length == brute_force_longest(c, S)


# --- structural properties -------------------------------------------------

def test_monotone_in_gap_set():
    rng = random.Random(23)
    small = make_set("explicit(1,4)")
    large = make_set("explicit(1,2,4)")
    for _ in range(100):
        n = rng.randint(1, 16)
        c = Coloring.from_colors([rng.randrange(2) for _ in range(n)], 2)
        assert longest_mono_diffseq(c, small)[0] <= longest_mono_diffseq(c, large)[0]


def test_color_permutation_invariance():
    rng = random.Random(29)
    S = make_set("powers(2)")
    for _ in range(100):
        n = rng.randint(1, 14)
        c = Coloring.from_colors([rng.randrange(3) for _ in range(n)], 3)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        relabeled = Coloring.from_colors([perm[x] for x in c.colors], 3)
        assert longest_mono_diffseq(c, S)[0] == longest_mono_diffseq(relabeled, S)[0]


def test_truncation_never_increases_longest():
    rng = random.Random(31)
    S = make_set("s_m(4)")
    for _ in range(50):
        n = rng.randint(2, 16)
        c = Coloring.from_colors([rng.randrange(2) for _ in range(n)], 2)
        full, _ = longest_mono_diffseq(c, S)
        for m in range(1, n):
            assert longest_mono_diffseq(Coloring.from_colors(c.colors[:m], 2), S)[0] <= full



# --- the chain table, by every route, against a full scan ----------------------

def full_scan_table(colors, gaps, allowed=None):
    """Reference for _chain_table: every gap, every predecessor, no early stop.

    L[i] is one more than the largest L over all same-color allowed
    predecessors i - s; the back-pointer is the smallest predecessor attaining
    it (ties go down), -1 when there is none.
    """
    n = len(colors)
    ok = [True] * n if allowed is None else list(allowed)
    L = [0] * n
    back = [-1] * n
    for i in range(n):
        if not ok[i]:
            continue
        preds = [i - s for s in gaps if s <= i and ok[i - s] and colors[i - s] == colors[i]]
        best = max((L[j] for j in preds), default=0)
        back[i] = min((j for j in preds if L[j] == best), default=-1)
        L[i] = best + 1
    return L, back


def reference_chain(L, back):
    """The chain read off full_scan_table's back-pointers, from the earliest maximum."""
    i = L.index(max(L))
    chain = []
    while i >= 0:
        chain.append(i + 1)
        i = back[i]
    return tuple(reversed(chain))


def matches_full_scan(S, c, allowed=None):
    """Check _table_for's L and the public witness against the reference.

    Returns the longest chain length in the reference table.
    """
    colors = list(c.colors)
    L, back = full_scan_table(colors, S.enumerate(c.n - 1), allowed)
    # The DP sees an excluded position as color -1, as longest_restricted passes it.
    masked = colors if allowed is None else [ci if ok else -1 for ci, ok in zip(colors, allowed)]
    assert _table_for(S, masked, c.r) == L, (S.spec, colors, allowed)
    if max(L) > 0:
        if allowed is None:
            length, witness = longest_mono_diffseq(c, S)
        else:
            length, witness = longest_restricted(c, S, allowed)
        chain = reference_chain(L, back)
        assert (length, witness.positions, witness.color) == (max(L), chain, colors[chain[0] - 1])
    return max(L)


def test_chain_table_matches_full_scan():
    # Through _table_for, as longest_mono_diffseq and has_k_term call it: the
    # periodic sets take the residue-class route once r*m <= n: s_m(40) does at
    # the larger n, a wide modulus, and s_m(1000) stays on the gap scan unless
    # every position is masked out.
    rng = random.Random(8)
    specs = ["s_m(5)", "odds_plus_two", "residues(12; 1,2,5,7,10,11)", "primes",
             "powers(2)", "explicit(1,2,4,7,11,16)", "residues(6; 0,3)",
             "scaled(3, s_m(2))", "scaled(2, odds_plus_two)", "s_m(40)", "s_m(1000)",
             "thm23(4)"]
    sets = [make_set(spec) for spec in specs]
    long_chains = 0
    for case in range(2400):
        # Each spec meets both mask options, whatever len(specs) is.
        S, rnd = sets[case % len(sets)], case // len(sets)
        r = rng.randint(1, 3)
        n = rng.randint(1, 200)
        c = Coloring.from_colors([rng.randrange(r) for _ in range(n)], r)
        allowed = None
        if rnd % 2:
            density = rng.random()
            allowed = [rng.random() < density for _ in range(n)]
        # Chains of 3 or more are where the early stops act.
        long_chains += matches_full_scan(S, c, allowed) >= 3
    assert long_chains > 1000
    # The catalog witnesses: long chains and long plateaus of equal L-values.
    for name, params in [("chi_k", {"k": 10}), ("C_k", {"k": 20}), ("D_k", {"k": 21}),
                         ("thm34", {"k": 30}), ("thm35", {"m": 5, "k": 60}),
                         ("prop36", {"k": 20}), ("mod_block", {"m": 5, "n": 100}),
                         ("lemma25", {"m": 7, "n": 200}), ("p_not_3acc", {"n": 200}),
                         ("remark1", {"n": 200})]:
        c, claim = named_witness(name, **params)
        assert c.n <= 200
        S = make_set(claim.set_spec)
        allowed = None
        if claim.domain_spec is not None:
            domain = make_set(claim.domain_spec)
            allowed = [domain.contains(x) for x in range(1, c.n + 1)]
        matches_full_scan(S, c, allowed)


def test_witness_walk_refuses_a_table_the_set_contradicts():
    # L = [1, 2] claims the chain 1, 2, whose gap 1 is not in explicit(2).
    with pytest.raises(ValueError, match="contradicts explicit"):
        coloring._extract_witness([0, 0], [1, 2], make_set("explicit(2)"))
    # The gap is in S, but the two positions differ in color.
    with pytest.raises(ValueError, match="no color-1 position with L = 1"):
        coloring._extract_witness([0, 1], [1, 2], make_set("explicit(1)"))
    length, witness = coloring._extract_witness([0, 0], [1, 2], make_set("explicit(1)"))
    assert (length, witness.positions, witness.color) == (2, (1, 2), 0)


@pytest.mark.parametrize("colors, modulus", [
    (list(range(6)), 1),   # 6 colors * period 5 > 6 positions: gap by gap
    ([0, 1] * 5, 5),       # 2 colors * period 5 <= 10 positions: by residue class
])
def test_class_tables_stay_within_the_l_table(monkeypatch, colors, modulus):
    # mod_block(m, n) has r = m colors, so classes for r*m > n would outgrow L.
    r = max(colors) + 1  # every color used: r = 6, then r = 2
    seen = []
    real = coloring._chain_table
    monkeypatch.setattr(coloring, "_chain_table",
                        lambda colors, r, m, *rest: seen.append(m) or real(colors, r, m, *rest))
    _table_for(make_set("s_m(5)"), colors, r)
    assert seen == [modulus]


def test_class_tables_are_sized_by_the_stated_color_count(monkeypatch):
    # Two colors used of r = 6: 6 * period 5 > 10 positions, so the gap scan.
    seen = []
    real = coloring._chain_table
    monkeypatch.setattr(coloring, "_chain_table",
                        lambda colors, r, m, *rest: seen.append((r, m)) or real(colors, r, m, *rest))
    c = Coloring.from_colors([0, 1] * 5, 6)
    S = make_set("s_m(5)")
    assert longest_mono_diffseq(c, S)[0] == 5
    assert longest_restricted(c, S, [True] * 10)[0] == 5
    assert has_k_term(c, S, 5) and not has_k_term(c, S, 6)
    assert seen == [(6, 1)] * 2


def test_certify_sized_witness_is_pinned():
    # Taken before the gap scan stopped early; the table must not drift.
    rng = random.Random(6000)
    c = Coloring.from_colors([rng.randrange(2) for _ in range(6000)], 2)
    length, witness = longest_mono_diffseq(c, make_set("s_m(5)"))
    assert length == 2934 == len(witness)
    assert witness.color == 0
    assert witness.positions[:12] == (1, 3, 4, 6, 7, 16, 18, 25, 26, 27, 29, 35)
    assert witness.positions[-3:] == (5996, 5998, 6000)
    digest = hashlib.sha256(",".join(map(str, witness.positions)).encode()).hexdigest()
    assert digest == "ffc4a7663e00bba890a1b45ce18aa9055ce5733ed7f01980666615700c2ea65e"


# --- witnesses against a plain re-derivation -------------------------------

WITNESS_SETS = ["primes", "primes+3", "powers(2)", "s_m(5)", "odds_plus_two", "diffs(1,2,4,8)"]


def plain_table(colors, S):
    """L-values by the recurrence itself, one S.contains per candidate pair."""
    L = []
    for i, ci in enumerate(colors):
        L.append(1 + max((L[j] for j in range(i) if colors[j] == ci and S.contains(i - j)),
                         default=0))
    return L


def plain_witness(colors, L, S):
    """The documented walk: smallest end, then each smallest predecessor, by S.contains."""
    best = max(L)
    i = L.index(best)
    chain = [i]
    for length in range(best - 1, 0, -1):
        i = next(j for j in range(i) if L[j] == length and colors[j] == colors[i]
                 and S.contains(i - j))
        chain.append(i)
    return best, DiffseqWitness(tuple(j + 1 for j in reversed(chain)), colors[i])


@pytest.mark.parametrize("spec", WITNESS_SETS)
def test_witness_matches_a_plain_re_derivation(spec):
    # Past n = 500 the quadratic table is too slow; there _table_for's L-values
    # (checked against a full scan above) feed the plain walk.
    S = make_set(spec)
    rng = random.Random(spec)
    for n in (50, 500, 6000):
        for r in (2, 3):
            c = Coloring.from_colors([rng.randrange(r) for _ in range(n)], r)
            L = plain_table(c.colors, S) if n <= 500 else _table_for(S, c.colors, r)
            assert longest_mono_diffseq(c, S) == plain_witness(c.colors, L, S), (n, r)


@pytest.mark.parametrize("spec", WITNESS_SETS)
def test_witness_check_refuses_each_mutant(spec):
    S = make_set(spec)
    g = next(d for d in range(1, 100) if S.contains(d))
    h = next(d for d in range(1, 100) if not S.contains(d))
    # Repeated valid gaps with one gap outside S among them, on one color.
    good = tuple(1 + g * t for t in range(40))
    bad = good[:20] + tuple(x + h for x in good[19:])
    mono = Coloring.from_colors([0] * bad[-1], 1)
    assert DiffseqWitness(good, 0).is_valid_for(mono, S)
    assert not DiffseqWitness(bad, 0).is_valid_for(mono, S)

    rng = random.Random(spec)
    for n, r in ((50, 2), (500, 3), (6000, 2)):
        c = Coloring.from_colors([rng.randrange(r) for _ in range(n)], r)
        _, witness = longest_mono_diffseq(c, S)
        pos, color = witness.positions, witness.color
        assert len(pos) >= 2 and witness.is_valid_for(c, S)
        mutants = [
            (0,) + pos,                           # position 0
            pos + (n + 1,),                       # position n + 1
            pos[:1] + (n + 1,) + pos[1:],         # n + 1 before a smaller position
            pos[:1] + pos,                        # a repeated position
            pos[:-2] + (pos[-1], pos[-2]),        # a decreasing pair
        ]
        for mutant in mutants:
            assert not DiffseqWitness(mutant, color).is_valid_for(c, S), mutant[:3]
        assert not DiffseqWitness(pos, color + 1).is_valid_for(c, S)
        # One position recolored.
        at = pos[len(pos) // 2] - 1
        recolored = list(c.colors)
        recolored[at] = (color + 1) % r
        assert not witness.is_valid_for(Coloring.from_colors(recolored, r), S)
