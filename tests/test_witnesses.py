"""Witness catalog: block patterns, claims, caps, and coloring combinators."""

from __future__ import annotations

import pytest

from diffseq.coloring import Coloring, has_k_term, longest_mono_diffseq, longest_restricted
from diffseq.gapsets import make_set
from diffseq.witnesses import MAX_WITNESS_PARAM, WitnessClaim, named_witness, product_coloring


def restricted_longest(coloring, domain_spec, S):
    """Longest chain of coloring over S using only elements of the domain set."""
    allowed = [False] * coloring.n
    for x in make_set(domain_spec).enumerate(coloring.n):
        allowed[x - 1] = True
    return longest_restricted(coloring, S, allowed)


# --- block patterns expand to the witness text --------------------------------

def test_expand_block_repetition():
    # chi_k repeats its 8-character block k-3 times
    coloring, _ = named_witness("chi_k", k=5)
    assert coloring.to_text() == "1001011010010110"
    assert coloring.n == 16


def test_expand_prefix_and_suffix():
    # C_k: prefix "1", (k-2)/2 copies of "000111", suffix "0"
    coloring, _ = named_witness("C_k", k=4)
    assert coloring.to_text() == "10001110"


def test_expand_zero_repeats():
    # D_k at k=3 has no block between its prefix "11" and suffix "00"
    coloring, _ = named_witness("D_k", k=3)
    assert coloring.to_text() == "1100"
    with pytest.raises(ValueError):
        named_witness("D_k", k=1)  # would need a negative repeat count


def test_expand_rejects_invalid_colors():
    with pytest.raises(ValueError):
        Coloring.parse("012", 2)


# --- named witnesses --------------------------------------------------------

def test_chi_k_example():
    coloring, claim = named_witness("chi_k", k=5)
    assert coloring.n == 16
    assert claim.set_spec == "powers(2)" and claim.max_length == 4
    assert claim.check(coloring)


def test_chi_k_lengths():
    for k in range(5, 13):
        coloring, _ = named_witness("chi_k", k=k)
        assert coloring.n == 8 * (k - 3)


def test_c_k_and_d_k_lengths():
    for k in range(4, 13, 2):
        coloring, _ = named_witness("C_k", k=k)
        assert coloring.n == 3 * k - 4
    for k in range(5, 14, 2):
        coloring, _ = named_witness("D_k", k=k)
        assert coloring.n == 3 * k - 5


def test_thm34_definition_and_avoidance():
    coloring, claim = named_witness("thm34", k=3)
    assert coloring.n == 6
    # 0 on residues 2,3 (mod 4); 1 on residues 0,1
    assert coloring.to_text() == "100110"
    assert claim.check(coloring)
    # the color-swapped form avoids just the same
    swapped = Coloring.parse("011001", 2)
    assert not has_k_term(swapped, make_set("s_m(3)"), 3)


def test_thm35_shape():
    coloring, claim = named_witness("thm35", m=5, k=7)
    # one spreading block per side for a=1, then the balanced tail
    assert coloring.to_text() == "10000111100011"
    assert claim.check(coloring)


def test_prop36_lengths():
    for k in range(3, 10):
        coloring, claim = named_witness("prop36", k=k)
        assert coloring.n == 7 * k - 13
        assert claim.set_spec == "residues(12; 1,2,5,7,10,11)"


def test_mod_block_defaults_to_nonmultiples():
    coloring, claim = named_witness("mod_block", m=5, n=50)
    assert coloring.r == 5
    assert claim.set_spec == "s_m(5)" and claim.max_length == 1
    assert claim.check(coloring)


def test_mod_block_blocks_any_set_without_multiples():
    # explicit sets with no multiple of m: longest chain is exactly 1
    for spec in ("explicit(1,7,11)", "explicit(4,9)"):
        coloring, claim = named_witness("mod_block", m=5, n=1000, set_spec=spec)
        assert claim.check(coloring)
        length, _ = longest_mono_diffseq(coloring, make_set(spec))
        assert length == 1


def test_lemma25_example():
    coloring, claim = named_witness("lemma25", m=4, n=100)
    assert claim.set_spec == "residues(4; 1)" and claim.max_length == 3
    assert claim.check(coloring)
    with pytest.raises(ValueError):
        named_witness("lemma25", m=4, n=100, i=2)  # gcd(2,4) != 1


def test_p_not_3acc_color_structure():
    coloring, claim = named_witness("p_not_3acc", n=2000)
    assert coloring.r == 3
    assert claim.check(coloring)
    primes = make_set("primes")
    # chains within a single color class via the element restriction
    for color, cap in ((0, 1), (1, 9), (2, 9)):
        members = [x for x in range(1, 2001) if coloring.color_of(x) == color]
        domain = "explicit(" + ",".join(map(str, members)) + ")"
        length, _ = restricted_longest(coloring, domain, primes)
        assert length <= cap, (color, length)


def test_remark1_restricted_longest_is_three():
    coloring, claim = named_witness("remark1", n=100)
    assert claim.domain_spec == "odds_plus_two"
    assert claim.check(coloring)
    length, witness = restricted_longest(coloring, "odds_plus_two", make_set("odds_plus_two"))
    assert length == 3
    assert witness.is_valid_for(coloring, make_set("odds_plus_two"))


def test_unknown_witness_and_bad_params():
    with pytest.raises(ValueError):
        named_witness("nope", k=3)
    with pytest.raises(ValueError):
        named_witness("chi_k")  # missing k
    with pytest.raises(ValueError):
        named_witness("chi_k", k=4)  # below the proven range
    with pytest.raises(ValueError):
        named_witness("C_k", k=5)  # odd
    with pytest.raises(ValueError):
        named_witness("chi_k", k=6, m=2)  # stray parameter


def test_integer_parameters_are_capped_before_building():
    assert MAX_WITNESS_PARAM == 10**5
    coloring, _ = named_witness("lemma25", m=4, n=MAX_WITNESS_PARAM)
    assert coloring.n == MAX_WITNESS_PARAM
    for name, params in (("chi_k", {"k": 10**9}), ("thm35", {"m": 5, "k": 10**5 + 1}),
                         ("mod_block", {"m": 2, "n": 10**12}),
                         ("lemma25", {"m": 4, "n": 10, "i": 10**6 + 1})):
        with pytest.raises(ValueError, match="at most 100000"):
            named_witness(name, **params)


def test_domain_claim_matches_restricted_longest():
    # WitnessClaim.check builds the domain mask itself; it agrees with the
    # longest chain over the same mask
    coloring, claim = named_witness("remark1", n=200)
    S = make_set(claim.set_spec)
    length, _ = restricted_longest(coloring, claim.domain_spec, S)
    assert claim.check(coloring) == (length <= claim.max_length)
    tighter = WitnessClaim(claim.set_spec, length - 1, claim.domain_spec)
    assert not tighter.check(coloring)


def test_claim_refuses_a_fractional_length():
    # Both paths would answer: the plain one asks for a 19.5-term chain, the
    # domain one compares length <= 2.5.
    for spec, length, domain in (("powers(2)", 18.5, None), ("residues(2; 0)", 2.5, "primes")):
        with pytest.raises(TypeError):
            WitnessClaim(spec, length, domain)


def test_claim_refuses_a_negative_length():
    # Unrefused, the domain path would answer False and the plain one fail
    # inside has_k_term.
    for domain in (None, "primes"):
        with pytest.raises(ValueError, match="max_length"):
            WitnessClaim("residues(2; 0)", -1, domain)


# --- product colorings ------------------------------------------------------

def test_product_coloring_pairing():
    c1 = Coloring.parse("0101", 2)
    c2 = Coloring.parse("0011", 2)
    assert product_coloring(c1, c2).to_text() == "0213"


def test_product_coloring_length_mismatch():
    with pytest.raises(ValueError):
        product_coloring(Coloring.parse("01", 2), Coloring.parse("010", 2))


def test_product_of_two_blockers_blocks_the_union():
    # gap-2 blocker x {2}-union-odds blocker on [1,40]: measured longest is 1
    c1 = Coloring.parse("0011" * 10, 2)
    c2 = Coloring.parse("01" * 20, 2)
    product = product_coloring(c1, c2)
    assert product.r == 4
    union = make_set("union(explicit(2), residues(2; 1))")
    length, _ = longest_mono_diffseq(product, union)
    assert length == 1


def test_product_with_itself_keeps_longest():
    c = Coloring.parse("0011" * 10, 2)
    S = make_set("odds_plus_two")
    doubled = product_coloring(c, c)
    assert longest_mono_diffseq(doubled, S)[0] == longest_mono_diffseq(c, S)[0]


# --- element-restricted chains ----------------------------------------------

def test_full_domain_matches_unrestricted():
    c = Coloring.parse("0110100110", 2)
    S = make_set("s_m(3)")
    everything = "explicit(" + ",".join(str(x) for x in range(1, 11)) + ")"
    assert restricted_longest(c, everything, S)[0] == longest_mono_diffseq(c, S)[0]


def test_even_domain_with_gap_two():
    n = 20
    c = Coloring.from_colors([0] * n, 1)
    length, _ = restricted_longest(c, "residues(2; 0)", make_set("explicit(2)"))
    assert length == n // 2


def test_empty_domain_gives_zero():
    c = Coloring.parse("000", 1)
    assert restricted_longest(c, "explicit(7)", make_set("explicit(1)")) == (0, None)


def test_thm35_at_the_parameter_cap():
    # Checked by residue class; a gap-by-gap scan took minutes here.
    coloring, claim = named_witness("thm35", m=5, k=100000)
    assert coloring.n == 239998
    assert claim.check(coloring)
