"""Backtracking solver: feasibility, exact values, certificates, determinism."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from diffseq import solver
from diffseq.coloring import Coloring, has_k_term
from diffseq.gapsets import make_set
from diffseq.solver import SearchBudget, compute_f, feasible, verify_certificate
from diffseq.table1 import run_table1


def test_two_singletons_are_feasible():
    res = feasible(make_set("odds_plus_two"), 2, 2, 2)
    assert res.status == solver.FEASIBLE
    assert res.coloring.to_text() == "01"


def test_power_gaps_threshold_at_seven():
    S = make_set("powers(2)")
    assert feasible(S, 3, 2, 6).status == solver.FEASIBLE
    assert feasible(S, 3, 2, 7).status == solver.INFEASIBLE


def test_nonmult3_infeasible_at_seven():
    assert feasible(make_set("s_m(3)"), 3, 2, 7).status == solver.INFEASIBLE


def test_feasible_coloring_is_lexicographically_least():
    # Exhaustive reference: smallest canonical (first position color 0)
    # avoiding coloring in lexicographic order.
    S = make_set("s_m(3)")
    k, n = 3, 6
    best = None
    for colors in itertools.product((0, 1), repeat=n):
        if colors[0] != 0:
            continue
        c = Coloring.from_colors(colors, 2)
        if not has_k_term(c, S, k):
            best = c
            break
    res = feasible(S, k, 2, n)
    assert res.coloring == best


def test_feasible_matches_exhaustive_enumeration():
    # Complete agreement with brute-force enumeration over all 2**n colorings
    # (first color pinned to 0; the rest follows by color-swap symmetry).
    for spec, k in (("powers(2)", 3), ("odds_plus_two", 3), ("s_m(3)", 3), ("primes", 2)):
        S = make_set(spec)
        for n in range(1, 13):
            exists = any(
                not has_k_term(Coloring.from_colors((0,) + rest, 2), S, k)
                for rest in itertools.product((0, 1), repeat=n - 1)
            )
            res = feasible(S, k, 2, n)
            expected = solver.FEASIBLE if exists else solver.INFEASIBLE
            assert res.status == expected, (spec, n)


def test_compute_f_examples():
    assert compute_f(make_set("s_m(5)"), 2, 2).value == 3
    assert compute_f(make_set("powers(2)"), 4, 2).value == 11
    assert compute_f(make_set("primes"), 3, 2).value == 9


def test_compute_f_not_found_when_gaps_have_no_even_member():
    # {1} never yields a 2-term chain against the alternating 2-coloring.
    res = compute_f(make_set("explicit(1)"), 2, 2, n_max=100)
    assert res.status == solver.NOT_FOUND_UP_TO
    assert res.value is None
    assert res.feasible_up_to == 100


def test_certificate_properties():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    assert res.status == solver.EXACT and res.value == 7
    assert res.certificate.n == 6
    assert not has_k_term(res.certificate, S, 3)
    assert verify_certificate(res, S, 3, 2)


def test_verify_certificate_catches_mutations():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    # flip one position to create a 3-term chain
    flipped = list(res.certificate.colors)
    flipped[1] ^= 1
    bad = replace(res, certificate=Coloring.from_colors(flipped, 2))
    assert not verify_certificate(bad, S, 3, 2)
    # a decremented value claims infeasibility where a coloring exists
    shrunk = replace(res, value=res.value - 1,
                     certificate=Coloring.from_colors(res.certificate.colors[:-1], 2))
    assert not verify_certificate(shrunk, S, 3, 2)


def test_verify_certificate_requires_exact():
    res = compute_f(make_set("explicit(1)"), 2, 2, n_max=10)
    with pytest.raises(ValueError):
        verify_certificate(res, make_set("explicit(1)"), 2, 2)


def test_verify_certificate_rejects_malformed_results():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    for value in (None, 0):
        assert not verify_certificate(replace(res, value=value), S, 3, 2)
    # f(S,1;2) = 1 has nothing to certify; a certificate attached to it is refused
    one = compute_f(S, 1, 2)
    assert one.value == 1 and verify_certificate(one, S, 1, 2)
    with_cert = replace(one, certificate=Coloring.from_colors([0], 2))
    assert not verify_certificate(with_cert, S, 1, 2)
    # the colors of an avoiding coloring, but one position short or with r = 3
    short = replace(res, certificate=Coloring.from_colors(res.certificate.colors[:-1], 2))
    assert not verify_certificate(short, S, 3, 2)
    three = replace(res, certificate=Coloring.from_colors(res.certificate.colors, 3))
    assert not verify_certificate(three, S, 3, 2)


def test_verify_certificate_refuses_another_question():
    S = make_set("powers(2)")
    res = compute_f(S, 4, 2)
    assert verify_certificate(res, S, 4, 2)
    for args in ((make_set("s_m(3)"), 4, 2), (S, 3, 2), (S, 4, 3)):
        with pytest.raises(ValueError, match=r"of a result for f\(powers\(2\),4;2\)"):
            verify_certificate(res, *args)


def test_k_equal_one_threshold_is_one():
    res = compute_f(make_set("explicit(1)"), 1, 2)
    assert res.status == solver.EXACT
    assert res.value == 1
    assert res.certificate is None


def test_single_color_threshold_is_k():
    # with one color the interval itself is the only coloring
    res = compute_f(make_set("explicit(1)"), 5, 1)
    assert res.value == 5


def test_monotone_in_k_and_r():
    S = make_set("fibonacci")
    values_k = [compute_f(S, k, 2).value for k in range(2, 6)]
    assert values_k == sorted(values_k)
    assert compute_f(S, 3, 2).value <= compute_f(S, 3, 3).value


def test_antimonotone_in_gap_set():
    # odds_plus_two is a subset of the non-multiples of 4
    f_small = compute_f(make_set("odds_plus_two"), 4, 2).value
    f_large = compute_f(make_set("s_m(4)"), 4, 2).value
    assert f_small >= f_large


@pytest.mark.parametrize("j", [2, 3])
def test_scaling_law_small_case(j):
    S = make_set("s_m(3)")
    base = compute_f(S, 3, 2).value
    scaled = compute_f(make_set(f"scaled({j}, s_m(3))"), 3, 2).value
    assert scaled == j * (base - 1) + 1


def test_deterministic_across_runs_and_workers():
    S = make_set("primes+1")
    ref = compute_f(S, 4, 2)
    for _ in range(2):
        res = compute_f(S, 4, 2)
        assert (res.status, res.value, res.nodes) == (ref.status, ref.value, ref.nodes)
        assert res.certificate == ref.certificate
    # run_table1 runs its cells in order whatever the workers argument says.
    cells = [(c.row, c.k, c.computed, c.nodes) for c in run_table1(rows=["S5"])]
    for workers in (2, 3):
        assert [(c.row, c.k, c.computed, c.nodes)
                for c in run_table1(rows=["S5"], workers=workers)] == cells


def fresh_search(S, k, r, n):
    """Independent recursive reference: (found, nodes, colors) for [1, n].

    Tries colors in canonical order (reuse a color already present or take
    the next unused one) and counts one node per attempted (position, color),
    pruned when the color's chain ending at the position reaches k.  colors is
    the lex-least avoiding coloring when found.
    """
    gaps = S.enumerate(n - 1)
    colors, chain = [], []
    nodes = 0

    def extend(used):
        nonlocal nodes
        i = len(colors)
        if i == n:
            return True
        for c in range(min(used + 1, r)):
            nodes += 1
            li = 1 + max((chain[i - g] for g in gaps if g <= i and colors[i - g] == c),
                         default=0)
            if li < k:
                colors.append(c)
                chain.append(li)
                if extend(used + (c == used)):
                    return True
                colors.pop()
                chain.pop()
        return False

    return extend(0), nodes, colors


def upward_reference(S, k, r, n_max=200):
    """compute_f by definition: a fresh search at n = 1, 2, ... until one fails.

    Returns (value, lex-least avoiding coloring of [1, value - 1], nodes of
    the search at value).
    """
    certificate = None
    for n in range(1, n_max + 1):
        found, nodes, colors = fresh_search(S, k, r, n)
        if not found:
            return n, certificate, nodes
        certificate = Coloring.from_colors(colors, r)
    raise AssertionError(f"no value up to {n_max}")


def test_compute_f_matches_upward_feasible_loop():
    rng = random.Random(5)
    fixed = [("powers(2)", 6, 2), ("primes", 5, 2), ("odds_plus_two", 7, 2),
             ("s_m(4)", 3, 3), ("fibonacci", 2, 3), ("explicit(1)", 4, 1),
             ("fibonacci", 1, 2), ("odds_plus_two", 3, 3), ("fibonacci", 3, 3),
             ("primes+1", 2, 3), ("s_m(5)", 2, 4)]
    drawn = []
    for _ in range(25):
        spec = rng.choice(["powers(2)", "s_m(3)", "s_m(4)", "odds_plus_two", "fibonacci",
                           "primes+1"])
        drawn.append((spec, rng.randint(2, 5 if spec == "primes+1" else 6), 2))
    for spec, k, r in fixed + drawn:
        S = make_set(spec)
        value, certificate, nodes = upward_reference(S, k, r)
        res = compute_f(S, k, r)
        assert (res.status, res.value) == (solver.EXACT, value), (spec, k, r)
        assert res.certificate == certificate, (spec, k, r)
        # Propagation only cuts subtrees, so the pass never spends more than
        # the unpropagated reference, and feasible at the value is that pass.
        assert res.nodes == feasible(S, k, r, value).nodes, (spec, k, r)
        assert res.nodes <= nodes, (spec, k, r)
        if r != 2:
            # Only r = 2 propagates: any other search is plain backtracking,
            # node for node.
            assert res.nodes == nodes, (spec, k, r)
        if value > 1:
            assert feasible(S, k, r, value - 1).coloring == certificate, (spec, k, r)


def test_sweep_matches_reference_on_random_explicit_gap_sets():
    # Gap structures outside the catalogue families: every n up to 24 must
    # agree with the unpropagated reference on the verdict and the lex-least
    # coloring, and propagation may only cut nodes.
    rng = random.Random(24)
    for _ in range(100):
        gaps = sorted(rng.sample(range(1, 16), rng.randint(3, 6)))
        k = rng.randint(3, 6)
        S = make_set(f"explicit({','.join(map(str, gaps))})")
        for n in range(1, 25):
            found, nodes, colors = fresh_search(S, k, 2, n)
            res = feasible(S, k, 2, n)
            assert res.status == (solver.FEASIBLE if found else solver.INFEASIBLE), (gaps, k, n)
            assert res.coloring == (Coloring.from_colors(colors, 2) if found else None), (
                gaps, k, n)
            assert res.nodes <= nodes, (gaps, k, n)


def test_compute_f_node_budget_is_exact():
    S = make_set("primes")
    full = compute_f(S, 4, 2)
    exact = compute_f(S, 4, 2, budget=SearchBudget(max_nodes=full.nodes))
    assert (exact.status, exact.value, exact.certificate) == (
        solver.EXACT, full.value, full.certificate)
    capped = compute_f(S, 4, 2, budget=SearchBudget(max_nodes=full.nodes - 1))
    assert capped.status == solver.TIMEOUT
    assert capped.nodes == full.nodes - 1
    assert capped.feasible_up_to == full.value - 1


def test_hostile_nmax_is_bounded_by_the_budget():
    # Never sized to n_max: the arrays and gap list grow with the target.
    res = compute_f(make_set("explicit(1)"), 2, 2, n_max=10**12,
                    budget=SearchBudget(max_nodes=10**5))
    assert res.status == solver.TIMEOUT
    assert res.nodes == 10**5


def test_propagation_memory_is_linear_in_depth():
    # Propagation states are kept relative to the position being colored, and
    # their k - 1 bits per position grow with k only up to _PROPAGATION_MAX_K.
    # A 30,000-deep run over a one-gap set stays a few MB, where absolute
    # states would take about 65 MB; at k = 10**6 a level table of k entries,
    # each up to k bits, would not fit in memory at all.
    for k, nodes in ((2, 3 * 10**4), (10**6, 10)):
        tracemalloc.start()
        try:
            res = compute_f(make_set("explicit(1)"), k, 2, n_max=10**12,
                            budget=SearchBudget(max_nodes=nodes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.status == solver.TIMEOUT and res.feasible_up_to >= nodes - 1
        assert peak < 16 * 10**6, (k, peak)


def test_deep_search_reads_chain_lengths_off_gaps_added_at_raises():
    # Over the odd gaps the search never backtracks, so nearly every gap joins
    # the target after the positions it links have pushed: a node's L comes
    # almost wholly from the pairs each target raise ORs into the top state.
    S = make_set("s_m(2)")
    res = feasible(S, 3, 2, 3000)
    assert (res.status, res.nodes) == (solver.FEASIBLE, 3000)
    assert res.coloring.to_text() == "00" + "10" * 1499
    assert not has_k_term(res.coloring, S, 3)


# Budgeted searches at large k: (spec, k, max_nodes, feasible_up_to).  k = 32
# is the widest propagation state; k = 33 runs plain backtracking.
LARGE_K_BUDGETED = [
    ("primes", 20, 10**5, 84),
    ("odds_plus_two", 30, 10**5, 73),
    ("primes", 32, 2 * 10**4, 132),
    ("primes", 33, 2 * 10**4, 135),
]


@pytest.mark.parametrize("spec,k,max_nodes,reached", LARGE_K_BUDGETED,
                         ids=[f"{spec}-{k}" for spec, k, *_ in LARGE_K_BUDGETED])
def test_large_k_budgeted_search_reach(spec, k, max_nodes, reached):
    res = compute_f(make_set(spec), k, 2, budget=SearchBudget(max_nodes=max_nodes))
    assert (res.status, res.nodes, res.feasible_up_to) == (solver.TIMEOUT, max_nodes, reached)


def test_three_color_feasibility_matches_exhaustive():
    # Canonical color introduction must stay complete for r=3: compare the
    # verdict with literal enumeration of all 3**n colorings.
    S = make_set("s_m(4)")
    k = 2
    for n in range(1, 9):
        exists = any(
            not has_k_term(Coloring.from_colors(colors, 3), S, k)
            for colors in itertools.product((0, 1, 2), repeat=n)
        )
        res = feasible(S, k, 3, n)
        expected = solver.FEASIBLE if exists else solver.INFEASIBLE
        assert res.status == expected, n


def test_time_budget_zero_times_out():
    res = compute_f(make_set("primes"), 4, 2, budget=SearchBudget(max_seconds=0.0))
    assert res.status == solver.TIMEOUT


def test_time_budget_holds_at_large_k():
    # Nodes at k = 32 cost tens of microseconds each, so the clock must be read
    # every 10,000 or so of them for a 0.5 s budget to stop near 0.5 s.
    start = time.monotonic()
    res = compute_f(make_set("primes"), 32, 2, budget=SearchBudget(max_seconds=0.5))
    assert res.status == solver.TIMEOUT
    assert time.monotonic() - start < 2.5


# The five fixed-n instances of the perfbench exhaust workload: (spec, k,
# value, nodes at n = value - 1, nodes at n = value, lex-least certificate).
# The node counts pin the search's branch order, pruning and propagation exactly.
PINNED_EXHAUSTIONS = [
    ("powers(2)", 8, 51, 5_881, 37_961,
     "00011110011000011001111001100001100111100110000110"),
    ("primes", 7, 33, 61_638, 104_352, "00111111100000001111111000000011"),
    ("fibonacci", 8, 21, 2_605, 6_973, "00111000001111100011"),
    ("s_m(5)", 8, 19, 3_758, 3_966, "011110000111100001"),
    ("primes+4", 3, 25, 24, 305, "000000000000111111111111"),
]


# Ids name the instance only, so restating a count does not rename the test.
@pytest.mark.parametrize("spec,k,value,nodes_below,nodes_at,certificate", PINNED_EXHAUSTIONS,
                         ids=[f"{spec}-{k}" for spec, k, *_ in PINNED_EXHAUSTIONS])
def test_pinned_exhaustion_nodes_and_certificates(spec, k, value, nodes_below, nodes_at,
                                                   certificate):
    S = make_set(spec)
    below = feasible(S, k, 2, value - 1)
    assert (below.status, below.nodes) == (solver.FEASIBLE, nodes_below)
    assert below.coloring.to_text() == certificate
    at = feasible(S, k, 2, value)
    assert (at.status, at.nodes, at.coloring) == (solver.INFEASIBLE, nodes_at, None)


def test_odds_plus_two_k11_value_certificate_and_nodes():
    # The README's f(odds_plus_two, 11; 2) = 31, proven by one 518k-node pass.
    res = compute_f(make_set("odds_plus_two"), 11, 2)
    assert (res.status, res.value, res.nodes) == (solver.EXACT, 31, 517_832)
    assert res.certificate.to_text() == "010101110101000101011101000101"


def test_odds_plus_two_k12_value_certificate_and_nodes():
    # The README's f(odds_plus_two, 12; 2) = 35, proven by one 2.35M-node pass.
    res = compute_f(make_set("odds_plus_two"), 12, 2)
    assert (res.status, res.value, res.nodes) == (solver.EXACT, 35, 2_351_478)
    assert res.certificate.to_text() == "0101011101010001010111010100010101"


def test_node_budget_is_exact():
    S = make_set("primes")
    full = feasible(S, 4, 2, 13)
    assert full.status == solver.INFEASIBLE
    capped = feasible(S, 4, 2, 13, budget=SearchBudget(max_nodes=full.nodes - 1))
    assert capped.status == solver.BUDGET_EXCEEDED
    assert capped.nodes == full.nodes - 1
    uncapped = feasible(S, 4, 2, 13, budget=SearchBudget(max_nodes=full.nodes))
    assert uncapped.status == solver.INFEASIBLE


def test_compute_f_timeout_reports_progress():
    S = make_set("primes")
    res = compute_f(S, 4, 2, budget=SearchBudget(max_nodes=50))
    assert res.status == solver.TIMEOUT
    assert res.value is None
    assert res.nodes <= 50


def test_concurrent_compute_f_calls_do_not_interfere():
    # primes+1 decides membership by is_prime, powers(2) without it.
    cases = [(make_set("powers(2)"), 4), (make_set("primes+1"), 4)]
    expected = [compute_f(S, k, 2) for S, k in cases]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(compute_f, S, k, 2) for S, k in cases * 2]
        for fut, exp in zip(futures, expected * 2):
            res = fut.result()
            assert (res.value, res.nodes, res.certificate) == (exp.value, exp.nodes, exp.certificate)


def test_json_round_trip():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    doc = res.to_json_dict()
    assert doc["spec"] == "s_m(3)"
    assert doc["value"] == 7
    restored = Coloring.parse(doc["certificate"], res.r)
    assert not has_k_term(restored, S, 3)


def test_start_bound_above_nmax_still_reports_honestly():
    # the registered exact value (4k-5 = 35) exceeds n_max here
    res = compute_f(make_set("s_m(3)"), 10, 2, n_max=20)
    assert res.status == solver.NOT_FOUND_UP_TO
    assert res.feasible_up_to == 20
