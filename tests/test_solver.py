"""Backtracking solver: feasibility, exact values, certificates, determinism."""

from __future__ import annotations

import itertools
import json
import marshal
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from diffseq import _helper, solver
from diffseq.coloring import Coloring, has_k_term
from diffseq.gapsets import make_set
from diffseq.solver import SearchBudget, compute_f, feasible, verify_certificate
from diffseq.table1 import ROW_BY_LABEL, run_table1


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
    assert verify_certificate(res)


def test_verify_certificate_catches_mutations():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    # flip one position to create a 3-term chain
    flipped = list(res.certificate.colors)
    flipped[1] ^= 1
    bad = res._replace(certificate=Coloring.from_colors(flipped, 2))
    assert not verify_certificate(bad)
    # The question is read back from each result's spec, nested ones included.
    for spec, k, value in (("s_m(3)", 3, 7), ("scaled(2, s_m(3))", 4, 21),
                           ("union(explicit(1), scaled(3, powers(2)))", 4, 31),
                           ("diffs(1,2,4,8)", 4, 7)):
        res = compute_f(make_set(spec), k, 2)
        assert res.value == value and verify_certificate(res), spec
        # a certificate cut by one position claims a value one too small,
        # and so infeasibility where a coloring exists
        cut = Coloring.from_colors(res.certificate.colors[:-1], 2)
        shrunk = res._replace(certificate=cut)
        assert shrunk.value == value - 1 and not verify_certificate(shrunk), spec


def test_verify_certificate_requires_exact():
    res = compute_f(make_set("explicit(1)"), 2, 2, n_max=10)
    with pytest.raises(ValueError):
        verify_certificate(res)


def test_search_budget_rejects_negative_limits():
    with pytest.raises(ValueError, match="max_nodes"):
        SearchBudget(max_nodes=-1)
    with pytest.raises(ValueError, match="max_seconds"):
        SearchBudget(max_seconds=-0.5)


def test_search_budget_rejects_a_fractional_node_cap():
    # a cap the node count never equals would never be read again, nor the clock
    with pytest.raises(TypeError):
        SearchBudget(max_nodes=2.5, max_seconds=1.0)


def test_search_budget_rejects_nan_seconds():
    # a NaN deadline never passes
    with pytest.raises(ValueError, match="max_seconds"):
        SearchBudget(max_seconds=float("nan"))


def test_search_budget_stores_an_int_and_a_float():
    # A numpy count or a bool would reach SolveResult.nodes when the budget
    # stops the search, and numpy's would break json.dumps there.
    np = pytest.importorskip("numpy")
    budget = SearchBudget(max_nodes=np.int64(5), max_seconds=np.float32(1.5))
    assert type(budget.max_nodes) is int and type(budget.max_seconds) is float
    assert repr(budget) == "SearchBudget(max_nodes=5, max_seconds=1.5)"
    assert repr(SearchBudget(max_nodes=True, max_seconds=2)) == (
        "SearchBudget(max_nodes=1, max_seconds=2.0)")
    assert SearchBudget().max_nodes is None and SearchBudget().max_seconds is None
    res = compute_f(make_set("primes"), 7, 2, budget=SearchBudget(max_nodes=np.int64(500)))
    assert type(res.nodes) is int and json.loads(json.dumps(res.to_json_dict()))["nodes"] == 500


def test_feasible_rejects_a_fractional_length():
    # a pass whose target never equals n would run on to the value
    with pytest.raises(TypeError):
        feasible(make_set("primes"), 3, 2, 5.5)


@pytest.mark.parametrize("k, r, n_max", [(3.5, 2, 10), (3, 2.0, 10), (3, 2, 10.5)])
def test_compute_f_rejects_fractional_parameters(k, r, n_max):
    with pytest.raises(TypeError):
        compute_f(make_set("s_m(2)"), k, r, n_max=n_max)


@pytest.mark.parametrize("k, r, n", [(0, 2, 5), (3, 0, 5), (3, 2, 0)])
def test_feasible_rejects_parameters_below_one(k, r, n):
    with pytest.raises(ValueError, match="k, r and n"):
        feasible(make_set("powers(2)"), k, r, n)


@pytest.mark.parametrize("k, r, n_max, message", [
    (0, 2, 10, "k and r"), (3, 0, 10, "k and r"), (3, 2, 0, "n_max"),
])
def test_compute_f_rejects_parameters_below_one(k, r, n_max, message):
    with pytest.raises(ValueError, match=message):
        compute_f(make_set("powers(2)"), k, r, n_max=n_max)


def test_verify_certificate_rejects_malformed_results():
    S = make_set("s_m(3)")
    res = compute_f(S, 3, 2)
    # f(S,1;2) = 1 has nothing to certify; a certificate attached to it is refused
    one = compute_f(S, 1, 2)
    assert one.value == 1 and verify_certificate(one)
    with_cert = one._replace(certificate=Coloring.from_colors([0], 2))
    assert not verify_certificate(with_cert)
    # the colors of an avoiding coloring, but one position short or with r = 3
    short = res._replace(certificate=Coloring.from_colors(res.certificate.colors[:-1], 2))
    assert not verify_certificate(short)
    three = res._replace(certificate=Coloring.from_colors(res.certificate.colors, 3))
    assert not verify_certificate(three)
    # with the certificate dropped the result claims f = 1, which k = 3 refutes
    dropped = res._replace(certificate=None)
    assert dropped.value == 1 and not verify_certificate(dropped)


def test_solve_result_derives_its_value():
    assert "value" not in solver.SolveResult._fields
    res = compute_f(make_set("s_m(3)"), 3, 2)
    assert res.value == res.certificate.n + 1 == 7
    for status in (solver.NOT_FOUND_UP_TO, solver.TIMEOUT):
        assert res._replace(status=status).value is None


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


# A node budget b stops the pass before node b + 1, and a target is reached
# by the descent that makes it, before any further node.  So a budgeted
# compute_f reports as reached exactly the targets n that the pass reaches
# within b nodes, those with feasible(S, k, r, n).nodes <= b.
BUDGET_REACH = [("primes", 4, 2), ("powers(2)", 5, 2), ("odds_plus_two", 5, 2),
                ("s_m(4)", 3, 3), ("fibonacci", 3, 3)]


def reach_nodes(S, k, r, budget=solver.UNLIMITED):
    """Nodes at which the pass reaches target n = 1, 2, ... within budget."""
    reach = []
    while (res := feasible(S, k, r, len(reach) + 1, budget)).status == solver.FEASIBLE:
        reach.append(res.nodes)
    return reach


def assert_budget_reports_reach(S, k, r, reach, budgets):
    for b in budgets:
        res = compute_f(S, k, r, budget=SearchBudget(max_nodes=b))
        reached = max((n for n, x in enumerate(reach, 1) if x <= b), default=None)
        assert (res.status, res.nodes, res.feasible_up_to) == (solver.TIMEOUT, b, reached), b


@pytest.mark.parametrize("spec,k,r", BUDGET_REACH, ids=[f"{s}-{k}-{r}" for s, k, r in BUDGET_REACH])
def test_budgeted_pass_reports_exactly_the_targets_it_reached(spec, k, r):
    S = make_set(spec)
    reach = reach_nodes(S, k, r)
    full = compute_f(S, k, r)
    assert (full.status, full.value) == (solver.EXACT, len(reach) + 1)
    assert_budget_reports_reach(S, k, r, reach, range(full.nodes))


def test_budgeted_plain_pass_reports_exactly_the_targets_it_reached():
    # k = 33 runs plain backtracking; powers(2) reaches n = 100 at node 1,640.
    # Every budget on either side of each reach, and a stride of the rest.
    S, cap = make_set("powers(2)"), 3000
    reach = reach_nodes(S, 33, 2, SearchBudget(max_nodes=cap))
    assert (len(reach), reach[-1]) == (100, 1640)
    budgets = {x + d for x in reach for d in (-1, 0)} | set(range(0, cap, 47))
    assert_budget_reports_reach(S, 33, 2, reach, sorted(budgets))


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


# --- The split: a forked helper takes every other cube of a slow target ----
#
# The exactness tests compare a search with the same search run sequentially,
# with solver._can_split patched to return False.  A process forks one helper,
# at its first split, and keeps it: the tests that count that fork start with
# none, and each test that splits checks that once the helper is reaped, no
# child process is left.

can_split = pytest.mark.skipif(not solver._can_split(), reason="no fork or one usable CPU")


def sequentially(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(solver, "_can_split", lambda: False)
        return fn(*args, **kwargs)


def outcome(res):
    if isinstance(res, solver.SolveResult):
        return res.status, res.nodes, res.certificate, res.feasible_up_to
    return res.status, res.nodes, res.coloring


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returned to the forking process, which starts
    without a helper."""
    _helper.close()
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def splits(monkeypatch):
    """The node at which each split was sent to the helper."""
    sent, start = [], _helper.start

    def counted(k, r, state):
        if not start(k, r, state):
            return False
        sent.append(state[3])
        return True

    monkeypatch.setattr(_helper, "start", counted)
    return sent


def assert_no_child_left():
    _helper.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# How many splits each pinned instance starts: one per slice check at which
# no split is on and the target still has a cube to give away.
PINNED_SPLITS = {("powers(2)", 50): 2, ("powers(2)", 51): 3, ("primes", 32): 2,
                 ("primes", 33): 3, ("fibonacci", 20): 1, ("fibonacci", 21): 2,
                 ("s_m(5)", 18): 1, ("s_m(5)", 19): 1}


@can_split
@pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
@pytest.mark.parametrize("spec,k,value", [row[:3] for row in PINNED_EXHAUSTIONS],
                         ids=[f"{spec}-{k}" for spec, k, *_ in PINNED_EXHAUSTIONS])
def test_split_matches_the_sequential_pass_on_the_pinned_exhaustions(
        monkeypatch, forks, splits, spec, k, value, below):
    S, n = make_set(spec), value - below
    res = feasible(S, k, 2, n)
    assert len(splits) == PINNED_SPLITS.get((spec, n), 0)
    assert len(forks) == min(len(splits), 1)
    assert outcome(res) == outcome(sequentially(monkeypatch, feasible, S, k, 2, n))
    assert_no_child_left()


@can_split
def test_one_fork_serves_every_split_of_the_pinned_exhaustions(forks, splits):
    for spec, k, value, nodes_below, nodes_at, _ in PINNED_EXHAUSTIONS:
        S = make_set(spec)
        assert feasible(S, k, 2, value - 1).nodes == nodes_below
        assert feasible(S, k, 2, value).nodes == nodes_at
    assert len(splits) == sum(PINNED_SPLITS.values()) == 15
    assert len(forks) == 1
    assert_no_child_left()


@can_split
def test_a_split_ended_with_unread_reports_leaves_the_next_split_exact(
        monkeypatch, forks, splits):
    # primes, k = 7, is refuted at n = 33, so the helper reports every cube of
    # the pass's last split, at that target.  That split is sent again, to a
    # new helper, and ended once the helper has reported a cube: the next pass
    # reads those reports and that split's DONE before its own, and skips them.
    S, sent, start = make_set("primes"), [], _helper.start
    expected = outcome(sequentially(monkeypatch, feasible, S, 7, 2, 33))
    with monkeypatch.context() as m:
        m.setattr(_helper, "start",
                  lambda *args: sent.append(marshal.loads(marshal.dumps(args))) or start(*args))
        assert outcome(feasible(S, 7, 2, 33)) == expected
    _helper.close()
    assert _helper.start(*sent[-1])
    assert select.select([_helper._helper[2]], [], [], 30)[0]
    _helper.end()
    splits.clear()
    reads, read = [], os.read

    def logged(fd, size):
        stale = _helper._open > 1  # a split before the current one is open
        data = read(fd, size)
        reads.append((stale, int.from_bytes(data, "little") == _helper.DONE))
        return data

    monkeypatch.setattr(os, "read", logged)
    assert outcome(feasible(S, 7, 2, 33)) == expected
    assert len(splits) == PINNED_SPLITS[("primes", 33)]
    stale = [done for early, done in reads if early]
    assert len(stale) > 1 and stale == [False] * (len(stale) - 1) + [True]
    assert len(forks) == 2
    assert_no_child_left()


# The reference-table cells whose pass starts a split.
SPLIT_CELLS = [("T", 7), ("T", 8), ("F", 7), ("F", 8), ("P", 5), ("P", 6), ("P", 7),
               ("P+1", 5), ("P+1", 6), ("P+2", 4), ("P+2", 5), ("P+3", 4), ("P+3", 5),
               ("P+4", 4), ("P+6", 3), ("P+7", 3), ("S5", 7), ("S5", 8), ("S6", 8)]


@can_split
@pytest.mark.parametrize("label,k", SPLIT_CELLS, ids=[f"{label}-{k}" for label, k in SPLIT_CELLS])
def test_split_matches_the_sequential_pass_on_the_table_cells_that_split(
        monkeypatch, forks, splits, label, k):
    row = ROW_BY_LABEL[label]
    S, value = make_set(row.set_spec), row.expected[k - 2]
    res = compute_f(S, k, 2, n_max=max(4 * value, 64))
    assert splits and len(forks) == 1 and res.value == value
    assert outcome(res) == outcome(sequentially(monkeypatch, compute_f, S, k, 2,
                                                n_max=max(4 * value, 64)))
    assert_no_child_left()


@can_split
def test_split_matches_the_sequential_pass_on_three_colors(monkeypatch, forks, splits):
    # r = 3 runs the plain path: 24,706 nodes, five splits.
    S = make_set("odds_plus_two")
    res = compute_f(S, 4, 3)
    assert (len(splits), len(forks)) == (5, 1)
    assert outcome(res) == outcome(sequentially(monkeypatch, compute_f, S, 4, 3))
    assert verify_certificate(res)
    assert_no_child_left()


# (spec, k, r, n, number of seeded budgets): one search per path.  No split
# starts before the slice check at node 1,000, so the budgets lie above it.
SPLIT_BUDGET_SEARCHES = [("odds_plus_two", 4, 3, 24, 100), ("powers(2)", 8, 2, 51, 16)]


@can_split
@pytest.mark.parametrize("spec,k,r,n,count", SPLIT_BUDGET_SEARCHES,
                         ids=[f"{spec}-{k}-{r}" for spec, k, r, *_ in SPLIT_BUDGET_SEARCHES])
def test_split_keeps_node_budgets_exact(monkeypatch, forks, splits, spec, k, r, n, count):
    S = make_set(spec)
    full = sequentially(monkeypatch, feasible, S, k, r, n).nodes
    budgets = random.Random(f"{spec}-{k}-{r}").sample(range(1_001, full - 1), count - 4)
    for b in [1_000, *budgets, full - 1, full, full + 1]:
        budget = SearchBudget(max_nodes=b)
        for fn, m in ((feasible, n), (compute_f, 1000)):
            splits.clear()
            res = fn(S, k, r, m, budget)
            assert outcome(res) == outcome(sequentially(monkeypatch, fn, S, k, r, m, budget)), (
                fn.__name__, b)
            assert splits or b == 1_000, (fn.__name__, b)
    assert len(forks) == 1
    assert_no_child_left()


@can_split
@pytest.mark.parametrize("stop", ["finished", "max_nodes", "max_seconds", "raise"])
def test_split_leaves_no_child_process(monkeypatch, splits, stop):
    S = make_set("primes")
    if stop == "finished":
        assert compute_f(S, 7, 2).nodes == 104_352
    elif stop == "max_nodes":
        # Target 31 runs from node 1,602 to 61,638: the budget stops it mid-split.
        res = compute_f(S, 7, 2, budget=SearchBudget(max_nodes=25_000))
        assert (res.status, res.nodes) == (solver.TIMEOUT, 25_000)
    elif stop == "max_seconds":
        res = compute_f(make_set("odds_plus_two"), 12, 2, budget=SearchBudget(max_seconds=0.3))
        assert res.status == solver.TIMEOUT
    else:
        def read(fd, size):
            raise RuntimeError("report lost")

        if _helper._helper is None:
            _helper._fork()  # the fork reads the helper's pid
        with monkeypatch.context() as m:
            m.setattr(os, "read", read)
            with pytest.raises(RuntimeError, match="report lost"):
                compute_f(S, 7, 2)
    assert splits
    assert_no_child_left()


@can_split
def test_split_searches_on_alone_when_the_helper_dies_at_once(monkeypatch):
    _helper.close()
    fork, pids = os.fork, []

    def fork_and_die():
        pid = fork()
        if pid == 0:
            os._exit(0)
        pids.append(pid)
        return pid

    S = make_set("primes+1")
    expected = sequentially(monkeypatch, compute_f, S, 6, 2)
    monkeypatch.setattr(os, "fork", fork_and_die)
    assert outcome(compute_f(S, 6, 2)) == outcome(expected)
    assert pids
    assert_no_child_left()


@can_split
def test_split_helper_stops_at_the_node_budget(monkeypatch):
    # P, k = 9 splits at node 7,000, at target 39, and reaches the helper's
    # first cube at node 44,856.  That cube holds 68,600 nodes, and the budget
    # ends one node into it, with no deadline.  The helper stops at the budget
    # inside the cube and reports DONE, so the forking process reads that
    # instead of waiting for the whole cube, and searches the one node itself.
    reads, read = [], os.read

    def logged(fd, size):
        data = read(fd, size)
        reads.append(data)
        return data

    S, budget = make_set("primes"), SearchBudget(max_nodes=44_857)
    expected = sequentially(monkeypatch, compute_f, S, 9, 2, budget=budget)
    monkeypatch.setattr(os, "read", logged)
    res = compute_f(S, 9, 2, budget=budget)
    assert outcome(res) == outcome(expected)
    assert (res.status, res.nodes) == (solver.TIMEOUT, 44_857)
    assert int.from_bytes(reads[-1], "little") == _helper.DONE
    assert_no_child_left()


@can_split
def test_split_reaps_the_helper_of_a_fork_that_raised(monkeypatch):
    # Python 3.12 warns when it forks with another thread alive, after the
    # child exists; a warning raised as an error leaves os.fork without a pid.
    # The helper's first report holds its pid, so it is kept and reaped.
    _helper.close()
    fork, pids = os.fork, []

    def fork_then_warn():
        pid = fork()
        if pid:
            pids.append(pid)
            raise DeprecationWarning("multi-threaded")
        return pid

    open_fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, "fork", fork_then_warn)
    with pytest.raises(DeprecationWarning):
        compute_f(make_set("primes+1"), 6, 2)
    assert pids and _helper._helper[0] == pids[0]
    assert_no_child_left()
    assert len(os.listdir("/dev/fd")) == open_fds


@can_split
def test_split_runs_with_a_thread_python_did_not_start(monkeypatch, forks, splits):
    # numpy's BLAS pool is such a thread; the split still forks and is exact.
    np = pytest.importorskip("numpy")
    np.ones((64, 64)) @ np.ones((64, 64))
    S = make_set("primes+1")
    expected = sequentially(monkeypatch, compute_f, S, 6, 2)
    assert outcome(compute_f(S, 6, 2)) == outcome(expected)
    assert forks and splits
    assert_no_child_left()


@can_split
def test_a_killed_helper_is_replaced_at_the_next_split(monkeypatch, forks, splits):
    S = make_set("primes")
    expected = outcome(sequentially(monkeypatch, feasible, S, 7, 2, 33))
    assert outcome(feasible(S, 7, 2, 33)) == expected
    os.kill(forks[0], signal.SIGKILL)
    splits.clear()
    assert outcome(feasible(S, 7, 2, 33)) == expected
    assert splits and len(forks) == 2 and _helper._helper[0] == forks[1]
    assert_no_child_left()


@can_split
def test_a_process_forked_later_splits_with_a_helper_of_its_own(monkeypatch, splits):
    S = make_set("primes")
    expected = outcome(sequentially(monkeypatch, feasible, S, 7, 2, 33))
    assert outcome(feasible(S, 7, 2, 33)) == expected
    helper, before = _helper._helper[0], len(splits)
    pid = os.fork()
    if not pid:
        ok = False
        try:
            signal.alarm(60)  # a child that hangs is ended, and the test fails
            ok = (_helper._helper is None and outcome(feasible(S, 7, 2, 33)) == expected
                  and len(splits) > before and _helper._helper[0] != helper)
            _helper.close()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitpid(pid, 0)[1] == 0
    assert outcome(feasible(S, 7, 2, 33)) == expected
    assert _helper._helper[0] == helper  # the child's search left the parent's helper alone
    assert_no_child_left()


def child_interpreter(script, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                            env=env, **kwargs)


@can_split
def test_split_helper_exits_when_its_parent_is_killed():
    # The search runs in a child interpreter that holds the write end of a
    # pipe, and so does its helper.  Once both have exited, the read end sees
    # EOF.
    r, w = os.pipe()
    script = (
        "from diffseq import _helper, solver\n"
        "from diffseq.gapsets import make_set\n"
        "start = _helper.start\n"
        "def announce(*args):\n"
        "    sent = start(*args)\n"
        "    print(_helper._helper[0], flush=True)\n"
        "    return sent\n"
        "_helper.start = announce\n"
        "solver.compute_f(make_set('odds_plus_two'), 12, 2)\n"
    )
    proc = child_interpreter(script, pass_fds=(w,))
    os.close(w)
    try:
        assert int(proc.stdout.readline()) > 0  # the first split has started
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        assert select.select([r], [], [], 30)[0] and os.read(r, 1) == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        os.close(r)


@can_split
def test_split_helper_is_reaped_before_its_interpreter_exits():
    # As in the test above, but the interpreter splits and exits normally: by
    # the time it is waited for, its helper has closed the pipe and is reaped.
    r, w = os.pipe()
    script = (
        "from diffseq import _helper, solver\n"
        "from diffseq.gapsets import make_set\n"
        "solver.compute_f(make_set('primes'), 7, 2)\n"
        "print(_helper._helper[0], flush=True)\n"
    )
    proc = child_interpreter(script, pass_fds=(w,))
    os.close(w)
    try:
        helper = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == 0
        assert select.select([r], [], [], 0)[0] and os.read(r, 1) == b""
        with pytest.raises(ProcessLookupError):
            os.kill(helper, 0)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        os.close(r)


@pytest.mark.parametrize("unsafe", ["no fork", "one CPU", "thread alive", "fork fails"])
def test_split_stays_sequential_where_forking_is_unsafe_or_useless(monkeypatch, unsafe):
    _helper.close()
    S = make_set("primes+1")
    expected = sequentially(monkeypatch, compute_f, S, 6, 2)
    open_fds = len(os.listdir("/dev/fd"))

    def refuse():
        if unsafe == "fork fails":
            raise OSError(11, "Resource temporarily unavailable")
        raise AssertionError("forked")

    if unsafe == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", refuse)
    if unsafe == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if unsafe == "thread alive":
        with ThreadPoolExecutor(max_workers=1) as pool:
            res = pool.submit(compute_f, S, 6, 2).result()
    else:
        res = compute_f(S, 6, 2)
    assert outcome(res) == outcome(expected)
    assert len(os.listdir("/dev/fd")) == open_fds
