"""Prime sieve, chain search, chain verification, and admissibility."""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from diffseq import gapsets, primechain, solver
from diffseq.primechain import (
    OffsetSystem,
    PrimeChain,
    find_chain,
    is_admissible_small_primes,
    is_p_admissible,
    is_prime,
    sieve,
    verify_chain,
)


def _trial_count(bound: int) -> int:
    # independent tiny prime counter for cross-checks
    count = 0
    for n in range(2, bound + 1):
        if all(n % f for f in range(2, int(n**0.5) + 1)):
            count += 1
    return count


def test_numpy_is_imported_only_by_the_sieve():
    # The package and a search need no numpy; only sieve() loads it.
    src = str(Path(primechain.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import diffseq; "
             "diffseq.feasible(diffseq.make_set('powers(2)'), 3, 2, 6); "
             "from diffseq.primechain import OffsetSystem, is_admissible_small_primes; "
             "is_admissible_small_primes(OffsetSystem.from_sources(1, (5, 7, 11))); "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_sieve_small():
    assert sieve(10).tolist() == [2, 3, 5, 7]
    assert sieve(2).tolist() == [2]
    with pytest.raises(ValueError):
        sieve(1)


def test_sieve_count_against_independent_counter():
    assert len(sieve(10**4)) == _trial_count(10**4)


def test_sieve_count_million():
    # standard prime-counting value, cross-checked during development
    assert len(sieve(10**6)) == 78498


def test_segmented_sieve_agrees_with_simple():
    segmented = sieve(10_000_100)  # crosses the segmentation threshold
    assert segmented[-1] <= 10_000_100
    small = sieve(10**5)
    assert segmented[: len(small)].tolist() == small.tolist()
    assert int(segmented[-1]) == 10_000_079  # sympy prevprime cross-check
    assert len(segmented) == 664_581  # sympy primepi cross-check


def test_is_prime_on_small_and_large_inputs():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(10_000_019)
    assert not is_prime(10_000_018)


def test_sieve_agrees_with_simple_sieve_at_segment_seams(monkeypatch):
    # Segment s holds the odd numbers 2*j + 1 for j in [s * span, (s + 1) * span),
    # so the last segment holds 0, 1 or 2 odd numbers below these n.
    span = gapsets._SEGMENT_SPAN
    for n in (2 * span - 1, 2 * span, 2 * span + 1, 2 * span + 3, 4 * span + 5):
        assert sieve(n).tolist() == gapsets._simple_sieve(n).tolist(), n
    # No prime sits at the first seams of the real span, so small spans put
    # primes on every side of a seam; span 1 gives each odd number a segment.
    for small in (1, 2, 3, 5, 64):
        monkeypatch.setattr(gapsets, "_SEGMENT_SPAN", small)
        for n in range(2, 300):
            assert sieve(n).tolist() == gapsets._simple_sieve(n).tolist(), (small, n)


def record_strikes(monkeypatch) -> list[tuple[int, int]]:
    """Patch gapsets._strike to record the (low, high) of each call, then strike."""
    calls = []
    strike = gapsets._strike

    def recording(out, count, low, high, odd_base, down=False):
        calls.append((low, high))
        return strike(out, count, low, high, odd_base, down)

    monkeypatch.setattr(gapsets, "_strike", recording)
    return calls


@pytest.mark.parametrize("cpus", [1, 2])
def test_split_sieve_agrees_with_simple_sieve(monkeypatch, cpus):
    # With 2 CPUs every n past one segment splits, the lower half taking
    # floor(segments / 2) of them; 1 CPU strikes [0, half) on this thread.
    # The spans give odd and even segment counts, and n = 2 * s * span - 1
    # and 2 * s * span end exactly on a segment boundary.
    calls = record_strikes(monkeypatch)
    monkeypatch.setattr(gapsets, "_usable_cpus", lambda: cpus)
    for small in (1, 2, 3, 5, 64):
        monkeypatch.setattr(gapsets, "_SEGMENT_SPAN", small)
        for n in [*range(2, 300), *(2 * s * small + e for s in (5, 6) for e in (-1, 0))]:
            calls.clear()
            assert sieve(n).tolist() == gapsets._simple_sieve(n).tolist(), (small, n)
            half = (n + 1) // 2
            mid = -(-half // small) // 2 * small
            split = cpus > 1 and half > small
            assert sorted(calls) == ([(0, mid), (mid, half)] if split else [(0, half)]), (small, n)


def test_split_sieve_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(gapsets, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    n = 4 * gapsets._SEGMENT_SPAN + 5
    assert sieve(n).tolist() == gapsets._simple_sieve(n).tolist()
    assert threading.active_count() == before


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_split_sieve_error_reaches_the_caller(monkeypatch, half):
    # The upper half runs on the helper thread, the lower on the caller's.  A
    # helper that does not fail lingers, so only a join can see it end.
    strike = gapsets._strike

    def failing(out, count, low, high, odd_base, down=False):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == (half == "upper"):
            raise RuntimeError(f"{half} half failed")
        if on_helper:
            time.sleep(0.05)
        return strike(out, count, low, high, odd_base, down)

    monkeypatch.setattr(gapsets, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gapsets, "_SEGMENT_SPAN", 64)
    monkeypatch.setattr(gapsets, "_strike", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{half} half failed$"):
        sieve(1000)
    assert threading.active_count() == before


@pytest.mark.skipif(not solver._can_split(), reason="no fork, one usable CPU or a thread alive")
def test_search_can_still_split_after_a_split_sieve(monkeypatch):
    # 500 odd numbers in 8 segments of 64: the helper strikes the upper 4.
    monkeypatch.setattr(gapsets, "_SEGMENT_SPAN", 64)
    calls = record_strikes(monkeypatch)
    sieve(1000)
    assert sorted(calls) == [(0, 256), (256, 500)]
    assert solver._can_split()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sieve_peak_stays_near_its_result(monkeypatch, cpus):
    # One array sized by the prime-counting bound, shrunk in place: no
    # per-segment parts held with their concatenation (2.13x the result).
    # With 2 CPUs the helper thread's mask and primes are held as well.
    monkeypatch.setattr(gapsets, "_usable_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        primes = sieve(3 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 1_857_859 and primes.dtype == np.int64
    assert peak < 1.75 * primes.nbytes


def test_is_prime_accepts_numpy_integers():
    # On both sides of 2 * 10**7, where is_prime once switched from a sieve
    # mask to Miller-Rabin.
    for d in (10_000_019, 19_999_999, 4_000_000_007):
        assert is_prime(np.int64(d))
        for e in range(d - 3, d + 4):
            assert is_prime(np.int64(e)) == primechain._trial_division_prime(e), e
    assert is_prime(np.int64(2**61 - 1))
    with pytest.raises(TypeError):
        is_prime(7.0)


def test_is_prime_above_the_mask_cap_uses_miller_rabin():
    assert [d for d in range(10**5) if is_prime(d)] == sieve(10**5).tolist()
    # The window around 2 * 10**7 is where the old sieve mask ended.
    rng = random.Random(10)
    window = 20_000_000
    sample = list(range(window - 40, window + 160)) + [rng.randrange(window, 10**10) for _ in range(60)]
    for d in sample:
        assert is_prime(d) == primechain._trial_division_prime(d), d
    # A strong pseudoprime to bases 2, 3, 5 and 7: 151 * 751 * 28351.
    assert not is_prime(3_215_031_751)
    assert primechain._trial_division_prime(2_147_483_647)  # 2^31 - 1
    assert is_prime(2_147_483_647)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(gapsets._MR_LIMIT)


# --- chains -----------------------------------------------------------------

def brute_force_lex_min(t: int, k: int, bound: int) -> tuple[int, ...] | None:
    """Oracle: first chain in lexicographic order by exhaustive recursion."""
    primes = [int(p) for p in sieve(bound)]
    prime_set = set(primes)

    def extend(chain: list[int]) -> tuple[int, ...] | None:
        if len(chain) == k:
            return tuple(chain)
        for nxt in primes:
            if nxt <= chain[-1]:
                continue
            witness = nxt - chain[-1] - t
            if witness in prime_set:
                found = extend(chain + [nxt])
                if found is not None:
                    return found
        return None

    for start in primes:
        found = extend([start])
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("t,k,bound", [(1, 3, 100), (1, 2, 10), (3, 2, 20), (7, 3, 200)])
def test_find_chain_is_lexicographically_minimal(t, k, bound):
    chain = find_chain(t, k, bound)
    assert chain is not None
    assert chain.elements == brute_force_lex_min(t, k, bound)
    assert verify_chain(chain)


# Around the first sieve limits (1024 to 1050 here): chains ending at 1097,
# 1223, 1471 and 3019, and a search that finds nothing below 2100.  At
# (1501, 3, 4096) the list grows from 1024, exactly a quarter of the bound,
# so it doubles to 2048 before it takes the bound.
_GROWTH_GRID = [
    (1, 8, 2048), (5, 8, 4096), (7, 8, 2100), (101, 8, 2100), (151, 8, 2100),
    (201, 8, 2100), (301, 5, 2100), (701, 4, 2100), (1501, 3, 4100),
    (151, 4, 2049), (1501, 3, 4096),
]


def test_find_chain_grows_its_primes_past_the_first_limit():
    results = {}
    for t, k, bound in _GROWTH_GRID:
        chain = find_chain(t, k, bound)
        results[t, k, bound] = chain and chain.elements
        assert results[t, k, bound] == brute_force_lex_min(t, k, bound), (t, k, bound)
    first = {bound: min(bound, primechain._FIRST_SIEVE_LIMIT) for _, _, bound in _GROWTH_GRID}
    assert any(r is not None and r[-1] > first[bound] for (_, _, bound), r in results.items())
    assert any(r is None and bound > first[bound] for (_, _, bound), r in results.items())


def test_find_chain_sieves_doubling_limits_each_once(monkeypatch):
    calls = []

    def recording_sieve(n):
        calls.append(n)
        return sieve(n)

    monkeypatch.setattr(primechain, "sieve", recording_sieve)
    first = primechain._FIRST_SIEVE_LIMIT
    for t, k, bound in _GROWTH_GRID:
        calls.clear()
        find_chain(t, k, bound)
        assert calls[0] == min(bound, first), (t, k, bound)
        assert all(b == (bound if 4 * a > bound else 2 * a)
                   for a, b in zip(calls, calls[1:])), (t, k, bound)
        assert len(set(calls)) == len(calls), (t, k, bound)
        # The limits before the last double and the last of them is at most
        # half the bound (or the first limit), so they sum to under the bound
        # and all of them to under twice it.
        assert sum(calls) < 2 * bound, (t, k, bound)


def test_bfs_reads_its_gaps_off_the_primes_it_holds(monkeypatch):
    # The chain DP's gaps q + t come from the search's own list, so no sieve
    # of primes+151 below the chain's top (to 945) follows the search's two.
    calls = []

    def recording_sieve(n):
        calls.append(n)
        return sieve(n)

    monkeypatch.setattr(primechain, "sieve", recording_sieve)
    monkeypatch.setattr(gapsets, "sieve", recording_sieve)
    chain = find_chain(151, 8, 2100, strategy="bfs")
    assert verify_chain(chain)
    assert calls == [1024, 2100]


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
def test_find_chain_grows_from_a_tiny_first_limit(monkeypatch, strategy):
    # From a first limit of 8 nearly every search below runs off the list
    # and grows it, some several times.
    cases = [(t, k, bound) for t in (1, 3, 5, 7, 9, 27) for k in (2, 4, 8)
             for bound in (20, 60, 150)]
    expected = {case: find_chain(*case, strategy=strategy) for case in cases}
    monkeypatch.setattr(primechain, "_FIRST_SIEVE_LIMIT", 8)
    for case in cases:
        assert find_chain(*case, strategy=strategy) == expected[case], case


def test_find_chain_frozen_values():
    assert find_chain(1, 3, 100).elements == (2, 5, 11)
    assert find_chain(1, 2, 10).elements == (2, 5)
    assert find_chain(3, 2, 20).elements == (2, 7)
    # The four chains perfbench's certify workload checks.
    assert find_chain(1, 8, 10**7).elements == (2, 5, 11, 17, 23, 29, 37, 41)
    assert find_chain(3, 8, 10**7).elements == (2, 7, 13, 19, 29, 37, 43, 53)
    assert find_chain(5, 8, 10**7).elements == (3, 11, 19, 29, 37, 47, 59, 67)
    assert find_chain(7, 8, 10**7).elements == (2, 11, 23, 37, 47, 59, 71, 83)


def test_find_chain_at_the_bound_cap_sieves_only_what_it_searches():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        chain = find_chain(5, 8, primechain._CHAIN_BOUND_LIMIT)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.elements == (3, 11, 19, 29, 37, 47, 59, 67)
    assert elapsed < 0.5
    assert peak < 10 * 2**20


def test_find_chain_past_a_dead_end_start():
    # For t = 5 every candidate after 2 is 2 + q + 5 with q odd, hence even:
    # the start p1 = 2 extends nowhere and the chain begins at 3.  For t = 7
    # the chain from 2 survives only through the even gap witness 2.
    assert find_chain(5, 8, 100).elements == (3, 11, 19, 29, 37, 47, 59, 67)
    assert find_chain(7, 8, 100).elements == (2, 11, 23, 37, 47, 59, 71, 83)
    for t in (5, 7):
        assert find_chain(t, 8, 100).elements == brute_force_lex_min(t, 8, 100)
        bfs = find_chain(t, 8, 100, strategy="bfs")
        assert bfs is not None and verify_chain(bfs)


def test_find_chain_refuses_bounds_above_the_cap():
    cap = primechain._CHAIN_BOUND_LIMIT
    assert cap >= 10**7
    with pytest.raises(ValueError, match="bound"):
        find_chain(1, 3, cap + 1)
    with pytest.raises(ValueError, match="bound"):
        find_chain(1, 3, 10**12, strategy="bfs")


def test_find_chain_records_gap_witnesses():
    chain = find_chain(1, 3, 100)
    assert chain.gaps == (3, 6)
    assert chain.gap_witnesses == (2, 5)
    # Only t and the elements are stored; the gaps and witnesses derive.
    assert chain._fields == ("t", "elements") and list(vars(chain)) == ["t", "elements"]


def test_find_chain_rejects_even_or_tiny_parameters():
    with pytest.raises(ValueError):
        find_chain(2, 3, 100)
    with pytest.raises(ValueError):
        find_chain(0, 3, 100)
    with pytest.raises(ValueError):
        find_chain(1, 1, 100)
    with pytest.raises(ValueError):
        find_chain(1, 3, 100, strategy="dijkstra")


def test_find_chain_refuses_a_fractional_k():
    # A 4.5-element chain does not exist; None would say none lies below 100.
    with pytest.raises(TypeError):
        find_chain(1, 4.5, 100)


def test_find_chain_refuses_a_float_shift_or_bound():
    # Unrefused, t = 3.0 would give (2, 7.0, 13.0), which verify_chain accepts.
    with pytest.raises(TypeError):
        find_chain(3.0, 3, 100)
    with pytest.raises(TypeError):
        find_chain(3, 3, 100.0, strategy="bfs")


def test_offset_system_refuses_a_float_shift_or_source():
    # Unrefused, sources [2.7, 4.2] gave the offsets (0, 3, 8).
    for t, sources in ((1, [2.7, 4.2]), (1.0, [2, 4])):
        with pytest.raises(TypeError):
            OffsetSystem.from_sources(t, sources)


def test_find_chain_answers_k_past_the_recursion_limit():
    # The walk keeps its frames on a list, so k is not bounded by the
    # interpreter's recursion limit (about 1,000).
    for k, last in ((500, None), (1100, 13_327), (2000, 26_881)):
        chain = find_chain(1, k, 10**6)
        assert len(chain.elements) == k and verify_chain(chain)
        assert last is None or chain.elements[-1] == last


def test_find_chain_not_found_within_bound():
    for strategy in ("dfs", "bfs"):
        assert find_chain(1, 4, 6, strategy) is None
        # Below 2 there is no prime to sieve; sieve(1) would raise.
        assert find_chain(1, 3, 1, strategy) is None
        assert find_chain(1, 3, 0, strategy) is None
        # Every prime <= 40 starts a search (37 + 2 + 1 = 40), and the least
        # 8-element chain for t = 1 ends at 41.
        assert find_chain(1, 8, 40, strategy) is None
        assert find_chain(1, 8, 41, strategy).elements[-1] == 41


def test_bfs_minimizes_the_largest_element():
    dfs = find_chain(1, 4, 10**4, strategy="dfs")
    bfs = find_chain(1, 4, 10**4, strategy="bfs")
    assert verify_chain(bfs)
    assert max(bfs.elements) <= max(dfs.elements)


def least_chain_max(t: int, k: int, bound: int) -> int | None:
    """Oracle: the least prime that ends a k-element chain, by a table over primes."""
    primes = [int(p) for p in sieve(bound)]
    prime_set = set(primes)
    longest = {}
    for p in primes:
        longest[p] = 1 + max((longest[r] for r in primes if r < p and p - r - t in prime_set),
                             default=0)
        if longest[p] >= k:
            return p
    return None


@pytest.mark.parametrize("t,k,bound", [
    (1, 4, 10**4), (9, 8, 400), (23, 5, 400), (27, 4, 400), (33, 6, 400),
    (701, 3, 2100), (1, 9, 10**5), (151, 8, 2100),
] + [(t, k, 400) for t in range(1, 22, 2) for k in range(2, 9) if (t, k) != (9, 8)])
def test_bfs_is_the_lex_least_chain_below_the_least_maximum(t, k, bound):
    least = least_chain_max(t, k, bound)
    bfs = find_chain(t, k, bound, strategy="bfs")
    assert bfs.elements == brute_force_lex_min(t, k, least)
    assert bfs.elements[-1] == least


def lex_least_within(t: int, k: int, top: int) -> tuple[int, ...]:
    """Oracle: the lex-least k-element chain within [1, top], by forward lengths."""
    primes = [int(p) for p in sieve(top)]
    prime_set = set(primes)
    # ahead[p]: the most elements of a chain that starts at p and stays <= top.
    ahead = {}
    for p in reversed(primes):
        ahead[p] = 1 + max((ahead[r] for r in primes if r > p and r - p - t in prime_set),
                           default=0)
    chain, candidates = [], primes
    for need in range(k, 0, -1):
        p = next(r for r in candidates if ahead[r] >= need)
        chain.append(p)
        candidates = [r for r in primes if r > p and r - p - t in prime_set]
    return tuple(chain)


def test_bfs_answers_at_large_k():
    # The walk off the two chain tables never backtracks, so k in the
    # thousands answers within a second.
    for k in (300, 1100, 2000):
        dfs_top = find_chain(1, k, 10**6).elements[-1]
        start = time.perf_counter()
        bfs = find_chain(1, k, 10**6, strategy="bfs")
        assert time.perf_counter() - start < 1.0, k
        assert len(bfs.elements) == k and verify_chain(bfs)
        assert bfs.elements[-1] <= dfs_top
        if k < 2000:
            least = least_chain_max(1, k, dfs_top)
            assert bfs.elements[-1] == least
            assert bfs.elements == lex_least_within(1, k, least)


@pytest.mark.parametrize("t,k,bound,elements,seconds", [
    (701, 3, 2100, (3, 709, 1423), 0.05),
    (151, 8, 2100, (3, 157, 311, 467, 631, 787, 941, 1097), 0.5),
    (1501, 5, 10**5, (3, 1511, 3019, 4523, 6029), 0.5),
])
def test_bfs_takes_the_least_maximum_from_the_chain_dp(t, k, bound, elements, seconds):
    # One dfs at the bound, then two chain tables: the least maximum is read
    # off the first, and the chain is walked off the second; no second search.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        chain = find_chain(t, k, bound, strategy="bfs")
        times.append(time.perf_counter() - start)
    assert chain.elements == elements
    assert min(times) < seconds


def test_verify_chain_accepts_valid_handmade_chain():
    # gaps 6,6 with witness 5 = 6 - 1
    chain = PrimeChain(1, (5, 11, 17))
    assert verify_chain(chain)


def test_verify_chain_rejects_composites():
    assert not verify_chain(PrimeChain(1, (5, 11, 18)))
    assert not verify_chain(PrimeChain(1, (5, 12, 17)))
    # witness 4 = 5 - 1 is composite even though both endpoints are prime
    assert not verify_chain(PrimeChain(1, (2, 7)))
    # even shift never validates
    assert not verify_chain(PrimeChain(2, (3, 7)))


def test_verify_chain_rejects_malformed_chains(monkeypatch):
    assert not verify_chain(PrimeChain(t=1, elements=()))
    # A descending chain's witnesses are negative, so the primality checks
    # would refuse it too; accepting every number isolates the order check.
    monkeypatch.setattr(primechain, "_trial_division_prime", lambda n: True)
    assert not verify_chain(PrimeChain(1, (17, 11, 5)))


def test_prefix_closure():
    chain = find_chain(3, 5, 10**5)
    assert chain is not None
    for cut in range(2, len(chain.elements)):
        prefix = PrimeChain(chain.t, chain.elements[:cut])
        assert verify_chain(prefix)


def test_gap_parity():
    # odd shift: every gap q + t is even unless the witness is the prime 2
    for t in (1, 3, 5):
        chain = find_chain(t, 5, 10**5)
        for gap, witness in zip(chain.gaps, chain.gap_witnesses):
            assert gap % 2 == 0 or witness == 2


# --- offset systems and admissibility ----------------------------------------

def test_offset_system_partial_sums():
    system = OffsetSystem.from_sources(1, (5, 7, 11))
    assert system.offsets == (0, 6, 14, 26)
    assert system.sources == (5, 7, 11)
    assert OffsetSystem(1, (0, 6, 14, 26)) == system
    assert OffsetSystem._fields == ("t", "offsets")


def test_p_admissible_examples():
    assert not is_p_admissible(OffsetSystem(1, (0, 1)), 2)
    assert is_p_admissible(OffsetSystem(1, (0, 2)), 2)
    # offsets 0, 6, 12 (sources 5, 5 with shift 1): residue 1 mod 3 clears all
    assert is_p_admissible(OffsetSystem.from_sources(1, (5, 5)), 3)
    with pytest.raises(ValueError):
        is_p_admissible(OffsetSystem(1, (0, 2)), 4)


def test_p_admissible_refuses_a_float_prime():
    # 3.0 passes trial division, so unrefused it would get an answer.
    with pytest.raises(TypeError):
        is_p_admissible(OffsetSystem(1, (0, 3, 5)), 3.0)


def test_small_prime_admissibility_examples():
    assert is_admissible_small_primes(OffsetSystem.from_sources(1, ()))
    system = OffsetSystem.from_sources(1, (5, 7, 11))
    assert is_admissible_small_primes(system)
    # offsets 0,1,2 cover every residue class mod 3
    blocked = OffsetSystem(1, (0, 1, 2))
    assert not is_admissible_small_primes(blocked)


def test_small_prime_admissibility_checks_the_prime_equal_to_k():
    # k offsets can fill all k classes mod a prime p = k: (0, 2, 4) mod 3 and
    # (0, 1) mod 2.  No prime above 3 can block three offsets, so the primes
    # up to 13 stand for all of them.
    assert not is_admissible_small_primes(OffsetSystem(1, (0, 2, 4)))
    assert not is_admissible_small_primes(OffsetSystem(1, (0, 1)))
    systems = ([OffsetSystem(1, offs) for offs in combinations(range(0, 30, 2), 3)]
               + [OffsetSystem(1, offs) for offs in combinations(range(0, 12), 2)])
    assert len(systems) == 521
    for system in systems:
        want = all(is_p_admissible(system, p) for p in (2, 3, 5, 7, 11, 13))
        assert is_admissible_small_primes(system) == want, system.offsets


def test_p_admissible_matches_exhaustive_tabulation():
    # agreement with literal divisibility tables on small systems
    for offsets in combinations(range(0, 50, 3), 3):
        system = OffsetSystem(1, offsets)
        for p in (2, 3, 5, 7):
            expected = any(
                all((h + b) % p != 0 for b in offsets) for h in range(p)
            )
            assert is_p_admissible(system, p) == expected
