"""Acceptance suite: one test per criterion, each recording a PASS/FAIL line.

All tolerances are exact integer equality; runtime ceilings are asserted
where the criterion states one.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import diffseq
from diffseq import (
    bounds_for,
    brute_force_longest,
    compute_f,
    find_chain,
    g,
    has_k_term,
    longest_mono_diffseq,
    make_set,
    named_witness,
    verify_chain,
)
from diffseq.coloring import Coloring, longest_restricted
from diffseq.table1 import SKIPPED, run_table1
from diffseq.witnesses import WITNESSES

from conftest import ACCEPTANCE_LINES


def record(number: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} deviation(s))"
    line = f"criterion {number:2d} [{label}]: {verdict}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    for item in failures[:10]:
        print(f"  - {item}")


def solve(spec: str, k: int) -> int | None:
    res = compute_f(make_set(spec), k, 2)
    return res.value if res.status == "exact" else None


# Value and lex-least certificate of every known cell, as computed by plain
# backtracking before the search propagated; propagation must not move them.
REFERENCE_CELLS = json.loads((Path(__file__).parent / "data" / "table1_certificates.json")
                             .read_text())
# Exact node total of the 56 known cells (83,521,484 without propagation).
TABLE_NODES = 1_292_045


def test_criterion_01_reference_table_reproduction():
    results = run_table1()
    known = [cell for cell in results if cell.status != SKIPPED]
    failures = [
        f"row {cell.row} k={cell.k}: expected {cell.expected}, computed {cell.computed}"
        for cell in known
        if cell.status != "match"
    ]
    # the 12 rows by k=2..8 grid carries 56 known cells; all must match
    if len(results) != 12 * 7 or len(known) != 56:
        failures.append(f"cell inventory: {len(results)} total, {len(known)} known")
    got = [{"row": c.row, "k": c.k, "value": c.computed, "certificate": c.certificate}
           for c in known]
    failures += [f"row {ref['row']} k={ref['k']}: reference {ref}, computed {cell}"
                 for ref, cell in zip(REFERENCE_CELLS, got) if ref != cell]
    nodes = sum(cell.nodes for cell in known)
    if nodes != TABLE_NODES:
        failures.append(f"table nodes {nodes}, pinned {TABLE_NODES}")
    record(1, "reference table, 56 known cells with certificates", failures)
    assert not failures


def test_criterion_02_two_gap_block_formula():
    S = make_set("odds_plus_two")
    failures = []
    for k in range(2, 11):
        res = compute_f(S, k, 2)
        value = res.value if res.status == "exact" else None
        b = bounds_for(S, k, 2)
        if b.lower != g(k):
            failures.append(f"k={k}: registered lower {b.lower}, formula {g(k)}")
        if value is None or value < g(k):
            failures.append(f"k={k}: solver {value} below lower bound {g(k)}")
        if b.exact and value != b.lower:
            failures.append(f"k={k}: solver {value}, registered exact {b.lower}")
        # the pinned deviation: f = 25 > g(9) = 23, certified by a 24-term coloring
        if k == 9 and (b.exact or value != 25 or res.certificate.n != 24
                       or has_k_term(res.certificate, S, 9)):
            failures.append(f"k=9: solver {value}, exact {b.exact}, certificate {res.certificate}")
    record(2, "odds_plus_two >= g(k), = g(k) where registered exact, 25 at k=9", failures)
    assert not failures


def test_criterion_03_nonmultiples_of_3_and_4():
    failures = []
    for k in range(2, 9):
        v3 = solve("s_m(3)", k)
        if v3 != 4 * k - 5:
            failures.append(f"s_m(3) k={k}: solver {v3}, formula {4 * k - 5}")
        v4 = solve("s_m(4)", k)
        if v4 != g(k):
            failures.append(f"s_m(4) k={k}: solver {v4}, formula {g(k)}")
    record(3, "s_m(3)=4k-5 and s_m(4)=g(k) for k=2..8", failures)
    assert not failures


def test_criterion_04_mod12_class_family():
    failures = []
    for k in range(3, 8):
        value = solve("residues(12; 1,2,5,7,10,11)", k)
        if value != 7 * k - 12:
            failures.append(f"k={k}: solver {value}, formula {7 * k - 12}")
    record(4, "residues{12} family equals 7k-12 for k=3..7", failures)
    assert not failures


def test_criterion_05_nonmultiples_small_k_and_lower_bound():
    failures = []
    for m in (5, 6, 7, 9):
        for k in range(2, m):
            value = solve(f"s_m({m})", k)
            if value != 2 * k - 1:
                failures.append(f"s_m({m}) k={k}: solver {value}, formula {2 * k - 1}")
    for m in (5, 6):
        for k in range(2, 11):
            value = solve(f"s_m({m})", k)
            bound = 2 * k + 2 * (k // m) - 1
            if value is None or bound > value:
                failures.append(f"s_m({m}) k={k}: bound {bound} exceeds solver {value}")
    record(5, "s_m(m) small-k law and 2k+2a-1 lower bound", failures)
    assert not failures


def test_criterion_06_gap_scaling_law():
    failures = []
    for spec, k in (("s_m(3)", 3), ("odds_plus_two", 4), ("powers(2)", 3)):
        base = solve(spec, k)
        for j in (2, 3):
            scaled_val = solve(f"scaled({j}, {spec})", k)
            expected = j * (base - 1) + 1
            if scaled_val != expected:
                failures.append(
                    f"{spec} k={k} j={j}: solver {scaled_val}, expected {expected}"
                )
    record(6, "scaling law j(M-1)+1 for j=2,3", failures)
    assert not failures


def test_criterion_07_power_gap_sandwich():
    failures = []
    values = {k: solve("powers(2)", k) for k in range(3, 9)}
    for k, value in values.items():
        lower, upper = 8 * (k - 3) + 1, 2**k - 1
        if not lower <= value <= upper:
            failures.append(f"k={k}: {value} outside [{lower}, {upper}]")
    for k in (5, 6):
        if values[k] != 8 * (k - 3) + 1:
            failures.append(f"k={k}: expected equality with lower bound, got {values[k]}")
    record(7, "power-gap sandwich and equality at k=5,6", failures)
    assert not failures


def test_criterion_08_witness_suite():
    t0 = time.monotonic()
    failures = []

    def check(name: str, **params) -> None:
        coloring, claim = named_witness(name, **params)
        if not claim.check(coloring):
            failures.append(f"{name} {params}: claim failed")

    for k in range(5, 13):
        check("chi_k", k=k)
    for k in range(4, 13, 2):
        check("C_k", k=k)
    for k in range(5, 14, 2):
        check("D_k", k=k)
    for k in range(3, 11):
        check("thm34", k=k)
    for m in (5, 6, 7):
        for k in range(2, 3 * m + 1):
            check("thm35", m=m, k=k)
    for k in range(3, 10):
        check("prop36", k=k)

    # blocking-coloring lengths agree with the thresholds they certify
    length_law = {
        "chi_k": (range(5, 13), lambda k: 8 * (k - 3)),
        "C_k": (range(4, 13, 2), lambda k: 3 * k - 4),
        "D_k": (range(5, 14, 2), lambda k: 3 * k - 5),
        "thm34": (range(3, 11), lambda k: 4 * k - 6),
        "prop36": (range(3, 10), lambda k: 7 * k - 13),
    }
    for name, (ks, expected_n) in length_law.items():
        for k in ks:
            coloring, _ = named_witness(name, k=k)
            if coloring.n != expected_n(k):
                failures.append(f"{name} k={k}: length {coloring.n} != {expected_n(k)}")

    # residue blocker kills 2-term chains over sets with no multiple of m
    for spec in ("explicit(1,7,11)", "explicit(4,9,23)"):
        coloring, _claim = named_witness("mod_block", m=5, n=1000, set_spec=spec)
        length, _ = longest_mono_diffseq(coloring, make_set(spec))
        if length != 1:
            failures.append(f"mod_block(5) vs {spec}: longest {length}")

    check("lemma25", m=4, n=100)
    check("remark1", n=100)

    # prime-gap chains under the 3-coloring stay short in every color
    coloring, claim = named_witness("p_not_3acc", n=2000)
    if not claim.check(coloring):
        failures.append("p_not_3acc: global claim failed")
    primes = make_set("primes")
    for color, cap in ((0, 1), (1, 9), (2, 9)):
        allowed = [coloring.color_of(x) == color for x in range(1, 2001)]
        length, _ = longest_restricted(coloring, primes, allowed)
        if length > cap:
            failures.append(f"p_not_3acc color {color}: longest {length} > {cap}")

    elapsed = time.monotonic() - t0
    if elapsed > 60:
        failures.append(f"witness suite took {elapsed:.1f}s (limit 60s)")
    record(8, "witness suite over full ranges, under a minute", failures)
    assert not failures


def test_criterion_09_oracle_equivalence():
    sets5 = [make_set(s) for s in
             ("powers(2)", "fibonacci", "primes", "s_m(3)", "odds_plus_two")]
    failures = []

    def compare(colors: list[int]) -> None:
        c = Coloring.from_colors(colors, 2)
        for S in sets5:
            fast, _ = longest_mono_diffseq(c, S)
            slow = brute_force_longest(c, S)
            if fast != slow:
                failures.append(f"{S.spec} on {c.to_text()}: dp {fast}, oracle {slow}")

    for n in range(1, 11):
        for bits in range(2**n):
            compare([(bits >> i) & 1 for i in range(n)])

    rng = random.Random(20260810)
    for _ in range(10**4):
        n = rng.randint(11, 14)
        compare([rng.randint(0, 1) for _ in range(n)])

    record(9, "oracle equivalence, exhaustive n<=10 plus 10^4 random n<=14", failures)
    assert not failures


def test_criterion_10_prime_chains():
    failures = []
    for t in (1, 3, 5):
        t0 = time.monotonic()
        chain = None
        for bound in (10**6, 10**8):  # escalation path; never needed in practice
            chain = find_chain(t, 6, bound)
            if chain is not None:
                break
        elapsed = time.monotonic() - t0
        if chain is None:
            failures.append(f"t={t}: no chain up to 10^8")
            continue
        if not verify_chain(chain):
            failures.append(f"t={t}: chain {chain.elements} failed verification")
        if elapsed > 60:
            failures.append(f"t={t}: took {elapsed:.1f}s (limit 60s)")
    record(10, "6-element prime chains for t=1,3,5 within a minute", failures)
    assert not failures


def test_criterion_11_finite_shadows_only():
    failures = []
    # the finite evidence surfaces exist ...
    for name in ("chi_k", "C_k", "D_k", "mod_block", "lemma25", "p_not_3acc", "remark1"):
        if name not in WITNESSES:
            failures.append(f"missing witness {name}")
    for attr in ("find_chain", "verify_chain", "is_p_admissible",
                 "is_admissible_small_primes"):
        if not hasattr(diffseq, attr):
            failures.append(f"missing API {attr}")
    # ... and no asymptotic-density machinery is exposed
    from diffseq import primechain
    banned = [name for name in dir(primechain)
              if not name.startswith("_")
              and any(tag in name.lower() for tag in ("sigma", "density", "asymptotic"))]
    if banned:
        failures.append(f"unexpected asymptotic API: {banned}")
    record(11, "infinite/asymptotic content excluded; finite shadows present", failures)
    assert not failures
