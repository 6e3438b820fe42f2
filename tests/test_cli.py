"""Command-line interface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from diffseq import solver
from diffseq.cli import build_parser, main
from diffseq.gapsets import CATALOG
from diffseq.table1 import run_table1

TABLE1_HEADER = "row,k,set,expected,computed,status,nodes,elapsed_ms,certificate"
VERIFY_KEYS = {"spec", "k", "n", "longest", "has_k_term", "pass"}


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_known_value(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "s_m(5)", "--k", "4", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 7
    assert doc["status"] == "exact"
    assert doc["spec"] == "s_m(5)"
    assert len(doc["certificate"]) == 6


def test_compute_loads_neither_formulas_nor_primechain():
    # Each is imported by the one command that uses it: bounds and chain.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from diffseq.cli import main; "
             "main(['compute', '--set', 'primes', '--k', '5']); "
             "print(sorted(m for m in ('diffseq.formulas', 'diffseq.primechain') "
             "if m in sys.modules))")
    src = str(Path(solver.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                         check=True, timeout=60)
    assert json.loads("\n".join(out.stdout.splitlines()[:-1]))["value"] == 21
    assert out.stdout.splitlines()[-1] == "[]"


def test_compute_shifted_primes(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "primes+2", "--k", "5", "--r", "2")
    assert code == 0
    assert json.loads(out)["value"] == 33


def test_compute_not_found_exits_two(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "explicit(1)", "--k", "2",
                           "--r", "2", "--nmax", "50")
    assert code == 2
    assert json.loads(out)["status"] == "not_found_up_to"


def test_compute_timeout_json_keeps_proven_bound(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "primes", "--k", "6",
                           "--max-nodes", "2000")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "timeout" and doc["value"] is None
    assert (doc["nodes"], doc["feasible_up_to"]) == (2000, 24)


def test_compute_parse_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "compute", "--set", "powers(1)", "--k", "3")
    assert code == 1
    assert "error" in err


def test_compute_refuses_a_nan_time_budget(capsys):
    # a NaN deadline never passes, so the search would run without a bound
    code, out, err = run_cli(capsys, "compute", "--set", "primes", "--k", "4",
                             "--max-seconds", "nan")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "max_seconds" in err


def test_compute_rejects_more_colors_than_the_text_format_before_searching(capsys, monkeypatch):
    monkeypatch.setattr(solver, "compute_f", lambda *a, **kw: pytest.fail("searched"))
    for nmax in ("1000", "10"):
        code, out, err = run_cli(capsys, "compute", "--set", "s_m(1000)", "--k", "2",
                                 "--r", "40", "--nmax", nmax)
        assert code == 1 and out == ""
        assert "at most 36 colors" in err


def test_compute_verify_flag(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "s_m(3)", "--k", "3", "--verify")
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, out, _ = run_cli(capsys, "compute", "--set", "powers(2)", "--k", "4", "--verify",
                           "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "verified: True"
    _, plain, _ = run_cli(capsys, "compute", "--set", "powers(2)", "--k", "4",
                          "--format", "text")
    assert "verified" not in plain


def test_compute_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(solver, "verify_certificate", lambda *args: False)
    code, out, _ = run_cli(capsys, "compute", "--set", "powers(2)", "--k", "4", "--verify")
    assert code == 2
    assert json.loads(out)["verified"] is False


def test_compute_json_round_trips_through_verify(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "powers(2)", "--k", "4")
    doc = json.loads(out)
    code, out, _ = run_cli(capsys, "verify", "--coloring", doc["certificate"],
                           "--set", "powers(2)", "--k", "4")
    assert code == 0
    assert "pass" in out


def test_verify_detects_chains(capsys):
    code, out, _ = run_cli(capsys, "verify", "--coloring", "011001",
                           "--set", "s_m(3)", "--k", "3")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "verify", "--coloring", "000",
                           "--set", "explicit(1)", "--k", "3")
    assert code == 2 and "FAIL" in out
    code, out, _ = run_cli(capsys, "verify", "--coloring", "000",
                           "--set", "explicit(1)", "--k", "3", "--format", "json")
    assert code == 2 and set(json.loads(out)) == VERIFY_KEYS | {"witness"}


def test_verify_rejects_k_below_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--coloring", "011001",
                             "--set", "s_m(3)", "--k", "0")
    assert code == 1 and out == ""
    assert "k must be >= 1" in err


def test_verify_reads_files(tmp_path, capsys):
    path = tmp_path / "coloring.txt"
    path.write_text("011001\n")
    code, out, _ = run_cli(capsys, "verify", "--coloring-file", str(path),
                           "--set", "s_m(3)", "--k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and set(doc) == VERIFY_KEYS


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "chi_k", "--k", "6")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["set_spec"] == "powers(2)"
    assert lines[1] == "10010110" * 3
    assert "pass" in lines[2]


def test_witness_with_claim_set(capsys):
    code, out, _ = run_cli(capsys, "witness", "mod_block", "--m", "5", "--n", "100",
                           "--set", "explicit(1,7)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["set_spec"] == "explicit(1,7)"


def test_witness_json_carries_the_domain_claim(capsys):
    code, out, _ = run_cli(capsys, "witness", "remark1", "--n", "30", "--format", "json")
    assert code == 0
    claim = json.loads(out)["claim"]
    assert claim["domain_spec"] == "odds_plus_two"
    assert claim["text"].endswith("with all elements in odds_plus_two")


def test_witness_missing_parameter_exits_one(capsys):
    code, _, err = run_cli(capsys, "witness", "chi_k")
    assert code == 1 and "requires" in err


def test_witness_refuses_flags_it_does_not_take(capsys):
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "witness", "remark1", "--n", "20", "--k", "5",
                                 "--m", "3", "--format", fmt)
        assert code == 1 and out == ""
        assert "does not take parameters ['m', 'k']" in err


def test_witness_with_more_colors_than_the_text_format_prints_nothing(capsys):
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "witness", "mod_block", "--m", "100", "--n", "10",
                                 "--format", fmt)
        assert code == 1 and out == ""
        assert "at most 36 colors" in err


def test_witness_parameter_above_the_cap_exits_one(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "witness", "chi_k", "--k", "1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "at most 100000" in err
    assert peak < 10**6  # refused before any coloring is built


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, "chain", "--t", "1", "--k", "5", "--bound", "100000")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"t", "k", "elements", "gaps", "gap_witnesses", "bound", "strategy"}
    assert doc["elements"][0] == 2 and len(doc["elements"]) == 5
    code, out, _ = run_cli(capsys, "chain", "--t", "1", "--k", "5", "--bound", "100000",
                           "--format", "text")
    assert code == 0
    assert out.splitlines() == ["chain (t=1): 2 5 11 17 23",
                                "gaps: [3, 6, 6, 6]  witnesses: [2, 5, 5, 5]",
                                "verification: pass"]


def test_chain_not_found_exits_two(capsys):
    code, _, err = run_cli(capsys, "chain", "--t", "1", "--k", "4", "--bound", "6")
    assert code == 2 and "no chain" in err


def test_chain_past_the_recursion_limit(capsys):
    code, out, _ = run_cli(capsys, "chain", "--t", "1", "--k", "2000", "--bound", "1000000",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2000 and doc["elements"][-1] == 26881


def test_chain_bound_above_the_cap_exits_one(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "chain", "--t", "1", "--k", "3",
                                 "--bound", "1000000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "bound" in err
    assert peak < 10**6  # refused before any sieve is built


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--set", "powers(2)", "--k", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"]) == (25, 63)


def test_bounds_text_shows_the_scaled_formula(capsys):
    # 29 is 2(15-1)+1 with 15 = 4k-5 at k = 5: the text names the mapped form.
    code, out, _ = run_cli(capsys, "bounds", "--set", "scaled(2, s_m(3))", "--k", "5",
                           "--format", "text")
    assert code == 0
    assert out.splitlines()[1] == "  [exact] nonmult3-exact: 29  (2(M-1)+1, M = 4k-5)"
    _, plain, _ = run_cli(capsys, "bounds", "--set", "s_m(3)", "--k", "5", "--format", "text")
    assert plain.splitlines()[1] == "  [exact] nonmult3-exact: 15  (4k-5)"


def test_bounds_for_an_unregistered_set(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--set", "explicit(5)", "--k", "3")
    assert code == 0
    assert out.splitlines() == ["no registered bounds for this set"]


def test_bounds_without_a_set_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--k", "3"])
    assert exc.value.code == 2
    assert "bounds requires --set and --k" in capsys.readouterr().err


def test_bounds_registry_dump(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--registry")
    assert code == 0
    assert out.splitlines()[0] == "family,params,k-range,kind,formula,citation"
    assert list(csv.DictReader(io.StringIO(out)))


def test_sets_listing(capsys):
    code, out, _ = run_cli(capsys, "sets")
    assert code == 0
    assert "odds_plus_two" in out and "powers(a)" in out
    code, out, _ = run_cli(capsys, "sets", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"spec": spec, "description": desc} for spec, desc in CATALOG]


def test_table1_subset_matches(capsys):
    code, out, _ = run_cli(capsys, "table1", "--rows", "S5,S6")
    assert code == 0
    assert out.splitlines()[0] == TABLE1_HEADER
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    assert all(row["status"] == "match" for row in rows)
    s5 = [int(row["computed"]) for row in rows if row["row"] == "S5"]
    assert s5 == [3, 5, 7, 11, 13, 15, 19]
    code, out, _ = run_cli(capsys, "table1", "--rows", "S5", "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert len(cells) == 7 and all(list(cell) == TABLE1_HEADER.split(",") for cell in cells)


def test_table1_skips_unknown_cells(capsys):
    code, out, _ = run_cli(capsys, "table1", "--rows", "P+7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    known = [row for row in rows if row["status"] == "match"]
    skipped = [row for row in rows if row["status"] == 'skipped-"?"']
    assert [int(row["computed"]) for row in known] == [19, 37]
    assert len(skipped) == 5


def test_table1_deterministic_and_worker_independent(capsys):
    def cells(raw: str):
        return [(r["row"], r["k"], r["computed"], r["status"], r["nodes"])
                for r in csv.DictReader(io.StringIO(raw))]

    _, first, _ = run_cli(capsys, "table1", "--rows", "S6")
    _, second, _ = run_cli(capsys, "table1", "--rows", "S6")
    assert cells(first) == cells(second)


def test_table1_progress_reports_each_computed_cell_in_order(capsys):
    _, plain, _ = run_cli(capsys, "table1", "--rows", "S6")
    code, out, err = run_cli(capsys, "table1", "--rows", "S6", "--progress")
    assert code == 0
    assert err.splitlines() == [f"# S6 k={k}: {value} (match)"
                                for k, value in zip(range(2, 9), (3, 5, 7, 9, 13, 15, 17))]

    def cells(raw: str):
        return [{key: value for key, value in row.items() if key != "elapsed_ms"}
                for row in csv.DictReader(io.StringIO(raw))]

    assert cells(out) == cells(plain)


def test_run_table1_progress_skips_unknown_cells():
    seen = []
    results = run_table1(rows=["P+7"], progress=seen.append)
    assert [(cell.k, cell.computed) for cell in seen] == [(2, 19), (3, 37)]
    assert seen == [cell for cell in results if cell.status == "match"]
    assert len(results) == 7


def test_table1_rejects_unknown_row(capsys):
    code, _, err = run_cli(capsys, "table1", "--rows", "nope")
    assert code == 1 and "unknown table rows" in err


def test_table1_empty_rows_exits_one_before_searching(capsys):
    code, out, err = run_cli(capsys, "table1", "--rows", "", "--max-nodes", "1")
    assert code == 1 and out == ""
    assert "unknown table rows ['']" in err


def test_run_table1_rejects_unknown_rows():
    with pytest.raises(ValueError, match=r"unknown table rows \['nope'\]; known: T, F, "):
        run_table1(rows=["nope"])


def test_table1_mismatch_names_the_first_cell(capsys):
    code, out, err = run_cli(capsys, "table1", "--rows", "S6", "--max-nodes", "1")
    assert code == 3
    assert err == "mismatch at reference table row S6, k=2: 3 (computed None)\n"
    assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == ["mismatch"] * 7


def test_budget_flag_defaults():
    parser = build_parser()
    compute = parser.parse_args(["compute", "--set", "primes", "--k", "3"])
    assert (compute.max_nodes, compute.max_seconds) == (None, None)
    table = parser.parse_args(["table1"])
    assert (table.max_nodes, table.max_seconds) == (10**9, 600.0)


def test_run_table1_reports_the_solver_elapsed_time(monkeypatch):
    compute_f = solver.compute_f

    def fixed_elapsed(*args, **kwargs):
        return replace(compute_f(*args, **kwargs), elapsed=1.0123456)

    monkeypatch.setattr(solver, "compute_f", fixed_elapsed)
    [cell, *_] = run_table1(rows=["S6"])
    assert cell.elapsed_ms == 1012.346


def test_run_table1_rejects_zero_workers():
    with pytest.raises(ValueError):
        run_table1(rows=["S6"], workers=0)


def test_compute_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "compute", "--set", "s_m(5)", "--k", "3",
                           "--format", "text")
    assert code == 0 and "f(s_m(5),3;2) = 5" in out
    code, out, _ = run_cli(capsys, "compute", "--set", "s_m(5)", "--k", "3",
                           "--format", "csv")
    assert out.splitlines()[0] == ("spec,k,r,status,value,certificate,nodes,elapsed_ms,"
                                   "feasible_up_to,version")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "5"
