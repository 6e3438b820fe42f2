"""Self-test of the benchmark on a cut-down copy of its expected data.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from refclock import RefClock  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_data() -> dict:
    """The bundled data, cut to jobs that take well under a second each."""
    data = copy.deepcopy(run.load_expected())
    data["sweep"]["rows"] = [r for r in data["sweep"]["rows"] if r["row"] == "S6"]
    data["sweep"]["cells"] = [c for c in data["sweep"]["cells"] if c["row"] == "S6"]
    data["exhaust"] = [i for i in data["exhaust"] if i["row"] in ("F", "S5")]
    cert = data["certify"]
    cert["claims"] = [c for c in cert["claims"] if c["witness"] in ("chi_k", "lemma25")]
    cert["colorings"] = {"n": 400, "sets": ["primes", "s_m(5)"]}
    cert["chains"] = cert["chains"][:1]
    cert["enumerations"] = [e for e in cert["enumerations"]
                            if e["set"] in ("fibonacci", "primes+3")]
    return data


def bench(capsys, workload: str, trace: int, data: dict, seed: int = 1) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], data=data)
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace, small_data())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _wrong_cell(data):
    data["sweep"]["cells"][-1]["value"] += 1


def _wrong_certificate(data):
    cert = data["exhaust"][0]["certificate"]
    data["exhaust"][0]["certificate"] = cert[:-1] + ("1" if cert[-1] == "0" else "0")


def _wrong_prime_count(data):
    data["certify"]["sieve"]["count"] += 1


def _wrong_chain(data):
    data["certify"]["chains"][0]["elements"][-1] += 2


@pytest.mark.parametrize("workload, inject", [
    ("sweep-1w", _wrong_cell),
    ("exhaust", _wrong_certificate),
    ("certify", _wrong_prime_count),
    ("certify", _wrong_chain),
])
def test_a_wrong_expected_value_counts_as_one_failed_job(capsys, workload, inject):
    data = small_data()
    inject(data)
    result = bench(capsys, workload, 0, data)
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.mark.parametrize("workload", ["sweep-1w", "exhaust"])
def test_two_runs_give_identical_nodes(capsys, workload):
    first = bench(capsys, workload, 1, small_data(), seed=1)["metrics"]["nodes"]["value"]
    second = bench(capsys, workload, 1, small_data(), seed=2)["metrics"]["nodes"]["value"]
    assert first == second > 0


def test_tracing_restores_the_package(capsys):
    dq = run.load_diffseq()
    before = (dq.solver.feasible, dq.table1.solver.compute_f, dq.GapSet.enumerate,
              dq.witnesses.has_k_term, dq.gapsets._sieve)
    bench(capsys, "exhaust", 1, small_data())
    assert before == (dq.solver.feasible, dq.table1.solver.compute_f, dq.GapSet.enumerate,
                      dq.witnesses.has_k_term, dq.gapsets._sieve)


def test_the_reference_clock_samples_while_installed_and_then_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with RefClock() as clock:
        start, t_end = clock.now(), time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            sum(range(1000))
        elapsed = clock.now() - start
    assert clock.samples >= 5
    assert elapsed > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
