"""diffseq benchmark: table sweeps, fixed-n exhaustion and certificate checking.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1w --seed 1 --seconds 10 --trace 0

The package is imported from ./src, so nothing needs installing.  A run
measures set-up time in fresh interpreters, then repeats passes of the
workload's jobs, one after another, until --seconds have passed (at least one
pass).  Every job's output is checked against perfbench/expected.json.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (norm_wall_s, setup_s, peak_rss_mb);
norm_wall_s times each pass on refclock.RefClock, which divides out the
shared host's changes of speed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py; it also prints a per-job table and writes the spans
to .bench_out/.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

import tracing
import refclock
from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-1w", "exhaust", "certify")
SETUP_REPEATS = 15
SETUP_REFERENCE_RUNS = 21

# Imports the package, parses the workload's gap specs and runs one tiny
# search, which is where a JIT engine would compile; then reports ready.
# After that, untimed, it reports the median time of the reference loop, so
# that the parent can read the sample at the refclock's nominal speed.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import diffseq
for spec in sys.argv[3:]:
    diffseq.make_set(spec)
diffseq.feasible(diffseq.make_set("powers(2)"), 3, 2, 6)
print("ready", flush=True)
sys.path.insert(0, sys.argv[2])
import refclock
times = []
for _ in range(%d):
    t0 = time.perf_counter()
    refclock.reference_loop()
    times.append(time.perf_counter() - t0)
print(sorted(times)[len(times) // 2], flush=True)
""" % SETUP_REFERENCE_RUNS


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def load_diffseq():
    """Import diffseq from this checkout's src/, never from an installed copy."""
    if not (SRC / "diffseq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diffseq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diffseq
    import diffseq.coloring
    import diffseq.gapsets
    import diffseq.primechain
    import diffseq.solver
    import diffseq.table1
    import diffseq.witnesses

    if Path(diffseq.__file__).resolve().parent != (SRC / "diffseq").resolve():
        raise SystemExit(f"perfbench: diffseq was imported from {diffseq.__file__}")
    return diffseq


@dataclass
class Outcome:
    job: str
    ok: bool
    nodes: int = 0
    seconds: float = 0.0
    detail: str = ""
    cell: tuple[str, int] | None = None  # (gap spec, k) of a table cell


def run_job(name: str, fn, tracer: tracing.Tracer | None) -> Outcome:
    """Run one job; an exception or a wrong answer is a failed job, not an abort."""
    if tracer is not None:
        tracer.job = name
    t0 = time.perf_counter()
    try:
        ok, nodes, detail = fn()
    except Exception as exc:  # a failing job must not end the run
        traceback.print_exc(file=sys.stderr)
        ok, nodes, detail = False, 0, f"{type(exc).__name__}: {exc}"
    return Outcome(name, bool(ok), nodes, time.perf_counter() - t0, detail)


# --- workloads ---------------------------------------------------------------
#
# Each workload is prepared once (gap specs parsed, seeded inputs generated)
# and returns a function that runs one pass and returns its job outcomes.

def shuffled_pass(jobs: list[tuple[str, object]]):
    """A pass that runs the (name, job) pairs one after another in seeded order."""
    def run_pass(rng: random.Random, tracer) -> list[Outcome]:
        order = jobs[:]
        rng.shuffle(order)
        return [run_job(name, fn, tracer) for name, fn in order]

    return run_pass


def gap_specs(workload: str, data: dict) -> list[str]:
    if workload == "sweep-1w":
        return [row["set"] for row in data["sweep"]["rows"]]
    if workload == "exhaust":
        return [inst["set"] for inst in data["exhaust"]]
    cert = data["certify"]
    return sorted({*cert["colorings"]["sets"], *(e["set"] for e in cert["enumerations"]),
                   *(c["claim"]["set_spec"] for c in cert["claims"])})


def prepare_sweep(dq, data: dict, workers: int):
    rows = [row["row"] for row in data["sweep"]["rows"]]
    spec_of = {row["row"]: row["set"] for row in data["sweep"]["rows"]}
    cells = data["sweep"]["cells"]

    def run_pass(rng: random.Random, tracer) -> list[Outcome]:
        order = rows[:]
        rng.shuffle(order)
        if tracer is not None:
            tracer.job = "run_table1"
        try:
            got = {(c.row, c.k): c for c in dq.table1.run_table1(rows=order, workers=workers)}
        except Exception:  # every cell of the sweep fails, the run goes on
            traceback.print_exc(file=sys.stderr)
            got = {}
        outcomes = []
        for cell in cells:
            name = f"{cell['row']} k={cell['k']}"
            key = (spec_of[cell["row"]], cell["k"])
            res = got.get((cell["row"], cell["k"]))
            if res is None:
                outcomes.append(Outcome(name, False, detail="not computed", cell=key))
                continue
            ok = res.status == dq.table1.MATCH and res.computed == cell["value"]
            outcomes.append(Outcome(name, ok, res.nodes, res.elapsed_ms / 1000.0,
                                    f"value {res.computed}, expected {cell['value']}", key))
        return outcomes

    return run_pass


def prepare_exhaust(dq, data: dict):
    solver, coloring = dq.solver, dq.coloring
    jobs = []
    for inst in data["exhaust"]:
        S = dq.make_set(inst["set"])
        k, value, cert = inst["k"], inst["value"], inst["certificate"]

        def below(S=S, k=k, n=value - 1, cert=cert):
            res = solver.feasible(S, k, 2, n)
            text = res.coloring.to_text() if res.coloring is not None else None
            ok = (res.status == solver.FEASIBLE and text == cert
                  and not coloring.has_k_term(res.coloring, S, k))
            return ok, res.nodes, f"{res.status} {text}"

        def at(S=S, k=k, n=value):
            res = solver.feasible(S, k, 2, n)
            return res.status == solver.INFEASIBLE, res.nodes, res.status

        jobs.append((f"{inst['row']} k={k} n={value - 1}", below))
        jobs.append((f"{inst['row']} k={k} n={value}", at))

    return shuffled_pass(jobs)


def prepare_certify(dq, data: dict, seed: int):
    cert = data["certify"]
    coloring, primechain, witnesses = dq.coloring, dq.primechain, dq.witnesses
    jobs = []

    for entry in cert["claims"]:
        def claim_job(entry=entry):
            col, claim = witnesses.named_witness(entry["witness"], **entry["params"])
            holds = claim.check(col)
            ok = (col.n == entry["n"] and claim.to_dict() == entry["claim"]
                  and holds == entry["holds"])
            return ok, 0, f"n={col.n} holds={holds}"
        params = ",".join(f"{k}={v}" for k, v in entry["params"].items())
        jobs.append((f"claim {entry['witness']}({params})", claim_job))

    rng = random.Random(seed)
    n = cert["colorings"]["n"]
    for spec in cert["colorings"]["sets"]:
        S = dq.make_set(spec)
        col = dq.Coloring.from_colors([rng.randrange(2) for _ in range(n)], 2)

        def chain_dp(S=S, col=col):
            length, witness = coloring.longest_mono_diffseq(col, S)
            ok = (len(witness) == length and witness.is_valid_for(col, S)
                  and not coloring.has_k_term(col, S, length + 1))
            return ok, 0, f"longest {length}"
        jobs.append((f"longest {spec} n={n}", chain_dp))

    sv = cert["sieve"]

    def sieve_job():
        primes = primechain.sieve(sv["bound"])
        got = (len(primes), int(primes[-1]), int(primes.sum()))
        return got == (sv["count"], sv["last"], sv["sum"]), 0, f"count={got[0]}"
    jobs.append((f"sieve {sv['bound']}", sieve_job))

    for entry in cert["chains"]:
        def chain_job(entry=entry):
            chain = primechain.find_chain(entry["t"], entry["k"], entry["bound"])
            found = list(chain.elements) if chain is not None else None
            ok = found == entry["elements"] and primechain.verify_chain(chain)
            return ok, 0, f"{found}"
        jobs.append((f"find_chain t={entry['t']} k={entry['k']}", chain_job))

    for entry in cert["enumerations"]:
        S = dq.make_set(entry["set"])

        def enum_job(S=S, entry=entry):
            members = S.enumerate(entry["bound"])
            got = (len(members), sum(members), members[-1])
            return got == (entry["count"], entry["sum"], entry["last"]), 0, f"count={got[0]}"
        jobs.append((f"enumerate {entry['set']} {entry['bound']}", enum_job))

    return shuffled_pass(jobs)


def prepare(workload: str, dq, data: dict, seed: int):
    if workload == "sweep-1w":
        return prepare_sweep(dq, data, workers=1)
    if workload == "exhaust":
        return prepare_exhaust(dq, data)
    return prepare_certify(dq, data, seed)


# --- measurement -------------------------------------------------------------

def measure_setup(specs: list[str]) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could run a first job.

    Each sample is scaled to the reference clock's nominal speed by the
    reference loop's time in the same child, taken just after it was ready.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), *specs],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            reference = proc.stdout.read().strip()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
        samples.append(elapsed * refclock.NOMINAL_S / float(reference))
    return samples


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: list[Outcome]
    spans: list | None = None
    norm: float | None = None  # seconds on the reference clock


def timed_pass(run_pass, rng: random.Random, traced: bool, clock: RefClock | None = None) -> Pass:
    tracer = tracing.Tracer() if traced else None
    c0, t0 = cpu_seconds(), time.perf_counter()
    n0 = clock.now() if clock else None
    if tracer is None:
        outcomes = run_pass(rng, None)
    else:
        with tracer:
            outcomes = run_pass(rng, tracer)
    norm = clock.now() - n0 if clock else None
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return Pass(wall, cpu, outcomes, tracer.spans if tracer else None, norm)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_record(dq, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "diffseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "engine": dq._kernels.resolve_engine("auto"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def job_table(outcomes: list[Outcome], spans) -> list[dict]:
    """Per cell or instance: nodes, probes, final-exhaustion nodes and seconds."""
    cells = {(c["spec"], c["k"]): c for c in tracing.compute_f_calls(spans)}
    rows = []
    for out in outcomes:
        cell = cells.get(out.cell, {})
        rows.append({"job": out.job, "ok": out.ok, "nodes": out.nodes,
                     "probes": cell.get("probes"), "final_nodes": cell.get("final_nodes"),
                     "seconds": cell.get("seconds", out.seconds), "detail": out.detail})
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"# {'job':<40} {'ok':<5} {'nodes':>9} {'probes':>6} {'final':>9} {'seconds':>9}")
    for row in rows:
        probes = "-" if row["probes"] is None else row["probes"]
        final = "-" if row["final_nodes"] is None else row["final_nodes"]
        print(f"# {row['job']:<40} {str(row['ok']):<5} {row['nodes']:>9} {probes:>6} "
              f"{final:>9} {row['seconds']:>9.4f}")


def write_trace(record: dict, rows: list[dict], passes: list[Pass]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{record['workload']}-seed{record['seed']}.json"
    traced = [[span.to_dict() for span in p.spans] for p in passes if p.spans is not None]
    path.write_text(json.dumps({"record": record, "jobs": rows, "passes": traced}))
    return path


def metrics_for(section: str, values: dict[str, float]) -> dict[str, dict]:
    """Every metric that BENCHMARK.json declares in section, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main(argv: list[str] | None = None, data: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    data = load_expected() if data is None else data

    dq = load_diffseq()
    specs = gap_specs(args.workload, data)
    setup = [] if args.trace else measure_setup(specs)
    run_pass = prepare(args.workload, dq, data, args.seed)
    rng = random.Random(f"{args.workload}:{args.seed}")

    passes: list[Pass] = []
    start = time.perf_counter()
    # Untraced runs time each pass on the reference clock as well; traced runs
    # compare traced with untraced passes in plain wall time.
    with contextlib.nullcontext() if args.trace else RefClock() as clock:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(timed_pass(run_pass, rng, traced, clock))
            enough = not args.trace or len(passes) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break
    untraced = [p for p in passes if p.spans is None]
    traced_passes = [p for p in passes if p.spans is not None]
    split = None
    if args.trace and args.workload == "sweep-1w":
        # The same cells with workers=2: the thread split and canonical merge.
        split = timed_pass(prepare_sweep(dq, data, workers=2), rng, False)

    outcomes = [o for p in passes + ([split] if split else []) for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    record = machine_record(dq, args)
    record["pass_wall_s"] = [p.wall for p in passes]
    if not args.trace:
        record["pass_norm_wall_s"] = [p.norm for p in passes]
    if setup:
        record["setup_s"] = setup
    print("# record " + json.dumps(record))
    for o in outcomes:
        if not o.ok:
            print(f"# FAILED {o.job}: {o.detail}")

    if not args.trace:
        metrics = metrics_for("end_to_end", {
            "norm_wall_s": statistics.median(p.norm for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb()})
    else:
        per_pass = [tracing.layer_metrics(p.spans) for p in traced_passes]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["nodes"] = sum(o.nodes for o in traced_passes[-1].outcomes)
        values["wall_s"] = wall = statistics.median(p.wall for p in untraced)
        values["solver.split_speedup"] = wall / split.wall if split else 0.0
        values["solver.parallel_efficiency"] = split.cpu / (split.wall * 2) if split else 0.0
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced_passes) / wall - 1.0)
        metrics = metrics_for("per_layer", values)
        rows = job_table(traced_passes[-1].outcomes, traced_passes[-1].spans)
        print_table(rows)
        print(f"# spans written to {write_trace(record, rows, passes).relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
