"""Spans around diffseq's public entry points, recorded from outside the package.

`Tracer.install` rebinds each traced function everywhere the package binds it:
the defining module, the package namespace, and every module that imported it
by name.  Calls that go through a module global are therefore seen as well,
for example `compute_f -> feasible` or `WitnessClaim.check -> has_k_term`.
`Tracer.uninstall` restores every binding, so the package is left as it was.

Spans stay in memory.  A span's self time is its duration minus the durations
of its direct children; `layer_metrics` turns the spans of one pass into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# The gap families that the kernel throughput is reported for.
FAMILIES = ("powers", "fibonacci", "primes", "primes_shifted", "s_m")

DP_SPANS = ("coloring.longest_mono_diffseq", "coloring.has_k_term",
            "coloring.longest_restricted")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # Python objects needed after the pass (gap sets, masks); never written out.
    inputs: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name, "job": self.job,
                "start": self.start, "end": self.end, "attrs": self.attrs}


def _run_table1(a, result):
    return {"rows": list(a.get("rows") or []), "workers": a.get("workers", 1)}, ()


def _compute_f(a, result):
    return {"spec": a["S"].spec, "k": a["k"], "status": result.status,
            "value": result.value, "nodes": result.nodes}, ()


def _feasible(a, result):
    return {"family": a["S"].kind, "spec": a["S"].spec, "k": a["k"], "n": a["n"],
            "status": result.status, "nodes": result.nodes}, ()


def _enumerate(a, result):
    return {"spec": a["self"].spec, "bound": a["bound"], "size": len(result)}, ()


def _dp(a, result):
    c, S = a["c"], a["S"]
    return {"spec": S.spec, "n": c.n}, (S, c.n, a.get("allowed"))


def _check(a, result):
    return {"spec": a["self"].set_spec, "holds": result}, ()


def _sieve(a, result):
    return {"bound": a["n"], "count": len(result)}, ()


def _find_chain(a, result):
    return {"t": a["t"], "k": a["k"], "bound": a["bound"], "found": result is not None}, ()


def _verify_chain(a, result):
    return {"ok": result}, ()


# span name -> (module, class or None, attribute, recorder)
TARGETS = (
    ("table1.run_table1", "diffseq.table1", None, "run_table1", _run_table1),
    ("solver.compute_f", "diffseq.solver", None, "compute_f", _compute_f),
    ("solver.feasible", "diffseq.solver", None, "feasible", _feasible),
    ("gapsets.enumerate", "diffseq.gapsets", "GapSet", "enumerate", _enumerate),
    ("coloring.longest_mono_diffseq", "diffseq.coloring", None, "longest_mono_diffseq", _dp),
    ("coloring.has_k_term", "diffseq.coloring", None, "has_k_term", _dp),
    ("coloring.longest_restricted", "diffseq.coloring", None, "longest_restricted", _dp),
    ("witnesses.check", "diffseq.witnesses", "WitnessClaim", "check", _check),
    ("primechain.sieve", "diffseq.primechain", None, "sieve", _sieve),
    ("primechain.find_chain", "diffseq.primechain", None, "find_chain", _find_chain),
    ("primechain.verify_chain", "diffseq.primechain", None, "verify_chain", _verify_chain),
)


class Tracer:
    """Records spans while installed; `job` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, recorder):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1].id if stack else None, name, self.job,
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs, span.inputs = recorder(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, class_name, attr, recorder in TARGETS:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, recorder))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, recorder)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "diffseq" and not mod_name.startswith("diffseq."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def gap_steps(S, n: int, allowed=None) -> int:
    """Inner-loop steps of the chain DP on [1, n]: the sum over positions i of |S ∩ [1, i-1]|.

    Computed from the inputs, not counted inside the DP; for a has_k_term call
    that stops at its first k-term chain it is an upper bound.
    """
    gaps = S.enumerate(n - 1)
    if allowed is None:
        return sum(n - s for s in gaps)
    total = below = 0
    for i in range(n):
        while below < len(gaps) and gaps[below] <= i:
            below += 1
        if allowed[i]:
            total += below
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one pass; call after uninstalling."""
    child_seconds: dict[int, float] = defaultdict(float)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def self_s(name: str) -> float:
        return sum(s.seconds - child_seconds[s.id] for s in named[name])

    cells = compute_f_calls(spans)
    out = {
        "table1.harness_s": self_s("table1.run_table1"),
        "table1.cell_s_max": max((c["seconds"] for c in cells), default=0.0),
        "solver.compute_f_calls": len(cells),
        "solver.probes": sum(c["probes"] for c in cells),
        "solver.final_exhaust_nodes": sum(c["final_nodes"] for c in cells),
        "solver.driver_overhead_nodes": sum(c["nodes"] - c["final_nodes"] for c in cells),
        "kernels.self_s": self_s("solver.feasible"),
        "kernels.feasible_calls": len(named["solver.feasible"]),
    }
    for family in FAMILIES:
        spans_f = [s for s in named["solver.feasible"] if s.attrs.get("family") == family]
        busy = sum(s.seconds - child_seconds[s.id] for s in spans_f)
        nodes = sum(s.attrs["nodes"] for s in spans_f)
        out[f"kernels.nodes_per_s.{family}"] = nodes / busy if busy > 0 else 0.0

    dp = [s for name in DP_SPANS for s in named[name]]
    dp_s = sum(self_s(name) for name in DP_SPANS)
    steps = sum(gap_steps(*s.inputs) for s in dp)
    out.update({
        "gapsets.enumerate_calls": len(named["gapsets.enumerate"]),
        "gapsets.enumerate_s": self_s("gapsets.enumerate"),
        "coloring.dp_calls": len(dp),
        "coloring.dp_s": dp_s,
        "coloring.gap_steps": steps,
        "coloring.gap_steps_per_s": steps / dp_s if dp_s > 0 else 0.0,
        "witnesses.claims_checked": len(named["witnesses.check"]),
        "witnesses.check_s": self_s("witnesses.check"),
        "primechain.sieve_s": self_s("primechain.sieve"),
        "primechain.find_chain_s": self_s("primechain.find_chain"),
        "primechain.verify_chain_s": self_s("primechain.verify_chain"),
    })
    return out


def compute_f_calls(spans: list[Span]) -> list[dict]:
    """Per compute_f call: spec, k, nodes, probes, final-exhaustion nodes and seconds.

    The final exhaustion is the call's last infeasible probe, the one that
    proves the value; every other probe's nodes are driver overhead.
    """
    probes: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "solver.feasible" and span.parent is not None:
            probes[span.parent].append(span)
    calls = []
    for span in spans:
        if span.name != "solver.compute_f":
            continue
        mine = probes[span.id]
        infeasible = [p for p in mine if p.attrs.get("status") == "infeasible"]
        calls.append({
            "spec": span.attrs["spec"], "k": span.attrs["k"], "nodes": span.attrs["nodes"],
            "probes": len(mine),
            "final_nodes": infeasible[-1].attrs["nodes"] if infeasible else 0,
            "seconds": span.seconds,
        })
    return calls
