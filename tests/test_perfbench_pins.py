"""The names perfbench reaches into must keep resolving in diffseq.

perfbench/tracing.py rebinds each TARGETS entry by module, class and
attribute name, and perfbench/run.py calls _kernels.resolve_engine and
run_table1(workers=...); its span recorders read arguments by name (the
chain DPs' c, S and allowed) and GapSet.kind.  A rename inside diffseq would otherwise surface
only when the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from diffseq import _kernels
from diffseq.coloring import has_k_term, longest_mono_diffseq, longest_restricted
from diffseq.gapsets import make_set
from diffseq.table1 import run_table1

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for name, module_name, class_name, attr, _recorder in targets:
        assert module_name.split(".")[0] == "diffseq", name
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
            assert attr in owner.__dict__, name
        assert callable(getattr(owner, attr)), name


def test_run_py_calls_resolve_engine_and_run_table1_workers():
    assert isinstance(_kernels.resolve_engine("auto"), str)
    assert "workers" in inspect.signature(run_table1).parameters


def test_recorders_find_their_arguments():
    assert list(inspect.signature(longest_restricted).parameters) == ["c", "S", "allowed"]
    for dp in (longest_mono_diffseq, has_k_term):
        assert list(inspect.signature(dp).parameters)[:2] == ["c", "S"]
    assert make_set("primes+4").kind == "primes_shifted"
