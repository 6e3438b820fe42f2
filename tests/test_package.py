"""The package root: names resolved lazily from their defining modules."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import diffseq
from diffseq import primechain
from diffseq.coloring import Coloring, DiffseqWitness
from diffseq.gapsets import GapSet
from diffseq.primechain import OffsetSystem, PrimeChain
from diffseq.solver import SearchBudget
from diffseq.witnesses import WitnessClaim

SRC = str(Path(diffseq.__file__).resolve().parents[1])

# Modules that a search does not use, so a fresh interpreter running one must
# not load them.  Its value types and result records are written without
# dataclasses, which would also load inspect.
NOT_ON_THE_SEARCH_PATH = ("diffseq.formulas", "diffseq.primechain", "diffseq.witnesses",
                          "diffseq.table1", "diffseq.cli", "diffseq._kernels", "numpy",
                          "dataclasses", "inspect")


def test_a_search_loads_only_the_modules_it_uses():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import diffseq; "
             "diffseq.feasible(diffseq.make_set('primes+4'), 3, 2, 24); "
             "print(sorted(m for m in sys.argv[2:] if m in sys.modules)); "
             "print(sorted(m for m in sys.modules if m.startswith('diffseq.')))")
    out = subprocess.run([sys.executable, "-c", probe, SRC, *NOT_ON_THE_SEARCH_PATH],
                         capture_output=True, text=True, check=True, timeout=60)
    unused, loaded = out.stdout.splitlines()
    assert unused == "[]"
    assert loaded == "['diffseq.coloring', 'diffseq.gapsets', 'diffseq.solver']"


def test_no_module_loads_dataclasses_or_inspect():
    # Value types subclass gapsets._Value and plain records are NamedTuples,
    # so importing every module, the CLI and the split helper included,
    # loads neither.
    modules = sorted(f"diffseq.{path.stem}" for path in Path(diffseq.__file__).parent.glob("*.py")
                     if path.stem != "__init__")
    assert {"diffseq.cli", "diffseq._helper", "diffseq.witnesses"} <= set(modules)
    probe = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
             "[importlib.import_module(m) for m in sys.argv[2:]]; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
             "print(sorted(m for m in sys.argv[2:] if m not in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, SRC, *modules],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_every_public_name_is_its_defining_modules_object():
    for name in diffseq.__all__[1:]:
        obj = getattr(diffseq, name)
        module = sys.modules[f"diffseq.{diffseq._MODULE_OF[name]}"]
        assert obj is getattr(module, name), name
        if callable(obj):
            assert obj.__module__ == module.__name__, name
    assert diffseq.sieve is primechain.sieve and diffseq.is_prime is primechain.is_prime


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from diffseq import *", namespace)
    assert all(namespace[name] is getattr(diffseq, name) for name in diffseq.__all__)


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(diffseq, "nope")
    with pytest.raises(AttributeError) as info:
        diffseq.nope  # noqa: B018
    assert type(info.value) is AttributeError


def test_dir_lists_every_public_name():
    assert set(diffseq.__all__) <= set(dir(diffseq))


def test_a_rebinding_in_the_defining_module_shows_through_the_package(monkeypatch):
    original = primechain.find_chain

    def fake(*args, **kwargs):
        return None

    monkeypatch.setattr(primechain, "find_chain", fake)
    assert diffseq.find_chain is fake
    monkeypatch.undo()
    assert diffseq.find_chain is original
    # Nothing is cached in the package namespace, so nothing outlives a rebinding.
    assert not set(diffseq.__all__[1:]) & set(vars(diffseq))


# Each value type with its fields, two values for each field, and the repr of
# the object built from the first values.
VALUE_TYPES = [
    (GapSet, {"kind": ("powers", "primes"), "params": ((2,), (0,)),
              "spec": ("powers(2)", "primes")},
     "GapSet(kind='powers', params=(2,), spec='powers(2)')"),
    (Coloring, {"colors": ((0, 1), (1, 0)), "r": (2, 3)}, "Coloring(colors=(0, 1), r=2)"),
    (DiffseqWitness, {"positions": ((1, 2), (1, 3)), "color": (0, 1)},
     "DiffseqWitness(positions=(1, 2), color=0)"),
    (SearchBudget, {"max_nodes": (10, None), "max_seconds": (None, 1.5)},
     "SearchBudget(max_nodes=10, max_seconds=None)"),
    (PrimeChain, {"t": (1, 3), "elements": ((2, 5), (3, 7))},
     "PrimeChain(t=1, elements=(2, 5))"),
    (OffsetSystem, {"t": (1, 3), "offsets": ((0, 6), (0, 8))},
     "OffsetSystem(t=1, offsets=(0, 6))"),
    (WitnessClaim, {"set_spec": ("powers(2)", "primes"), "max_length": (3, 4),
                    "domain_spec": (None, "primes")},
     "WitnessClaim(set_spec='powers(2)', max_length=3, domain_spec=None)"),
]


@pytest.mark.parametrize("cls, values, text", VALUE_TYPES,
                         ids=[cls.__name__ for cls, *_ in VALUE_TYPES])
def test_value_types_compare_hash_print_and_refuse_assignment(cls, values, text):
    first = {name: pair[0] for name, pair in values.items()}
    a, b = cls(**first), cls(**first)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    for name, (_, other) in values.items():
        changed = cls(**(first | {name: other}))
        assert changed != a and a != changed, name
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == first[name]
    assert a != tuple(first.values())
    with pytest.raises(AttributeError):
        a.extra = 1
    # The same field values in another type: a subclass, and each other value
    # type with as many fields, built past its checks.
    for other_cls in [type("Sub", (cls,), {}), *(c for c, *_ in VALUE_TYPES if c is not cls)]:
        if len(other_cls._fields) == len(values):
            other = object.__new__(other_cls)
            other.__dict__.update(zip(other_cls._fields, first.values()))
            assert other != a and a != other, other_cls


def test_gapset_period_caches_on_the_instance():
    S = GapSet("s_m", (3,), "s_m(3)")
    assert "period" not in vars(S)
    period = S.period
    assert vars(S)["period"] is period and S.period is period
    # The cache is no field: it changes neither equality nor the hash.
    fresh = GapSet("s_m", (3,), "s_m(3)")
    assert S == fresh and hash(S) == hash(fresh)
