"""The package root: names resolved lazily from their defining modules."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import diffseq
from diffseq import primechain

SRC = str(Path(diffseq.__file__).resolve().parents[1])

# Modules that a search does not use, so a fresh interpreter running one must
# not load them.
NOT_ON_THE_SEARCH_PATH = ("diffseq.formulas", "diffseq.primechain", "diffseq.witnesses",
                          "diffseq.table1", "diffseq.cli", "diffseq._kernels", "numpy")


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
