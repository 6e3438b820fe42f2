"""Exact computation and verification toolkit for monochromatic diffsequence
thresholds f(S,k;r) over prescribed gap sets, with certificate colorings,
named blocking witnesses, formula bounds, and prime-chain search.

Importing the package loads none of its modules.  Each public name is looked
up in the module that defines it on first use, through the module-level
__getattr__ (PEP 562), so a search loads only gapsets, coloring and solver,
and a fresh interpreter compiles no more than the call needs.  Their value
types are plain classes and their result records NamedTuples, so a search
imports neither dataclasses nor the inspect that it loads.  The lookup is
not cached in this namespace: every access reads the defining module's
current binding, so a function rebound there, by a test's monkeypatch or by
perfbench's tracer, shows through diffseq.<name> at once and is gone as soon
as the binding is restored.
"""

import importlib

__version__ = "0.1.0"

# Each module with the public names it defines.  A module's own name resolves
# to the module; perfbench reads _kernels.resolve_engine.
_EXPORTS = {
    "_kernels": (),
    "coloring": ("Coloring", "DiffseqWitness", "brute_force_longest", "has_k_term",
                 "longest_mono_diffseq"),
    "formulas": ("Bounds", "bounds_for", "fib", "g", "scaled_value"),
    "gapsets": ("GapSet", "GapSetError", "GapSpecError", "is_prime", "make_set", "sieve"),
    "primechain": ("OffsetSystem", "PrimeChain", "find_chain", "is_admissible_small_primes",
                   "is_p_admissible", "verify_chain"),
    "solver": ("BUDGET_EXCEEDED", "EXACT", "FEASIBLE", "INFEASIBLE", "NOT_FOUND_UP_TO",
               "TIMEOUT", "FeasibleResult", "SearchBudget", "SolveResult", "compute_f",
               "feasible", "verify_certificate"),
    "witnesses": ("WitnessClaim", "named_witness", "product_coloring"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
