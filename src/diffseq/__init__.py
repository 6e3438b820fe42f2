"""Exact computation and verification toolkit for monochromatic diffsequence
thresholds f(S,k;r) over prescribed gap sets, with certificate colorings,
named blocking witnesses, formula bounds, and prime-chain search."""

__version__ = "0.1.0"

from . import _kernels  # noqa: F401  perfbench reads _kernels.resolve_engine
from .coloring import (
    Coloring,
    DiffseqWitness,
    brute_force_longest,
    has_k_term,
    longest_mono_diffseq,
)
from .formulas import Bounds, bounds_for, fib, g, scaled_value
from .gapsets import GapSet, GapSetError, GapSpecError, make_set
from .primechain import (
    OffsetSystem,
    PrimeChain,
    find_chain,
    is_admissible_small_primes,
    is_p_admissible,
    is_prime,
    sieve,
    verify_chain,
)
from .solver import (
    BUDGET_EXCEEDED,
    EXACT,
    FEASIBLE,
    INFEASIBLE,
    NOT_FOUND_UP_TO,
    TIMEOUT,
    FeasibleResult,
    SearchBudget,
    SolveResult,
    compute_f,
    feasible,
    verify_certificate,
)
from .witnesses import WitnessClaim, named_witness, product_coloring

__all__ = [
    "__version__",
    "BUDGET_EXCEEDED",
    "Bounds",
    "Coloring",
    "DiffseqWitness",
    "EXACT",
    "FEASIBLE",
    "FeasibleResult",
    "GapSet",
    "GapSetError",
    "GapSpecError",
    "INFEASIBLE",
    "NOT_FOUND_UP_TO",
    "OffsetSystem",
    "PrimeChain",
    "SearchBudget",
    "SolveResult",
    "TIMEOUT",
    "WitnessClaim",
    "bounds_for",
    "brute_force_longest",
    "compute_f",
    "feasible",
    "fib",
    "find_chain",
    "g",
    "has_k_term",
    "is_admissible_small_primes",
    "is_p_admissible",
    "is_prime",
    "longest_mono_diffseq",
    "make_set",
    "named_witness",
    "product_coloring",
    "scaled_value",
    "sieve",
    "verify_certificate",
    "verify_chain",
]
