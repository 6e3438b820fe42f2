"""Engine-name stub: perfbench/run.py records resolve_engine("auto") per run.

The search itself is diffseq.solver._search.
"""


def resolve_engine(engine: str) -> str:
    """Name of the one engine, the pure-Python search."""
    return "python"
