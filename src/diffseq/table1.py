"""Batch reproduction of the bundled reference table of exact f(S,k;2) values.

Twelve gap-set rows by k = 2..8, with unknown cells marked "?" and skipped.
Every known cell is recomputed from scratch by the solver and diffed against
the bundled expected value; each CellResult carries its row label, k and
expected value, so a mismatch report needs nothing else.  Cells run one after
another in table order: the search is pure Python, so threads holding the GIL
would only add overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solver
from .gapsets import make_set

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = 'skipped-"?"'

K_VALUES = tuple(range(2, 9))

DEFAULT_CELL_BUDGET = solver.SearchBudget(max_nodes=10**9, max_seconds=600.0)


@dataclass(frozen=True)
class TableRow:
    label: str
    set_spec: str
    expected: tuple[int | None, ...]  # indexed by k - 2; None encodes "?"


TABLE_ROWS: tuple[TableRow, ...] = (
    TableRow("T", "powers(2)", (3, 7, 11, 17, 25, 35, 51)),
    TableRow("F", "fibonacci", (3, 5, 9, 11, 15, 19, 21)),
    TableRow("P", "primes", (5, 9, 13, 21, 25, 33, None)),
    TableRow("P+1", "primes+1", (7, 13, 21, 27, 35, None, None)),
    TableRow("P+2", "primes+2", (9, 17, 25, 33, None, None, None)),
    TableRow("P+3", "primes+3", (11, 21, 31, 42, None, None, None)),
    TableRow("P+4", "primes+4", (13, 25, 37, None, None, None, None)),
    TableRow("P+5", "primes+5", (15, 29, None, None, None, None, None)),
    TableRow("P+6", "primes+6", (17, 33, None, None, None, None, None)),
    TableRow("P+7", "primes+7", (19, 37, None, None, None, None, None)),
    TableRow("S5", "s_m(5)", (3, 5, 7, 11, 13, 15, 19)),
    TableRow("S6", "s_m(6)", (3, 5, 7, 9, 13, 15, 17)),
)

ROW_BY_LABEL = {row.label: row for row in TABLE_ROWS}


@dataclass
class CellResult:
    row: str
    k: int
    set_spec: str
    expected: int | None
    computed: int | None
    status: str
    nodes: int
    elapsed_ms: float
    certificate: str = ""  # lex-least avoiding coloring of [1, computed - 1]

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "k": self.k,
            "set": self.set_spec,
            "expected": "?" if self.expected is None else self.expected,
            "computed": "" if self.computed is None else self.computed,
            "status": self.status,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
            "certificate": self.certificate,
        }


def run_table1(rows: list[str] | None = None,
               budget: solver.SearchBudget = DEFAULT_CELL_BUDGET,
               workers: int = 1, progress=None) -> list[CellResult]:
    """Compute every selected non-"?" cell and diff against expected values.

    rows selects row labels (all by default); an unknown label raises
    ValueError before any search.  Cells run in table order, and progress, if
    given, is called with each computed cell as it finishes.  Known cells
    failing to reach an exact value within budget are reported as mismatches
    with an empty computed field.  workers is accepted, and must be >= 1, only
    because the benchmark harness passes it; it selects nothing.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    unknown = [label for label in rows or () if label not in ROW_BY_LABEL]
    if unknown:
        raise ValueError(f"unknown table rows {unknown}; known: {', '.join(ROW_BY_LABEL)}")
    selected = TABLE_ROWS if rows is None else tuple(ROW_BY_LABEL[label] for label in rows)
    results = []
    for row in selected:
        S = make_set(row.set_spec)
        for k in K_VALUES:
            expected = row.expected[k - 2]
            if expected is None:
                results.append(CellResult(row.label, k, row.set_spec, None, None, SKIPPED, 0, 0.0))
                continue
            res = solver.compute_f(S, k, 2, n_max=max(4 * expected, 64), budget=budget)
            status = MATCH if res.value == expected else MISMATCH
            certificate = res.certificate.to_text() if res.certificate else ""
            results.append(CellResult(row.label, k, row.set_spec, expected, res.value,
                                      status, res.nodes, round(res.elapsed * 1000.0, 3),
                                      certificate))
            if progress is not None:
                progress(results[-1])
    return results
