"""Command-line front end.

Commands: compute, table1, verify, witness, chain, bounds, sets.  All flags
are long-form.  Each command builds one document and its text lines, and
_emit prints them in the --format asked for (json, csv or text).  formulas,
primechain, table1 and witnesses are imported by the one command that uses
each, so compute loads no module that a search does not need.  Exit codes:
0 success, 1 parse/domain errors, 2 incomplete results (not found / timeout /
failed claim), 3 reference-table mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, solver
from .coloring import MAX_COLORS, Coloring, longest_mono_diffseq
from .gapsets import CATALOG, GapSetError, make_set

# sorted(witnesses.WITNESSES) and table1.DEFAULT_CELL_BUDGET, written out so
# that building the parser imports neither module; tests pin both to them.
_WITNESS_NAMES = ("C_k", "D_k", "chi_k", "lemma25", "mod_block", "p_not_3acc", "prop36",
                  "remark1", "thm34", "thm35")
_TABLE1_BUDGET = solver.SearchBudget(max_nodes=10**9, max_seconds=600.0)


def _budget(args) -> solver.SearchBudget:
    return solver.SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _emit(fmt: str, doc, text) -> None:
    """Print doc as indented JSON or as CSV (a dict is one row), or the text lines."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        import csv

        rows = [doc] if isinstance(doc, dict) else doc
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    else:
        print(*text, sep="\n")


def cmd_compute(args) -> int:
    S = make_set(args.set)
    if args.r > MAX_COLORS:
        raise ValueError(f"--r {args.r}: certificates are written in a text format "
                         f"that supports at most {MAX_COLORS} colors")
    result = solver.compute_f(S, args.k, args.r, n_max=args.nmax, budget=_budget(args))
    doc = result.to_json_dict()
    if args.verify and result.status == solver.EXACT:
        doc["verified"] = solver.verify_certificate(result)
    if result.status == solver.EXACT:
        text = [f"f({args.set},{args.k};{args.r}) = {result.value}"]
        if result.certificate is not None:
            text.append(f"certificate [1,{result.value - 1}]: {result.certificate}")
    elif result.status == solver.NOT_FOUND_UP_TO:
        text = [f"no value found up to n = {args.nmax} (still feasible)"]
    else:
        text = [f"budget exhausted; largest n proven feasible: {result.feasible_up_to}"]
    text.append(f"nodes: {result.nodes}  elapsed_ms: {doc['elapsed_ms']}")
    if "verified" in doc:
        text.append(f"verified: {doc['verified']}")
    _emit(args.format, doc, text)
    if args.verify and doc.get("verified") is False:
        return 2
    return 0 if result.status == solver.EXACT else 2


def cmd_table1(args) -> int:
    from . import table1

    rows = None if args.rows is None else args.rows.split(",")
    progress = None
    if args.progress:
        progress = lambda cell: print(  # noqa: E731
            f"# {cell.row} k={cell.k}: {cell.computed} ({cell.status})", file=sys.stderr
        )
    results = table1.run_table1(rows=rows, budget=_budget(args), progress=progress)
    _emit(args.format, [cell.to_dict() for cell in results], None)
    for cell in results:
        if cell.status == table1.MISMATCH:
            print(f"mismatch at reference table row {cell.row}, k={cell.k}: "
                  f"{cell.expected} (computed {cell.computed})", file=sys.stderr)
            return 3
    return 0


def cmd_verify(args) -> int:
    if args.coloring is not None:
        text = args.coloring
    else:
        with open(args.coloring_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    coloring = Coloring.parse(text, args.r)
    S = make_set(args.set)
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    length, witness = longest_mono_diffseq(coloring, S)
    found = length >= args.k
    doc = {
        "spec": args.set,
        "k": args.k,
        "n": coloring.n,
        "longest": length,
        "has_k_term": found,
        "pass": not found,
    }
    if found:
        doc["witness"] = {"positions": list(witness.positions), "color": witness.color}
        line = (f"FAIL: {args.k}-term chain at positions {list(witness.positions)} "
                f"(color {witness.color})")
    else:
        line = f"no {args.k}-term chain (longest is {length}), pass"
    _emit(args.format, doc, [line])
    return 0 if not found else 2


def cmd_witness(args) -> int:
    from .witnesses import named_witness

    # named_witness refuses a flag the witness does not take; the order is the builders'.
    flags = {"m": args.m, "k": args.k, "n": args.n, "i": args.i, "set_spec": args.set}
    params = {p: value for p, value in flags.items() if value is not None}
    coloring, claim = named_witness(args.name, **params)
    text = coloring.to_text()  # raises above MAX_COLORS colors, before any output
    passed = claim.check(coloring)
    header = {
        "name": args.name,
        "params": params,
        "set_spec": claim.set_spec,
        "claim": claim.to_dict() | {"text": claim.describe()},
    }
    _emit(args.format, header | {"coloring": text, "n": coloring.n, "pass": passed},
          [json.dumps(header), text, f"claim check: {'pass' if passed else 'FAIL'}"])
    return 0 if passed else 2


def cmd_chain(args) -> int:
    from .primechain import find_chain, verify_chain

    chain = find_chain(args.t, args.k, args.bound, strategy=args.strategy)
    if chain is None:
        print(f"no chain found up to bound {args.bound}", file=sys.stderr)
        return 2
    ok = verify_chain(chain)
    doc = chain.to_dict() | {"bound": args.bound, "strategy": args.strategy}
    _emit(args.format, doc, [
        f"chain (t={args.t}): {' '.join(str(p) for p in chain.elements)}",
        f"gaps: {list(chain.gaps)}  witnesses: {list(chain.gap_witnesses)}",
        f"verification: {'pass' if ok else 'FAIL'}",
    ])
    return 0 if ok else 2


def cmd_bounds(args) -> int:
    from . import formulas

    if args.registry:
        _emit("csv", formulas.registry_rows(), None)
        return 0
    S = make_set(args.set)
    bounds = formulas.bounds_for(S, args.k, args.r)
    doc = {
        "spec": args.set,
        "k": args.k,
        "r": args.r,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact": bounds.exact,
        "conjectures": [{"formula_id": fid, "value": v} for fid, v in bounds.conjectures],
        "entries": [
            {"formula_id": e.formula_id, "kind": e.kind, "value": v}
            for e, v in bounds.entries
        ],
    }
    if not bounds.entries:
        text = ["no registered bounds for this set"]
    else:
        text = [f"lower: {bounds.lower}  upper: {bounds.upper}  exact: {bounds.exact}"]
        for entry, value in bounds.entries:
            formula = (entry.formula if bounds.scale == 1
                       else f"{bounds.scale}(M-1)+1, M = {entry.formula}")
            text.append(f"  [{entry.kind}] {entry.formula_id}: {value}  ({formula})")
    _emit(args.format, doc, text)
    return 0


def cmd_sets(args) -> int:
    _emit(args.format, [{"spec": spec, "description": desc} for spec, desc in CATALOG],
          [f"{spec:28s} {desc}" for spec, desc in CATALOG])
    return 0


def _add_budget(parser, budget: solver.SearchBudget) -> None:
    parser.add_argument("--max-nodes", type=int, default=budget.max_nodes,
                        help=f"node budget (default {budget.max_nodes or 'unlimited'})")
    parser.add_argument("--max-seconds", type=float, default=budget.max_seconds,
                        help=f"wall-clock budget in seconds "
                             f"(default {budget.max_seconds or 'unlimited'})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffseq",
        description="Exact solver and verification toolkit for monochromatic "
                    "diffsequence thresholds f(S,k;r).",
    )
    parser.add_argument("--version", action="version", version=f"diffseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute f(S,k;r) exactly")
    p.add_argument("--set", required=True, help="gap set spec (see the sets command)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--nmax", type=int, default=1000,
                   help="largest interval length to try (default 1000)")
    p.add_argument("--verify", action="store_true",
                   help="re-verify the certificate with a fresh search")
    _add_budget(p, solver.SearchBudget())
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table1", help="recompute the bundled reference table")
    p.add_argument("--rows", default=None,
                   help="comma-separated row labels (default: all rows)")
    _add_budget(p, _TABLE1_BUDGET)
    p.add_argument("--progress", action="store_true", help="log each cell to stderr")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="check a coloring against a gap set and k")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coloring", help="coloring string (digits then a-z)")
    group.add_argument("--coloring-file", help="file containing the coloring string")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="color count (default: inferred from the string)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="emit a cataloged witness coloring and check it")
    p.add_argument("name", choices=_WITNESS_NAMES)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--set", help="claim set for mod_block (default s_m(m))")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("chain", help="search for a prime chain with shifted-prime gaps")
    p.add_argument("--t", type=int, required=True, help="odd positive shift")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--strategy", choices=["dfs", "bfs"], default="dfs", help="dfs: the lex-least "
                   "chain within the bound; bfs: the lex-least of those with the least maximum")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("bounds", help="registered bounds for a set, or the full registry")
    p.add_argument("--set")
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--registry", action="store_true",
                   help="dump the whole formula registry as CSV")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sets", help="list the gap-set grammar")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_sets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds" and not args.registry:
        if args.set is None or args.k is None:
            parser.error("bounds requires --set and --k (or --registry)")
    try:
        return args.func(args)
    except (GapSetError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
