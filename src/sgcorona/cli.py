"""Command line front end.

Each invocation emits one JSON document on stdout; human-readable
tables go to stderr under --verbose.  Exit codes: 0 on success, 1 when
`verify` detects discrepancies, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from .census import (corona_balance_criterion, edge_census_direct,
                     edge_census_formula, total_triads_formula,
                     triad_census_direct, triad_census_formula)
from .core import is_balanced, matrix
from .corona import neighbourhood_corona
from .coronal import closed_form_coronal, coronal_of_graph
from .graphio import parse_graph_file, render_graph
from .spectra import Spectrum, corona_spectrum, eigenvalues
from .verify import VerifyConfig, run_all

__all__ = ["main", "run"]

_MATRIX = {"a": "A", "l": "L", "q": "Q"}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _inputs(*paths) -> list:
    return [{"path": p, "sha256": _digest(p)} for p in paths]


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _table(title: str, headers, rows) -> None:
    """Fixed-width table on stderr."""
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    print(title, file=sys.stderr)
    for idx, row in enumerate(cells):
        line = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        print("  " + line, file=sys.stderr)
        if idx == 0:
            print("  " + "  ".join("-" * w for w in widths),
                  file=sys.stderr)


def _spectrum_rows(sp: Spectrum):
    return [{"value": v, "multiplicity": m} for v, m in sp.pairs]


def _census_dict(c):
    return {"total": c.total, "positive": c.positive, "negative": c.negative}


def _triads_dict(t):
    return {"t0": t.t0, "t1": t.t1, "t2": t.t2, "t3": t.t3,
            "total": t.total}


def _cmd_corona(args) -> int:
    g1 = parse_graph_file(args.in1)
    g2 = parse_graph_file(args.in2)
    cor, layout = neighbourhood_corona(g1, g2)
    text = render_graph(cor)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    census = edge_census_direct(cor)
    doc = {
        "command": "corona",
        "nodes": cor.n,
        "edges": _census_dict(census),
        "layout": {"base_nodes": layout.n1, "copies": layout.n1,
                   "copy_size": layout.n2, "total": layout.total},
        "graph": text,
        "output": args.output,
        "inputs": _inputs(args.in1, args.in2),
    }
    _emit(doc)
    if args.verbose:
        _table("corona", ("nodes", "edges", "positive", "negative"),
               [(cor.n, census.total, census.positive, census.negative)])
    return 0


def _cmd_spectrum(args) -> int:
    g1 = parse_graph_file(args.in1)
    g2 = parse_graph_file(args.in2)
    kind = _MATRIX[args.matrix]
    method = args.method
    try:
        sp = corona_spectrum(g1, g2, kind, method)
    except ValueError as exc:
        print(f"sgcorona spectrum: {exc}", file=sys.stderr)
        return 2
    cross_method = "theorem" if method == "numeric" else "numeric"
    cross = {"method": cross_method, "ran": True, "reason": None}
    discrepancies = []
    try:
        other = corona_spectrum(g1, g2, kind, cross_method)
    except ValueError as exc:
        cross.update(ran=False, reason=str(exc))
    else:
        if not sp.isclose(other, 1e-6):
            discrepancies.append({
                "check": f"{cross_method}-agreement",
                "detail": f"{sp} vs {other}",
            })
    doc = {
        "command": "spectrum",
        "matrix": args.matrix,
        "method": method,
        "order": sp.order,
        "spectrum": _spectrum_rows(sp),
        "cross_check": cross,
        "discrepancies": discrepancies,
        "inputs": _inputs(args.in1, args.in2),
    }
    _emit(doc)
    if args.verbose:
        _table(f"{kind}-spectrum ({method})",
               ("value", "multiplicity"),
               [(f"{v:.10g}", m) for v, m in sp.pairs])
    return 0


def _cmd_balance(args) -> int:
    g1 = parse_graph_file(args.in1)
    g2 = parse_graph_file(args.in2)
    cor, _ = neighbourhood_corona(g1, g2)
    oracle = is_balanced(cor)
    criterion = corona_balance_criterion(g1, g2)
    doc = {
        "command": "balance",
        "corona": "balanced" if oracle else "unbalanced",
        "criterion": criterion,
        "oracle": oracle,
        "agree": criterion == oracle,
        "factors": {"first": is_balanced(g1), "second": is_balanced(g2)},
        "inputs": _inputs(args.in1, args.in2),
    }
    _emit(doc)
    if args.verbose:
        word = doc["corona"]
        tag = "criterion and oracle agreeing" if doc["agree"] \
            else "criterion DISAGREES with oracle"
        print(f"corona: {word} ({tag})", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    g1 = parse_graph_file(args.in1)
    g2 = parse_graph_file(args.in2)
    cor, _ = neighbourhood_corona(g1, g2)
    direct = edge_census_direct(cor)
    formula = edge_census_formula(g1, g2)
    doc = {
        "command": "stats",
        "corona_nodes": cor.n,
        "edge_census": {
            "formula": _census_dict(formula),
            "direct": _census_dict(direct),
            "agree": formula == direct,
        },
        "inputs": _inputs(args.in1, args.in2),
    }
    if args.triads:
        tdir = triad_census_direct(cor)
        tform = triad_census_formula(g1, g2)
        doc["triad_census"] = {
            "formula": _triads_dict(tform),
            "direct": _triads_dict(tdir),
            "total_formula": total_triads_formula(g1, g2),
            "agree": tform == tdir,
        }
    _emit(doc)
    if args.verbose:
        _table("edge census", ("route", "total", "positive", "negative"),
               [("formula", formula.total, formula.positive,
                 formula.negative),
                ("direct", direct.total, direct.positive, direct.negative)])
        if args.triads:
            _table("triad census", ("route", "t0", "t1", "t2", "t3"),
                   [("formula", tform.t0, tform.t1, tform.t2, tform.t3),
                    ("direct", tdir.t0, tdir.t1, tdir.t2, tdir.t3)])
    return 0


def _cmd_coronal(args) -> int:
    g = parse_graph_file(args.input)
    kind = _MATRIX[args.matrix]
    cor = coronal_of_graph(g, kind)
    closed = closed_form_coronal(g, kind)
    doc = {
        "command": "coronal",
        "matrix": args.matrix,
        "numerator": list(cor.num.coeffs),
        "denominator": list(cor.den.coeffs),
        "text": str(cor),
        "closed_form": closed[0] if closed else None,
        "closed_form_agrees": (closed[1] == cor) if closed else None,
        "inputs": _inputs(args.input),
    }
    _emit(doc)
    if args.verbose:
        print(f"coronal({kind}) = {cor}", file=sys.stderr)
        if closed:
            print(f"closed form [{closed[0]}] = {closed[1]}",
                  file=sys.stderr)
    return 0


def _cmd_cospectral(args) -> int:
    ga = parse_graph_file(args.ina)
    gb = parse_graph_file(args.inb)
    kind = _MATRIX[args.matrix]
    # one eigvalsh per matrix feeds both the verdict (check_cospectral's
    # comparison) and the reported spectra
    va, vb = (eigenvalues(matrix(g, kind)) for g in (ga, gb))
    same = ga.n == gb.n and all(abs(a - b) <= args.tol
                                for a, b in zip(va, vb))
    doc = {
        "command": "cospectral",
        "matrix": args.matrix,
        "cospectral": same,
        "spectra": [_spectrum_rows(Spectrum.from_values(v))
                    for v in (va, vb)],
        "tolerance": args.tol,
        "inputs": _inputs(args.ina, args.inb),
    }
    _emit(doc)
    if args.verbose:
        verdict = "cospectral" if same else "not cospectral"
        print(f"{kind}-matrices are {verdict}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    config = VerifyConfig(trials=args.trials, seed=args.seed,
                          max_n=args.max_n)
    report = run_all(config)
    doc = report.as_dict()
    doc["command"] = "verify"
    _emit(doc)
    if args.verbose:
        _table("verification checks",
               ("check", "ok", "instances", "failures", "seconds"),
               [(r.name, r.ok, r.instances, r.failures, f"{r.elapsed:.2f}")
                for r in report.results])
    return 0 if report.ok else 1


def _checked(convert, ok, need: str):
    """argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_tolerance = _checked(float, lambda v: 0 <= v < math.inf,
                      "finite and at least 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcorona",
        description="Neighbourhood corona products of signed graphs: "
                    "construction, censuses, balance, and spectra.")
    parser.add_argument("--verbose", action="store_true",
                        help="print human-readable tables on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corona", help="build the corona of two graphs")
    p.add_argument("in1")
    p.add_argument("in2")
    p.add_argument("-o", "--output", default=None,
                   help="also write the corona as a graph file")
    p.set_defaults(fn=_cmd_corona)

    p = sub.add_parser("spectrum", help="spectrum of a corona matrix")
    p.add_argument("--matrix", choices=sorted(_MATRIX), required=True)
    p.add_argument("--method",
                   choices=("numeric", "theorem", "proposition"),
                   default="numeric")
    p.add_argument("in1")
    p.add_argument("in2")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("balance", help="balance of the corona, two ways")
    p.add_argument("in1")
    p.add_argument("in2")
    p.set_defaults(fn=_cmd_balance)

    p = sub.add_parser("stats", help="edge (and triad) censuses")
    p.add_argument("--triads", action="store_true")
    p.add_argument("in1")
    p.add_argument("in2")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("coronal",
                       help="marking resolvent of a single graph")
    p.add_argument("--matrix", choices=sorted(_MATRIX), required=True)
    p.add_argument("input")
    p.set_defaults(fn=_cmd_coronal)

    p = sub.add_parser("cospectral",
                       help="compare spectra of two graphs' matrices")
    p.add_argument("--matrix", choices=sorted(_MATRIX), required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("ina")
    p.add_argument("inb")
    p.set_defaults(fn=_cmd_cospectral)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--max-n", type=_positive_int, default=5)
    p.set_defaults(fn=_cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # parse errors and undecodable text are ValueErrors, as is a
        # factor the corona cannot be built from; unreadable paths are
        # OSErrors
        print(f"sgcorona: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
