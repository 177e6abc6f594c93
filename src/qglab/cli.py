"""Command-line front end.

One binary, subcommands ``spectrum``, ``resonances``, ``visibility``,
``basis`` and ``ntd``.  JSON output records the command's inputs under
``meta``.

Exit codes: 0 clean, 1 usage/parse errors, 2 completed but with
numerical-confidence warnings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .graphfile import GraphFileError, parse_graph
from .lengths import Step, candidate_steps, resonance_floor
from .resonance import resonance_dimension
from .spectral import eigenvalues_in
from .weyl import NearSpectrumError, ntd_matrix, select_vertices, visibility_report

OK, ERROR, WARNINGS = 0, 1, 2


def _emit(rows: list[dict], fmt: str, meta: dict, out) -> None:
    if fmt == "json":
        json.dump({"meta": meta, "rows": rows}, out, indent=2, default=str)
        out.write("\n")
    elif fmt == "csv":
        if rows:
            w = csv.DictWriter(out, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    else:
        if not rows:
            out.write("(no rows)\n")
            return
        cols = list(rows[0])
        widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in cols]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(str(r[c]).ljust(w)
                                for c, w in zip(cols, widths)).rstrip() + "\n")


def _load(path: str):
    try:
        return parse_graph(path)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except GraphFileError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        raise SystemExit(ERROR)


def _add_common(p):
    p.add_argument("graph", help="graph file (.qg)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")


def _add_vertices(p):
    p.add_argument("--vertices", default=None,
                   type=lambda s: None if s == "auto" else s.split(","),
                   help="'auto' (default) or comma-separated vertex ids")


def _finish(args, rows, meta, warnings) -> int:
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        _emit(rows, args.format, meta, out)
    finally:
        if args.output:
            out.close()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return WARNINGS if warnings else OK


def cmd_spectrum(args) -> int:
    graph = _load(args.graph)
    spec = eigenvalues_in(graph, args.lambda_max)
    rows = [{"lambda": f"{h.lam:.12g}", "k": f"{h.k:.12g}",
             "multiplicity": h.multiplicity,
             "sigma_min": f"{h.sigma_min:.3g}"}
            for h in spec.eigenvalues]
    meta = {"command": "spectrum", "graph": args.graph,
            "lambda_max": args.lambda_max}
    return _finish(args, rows, meta, spec.warnings)


def cmd_resonances(args) -> int:
    graph = _load(args.graph)
    cands = candidate_steps(graph, args.lambda_max)
    floor = resonance_floor(graph)
    rows = []
    for c in cands:
        rep = resonance_dimension(graph, c.step)
        rows.append({
            "lambda": f"{rep.lam:.12g}",
            "step": str(c.step),
            "beta1": rep.beta1,
            "beta0_odd": rep.beta0_odd,
            "dim_R": rep.dim,
            "resonance": "yes" if rep.is_resonance else "no",
        })
    meta = {"command": "resonances", "graph": args.graph,
            "lambda_max": args.lambda_max,
            "lambda_floor": None if math.isinf(floor.lam) else floor.lam}
    return _finish(args, rows, meta, [])


def cmd_visibility(args) -> int:
    graph = _load(args.graph)
    sel = select_vertices(graph, args.vertices)
    rep = visibility_report(graph, sel, args.lambda_max)
    rows = []
    for r in rep.rows:
        row = {"lambda": f"{r.lam:.12g}", "dim_ker": r.dim_ker,
               "rank_residue": r.rank_residue, "dim_R": r.dim_resonance,
               "step": r.step or "-", "identity": "ok" if r.identity_ok else "VIOLATED",
               "class": r.classification}
        if args.format == "json":
            row["residue_diagnostics"] = {
                "singular_values": [float(s) for s in r.residue.singular_values],
                "separation": r.residue.separation}
        rows.append(row)
    meta = {"command": "visibility", "graph": args.graph,
            "lambda_max": args.lambda_max, "vertices": list(sel.vertices),
            "mode": sel.mode}
    return _finish(args, rows, meta, rep.warnings)


def cmd_basis(args) -> int:
    graph = _load(args.graph)
    coeff_s, unit = args.step
    try:
        step = Step(Fraction(coeff_s), unit)
        rep = resonance_dimension(graph, step, with_basis=True)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    payload = {
        "meta": {"command": "basis", "graph": args.graph, "step": str(step),
                 "lambda": rep.lam},
        "beta1": rep.beta1,
        "beta0_odd": rep.beta0_odd,
        "dim_R": rep.dim,
        "functions": [f.coefficients for f in rep.basis],
    }
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        json.dump(payload, out, indent=2)
        out.write("\n")
    finally:
        if args.output:
            out.close()
    return OK


def cmd_ntd(args) -> int:
    graph = _load(args.graph)
    sel = select_vertices(graph, args.vertices)
    mu = complex(args.mu_re, args.mu_im)
    try:
        m = ntd_matrix(graph, sel, mu)
    except NearSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    rows = []
    for i, v in enumerate(sel.vertices):
        row = {"vertex": v}
        for j, w in enumerate(sel.vertices):
            z = m[i, j]
            row[w] = f"{z.real:.12g}{z.imag:+.12g}j"
        rows.append(row)
    meta = {"command": "ntd", "graph": args.graph, "mu": str(mu),
            "vertices": list(sel.vertices)}
    return _finish(args, rows, meta, sel.warnings)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qglab",
        description="Spectra, real resonances and vertex visibility for "
                    "metric graph Laplacians.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues up to a cutoff")
    _add_common(p)
    p.add_argument("--lambda-max", type=float, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("resonances", help="exact resonance table")
    _add_common(p)
    p.add_argument("--lambda-max", type=float, required=True)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("visibility", help="per-eigenvalue visibility table")
    _add_common(p)
    p.add_argument("--lambda-max", type=float, required=True)
    _add_vertices(p)
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("basis", help="resonance eigenfunction coefficients (JSON)")
    p.add_argument("graph")
    p.add_argument("--step", nargs=2, metavar=("P/Q", "UNIT"), required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("ntd", help="sample the Neumann-to-Dirichlet matrix")
    _add_common(p)
    p.add_argument("--mu-re", type=float, required=True)
    p.add_argument("--mu-im", type=float, default=0.0)
    _add_vertices(p)
    p.set_defaults(func=cmd_ntd)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code else OK
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
