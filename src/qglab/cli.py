"""Command-line front end.

One binary, subcommands ``spectrum``, ``resonances``, ``visibility``,
``basis`` and ``ntd``.  JSON output records the command's inputs under
``meta``.

Exit codes: 0 clean, 1 usage/parse/command errors, 2 completed but with
numerical-confidence warnings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from itertools import chain

from .graphfile import GraphFileError, parse_graph
from .lengths import Step, resonance_floor, step_table
from .resonance import resonance_dimension, table_counts
from .spectral import eigenvalues_in, sigma_min
from .weyl import NearSpectrumError, ntd_matrix, select_vertices, visibility_report
# Not called here.  The benchmark tracer (perfbench/spans.py) looks this name
# up in this module; drop the import together with that target.
from .lengths import candidate_steps  # noqa: F401

OK, ERROR, WARNINGS = 0, 1, 2


@functools.cache
def _flat_encoder(level: int):
    """The C encoder's `encode` for containers whose items sit at `level`:
    two-space-indented JSON without the brackets' own line breaks."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _is_flat(values) -> bool:
    """Whether `values` are all of the types the encoder writes as scalars."""
    return set(map(type, values)) <= _SCALARS


def _dumps(obj, level: int = 0) -> str:
    """The bytes `json.dumps` writes for `obj` with an indent of 2, with
    `obj` at depth `level`.

    `json.dumps` takes its pure-Python encoder whenever it indents.  Here
    the C encoder (`_flat_encoder`), whose item separator carries the
    indentation, runs once per container of scalars only (`_is_flat`), once
    for a whole list of such non-empty dicts, whose row boundaries are then
    re-indented, and once for the scalars of any other dict.  An encoded
    string holds no newline (the encoder escapes it), so "},\n<indent>{"
    occurs only between rows and ",\n" only between items.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _flat_encoder(level)(obj)
    pad, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if _is_flat(values):
        text = _flat_encoder(level + 1)(obj)
        return text[0] + pad + text[1:-1] + close + text[-1]
    if not is_dict:
        if (set(map(type, obj)) == {dict} and all(obj)
                and _is_flat(chain.from_iterable(map(dict.values, obj)))):
            deep = "\n" + "  " * (level + 2)
            text = _flat_encoder(level + 2)(obj)[2:-2]
            text = text.replace("}," + deep + "{", pad + "}," + pad + "{" + deep)
            return "[" + pad + "{" + deep + text + pad + "}" + close + "]"
        return "[" + pad + ("," + pad).join(_dumps(v, level + 1) for v in obj) + close + "]"
    # one '"key": value' line per item, with null in place of each container
    lines = _flat_encoder(0)({k: None if isinstance(v, _CONTAINERS) else v
                              for k, v in obj.items()})[1:-1].split(",\n")
    items = (line[:-4] + _dumps(v, level + 1) if isinstance(v, _CONTAINERS) else line
             for line, v in zip(lines, values))
    return "{" + pad + ("," + pad).join(items) + close + "}"


def _emit(rows: list[dict], fmt: str, meta: dict, out) -> None:
    if fmt == "json":
        out.write(_dumps({"meta": meta, "rows": rows}) + "\n")
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


def _add_common(p):
    p.add_argument("graph", help="graph file (.qg)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")


def _add_vertices(p):
    p.add_argument("--vertices", default=None,
                   type=lambda s: None if s == "auto" else s.split(","),
                   help="'auto' (default) or comma-separated vertex ids")


def _output(args):
    """The file named by --output, or stdout, which leaving the `with` keeps open."""
    return open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)


def _finish(args, rows, meta, warnings) -> int:
    with _output(args) as out:
        _emit(rows, args.format, meta, out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return WARNINGS if warnings else OK


def cmd_spectrum(args) -> int:
    graph = parse_graph(args.graph)
    spec = eigenvalues_in(graph, args.lambda_max)
    # sigma_min at each hit's k but the first, lambda = 0, which prints 0
    sigmas = [0.0, *sigma_min(graph, [h.k for h in spec.eigenvalues[1:]]).tolist()]
    rows = [{"lambda": f"{h.lam:.12g}", "k": f"{h.k:.12g}",
             "multiplicity": h.multiplicity,
             "sigma_min": f"{sg:.3g}"}
            for h, sg in zip(spec.eigenvalues, sigmas)]
    meta = {"command": "spectrum", "graph": args.graph,
            "lambda_max": args.lambda_max}
    return _finish(args, rows, meta, spec.warnings)


def cmd_resonances(args) -> int:
    graph = parse_graph(args.graph)
    table = step_table(graph, args.lambda_max)
    floor = resonance_floor(graph, (table.gcds, table.mults))
    rows = [{"lambda": f"{lam:.12g}",
             "step": text,
             "beta1": beta1,
             "beta0_odd": odd,
             "dim_R": beta1 - odd,
             "resonance": "yes" if beta1 > odd else "no"}
            for (lam, _, _), text, (beta1, odd) in zip(table.rows, table.texts(),
                                                       table_counts(graph, table))]
    meta = {"command": "resonances", "graph": args.graph,
            "lambda_max": args.lambda_max,
            "lambda_floor": None if math.isinf(floor.lam) else floor.lam}
    return _finish(args, rows, meta, [])


def cmd_visibility(args) -> int:
    graph = parse_graph(args.graph)
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
    graph = parse_graph(args.graph)
    step = Step(*args.step)
    rep = resonance_dimension(graph, step, with_basis=True)
    payload = {
        "meta": {"command": "basis", "graph": args.graph, "step": str(step),
                 "lambda": rep.lam},
        "beta1": rep.beta1,
        "beta0_odd": rep.beta0_odd,
        "dim_R": rep.dim,
        "functions": [f.coefficients for f in rep.basis],
    }
    with _output(args) as out:
        out.write(_dumps(payload) + "\n")
    return OK


def cmd_ntd(args) -> int:
    graph = parse_graph(args.graph)
    sel = select_vertices(graph, args.vertices)
    mu = complex(args.mu_re, args.mu_im)
    m = ntd_matrix(graph, sel, mu)
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


_parser = build_parser()


def _join_numbers(argv):
    """argv with a value that starts with "-" after --lambda-max, --mu-re or
    --mu-im, or a prefix of them, joined to the option by "=": after a space
    argparse reads a negative number in exponent form, such as -1e6, as an
    option."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and arg.startswith("-")
                and any(o.startswith(out[-1]) for o in ("--lambda-max", "--mu-re", "--mu-im"))):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = _parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return ERROR if exc.code else OK
    try:
        return args.func(args)
    except (OSError, ValueError, NearSpectrumError) as exc:
        for e in exc.errors if isinstance(exc, GraphFileError) else [exc]:
            print(f"error: {e}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
