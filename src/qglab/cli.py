"""Command-line front end.

One binary, subcommands ``spectrum``, ``resonances``, ``visibility``,
``basis`` and ``ntd``.  Each ``cmd_*`` takes the parsed arguments and the
graph and returns its body (``{"rows": [...]}``, or the ``basis`` dict),
its ``meta`` entries and its warnings.  `main` alone parses the graph
file, opens ``--output`` or stdout, writes ``meta`` with ``command`` and
``graph`` first, prints the warnings after the output and sets the exit
code; a record that every command adds to ``meta`` belongs there.

Exit codes: 0 clean, 1 usage/parse/command errors, 2 completed but with
numerical-confidence warnings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from itertools import chain, pairwise

from .graphfile import GraphFileError, parse_graph
from .lengths import Step, resonance_floor, step_table
from .resonance import resonance_dimension, table_counts
from .spectral import STEP_BRACKET, eigenvalues_in
from .weyl import NearSpectrumError, ntd_matrix, select_vertices, visibility_report
# Not called here.  The benchmark tracer (perfbench/spans.py) looks this name
# up in this module; drop the import together with that target.
from .lengths import candidate_steps  # noqa: F401

OK, ERROR, WARNINGS = 0, 1, 2


_SCALARS = frozenset((str, int, float, bool, type(None)))
# The C encoder, with the indentation in its item separator, for the items
# of a flat dict and for the rows of a list of flat dicts, one level below
# a top-level key.
_ITEMS = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_ROWS = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _scalars(values) -> bool:
    return set(map(type, values)) <= _SCALARS


def _dumps(obj) -> str:
    """Exactly the bytes `json.dumps(obj, indent=2)` writes.

    `json.dumps` takes its pure-Python encoder whenever it indents.  Under a
    top-level dict with `str` keys, a non-empty list of non-empty dicts of
    scalars (the rows) and a non-empty dict of scalars each take one call of
    the C encoder, and the row boundaries are then re-indented; an encoded
    string holds no newline (the encoder escapes it), so "},\n<indent>{"
    occurs only between rows.  Every other value is `json.dumps`'s, indented
    one level by its line breaks.
    """
    if type(obj) is not dict or not obj or set(map(type, obj)) != {str}:
        return json.dumps(obj, indent=2)
    items = []
    for key, v in obj.items():
        if (type(v) is list and v and set(map(type, v)) == {dict} and all(v)
                and _scalars(chain.from_iterable(map(dict.values, v)))):
            text = _ROWS(v)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            text = "[\n    {\n      " + text + "\n    }\n  ]"
        elif type(v) is dict and v and _scalars(v.values()):
            text = "{\n    " + _ITEMS(v)[1:-1] + "\n  }"
        else:
            text = json.dumps(v, indent=2).replace("\n", "\n  ")
        items.append(json.dumps(key) + ": " + text)
    return "{\n  " + ",\n  ".join(items) + "\n}"


def _emit(body: dict, fmt: str, meta: dict, out) -> None:
    if fmt == "json":
        out.write(_dumps({"meta": meta, **body}) + "\n")
        return
    rows = body["rows"]
    if fmt == "csv":
        if rows:
            w = csv.DictWriter(out, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    elif not rows:
        out.write("(no rows)\n")
    else:
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


def cmd_spectrum(args, graph):
    spec = eigenvalues_in(graph, args.lambda_max)
    rows = [{"lambda": f"{h.lam:.12g}", "k": f"{h.k:.12g}", "multiplicity": h.multiplicity}
            for h in spec.eigenvalues]
    return {"rows": rows}, {"lambda_max": args.lambda_max}, spec.warnings


def cmd_resonances(args, graph):
    table = step_table(graph, args.lambda_max)
    floor = resonance_floor(graph, (table.gcds, table.mults))
    texts = table.texts()
    rows = [{"lambda": f"{lam:.12g}",
             "step": text,
             "beta1": beta1,
             "beta0_odd": odd,
             "dim_R": beta1 - odd,
             "resonance": "yes" if beta1 > odd else "no"}
            for (lam, _, _), text, (beta1, odd) in zip(table.rows, texts,
                                                       table_counts(graph, table))]
    # neighbouring steps of two units whose count brackets in `eigenvalues_in` touch
    lo, hi = STEP_BRACKET
    warnings = [f"steps {texts[i]}, {texts[i + 1]} agree within the count's resolution at "
                f"lambda={lam:.12g}: units {u} and {w} look commensurable, dim R may be wrong"
                for i, ((lam, s, (u, _, _)), (_, t, (w, _, _))) in enumerate(pairwise(table.rows))
                if math.pi / t * lo <= math.pi / s * hi and u != w]
    meta = {"lambda_max": args.lambda_max,
            "lambda_floor": None if math.isinf(floor.lam) else floor.lam}
    return {"rows": rows}, meta, warnings


def cmd_visibility(args, graph):
    sel = select_vertices(graph, args.vertices)
    rep = visibility_report(graph, sel, args.lambda_max)
    rows = []
    for r in rep.rows:
        row = {"lambda": f"{r.lam:.12g}", "dim_ker": r.dim_ker,
               "rank_residue": r.rank_residue, "dim_R": r.dim_resonance, "step": r.step or "-",
               "identity": {True: "ok", False: "VIOLATED", None: "n/a"}[r.identity_ok],
               "class": r.classification}
        if args.format == "json":
            row["residue_diagnostics"] = {
                "singular_values": [float(s) for s in r.residue.singular_values],
                "separation": r.residue.separation}
        rows.append(row)
    meta = {"lambda_max": args.lambda_max, "vertices": list(sel.vertices),
            "mode": sel.mode}
    return {"rows": rows}, meta, rep.warnings


def cmd_basis(args, graph):
    step = Step(*args.step)
    rep = resonance_dimension(graph, step, with_basis=True)
    body = {"beta1": rep.beta1, "beta0_odd": rep.beta0_odd, "dim_R": rep.dim,
            "functions": [f.coefficients for f in rep.basis]}
    return body, {"step": str(step), "lambda": rep.lam}, ()


def cmd_ntd(args, graph):
    sel = select_vertices(graph, args.vertices)
    if "vertex" in sel.vertices:
        raise ValueError("a vertex named 'vertex' clashes with the ntd label column")
    mu = complex(args.mu_re, args.mu_im)
    m = ntd_matrix(graph, sel, mu)
    rows = []
    for i, v in enumerate(sel.vertices):
        row = {"vertex": v}
        for j, w in enumerate(sel.vertices):
            z = m[i, j]
            row[w] = f"{z.real:.12g}{z.imag:+.12g}j"
        rows.append(row)
    return {"rows": rows}, {"mu": str(mu), "vertices": list(sel.vertices)}, sel.warnings


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qglab",
        description="Spectra, real resonances and vertex visibility for "
                    "metric graph Laplacians.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, func, text in (("spectrum", cmd_spectrum, "eigenvalues up to a cutoff"),
                             ("resonances", cmd_resonances, "exact resonance table"),
                             ("visibility", cmd_visibility, "per-eigenvalue visibility table")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--lambda-max", type=float, required=True)
        p.set_defaults(func=func)
    _add_vertices(p)    # the last of the three, visibility, also selects vertices

    p = sub.add_parser("basis", help="resonance eigenfunction coefficients (JSON)")
    p.add_argument("graph")
    p.add_argument("--step", nargs=2, metavar=("P/Q", "UNIT"), required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_basis, format="json")

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
        body, meta, warnings = args.func(args, parse_graph(args.graph))
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
            _emit(body, args.format, {"command": args.command, "graph": args.graph, **meta}, out)
    except (OSError, ValueError, NearSpectrumError) as exc:
        for e in exc.errors if isinstance(exc, GraphFileError) else [exc]:
            print(f"error: {e}", file=sys.stderr)
        return ERROR
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return WARNINGS if warnings else OK


if __name__ == "__main__":
    sys.exit(main())
