"""Digest of what the qglab CLI prints, for a byte-identity check of two checkouts.

    python3 tools/cli_digest.py [--seeds 0 1 ...] > digest.txt

Runs `qglab.cli.main` in this process, with `qglab` imported from this
checkout's `src/`, on:
- every operation of the benchmark's three workloads (`perfbench/workloads.build`)
  for each seed (0-9 by default), with the random graphs written to a
  temporary directory as the benchmark writes them;
- `basis` at every step of each random `exact` graph's own step table, at
  that operation's --lambda-max;
- `spectrum`, `visibility` and `resonances` at --lambda-max 45, 200 and
  1000, and `ntd` at mu = -1, 2 + 0.5i and 30, on each bundled graph, in
  the table, CSV and JSON formats;
- `visibility` at --lambda-max 200 in JSON on each bundled graph with
  --vertices its first vertex, and all of its vertices;
- `basis` at every step of each bundled graph's step table at
  lambda <= 200 (`qglab.lengths.step_table`);
- each subcommand on a missing graph file, with an unwritable --output, on
  a graph that fails `qglab.graphs.validate`, and on the bundled dumbbell
  with --output a file (CSV, JSON for `basis`);
- inputs outside the model's hypotheses: `spectrum`, `visibility` and
  `resonances` on a circle of one edge in unit `a` and one in unit `b`,
  where b = 2a, and each subcommand on a graph with a vertex named `auto`;
- two flagged faults of the count (ROADMAP items 9 and 2): `spectrum` and
  `visibility` at --lambda-max 200 on a circle of two edges, 1 and 1/100003
  in one unit, and on one of edges 1 and 1/1000003, where the count falls,
  and `spectrum` at --lambda-max 12 on the 10 x 10 grid of
  `tests/conftest.random_length_grid` drawn with `random.Random(0)`.

Prints one line per call: its names and arguments, then the sha1 of its
stdout and of its stderr and its exit code, and the sha1 of the file it
wrote, if any, with the bundled and the temporary directory replaced by
<bundled> and <work>.  `diff` of the output on two checkouts shows every
call whose output or exit code changed.  Only imports from `perfbench/`
and `tests/`, which it does not change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from itertools import chain
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import gen  # noqa: E402
import workloads  # noqa: E402
from conftest import random_length_grid  # noqa: E402
import qglab  # noqa: E402
import qglab.cli  # noqa: E402
from qglab.graphfile import parse_graph, serialize_graph  # noqa: E402
from qglab.lengths import step_table  # noqa: E402

WORKLOADS = ("spectrum", "visibility", "exact")
FORMATS = ("table", "csv", "json")


def bundled_calls(bundled: str):
    """(name, argv) of the commands on each bundled graph."""
    for name in workloads.BUNDLED:
        path = f"{bundled}/{name}.qg"
        for fmt in FORMATS:
            for command in ("spectrum", "visibility", "resonances"):
                for lam in ("45", "200", "1000"):
                    yield name, [command, path, "--lambda-max", lam, "--format", fmt]
            for mu in (["--mu-re", "-1"], ["--mu-re", "2", "--mu-im", "0.5"], ["--mu-re", "30"]):
                yield name, ["ntd", path, *mu, "--format", fmt]
        vertices = parse_graph(path).vertices
        for selection in (vertices[:1], vertices):
            yield name, ["visibility", path, "--lambda-max", "200",
                         "--vertices", ",".join(selection), "--format", "json"]
        yield from basis_calls(name, path, 200.0)


def basis_calls(name: str, path: str, lambda_max: float):
    """(name, argv) of `basis` at every step of the graph's step table."""
    for step in step_table(parse_graph(path), lambda_max).steps():
        yield name, ["basis", path, "--step", str(step.coeff), step.unit]


def workload_calls(seeds, bundled: str, work: Path):
    """(name, argv) of every operation of each workload and seed, with the
    workload's random graphs written under `work` (overwritten per seed),
    each random `exact` graph followed by `basis_calls` on it."""
    for w in WORKLOADS:
        for seed in seeds:
            ops, _ = workloads.build(w, seed, bundled)
            for op in ops:
                if op.file is None:
                    op.file = str(work / f"{op.name}.qg")
                    Path(op.file).write_text(gen.to_qg(op.graph))
                yield f"{w} {seed} {op.name}", op.argv()
                if w == "exact" and op.drawn:
                    yield from basis_calls(f"{w} {seed} {op.name}", op.file,
                                           float(op.lambda_max))


# arguments that make each subcommand run on the bundled dumbbell
COMMAND_ARGS = {"spectrum": ["--lambda-max", "45"], "resonances": ["--lambda-max", "45"],
                "visibility": ["--lambda-max", "45"], "basis": ["--step", "1", "one"],
                "ntd": ["--mu-re", "-1"]}


def write_path_calls(bundled: str, work: Path):
    """(name, argv) of each subcommand on a missing graph file, with an
    unwritable --output, on a graph whose edge length `validate` refuses,
    and with --output `work / "out"`."""
    invalid = work / "invalid.qg"
    invalid.write_text("unit one 1.0\nvertex a\nvertex b\nedge e a b 1e400 one\n")
    dumbbell = f"{bundled}/dumbbell.qg"
    for command, args in COMMAND_ARGS.items():
        yield "missing", [command, str(work / "missing.qg"), *args]
        yield "unwritable", [command, dumbbell, *args, "-o", str(work / "missing" / "out")]
        yield "invalid", [command, str(invalid), *args]
        fmt = [] if command == "basis" else ["--format", "csv"]
        yield "output", [command, dumbbell, *args, *fmt, "-o", str(work / "out")]


def hypothesis_calls(work: Path):
    """(name, argv) of the commands on inputs outside the model's
    hypotheses, written under `work`: a circle of length 2 whose two edges
    1*a and 1/2*b lie in commensurable units, and a graph with a vertex
    named `auto`, with --vertices auto where the command takes it."""
    two = work / "two-units.qg"
    two.write_text("unit a 1.0\nunit b 2.0\nvertex x\nvertex y\n"
                   "edge e1 x y 1/1 a\nedge e2 y x 1/2 b\n")
    for command in ("spectrum", "visibility", "resonances"):
        yield "two-units", [command, str(two), "--lambda-max", "40"]
    auto = work / "auto.qg"
    auto.write_text("unit one 1.0\nvertex auto\nvertex b\nvertex c\nedge e1 auto b 1 one\n"
                    "edge e2 b c 1 one\nedge e3 c auto 1 one\nedge e4 c c 1 one\n")
    for command, args in COMMAND_ARGS.items():
        selection = ["--vertices", "auto"] if command in ("visibility", "ntd") else []
        yield "auto-vertex", [command, str(auto), *args, *selection]


def fault_calls(work: Path):
    """(name, argv) of two flagged faults of the count, on graphs written
    under `work`: circles of length 1 + 1/100003 and 1 + 1/1000003 in two
    edges, whose double eigenvalues split into simple rows, and on the
    second of which the count falls (ROADMAP item 9), and the 10 x 10
    random-length grid, whose right count warns "not certified" (ROADMAP
    item 2)."""
    for name, short in (("short-edge", "1/100003"), ("shorter-edge", "1/1000003")):
        graph = work / f"{name}.qg"
        graph.write_text("unit one 1.0\nvertex x\nvertex y\n"
                         f"edge e1 x y 1 one\nedge e2 y x {short} one\n")
        for command in ("spectrum", "visibility"):
            yield name, [command, str(graph), "--lambda-max", "200"]
    grid = work / "random-grid.qg"
    grid.write_text(serialize_graph(random_length_grid(10, random.Random(0))))
    yield "random-grid", ["spectrum", str(grid), "--lambda-max", "12"]


def digest(argv, dirs, written: Path) -> str:
    """sha1 of stdout and of stderr, and the exit code, of one call, then
    the sha1 of `written` if the call wrote it, which is then removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qglab.cli.main(argv)
        except Exception as exc:    # a crash is a result to compare, too
            rc = f"crash:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    texts = [out.getvalue(), err.getvalue()]
    if written.exists():
        texts.append(written.read_bytes().decode())
        written.unlink()
    for i, text in enumerate(texts):
        for d, tag in dirs:
            text = text.replace(d, tag)
        texts[i] = hashlib.sha1(text.encode()).hexdigest()
    return " ".join([*texts[:2], str(rc), *texts[2:]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=list(range(10)))
    args = ap.parse_args()
    bundled = str(Path(qglab.bundled_graph_path("triangle.qg")).parent)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [(tmp, "<work>"), (bundled, "<bundled>")]
        # lazily: each seed's graph files overwrite the last seed's
        calls = chain(workload_calls(args.seeds, bundled, Path(tmp)), bundled_calls(bundled),
                      write_path_calls(bundled, Path(tmp)), hypothesis_calls(Path(tmp)),
                      fault_calls(Path(tmp)))
        for name, argv in calls:
            shown = " ".join(a.replace(tmp, "<work>").replace(bundled, "<bundled>")
                             for a in argv)
            print(f"{name} | {shown} | {digest(argv, dirs, Path(tmp) / 'out')}", flush=True)


if __name__ == "__main__":
    main()
