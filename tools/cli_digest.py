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
- `basis` at every step of each bundled graph's step table at
  lambda <= 200 (`qglab.lengths.step_table`).

Prints one line per call: its names and arguments, then the sha1 of its
stdout and of its stderr and its exit code, with the bundled and the
temporary directory replaced by <bundled> and <work>.  `diff` of the output
on two checkouts shows every call whose stdout, stderr or exit code
changed.  Only imports from `perfbench/`, which it does not change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from itertools import chain
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import workloads  # noqa: E402
import qglab  # noqa: E402
import qglab.cli  # noqa: E402
from qglab.graphfile import parse_graph  # noqa: E402
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


def digest(argv, dirs) -> str:
    """sha1 of stdout and of stderr, and the exit code, of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qglab.cli.main(argv)
        except Exception as exc:    # a crash is a result to compare, too
            rc = f"crash:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    texts = []
    for text in (out.getvalue(), err.getvalue()):
        for d, tag in dirs:
            text = text.replace(d, tag)
        texts.append(hashlib.sha1(text.encode()).hexdigest())
    return f"{texts[0]} {texts[1]} {rc}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=list(range(10)))
    args = ap.parse_args()
    bundled = str(Path(qglab.bundled_graph_path("triangle.qg")).parent)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [(tmp, "<work>"), (bundled, "<bundled>")]
        # lazily: each seed's graph files overwrite the last seed's
        calls = chain(workload_calls(args.seeds, bundled, Path(tmp)), bundled_calls(bundled))
        for name, argv in calls:
            shown = " ".join(a.replace(tmp, "<work>").replace(bundled, "<bundled>")
                             for a in argv)
            print(f"{name} | {shown} | {digest(argv, dirs)}", flush=True)


if __name__ == "__main__":
    main()
