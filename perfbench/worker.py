"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR [--setup-only]

Times the import of qglab plus writing the workload's graph files (set-up),
then runs a fixed number of whole passes over the operation list (what
fits in S seconds at PASS_S), each operation one in-process call of
`qglab.cli.main`.  Answers are checked after the timed passes.  With --trace 1,
untraced and traced passes alternate, so the tracing overhead is measured in
the same process.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
from allowances import Allowances  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# seconds per pass that fix each workload's pass count: a pass's time on the
# 2-CPU host the benchmark was written on (numpy 2.4.6, OpenBLAS on 1 thread),
# rounded up so that runs in its slow periods still end in time
PASS_S = {"spectrum": 5.0, "visibility": 7.0, "exact": 5.0}
REF_EVERY = 0.4        # seconds between two reference timings
REF_MATRIX = np.cos(np.arange(256.0)).reshape(16, 16)
OVERRUN = 2.0          # a run stops after this many times --seconds of passes


def import_qglab():
    sys.path.insert(0, str(SRC))
    import qglab
    import qglab.cli
    if not Path(qglab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qglab imported from {qglab.__file__}, not from {SRC}")
    return qglab


def build_ops(workload: str, seed: int, bundled_dir: str, workdir: Path):
    """The workload's operation list, with its generated graphs written out."""
    ops, drawn = workloads.build(workload, seed, bundled_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.file is None:
            op.file = str(workdir / f"{op.name}.qg")
            with open(op.file, "w") as fh:
                fh.write(gen.to_qg(op.graph))
    return ops, drawn


def setup(args):
    """Import qglab, build the operation list, write the graph files."""
    qglab = import_qglab()
    bundled_dir = str(Path(qglab.bundled_graph_path("triangle.qg")).parent)
    ops, drawn = build_ops(args.workload, args.seed, bundled_dir, Path(args.workdir))
    return ops, drawn, bundled_dir, time.perf_counter() - T_START


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        rc = "crash: " + traceback.format_exc(limit=3)
    return (t0, time.perf_counter()), rc, out.getvalue()


def check_op(op, rc, stdout, qgraph_cache) -> check.Verdict:
    """Verdict on one operation's result."""
    from qglab import Step, parse_graph, resonance_dimension_oracle
    if not isinstance(rc, int) or rc not in (0, 2) or (rc == 2 and op.command in
                                                          ("resonances", "basis")):
        return check.Verdict([("exit", f"exit {rc}")])
    try:
        payload = json.loads(stdout)
    except ValueError:
        return check.Verdict([("output", "stdout is not JSON")])
    lam = float(op.lambda_max) if op.lambda_max else None
    if op.command == "spectrum":
        return check.check_spectral(op.graph, lam, rc, payload["rows"], "multiplicity")
    if op.command == "visibility":
        v = check.check_spectral(op.graph, lam, rc, payload["rows"], "dim_ker")
        return check.check_visibility_rows(v, payload["rows"])
    if op.file not in qgraph_cache:
        qgraph_cache[op.file] = parse_graph(op.file)
    qgraph = qgraph_cache[op.file]
    if op.command == "resonances":
        return check.check_resonances(op.graph, qgraph, lam, payload,
                                      resonance_dimension_oracle, Step)
    step = (Fraction(op.step[0]), op.step[1])
    return check.check_basis(qgraph, step, payload, resonance_dimension_oracle, Step)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(), "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference() -> float:
    """Seconds a fixed piece of work takes now, a measure of the host's
    current speed: integer arithmetic in the interpreter and small SVDs in
    LAPACK, the two kinds of work qglab does.  It never changes with the
    program, so it may be used to scale the program's times."""
    t0 = time.perf_counter()
    s = 0
    for i in range(120000):
        s += i * i % 7
    for _ in range(240):
        np.linalg.svd(REF_MATRIX)
    return time.perf_counter() - t0


class HostSpeed:
    """Times reference() every REF_EVERY seconds of wall time from a SIGALRM
    handler, so also in the middle of a long operation, and gives each
    operation its latency without those interruptions and the mean
    reference time around and inside it."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []     # (start, seconds)

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference()
        self.marks.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def sample(self, t0: float, t1: float) -> tuple[float, float]:
        """(latency, reference seconds) of an operation run from t0 to t1."""
        inside = [d for t, d in self.marks if t0 <= t < t1]
        before = [d for t, d in self.marks if t < t0][-1:]
        after = [d for t, d in self.marks if t >= t1][:1]
        refs = before + inside + after
        return t1 - t0 - sum(inside), sum(refs) / len(refs)


def passes_for(workload: str, seconds: float) -> int:
    """Passes a run makes: what fits in `seconds` at PASS_S, the same for
    every version of the program, so each one is measured by the same
    statistic over the same number of samples."""
    return max(2, int(seconds / PASS_S[workload]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops, drawn, bundled_dir, setup_s = setup(args)
    reference()            # the first call pays LAPACK's own set-up
    setup_ref_s = reference()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return
    allow = Allowances.load(args.workload, args.seed)

    cli = sys.modules["qglab.cli"]
    run_op(cli, [ops[0].command, f"{bundled_dir}/triangle.qg", "--lambda-max", "50",
                 "--format", "json"])   # warm-up, untimed

    tracer = spans.Tracer() if args.trace else None
    n_passes = passes_for(args.workload, args.seconds)
    passes = []            # (traced, [((start, end), rc, stdout)])
    speed = HostSpeed()
    speed.start()
    t0 = time.perf_counter()
    while len(passes) < n_passes:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        results = []
        for i, op in enumerate(ops):
            if traced:
                tracer.op = (len(passes), i)
            results.append(run_op(cli, op.argv()))
            if traced:
                tracer.op = None
        passes.append((traced, results))
        if len(passes) == 1:
            # later passes only add allocator fragmentation from the benchmark's
            # own bookkeeping, so the high-water mark is read here
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
        if time.perf_counter() - t0 > OVERRUN * args.seconds and len(passes) >= 2:
            break          # far slower than PASS_S: end within the run's deadline
    speed.stop()
    # (latency, rc, stdout) and the reference time of every operation
    passes = [(traced, [(*speed.sample(*span), rc, stdout) for span, rc, stdout in results])
              for traced, results in passes]

    # checks, untimed: a result identical to an earlier pass's shares its verdict
    verdicts, cache = {}, {}
    failures, failed, incorrect, eig_err = [], 0, 0, []
    for n, (_, results) in enumerate(passes):
        drawn_defects = dict.fromkeys(check.DEFECTS, 0)
        for op, (_, _, rc, stdout) in zip(ops, results):
            key = (op.name, str(rc), stdout)
            if key not in verdicts:
                verdicts[key] = check_op(op, rc, stdout, cache)
            v = verdicts[key]
            if op.drawn:
                for k, c in v.defects.items():
                    drawn_defects[k] += c
            if not v.failed:
                continue
            failed += 1
            over = v.over(allow.for_op(op))
            incorrect += bool(v.problems or over)
            if n == 0 or v.problems or over:
                failures.append({"pass": n, "op": op.name, "command": op.command,
                                 "problems": [list(p) for p in v.problems],
                                 "defects": v.defects, "over_ceiling": over})
        eig_err.append(sum(verdicts[(op.name, str(rc), stdout)].eig_err
                           for op, (_, _, rc, stdout) in zip(ops, results)))
        over = allow.over_total(drawn_defects)
        if over:
            incorrect += 1
            failures.append({"pass": n, "op": "all random graphs", "command": "",
                             "problems": [], "defects": drawn_defects, "over_ceiling": over})

    untraced = [p for p in passes if not p[0]]
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "passes": len(untraced),
        "batch_s": [sum(r[0] for r in p[1]) for p in untraced],
        "op_names": [op.name for op in ops],
        "op_s": [[p[1][i][0] for p in untraced] for i in range(len(ops))],
        "op_ref_s": [[p[1][i][1] for p in untraced] for i in range(len(ops))],
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "incorrect": incorrect,
        "eig_count_err": statistics.median(eig_err),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "drawn": drawn,
        "env": environment(),
    }
    if tracer:
        traced = [n for n, p in enumerate(passes) if p[0]]
        per_pass = [spans.layer_metrics(tracer.spans, n) for n in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        # run.py's batch_s estimator, unscaled: each operation's median over passes
        traced_s = sum(statistics.median(passes[n][1][i][0] for n in traced)
                       for i in range(len(ops)))
        layers["trace.batch_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - sum(statistics.median(s) for s in out["op_s"])
        layers["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        out["layers"] = layers
        out["spans_file"] = str(ROOT / ".perfbench" /
                                f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(out["spans_file"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
