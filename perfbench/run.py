"""qglab benchmark: time to a checked answer, end to end and per module.

    python3 perfbench/run.py --workload spectrum|visibility|exact|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; qglab is imported from its `src/`.  Each
workload runs in a fresh worker process with BLAS and OpenMP pinned to one
thread (qglab starts no threads of its own), so peak memory is per workload.
Set-up is timed in several extra short-lived processes and reported as the
median.  Times are scaled to one host speed with a fixed reference timed
between the operations (see `scaled`).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`metrics` holds the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1.  An operation fails on a nonzero exit code or a
failed check.  `correct` is false when a failure is not one of the known
open defects of the program, or shows more of them than the operation did
when the benchmark was written (see check.py and allowances.py).
Everything else, including fail_frac and eig_count_err, is printed above
that line and written to .perfbench/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from worker import OVERRUN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum", "visibility", "exact")
SETUP_PROBES = 6          # extra set-up timings; the worker's own makes seven
PROBE_S = 5.0             # allowance for one set-up probe
CHECK_S = 30.0            # allowance for checking the answers
# seconds worker.reference() takes on a calm core of the 2-CPU host the
# benchmark was written on (fastest of 200 calls there: 18.6 ms)
REF_S = 0.020


def worker_env() -> dict:
    env = dict(os.environ)
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def call_worker(args, workload: str, workdir: Path, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {workload} passed the run's deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(res: dict) -> list[list[float]]:
    """Each operation's samples at the host speed on which the worker's
    reference work takes REF_S.

    On a shared 2-CPU host a core's speed drifts by 15-80 % for tens of
    seconds at a time, so whole runs land in slow periods.  The worker times
    a fixed reference every REF_EVERY seconds, also in the middle of an
    operation, and a sample taken while the reference ran 1.5x slower than
    REF_S, on average over the references inside and next to it, is divided
    by 1.5.  The reference never changes with
    the program, so a faster program reads faster by the same factor.
    """
    return [[t * REF_S / r for t, r in zip(ts, rs)]
            for ts, rs in zip(res["op_s"], res["op_ref_s"])]


def latencies(op_samples: list[list[float]]) -> list[float]:
    """Every operation latency of the run, sorted, with each sample replaced
    by its operation's median over the run's passes.  Operations differ far
    more from each other than one operation does from pass to pass, so a
    percentile of these values picks the same operation in every run."""
    return sorted(statistics.median(s) for s in op_samples for _ in s)


def tail(xs: list[float]) -> tuple[float, float, int]:
    """Tail latency, its percentile and how many samples lie above it: the
    highest percentile with at least 10 samples above it.  The pass count is
    fixed per workload, so the percentile is too."""
    i = len(xs) - 11
    return xs[i], 100.0 * i / len(xs), len(xs) - 1 - i


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + SETUP_PROBES * PROBE_S + OVERRUN * args.seconds + CHECK_S
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{workload}-seed{args.seed}-{os.getpid()}"
    try:
        probes = [call_worker(args, workload, workdir / f"probe{i}", ["--setup-only"],
                              deadline) for i in range(SETUP_PROBES)]
        res = call_worker(args, workload, workdir / "main", [], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # each set-up scaled by the reference timed in its own process after it
    setups = [p["setup_s"] * REF_S / p["setup_ref_s"] for p in probes + [res]]
    samples = scaled(res)
    xs = latencies(samples)
    op_tail, pct, above = tail(xs)
    res["setup_probes_s"] = setups
    res["end_to_end"] = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_s": (sum(statistics.median(s) for s in samples), "s"),
        "op_p50_ms": (1e3 * statistics.median(xs), "ms"),
        "op_tail_ms": (1e3 * op_tail, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    res["unscaled_batch_s"] = sum(statistics.median(s) for s in res["op_s"])
    res["tail"] = {"percentile": pct, "samples": len(xs), "above": above}
    res["fail_frac"] = res["failed"] / res["attempted"]
    res["correct"] = res["incorrect"] == 0
    (out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    return res


def report(workload: str, res: dict, args) -> None:
    env = res["env"]
    print(f"== {workload}  seed={args.seed}  passes={res['passes']}  "
          f"ops/pass={len(res['op_s'])}  random graphs={res['drawn']['random_graphs']} "
          f"(draws rejected: {res['drawn']['redrawn']})")
    for name, (value, unit) in res["end_to_end"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{res['tail']['percentile']:.1f} of {res['tail']['samples']} "
                    f"operation latencies, {res['tail']['above']} above it)")
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_probes_s'])} processes)"
        print(f"  {name:<14} {value:12.6g} {unit}{note}")
    print(f"  {'(unscaled batch_s':<14} {res['unscaled_batch_s']:12.6g} s, median reference "
          f"{1e3 * statistics.median(r for rs in res['op_ref_s'] for r in rs):.4g} ms)")
    print(f"  {'fail_frac':<14} {res['fail_frac']:12.6g} ratio  "
          f"({res['failed']} of {res['attempted']} operations)")
    print(f"  {'eig_count_err':<14} {res['eig_count_err']:12.6g} count")
    for f in res["failures"]:
        over = f"  OVER CEILING {f['over_ceiling']}" if f["over_ceiling"] else ""
        print(f"  failed in pass {f['pass']}: {f['op']} ({f['command']}): "
              + "; ".join([text for _, text in f["problems"]]
                          + [f"{k} {n}" for k, n in f["defects"].items() if n]) + over)
    if "layers" in res:
        for name, value in res["layers"].items():
            print(f"  {name:<32} {value:12.6g} {spans.unit(name)}")
    print(f"  env: sha={env['git_sha']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} nproc={env['nproc']} affinity={env['affinity']} "
          f"threads={env['threads']}")


def summary(res: dict, trace: int) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["end_to_end"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qglab" / "__init__.py").is_file():
        print(f"error: no qglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        report(name, results[name], args)
    if args.workload == "all":
        print(json.dumps({name: summary(r, args.trace) for name, r in results.items()}))
    else:
        print(json.dumps(summary(results[args.workload], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
