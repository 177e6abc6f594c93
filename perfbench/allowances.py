"""Ceilings for the program's open defects, per operation.

The program this benchmark was written for misses some eigenvalues, and the
visibility identity then reads `VIOLATED` and the command exits with 2 (see
check.py).  A run stays correct while every operation shows at most the
defects it showed then, and becomes incorrect as soon as one shows more.

allowances.json holds those figures, recorded from the program itself:

    python3 perfbench/allowances.py --record FIRST_SEED LAST_SEED

    "fixed":    workload -> operation -> {kind: count}, for the operations
                every seed builds the same;
    "random":   workload -> seed -> operation -> {kind: count}, for the
                random graphs of each recorded seed;
    "fallback": workload -> {"per_op": {kind: count}, "total": {kind: count}},
                the largest count one random operation, and all random
                operations of one pass together, showed over the recorded
                seeds; it bounds seeds outside the recorded range.

Operations and kinds that are absent have ceiling 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import check

PATH = Path(__file__).resolve().with_name("allowances.json")


class Allowances:
    def __init__(self, table: dict, workload: str, seed: int):
        self.fixed = table["fixed"].get(workload, {})
        random_ = table["random"].get(workload, {})
        self.recorded = str(seed) in random_ or workload not in table["random"]
        self.random = random_.get(str(seed), {})
        fallback = table["fallback"].get(workload, {})
        self.per_op = fallback.get("per_op", {})
        self.total = fallback.get("total", {})

    @classmethod
    def load(cls, workload: str, seed: int) -> "Allowances":
        return cls(json.loads(PATH.read_text()), workload, seed)

    def for_op(self, op) -> dict[str, int]:
        if not op.drawn:
            return self.fixed.get(op.name, {})
        return self.random.get(op.name, {}) if self.recorded else self.per_op

    def over_total(self, drawn_defects: dict[str, int]) -> dict[str, int]:
        """Defects that the random operations of one pass exceed together;
        checked only for seeds outside the recorded range."""
        if self.recorded:
            return {}
        return {k: n for k, n in drawn_defects.items() if n > self.total.get(k, 0)}


def record(first: int, last: int) -> dict:
    """Run every operation of every workload once per seed and keep the
    defects it shows."""
    import worker

    qglab = worker.import_qglab()
    cli = sys.modules["qglab.cli"]
    bundled_dir = str(Path(qglab.bundled_graph_path("triangle.qg")).parent)
    table = {"fixed": {}, "random": {}, "fallback": {}}
    scratch = worker.ROOT / ".perfbench" / "allowances"
    for workload in ("spectrum", "visibility", "exact"):
        fixed, per_seed = {}, {}
        per_op, total = dict.fromkeys(check.DEFECTS, 0), dict.fromkeys(check.DEFECTS, 0)
        for seed in range(first, last + 1):
            t0 = time.perf_counter()
            ops, _ = worker.build_ops(workload, seed, bundled_dir, scratch / workload)
            seen, pass_total = {}, dict.fromkeys(check.DEFECTS, 0)
            for op in ops:
                if not op.drawn and seed > first:
                    continue
                _, rc, stdout = worker.run_op(cli, op.argv())
                v = worker.check_op(op, rc, stdout, {})
                if v.problems:
                    raise SystemExit(f"{workload} seed {seed} {op.name}: {v.problems}")
                defects = {k: n for k, n in v.defects.items() if n}
                if defects:
                    (seen if op.drawn else fixed)[op.name] = defects
                if op.drawn:
                    for k, n in v.defects.items():
                        per_op[k] = max(per_op[k], n)
                        pass_total[k] += n
            per_seed[str(seed)] = seen
            for k, n in pass_total.items():
                total[k] = max(total[k], n)
            print(f"{workload} seed {seed}: {seen} ({time.perf_counter() - t0:.1f} s)",
                  file=sys.stderr)
        table["fixed"][workload] = fixed
        table["random"][workload] = per_seed
        table["fallback"][workload] = {"per_op": per_op, "total": total}
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description="Record the defect ceilings in allowances.json.")
    ap.add_argument("--record", nargs=2, type=int, metavar=("FIRST_SEED", "LAST_SEED"),
                    required=True)
    args = ap.parse_args()
    table = record(*args.record)
    table["commit"] = __import__("worker").git_sha()
    table["seeds"] = args.record
    PATH.write_text(json.dumps(table, indent=None, separators=(",", ":"), sort_keys=True)
                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
