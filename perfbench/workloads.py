"""The three workloads: fixed operation lists built from a seed.

Every operation is one `qglab` CLI invocation on one graph file.  Random
graphs follow the edge, endpoint and length distribution of the test suite's
random sweep, with one fixed vertex and edge count per workload, and take a
lambda_max below which each has the same number of eigenvalues (counted
exactly by the checker's eigenphase count) or of candidate steps.  The seed
then changes the graphs and their spectra but hardly the amount of work, so
the median and tail latencies stay put from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import check
import gen

BUNDLED = ("dumbbell", "loop-pendant", "triangle", "tree", "interval-pi")


@dataclass
class Op:
    name: str
    command: str                  # spectrum | visibility | resonances | basis
    graph: dict
    file: Optional[str] = None    # bundled file, or where the graph is written
    lambda_max: Optional[str] = None
    step: Optional[tuple[str, str]] = None
    drawn: bool = False           # a random graph, which the seed changes

    def argv(self) -> list[str]:
        if self.command == "basis":   # basis prints JSON and takes no --format
            return ["basis", self.file, "--step", *self.step]
        return [self.command, self.file, "--lambda-max", self.lambda_max,
                "--format", "json"]


def _kappa(counter, n: int, hi: float) -> float:
    """Smallest k with at least n eigenvalues in (0, k], to 1e-7 relative."""
    while counter.count(hi) < n:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-7 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if counter.count(mid) >= n else (mid, hi)
    return hi


def _spectral_lambda(graph: dict, n: int) -> str:
    """lambda_max with at least n eigenvalues below it, halfway (in k) to the
    next one, so every draw does the same number of refinements and residues
    and no eigenvalue sits near the cut."""
    counter = check.EigenphaseCounter(graph)
    guess = n * math.pi / gen.total_length(graph)      # Weyl's law
    k_a = _kappa(counter, n, guess)
    k_b = _kappa(counter, counter.count(k_a * (1 + 1e-7)) + 1, k_a)
    return f"{(0.5 * (k_a + k_b)) ** 2:.12g}"


def _steps_lambda(graph: dict, n: int) -> str:
    """lambda_max with exactly n candidate steps L(e)/n' below it."""
    approx = dict(graph["units"])
    lams = sorted({math.pi ** 2 / (float(c / m) * approx[u]) ** 2
                   for _, _, _, c, u in graph["edges"] for m in range(1, n + 1)})
    k_a, k_b = math.sqrt(lams[n - 1]), math.sqrt(lams[n])
    return f"{(0.5 * (k_a + k_b)) ** 2:.12g}"


def _resonance_free(graph: dict, lambda_max: str) -> bool:
    """No step subgraph below lambda_max has a cycle, so no eigenvalue there
    can be a resonance and every residue contour converges the same way."""
    inside, edge = check.expected_steps(graph, float(lambda_max))
    return not any(check.beta1([e for e in graph["edges"]
                                if e[4] == u and (e[3] / s).denominator == 1])
                   for s, u in inside | edge)


def _random_ops(rng: random.Random, command: str, count: int, size: tuple[int, int],
                per_graph: int) -> tuple[list[Op], int]:
    """Random operations and the number of draws rejected: spectral commands
    refuse isolated vertices by design, and visibility draws with a possible
    resonance are redrawn (a residue at an invisible eigenvalue runs to the
    node limit and costs several times the others, which made the median
    latency depend on how many such draws a seed made)."""
    ops, redrawn = [], 0
    while len(ops) < count:
        g = gen.random_multigraph(rng, *size)
        if command == "resonances":
            ops.append(Op(f"rand{len(ops)}", command, g, lambda_max=_steps_lambda(g, per_graph),
                          drawn=True))
            continue
        lam = None if gen.has_isolated_vertex(g) else _spectral_lambda(g, per_graph)
        if lam is None or (command == "visibility" and not _resonance_free(g, lam)):
            redrawn += 1
            continue
        ops.append(Op(f"rand{len(ops)}", command, g, lambda_max=lam, drawn=True))
    return ops, redrawn


def build(workload: str, seed: int, bundled_dir: str) -> tuple[list[Op], dict]:
    """Operation list of one workload and facts about how it was drawn."""
    rng = random.Random(seed)

    def bundled(name, command, lam):
        path = f"{bundled_dir}/{name}.qg"
        with open(path) as fh:
            return Op(name, command, gen.parse_qg(fh.read()), file=path, lambda_max=lam)

    if workload == "spectrum":
        ops = [bundled(b, "spectrum", "200") for b in BUNDLED]
        ops.append(Op("grid4", "spectrum", gen.unit_grid(4), lambda_max="15"))
        ops += [Op(f"chain{m}", "spectrum", gen.triangle_chain(m), lambda_max="25")
                for m in (6, 8)]
        rand, redrawn = _random_ops(rng, "spectrum", 12, (5, 8), per_graph=12)
    elif workload == "visibility":
        ops = [bundled("dumbbell", "visibility", "45"),
               bundled("loop-pendant", "visibility", "45"),
               bundled("triangle", "visibility", "100"),
               bundled("tree", "visibility", "100"),
               Op("grid3", "visibility", gen.unit_grid(3), lambda_max="20")]
        rand, redrawn = _random_ops(rng, "visibility", 12, (3, 5), per_graph=2)
    elif workload == "exact":
        ops = [bundled("dumbbell", "resonances", "200")]
        ops += [Op(f"grid{n}", "resonances", gen.unit_grid(n), lambda_max="200")
                for n in (3, 4, 5)]
        ops += [Op(f"chain{m}", "resonances", gen.triangle_chain(m), lambda_max="200")
                for m in range(14, 20)]
        for n in (10, 12):
            grid = gen.unit_grid(n)
            ops += [Op(f"grid{n}-step{c.replace('/', '_')}", "basis", grid, step=(c, "one"))
                    for c in ("1", "1/2")]
        rand, redrawn = _random_ops(rng, "resonances", 40, (5, 8), per_graph=60)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops + rand, {"random_graphs": len(rand), "redrawn": redrawn}
