"""Answer checks, run outside the timed region.

Spectral operations are checked against an independent eigenvalue count:
for Kirchhoff conditions the bond-scattering matrix on the 2E directed bonds,
S[b', b] = 2/deg(v) - delta(b', reverse b), does not depend on k, and the
eigenphases of U(k) S with U = diag(exp(i k L_b)) increase with k
(Kottos & Smilansky, Ann. Phys. 274, 1999).  Hence

    N(k) = (2 L_tot k - sum_j w_j(k)) / 2 pi + c,

with w_j in [0, 2 pi) the wrapped eigenphases, counts the positive
eigenvalues up to k exactly once c is calibrated at k = pi / (2 L_tot),
which lies below the first positive eigenvalue.

The exact side is checked against the package's integer-elimination oracle
and against the resonance floor recomputed here from step subgraphs.

Each check returns a `Verdict`.  Its `problems` are failures no allowance
covers.  Its `defects` count the open defects of the program being measured
that the benchmark tolerates up to a ceiling: eigenvalues missed, `VIOLATED`
visibility rows (which the missed eigenvalues cause) and exit code 2 (the
program's own warning).  The ceilings are what the program did when the
benchmark was written, per operation (see allowances.py); a run is
incorrect when any operation exceeds its ceiling, so a change that misses
more eigenvalues shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEFECTS = ("missed", "violated", "exit2")


@dataclass
class Verdict:
    problems: list[tuple[str, str]] = field(default_factory=list)
    defects: dict[str, int] = field(default_factory=dict)
    eig_err: int = 0      # |reference count - reported count|, spectral commands

    @property
    def failed(self) -> bool:
        return bool(self.problems) or any(self.defects.values())

    def over(self, allowed: dict[str, int]) -> dict[str, int]:
        """Defects above their ceiling `allowed` (kind -> count)."""
        return {k: n for k, n in self.defects.items() if n > allowed.get(k, 0)}


class CountError(RuntimeError):
    """The reference count was not an integer: the checker, not the program,
    is at fault."""


class EigenphaseCounter:
    def __init__(self, graph: dict):
        approx = dict(graph["units"])
        edges = graph["edges"]
        # bond 2j runs origin -> terminus of edge j, bond 2j+1 the reverse
        heads, tails, lengths = [], [], []
        for _, o, t, c, u in edges:
            ln = float(c) * approx[u]
            tails += [o, t]
            heads += [t, o]
            lengths += [ln, ln]
        deg = {v: 0 for v in graph["vertices"]}
        for _, o, t, _, _ in edges:
            deg[o] += 1
            deg[t] += 1
        nb = len(lengths)
        s = np.zeros((nb, nb))
        for b in range(nb):
            v = heads[b]
            for b2 in range(nb):
                if tails[b2] == v:
                    s[b2, b] = 2.0 / deg[v] - (b2 == (b ^ 1))
        self.s = s
        self.lengths = np.array(lengths)
        self.l_tot = float(np.sum(lengths)) / 2.0
        k0 = math.pi / (2.0 * self.l_tot)
        self.c = -self._raw(k0)

    def _raw(self, k: float) -> float:
        w = np.angle(np.linalg.eigvals(np.exp(1j * k * self.lengths)[:, None] * self.s))
        w = np.mod(w, 2.0 * math.pi)
        return (2.0 * self.l_tot * k - float(np.sum(w))) / (2.0 * math.pi)

    def count(self, k: float) -> int:
        """Number of eigenvalues lambda = kappa^2 with 0 < kappa <= k."""
        n = self._raw(k) + self.c
        if abs(n - round(n)) > 1e-6:
            raise CountError(f"eigenphase count {n!r} at k={k!r} is not an integer")
        return int(round(n))


def check_spectral(graph: dict, lambda_max: float, rc: int, rows: list[dict],
                   mult_key: str) -> Verdict:
    """Verdict on one spectrum or visibility result; `mult_key` names the
    multiplicity column."""
    v = Verdict(defects={"exit2": int(rc == 2)})
    counter = EigenphaseCounter(graph)
    kmax = math.sqrt(lambda_max)
    hits = [(math.sqrt(float(r["lambda"])), int(r[mult_key])) for r in rows
            if 0.0 < float(r["lambda"]) <= lambda_max]
    reference = counter.count(kmax * (1 + 1e-12))
    reported = sum(m for _, m in hits)
    v.eig_err = abs(reference - reported)
    v.defects["missed"] = max(reference - reported, 0)
    if reported > reference:
        v.problems.append(("overcount", f"{reported} reported, {reference} exist"))
    for k, _ in hits:
        d = 1e-6 * max(1.0, k)
        jump = counter.count(k + d) - counter.count(max(k - d, 1e-300))
        claimed = sum(m for k2, m in hits if abs(k2 - k) <= d)
        if jump == 0:
            v.problems.append(("spurious", f"no eigenvalue near k={k!r}"))
        elif claimed > jump:
            v.problems.append(("overcount", f"multiplicity {claimed} > {jump} at k={k!r}"))
    return v


def check_visibility_rows(v: Verdict, rows: list[dict]) -> Verdict:
    v.defects["violated"] = sum(1 for r in rows if r["identity"] != "ok")
    return v


def beta1(edges) -> int:
    """First Betti number of an edge list (loops and parallel edges count)."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    beta1 = 0
    for _, o, t, _, _ in edges:
        a, b = find(o), find(t)
        if a == b:
            beta1 += 1
        else:
            parent[a] = b
    return beta1


def expected_floor(graph: dict):
    """pi^2/s^2 for the largest step s = L(e)/n whose step subgraph has a
    cycle, or None when no commensurate cycle exists."""
    approx = dict(graph["units"])
    best = None
    for unit in approx:
        edges = [e for e in graph["edges"] if e[4] == unit]
        if beta1(edges) == 0:
            continue
        g = Fraction(0)
        for e in edges:
            g = Fraction(math.gcd(g.numerator, e[3].numerator),
                         math.lcm(g.denominator, e[3].denominator))
        steps = sorted({e[3] / n for e in edges
                        for n in range(1, int(e[3] / g) + 1)}, reverse=True)
        for s in steps:
            if beta1([e for e in edges if (e[3] / s).denominator == 1]) > 0:
                val = float(s) * approx[unit]
                if best is None or val > best:
                    best = val
                break
    return None if best is None else math.pi ** 2 / best ** 2


def expected_steps(graph: dict, lambda_max: float):
    """Candidate steps L(e)/n with pi^2/s^2 <= lambda_max, split into those
    clearly inside and those within rounding of the cut."""
    approx = dict(graph["units"])
    inside, edge = set(), set()
    for _, _, _, c, u in graph["edges"]:
        n = 1
        while True:
            lam = math.pi ** 2 / (float(c / n) * approx[u]) ** 2
            if lam > lambda_max * (1 + 1e-9):
                break
            (inside if lam < lambda_max * (1 - 1e-9) else edge).add((c / n, u))
            n += 1
    return inside, edge


def parse_step(text: str) -> tuple[Fraction, str]:
    coeff, unit = text.split("*")
    return Fraction(coeff), unit


def check_resonances(graph: dict, qgraph, lambda_max: float, payload,
                     oracle, step_type) -> Verdict:
    v = Verdict()
    got = {parse_step(r["step"]) for r in payload["rows"]}
    inside, edge = expected_steps(graph, lambda_max)
    if not inside <= got or not got <= inside | edge:
        v.problems.append(("steps", f"steps {sorted(got ^ inside)} differ"))
    for r in payload["rows"]:
        want = oracle(qgraph, step_type(*parse_step(r["step"])))
        if int(r["dim_R"]) != want:
            v.problems.append(("dim", f"dim_R {r['dim_R']} != oracle {want} at {r['step']}"))
    floor = payload["meta"]["lambda_floor"]
    want = expected_floor(graph)
    if (floor is None) != (want is None) or (
            want is not None and not math.isclose(floor, want, rel_tol=1e-9)):
        v.problems.append(("floor", f"floor {floor} != {want}"))
    return v


def check_basis(qgraph, step: tuple[Fraction, str], payload, oracle, step_type) -> Verdict:
    want = oracle(qgraph, step_type(*step))
    n = len(payload["functions"])
    if n != want or payload["dim_R"] != want:
        return Verdict([("basis", f"{n} functions, dim_R {payload['dim_R']}, oracle {want}")])
    return Verdict()
