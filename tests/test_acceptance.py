"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with `pytest -v -s` or in the captured output on failure).
Criteria with runtime budgets enforce them with a wall-clock assertion.
"""

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from qglab import (Step, build_lambda_subgraph, candidate_steps, eigenvalues_in,
                   ntd_matrix, resonance_dimension, resonance_dimension_oracle,
                   resonance_floor, residue, select_vertices, visibility_report)
from qglab.cli import OK, main

from conftest import mk
from randgraphs import all_steps, random_graph
from test_resonance import check_basis


@contextmanager
def criterion(n, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} [{label}]: FAIL", file=sys.stderr)
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {n} [{label}]: PASS ({dt:.2f}s)")
    if budget is not None:
        assert dt < budget, f"runtime {dt:.2f}s over the {budget}s budget"


def suite3_graphs():
    rng = random.Random(2024)
    return [random_graph(rng) for _ in range(200)]


def test_criterion_1_dumbbell_resonance_table(dumbbell, tmp_path):
    with criterion(1, "dumbbell resonance table", budget=1.0):
        out = tmp_path / "rows.json"
        import qglab
        code = main(["resonances", str(qglab.bundled_graph_path("dumbbell.qg")),
                     "--lambda-max", "14", "--format", "json", "-o", str(out)])
        assert code == OK
        rows = json.loads(out.read_text())["rows"]
        got = [(r["beta1"], r["beta0_odd"], r["dim_R"], r["resonance"])
               for r in rows]
        assert got == [(2, 2, 0, "no"), (0, 0, 0, "no"),
                       (2, 1, 1, "yes"), (2, 0, 2, "yes")]
        lams = [float(r["lambda"]) for r in rows]
        want = [math.pi ** 2 / 3, 4.0, math.pi ** 2, 4 * math.pi ** 2 / 3]
        assert np.allclose(lams, want, rtol=1e-12)


def test_criterion_2_loop_pendant_end_to_end(loop_pendant):
    with criterion(2, "loop-pendant end to end", budget=5.0):
        lam = 4 * math.pi ** 2
        spec = eigenvalues_in(loop_pendant, 45)
        hit = min(spec.eigenvalues, key=lambda h: abs(h.lam - lam))
        assert hit.multiplicity == 1
        assert abs(hit.k - 2 * math.pi) <= 1e-9

        rep = resonance_dimension(loop_pendant, Step(Fraction(1, 2), "one"))
        assert rep.dim == 1

        below = max(h.lam for h in spec.eigenvalues if h.lam < lam - 1e-6)
        r = min((lam - below) / 2, 0.5)
        for sel in (select_vertices(loop_pendant, ["v"]),
                    select_vertices(loop_pendant, ["v", "w"]),
                    select_vertices(loop_pendant)):
            est = residue(loop_pendant, sel, lam, hit.multiplicity)
            assert est.rank == 0
            reference = np.linalg.norm(ntd_matrix(loop_pendant, sel, lam + r), 2)
            assert np.linalg.norm(est.matrix) <= 1e-8 * reference

        vis = visibility_report(loop_pendant, select_vertices(loop_pendant), 45)
        row = min(vis.rows, key=lambda r: abs(r.lam - lam))
        assert row.classification == "invisible"


def test_criterion_3_theorem_vs_oracle_sweep():
    with criterion(3, "theorem vs oracle on 200 random multigraphs", budget=60.0):
        failures = 0
        for g in suite3_graphs():
            for step in all_steps(g, n_max=8):
                if resonance_dimension(g, step).dim != \
                        resonance_dimension_oracle(g, step):
                    failures += 1
        assert failures == 0


def test_criterion_4_visibility_identity_dumbbell(dumbbell):
    with criterion(4, "kernel = residue rank + resonance identity", budget=30.0):
        rep = visibility_report(dumbbell, select_vertices(dumbbell), 14.0)
        assert rep.rows
        for row in rep.rows:
            assert row.dim_ker == row.rank_residue + row.dim_resonance, row
            assert row.identity_ok
        assert rep.all_identities_hold


def test_criterion_5_spectral_baseline(unit_loop):
    with criterion(5, "interval and loop spectra"):
        edge = mk(["a", "b"], [("e", "a", "b", 1, "pi")],
                  {"pi": 3.141592653589793})
        spec = eigenvalues_in(edge, 100.5)
        hits = [h for h in spec.eigenvalues if h.lam > 0]
        assert len(hits) == 10
        for n, h in enumerate(hits, start=1):
            assert abs(h.k - n) <= 1e-9
            assert h.multiplicity == 1

        spec = eigenvalues_in(unit_loop, (6 * math.pi) ** 2 + 1)
        hits = [h for h in spec.eigenvalues if h.lam > 0]
        assert len(hits) == 3
        for n, h in enumerate(hits, start=1):
            assert abs(h.k - 2 * math.pi * n) <= 1e-9
            assert h.multiplicity == 2


def test_criterion_6_basis_soundness(dumbbell, loop_pendant):
    with criterion(6, "constructive basis soundness"):
        checked = 0
        for g in (dumbbell, loop_pendant, *suite3_graphs()):
            for c in candidate_steps(g, 40.0):
                if resonance_dimension(g, c.step).dim > 0:
                    check_basis(g, c.step)  # exact: support, vanishing, rank
                    checked += 1
        assert checked > 0


def test_criterion_7_resonance_floor_gate(dumbbell):
    with criterion(7, "no resonance below the floor"):
        for g in suite3_graphs():
            floor = resonance_floor(g)
            for step in all_steps(g, n_max=8):
                if step.lambda_value(g) < floor.lam * (1 - 1e-12):
                    assert resonance_dimension(g, step).dim == 0
        floor = resonance_floor(dumbbell)
        assert abs(floor.lam - math.pi ** 2 / 3) <= 1e-12 * floor.lam
        at_floor = resonance_dimension(dumbbell, floor.unit_length)
        assert at_floor.dim == 0


def test_criterion_8_tw_structure():
    with criterion(8, "Neumann-to-Dirichlet symmetry and closed form"):
        rng = random.Random(7)
        for g in suite3_graphs():
            if any(g.degree(v) == 0 for v in g.vertices):
                continue  # map undefined at isolated vertices
            sel = select_vertices(g)
            for _ in range(20):
                mu = complex(rng.uniform(-6, 6), rng.uniform(0.5, 4.0))
                m = ntd_matrix(g, sel, mu)
                scale = max(np.linalg.norm(m), 1e-300)
                assert np.linalg.norm(m - m.T) <= 1e-10 * scale
                mc = ntd_matrix(g, sel, mu.conjugate())
                assert np.linalg.norm(mc - m.conjugate()) <= 1e-10 * scale

        edge = mk(["a", "b"], [("e", "a", "b", 1, "one")], {"one": 1.0})
        m = ntd_matrix(edge, select_vertices(edge), -1.0)
        coth1 = math.cosh(1) / math.sinh(1)
        csch1 = 1.0 / math.sinh(1)
        assert abs(m[0, 0] - coth1) <= 1e-10
        assert abs(m[1, 1] - coth1) <= 1e-10
        assert abs(m[0, 1] - csch1) <= 1e-10
        assert abs(m[1, 0] - csch1) <= 1e-10
