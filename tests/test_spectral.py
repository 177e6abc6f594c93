import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qglab import (Edge, ExactLength, MetricGraph, assemble_secular, betti_graph,
                   eigenspace, eigenvalues_in, kernels)

from conftest import mk, unit_grid
from randgraphs import random_graph


def nullity(graph, k, tol=1e-8):
    return assemble_secular(graph, k).nullity(tol)


# ---------------------------------------------------------------------------
# secular assembly


def test_interval_nullity_at_eigenvalue(interval_pi):
    assert nullity(interval_pi, 1.0) == 1
    assert nullity(interval_pi, 1.5) == 0
    assert nullity(interval_pi, 2.0) == 1


def test_loop_nullity_multiplicity_two(unit_loop):
    assert nullity(unit_loop, 2 * math.pi) == 2
    assert nullity(unit_loop, 5.0) == 0


def test_nullity_at_zero_is_component_count(dumbbell, path3):
    two = mk(["a", "b", "c", "d"],
             [("e1", "a", "b", 1, "u"), ("e2", "c", "d", 1, "u")], {"u": 1.0})
    for g in (dumbbell, path3, two):
        assert nullity(g, 0.0) == betti_graph(g).beta0


def test_system_dimensions(dumbbell):
    sys_ = assemble_secular(dumbbell, 1.0)
    n = 2 * len(dumbbell.edges) + len(dumbbell.vertices)
    assert sys_.matrix.shape == (n, n)


def test_isolated_vertex_rejected():
    g = mk(["a", "b", "z"], [("e", "a", "b", 1, "u")], {"u": 1.0})
    with pytest.raises(ValueError, match="isolated"):
        assemble_secular(g, 1.0)


def test_nullity_invariant_under_orientation_flip(loop_pendant):
    flipped = MetricGraph.build(
        loop_pendant.vertices,
        [Edge(e.id, e.terminus, e.origin, e.length) for e in loop_pendant.edges],
        dict(loop_pendant.units.entries))
    for k in (1.0, 2.0, 2 * math.pi, 4.5):
        assert nullity(loop_pendant, k) == nullity(flipped, k)


def test_nullity_invariant_under_subdivision(unit_triangle):
    # split e1 into two half edges through a new vertex
    edges = [e for e in unit_triangle.edges if e.id != "e1"]
    edges += [Edge("e1a", "v1", "mid", ExactLength(Fraction(1, 2), "one")),
              Edge("e1b", "mid", "v2", ExactLength(Fraction(1, 2), "one"))]
    divided = MetricGraph.build(list(unit_triangle.vertices) + ["mid"], edges,
                                dict(unit_triangle.units.entries))
    for k in (1.0, math.pi, 2 * math.pi, 3.3):
        assert nullity(unit_triangle, k) == nullity(divided, k)


# ---------------------------------------------------------------------------
# eigenvalue scan


def test_interval_spectrum(interval_pi):
    spec = eigenvalues_in(interval_pi, 10)
    lams = [(h.lam, h.multiplicity) for h in spec.eigenvalues]
    assert len(lams) == 4
    for (lam, mult), want in zip(lams, (0, 1, 4, 9)):
        assert mult == 1
        assert lam == pytest.approx(want, abs=1e-9)


def test_loop_spectrum_multiplicities(unit_loop):
    spec = eigenvalues_in(unit_loop, 160)
    got = [(h.lam, h.multiplicity) for h in spec.eigenvalues]
    assert got[0] == (0.0, 1)
    assert len(got) == 3
    for (lam, mult), n in zip(got[1:], (1, 2)):
        assert mult == 2
        assert math.sqrt(lam) == pytest.approx(2 * math.pi * n, abs=1e-9)


def test_loop_pendant_detects_resonant_eigenvalue(loop_pendant):
    spec = eigenvalues_in(loop_pendant, 45)
    hit = min(spec.eigenvalues, key=lambda h: abs(h.lam - 4 * math.pi ** 2))
    assert hit.multiplicity == 1
    assert abs(hit.k - 2 * math.pi) <= 1e-9


def test_scan_deterministic(interval_pi):
    a = eigenvalues_in(interval_pi, 10)
    b = eigenvalues_in(interval_pi, 10)
    assert a == b


def _spectral_graphs(seed, count):
    """`count` random multigraphs without the isolated vertices that the
    spectral operations reject."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng)
        if all(g.degree(v) for v in g.vertices):
            graphs.append(g)
    return graphs


def test_reported_lambda_matches_nullity(loop_pendant, dumbbell):
    graphs = [(loop_pendant, 45), (dumbbell, 200)]
    graphs += [(g, 60) for seed in (3, 7) for g in _spectral_graphs(seed, 50)]
    for g, lambda_max in graphs:
        spec = eigenvalues_in(g, lambda_max)
        assert not spec.warnings
        for h in spec.eigenvalues[1:]:
            assert nullity(g, h.k) == h.multiplicity, (g, h)


def test_dumbbell_finds_close_eigenvalues(dumbbell):
    # 6.28761 lies 0.0044 from the eigenvalue at 2 pi
    spec = eigenvalues_in(dumbbell, 200)
    assert sum(h.multiplicity for h in spec.eigenvalues[1:]) == 77
    for k in (6.28761, 8.44234, 9.20392):
        assert any(abs(h.k - k) < 1e-4 for h in spec.eigenvalues), k


def test_no_hit_above_lambda_max():
    # strip of 8 triangles, edge j of unit j mod 4 of {1, sqrt2, sqrt3, sqrt5};
    # the next eigenvalue, 25.0064, lies just above the cut
    units = {"one": 1.0, "sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3),
             "sqrt5": math.sqrt(5)}
    pairs = [(i, i + 1) for i in range(9)] + [(i, i + 2) for i in range(8)]
    strip = mk([f"c{i}" for i in range(10)],
               [(f"t{a}_{b}", f"c{a}", f"c{b}", 1, list(units)[j % 4])
                for j, (a, b) in enumerate(pairs)], units)
    spec = eigenvalues_in(strip, 25)
    assert spec.eigenvalues[-1].lam > 20
    assert all(h.lam <= 25 for h in spec.eigenvalues)


def test_short_loop_has_only_zero_below_cutoff():
    # the first positive eigenvalue of a loop of length 1/6 is (12 pi)^2
    loop = mk(["w"], [("e", "w", "w", Fraction(1, 6), "one")], {"one": 1.0})
    spec = eigenvalues_in(loop, 60)
    assert [(h.lam, h.multiplicity) for h in spec.eigenvalues] == [(0.0, 1)]


def test_grid_multiplicity_at_half_pi():
    spec = eigenvalues_in(unit_grid(4), 15)
    hit = min(spec.eigenvalues, key=lambda h: abs(h.k - math.pi / 2))
    assert hit.k == pytest.approx(math.pi / 2, abs=1e-10)
    assert hit.multiplicity == 4


def test_count_off_integer_warns(interval_pi, monkeypatch):
    # a count that leaves the integers must show, not be rounded away
    exact = kernels.eigenphase_count

    def drifting(*args):
        count, phase = exact(*args)
        return count + 0.25 * (np.asarray(args[4]) > 2.0), phase

    monkeypatch.setattr(kernels, "eigenphase_count", drifting)
    spec = eigenvalues_in(interval_pi, 10)
    assert any("not an integer" in w for w in spec.warnings)


# ---------------------------------------------------------------------------
# eigenspace extraction


def test_eigenspace_at_zero(path3):
    funcs, flags = eigenspace(path3, 0.0, 1)
    assert len(funcs) == 1
    # constant: no slope anywhere
    for a, b in funcs[0].coeffs.values():
        assert b == pytest.approx(0.0, abs=1e-10)


def test_eigenspace_loop_pendant_scar(loop_pendant):
    funcs, flags = eigenspace(loop_pendant, 4 * math.pi ** 2, 1)
    assert len(funcs) == 1
    f = funcs[0]
    a1, b1 = f.coeffs["e1"]
    a2, b2 = f.coeffs["e2"]
    # zero on the pendant edge, pure sine on the loop
    assert abs(a1) < 1e-9 and abs(b1) < 1e-9
    assert abs(a2) < 1e-9
    assert abs(b2) == pytest.approx(1.0, abs=1e-9)
    assert all(abs(v) < 1e-9 for v in f.vertex_values.values())


def test_eigenspace_residuals_small(interval_pi):
    funcs, flags = eigenspace(interval_pi, 4.0, 1)
    assert len(funcs) == 1
    assert not any("residual" in fl for fl in flags)


def test_eigenspace_empty_off_spectrum(interval_pi):
    # 2.5 is no eigenvalue: the vector asked for is not separated from the rest
    funcs, flags = eigenspace(interval_pi, 2.5, 1)
    assert len(funcs) == 1
    assert any("not separated" in fl for fl in flags)


def test_triangle_resonance_eigenfunction(unit_triangle):
    # at lambda = 4 pi^2 the triangle (a circle of length 3) has a
    # 2-dimensional eigenspace carrying one scar (six half-waves)
    funcs, flags = eigenspace(unit_triangle, 4 * math.pi ** 2, 2)
    assert flags == []
    from qglab import Step, resonance_dimension_oracle
    assert resonance_dimension_oracle(unit_triangle, Step(Fraction(1, 2), "one")) == 1
    # the scar lives in the span: vertex-value matrix must be rank deficient
    vv = np.array([[f.vertex_values[v] for v in unit_triangle.vertices]
                   for f in funcs])
    rank = np.linalg.matrix_rank(vv, tol=1e-8)
    assert len(funcs) - rank == 1
