import math
from fractions import Fraction

import numpy as np
import pytest

from qglab import (Edge, ExactLength, MetricGraph, SolverOptions,
                   assemble_secular, betti_graph, eigenspace, eigenvalues_in)

from conftest import mk


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


def test_scan_trace_emitted(interval_pi):
    trace = []
    eigenvalues_in(interval_pi, 10, scan_trace=trace)
    assert trace
    ks = [k for k, _ in trace]
    assert ks == sorted(ks)
    assert all(s >= 0 for _, s in trace)


def test_reported_lambda_matches_nullity(loop_pendant):
    spec = eigenvalues_in(loop_pendant, 45)
    for h in spec.eigenvalues:
        if h.lam == 0:
            continue
        assert nullity(loop_pendant, h.k) == h.multiplicity


# ---------------------------------------------------------------------------
# eigenspace extraction


def test_eigenspace_at_zero(path3):
    funcs, flags = eigenspace(path3, 0.0)
    assert len(funcs) == 1
    # constant: no slope anywhere
    for a, b in funcs[0].coeffs.values():
        assert b == pytest.approx(0.0, abs=1e-10)


def test_eigenspace_loop_pendant_scar(loop_pendant):
    funcs, flags = eigenspace(loop_pendant, 4 * math.pi ** 2)
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
    funcs, flags = eigenspace(interval_pi, 4.0)
    assert len(funcs) == 1
    assert not any("residual" in fl for fl in flags)


def test_eigenspace_empty_off_spectrum(interval_pi):
    funcs, _ = eigenspace(interval_pi, 2.5)
    assert funcs == []


def test_triangle_resonance_eigenfunction(unit_triangle):
    # at lambda = 4 pi^2 the triangle carries one scar (six half-waves)
    funcs, _ = eigenspace(unit_triangle, 4 * math.pi ** 2)
    from qglab import Step, resonance_dimension_oracle
    assert resonance_dimension_oracle(unit_triangle, Step(Fraction(1, 2), "one")) == 1
    # the scar lives in the span: vertex-value matrix must be rank deficient
    vv = np.array([[f.vertex_values[v] for v in unit_triangle.vertices]
                   for f in funcs])
    rank = np.linalg.matrix_rank(vv, tol=1e-8)
    assert len(funcs) - rank == 1


# ---------------------------------------------------------------------------
# options


def test_coarse_scan_can_be_configured(interval_pi):
    opts = SolverOptions(scan_factor=0.05)
    spec = eigenvalues_in(interval_pi, 10, opts)
    assert len(spec.eigenvalues) == 4
