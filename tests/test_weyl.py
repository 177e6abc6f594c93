import math
import random

import numpy as np
import pytest

from qglab import (ntd_matrix, residue, select_vertices, visibility_report)
from qglab.weyl import NearSpectrumError, ResidueError

from conftest import mk
from randgraphs import random_graph


def single_unit_edge():
    return mk(["v1", "v2"], [("e", "v1", "v2", 1, "one")], {"one": 1.0})


# ---------------------------------------------------------------------------
# vertex selection


def test_select_auto_loop_pendant(loop_pendant):
    sel = select_vertices(loop_pendant)
    assert sel.vertices == ("v",)
    assert sel.mode == "auto"
    assert sel.hypotheses_verified


def test_select_auto_dumbbell(dumbbell):
    sel = select_vertices(dumbbell)
    assert set(sel.vertices) == {"x", "c", "tl", "tr", "bl", "br", "ll"}


def test_select_auto_single_edge():
    sel = select_vertices(single_unit_edge())
    assert sel.vertices == ("v1", "v2")


def test_select_explicit_warns_when_too_small(dumbbell):
    sel = select_vertices(dumbbell, "explicit", ["c"])
    assert not sel.hypotheses_verified


def test_select_explicit_superset_ok(loop_pendant):
    sel = select_vertices(loop_pendant, "explicit", ["v", "w"])
    assert sel.hypotheses_verified


def test_select_explicit_empty_rejected(dumbbell):
    with pytest.raises(ValueError):
        select_vertices(dumbbell, "explicit", [])


# ---------------------------------------------------------------------------
# Neumann-to-Dirichlet samples


def test_single_edge_closed_form():
    g = single_unit_edge()
    sel = select_vertices(g)
    m = ntd_matrix(g, sel, -1.0).matrix
    coth1 = math.cosh(1) / math.sinh(1)
    csch1 = 1 / math.sinh(1)
    assert m[0, 0] == pytest.approx(coth1, abs=1e-10)
    assert m[1, 1] == pytest.approx(coth1, abs=1e-10)
    assert m[0, 1] == pytest.approx(csch1, abs=1e-10)
    assert m[1, 0] == pytest.approx(csch1, abs=1e-10)


def test_symmetry_and_conjugation(dumbbell):
    sel = select_vertices(dumbbell)
    rng = random.Random(1)
    for _ in range(5):
        mu = complex(rng.uniform(-5, 5), rng.uniform(0.5, 3))
        m = ntd_matrix(dumbbell, sel, mu).matrix
        assert np.linalg.norm(m - m.T) <= 1e-10 * np.linalg.norm(m)
        mc = ntd_matrix(dumbbell, sel, mu.conjugate()).matrix
        assert np.allclose(mc, m.conjugate(), rtol=0, atol=1e-10 * np.linalg.norm(m))


def test_decay_along_negative_axis(loop_pendant):
    sel = select_vertices(loop_pendant)
    n2 = np.linalg.norm(ntd_matrix(loop_pendant, sel, -1e2).matrix)
    n4 = np.linalg.norm(ntd_matrix(loop_pendant, sel, -1e4).matrix)
    assert n4 < n2
    assert n4 < 1e-1


def test_near_spectrum_rejected():
    g = single_unit_edge()
    sel = select_vertices(g)
    with pytest.raises(NearSpectrumError):
        ntd_matrix(g, sel, math.pi ** 2 + 1e-13)


def test_ntd_matrix_over_array_matches_per_mu(dumbbell):
    sel = select_vertices(dumbbell)
    # 40 nodes of a circle: more than one chunk of dumbbell matrices
    mus = 4.0 + 3.0 * np.exp(1j * (2 * math.pi * np.arange(40) / 40 + 0.1))
    sample = ntd_matrix(dumbbell, sel, mus)
    assert sample.matrix.shape == (40, 7, 7)
    for mu, m in zip(mus, sample.matrix):
        one = ntd_matrix(dumbbell, sel, mu).matrix
        assert np.linalg.norm(m - one) <= 1e-13 * np.linalg.norm(one)


# ---------------------------------------------------------------------------
# residues


def test_residue_zero_at_invisible_eigenvalue(loop_pendant):
    lam = 4 * math.pi ** 2
    gap = lam - 36.8180306641
    for vertices in (["v"], ["v", "w"], None):
        sel = (select_vertices(loop_pendant) if vertices is None
               else select_vertices(loop_pendant, "explicit", vertices))
        est = residue(loop_pendant, sel, lam, gap)
        assert est.rank == 0
        assert est.limit_rank == 0
        assert np.linalg.norm(est.matrix) <= 1e-8 * est.reference_norm
        assert np.linalg.norm(est.limit_matrix) <= 1e-8 * est.reference_norm


def test_residue_rank_one_simple_eigenvalue(interval_pi):
    sel = select_vertices(interval_pi)
    est = residue(interval_pi, sel, 1.0, gap=1.0)
    assert est.rank == 1
    # Neumann interval of length pi: Res_1 M = -(2/pi) * outer(phi, phi)
    # with phi = (cos 0, cos pi) = (1, -1)
    want = -(2 / math.pi) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(est.matrix.real, want, atol=1e-8)
    assert np.linalg.norm(est.matrix.imag) < 1e-10


def test_residue_at_zero_counts_components():
    two = mk(["a", "b", "c", "d"],
             [("e1", "a", "b", 1, "u"), ("e2", "c", "d", 1, "u")], {"u": 1.0})
    sel = select_vertices(two)
    est = residue(two, sel, 0.0, gap=math.pi ** 2)
    assert est.rank == 2


def test_residue_contour_node_on_eigenvalue_rejected(interval_pi):
    # the contour |mu - 3.5| = 0.5 passes through the eigenvalue 4, where the
    # system has condition 1.8e16: the Frobenius bound fails there and the
    # exact check must reject the node
    with pytest.raises(NearSpectrumError):
        residue(interval_pi, select_vertices(interval_pi), 3.5, gap=1.0)


@pytest.mark.parametrize("lam, gap, nodes", [
    (0.6096491875282599, 0.6096491875282599, 128),        # visible
    (4 * math.pi ** 2, 4 * math.pi ** 2 - 36.8180306641, 128),    # invisible
])
def test_residue_reuses_contour_nodes(loop_pendant, lam, gap, nodes):
    # the doubled contour reuses the nodes already sampled; the result must be
    # the plain trapezoid sum over all res.nodes nodes, sampled one at a time
    sel = select_vertices(loop_pendant)
    res = residue(loop_pendant, sel, lam, gap)
    assert res.nodes == nodes
    r = res.radius
    w = np.exp(1j * (2 * math.pi * np.arange(nodes) / nodes))
    terms = [x * ntd_matrix(loop_pendant, sel, lam + r * x).matrix for x in w]
    fresh = sum(terms) * (r / nodes)
    # relative to the size of the terms: at an invisible eigenvalue the sum
    # itself cancels to rounding level
    scale = sum(np.linalg.norm(t) for t in terms) * (r / nodes)
    assert np.linalg.norm(res.matrix - fresh) <= 1e-12 * scale


def test_residue_requires_positive_gap(interval_pi):
    sel = select_vertices(interval_pi)
    with pytest.raises(ResidueError):
        residue(interval_pi, sel, 1.0, gap=0.0)


def test_pole_order_one(interval_pi):
    # (mu - lam)^2 M(mu) -> 0 along a radius shrink
    sel = select_vertices(interval_pi)
    lam = 1.0
    norms = []
    for rho in (0.4, 0.2, 0.1, 0.05):
        mu = lam + rho
        m = ntd_matrix(interval_pi, sel, mu).matrix
        norms.append(abs(mu - lam) ** 2 * np.linalg.norm(m))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    # (mu - lam)^2 M ~ rho * ||Res||, so an 8x radius shrink gives roughly 8x
    assert norms[-1] < 0.25 * norms[0]


# ---------------------------------------------------------------------------
# visibility


def test_visibility_loop_pendant_invisible(loop_pendant):
    rep = visibility_report(loop_pendant, select_vertices(loop_pendant), 45)
    row = min(rep.rows, key=lambda r: abs(r.lam - 4 * math.pi ** 2))
    assert row.dim_ker == 1
    assert row.rank_residue == 0
    assert row.dim_resonance == 1
    assert row.classification == "invisible"
    assert row.identity_ok
    assert rep.all_identities_hold


def test_visibility_below_floor_fully_visible(dumbbell):
    # below pi^2/3 every eigenvalue is a pole with full rank
    rep = visibility_report(dumbbell, select_vertices(dumbbell), 3.2)
    assert rep.rows
    for row in rep.rows:
        assert row.dim_resonance == 0
        assert row.rank_residue == row.dim_ker
        assert row.classification == "fully-visible"


def test_visibility_identity_random_small():
    rng = random.Random(4)
    done = 0
    while done < 3:
        g = random_graph(rng, max_vertices=3, max_edges=3, max_pq=2, units=("u1",))
        if any(g.degree(v) == 0 for v in g.vertices):
            continue
        rep = visibility_report(g, select_vertices(g), 30.0)
        assert rep.all_identities_hold
        done += 1


def test_visibility_explicit_subset_flagged(dumbbell):
    sel = select_vertices(dumbbell, "explicit", ["x"])
    rep = visibility_report(dumbbell, sel, 2.0)
    assert any("unverified" in w for w in rep.warnings)
