import cmath
import math
import random

import numpy as np
import pytest

from qglab import betti_graph, kernels
from qglab.spectral import _edge_arrays, _near_pole

from conftest import unit_grid
from randgraphs import degree, random_graph


def arrays(graph):
    eo, et, ln, _ = _edge_arrays(graph)
    return eo, et, ln, len(graph.vertices)


# Per-point references: one matrix at a time, entry by entry.

def reference_real(eo, et, ln, nv, k):
    ne = len(eo)
    a = np.zeros((2 * ne + nv, 2 * ne + nv))
    for e in range(ne):
        r_o, r_t = 2 * ne + eo[e], 2 * ne + et[e]
        cl = math.cos(k * ln[e])
        sl = math.sin(k * ln[e]) if k else ln[e]   # affine ansatz at k = 0
        a[2 * e, 2 * e] = 1.0
        a[2 * e, r_o] = -1.0
        a[2 * e + 1, 2 * e] = cl
        a[2 * e + 1, 2 * e + 1] = sl
        a[2 * e + 1, r_t] = -1.0
        a[r_t, 2 * e] += -math.sin(k * ln[e])
        a[r_t, 2 * e + 1] += cl
        a[r_o, 2 * e + 1] -= 1.0
    return a


def reference_complex(eo, et, ln, nv, mu):
    ne = len(eo)
    k = cmath.sqrt(mu)
    if k.imag < 0:
        k = -k
    ik = 1j * k
    a = np.zeros((2 * ne + nv, 2 * ne + nv), dtype=complex)
    for e in range(ne):
        r_o, r_t = 2 * ne + eo[e], 2 * ne + et[e]
        g = cmath.exp(ik * ln[e])
        a[2 * e, 2 * e] = 1.0
        a[2 * e, 2 * e + 1] = g
        a[2 * e, r_o] = -1.0
        a[2 * e + 1, 2 * e] = g
        a[2 * e + 1, 2 * e + 1] = 1.0
        a[2 * e + 1, r_t] = -1.0
        a[r_t, 2 * e] += ik * g
        a[r_t, 2 * e + 1] += -ik
        a[r_o, 2 * e] -= ik
        a[r_o, 2 * e + 1] -= -ik * g
    return a


def test_batched_scan_matches_per_point_svd(dumbbell):
    eo, et, ln, nv = arrays(dumbbell)
    dim = 2 * len(eo) + nv
    ks = np.linspace(0.3, 12.0, 301)
    assert len(ks) > kernels.CHUNK_BYTES // (8 * dim * dim)   # several chunks
    ref = [np.linalg.svd(reference_real(eo, et, ln, nv, k))[1][-1] for k in ks]
    act = kernels.scan_sigma_min(eo, et, ln, nv, ks)
    assert np.allclose(act, ref, rtol=0, atol=1e-12)


def test_batched_assembly_matches_per_point(dumbbell, loop_pendant):
    for graph in (dumbbell, loop_pendant):      # loop_pendant has a loop edge
        eo, et, ln, nv = arrays(graph)
        ks = [0.0, 0.7, 2.0, 6.283]
        for k, a in zip(ks, kernels.assemble_real(eo, et, ln, nv, ks)):
            assert np.allclose(a, reference_real(eo, et, ln, nv, k), rtol=0, atol=1e-12)
        mus = [-40.0, 0.7 + 0.2j, 6.283 - 1.0j, 39.0 + 1e-3j]
        for mu, a in zip(mus, kernels.assemble_complex(eo, et, ln, nv, mus)):
            assert np.allclose(a, reference_complex(eo, et, ln, nv, mu), rtol=0, atol=1e-12)


def test_scan_values_positive(interval_pi):
    eo, et, ln, nv = arrays(interval_pi)
    ks = np.array([0.5, 1.0, 1.5])
    sig = np.asarray(kernels.scan_sigma_min(eo, et, ln, nv, ks))
    assert np.all(sig >= 0)
    # k = 1 is an eigenvalue of the length-pi interval, the others are not
    assert sig[1] < 1e-8
    assert sig[0] > 1e-3 and sig[2] > 1e-3


# The vertex count against the eigenphase count.

def calibrated_counts(graph, ks):
    """The vertex count less beta0 and the eigenphase count shifted to 0 at
    k0 = pi/(2 L_tot), both the number of eigenvalues in (0, k^2]."""
    eo, et, ln, nv = arrays(graph)
    raw, _ = kernels.eigenphase_count(eo, et, ln, nv, np.append(math.pi / (2 * ln.sum()), ks))
    phase = raw[1:] - raw[0]
    assert np.all(np.abs(phase - np.round(phase)) < 1e-6)
    vertex, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
    assert mu.shape == dmu.shape == (len(ks), nv)
    return vertex - betti_graph(graph).beta0, np.round(phase).astype(np.int64)


def test_vertex_count_matches_eigenphase_count(dumbbell, loop_pendant, interval_pi,
                                               unit_triangle, path3):
    graphs = [dumbbell, loop_pendant, interval_pi, unit_triangle, path3]
    rng = random.Random(11)
    while len(graphs) < 25:
        g = random_graph(rng)
        if all(degree(g, v) for v in g.vertices):
            graphs.append(g)
    assert any(e.is_loop for g in graphs[5:] for e in g.edges)
    assert any(len({(e.origin, e.terminus) for e in g.edges}) < len(g.edges)
               for g in graphs[5:])
    draw = np.random.default_rng(11)
    points = 0
    for g in graphs:
        ks = draw.uniform(0.05, 20.0, 400)
        ks = ks[~_near_pole(ks, arrays(g)[2])]        # off the steps
        vertex, phase = calibrated_counts(g, ks)
        assert np.array_equal(vertex, phase), g
        points += len(ks)
    assert points > 9000


def test_vertex_count_slopes_are_derivatives(dumbbell, loop_pendant):
    # d mu_j / dk against central differences, away from crossings of the mu_j
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        ks = np.array([0.7, 2.3, 3.3, 5.1])
        assert not _near_pole(ks, ln).any()
        h = 1e-6
        _, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
        _, up, _ = kernels.vertex_count(eo, et, ln, nv, ks + h)
        _, down, _ = kernels.vertex_count(eo, et, ln, nv, ks - h)
        assert np.all(np.diff(mu, axis=1) > 1e-3)
        assert np.all(dmu < 0)
        assert np.allclose(dmu, (up - down) / (2 * h), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("n,below,above", [(4, 14, 24), (6, 34, 60)])
def test_counts_next_to_a_pole_fall_back(n, below, above):
    # Within 1e-10 relative of k = pi, a pole of the vertex matrix on every
    # edge of a unit grid, its inertia has been seen off by one; so such k
    # are counted by eigenphases, which give von Below's counts there.
    eo, et, ln, nv = arrays(unit_grid(n))
    ks = math.pi * np.array([1 - 1e-10, 1 + 1e-10])
    assert _near_pole(ks, ln).all()
    raw, _ = kernels.eigenphase_count(eo, et, ln, nv, np.append(math.pi / (2 * ln.sum()), ks))
    assert np.round(raw[1:] - raw[0]).tolist() == [below, above]
