import cmath
import math
import random

import numpy as np
import pytest

from qglab import betti_graph, kernels
from qglab.lengths import candidate_steps
from qglab.spectral import _edge_arrays

from conftest import unit_grid
from eigenphase import eigenphase_count
from randgraphs import degree, random_graph


def arrays(graph):
    eo, et, ln, _ = _edge_arrays(graph)
    return eo, et, ln, len(graph.vertices)


# Per-point reference: one A(k) at a time, entry by entry.

def reference_bordered(eo, et, ln, nv, k, tol=kernels.POLE_TOL):
    """A(k): Lambda's entries for each edge with |sin kL_e| >= tol; a column
    beta_e, f_e = c_o cos kx + (beta_e/k) sin kx, and a continuity row for
    each other edge."""
    trig = cmath if isinstance(k, complex) else math
    pole = [e for e in range(len(eo)) if abs(trig.sin(k * ln[e])) < tol]
    n = nv + len(pole)
    a = np.zeros((n, n), dtype=type(k))
    for e in range(len(eo)):
        o, t, kl = eo[e], et[e], k * ln[e]
        if e in pole:
            r = nv + pole.index(e)
            a[t, o] -= k * trig.sin(kl)
            a[t, r] += trig.cos(kl)
            a[o, r] -= 1.0
            a[r, o] += trig.cos(kl)
            a[r, t] -= 1.0
            a[r, r] = trig.sin(kl) / k if k else ln[e]     # affine at k = 0
        elif o == t:
            a[o, o] -= 2 * k * trig.tan(kl / 2)
        else:
            for u, w in ((o, t), (t, o)):
                a[u, u] += k * trig.cos(kl) / trig.sin(kl)
                a[u, w] -= k / trig.sin(kl)
    return a


def pole_points(ln, n=3):
    """Wavenumbers on the first n poles sin kL_e = 0 of every edge."""
    return [j * math.pi / length for length in ln for j in range(1, n + 1)]


def test_batched_scan_matches_per_point_svd(dumbbell):
    eo, et, ln, nv = arrays(dumbbell)
    ks = np.concatenate([np.linspace(0.3, 12.0, 1201), pole_points(ln)])
    pole = kernels.poles(ks, ln)
    assert pole.any() and not pole.all()
    assert (~pole.any(axis=1)).sum() > 2 * kernels.CHUNK_BYTES // (8 * nv * nv)  # chunks
    act = kernels.scan_sigma_min(eo, et, ln, nv, ks)
    for k, sig in zip(ks.tolist(), act.tolist()):
        ref = np.linalg.svd(reference_bordered(eo, et, ln, nv, k), compute_uv=False)
        # 1e-12 absolute where A's entries are O(k); next to a pole they
        # grow as k/|sin kL_e|, and so does the rounding of sigma_min
        size = kernels.bordered(eo, et, ln, nv, [k])[1][0]
        assert abs(sig - ref[-1]) <= 1e-13 * size


def test_batched_assembly_matches_per_point(dumbbell, loop_pendant):
    for graph in (dumbbell, loop_pendant):      # loop_pendant has a loop edge
        eo, et, ln, nv = arrays(graph)
        ks = np.array([0.0, 0.7, 2.0, 6.283, *pole_points(ln)])
        mus = np.array([-40.0, 0.7 + 0.2j, 6.283 - 1.0j, 39.0 + 1e-3j,
                        *(np.array(pole_points(ln)) ** 2 + 0j)])
        roots = np.sqrt(mus)
        for points in (ks, np.where(roots.imag < 0, -roots, roots)):
            for tol in (kernels.POLE_TOL, 1.0):         # 1.0: as ntd_matrix borders
                pole = kernels.poles(points, ln, tol)
                for p in np.unique(pole, axis=0):
                    at = (pole == p).all(axis=1)
                    stack = kernels.bordered(eo, et, ln, nv, points[at], tol)[0]
                    for k, a in zip(points[at], stack):
                        ref = reference_bordered(eo, et, ln, nv, k.item(), tol)
                        assert a.shape == ref.shape
                        assert np.allclose(a, ref, rtol=1e-12, atol=1e-12)


def test_scan_values_positive(interval_pi):
    eo, et, ln, nv = arrays(interval_pi)
    ks = np.array([0.5, 1.0, 1.5])
    sig = np.asarray(kernels.scan_sigma_min(eo, et, ln, nv, ks))
    assert np.all(sig >= 0)
    # k = 1 is an eigenvalue of the length-pi interval, the others are not
    assert sig[1] < 1e-8
    assert sig[0] > 1e-3 and sig[2] > 1e-3


# The vertex count against the eigenphase count.

def counts(graph, ks):
    """The vertex count less beta0 and the eigenphase count, both the number
    of eigenvalues in (0, k^2], at each k in ks."""
    eo, et, ln, nv = arrays(graph)
    vertex, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
    assert mu.shape == dmu.shape and mu.shape[0] == len(ks)
    return vertex - betti_graph(graph).beta0, eigenphase_count(eo, et, ln, nv, ks)


def next_to_the_steps(graph, lambda_max):
    """k_s (1 +- 5e-13), k_s (1 +- 1e-10), k_s (1 + 1e-7) and k_s (1 - 1e-5)
    at every candidate step s, k_s = pi/s: points next to the poles of the
    vertex matrix, where its edges on a pole are split."""
    k_s = np.array([math.pi / s.value(graph.units) for s in candidate_steps(graph, lambda_max)])
    return np.concatenate([k_s * (1 + d) for d in (5e-13, -5e-13, 1e-10, -1e-10, 1e-7, -1e-5)])


def test_vertex_count_matches_eigenphase_count(dumbbell, loop_pendant, interval_pi,
                                               unit_triangle, path3):
    graphs = [dumbbell, loop_pendant, interval_pi, unit_triangle, path3]
    rng = random.Random(11)
    while len(graphs) < 105:
        g = random_graph(rng)
        if all(degree(g, v) for v in g.vertices):
            graphs.append(g)
    assert any(e.is_loop for g in graphs[5:] for e in g.edges)
    assert any(len({(e.origin, e.terminus) for e in g.edges}) < len(g.edges)
               for g in graphs[5:])
    draw = np.random.default_rng(11)
    points = split = 0
    for i, g in enumerate(graphs):
        ks = np.concatenate([next_to_the_steps(g, 40 if i < 5 else 60),
                             draw.uniform(0.05, 20.0, 200 if i < 25 else 0)])
        vertex, phase = counts(g, ks)
        assert np.array_equal(vertex, phase), g
        points += len(ks)
        split += np.sum(kernels.poles(ks, arrays(g)[2], kernels.SPLIT_TOL).any(axis=1))
    assert points > 14000 and split > 9000


def test_vertex_count_slopes_are_derivatives(dumbbell, loop_pendant):
    # d mu_j / dk against central differences, away from crossings of the mu_j
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        ks = np.array([0.7, 2.3, 3.3, 5.1])
        assert not kernels.poles(ks, ln).any()
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
    # edge of a unit grid, its inertia has been seen off by one; there every
    # edge is split, and the count is von Below's and the eigenphase count
    # at every point next to a step.
    graph = unit_grid(n)
    eo, et, ln, nv = arrays(graph)
    ks = math.pi * np.array([1 - 1e-10, 1 + 1e-10])
    _, mu, _ = kernels.vertex_count(eo, et, ln, nv, ks)
    assert np.all(np.sum(~np.isnan(mu), axis=1) == nv + len(ln))
    assert counts(graph, ks)[0].tolist() == [below, above]
    vertex, phase = counts(graph, next_to_the_steps(graph, 40))
    assert np.array_equal(vertex, phase)
