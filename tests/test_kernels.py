import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from qglab import betti_graph, kernels
from qglab.lengths import candidate_steps
from qglab.spectral import _edge_arrays

from conftest import on_a_pole, unit_grid
from eigenphase import eigenphase_count
from randgraphs import degree, random_graph


def arrays(graph):
    eo, et, ln, _ = _edge_arrays(graph)
    return eo, et, ln, len(graph.vertices)


# Per-point reference: one Lambda(k) at a time, entry by entry from the
# pieces of its split graph.

def reference_lambda(eo, et, ln, nv, k):
    """Lambda(k) of the graph with each edge of |sin(Re k L_e)| < SPLIT_TOL
    and |Re k| L_e >= pi/2 split at the fraction t of SPLITS with the largest
    |sin n pi t|, n = round(|Re k| L_e / pi), by a new vertex V, V + 1, ...;
    the largest magnitude one piece puts into an entry; and the terminus and
    length of the first piece of each edge.  At k = 0 the entries are 1/L and
    -1/L."""
    trig = cmath if isinstance(k, complex) else math
    pieces, first, n = [], [], nv
    for o, t, length in zip(eo.tolist(), et.tolist(), ln.tolist()):
        turns = round(abs(k.real) * length / math.pi)
        if abs(math.sin(abs(k.real) * length)) < kernels.SPLIT_TOL and turns > 0:
            f = max(kernels.SPLITS.tolist(), key=lambda f: abs(math.sin(turns * math.pi * f)))
            pieces += [(o, n, length * f), (n, t, length * (1 - f))]
            n += 1
        else:
            pieces.append((o, t, length))
        first.append(pieces[-2] if pieces[-1][0] >= nv else pieces[-1])
    lam, size = np.zeros((n, n), dtype=type(k)), 0.0
    for o, t, length in pieces:
        if k == 0:
            diag, off = 1 / length, -1 / length
        else:
            diag, off = k * trig.cos(k * length) / trig.sin(k * length), -k / trig.sin(k * length)
        lam[o, o] += diag
        lam[t, t] += diag
        lam[o, t] += off
        lam[t, o] += off
        size = max(size, abs(diag), abs(off))
    return lam, size, [p[1] for p in first], [p[2] for p in first]


def pole_points(ln, n=3):
    """Wavenumbers on the first n poles sin kL_e = 0 of every edge."""
    return [j * math.pi / length for length in ln for j in range(1, n + 1)]


def points(ln):
    """k = 0, 801 real k up to 12 and the poles of every edge; complex k
    with Im k >= 0 next to those poles, on both sides of the real axis in
    mu (so Re k < 0 on one), and deep on the negative axis."""
    roots = np.sqrt(np.array([-40.0, -1e4, 0.7 + 0.2j, 6.283 - 1.0j, 39.0 + 1e-3j,
                              *(np.array(pole_points(ln)) ** 2 + 1e-9j),
                              *(np.array(pole_points(ln)) ** 2 - 1e-9j)]))
    return (np.concatenate([[0.0], np.linspace(0.3, 12.0, 801), pole_points(ln)]),
            np.where(roots.imag < 0, -roots, roots))


def test_batched_assembly_matches_per_point(dumbbell, loop_pendant):
    # several widths V + |split| in one call, and on the dumbbell more
    # points of width V than one chunk holds; loop_pendant has a loop edge
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        for ks in points(ln):
            seen, stacks = np.zeros(len(ks), dtype=int), []
            for at, lam, size, ter, ell in kernels.vertex_matrices(eo, et, ln, nv, ks):
                stacks.append(lam.shape[1])
                for i, a, sz, t, l in zip(at.tolist(), lam, size, ter, ell):
                    ref, ref_size, ref_ter, ref_ell = reference_lambda(eo, et, ln, nv,
                                                                       ks[i].item())
                    assert a.shape == ref.shape
                    assert np.allclose(a, ref, rtol=1e-12, atol=1e-12 * ref_size)
                    assert sz == pytest.approx(ref_size, rel=1e-12)
                    assert t.tolist() == ref_ter and np.allclose(l, ref_ell, rtol=1e-15)
                    seen[i] += 1
            assert np.all(seen == 1) and len(set(stacks)) > 1
            if graph is dumbbell and not np.iscomplexobj(ks):
                assert stacks.count(nv) > 1          # a chunk boundary
                assert np.sum(~on_a_pole(ks, ln, kernels.SPLIT_TOL).any(axis=1)) > \
                    kernels.CHUNK_BYTES // (16 * nv * nv)


def test_count_over_mixed_widths_sees_the_stacked_matrices(dumbbell, loop_pendant):
    # one count call over points of several widths V + |split|: each row
    # holds its own V + |split| mu_j, then NaN up to V + E, and those mu_j
    # are the eigenvalues of that point's matrix in `vertex_matrices`
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        ks = points(ln)[0][1:]                       # k > 0
        _, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
        assert mu.shape == dmu.shape == (len(ks), nv + len(ln))
        widths = set()
        for at, lam, size, *_ in kernels.vertex_matrices(eo, et, ln, nv, ks):
            n = lam.shape[1]
            widths.add(n)
            assert np.all(np.isfinite(mu[at, :n])) and np.all(np.isfinite(dmu[at, :n]))
            assert np.all(np.isnan(mu[at, n:])) and np.all(np.isnan(dmu[at, n:]))
            assert np.all(np.abs(mu[at, :n] - np.linalg.eigvalsh(lam))
                          <= 1e-13 * n * size[:, None])
        assert len(widths) > 1


def test_count_over_point_chunks(dumbbell):
    # one call over several chunks of points, poles of every edge among
    # them: the bits of one call per slice, and the memory of one chunk
    eo, et, ln, nv = arrays(dumbbell)
    draw = np.random.default_rng(7)
    poles = np.array(pole_points(ln, 199))
    ks = np.concatenate([draw.uniform(0.1, 300.0, 20000 - poles.size), poles])
    draw.shuffle(ks)
    tracemalloc.start()
    got = kernels.vertex_count(eo, et, ln, nv, ks)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    size = sum(x.nbytes for x in got)
    assert got[1].nbytes > 5 * kernels.CHUNK_BYTES
    parts = zip(*(kernels.vertex_count(eo, et, ln, nv, ks[i:i + 997])
                  for i in range(0, ks.size, 997)))
    for whole, part in zip(got, parts):
        assert whole.tobytes() == np.concatenate(part).tobytes()
    assert peak < 3 * size


def test_batched_scan_matches_per_point_eigvalsh(dumbbell, loop_pendant):
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        ks = points(ln)[0]
        act = kernels.scan_sigma_min(eo, et, ln, nv, ks)
        for k, sig in zip(ks.tolist(), act.tolist()):
            ref, size, _, _ = reference_lambda(eo, et, ln, nv, k)
            assert abs(sig - np.min(np.abs(np.linalg.eigvalsh(ref)))) <= 1e-13 * size


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
        split += np.sum(on_a_pole(ks, arrays(g)[2], kernels.SPLIT_TOL).any(axis=1))
    assert points > 14000 and split > 9000


def test_vertex_count_slopes_are_derivatives(dumbbell, loop_pendant):
    # d mu_j / dk against central differences, away from crossings of the mu_j
    for graph in (dumbbell, loop_pendant):
        eo, et, ln, nv = arrays(graph)
        ks = np.array([0.7, 2.3, 3.3, 5.1])
        assert not on_a_pole(ks, ln).any()
        h = 1e-6
        _, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
        _, up, _ = kernels.vertex_count(eo, et, ln, nv, ks + h)
        _, down, _ = kernels.vertex_count(eo, et, ln, nv, ks - h)
        assert np.all(np.isnan(mu[:, nv:])) and np.all(np.isnan(dmu[:, nv:]))
        mu, dmu, up, down = (x[:, :nv] for x in (mu, dmu, up, down))
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
