import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from qglab import betti_graph, kernels
from qglab.lengths import candidate_steps
from qglab.spectral import _edge_arrays

from conftest import on_a_pole, random_length_grid, unit_grid
from eigenphase import eigenphase_count
from randgraphs import degree, random_graph


def arrays(graph):
    eo, et, ln, _ = _edge_arrays(graph)
    return eo, et, ln, len(graph.vertices)


# Per-point reference: one Lambda(k) at a time, entry by entry from the
# pieces of its split graph.

def reference_pieces(eo, et, ln, nv, k):
    """The pieces (origin, terminus, length) of the graph with each edge of
    |sin(Re k L_e)| < SPLIT_TOL and |Re k| L_e >= pi/2 split at the fraction
    t of SPLITS with the largest |sin n pi t|, n = round(|Re k| L_e / pi), by
    a new vertex V, V + 1, ...; and its number of vertices."""
    pieces, n = [], nv
    for o, t, length in zip(eo.tolist(), et.tolist(), ln.tolist()):
        turns = round(abs(k.real) * length / math.pi)
        if abs(math.sin(abs(k.real) * length)) < kernels.SPLIT_TOL and turns > 0:
            f = max(kernels.SPLITS.tolist(), key=lambda f: abs(math.sin(turns * math.pi * f)))
            pieces += [(o, n, length * f), (n, t, length * (1 - f))]
            n += 1
        else:
            pieces.append((o, t, length))
    return pieces, n


def reference_lambda(eo, et, ln, nv, k):
    """Lambda(k) of the split graph (`reference_pieces`), the largest
    magnitude one piece puts into an entry, and Lambda_lambda =
    Lambda'(k) / 2k.  At k = 0 the entries are 1/L and -1/L, and
    Lambda_lambda's -L/3 and -L/6."""
    trig = cmath if isinstance(k, complex) else math
    pieces, n = reference_pieces(eo, et, ln, nv, k)
    lam, dlam, size = np.zeros((n, n), dtype=type(k)), np.zeros((n, n), dtype=type(k)), 0.0
    for o, t, length in pieces:
        if k == 0:
            diag, off, ddiag, doff = 1 / length, -1 / length, -length / 3, -length / 6
        else:
            sin, cos, kl = trig.sin(k * length), trig.cos(k * length), k * length
            diag, off = k * cos / sin, -k / sin
            ddiag = (cos * sin - kl) / (2 * k * sin ** 2)
            doff = (kl * cos - sin) / (2 * k * sin ** 2)
        for m, d, f in ((lam, diag, off), (dlam, ddiag, doff)):
            m[o, o] += d
            m[t, t] += d
            m[o, t] += f
            m[t, o] += f
        size = max(size, abs(diag), abs(off))
    return lam, size, dlam


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
            for at, lam, size, *dlam in kernels.vertex_matrices(eo, et, ln, nv, ks):
                stacks.append(lam.shape[1])
                # Lambda_lambda for real k only
                assert len(dlam) == (not np.iscomplexobj(ks))
                for j, (i, a, sz) in enumerate(zip(at.tolist(), lam, size)):
                    ref, ref_size, ref_dlam = reference_lambda(eo, et, ln, nv, ks[i].item())
                    assert a.shape == ref.shape
                    assert np.allclose(a, ref, rtol=1e-12, atol=1e-12 * ref_size)
                    assert sz == pytest.approx(ref_size, rel=1e-12)
                    if dlam:
                        assert np.allclose(dlam[0][j], ref_dlam, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(ref_dlam)))
                    seen[i] += 1
            assert np.all(seen == 1) and len(set(stacks)) > 1
            if graph is dumbbell and not np.iscomplexobj(ks):
                assert stacks.count(nv) > 1          # a chunk boundary
                assert np.sum(~on_a_pole(ks, ln, kernels.SPLIT_TOL).any(axis=1)) > \
                    kernels.CHUNK_BYTES // (16 * nv * nv)


def per_point(eo, et, ln, nv, ks):
    """Lambda(k) and Lambda_lambda at each real k of ks, in its order."""
    out = [None] * len(ks)
    for at, lam, _, dlam in kernels.vertex_matrices(eo, et, ln, nv, ks):
        for i, a, d in zip(at.tolist(), lam, dlam):
            out[i] = a, d
    return out


def l2_norm(pieces, c, k):
    """||f_c||^2 in closed form: f_c solves -f'' = k^2 f on each piece
    (o, t, l) with the vertex values c at its ends; on [0, l] it is
    a cos kx + b sin kx, a = c_o, b = (c_t - c_o cos kl) / sin kl, or
    a + b x, b = (c_t - c_o) / l, at k = 0."""
    total = 0.0
    for o, t, l in pieces:
        a = c[o]
        if k == 0:
            b = (c[t] - a) / l
            icc, ics, iss = l, l ** 2 / 2, l ** 3 / 3          # of 1, x, x^2
        else:
            b = (c[t] - a * math.cos(k * l)) / math.sin(k * l)
            half = math.sin(2 * k * l) / (4 * k)              # of cos^2, sin cos, sin^2
            icc, ics, iss = l / 2 + half, math.sin(k * l) ** 2 / (2 * k), l / 2 - half
        total += a * a * icc + 2 * a * b * ics + b * b * iss
    return total


def test_lambda_derivative_is_minus_the_l2_norm(dumbbell, loop_pendant, interval_pi,
                                                unit_triangle, path3):
    # c^T Lambda(lambda) c = int |f_c'|^2 - lambda |f_c|^2 and f_c is
    # stationary for it, so -c^T Lambda_lambda c = ||f_c||^2: the Gram
    # matrix of the residue.  At k = 0, on a pole of an edge (split there)
    # and at 50 random k; Lambda_lambda also against central differences
    # of Lambda in k, (Lambda(k + h) - Lambda(k - h)) / 4kh.
    draw = np.random.default_rng(5)
    graphs = [dumbbell, loop_pendant, interval_pi, unit_triangle, path3,
              random_length_grid(4, random.Random(3))]
    for graph in graphs:
        eo, et, ln, nv = arrays(graph)
        ks = np.concatenate([[0.0, 2 * math.pi / ln[0]], draw.uniform(0.05, 30.0, 50)])
        assert reference_pieces(eo, et, ln, nv, ks[1])[1] > nv        # edge 0 is split
        h = 1e-7 * ks
        at_k, up, down = (per_point(eo, et, ln, nv, x) for x in (ks, ks + h, ks - h))
        for i, k in enumerate(ks.tolist()):
            dlam = at_k[i][1]
            pieces, n = reference_pieces(eo, et, ln, nv, k)
            for c in draw.standard_normal((3, n)):
                norm = l2_norm(pieces, c, k)
                assert -c @ dlam @ c == pytest.approx(norm, rel=1e-9)
            if k > 0:
                assert up[i][0].shape == down[i][0].shape == dlam.shape
                diff = (up[i][0] - down[i][0]) / (4 * k * h[i])
                assert np.allclose(diff, dlam, rtol=1e-5, atol=1e-5 * np.max(np.abs(dlam)))


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
    assert any(e.origin == e.terminus for g in graphs[5:] for e in g.edges)
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
