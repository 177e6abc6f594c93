"""Hot numeric kernels, each at many wavenumbers per call, all on one matrix:
the vertex Dirichlet-to-Neumann matrix Lambda(k) of the graph with its edges
on a pole split (`split_graph`), whose entries `dtn_entries` owns.  From it
come the Friedlander eigenvalue count (`vertex_count`), the stacks by width
of Lambda and of Lambda_lambda = d Lambda / d lambda (`vertex_matrices`)
that the residue and the Neumann-to-Dirichlet map take.

The count and the stacks both take Lambda(k) one width V + |split| at a
time (`_stacked`), in chunks of at most CHUNK_BYTES of matrices, so a long
array of wavenumbers never holds more than that in matrices and no matrix
is padded to another's width.  Both take their points in chunks too
(`_points`), CHUNK_BYTES of V + E floats each, so their per-point arrays
(pieces, entries, scatter indices) stay the size of one chunk: only the
count's results grow with the number of points.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK_BYTES = 256 * 1024
# `split_graph` splits edge e where |sin kL_e| < SPLIT_TOL, so Lambda's
# entries stay below |k| / SPLIT_TOL and its mu_j near 0 keep their digits.
SPLIT_TOL = 1e-2
# Fractions t of an edge at which it is split: for every n up to 2e5 one of
# them has |sin n pi t| > 0.09.
SPLITS = np.array([(3 - math.sqrt(5)) / 2, math.sqrt(2) - 1, (math.sqrt(3) - 1) / 2,
                   1 / math.pi])


def _points(ks, width):
    """Consecutive slices of ks, each of the points whose `width` floats
    fill CHUNK_BYTES, so that a chunk's per-point arrays stay a few times
    CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // (8 * width))
    return [slice(i, i + step) for i in range(0, len(ks), step)]


def dtn_entries(k, lengths):
    """Lambda(k)'s entries at each k of the column k, k cot kL at both ends
    and -k / sin kL between them per edge of `lengths`, in the sign of the
    derivative balance, incoming f'(L) minus outgoing f'(0).  For real k also
    their derivatives in k, after them; for complex k (Im k >= 0) the entries
    alone, in the forms in g = exp(ikL), |g| <= 1, which do not overflow deep
    on the negative axis."""
    if np.iscomplexobj(k):
        g = np.exp(1j * k * lengths)
        return -1j * k * (1 + g * g) / (1 - g * g), 2j * k * g / (1 - g * g)
    kl = k * lengths
    sn, cs = np.sin(kl), np.cos(kl)
    sn2 = sn ** 2
    return k * cs / sn, -k / sn, (cs * sn - kl) / sn2, (kl * cs - sn) / sn2


def _stacked(org, ter, dim, *vals):
    """Each width n of dim, ascending, with its rows in chunks of at most
    CHUNK_BYTES of n x n matrices (index arrays, or slices where dim has one
    width, so that the rows are views), and per array of vals, shape
    (len(dim), 4 |pieces|), one n x n matrix per row: all of them from one
    scatter index, vals[i, j] added at the place of piece entry j (`_flat`)
    in row i's matrix, so that a loop's or parallel edges' entries add up.
    Pieces of shape (E,), the graph's own edges, have the same places in
    every row."""
    widths = sorted(set(dim.tolist()))
    for n in widths:
        at = np.flatnonzero(dim == n) if len(widths) > 1 else None
        step = max(1, CHUNK_BYTES // (16 * n * n))
        for i in range(0, dim.size if at is None else at.size, step):
            rows = slice(i, i + step) if at is None else at[i:i + step]
            flat = _flat(org, ter, n) if org.ndim == 1 else _flat(org[rows], ter[rows], n)
            vs = [v[rows] for v in vals]
            m = vs[0].shape[0]
            place = (np.arange(0, m * n * n, n * n)[:, None] + flat).ravel()
            yield n, rows, [_dense(place, v, n) for v in vs]


def _dense(place, vals, n) -> np.ndarray:
    """n x n matrices, one per row of vals, whose flat entries are the sums
    of vals at `place`."""
    m = vals.shape[0]
    out = np.bincount(place, vals.real.ravel(), minlength=m * n * n)
    if np.iscomplexobj(vals):
        out = out + 1j * np.bincount(place, vals.imag.ravel(), minlength=m * n * n)
    return out.reshape(m, n, n)


def split_graph(eo, et, lengths, n_vertices, ks):
    """The graph at each k in ks with each edge on a pole of Lambda(k),
    |sin kL_e| < SPLIT_TOL and kL_e >= pi/2, split at t L_e by a vertex of
    degree 2, which leaves the spectrum as it is (Berkolaiko & Kuchment,
    Introduction to Quantum Graphs, 2013, 1.4); t is the one of SPLITS that
    keeps |sin n pi t|, both pieces' |sin| at kL_e = n pi, largest.  Complex
    k is tested by |Re k|, since |sin kL| >= |sin(Re k L)|.

    Returns the origin, terminus and length of each piece and whether it is
    there, shape (len(ks), E + |cut|), and the number of vertices
    V + |split| at each k; where no k splits an edge, the pieces are the
    edges, shape (E,), and all there (None).
    Piece 1 of each edge runs from its origin to the vertex w where it is
    split, else to its terminus; piece 2 of each edge split at some k (cut)
    runs from w to its terminus and is there where it is split.  The w of
    one k are vertices V, V + 1, ...
    """
    kl = np.multiply.outer(np.abs(ks.real), lengths)
    turns = kl / np.pi
    split = (np.abs(np.sin(kl)) < SPLIT_TOL) & (turns > 0.5)   # round(turns) > 0
    if not split.any():
        return eo, et, lengths, None, np.full(kl.shape[0], n_vertices)
    cut = np.flatnonzero(split.any(axis=0))
    split, turns = split[:, cut], np.round(turns[:, cut])
    best = np.argmax(np.abs(np.sin(np.multiply.outer(turns, np.pi * SPLITS))), 2)
    t = np.where(split, SPLITS[best], 1.0)
    w = n_vertices - 1 + np.cumsum(split, axis=1)
    org = np.concatenate([np.broadcast_to(eo, kl.shape), w], axis=1)
    ter = np.concatenate([np.broadcast_to(et, kl.shape), np.broadcast_to(et[cut], w.shape)], 1)
    ter[:, cut] = np.where(split, w, et[cut])
    ell = np.concatenate([np.broadcast_to(lengths, kl.shape),
                          np.where(split, 1 - t, 1.0) * lengths[cut]], axis=1)
    ell[:, cut] *= t
    on = np.concatenate([np.ones(kl.shape), split], axis=1)
    return org, ter, ell, on, n_vertices + np.sum(split, axis=1)


def _flat(org, ter, n):
    """Where the four entries of each piece go in an n x n matrix."""
    return np.concatenate([org, ter, org, ter], -1) * n + np.concatenate([org, ter, ter, org], -1)


def vertex_matrices(eo, et, lengths, n_vertices, ks):
    """Lambda(k) of the split graph at each k in ks, all float k >= 0, or
    all complex k with Im k >= 0, stacked per width V + |split| in chunks of
    points and of matrices.  Yields the indices into ks of each stack, its
    matrices, the size of their entries (the largest magnitude one piece
    puts into an entry: entries of several pieces can cancel, as in the
    1 x 1 Lambda(k) of one vertex with loops), and for real k the matrices
    Lambda_lambda = Lambda'(k) / 2k.  At k = 0 both take their limits, the
    graph Laplacian weighted by 1/L and the mass matrix, -L/3 and -L/6 per
    piece."""
    ks = np.asarray(ks)
    index = np.arange(ks.size)
    for at in _points(ks, n_vertices + len(eo)):
        org, ter, ell, on, dim = split_graph(eo, et, lengths, n_vertices, ks[at])
        k = ks[at, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            d, o, *dk = dtn_entries(k, ell)
            # diagonal and off-diagonal entries of Lambda, then of Lambda_lambda
            e = [d, o, *(x / (2 * k) for x in dk)]
        e = [np.where(k == 0, x0, x) for x, x0 in zip(e, (1 / ell, -1 / ell, -ell / 3, -ell / 6))]
        vals = [np.concatenate([d, d, o, o], axis=1) for d, o in zip(e[::2], e[1::2])]
        if on is not None:
            for v in vals:
                v *= np.tile(on, 4)
        size = np.max(np.abs(vals[0]), axis=1)
        for n, rows, mats in _stacked(org, ter, dim, *vals):
            yield index[at][rows], mats[0], size[rows], *mats[1:]


def vertex_count(eo, et, lengths, n_vertices, ks):
    """Number of eigenvalues lambda < k^2, lambda = 0 included, at each k in
    ks > 0, with the eigenvalues mu_j(k) of Lambda(k) of the split graph
    (`split_graph`, at SPLIT_TOL) in ascending order and their derivatives
    d mu_j / dk, shape (len(ks), V + E), each row V + |split| of them, then
    NaN.  The points are taken in chunks of CHUNK_BYTES of mu_j.

    With D(k) = sum (ceil(kl/pi) - 1) over the pieces l the count is
    D(k) + n_-(Lambda(k)) (Friedlander, Arch. Rational Mech. Anal. 116, 1991;
    Behrndt & Luger, J. Phys. A 43, 2010), and d mu_j / dk =
    v_j' Lambda'(k) v_j.  Between two poles each mu_j decreases.  One stacked
    `eigh` per width V + |split| in chunks, as in `vertex_matrices`.
    """
    ks = np.asarray(ks, dtype=float)
    count = np.empty(ks.size, dtype=np.int64)
    mu, dmu = np.full((2, ks.size, n_vertices + len(eo)), np.nan)
    for at in _points(ks, mu.shape[1]):
        k, mu_k, dmu_k = ks[at], mu[at], dmu[at]
        org, ter, ell, on, dim = split_graph(eo, et, lengths, n_vertices, k)
        d, o, dd, do = dtn_entries(k[:, None], ell)
        # Lambda(k) at each k, then Lambda'(k)
        vals = [np.concatenate([a, a, b, b], axis=1) for a, b in ((d, o), (dd, do))]
        dirichlet = np.ceil(k[:, None] * ell / np.pi) - 1
        if on is not None:              # pieces not there add nothing
            for v in vals:
                v *= np.tile(on, 4)
            dirichlet *= on
        for n, rows, (lam, dlam) in _stacked(org, ter, dim, *vals):
            mu_k[rows, :n], vec = np.linalg.eigh(lam)
            dmu_k[rows, :n] = (vec * (dlam @ vec)).sum(axis=1)
        count[at] = dirichlet.sum(axis=1).astype(np.int64) + (mu_k < 0).sum(axis=1)
    return count, mu, dmu


# Nothing calls this name; the benchmark tracer (perfbench/spans.py) wraps it
# as its "kernels.scan_sigma_min" span.  Drop it together with that target.
scan_sigma_min = vertex_count
