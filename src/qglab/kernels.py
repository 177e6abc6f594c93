"""Hot numeric kernels, each at many parameters per call: the Friedlander
eigenvalue count from the vertex Dirichlet-to-Neumann matrix Lambda(k) of
the graph with its edges on a pole split, whose entries `dtn_entries` owns,
and the bordered vertex system A(k), Lambda(k) with one unknown and one row
per edge on a pole, and its sigma_min.

Stacks go in chunks of at most CHUNK_BYTES per stacked matrix array, so a
long array of wavenumbers never holds more than that in matrices.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK_BYTES = 256 * 1024
# Edge e is on a pole of Lambda(k) where |sin kL_e| < POLE_TOL: A(k) borders
# it, which keeps its entries below k / POLE_TOL.
POLE_TOL = 1e-6
# `vertex_count` splits edge e where |sin kL_e| < SPLIT_TOL, so Lambda's
# entries stay below k / SPLIT_TOL and its mu_j near 0 keep their digits.
SPLIT_TOL = 1e-2
# Fractions t of an edge at which it is split: for every n up to 2e5 one of
# them has |sin n pi t| > 0.09.
SPLITS = np.array([(3 - math.sqrt(5)) / 2, math.sqrt(2) - 1, (math.sqrt(3) - 1) / 2,
                   1 / math.pi])


def chunks(n: int, matrix_bytes: int):
    """Slices of range(n) holding at most CHUNK_BYTES of matrices each."""
    step = max(1, CHUNK_BYTES // matrix_bytes)
    for i in range(0, n, step):
        yield slice(i, min(i + step, n))


def poles(ks, lengths, tol=POLE_TOL) -> np.ndarray:
    """Whether |sin kL_e| < tol, at each k in ks (rows) and edge e (columns);
    for complex k (Im k >= 0) as |1 - g^2| < 2 tol |g| with g = exp(ikL),
    which does not overflow."""
    kl = np.multiply.outer(ks, lengths)
    if np.iscomplexobj(kl):
        return np.abs(1 - np.exp(2j * kl)) < 2 * tol * np.exp(-kl.imag)
    return np.abs(np.sin(kl)) < tol


def dtn_entries(k, lengths, loops):
    """Lambda(k)'s entries at each k of the column k: k cot kL at both ends
    and -k / sin kL between them per edge of `lengths`, -2k tan(kL/2) per
    loop of `loops`.  For real k also their derivatives in k, after them;
    for complex k (Im k >= 0) the entries alone, in the forms in
    g = exp(ikL), |g| <= 1, which do not overflow deep on the negative axis."""
    if np.iscomplexobj(k):
        g, h = np.exp(1j * k * lengths), np.exp(1j * k * loops)
        return (-1j * k * (1 + g * g) / (1 - g * g), 2j * k * g / (1 - g * g),
                2j * k * (h - 1) / (h + 1))
    kl, kh = k * lengths, k * loops / 2
    sn, cs, tn = np.sin(kl), np.cos(kl), np.tan(kh)
    return (k * cs / sn, -k / sn, -2 * k * tn, (cs * sn - kl) / sn ** 2,
            (kl * cs - sn) / sn ** 2, -2 * tn - 2 * kh / np.cos(kh) ** 2)


def _dense(flat, vals, n) -> np.ndarray:
    """n x n matrices, one per row of vals, each with vals[i, j] added at
    flat[j] = row * n + col: a loop's or parallel edges' entries add up."""
    m = vals.shape[0]
    at = (np.arange(m)[:, None] * (n * n) + flat).ravel()
    out = np.bincount(at, vals.real.ravel(), minlength=m * n * n)
    if np.iscomplexobj(vals):
        out = out + 1j * np.bincount(at, vals.imag.ravel(), minlength=m * n * n)
    return out.reshape(m, n, n)


def bordered(eo, et, lengths, n_vertices, ks, tol=POLE_TOL):
    """A(k) at each k in ks, all float k >= 0 or all complex k with
    Im k >= 0, shape (len(ks), n, n) with n = V + |P|; the size of each
    one's entries; and P, the edges with |sin kL_e| < tol at some k in ks
    (a bordered edge off its pole is exact too).

    Unknowns: the vertex values c_v, then beta_e = k b_e per edge e in P,
    on which f_e = c_o cos kx + b_e sin kx.  Rows: the derivative balance at
    each vertex, incoming f'(L) minus outgoing f'(0), which each edge off P
    enters through Lambda(k); then c_o cos kL + beta_e sin(kL)/k - c_t = 0
    per edge in P.  At k = 0 every edge is in P and sin(kx)/k is x.  The
    size is the largest magnitude one edge puts into an entry, at least
    max(1, |k|): entries of several edges can cancel, as in the 1 x 1 A(k)
    of one vertex with loops."""
    ks = np.asarray(ks)
    pole = poles(ks, lengths, tol).any(axis=0)
    ks = ks[:, None]
    loop = eo == et
    free, ring = ~pole & ~loop, ~pole & loop
    o, t, v, po, pt = eo[free], et[free], eo[ring], eo[pole], et[pole]
    r = n_vertices + np.arange(po.size)
    n = n_vertices + po.size
    diag, off, loops = dtn_entries(ks, lengths[free], lengths[ring])[:3]
    kl = ks * lengths[pole]
    cs, one = np.cos(kl), np.ones(kl.shape)
    sk = np.where(ks == 0, lengths[pole], np.sin(kl) / np.where(ks == 0, 1, ks))
    rows = np.concatenate([o, t, o, t, v, pt, pt, po, r, r, r])
    cols = np.concatenate([o, t, t, o, v, po, r, r, po, r, pt])
    vals = np.concatenate([diag, diag, off, off, loops,
                           -ks * np.sin(kl), cs, -one, cs, sk, -one], axis=1)
    size = np.maximum(np.max(np.abs(vals), axis=1, initial=1.0), np.abs(ks[:, 0]))
    return _dense(rows * n + cols, vals, n), size, pole


def scan_sigma_min(eo, et, lengths, n_vertices, ks) -> np.ndarray:
    """Smallest singular value of A(k) at each k in ks >= 0, stacking the ks
    with the same edges on a pole."""
    ks = np.asarray(ks, dtype=float)
    out = np.empty(ks.shape[0])
    sets: dict[bytes, list[int]] = {}
    for i, row in enumerate(poles(ks, lengths)):
        sets.setdefault(row.tobytes(), []).append(i)
    for key, at in sets.items():
        dim = n_vertices + sum(key)                # one byte 0 or 1 per edge
        for sl in chunks(len(at), 8 * dim * dim):
            a = bordered(eo, et, lengths, n_vertices, ks[at[sl]])[0]
            out[at[sl]] = np.linalg.svd(a, compute_uv=False)[:, -1]
    return out


def vertex_count(eo, et, lengths, n_vertices, ks, tol=SPLIT_TOL):
    """Number of eigenvalues lambda < k^2, lambda = 0 included, at each k in
    ks > 0, with the eigenvalues mu_j(k) of the vertex matrix in ascending
    order and their derivatives d mu_j / dk, shape (len(ks), W), each row
    V + |split| of them, then NaN.

    The vertex matrix is Lambda(k) (`dtn_entries`, in the sign of the balance
    rows of A(k)) of the graph with each edge on a pole, |sin kL_e| < tol and
    kL_e >= pi/2, split at t L_e by a vertex of degree 2, which leaves the
    spectrum as it is (Berkolaiko & Kuchment, Introduction to Quantum Graphs,
    2013, 1.4); t is the one of SPLITS that keeps |sin n pi t|, both pieces'
    |sin| at kL_e = n pi, largest.  With D(k) = sum (ceil(kl/pi) - 1) over the
    pieces l the count is D(k) + n_-(Lambda(k)) (Friedlander, Arch. Rational
    Mech. Anal. 116, 1991; Behrndt & Luger, J. Phys. A 43, 2010), and
    d mu_j / dk = v_j' Lambda'(k) v_j.  Between two poles each mu_j decreases.
    One stacked `eigh` is W = V + the most edges split at one k wide; a row
    that splits fewer is padded with decoupled vertices at twice its
    Gershgorin bound, above all of its mu_j, which leaves n_- as it is.
    """
    ks = np.asarray(ks, dtype=float)
    kl = np.multiply.outer(ks, lengths)
    turns = np.round(kl / np.pi)
    split = (np.abs(np.sin(kl)) < tol) & (turns > 0)
    cut = np.flatnonzero(split.any(axis=0))
    org, ter, ell, on, n, pad = eo, et, lengths, np.ones(kl.shape), n_vertices, np.zeros(0, int)
    if cut.size:
        # Piece 1 of each edge runs from its origin to w where it is split,
        # else to its terminus; piece 2 of each edge in cut from w to its
        # terminus, with no entries where it is not split.
        split = split[:, cut]
        best = np.argmax(np.abs(np.sin(np.multiply.outer(turns[:, cut], np.pi * SPLITS))), 2)
        t = np.where(split, SPLITS[best], 1.0)
        dim = n_vertices + np.sum(split, axis=1)
        n = int(np.max(dim))
        w = n_vertices - 1 + np.cumsum(split, axis=1)
        org = np.concatenate([np.broadcast_to(eo, kl.shape), w], axis=1)
        ter = np.concatenate([np.broadcast_to(et, kl.shape), np.broadcast_to(et[cut], w.shape)], 1)
        ter[:, cut] = np.where(split, w, et[cut])
        ell = np.concatenate([np.broadcast_to(lengths, kl.shape),
                              np.where(split, 1 - t, 1.0) * lengths[cut]], axis=1)
        ell[:, cut] *= t
        on = np.concatenate([on, split], axis=1)
        pad = np.arange(n) >= dim[:, None]
    flat = np.concatenate([org, ter, org, ter], -1) * n + np.concatenate([org, ter, ter, org], -1)
    d, o, _, dd, do, _ = dtn_entries(ks[:, None], ell, lengths[:0])
    # Lambda(k) at each k, then Lambda'(k); a loop's four entries add up in one
    vals = [np.concatenate([a, a, b, b], axis=1) * np.tile(on, 4) for a, b in ((d, o), (dd, do))]
    flat = np.broadcast_to(flat, vals[0].shape)
    mu, dmu = np.empty((2, ks.size, n))
    for sl in chunks(ks.size, 16 * n * n):
        lam, dlam = (_dense(flat[sl], v[sl], n) for v in vals)
        if cut.size:
            gershgorin = np.max(np.sum(np.abs(lam), axis=2), axis=1)
            lam[:, np.arange(n), np.arange(n)] += 2 * gershgorin[:, None] * pad[sl]
        mu[sl], vec = np.linalg.eigh(lam)
        dmu[sl] = np.sum(vec * (dlam @ vec), axis=1)
    mu[pad] = dmu[pad] = np.nan
    dirichlet = np.sum((np.ceil(ks[:, None] * ell / np.pi) - 1) * on, axis=1)
    return dirichlet.astype(np.int64) + np.count_nonzero(mu < 0, axis=1), mu, dmu
