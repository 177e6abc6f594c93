"""Hot numeric kernels, each at many parameters per call: the Kirchhoff
eigenphase count from the 2E x 2E bond-scattering matrix, the Friedlander
count from the V x V vertex Dirichlet-to-Neumann matrix Lambda(k), whose
entries `dtn_entries` owns, and the bordered vertex system A(k), Lambda(k)
with one unknown and one row per edge on a pole, and its sigma_min.

Stacks go in chunks of at most CHUNK_BYTES per stacked matrix array, so a
long array of wavenumbers never holds more than that in matrices.
"""

from __future__ import annotations

import numpy as np

CHUNK_BYTES = 256 * 1024
# Edge e is on a pole of Lambda(k) where |sin kL_e| < POLE_TOL: A(k) borders
# it and `spectral.eigenvalues_in` counts by eigenphases.  Next to a pole the
# eigenvalues of Lambda carry errors of about eps*k/|sin kL_e|, and its inertia
# was off by one within 1e-10 relative of k = pi on unit grids.  With 1e-7 or
# 1e-8 the eigenvalue 5.3e-6 below 4 pi^2 of a unit loop with a pendant of
# length 0.5000001, between two steps 2e-7 apart, is misplaced.
POLE_TOL = 1e-6


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


def eigenphase_count(eo, et, lengths, n_vertices, ks) -> tuple[np.ndarray, np.ndarray]:
    """Uncalibrated eigenvalue count and the signed eigenphase nearest 0 at
    each k in ks.

    On the 2E directed bonds (bond 2e runs origin -> terminus of edge e,
    bond 2e+1 back) the Kirchhoff scattering matrix S[b', b] = 2/deg(v) -
    delta(b', reverse b), for b ending and b' starting at v, does not depend
    on k, and the eigenphases w_j of U(k) S, U = diag(exp(i k L_b)), increase
    with k.  So (2 L_tot k - sum_j w_j) / 2 pi, with w_j in [0, 2 pi), is the
    number of eigenvalues lambda = kappa^2 with 0 < kappa <= k plus a
    constant (Kottos & Smilansky, Ann. Phys. 274, 1999; Berkolaiko &
    Kuchment, Introduction to Quantum Graphs, 2013, section 2.1).
    """
    ks = np.asarray(ks, dtype=float)
    b = np.arange(2 * eo.shape[0])
    tail = np.stack([eo, et], axis=1).reshape(-1)
    head = tail[b ^ 1]
    deg = np.bincount(tail, minlength=n_vertices)
    s = np.where(tail[:, None] == head, 2.0 / deg[head], 0.0)
    s[b ^ 1, b] -= 1.0
    bond_lengths = np.repeat(lengths, 2)
    count = np.empty(ks.shape[0])
    nearest = np.empty(ks.shape[0])
    for sl in chunks(ks.shape[0], 16 * s.size):
        u = np.exp(1j * np.multiply.outer(ks[sl], bond_lengths))
        w = np.angle(np.linalg.eigvals(u[:, :, None] * s))      # (-pi, pi]
        count[sl] = (ks[sl] * np.sum(bond_lengths)
                     - np.sum(np.mod(w, 2 * np.pi), axis=1)) / (2 * np.pi)
        nearest[sl] = w[np.arange(w.shape[0]), np.argmin(np.abs(w), axis=1)]
    return count, nearest


def vertex_count(eo, et, lengths, n_vertices, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number of eigenvalues lambda < k^2, lambda = 0 included, at each k in
    ks, with the eigenvalues mu_j(k) of Lambda(k) in ascending order and
    their derivatives d mu_j / dk, each of shape (len(ks), n_vertices).

    Lambda(k) is the V x V vertex Dirichlet-to-Neumann matrix of
    `dtn_entries`, in the sign of the balance rows of A(k).  With
    D(k) = sum_e (ceil(kL_e/pi) - 1) the Dirichlet eigenvalues of the edges
    below k, the count is D(k) + n_-(Lambda(k)) (Friedlander, Arch. Rational
    Mech. Anal. 116, 1991; for metric graphs Behrndt & Luger, J. Phys. A 43,
    2010).  Every k must lie off the poles sin kL_e = 0, where Lambda is
    undefined and its inertia loses digits; d mu_j / dk = v_j' Lambda'(k) v_j
    (Hellmann-Feynman).  Between two poles each mu_j decreases with k.
    """
    ks = np.asarray(ks, dtype=float)
    loop = eo == et
    o, t, v = eo[~loop], et[~loop], eo[loop]
    flat = np.concatenate([o, t, o, t, v]) * n_vertices + np.concatenate([o, t, t, o, v])
    mu, dmu = np.empty((2, ks.shape[0], n_vertices))
    for sl in chunks(ks.shape[0], 16 * n_vertices * n_vertices):
        e = dtn_entries(ks[sl, None], lengths[~loop], lengths[loop])
        # Lambda(k) at each k, then Lambda'(k)
        vals = np.concatenate([np.concatenate([d, d, o, o, lp], axis=1)
                               for d, o, lp in (e[:3], e[3:])])
        lam, dlam = _dense(flat, vals, n_vertices).reshape(2, -1, n_vertices, n_vertices)
        mu[sl], vec = np.linalg.eigh(lam)
        dmu[sl] = np.sum(vec * (dlam @ vec), axis=1)
    dirichlet = np.sum(np.ceil(np.multiply.outer(ks, lengths) / np.pi) - 1, axis=1)
    return dirichlet.astype(np.int64) + np.count_nonzero(mu < 0, axis=1), mu, dmu
