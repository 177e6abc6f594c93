"""Hot numeric kernels: the secular matrices stacked over many spectral
parameters, the smallest singular value of the real one, the Kirchhoff
eigenphase count from the 2E x 2E bond-scattering matrix, and the
Friedlander count from the V x V vertex Dirichlet-to-Neumann matrix, each at
many parameters per call.

It owns the secular system: one scatter builds it for both edge bases, and
`unknowns` is the one reader of its layout, a_e = col 2e, b_e = col 2e+1,
c_v = col 2*nE + v.

Stacks are processed in chunks of at most CHUNK_BYTES per stacked matrix
array, so a long array of wavenumbers never holds more than that in
matrices.
"""

from __future__ import annotations

import numpy as np

CHUNK_BYTES = 256 * 1024


def chunks(n: int, matrix_bytes: int):
    """Slices of range(n) holding at most CHUNK_BYTES of matrices each."""
    step = max(1, CHUNK_BYTES // matrix_bytes)
    for i in range(0, n, step):
        yield slice(i, min(i + step, n))


def unknowns(ne: int, vertices) -> tuple[slice, slice, np.ndarray]:
    """Where the unknowns a_e and b_e of all ne edges lie, and the indices of
    c_v for the given vertex indices: columns of a secular matrix, rows of
    its null vectors."""
    return (slice(0, 2 * ne, 2), slice(1, 2 * ne, 2),
            2 * ne + np.asarray(vertices, dtype=np.int64))


def _scatter(eo, et, n_vertices, at_0, at_l):
    """Secular matrices from each edge's two basis functions u, v, given as
    (u, v, u', v') at x = 0 (at_0) and at x = L (at_l), each a scalar or an
    array broadcast to (stack, nE).  Rows: value at origin, value at terminus
    per edge; derivative balance per vertex, incoming f'(L) minus outgoing f'(0).
    """
    ne = eo.shape[0]
    a_e, b_e, r_o = unknowns(ne, eo)
    ra, rb, r_t = np.arange(2 * ne)[a_e], np.arange(2 * ne)[b_e], unknowns(ne, et)[2]
    stack = np.broadcast(*at_0, *at_l).shape[0]
    out = np.zeros((stack, 2 * ne + n_vertices, 2 * ne + n_vertices),
                   dtype=np.result_type(*at_0, *at_l))
    for row, r_v, (u, v, _, _) in ((ra, r_o, at_0), (rb, r_t, at_l)):
        out[:, row, ra], out[:, row, rb], out[:, row, r_v] = u, v, -1.0
    # a loop edge has r_t == r_o, so its balance terms add up in one entry
    out[:, r_t, ra] += at_l[2]
    out[:, r_t, rb] += at_l[3]
    out[:, r_o, ra] -= at_0[2]
    out[:, r_o, rb] -= at_0[3]
    return out


def assemble_real(eo, et, lengths, n_vertices, ks) -> np.ndarray:
    """Secular matrices at the wavenumbers ks >= 0, shape (len(ks), dim, dim).

    Basis cos(kx), sin(kx) per edge, slopes divided by k so entries stay
    O(1).  At k = 0 the sine is replaced by x, which gives the affine ansatz
    a + b x with plain slopes.
    """
    ks = np.asarray(ks, dtype=float)[:, None]
    kl = ks * lengths
    cl, sn = np.cos(kl), np.sin(kl)
    sl = np.where(ks == 0.0, lengths, sn)
    return _scatter(eo, et, n_vertices, (1.0, 0.0, 0.0, 1.0), (cl, sl, -sn, cl))


def assemble_complex(eo, et, lengths, n_vertices, mus) -> np.ndarray:
    """Complex secular matrices at the spectral parameters mus (k = sqrt(mu)),
    shape (len(mus), dim, dim).

    Uses the bounded exponential basis exp(ikx), exp(ik(L-x)) with
    Im k >= 0, so entries stay O(1) even deep on the negative real axis
    where cos/sin would overflow.  Derivative-balance rows are the actual
    balance expressions, so a unit right-hand side there means a unit
    derivative balance.
    """
    k = np.sqrt(np.asarray(mus, dtype=complex))
    k = np.where(k.imag < 0, -k, k)
    if np.any(k == 0):
        raise ValueError("mu = 0 needs the affine assembly")
    ik = (1j * k)[:, None]
    g = np.exp(ik * lengths)          # |g| <= 1
    return _scatter(eo, et, n_vertices, (1.0, g, ik, -ik * g), (g, 1.0, ik * g, -ik))


def scan_sigma_min(eo, et, lengths, n_vertices, ks) -> np.ndarray:
    """Smallest singular value of the real secular matrix at each k in ks."""
    ks = np.asarray(ks, dtype=float)
    dim = 2 * eo.shape[0] + n_vertices
    out = np.empty(ks.shape[0])
    for sl in chunks(ks.shape[0], 8 * dim * dim):
        a = assemble_real(eo, et, lengths, n_vertices, ks[sl])
        out[sl] = np.linalg.svd(a, compute_uv=False)[:, -1]
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
    ks, with the eigenvalues mu_j(k) of the vertex matrix Lambda(k) in
    ascending order and their derivatives d mu_j / dk, each of shape
    (len(ks), n_vertices).

    Lambda(k) is the V x V vertex Dirichlet-to-Neumann matrix in the sign of
    the secular system: each edge end adds k cot kL on the diagonal, each
    edge that is no loop adds -k / sin kL off it, and a loop adds
    -2k tan(kL/2) on the diagonal.  With D(k) = sum_e (ceil(kL_e/pi) - 1)
    the Dirichlet eigenvalues of the edges below k, the count is
    D(k) + n_-(Lambda(k)) (Friedlander, Arch. Rational Mech. Anal. 116, 1991;
    for metric graphs Behrndt & Luger, J. Phys. A 43, 2010).  Every k must
    lie off the poles sin kL_e = 0, where Lambda is undefined and its
    inertia loses digits; d mu_j / dk = v_j' Lambda'(k) v_j (Hellmann-Feynman).
    Between two poles each mu_j decreases with k.
    """
    ks = np.asarray(ks, dtype=float)
    loop = eo == et
    o, t, v = eo[~loop], et[~loop], eo[loop]
    size = n_vertices * n_vertices
    flat = np.concatenate([o, t, o, t, v]) * n_vertices + np.concatenate([o, t, t, o, v])
    ln, ll = lengths[~loop], lengths[loop]
    mu = np.empty((ks.shape[0], n_vertices))
    dmu = np.empty((ks.shape[0], n_vertices))
    for sl in chunks(ks.shape[0], 16 * size):
        k = ks[sl, None]
        m = k.shape[0]
        kl, kh = k * ln, k * ll / 2
        sn, cs, tn = np.sin(kl), np.cos(kl), np.tan(kh)
        diag, off, loops = k * cs / sn, -k / sn, -2 * k * tn
        d_diag, d_off = (cs * sn - kl) / sn ** 2, (kl * cs - sn) / sn ** 2
        d_loops = -2 * tn - 2 * kh / np.cos(kh) ** 2
        # entries (row, col) at flat = row * V + col of Lambda(k), then of Lambda'(k)
        vals = np.concatenate([diag, diag, off, off, loops,
                               d_diag, d_diag, d_off, d_off, d_loops], axis=1)
        at = np.arange(m)[:, None] * size + np.concatenate([flat, flat + m * size])
        lam, dlam = np.bincount(at.ravel(), vals.ravel(), minlength=2 * m * size).reshape(
            2, m, n_vertices, n_vertices)
        mu[sl], vec = np.linalg.eigh(lam)
        dmu[sl] = np.sum(vec * (dlam @ vec), axis=1)
    dirichlet = np.sum(np.ceil(np.multiply.outer(ks, lengths) / np.pi) - 1, axis=1)
    return dirichlet.astype(np.int64) + np.count_nonzero(mu < 0, axis=1), mu, dmu
