"""Hot numeric kernels: the secular matrices stacked over many spectral
parameters, the smallest singular value of the real one, and the Kirchhoff
eigenphase count, each at many parameters per call.

Unknown layout: a_e = col 2e, b_e = col 2e+1, c_v = col 2*nE + v.  Rows:
value at origin, value at terminus per edge; derivative balance per vertex.

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


def assemble_real(eo, et, lengths, n_vertices, ks) -> np.ndarray:
    """Secular matrices at the wavenumbers ks >= 0, shape (len(ks), dim, dim).

    Basis a cos(kx) + b sin(kx) per edge, derivative balance divided by k
    so entries stay O(1).  At k = 0 the sine is replaced by x, which gives
    the affine ansatz a + b x with the plain derivative balance.
    """
    ks = np.asarray(ks, dtype=float)
    ne = eo.shape[0]
    dim = 2 * ne + n_vertices
    kl = np.multiply.outer(ks, lengths)
    cl, sn = np.cos(kl), np.sin(kl)
    sl = np.where(ks[:, None] == 0.0, lengths, sn)
    e = np.arange(ne)
    ra, rb = 2 * e, 2 * e + 1
    r_o, r_t = 2 * ne + eo, 2 * ne + et
    out = np.zeros((ks.shape[0], dim, dim))
    out[:, ra, ra] = 1.0
    out[:, ra, r_o] = -1.0
    out[:, rb, ra] = cl
    out[:, rb, rb] = sl
    out[:, rb, r_t] = -1.0
    # a loop edge has r_t == r_o, so its balance terms add up in one entry
    out[:, r_t, ra] += -sn
    out[:, r_t, rb] += cl
    out[:, r_o, rb] -= 1.0
    return out


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
    ne = eo.shape[0]
    dim = 2 * ne + n_vertices
    ik = (1j * k)[:, None]
    g = np.exp(ik * lengths)          # |g| <= 1
    e = np.arange(ne)
    ra, rb = 2 * e, 2 * e + 1
    r_o, r_t = 2 * ne + eo, 2 * ne + et
    out = np.zeros((k.shape[0], dim, dim), dtype=complex)
    out[:, ra, ra] = 1.0
    out[:, ra, rb] = g
    out[:, ra, r_o] = -1.0
    out[:, rb, ra] = g
    out[:, rb, rb] = 1.0
    out[:, rb, r_t] = -1.0
    # f'(L) = ik*(alpha*g - beta); f'(0) = ik*(alpha - beta*g)
    out[:, r_t, ra] += ik * g
    out[:, r_t, rb] += -ik
    out[:, r_o, ra] -= ik
    out[:, r_o, rb] -= -ik * g
    return out


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
