"""Hot numeric kernels: the secular matrices stacked over many spectral
parameters, and the smallest singular value of the real one on a k grid.

Unknown layout: a_e = col 2e, b_e = col 2e+1, c_v = col 2*nE + v.  Rows:
value at origin, value at terminus per edge; derivative balance per vertex.

Stacks are processed in chunks of at most CHUNK_BYTES per stacked matrix
array, so a long grid or contour never holds more than that in matrices.
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
