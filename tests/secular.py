"""The (2E+V) secular system, kept as an independent reference for the
vertex matrix Lambda(k) of the split graph, `qglab.kernels.vertex_matrices`.

It couples the per-edge coefficients (a_e, b_e) with explicit vertex values
c_v; `unknowns` is the one reader of its layout, a_e = col 2e, b_e =
col 2e+1, c_v = col 2*nE + v.  Its null space at k has the dimension of the
eigenspace at lambda = k^2, and the c block of its inverse at complex mu is
the Neumann-to-Dirichlet matrix.
"""

import numpy as np


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
