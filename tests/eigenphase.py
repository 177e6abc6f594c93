"""The Kirchhoff eigenphase count, kept as an independent reference for the
Friedlander vertex count of `qglab.kernels.vertex_count`.

On the 2E directed bonds (bond 2e runs origin -> terminus of edge e, bond
2e+1 back) the Kirchhoff scattering matrix S[b', b] = 2/deg(v) -
delta(b', reverse b), for b ending and b' starting at v, does not depend on
k, and the eigenphases w_j of U(k) S, U = diag(exp(i k L_b)), increase with
k.  So (2 L_tot k - sum_j w_j) / 2 pi, with w_j in [0, 2 pi), is the number
of eigenvalues lambda = kappa^2 with 0 < kappa <= k plus a constant
(Kottos & Smilansky, Ann. Phys. 274, 1999; Berkolaiko & Kuchment,
Introduction to Quantum Graphs, 2013, section 2.1), which vanishes at
k0 = pi/(2 L_tot), below the first positive eigenvalue.
"""

import math

import numpy as np


def eigenphase_count(eo, et, lengths, n_vertices, ks) -> np.ndarray:
    """The number of eigenvalues lambda with 0 < lambda <= k^2 at each k in
    ks, each within 1e-6 of an integer (asserted)."""
    ks = np.append(math.pi / (2 * np.sum(lengths)), np.asarray(ks, dtype=float))
    b = np.arange(2 * eo.shape[0])
    tail = np.stack([eo, et], axis=1).reshape(-1)
    head = tail[b ^ 1]
    deg = np.bincount(tail, minlength=n_vertices)
    s = np.where(tail[:, None] == head, 2.0 / deg[head], 0.0)
    s[b ^ 1, b] -= 1.0
    bond_lengths = np.repeat(lengths, 2)
    u = np.exp(1j * np.multiply.outer(ks, bond_lengths))
    w = np.mod(np.angle(np.linalg.eigvals(u[:, :, None] * s)), 2 * np.pi)
    raw = (ks * np.sum(bond_lengths) - np.sum(w, axis=1)) / (2 * np.pi)
    count = raw[1:] - raw[0]
    assert np.all(np.abs(count - np.round(count)) < 1e-6), count
    return np.round(count).astype(np.int64)
