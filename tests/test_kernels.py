import cmath
import math

import numpy as np

from qglab import kernels
from qglab.spectral import _edge_arrays


def arrays(graph):
    eo, et, ln, _ = _edge_arrays(graph)
    return eo, et, ln, len(graph.vertices)


# Per-point references: one matrix at a time, entry by entry.

def reference_real(eo, et, ln, nv, k):
    ne = len(eo)
    a = np.zeros((2 * ne + nv, 2 * ne + nv))
    for e in range(ne):
        r_o, r_t = 2 * ne + eo[e], 2 * ne + et[e]
        cl = math.cos(k * ln[e])
        sl = math.sin(k * ln[e]) if k else ln[e]   # affine ansatz at k = 0
        a[2 * e, 2 * e] = 1.0
        a[2 * e, r_o] = -1.0
        a[2 * e + 1, 2 * e] = cl
        a[2 * e + 1, 2 * e + 1] = sl
        a[2 * e + 1, r_t] = -1.0
        a[r_t, 2 * e] += -math.sin(k * ln[e])
        a[r_t, 2 * e + 1] += cl
        a[r_o, 2 * e + 1] -= 1.0
    return a


def reference_complex(eo, et, ln, nv, mu):
    ne = len(eo)
    k = cmath.sqrt(mu)
    if k.imag < 0:
        k = -k
    ik = 1j * k
    a = np.zeros((2 * ne + nv, 2 * ne + nv), dtype=complex)
    for e in range(ne):
        r_o, r_t = 2 * ne + eo[e], 2 * ne + et[e]
        g = cmath.exp(ik * ln[e])
        a[2 * e, 2 * e] = 1.0
        a[2 * e, 2 * e + 1] = g
        a[2 * e, r_o] = -1.0
        a[2 * e + 1, 2 * e] = g
        a[2 * e + 1, 2 * e + 1] = 1.0
        a[2 * e + 1, r_t] = -1.0
        a[r_t, 2 * e] += ik * g
        a[r_t, 2 * e + 1] += -ik
        a[r_o, 2 * e] -= ik
        a[r_o, 2 * e + 1] -= -ik * g
    return a


def test_batched_scan_matches_per_point_svd(dumbbell):
    eo, et, ln, nv = arrays(dumbbell)
    dim = 2 * len(eo) + nv
    ks = np.linspace(0.3, 12.0, 301)
    assert len(ks) > kernels.CHUNK_BYTES // (8 * dim * dim)   # several chunks
    ref = [np.linalg.svd(reference_real(eo, et, ln, nv, k))[1][-1] for k in ks]
    act = kernels.scan_sigma_min(eo, et, ln, nv, ks)
    assert np.allclose(act, ref, rtol=0, atol=1e-12)


def test_batched_assembly_matches_per_point(dumbbell, loop_pendant):
    for graph in (dumbbell, loop_pendant):      # loop_pendant has a loop edge
        eo, et, ln, nv = arrays(graph)
        ks = [0.0, 0.7, 2.0, 6.283]
        for k, a in zip(ks, kernels.assemble_real(eo, et, ln, nv, ks)):
            assert np.allclose(a, reference_real(eo, et, ln, nv, k), rtol=0, atol=1e-12)
        mus = [-40.0, 0.7 + 0.2j, 6.283 - 1.0j, 39.0 + 1e-3j]
        for mu, a in zip(mus, kernels.assemble_complex(eo, et, ln, nv, mus)):
            assert np.allclose(a, reference_complex(eo, et, ln, nv, mu), rtol=0, atol=1e-12)


def test_scan_values_positive(interval_pi):
    eo, et, ln, nv = arrays(interval_pi)
    ks = np.array([0.5, 1.0, 1.5])
    sig = np.asarray(kernels.scan_sigma_min(eo, et, ln, nv, ks))
    assert np.all(sig >= 0)
    # k = 1 is an eigenvalue of the length-pi interval, the others are not
    assert sig[1] < 1e-8
    assert sig[0] > 1e-3 and sig[2] > 1e-3
