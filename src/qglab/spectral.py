"""Floating-point eigenvalue machinery for the Kirchhoff Laplacian.

The secular system couples the per-edge trigonometric coefficients (a_e, b_e)
with explicit vertex values c_v; its null space at wavenumber k > 0 has the
dimension of the eigenspace at lambda = k^2.  Eigenvalues are located by the
integer Kirchhoff eigenphase count, which brackets each one together with
its multiplicity; the smallest singular value of the secular system at
each hit is reported with it, not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph


REFINE_TOL = 1e-12     # a bracket is done at width <= REFINE_TOL * max(1, k)
COUNT_TOL = 1e-6       # largest distance of an eigenphase count from an integer
SEPARATION_TOL = 1e-6  # largest sigma_{n-m+1}/sigma_{n-m} of an m-fold eigenvalue


@dataclass(frozen=True)
class EdgeFunction:
    """f_e(x) = a_e cos(kx) + b_e sin(kx) per edge; a_e + b_e x when k=0."""

    k: float
    coeffs: dict        # edge id -> (a, b)
    vertex_values: dict  # vertex id -> value


@dataclass(frozen=True)
class EigenvalueHit:
    lam: float
    multiplicity: int
    k: float
    sigma_min: float


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[EigenvalueHit, ...]
    warnings: tuple[str, ...] = ()


def _edge_arrays(graph: MetricGraph):
    """Origin and terminus vertex indices and lengths of the edges, and the
    vertex index map; raises on isolated vertices, where the spectral
    operations are not supported."""
    vix = {v: i for i, v in enumerate(graph.vertices)}
    eo = np.array([vix[e.origin] for e in graph.edges], dtype=np.int64)
    et = np.array([vix[e.terminus] for e in graph.edges], dtype=np.int64)
    deg = np.bincount(np.concatenate([eo, et]), minlength=len(vix))
    lonely = [v for v, d in zip(graph.vertices, deg.tolist()) if d == 0]
    if lonely:
        raise ValueError(f"isolated vertices not supported in spectral ops: {lonely}")
    ln = np.array([e.length.value(graph.units) for e in graph.edges])
    return eo, et, ln, vix


def assemble_secular(graph: MetricGraph, k: float) -> np.ndarray:
    """Secular matrix at wavenumber k >= 0 (affine ansatz at k = 0)."""
    eo, et, ln, _ = _edge_arrays(graph)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return kernels.assemble_real(eo, et, ln, len(graph.vertices), [k])[0]


def eigenvalues_in(graph: MetricGraph, lambda_max: float) -> Spectrum:
    """Locate all eigenvalues with 0 < lambda <= lambda_max, prepending
    lambda = 0 with multiplicity beta0.

    N(k), the number of eigenvalues kappa^2 with 0 < kappa <= k, is the
    eigenphase count of `kernels.eigenphase_count` shifted to N(k0) = 0 at
    k0 = pi/(2 L_tot).  No eigenvalue lies in (0, k0]: a component of total
    length L has lambda_1 >= pi^2/L^2 (Nicaise) >= pi^2/L_tot^2.  The brackets
    [lo, hi] with N(hi) > N(lo) are split in lockstep, one stacked count per
    step, until each is at most REFINE_TOL*max(1, hi) wide; touching ones
    merge into one hit whose multiplicity is the jump of N across it.  A
    count off an integer by more than COUNT_TOL is a warning.
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    eo, et, ln, _ = _edge_arrays(graph)
    nv = len(graph.vertices)
    k0 = math.pi / (2.0 * float(np.sum(ln)))
    kmax = math.sqrt(lambda_max)
    off_integer: list[tuple[float, float]] = []

    def count(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw, phase = kernels.eigenphase_count(eo, et, ln, nv, ks)
        n = raw + shift
        off = np.abs(n - np.round(n)) > COUNT_TOL
        off_integer.extend(zip(ks[off].tolist(), n[off].tolist()))
        return np.round(n).astype(np.int64), phase

    shift = -kernels.eigenphase_count(eo, et, ln, nv, [k0])[0][0]
    # one column per open bracket; row 0 its lower end, row 1 its upper end
    k = np.array([[k0], [max(kmax, k0)]])
    n, p = (x.reshape(2, 1) for x in count(k.ravel()))
    forced = np.zeros(1, dtype=bool)
    done: list[tuple[float, float, int]] = []
    while True:
        tol = REFINE_TOL * np.maximum(1.0, k[1])
        jump = n[1] - n[0]
        fin = (jump != 0) & (k[1] - k[0] <= tol)
        done.extend(zip(k[0, fin].tolist(), k[1, fin].tolist(), jump[fin].tolist()))
        go = (jump != 0) & ~fin
        if not go.any():
            break
        k, n, p, forced, tol = k[:, go], n[:, go], p[:, go], forced[go], tol[go]
        # The secant root of the eigenphase nearest 0, when it crosses 0 in
        # the bracket, is evaluated with a point tol away, so a bracket whose
        # root it hits closes now; otherwise, and after a secant step that
        # did not halve the bracket, the midpoint.
        lo, hi = k
        sec = ~forced & (p[0] < 0) & (p[1] > 0)
        root = lo - p[0] * (hi - lo) / np.where(sec, p[1] - p[0], 1.0)
        x = np.where(sec, np.clip(root, lo + tol / 2, hi - tol / 2), (lo + hi) / 2)
        a, b = np.where(sec, x - tol / 2, x), np.where(sec, x + tol / 2, x)
        n_x, p_x = count(np.concatenate([a, b[sec]]))
        at_b = np.arange(lo.size)
        at_b[sec] = lo.size + np.arange(np.count_nonzero(sec))
        ends = (np.stack([lo, a, b, hi]),
                np.stack([n[0], n_x[:lo.size], n_x[at_b], n[1]]),
                np.stack([p[0], p_x[:lo.size], p_x[at_b], p[1]]))
        # children [lo, a], [a, b], [b, hi]; [a, b] is empty after a midpoint
        k, n, p = (np.stack([e[:-1].ravel(), e[1:].ravel()]) for e in ends)
        forced = np.tile(sec, 3) & (k[1] - k[0] > np.tile(hi - lo, 3) / 2)

    merged: list[list] = []
    for a, b, jump in sorted(done):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = b
            merged[-1][2] += jump
        else:
            merged.append([a, b, jump])
    ks = np.array([(a + b) / 2 for a, b, _ in merged])
    sigmas = kernels.scan_sigma_min(eo, et, ln, nv, ks)
    warnings = []
    if off_integer:
        k_off, n_off = off_integer[0]
        warnings.append(f"eigenphase count is not an integer at {len(off_integer)} "
                        f"points, e.g. N({k_off:.12g}) = {n_off!r}: eigenvalues may be missed")
    out = [EigenvalueHit(lam=0.0, multiplicity=betti_graph(graph).beta0, k=0.0,
                         sigma_min=0.0)]
    out.extend(EigenvalueHit(lam=k ** 2, multiplicity=m, k=k, sigma_min=sg)
               for k, (_, _, m), sg in zip(ks.tolist(), merged, sigmas.tolist()))
    return Spectrum(tuple(out), tuple(warnings))


# Nothing calls this name; the benchmark tracer (perfbench/spans.py) wraps it
# as its "spectral.refine" span.  Drop it together with that target.
_golden_min = kernels.eigenphase_count


def _null_vectors(graph: MetricGraph, lam: float,
                  multiplicity: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """k = sqrt(lam), the secular matrix there, its `multiplicity` right
    singular vectors of smallest singular value as columns, and their
    separation sigma_{n-m+1}/sigma_{n-m} from the other singular values."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    k = math.sqrt(lam)
    a = assemble_secular(graph, k)
    n = a.shape[0]
    if not 0 < multiplicity < n:
        raise ValueError(f"multiplicity must lie in 1..{n - 1}")
    _, s, vt = np.linalg.svd(a)
    last = s[n - multiplicity - 1]
    separation = float(s[n - multiplicity] / last) if last > 0 else math.inf
    return k, a, vt[n - multiplicity:].T, separation


def eigenspace(graph: MetricGraph, lam: float,
               multiplicity: int) -> tuple[list[EdgeFunction], list[str]]:
    """Orthonormal basis of the `multiplicity`-dimensional nullspace of the
    secular system at sqrt(lam), mapped to per-edge trigonometric coefficient
    functions.  A separation above SEPARATION_TOL is flagged: then lam is not
    an eigenvalue of that multiplicity."""
    k, a, w, separation = _null_vectors(graph, lam, multiplicity)
    flags: list[str] = []
    if not separation <= SEPARATION_TOL:
        flags.append(f"nullspace not separated: sigma ratio {separation:.3g} "
                     f"> {SEPARATION_TOL:g}")
    ra, rb, rv = kernels.unknowns(len(graph.edges), range(len(graph.vertices)))
    funcs = []
    for i, vec in enumerate(w.T):
        coeffs = dict(zip((e.id for e in graph.edges),
                          zip(vec[ra].tolist(), vec[rb].tolist())))
        vvals = dict(zip(graph.vertices, vec[rv].tolist()))
        funcs.append(EdgeFunction(k=k, coeffs=coeffs, vertex_values=vvals))
        resid = float(np.max(np.abs(a @ vec)))
        if resid > 1e-10:
            flags.append(f"residual {resid:.3g} above 1e-10 for nullvector {i}")
    return funcs, flags
