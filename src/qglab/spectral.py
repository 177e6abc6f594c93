"""Floating-point eigenvalue machinery for the Kirchhoff Laplacian.

The secular system couples the per-edge trigonometric coefficients (a_e, b_e)
with explicit vertex values c_v; its nullity at wavenumber k > 0 equals the
eigenspace dimension at lambda = k^2.  Eigenvalues are located by scanning
the smallest singular value over a k grid and refining local minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph


@dataclass
class SolverOptions:
    scan_factor: float = 0.1          # grid step = scan_factor * pi/(2 L_total)
    nullity_tol: float = 1e-8         # relative to the matrix norm
    refine_tol: float = 1e-12         # |dk| <= refine_tol * max(1, k)
    cluster_factor: float = 10.0      # warn when accepted k's this close


@dataclass(frozen=True)
class EdgeFunction:
    """f_e(x) = a_e cos(kx) + b_e sin(kx) per edge; a_e + b_e x when k=0."""

    k: float
    coeffs: dict        # edge id -> (a, b)
    vertex_values: dict  # vertex id -> value

    def value(self, graph: MetricGraph, edge_id: str, x: float):
        a, b = self.coeffs[edge_id]
        if self.k == 0.0:
            return a + b * x
        return a * math.cos(self.k * x) + b * math.sin(self.k * x)


@dataclass(frozen=True)
class SecularSystem:
    k: float
    matrix: np.ndarray

    def nullity(self, tol: float = 1e-8) -> int:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return int(np.sum(s < tol * max(s[0], 1e-300)))


@dataclass(frozen=True)
class EigenvalueHit:
    lam: float
    multiplicity: int
    k: float
    sigma_min: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[EigenvalueHit, ...]
    warnings: tuple[str, ...] = ()

    def lambdas(self) -> list[float]:
        return [h.lam for h in self.eigenvalues]


def _check_spectral_input(graph: MetricGraph):
    lonely = [v for v in graph.vertices if graph.degree(v) == 0]
    if lonely:
        raise ValueError(f"isolated vertices not supported in spectral ops: {lonely}")


def _edge_arrays(graph: MetricGraph):
    vix = {v: i for i, v in enumerate(graph.vertices)}
    eo = np.array([vix[e.origin] for e in graph.edges], dtype=np.int64)
    et = np.array([vix[e.terminus] for e in graph.edges], dtype=np.int64)
    ln = np.array([e.length.value(graph.units) for e in graph.edges])
    return eo, et, ln, vix


def assemble_secular(graph: MetricGraph, k: float) -> SecularSystem:
    """Secular matrix at wavenumber k >= 0 (affine ansatz at k = 0)."""
    _check_spectral_input(graph)
    if k < 0:
        raise ValueError("k must be nonnegative")
    eo, et, ln, _ = _edge_arrays(graph)
    a = kernels.assemble_real(eo, et, ln, len(graph.vertices), [k])[0]
    return SecularSystem(k, a)


def _golden_min(f, lo, hi, tol) -> np.ndarray:
    """Golden-section minimum of f on every bracket [lo[i], hi[i]] at once.

    f maps an array of points to an array of values.  Each bracket shrinks
    by the scalar rule until its width is at most tol[i]; all brackets still
    open are stepped together, so each step is one call of f.
    """
    invphi = (math.sqrt(5) - 1) / 2
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    tol = np.asarray(tol, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    open_ = np.flatnonzero((b - a) > tol)
    while open_.size:
        left = fc[open_] < fd[open_]
        i, j = open_[left], open_[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = b[i] - invphi * (b[i] - a[i])
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = a[j] + invphi * (b[j] - a[j])
        fx = f(np.where(left, c[open_], d[open_]))
        fc[i], fd[j] = fx[left], fx[~left]
        open_ = open_[(b[open_] - a[open_]) > tol[open_]]
    return (a + b) / 2


def eigenvalues_in(graph: MetricGraph, lambda_max: float,
                   opts: Optional[SolverOptions] = None,
                   scan_trace: Optional[list] = None,
                   k_margin: float = 0.0) -> Spectrum:
    """Locate all eigenvalues with 0 < lambda <= lambda_max (plus those up to
    (sqrt(lambda_max)+k_margin)^2 when a margin is requested), prepending
    lambda = 0 with multiplicity beta0."""
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    _check_spectral_input(graph)
    if opts is None:
        opts = SolverOptions()
    eo, et, ln, _ = _edge_arrays(graph)
    nv = len(graph.vertices)
    l_total = float(np.sum(ln))
    h = opts.scan_factor * math.pi / (2.0 * l_total)
    kmax = math.sqrt(lambda_max) + k_margin
    ks = np.arange(h, kmax + h, h)
    sigmas = np.asarray(kernels.scan_sigma_min(eo, et, ln, nv, ks))
    if scan_trace is not None:
        scan_trace.extend(zip(ks.tolist(), sigmas.tolist()))

    # local minima (interior, plus the right boundary)
    cand = [i for i in range(1, len(ks) - 1)
            if sigmas[i] <= sigmas[i - 1] and sigmas[i] <= sigmas[i + 1]]
    if len(ks) >= 2 and sigmas[-1] < sigmas[-2]:
        cand.append(len(ks) - 1)

    warnings: list[str] = []
    hits: list[EigenvalueHit] = []
    idx = np.array(cand, dtype=int)
    lo = ks[np.maximum(idx - 1, 0)]
    hi = ks[np.minimum(idx + 1, len(ks) - 1)]
    tols = opts.refine_tol * np.maximum(1.0, ks[idx])
    kstars = _golden_min(lambda x: kernels.scan_sigma_min(eo, et, ln, nv, x),
                         lo, hi, tols)
    for kstar, tol in zip(kstars.tolist(), tols.tolist()):
        sys_ = assemble_secular(graph, kstar)
        s = np.linalg.svd(sys_.matrix, compute_uv=False)
        thresh = opts.nullity_tol * s[0]
        if s[-1] >= thresh:
            continue
        mult = int(np.sum(s < thresh))
        if hits and abs(kstar - hits[-1].k) <= 1e-8 * max(1.0, kstar):
            continue  # same minimum found from two grid points
        if hits and abs(kstar - hits[-1].k) < opts.cluster_factor * tol:
            warnings.append(
                f"eigenvalue cluster near k={kstar:.12g}: possible missed splitting")
        hits.append(EigenvalueHit(
            lam=kstar ** 2, multiplicity=mult, k=kstar, sigma_min=float(s[-1]),
            diagnostics={"matrix_norm": float(s[0]), "threshold": float(thresh)}))

    b0 = betti_graph(graph).beta0
    out = [EigenvalueHit(lam=0.0, multiplicity=b0, k=0.0, sigma_min=0.0,
                         diagnostics={"source": "constant eigenfunctions"})]
    out.extend(hits)
    return Spectrum(tuple(out), tuple(warnings))


def eigenspace(graph: MetricGraph, lam: float,
               tol: float = 1e-8) -> tuple[list[EdgeFunction], list[str]]:
    """Orthonormal nullspace basis of the secular system at sqrt(lam),
    mapped to per-edge trigonometric coefficient functions."""
    _check_spectral_input(graph)
    flags: list[str] = []
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    k = math.sqrt(lam)
    sys_ = assemble_secular(graph, k)
    u, s, vt = np.linalg.svd(sys_.matrix)
    thresh = tol * max(s[0], 1e-300)
    null_ix = [i for i in range(len(s)) if s[i] < thresh]
    straddle = [i for i in range(len(s))
                if thresh <= s[i] < 10 * thresh or thresh / 10 < s[i] < thresh]
    if straddle:
        flags.append("tolerance ambiguity: singular values straddle the "
                     "nullity threshold within a factor 10")
    ne = len(graph.edges)
    funcs = []
    for i in null_ix:
        vec = vt[i]
        coeffs = {e.id: (float(vec[2 * j]), float(vec[2 * j + 1]))
                  for j, e in enumerate(graph.edges)}
        vvals = {v: float(vec[2 * ne + j]) for j, v in enumerate(graph.vertices)}
        f = EdgeFunction(k=k, coeffs=coeffs, vertex_values=vvals)
        resid = float(np.max(np.abs(sys_.matrix @ vec)))
        if resid > 1e-10:
            flags.append(f"residual {resid:.3g} above 1e-10 for nullvector {i}")
        funcs.append(f)
    return funcs, flags

