"""Floating-point eigenvalue machinery for the Kirchhoff Laplacian.

The secular system couples the per-edge trigonometric coefficients (a_e, b_e)
with explicit vertex values c_v; its null space at wavenumber k > 0 has the
dimension of the eigenspace at lambda = k^2.  Eigenvalues are located by the
integer Kirchhoff eigenphase count, which brackets each one together with
its multiplicity; the smallest singular value of the secular system at
each hit is reported with it, not checked.  The candidate steps s of
`lengths` are brackets of their own, so this module alone decides which
eigenvalue lies on which step pi^2/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph
from .lengths import Step, candidate_steps


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
    step: Optional[Step] = None   # the candidate step whose bracket holds it


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
    length L has lambda_1 >= pi^2/L^2 (Nicaise) >= pi^2/L_tot^2.

    Every candidate step s (`lengths.candidate_steps`: pi^2/s^2 <=
    lambda_max) is a bracket of its own, REFINE_TOL*k_s wide around
    k_s = pi/s; a jump of N across it is an eigenvalue on that step, reported
    at k_s exactly and carrying the step.  The brackets between the steps,
    the last one ending at sqrt(lambda_max), with N(hi) > N(lo) are split in
    lockstep, one stacked count per step, until each is at most
    REFINE_TOL*max(1, hi) wide.  Touching brackets merge into one hit whose
    multiplicity is the jump of N across it; a hit holding two steps is a
    warning and takes neither.  A count off an integer by more than
    COUNT_TOL is a warning.
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    eo, et, ln, _ = _edge_arrays(graph)
    nv = len(graph.vertices)
    k0 = math.pi / (2.0 * float(np.sum(ln)))
    kmax = math.sqrt(lambda_max)
    steps = [(math.pi / s.value(graph.units), s.lambda_value(graph.units), s)
             for s in candidate_steps(graph, lambda_max)]
    steps.sort(key=lambda st: st[0])    # ascending k_s, also where lambdas round equal
    off_integer: list[tuple[float, float]] = []

    def count(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw, phase = kernels.eigenphase_count(eo, et, ln, nv, ks)
        n = raw + shift
        off = np.abs(n - np.round(n)) > COUNT_TOL
        off_integer.extend(zip(ks[off].tolist(), n[off].tolist()))
        return np.round(n).astype(np.int64), phase

    shift = -kernels.eigenphase_count(eo, et, ln, nv, [k0])[0][0]
    k_s = np.array([st[0] for st in steps])
    s_lo, s_hi = k_s * (1 - REFINE_TOL / 2), k_s * (1 + REFINE_TOL / 2)
    ends = np.sort(np.concatenate([[k0], s_lo, s_hi,
                                   [kmax] if kmax > s_hi.max(initial=k0) else []]))
    n_e, p_e = count(ends)
    # one column per open bracket; row 0 its lower end, row 1 its upper end
    k, n, p = (np.stack([e[:-1], e[1:]]) for e in (ends, n_e, p_e))
    # a step's bracket is done as it is, pieces of overlapping ones too; the
    # ends ascend with k_s, so the last bracket opening below mid decides
    mid = (k[0] + k[1]) / 2
    on_step = np.append(-np.inf, s_hi)[np.searchsorted(s_lo, mid)] > mid
    jump = n[1] - n[0]
    fin = on_step & (jump != 0)
    done = list(zip(k[0, fin].tolist(), k[1, fin].tolist(), jump[fin].tolist()))
    k, n, p = k[:, ~on_step], n[:, ~on_step], p[:, ~on_step]
    forced = np.zeros(k.shape[1], dtype=bool)
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
    warnings = []
    hits = []                           # (k, lambda, step, multiplicity)
    for a, b, m in merged:
        held = steps[np.searchsorted(k_s, a):np.searchsorted(k_s, b, side="right")]
        if len(held) > 1:
            warnings.append(f"steps {', '.join(str(st[2]) for st in held)} share one "
                            f"count bracket at k={a:.12g}: no step assigned")
        c = (a + b) / 2
        hits.append((*held[0], m) if len(held) == 1 else (c, c ** 2, None, m))
    sigmas = kernels.scan_sigma_min(eo, et, ln, nv, np.array([h[0] for h in hits]))
    if off_integer:
        k_off, n_off = off_integer[0]
        warnings.append(f"eigenphase count is not an integer at {len(off_integer)} "
                        f"points, e.g. N({k_off:.12g}) = {n_off!r}: eigenvalues may be missed")
    out = [EigenvalueHit(lam=0.0, multiplicity=betti_graph(graph).beta0, k=0.0,
                         sigma_min=0.0)]
    out.extend(EigenvalueHit(lam=lam, multiplicity=m, k=k, sigma_min=sg, step=step)
               for (k, lam, step, m), sg in zip(hits, sigmas.tolist()))
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
