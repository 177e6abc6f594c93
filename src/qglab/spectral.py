"""Floating-point eigenvalue machinery for the Kirchhoff Laplacian.

Eigenvalues are located by an integer count of the eigenvalues below k, the
vertex count of `kernels.vertex_count`, which brackets each one together with
its multiplicity.  The candidate steps s of `lengths` are brackets of their
own, so this module alone decides which eigenvalue lies on which step
pi^2/s^2; they are the poles of the vertex matrix Lambda(k), next to which
the edges on a pole are split (`kernels.split_graph`).  The eigenspace at
lambda = k^2 is the null space of Lambda(k) of that split graph, whose
smallest |mu_j| at each hit is reported with it as sigma_min, not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph
from .lengths import Step, StepTable, step_table


REFINE_TOL = 1e-12     # a bracket is done at width <= REFINE_TOL * max(1, k)
SEPARATION_TOL = 1e-6  # largest sigma_{n-m+1}/sigma_{n-m} of an m-fold eigenvalue
# A bracket split without an estimate is cut at these fractions, not at 1/2
# or 1/3: a point within tol of an eigenvalue moves its hit by up to tol/2,
# and symmetric graphs put eigenvalues at simple fractions of the gap between
# two steps (the near-step test: 2/3 of it, where 1e-13 relative raises a
# separation warning).
GOLDEN = (3 - math.sqrt(5)) / 2


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
    warnings: tuple[str, ...]
    table: StepTable        # the candidate steps it bracketed with


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
    """Lambda(k) of the split graph (`kernels.vertex_matrices`) at k >= 0."""
    eo, et, ln, _ = _edge_arrays(graph)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(kernels.vertex_matrices(eo, et, ln, len(graph.vertices), [float(k)]))[1][0]


def _theta(k, jump, mu, dmu):
    """theta = arctan(mu_j/k) and d theta/dk at both ends of each bracket for
    the mu_j that crosses 0 first in it: j = n_-(lo) at lo, n_-(hi) less the
    jump of N at hi (NaN where there is none)."""
    j = (mu < 0).sum(axis=2)
    j[1] -= jump
    jc = np.minimum(np.maximum(j, 0), mu.shape[2] - 1)
    at = (np.arange(2)[:, None], np.arange(j.shape[1]), jc)
    mu_j, dmu_j = np.where(j == jc, mu[at], np.nan), dmu[at]
    return np.arctan(mu_j / k), (k * dmu_j - mu_j) / (k * k + mu_j * mu_j)


def _secant(k, width, theta):
    """The root of the secant of theta across each bracket, NaN off it."""
    lo, hi = k
    with np.errstate(divide="ignore", invalid="ignore"):
        root = lo + theta[0] * width / (theta[0] - theta[1])
    return np.where((root >= lo) & (root <= hi), root, np.nan)


def _split(k, width, theta, slope, root, forced, tol):
    """The two points a < b at which each open bracket [lo, hi] is counted
    next, given its width, theta and its slope at both ends (`_theta`) and
    the secant root of theta across it (`_secant`).

    Between two poles the vertex eigenvalue of `_theta` decreases and
    crosses 0 at the bracket's first eigenvalue; so does its theta, which
    stays bounded where mu_j has a pole.  Newton's step on theta from the
    end where |theta| is smaller gives a; the secant root gives b, or,
    without theta at both ends, a second Newton step does.  Two points
    closer than tol become the pair tol/2 wide around their midpoint, so a
    bracket whose root they hit closes now (a pair tol wide can round to a
    width above tol and never close).  Without an estimate, and where
    `forced` (first splits of brackets with several eigenvalues, and those
    after a step that neither halved the bracket nor split one off), the
    GOLDEN points.
    """
    lo, hi = k
    nan = np.isnan(theta)
    end = (np.abs(theta[1]) < np.abs(theta[0])) | nan[0]
    th, sl, x = (np.where(end, v[1], v[0]) for v in (theta, slope, k))
    step = -th / np.where(sl < 0, sl, np.nan)
    a = x + step
    b = np.where(nan[0] | nan[1], a + step, root)
    a, b = np.minimum(a, b), np.maximum(a, b)
    ok = ~forced & (a >= lo) & (b <= hi)
    half, golden = tol / 2, GOLDEN * width
    inner_lo, inner_hi = lo + half, hi - half
    a = np.where(ok, np.minimum(np.maximum(a, inner_lo), inner_hi), lo + golden)
    b = np.where(ok, np.minimum(np.maximum(b, inner_lo), inner_hi), hi - golden)
    close = b - a < tol
    if close.any():
        mid = np.where(close, (a + b) / 2, np.nan)
        a, b = np.fmin(a, mid - tol / 4), np.fmax(b, mid + tol / 4)
    return a, b


def eigenvalues_in(graph: MetricGraph, lambda_max: float) -> Spectrum:
    """Locate all eigenvalues with 0 < lambda <= lambda_max, prepending
    lambda = 0 with multiplicity beta0.

    N(k), the number of eigenvalues below k^2 with lambda = 0 counted, is the
    count of `kernels.vertex_count` at k0 = pi/(2 L_tot) (no eigenvalue lies
    in (0, k0]: a component of total length L has lambda_1 >= pi^2/L^2
    (Nicaise) >= pi^2/L_tot^2), at the ends of the step brackets, at
    sqrt(lambda_max) and at every point of the refinement.  It is certified
    when each mu_j within eigh's rounding, n eps max|mu|, of 0 lies within
    REFINE_TOL*max(1, k)/2 of its root, |mu_j / (d mu_j/dk)|, where the
    refinement leaves its sign open anyway.  An uncertified count and one
    outside its bracket's, then recounted with every edge split, are warnings.

    Every candidate step s (`lengths.step_table`: pi^2/s^2 <= lambda_max),
    whose table the result carries, is a bracket of its own, REFINE_TOL*k_s wide
    around k_s = pi/s; a jump of N across it is an eigenvalue on that step, reported
    at k_s exactly and carrying the step.  The steps are the poles of the
    vertex matrix, so the brackets between them, the last one ending at
    sqrt(lambda_max), hold none.  Those with N(hi) > N(lo) are split in
    lockstep (`_split`), one stacked count per step, until each is at most
    REFINE_TOL*max(1, hi) wide, and take the secant root of theta across
    them (`_secant`), or their midpoint where it is none.  Touching brackets
    merge into one hit at their midpoint, whose multiplicity is the jump of
    N across it; a hit holding two steps is a warning and takes neither.
    N does not decrease, so a bracket across which it falls is a warning,
    and a hit of multiplicity below 1 is not reported.
    """
    if not 0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    eo, et, ln, _ = _edge_arrays(graph)
    nv = len(graph.vertices)
    k0 = math.pi / (2.0 * float(np.sum(ln)))
    kmax = math.sqrt(lambda_max)
    table = step_table(graph, lambda_max)
    steps = sorted(((math.pi / s, lam, step)
                    for (lam, s, _), step in zip(table.rows, table.steps())),
                   key=lambda st: st[0])    # ascending k_s, also where lambdas round equal
    outside: list[tuple[float, int]] = []
    uncertified: list[float] = []
    eps = np.finfo(float).eps

    def count(ks: np.ndarray, n_lo=0, n_hi=math.inf):
        """N and the vertex eigenvalues and their slopes, V + E per row with
        NaN after each row's V + |split| (`kernels.vertex_count`), at each k
        in ks, inside brackets whose ends count n_lo, n_hi."""
        n, mu, dmu = kernels.vertex_count(eo, et, ln, nv, ks)
        bad = (n < n_lo) | (n > n_hi)
        if bad.any():
            outside.extend(zip(ks[bad].tolist(), n[bad].tolist()))
            n[bad], mu[bad], dmu[bad] = kernels.vertex_count(eo, et, ln, nv, ks[bad], math.inf)
        size = np.abs(mu)               # V + |split| of them per row, then NaN
        small = size <= ((size >= 0).sum(axis=1) * eps * np.fmax.reduce(size, 1))[:, None]
        near = small.any(axis=1)
        if near.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                far = ~(np.abs(mu[near] / dmu[near])
                        <= REFINE_TOL * np.maximum(1.0, ks[near, None]) / 2)
            uncertified.extend(ks[near][(small[near] & far).any(axis=1)].tolist())
        return n, mu, dmu

    k_s = np.array([st[0] for st in steps])
    s_lo, s_hi = k_s * (1 - REFINE_TOL / 2), k_s * (1 + REFINE_TOL / 2)
    ends = np.sort(np.concatenate([[k0], s_lo, s_hi,
                                   [kmax] if kmax > s_hi.max(initial=k0) else []]))
    # one column per open bracket; row 0 its lower end, row 1 its upper end
    k, n, mu, dmu = (np.stack([e[:-1], e[1:]]) for e in (ends, *count(ends)))
    # a step's bracket is done as it is, pieces of overlapping ones too; the
    # ends ascend with k_s, so the last bracket opening below mid decides
    mid = (k[0] + k[1]) / 2
    on_step = np.append(-np.inf, s_hi)[np.searchsorted(s_lo, mid)] > mid
    jump = n[1] - n[0]
    fin = on_step & (jump != 0)
    done = [(*x, math.nan) for x in zip(k[0, fin].tolist(), k[1, fin].tolist(),
                                        jump[fin].tolist())]
    rest = ~on_step & (jump != 0)
    k, n, mu, dmu = (x[:, rest] for x in (k, n, mu, dmu))
    width, jump = k[1] - k[0], jump[rest]
    forced = jump > 1
    while True:
        tol = REFINE_TOL * np.maximum(1.0, k[1])
        theta, slope = _theta(k, jump, mu, dmu)
        root = _secant(k, width, theta)
        fin = width <= tol
        if fin.any():
            done.extend(zip(k[0, fin].tolist(), k[1, fin].tolist(), jump[fin].tolist(),
                            root[fin].tolist()))
            go = ~fin
            k, n, mu, dmu, theta, slope = (x[:, go] for x in (k, n, mu, dmu, theta, slope))
            width, jump, root, forced, tol = (x[go] for x in (width, jump, root, forced, tol))
        if not jump.size:
            break
        x = np.concatenate(_split(k, width, theta, slope, root, forced, tol))
        n_x, mu_x, dmu_x = count(x, np.concatenate([n[0], n[0]]), np.concatenate([n[1], n[1]]))
        # ends lo, a, b, hi of each bracket; of its children [lo, a], [a, b]
        # and [b, hi] those across which N jumps stay open
        m = jump.size
        ends = np.concatenate([n[0], n_x, n[1]])
        keep = np.flatnonzero(ends[m:] - ends[:-m])
        pairs, parent = np.add.outer([0, m], keep), keep % m
        n = ends[pairs]
        k, mu, dmu = (np.concatenate([e[0], e_x, e[1]])[pairs]
                      for e, e_x in ((k, x), (mu, mu_x), (dmu, dmu_x)))
        half, was = width[parent] / 2, jump[parent]
        width, jump = k[1] - k[0], n[1] - n[0]
        forced = (width > half) & (jump == was)

    merged: list[list] = []
    for a, b, jump, root in sorted(done):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = b
            merged[-1][2] += jump
            merged[-1][3] = math.nan
        else:
            merged.append([a, b, jump, root])
    warnings = []
    hits = []                           # (k, lambda, step, multiplicity)
    for a, b, m, root in merged:
        if m <= 0:
            continue
        held = steps[np.searchsorted(k_s, a):np.searchsorted(k_s, b, side="right")]
        if len(held) > 1:
            warnings.append(f"steps {', '.join(str(st[2]) for st in held)} share one "
                            f"count bracket at k={a:.12g}: no step assigned")
        c = (a + b) / 2 if math.isnan(root) else root
        hits.append((*held[0], m) if len(held) == 1 else (c, c ** 2, None, m))
    sigmas = kernels.scan_sigma_min(eo, et, ln, nv, np.array([h[0] for h in hits]))
    if outside:
        k_out, n_out = outside[0]
        warnings.append(f"vertex count outside its bracket's counts at {len(outside)} "
                        f"points, e.g. N({k_out:.12g}) = {n_out}: recounted with every "
                        f"edge split")
    if uncertified:
        warnings.append(f"vertex count not certified at {len(uncertified)} points, e.g. "
                        f"k={uncertified[0]:.12g}: a vertex eigenvalue within rounding of 0 "
                        f"lies off its root; eigenvalues may be missed")
    falls = [(a, jump) for a, _, jump, _ in done if jump < 0]
    if falls:
        k_fall, jump = min(falls)
        warnings.append(f"vertex count falls across {len(falls)} brackets, e.g. by {-jump} "
                        f"at k={k_fall:.12g}: {len(merged) - len(hits)} hits of multiplicity "
                        f"below 1 not reported")
    out = [EigenvalueHit(lam=0.0, multiplicity=betti_graph(graph).beta0, k=0.0,
                         sigma_min=0.0)]
    out.extend(EigenvalueHit(lam=lam, multiplicity=m, k=k, sigma_min=sg, step=step)
               for (k, lam, step, m), sg in zip(hits, sigmas.tolist()))
    return Spectrum(tuple(out), tuple(warnings), table)


# Nothing calls this name; the benchmark tracer (perfbench/spans.py) wraps it
# as its "spectral.refine" span.  Drop it together with that target.
_golden_min = kernels.vertex_count


def _null_vectors(eo, et, ln, nv: int, lams, multiplicities) -> list[tuple]:
    """At each lam of lams, k = sqrt(lam) and m its multiplicity: k; the
    coefficients a_e, b_e and vertex values c_v, as columns, of the functions
    of the m eigenvectors of Lambda(k) of the split graph with the smallest
    |mu_j|, one stack per width; those |mu_j| relative to the size of
    Lambda's entries; and their separation, the m-th smallest |mu_j| over the
    (m+1)-th, or over that size when m = n.  On piece 1 of each edge, of
    length l from c_o to c_w, a_e = c_o and b_e = (c_w - c_o cos kl) / sin kl,
    or (c_w - c_o) / l at k = 0."""
    if min(lams, default=0.0) < 0:
        raise ValueError("lambda must be nonnegative")
    ks = np.sqrt(np.asarray(lams, dtype=float))
    out: list = [None] * ks.size
    for at, stack, sizes, ters, ells in kernels.vertex_matrices(eo, et, ln, nv, ks):
        n = stack.shape[1]
        for i, mu, vec, size, ter, ell in zip(at, *np.linalg.eigh(stack), sizes, ters, ells):
            m = multiplicities[i]
            if not 0 < m <= n:
                raise ValueError(f"multiplicity must lie in 1..{n}")
            order = np.argsort(np.abs(mu))
            small, c = np.abs(mu[order]), vec[:, order[:m]]
            last = small[m] if m < n else size
            separation = float(small[m - 1] / last) if last > 0 else math.inf
            k, ell = float(ks[i]), ell[:, None]
            b = (c[ter] - c[eo] * np.cos(k * ell)) / (np.sin(k * ell) if k else ell)
            out[i] = (k, c[eo], b, c[:nv], small[:m] / size, separation)
    return out


def eigenspace(graph: MetricGraph, lam: float,
               multiplicity: int) -> tuple[list[EdgeFunction], list[str]]:
    """Basis of the `multiplicity`-dimensional null space of Lambda(sqrt(lam))
    as per-edge trigonometric coefficient functions, orthonormal in their
    coefficients and vertex values together.  A separation above
    SEPARATION_TOL is flagged: then lam is not an eigenvalue of that
    multiplicity."""
    k, a, b, c, resid, separation = _null_vectors(*_edge_arrays(graph)[:3], len(graph.vertices),
                                                  [lam], [multiplicity])[0]
    a, b, c = np.split(np.linalg.qr(np.concatenate([a, b, c]))[0], [len(a), 2 * len(a)])
    flags: list[str] = []
    if not separation <= SEPARATION_TOL:
        flags.append(f"nullspace not separated: sigma ratio {separation:.3g} "
                     f"> {SEPARATION_TOL:g}")
    ids = [e.id for e in graph.edges]
    funcs = []
    for i in range(multiplicity):
        coeffs = dict(zip(ids, zip(a[:, i].tolist(), b[:, i].tolist())))
        vvals = dict(zip(graph.vertices, c[:, i].tolist()))
        funcs.append(EdgeFunction(k=k, coeffs=coeffs, vertex_values=vvals))
        if resid[i] > 1e-10:
            flags.append(f"relative residual {resid[i]:.3g} above 1e-10 for nullvector {i}")
    return funcs, flags
