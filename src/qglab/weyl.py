"""Titchmarsh-Weyl (Neumann-to-Dirichlet) matrix, residues, visibility.

M_B(mu)[k,l] is the value at vertex v_k of the solution of -f'' = mu f with
unit derivative balance at v_l and zero balance elsewhere.  Eigenvalues of
the graph Laplacian appear as order-one poles of M_B unless their
eigenfunctions vanish on B; residue ranks quantify exactly how much of each
eigenspace is visible from the vertex data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph, core_decomposition
from .lengths import candidate_steps
from .resonance import ResonanceReport, resonance_dimension
from .spectral import Spectrum, _check_spectral_input, _edge_arrays, eigenvalues_in


class NearSpectrumError(RuntimeError):
    """mu is too close to the spectrum for a reliable solve."""


class ResidueError(RuntimeError):
    """Residue estimation failed (tiny gap or method disagreement)."""


@dataclass(frozen=True)
class VertexSelection:
    vertices: tuple[str, ...]
    mode: str                    # "auto" | "explicit"
    warnings: tuple[str, ...] = ()

    @property
    def hypotheses_verified(self) -> bool:
        return not any("unverified" in w for w in self.warnings)


def select_vertices(graph: MetricGraph, mode: str = "auto",
                    vertices: Optional[list[str]] = None) -> VertexSelection:
    """Auto mode: boundary vertices plus proper core vertices, the smallest
    set for which the visibility classification is guaranteed."""
    core = core_decomposition(graph)
    auto = sorted(set(core.boundary_vertices) | set(core.proper_core_vertices))
    if mode == "auto":
        return VertexSelection(tuple(auto), "auto")
    if not vertices:
        raise ValueError("explicit vertex selection must be nonempty")
    unknown = [v for v in vertices if v not in graph.vertices]
    if unknown:
        raise ValueError(f"unknown vertices in selection: {unknown}")
    warnings = ()
    if not set(auto) <= set(vertices):
        warnings = ("selection misses boundary/proper-core vertices; "
                    "visibility hypotheses unverified",)
    return VertexSelection(tuple(vertices), "explicit", warnings)


@dataclass(frozen=True)
class TWSample:
    mu: complex | np.ndarray      # one mu, or an array of them
    vertices: tuple[str, ...]
    matrix: np.ndarray            # shape mu.shape + (m, m)


def _check_condition(a: np.ndarray, mus: np.ndarray, nodes, cond_max: float):
    """Raise NearSpectrumError at the first of `nodes` whose exact condition
    number exceeds cond_max."""
    for i in nodes:
        cond = np.linalg.cond(a[i])
        if not np.isfinite(cond) or cond > cond_max:
            raise NearSpectrumError(
                f"system at mu={complex(mus[i])!r} has condition {cond:.3g} > {cond_max:.3g}")


def ntd_matrix(graph: MetricGraph, selection: VertexSelection,
               mu: complex | np.ndarray, cond_max: float = 1e12) -> TWSample:
    """Sample the Neumann-to-Dirichlet matrix at mu, or at every entry of an
    array of mu, all off the spectrum.

    M_B is a block of the inverse of the complex secular matrix A.  Every
    node must have cond_2(A) <= cond_max.  ||A||_F ||A^-1||_F bounds
    cond_2(A) from above, so a node within that bound passes; any other
    node, and every node of a chunk whose inversion fails, is checked with
    the exact np.linalg.cond.
    """
    _check_spectral_input(graph)
    eo, et, ln, vix = _edge_arrays(graph)
    ne, nv = len(graph.edges), len(graph.vertices)
    dim = 2 * ne + nv
    rows = [2 * ne + vix[v] for v in selection.vertices]
    shape = np.shape(mu)
    mus = np.asarray(mu, dtype=complex).reshape(-1)
    out = np.empty((mus.shape[0], len(rows), len(rows)), dtype=complex)
    for sl in kernels.chunks(mus.shape[0], 16 * dim * dim):
        a = kernels.assemble_complex(eo, et, ln, nv, mus[sl])
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            _check_condition(a, mus[sl], range(a.shape[0]), cond_max)
            raise
        bound = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
        _check_condition(a, mus[sl], np.flatnonzero(~(bound <= cond_max)), cond_max)
        out[sl] = inv[:, rows][:, :, rows]
    return TWSample(mus.reshape(shape) if shape else mu, selection.vertices,
                    out.reshape(shape + out.shape[1:]))


@dataclass
class ResidueOptions:
    r_max: float = 0.5
    nodes: int = 64               # initial contour nodes, doubled to converge
    max_nodes: int = 1024
    quad_rel_tol: float = 1e-10
    rank_tol: float = 1e-8
    abs_floor_factor: float = 1e-12
    limit_angles: int = 24


@dataclass(frozen=True)
class ResidueEstimate:
    lam: float
    matrix: np.ndarray            # contour-method residue (authoritative)
    rank: int
    singular_values: np.ndarray
    radius: float
    nodes: int
    limit_matrix: np.ndarray
    limit_rank: int
    reference_norm: float         # ||M_B(lam + r)||
    diagnostics: dict = field(default_factory=dict)


def residue(graph: MetricGraph, selection: VertexSelection, lam: float,
            gap: float, opts: Optional[ResidueOptions] = None) -> ResidueEstimate:
    """Residue of M_B at lam by contour quadrature, cross-checked against a
    radius-shrink limit fit; ranks must agree."""
    if opts is None:
        opts = ResidueOptions()
    r = min(gap / 2.0, opts.r_max)
    if r <= 0 or not math.isfinite(r):
        raise ResidueError(f"spectral gap {gap!r} too small for a contour")

    def sample(mu: np.ndarray) -> np.ndarray:
        return ntd_matrix(graph, selection, mu).matrix

    # contour: trapezoidal rule on |mu - lam| = r, exponentially convergent.
    # Doubling the node count keeps every old node, so each level samples
    # only the new odd ones (Trefethen & Weideman, SIAM Rev. 56, 2014).
    n = opts.nodes
    w = np.exp(1j * (2 * math.pi * np.arange(n) / n))
    first = sample(lam + r * w)
    ref_norm = float(np.linalg.norm(first[0], 2))     # theta = 0: mu = lam + r
    abs_floor = opts.abs_floor_factor * ref_norm
    acc = np.tensordot(w, first, axes=1)
    est = acc * (r / n)
    # An invisible eigenvalue's residue is 0, which no relative test accepts;
    # the rank threshold is at least abs_floor, so smaller changes are noise.
    while n < opts.max_nodes:
        w = np.exp(1j * (2 * math.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        acc = acc + np.tensordot(w, sample(lam + r * w), axes=1)
        n *= 2
        prev, est = est, acc * (r / n)
        if np.linalg.norm(est - prev) <= max(opts.quad_rel_tol * np.linalg.norm(est),
                                             abs_floor):
            break

    def rank_of(mat: np.ndarray) -> tuple[int, np.ndarray]:
        sv = np.linalg.svd(mat, compute_uv=False)
        thresh = max(opts.rank_tol * (sv[0] if len(sv) else 0.0), abs_floor)
        return int(np.sum(sv > thresh)), sv

    # limit method: angle-averaged (mu-lam)*M at shrinking radii, fitted in
    # the radius and extrapolated to zero.  The angle average cancels all
    # Taylor terms except powers divisible by the angle count, so the radii
    # stay well inside the contour.
    radii = np.array([r / 2, r / 4, r / 8])
    angles = 2 * math.pi * (np.arange(opts.limit_angles) + 0.5) / opts.limit_angles
    mus = lam + np.multiply.outer(radii, np.exp(1j * angles))
    averages = np.einsum("ij,ijkl->ikl", mus - lam, sample(mus)) / opts.limit_angles
    vand = np.vander(radii, 3, increasing=True)  # [1, rho, rho^2]
    coef, *_ = np.linalg.lstsq(vand, averages.reshape(3, -1), rcond=None)
    limit_est = coef[0].reshape(est.shape)

    rank_c, sv_c = rank_of(est)
    rank_l, _ = rank_of(limit_est)
    if rank_c != rank_l:
        raise ResidueError(
            f"residue rank disagreement at lambda={lam!r}: "
            f"contour {rank_c} vs limit {rank_l}")
    return ResidueEstimate(
        lam=lam, matrix=est, rank=rank_c, singular_values=sv_c, radius=r,
        nodes=n, limit_matrix=limit_est, limit_rank=rank_l,
        reference_norm=ref_norm,
        diagnostics={"abs_floor": abs_floor, "rank_tol": opts.rank_tol})


# ---------------------------------------------------------------------------
# Visibility classification


@dataclass(frozen=True)
class VisibilityRow:
    lam: float
    k: float
    dim_ker: int
    rank_residue: int
    dim_resonance: int
    step: Optional[str]
    identity_ok: bool
    classification: str          # fully-visible | partially-visible | invisible
    notes: tuple[str, ...] = ()
    residue: Optional[ResidueEstimate] = None
    resonance: Optional[ResonanceReport] = None


@dataclass(frozen=True)
class VisibilityReport:
    rows: tuple[VisibilityRow, ...]
    selection: VertexSelection
    spectrum: Spectrum
    warnings: tuple[str, ...] = ()

    @property
    def all_identities_hold(self) -> bool:
        return all(r.identity_ok for r in self.rows)


def _classify(dim_ker: int, rank: int) -> str:
    if rank == 0:
        return "invisible" if dim_ker > 0 else "regular"
    if rank < dim_ker:
        return "partially-visible"
    return "fully-visible"


def visibility_report(graph: MetricGraph, selection: VertexSelection,
                      lambda_max: float,
                      residue_opts: Optional[ResidueOptions] = None,
                      step_match_tol: float = 1e-6) -> VisibilityReport:
    """Classify every eigenvalue <= lambda_max by its visibility for M_B."""
    l_total = graph.total_length()
    margin = math.pi / l_total
    spec = eigenvalues_in(graph, lambda_max, k_margin=margin)
    warnings = list(spec.warnings) + list(selection.warnings)

    hits = list(spec.eigenvalues)
    lams = [h.lam for h in hits]
    cands = candidate_steps(graph, (math.sqrt(lambda_max) + margin) ** 2 * 1.01)

    rows = []
    for i, hit in enumerate(hits):
        if hit.lam > lambda_max * (1 + 1e-12):
            continue
        gaps = []
        if i > 0:
            gaps.append(hit.lam - lams[i - 1])
        if i + 1 < len(lams):
            gaps.append(lams[i + 1] - hit.lam)
        gap = min(gaps) if gaps else math.inf

        notes: list[str] = []
        if hit.lam == 0.0:
            dim_res = 0
            step_str = None
            res_rep = None
        else:
            match = next((c for c in cands
                          if abs(hit.lam - c.lam) <= step_match_tol * max(1.0, hit.lam)),
                         None)
            if match is None:
                dim_res = 0
                step_str = None
                res_rep = None
                notes.append("no commensurate structure detected")
            else:
                res_rep = resonance_dimension(graph, match.step)
                dim_res = res_rep.dim
                step_str = str(match.step)

        res = residue(graph, selection, hit.lam, gap,
                      residue_opts)
        identity_ok = hit.multiplicity == res.rank + dim_res
        if not identity_ok:
            warnings.append(
                f"identity violated at lambda={hit.lam:.12g}: "
                f"dim ker {hit.multiplicity} != rank {res.rank} + dimR {dim_res}")
        rows.append(VisibilityRow(
            lam=hit.lam, k=hit.k, dim_ker=hit.multiplicity,
            rank_residue=res.rank, dim_resonance=dim_res, step=step_str,
            identity_ok=identity_ok,
            classification=_classify(hit.multiplicity, res.rank),
            notes=tuple(notes), residue=res, resonance=res_rep))
    b0 = betti_graph(graph).beta0
    assert rows and rows[0].lam == 0.0 and rows[0].dim_ker == b0
    return VisibilityReport(tuple(rows), selection, spec, tuple(warnings))
