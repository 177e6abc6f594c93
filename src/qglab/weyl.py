"""Titchmarsh-Weyl (Neumann-to-Dirichlet) matrix, residues, visibility.

M_B(mu)[k,l] is the value at vertex v_k of the solution of -f'' = mu f with
unit derivative balance at v_l and zero balance elsewhere.  Eigenvalues of
the graph Laplacian appear as order-one poles of M_B unless their
eigenfunctions vanish on B; residue ranks quantify exactly how much of each
eigenspace is visible from the vertex data.  Both come from one matrix, the
vertex Dirichlet-to-Neumann matrix Lambda(k) = M(k^2)^-1 of the graph with its
edges on a pole split (`kernels.vertex_matrices`).
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, core_decomposition
from .resonance import table_counts
from .spectral import (SEPARATION_TOL, Spectrum, _edge_arrays, _null_vectors,
                       eigenvalues_in)
# Not called here.  The benchmark tracer (perfbench/spans.py) looks these
# names up in this module; drop each import together with its target.
from .lengths import candidate_steps  # noqa: F401
from .resonance import resonance_dimension  # noqa: F401

RESIDUE_FLOOR = 1e-12    # residue rank floor, relative to ||G^-1||_2
RANK_TOL = 1e-8          # residue rank threshold, relative to its sigma_1
COND_MAX = 1e12          # largest condition number of Lambda(k) at an NtD sample


class NearSpectrumError(RuntimeError):
    """mu is too close to the spectrum for a reliable solve."""


@dataclass(frozen=True)
class VertexSelection:
    vertices: tuple[str, ...]
    mode: str                    # "auto" | "explicit"
    warnings: tuple[str, ...] = ()

    @property
    def hypotheses_verified(self) -> bool:
        return not any("unverified" in w for w in self.warnings)


def select_vertices(graph: MetricGraph,
                    vertices: Optional[list[str]] = None) -> VertexSelection:
    """With vertices None, the boundary vertices plus proper core vertices:
    the smallest set for which the visibility classification is guaranteed.
    Otherwise the given nonempty list, with a warning if it misses any of
    those."""
    core = core_decomposition(graph)
    auto = sorted(set(core.boundary_vertices) | set(core.proper_core_vertices))
    if vertices is None:
        return VertexSelection(tuple(auto), "auto")
    if not vertices:
        raise ValueError("explicit vertex selection must be nonempty")
    unknown = [v for v in vertices if v not in graph.vertices]
    if unknown:
        raise ValueError(f"unknown vertices in selection: {unknown}")
    repeated = sorted(v for v, n in Counter(vertices).items() if n > 1)
    if repeated:
        raise ValueError(f"repeated vertices in selection: {repeated}")
    warnings = ()
    if not set(auto) <= set(vertices):
        warnings = ("selection misses boundary/proper-core vertices; "
                    "visibility hypotheses unverified",)
    return VertexSelection(tuple(vertices), "explicit", warnings)


def ntd_matrix(graph: MetricGraph, selection: VertexSelection, mu: complex) -> np.ndarray:
    """The Neumann-to-Dirichlet matrix M_B(mu) for mu off the spectrum, rows
    and columns in the order of selection.vertices.

    M_B is the B block of the inverse of Lambda(k) of the split graph,
    k = sqrt(mu) with Im k >= 0, real for real mu > 0, whose split vertices
    carry no derivative balance.  mu is rejected unless cond_2(Lambda) <=
    COND_MAX, ||Lambda||_2 taken at least the size of its entries: the bare
    condition of a 1 x 1 Lambda(k) is 1 even on an eigenvalue.  mu = 0 is
    always an eigenvalue: the constants on each component.
    """
    eo, et, ln, vix = _edge_arrays(graph)
    if not cmath.isfinite(mu):
        raise ValueError(f"mu must be finite: {complex(mu)!r}")
    if mu == 0:
        raise NearSpectrumError("mu = 0 is an eigenvalue: the constants on each component")
    k = cmath.sqrt(mu)
    k = -k if k.imag < 0 else k
    _, lam, size, *_ = next(kernels.vertex_matrices(eo, et, ln, len(vix),
                                                    [k.real if k.imag == 0 else k]))
    s = np.linalg.svd(lam[0], compute_uv=False).tolist()
    cond = max(s[0], size[0]) / s[-1] if s[-1] > 0 else np.inf
    if not cond <= COND_MAX:
        raise NearSpectrumError(
            f"system at mu={complex(mu)!r} has condition {cond:.3g} > {COND_MAX:.3g}")
    rv = [vix[v] for v in selection.vertices]
    return np.linalg.inv(lam[0])[np.ix_(rv, rv)]


@dataclass(frozen=True)
class ResidueEstimate:
    lam: float
    matrix: np.ndarray            # Res_lam M_B, real symmetric
    rank: int
    singular_values: np.ndarray
    separation: float             # of the eigenspace, see spectral._null_vectors


def residue(graph: MetricGraph, selection: VertexSelection, lam: float,
            multiplicity: int) -> ResidueEstimate:
    """Residue of M_B at the eigenvalue lam of the given multiplicity (`_residues`)."""
    return _residues(graph, selection, [lam], [multiplicity])[0]


def _residues(graph: MetricGraph, selection: VertexSelection, lams,
              multiplicities) -> list[ResidueEstimate]:
    """Residue of M_B at each eigenvalue of lams, of the multiplicity at the
    same place, from one stack of null vectors per width.

    With W the functions of the m null vectors of Lambda(k), C_B their vertex
    values on B and G their L2 Gram matrix, the eigenfunctions W G^{-1/2} are
    orthonormal, so M_B(mu) = -sum_n phi_n(B) phi_n(B)^T / (mu - lam_n) gives
    Res_lam M_B = -C_B G^{-1} C_B^T.  Its rank counts the singular
    values above max(RANK_TOL * sigma_1, RESIDUE_FLOOR * ||G^-1||_2): the
    floor is the size the residue would have with vertex values as large as
    the null vectors' entries.
    """
    eo, et, ln, vix = _edge_arrays(graph)
    rows = [vix[u] for u in selection.vertices]
    out = []
    for lam, (k, a, b, c, _, separation) in zip(
            lams, _null_vectors(eo, et, ln, len(vix), lams, multiplicities)):
        # integrals over [0, L] of cos^2, sin*cos, sin^2; of 1, x, x^2 at k = 0
        if k == 0.0:
            icc, ics, iss = ln, ln ** 2 / 2, ln ** 3 / 3
        else:
            half = np.sin(2 * k * ln) / (4 * k)
            icc, ics, iss = ln / 2 + half, np.sin(k * ln) ** 2 / (2 * k), ln / 2 - half
        cross = a.T @ (ics[:, None] * b)
        gram = a.T @ (icc[:, None] * a) + b.T @ (iss[:, None] * b) + cross + cross.T
        g, v = np.linalg.eigh(gram)               # G^-1 = V diag(1/g) V^T, g > 0
        cv = c[rows] @ v
        mat = -(cv / g) @ cv.T
        sv = np.linalg.svd(mat, compute_uv=False)
        thresh = max(RANK_TOL * (sv[0] if len(sv) else 0.0), RESIDUE_FLOOR / g[0])
        out.append(ResidueEstimate(lam=lam, matrix=mat, rank=int(np.sum(sv > thresh)),
                                   singular_values=sv, separation=separation))
    return out


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
                      lambda_max: float) -> VisibilityReport:
    """Classify every eigenvalue <= lambda_max by its visibility for M_B.

    A hit's step is the one `eigenvalues_in` bracketed it at.  The paper's
    lower bound dim ker >= dim R is checked at every candidate step of the
    table that the spectrum carries, with or without a hit, by one
    `table_counts` call: a count jump below dim R is a warning.
    """
    spec = eigenvalues_in(graph, lambda_max)
    warnings = list(spec.warnings) + list(selection.warnings)
    table = spec.table
    dims = {}
    jumps = {h.step: h.multiplicity for h in spec.eigenvalues if h.step is not None}
    for (lam, _, _), step, (beta1, odd) in zip(table.rows, table.steps(),
                                               table_counts(graph, table)):
        dims[step] = dim = beta1 - odd
        if jumps.get(step, 0) < dim:
            warnings.append(
                f"count jump {jumps.get(step, 0)} at step {step} "
                f"(lambda={lam:.12g}) is below dim R {dim}: eigenvalues missed")

    rows = []
    residues = _residues(graph, selection, [h.lam for h in spec.eigenvalues],
                         [h.multiplicity for h in spec.eigenvalues])
    for hit, res in zip(spec.eigenvalues, residues):
        dim_res = dims.get(hit.step, 0)
        notes = (("no commensurate structure detected",)
                 if hit.step is None and hit.lam > 0.0 else ())
        if not res.separation <= SEPARATION_TOL:
            warnings.append(
                f"eigenspace at lambda={hit.lam:.12g} not separated: sigma ratio "
                f"{res.separation:.3g} > {SEPARATION_TOL:g}, residue rank unreliable")
        identity_ok = hit.multiplicity == res.rank + dim_res
        if not identity_ok:
            warnings.append(
                f"identity violated at lambda={hit.lam:.12g}: "
                f"dim ker {hit.multiplicity} != rank {res.rank} + dimR {dim_res}")
        rows.append(VisibilityRow(
            lam=hit.lam, k=hit.k, dim_ker=hit.multiplicity,
            rank_residue=res.rank, dim_resonance=dim_res,
            step=None if hit.step is None else str(hit.step),
            identity_ok=identity_ok,
            classification=_classify(hit.multiplicity, res.rank),
            notes=notes, residue=res))
    return VisibilityReport(tuple(rows), selection, spec, tuple(warnings))
