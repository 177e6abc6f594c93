"""Titchmarsh-Weyl (Neumann-to-Dirichlet) matrix, residues, visibility.

M_B(mu)[k,l] is the value at vertex v_k of the solution of -f'' = mu f with
unit derivative balance at v_l and zero balance elsewhere.  Eigenvalues of
the graph Laplacian appear as order-one poles of M_B unless their
eigenfunctions vanish on B; residue ranks quantify exactly how much of each
eigenspace is visible from the vertex data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .graphs import MetricGraph, betti_graph, core_decomposition
from .lengths import candidate_steps
from .resonance import ResonanceReport, resonance_dimension
from .spectral import (SEPARATION_TOL, Spectrum, _check_spectral_input, _edge_arrays,
                       _null_vectors, eigenvalues_in)

STEP_MATCH_TOL = 1e-6    # relative distance of an eigenvalue from its candidate step
RESIDUE_FLOOR = 1e-12    # residue rank floor, relative to ||G^-1||_2
RANK_TOL = 1e-8          # residue rank threshold, relative to its sigma_1
COND_MAX = 1e12          # largest condition number of a secular system at an NtD node


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
    warnings = ()
    if not set(auto) <= set(vertices):
        warnings = ("selection misses boundary/proper-core vertices; "
                    "visibility hypotheses unverified",)
    return VertexSelection(tuple(vertices), "explicit", warnings)


def ntd_matrix(graph: MetricGraph, selection: VertexSelection, mu: complex) -> np.ndarray:
    """The Neumann-to-Dirichlet matrix M_B(mu) for mu off the spectrum, rows
    and columns in the order of selection.vertices.

    M_B is the B block of the inverse of the complex secular matrix A at mu,
    and mu is rejected unless cond_2(A) <= COND_MAX.  mu = 0 is always an
    eigenvalue: the constants on each component.
    """
    _check_spectral_input(graph)
    if mu == 0:
        raise NearSpectrumError("mu = 0 is an eigenvalue: the constants on each component")
    eo, et, ln, vix = _edge_arrays(graph)
    a = kernels.assemble_complex(eo, et, ln, len(graph.vertices), [mu])[0]
    cond = np.linalg.cond(a)
    if not cond <= COND_MAX:
        raise NearSpectrumError(
            f"system at mu={complex(mu)!r} has condition {cond:.3g} > {COND_MAX:.3g}")
    rows = [2 * len(graph.edges) + vix[v] for v in selection.vertices]
    return np.linalg.inv(a)[np.ix_(rows, rows)]


# The benchmark tracer (perfbench/spans.py) still reads the deleted contour's
# ResidueOptions().max_nodes and ResidueEstimate.nodes; these class attributes
# keep its contour figures at 0.  Drop them together with that hook.
class ResidueOptions:
    max_nodes = 1


@dataclass(frozen=True)
class ResidueEstimate:
    lam: float
    matrix: np.ndarray            # Res_lam M_B, real symmetric
    rank: int
    singular_values: np.ndarray
    separation: float             # of the eigenspace, see spectral._null_vectors
    nodes = 0                     # not a field: see ResidueOptions


def residue(graph: MetricGraph, selection: VertexSelection, lam: float,
            multiplicity: int) -> ResidueEstimate:
    """Residue of M_B at the eigenvalue lam of the given multiplicity, in
    closed form from its eigenspace.

    With W the m secular null vectors, C_B their vertex values on B and G
    their L2 Gram matrix, the eigenfunctions W G^{-1/2} are orthonormal, so
    the spectral expansion M_B(mu) = -sum_n phi_n(B) phi_n(B)^T / (mu - lam_n)
    gives Res_lam M_B = -C_B G^{-1} C_B^T.  Its rank counts the singular
    values above max(RANK_TOL * sigma_1, RESIDUE_FLOOR * ||G^-1||_2): the
    floor is the size the residue would have with vertex values as large as
    the null vectors' entries.
    """
    sys_, w, separation = _null_vectors(graph, lam, multiplicity)
    k = sys_.k
    _, _, ln, vix = _edge_arrays(graph)
    ne = len(graph.edges)
    # integrals over [0, L] of cos^2, sin*cos, sin^2; of 1, x, x^2 at k = 0
    if k == 0.0:
        icc, ics, iss = ln, ln ** 2 / 2, ln ** 3 / 3
    else:
        half = np.sin(2 * k * ln) / (4 * k)
        icc, ics, iss = ln / 2 + half, np.sin(k * ln) ** 2 / (2 * k), ln / 2 - half
    wa, wb = w[0:2 * ne:2], w[1:2 * ne:2]
    cross = wa.T @ (ics[:, None] * wb)
    gram = wa.T @ (icc[:, None] * wa) + wb.T @ (iss[:, None] * wb) + cross + cross.T
    ginv = np.linalg.inv(gram)
    c = w[[2 * ne + vix[v] for v in selection.vertices]]
    mat = -c @ ginv @ c.T
    sv = np.linalg.svd(mat, compute_uv=False)
    thresh = max(RANK_TOL * (sv[0] if len(sv) else 0.0),
                 RESIDUE_FLOOR * np.linalg.norm(ginv, 2))
    return ResidueEstimate(lam=lam, matrix=mat, rank=int(np.sum(sv > thresh)),
                           singular_values=sv, separation=separation)


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
                      lambda_max: float) -> VisibilityReport:
    """Classify every eigenvalue <= lambda_max by its visibility for M_B."""
    spec = eigenvalues_in(graph, lambda_max)
    warnings = list(spec.warnings) + list(selection.warnings)
    cands = candidate_steps(graph, lambda_max + STEP_MATCH_TOL * max(1.0, lambda_max))

    rows = []
    for hit in spec.eigenvalues:
        # lambda = 0 takes no step (a long step's pi^2/s^2 can lie within the
        # tolerance of 0) and no note; any other eigenvalue without one gets a note
        step = next((c.step for c in cands if hit.lam > 0.0
                     and abs(hit.lam - c.lam) <= STEP_MATCH_TOL * max(1.0, hit.lam)),
                    None)
        res_rep = None if step is None else resonance_dimension(graph, step)
        dim_res = 0 if res_rep is None else res_rep.dim
        notes = (("no commensurate structure detected",)
                 if step is None and hit.lam > 0.0 else ())

        res = residue(graph, selection, hit.lam, hit.multiplicity)
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
            step=None if step is None else str(step),
            identity_ok=identity_ok,
            classification=_classify(hit.multiplicity, res.rank),
            notes=notes, residue=res, resonance=res_rep))
    b0 = betti_graph(graph).beta0
    assert rows and rows[0].lam == 0.0 and rows[0].dim_ker == b0
    return VisibilityReport(tuple(rows), selection, spec, tuple(warnings))
