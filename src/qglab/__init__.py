"""Spectra, real resonances and vertex visibility for metric graph
Laplacians with Kirchhoff vertex conditions."""

from importlib import resources

from .graphs import (BettiData, CoreDecomposition, CycleSystem, CycleWalk,
                     Edge, ExactLength, MetricGraph, UnitTable, betti,
                     betti_graph, core_decomposition, cycle_system, validate)
from .lengths import (LambdaSubgraph, Step, build_lambda_subgraph,
                      candidate_steps, resonance_floor)
from .resonance import (ResonanceReport, resonance_dimension,
                        resonance_dimension_oracle)
from .spectral import Spectrum, assemble_secular, eigenvalues_in
from .weyl import (ResidueEstimate, VertexSelection, ntd_matrix, residue,
                   select_vertices, visibility_report)
from .graphfile import parse_graph, parse_graph_text, serialize_graph

__version__ = "0.1.0"


def bundled_graph_path(name: str):
    """Path to a bundled example graph file, e.g. 'dumbbell.qg'."""
    return resources.files(__name__) / "data" / name
