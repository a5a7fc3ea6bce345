"""Deterministic discrepancy-walk partial coloring and the sparsifiers built on it."""

from .errors import (
    InvalidInput,
    NotPSD,
    ParseError,
    StepTooLarge,
    SubspaceExhausted,
    WalksparseError,
)
from .graph import Graph, bipartite_lift, expander_decompose, sv_error_matrices
from .linalg import Subspace, nullspace
from .matrix_walk import DoubledFamily, MatrixFamily, WalkLog, WalkOptions, partial_color
from .matrix_walk import vector_partial_color
from .sketches import resistance_sparsify, sketch, sketch_expander
from .sparsify import (
    PipelineResult,
    degree_subspace,
    spectral_sparsify,
    sv_sparsify,
    sv_sparsify_expander,
    uc_sparsify,
)
from .verify import (
    ApproxReport,
    brute_force_min_discrepancy,
    check_matrix_approx,
    check_sv,
    check_uc_undirected,
    effective_resistance_report,
)

__all__ = [
    "ApproxReport",
    "DoubledFamily",
    "Graph",
    "InvalidInput",
    "MatrixFamily",
    "NotPSD",
    "ParseError",
    "PipelineResult",
    "StepTooLarge",
    "Subspace",
    "SubspaceExhausted",
    "WalkLog",
    "WalkOptions",
    "WalksparseError",
    "bipartite_lift",
    "brute_force_min_discrepancy",
    "check_matrix_approx",
    "check_sv",
    "check_uc_undirected",
    "degree_subspace",
    "effective_resistance_report",
    "expander_decompose",
    "sv_error_matrices",
    "nullspace",
    "partial_color",
    "resistance_sparsify",
    "sketch",
    "sketch_expander",
    "spectral_sparsify",
    "sv_sparsify",
    "sv_sparsify_expander",
    "uc_sparsify",
    "vector_partial_color",
]
