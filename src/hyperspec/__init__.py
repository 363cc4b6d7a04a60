"""Spectral toolkit for half-blowup power hypergraphs.

Computes spectra, H-spectra, largest H-eigenvalues and spectral radii of the
adjacency, Laplacian and signless Laplacian tensors of generalized power
hypergraphs built from simple graphs.  The heavy lifting reduces the tensor
problem to small complex matrices indexed by connected vertex subsets and
root-of-unity phase assignments; matrix eigenvectors lift back to certified
tensor eigenvectors, and exact modular arithmetic decides diagonal-similarity
certificates.
"""

from hyperspec.graphs import (
    LoopedGraph,
    as_subset,
    complete_graph,
    connected_subsets,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
)
from hyperspec.hypergraphs import (
    HalfEdgeMap,
    Hypergraph,
    from_json_dict,
    generalized_power,
    odd_bipartition,
    to_canonical_json,
)
from hyperspec.linalg import (
    ConvergenceError,
    EigenPair,
    SpectrumSet,
    eig_complex_pairs,
    eig_real_symmetric,
    power_iteration_nonneg,
    spectral_radius,
)
from hyperspec.reduction import (
    PhaseAssignment,
    ReductionWitness,
    RhoResult,
    SpectrumReport,
    h_spectrum_power,
    lambda_max_laplacian,
    phase_classes,
    reduced_matrix,
    rho_power,
    spectrum_power,
    uniform_phase_matrix,
)
from hyperspec.tensors import (
    Gauge,
    TensorOperator,
    eig_residual,
    lift_perron,
    lift_phase,
    lift_real,
    nqz_power_iteration,
    rotate_signless_to_laplacian,
    verify_diagonal_similarity,
)
from hyperspec.gauge import (
    ModularSystem,
    build_similarity_system,
    certificate_report,
    solve_mod_m,
)

__version__ = "0.1.0"

__all__ = [
    "LoopedGraph",
    "as_subset",
    "complete_graph",
    "connected_subsets",
    "cycle_graph",
    "format_edge_list",
    "parse_edge_list",
    "path_graph",
    "HalfEdgeMap",
    "Hypergraph",
    "from_json_dict",
    "generalized_power",
    "odd_bipartition",
    "to_canonical_json",
    "ConvergenceError",
    "EigenPair",
    "SpectrumSet",
    "eig_complex_pairs",
    "eig_real_symmetric",
    "power_iteration_nonneg",
    "spectral_radius",
    "PhaseAssignment",
    "ReductionWitness",
    "RhoResult",
    "SpectrumReport",
    "h_spectrum_power",
    "lambda_max_laplacian",
    "phase_classes",
    "reduced_matrix",
    "rho_power",
    "spectrum_power",
    "uniform_phase_matrix",
    "Gauge",
    "TensorOperator",
    "eig_residual",
    "lift_perron",
    "lift_phase",
    "lift_real",
    "nqz_power_iteration",
    "rotate_signless_to_laplacian",
    "verify_diagonal_similarity",
    "ModularSystem",
    "build_similarity_system",
    "certificate_report",
    "solve_mod_m",
    "__version__",
]
