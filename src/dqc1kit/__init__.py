"""Simulation and correlation-rank analysis toolkit for the one-clean-qubit circuit."""

__version__ = "0.1.0"

from .tensor_core import (
    DEFAULT_RANK_TOL,
    Bipartition,
    DenseOperator,
    ProbabilityVector,
    PureState,
    SchmidtSpectrum,
    apply_two_qubit_gate,
    basis_state,
    fidelity,
    majorizes,
    operator_schmidt_decompose,
    qubit_permutation,
    rank_of,
    realign,
    schmidt_decompose,
    truncation_fidelity,
    unrealign,
)
from .randomness import (
    Circuit,
    GateSpec,
    SeedSpec,
    apply_circuit,
    circuit_unitary,
    evolve_columns,
    haar_product_unitary,
    haar_unitary,
    random_density_matrix,
    random_two_qubit_circuit,
)
from .dqc1_model import (
    Dqc1Config,
    ProductStateIndex,
    TraceEstimate,
    apply_to_product,
    final_state,
    normalized_trace,
    simulate_trace_estimation,
    top_on_side_a,
)
from .fileio import (
    FileFormatError,
    format_float,
    read_circuit,
    read_cmat,
    read_unitary_cmat,
    render_csv,
    render_json,
    write_circuit,
    write_cmat,
)
from .correlation_analysis import (
    ClaimFalsified,
    ConcentrationReport,
    CutRecord,
    RankScanReport,
    RobustRankBound,
    TreeGraph,
    TruncationRow,
    balanced_tree_edge,
    balanced_window,
    concentration_report,
    majorant_distribution,
    max_overlap_with_rank_limit,
    min_rank_over_equipartitions,
    rank_bound_scan,
    random_degree3_tree,
    random_zero_sum_shifts,
    robust_rank_bound,
    shifted_distribution,
    truncation_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
