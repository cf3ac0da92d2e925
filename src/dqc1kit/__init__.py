"""Simulation and correlation-rank analysis toolkit for the one-clean-qubit circuit."""

import types

__version__ = "0.1.0"

from .tensor_core import (
    DEFAULT_RANK_TOL,
    Bipartition,
    DenseOperator,
    PureState,
    SchmidtSpectrum,
    apply_two_qubit_gate,
    fidelity,
    operator_schmidt_decompose,
    rank_of,
    realign,
    schmidt_decompose,
    truncation_fidelity,
    unrealign,
)
from .randomness import (
    Circuit,
    GateSpec,
    LazyUnitary,
    SeedSpec,
    apply_circuit,
    circuit_unitary,
    haar_product_unitary,
    haar_unitary,
    random_two_qubit_circuit,
)
from .dqc1_model import (
    Dqc1Config,
    TraceEstimate,
    apply_to_product,
    final_state,
    normalized_trace,
    simulate_trace_estimation,
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
    min_rank_over_equipartitions,
    rank_bound_scan,
    random_degree3_tree,
    robust_rank_bound,
    truncation_experiment,
)

# The public names only: importing the submodules above also bound their names here.
__all__ = sorted(name for name, value in globals().items()
                 if name[0] != "_" and not isinstance(value, types.ModuleType))
