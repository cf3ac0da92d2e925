"""One-clean-qubit circuit state, probe vectors, and trace estimation.

The system is a register of ``n`` qubits under a unitary ``U`` plus one
partially polarized "top" qubit, always at label 0 (the MSB).  The joint
state after the controlled-``U`` circuit is

    rho = (1/2^{n+1}) [[I, tau U*], [tau U, I]]   (blocks over the top qubit)

with polarization ``tau`` in [0, 1].  Measuring the top qubit in X and Y
estimates the normalized trace Tr(U)/2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .randomness import DENSE_LIMIT, Circuit, SeedSpec, circuit_unitary, evolve_columns
from .tensor_core import Bipartition, DenseOperator, PureState

UnitarySource = Union[DenseOperator, Circuit]

# Diagonal streaming touches 2^n basis states; beyond this it is hopeless.
STREAM_LIMIT = 20

# Basis columns are evolved in blocks of at most this many amplitudes
# (1 MiB of complex128), which bounds memory when many columns are needed.
# The streamed trace at 12 qubits ran 25-40% faster with this block than
# with 4 MiB blocks.
COLUMN_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class Dqc1Config:
    """Register size, top-qubit polarization, and the register unitary."""

    num_register_qubits: int
    polarization: float
    unitary: UnitarySource

    def __post_init__(self) -> None:
        if self.num_register_qubits < 1:
            raise ValueError("num_register_qubits must be >= 1")
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("polarization must lie in [0, 1]")
        if self.unitary.num_qubits != self.num_register_qubits:
            raise ValueError(
                f"unitary acts on {self.unitary.num_qubits} qubits, "
                f"config declares {self.num_register_qubits}"
            )

    @property
    def total_qubits(self) -> int:
        return self.num_register_qubits + 1


@dataclass(frozen=True)
class ProductStateIndex:
    """Basis label (t, i, j): top-qubit bit, A-side index, B-side index.

    i runs over the register qubits on side A of the active cut, j over
    side B; range checks happen where the cut is known.
    """

    t: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if self.i < 0 or self.j < 0:
            raise ValueError("basis indices must be nonnegative")


@dataclass(frozen=True)
class TraceEstimate:
    """Shot-based estimate of a normalized trace with per-axis errors.

    ``exact`` is the exact normalized trace the outcomes were drawn from.
    """

    estimate: complex
    std_error_real: float
    std_error_imag: float
    shots: int
    exact: complex

    @property
    def std_error(self) -> float:
        return math.hypot(self.std_error_real, self.std_error_imag)


def top_on_side_a(cut: Bipartition) -> Bipartition:
    """Return the cut with the top qubit (label 0) on side A.

    Legitimate because every spectrum here is symmetric under exchanging
    the two sides.
    """
    return cut if 0 in cut.side_a else cut.flipped()


def _scatter_bits(value: int, positions: tuple[int, ...], total_qubits: int) -> int:
    """Place value's bits (MSB first) at the given ascending qubit labels."""
    width = len(positions)
    out = 0
    for k, pos in enumerate(positions):
        bit = (value >> (width - 1 - k)) & 1
        out |= bit << (total_qubits - 1 - pos)
    return out


def _register_sides(cut: Bipartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Register-qubit labels (top qubit dropped) on each side of the cut."""
    cut = top_on_side_a(cut)
    side_a_reg = tuple(q for q in cut.side_a if q != 0)
    return side_a_reg, cut.side_b


def register_columns(
    unitary: UnitarySource, register_indices: Sequence[int], adjoint: bool
) -> np.ndarray:
    """Columns W|x> for every listed x, as a (2^n, k) block; W = U or U-dagger.

    A circuit evolves all k basis columns in one pass over its fused blocks.
    """
    indices = np.asarray(register_indices, dtype=np.intp)
    if isinstance(unitary, DenseOperator):
        if adjoint:
            return unitary.matrix[indices, :].conj().T
        return unitary.matrix[:, indices]
    basis = np.zeros((2**unitary.num_qubits, indices.size), dtype=np.complex128)
    basis[indices, np.arange(indices.size)] = 1.0
    return evolve_columns(unitary, basis, adjoint)


def column_blocks(
    unitary: UnitarySource, register_indices: Sequence[int], adjoint: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (xs, W|xs>) over the listed indices, a block of columns at a time.

    Each block holds at most COLUMN_BLOCK_ENTRIES amplitudes, and at least
    one column.
    """
    indices = np.asarray(register_indices, dtype=np.intp)
    step = max(1, COLUMN_BLOCK_ENTRIES >> unitary.num_qubits)
    for start in range(0, indices.size, step):
        xs = indices[start : start + step]
        yield xs, register_columns(unitary, xs, adjoint)


def final_state(config: Dqc1Config) -> DenseOperator:
    """Dense joint state; Hermitian, trace 1, PSD for tau in [0, 1]."""
    n = config.num_register_qubits
    if n > DENSE_LIMIT:
        raise ValueError(
            f"register of {n} qubits exceeds dense limit {DENSE_LIMIT}"
        )
    u = config.unitary
    u_mat = (u if isinstance(u, DenseOperator) else circuit_unitary(u)).matrix
    dim = 2**n
    tau = config.polarization
    rho = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    rho[:dim, :dim] = np.eye(dim)
    rho[dim:, dim:] = np.eye(dim)
    rho[:dim, dim:] = tau * u_mat.conj().T
    rho[dim:, :dim] = tau * u_mat
    rho /= 2 * dim
    return DenseOperator(n + 1, rho)


def probe_key(
    config: Dqc1Config, cut: Bipartition, idx: ProductStateIndex
) -> tuple[bool, int]:
    """(adjoint, register index x) naming the column W|x> a probe needs."""
    total = config.total_qubits
    if cut.total_qubits != total:
        raise ValueError(
            f"cut is over {cut.total_qubits} qubits, system has {total}"
        )
    side_a_reg, side_b = _register_sides(cut)
    if idx.i >= 2 ** len(side_a_reg) or idx.j >= 2 ** len(side_b):
        raise ValueError(f"index {idx} out of range for cut {cut.side_a}")
    # Full-system label q (1..n) sits at shift (n+1)-1-q = n-q, which is
    # exactly the register-index bit position for register qubit q-1.
    register_index = _scatter_bits(idx.i, side_a_reg, total) | _scatter_bits(
        idx.j, side_b, total
    )
    return bool(idx.t), register_index


def probe_from_column(
    config: Dqc1Config, key: tuple[bool, int], evolved: np.ndarray
) -> PureState:
    """The probe vector of :func:`apply_to_product` from its column W|x>."""
    adjoint, register_index = key
    t = int(adjoint)
    dim = 2**config.num_register_qubits
    amp = np.zeros(2 * dim, dtype=np.complex128)
    amp[t * dim + register_index] = 1.0
    amp[(1 - t) * dim : (2 - t) * dim] += config.polarization * evolved
    return PureState(config.total_qubits, amp / (2 * dim))


def apply_to_product(
    config: Dqc1Config, cut: Bipartition, idx: ProductStateIndex
) -> PureState:
    """Unnormalized probe vector rho|t,i,j> without materializing rho.

    Equals (1/2^{n+1}) (|t,i,j> + tau |1-t> (x) W|i,j>) with W = U for
    t = 0 and W = U-dagger for t = 1.  Memory use stays O(2^n).
    """
    key = probe_key(config, cut, idx)
    evolved = register_columns(config.unitary, [key[1]], adjoint=key[0])[:, 0]
    return probe_from_column(config, key, evolved)


def normalized_trace(unitary: UnitarySource) -> complex:
    """Exact Tr(U)/2^n.

    A circuit's diagonal is gathered over blocks of basis columns, so the
    unitary is never materialized; that costs O(4^n * gates) time.
    """
    n = unitary.num_qubits
    if isinstance(unitary, DenseOperator):
        return complex(np.trace(unitary.matrix) / 2**n)
    if n > STREAM_LIMIT:
        raise ValueError(f"register of {n} qubits exceeds streaming limit {STREAM_LIMIT}")
    dim = 2**n
    diag = np.empty(dim, dtype=np.complex128)
    for xs, block in column_blocks(unitary, np.arange(dim), adjoint=False):
        diag[xs] = block[xs, np.arange(xs.size)]
    return complex(diag.sum() / dim)


def simulate_trace_estimation(
    config: Dqc1Config, shots: int, seed: SeedSpec
) -> TraceEstimate:
    """Simulate top-qubit X/Y measurement statistics for the trace.

    Draws ``shots`` Bernoulli outcomes per axis with
    P(+|X) = (1 + tau Re t)/2 and P(+|Y) = (1 - tau Im t)/2 where
    t = Tr(U)/2^n is computed exactly, then inverts both affine maps.  The
    estimator is unbiased; the returned errors are the binomial standard
    errors of each component.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    tau = config.polarization
    if tau == 0.0:
        raise ValueError("estimator undefined at zero polarization")
    t = normalized_trace(config.unitary)
    p_x = (1.0 + tau * t.real) / 2.0
    p_y = (1.0 - tau * t.imag) / 2.0
    rng = seed.generator()
    mean_x = rng.binomial(shots, p_x) / shots
    mean_y = rng.binomial(shots, p_y) / shots
    estimate = complex((2.0 * mean_x - 1.0) / tau, (1.0 - 2.0 * mean_y) / tau)
    se_x = 2.0 * math.sqrt(mean_x * (1.0 - mean_x) / shots) / tau
    se_y = 2.0 * math.sqrt(mean_y * (1.0 - mean_y) / shots) / tau
    return TraceEstimate(estimate, se_x, se_y, shots, t)
