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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

from .randomness import (
    Circuit,
    LazyUnitary,
    SeedSpec,
    check_dense_size,
    column_buffers,
    evolve_basis_columns,
)
from .tensor_core import DenseOperator, PureState

UnitarySource = Union[DenseOperator, LazyUnitary, Circuit]
_T = TypeVar("_T")
_R = TypeVar("_R")
_B = TypeVar("_B")

# The register limit for every path that builds 2^n amplitudes: a state, a
# column block, a Haar sample, and the streamed trace over 2^n columns.
STREAM_LIMIT = 20

# Basis columns are evolved in blocks of at most this many amplitudes
# (1 MiB of complex128), which bounds memory when many columns are needed.
# The streamed trace at 12 qubits ran 25-40% faster with this block than
# with 4 MiB blocks.  The stacked cut and sample SVDs of correlation_analysis
# use the same size: rank-scaling at n=14 on two workers took 2.6-2.8 s with
# stacks of four 128x128 cuts, and 4.8-5.4 s (slower than one worker's
# 4.3-4.8 s) with stacks of two.
COLUMN_BLOCK_ENTRIES = 2**16

# The trace estimator divides by tau, and its standard error is about
# 1/(tau sqrt(shots)): at tau = 1e-300 it reported estimates near 1e297 for a
# trace of modulus at most 1, and from about 1e-308 down it overflowed to
# inf.  Smaller polarizations are refused, at the truncation floor's value.
TRACE_MIN_TAU = 1e-6


def lane_count(workers: int, count: int) -> int:
    """min(workers, count) lanes, at least one; every lane count is taken here."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, count))


def lane_map(
    fn: Callable[[_T, _B], _R], items: Sequence[_T], buffers: Sequence[_B]
) -> Iterator[_R]:
    """Yield fn(items[i], buffers[i mod L]) in item order, on L = len(buffers) lanes.

    One lane runs on the calling thread.  Otherwise the caller starts the
    package's one pool, of L threads (the heavy kernels release the
    interpreter lock), and submits item i + L only once it has taken
    item i and asked for the next, so no lane reuses its buffers while
    the caller holds a result in them.  An item's error is raised on the
    caller; closing the generator cancels the items not started and
    waits for the ones running.
    """
    lanes = len(buffers)
    if lanes <= 1:
        for item in items:
            yield fn(item, buffers[0])
        return
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        running = deque(pool.submit(fn, item, lane) for item, lane in zip(items, buffers))
        try:
            for i in range(len(items)):
                yield running.popleft().result()
                if i + lanes < len(items):
                    running.append(pool.submit(fn, items[i + lanes], buffers[i % lanes]))
        finally:
            for future in running:
                future.cancel()


def parallel_map(
    fn: Callable[[_T], _R], items: Sequence[_T], workers: int = 1
) -> list[_R]:
    """[fn(item) for item in items] on :func:`lane_map`, one lane per item up to ``workers``."""
    lanes = range(lane_count(workers, len(items)))
    return list(lane_map(lambda item, _lane: fn(item), items, lanes))


@dataclass(frozen=True)
class Dqc1Config:
    """Top-qubit polarization and the register unitary, which fixes n."""

    polarization: float
    unitary: UnitarySource

    def __post_init__(self) -> None:
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("polarization must lie in [0, 1]")

    @property
    def num_register_qubits(self) -> int:
        return self.unitary.num_qubits


@dataclass(frozen=True)
class TraceEstimate:
    """Shot-based estimate of a normalized trace with per-axis errors.

    ``exact`` is the exact normalized trace the outcomes were drawn from.
    """

    estimate: complex
    std_error_real: float
    std_error_imag: float
    exact: complex


def register_columns(
    unitary: UnitarySource, register_indices: Sequence[int], adjoint: bool,
    buffers: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Columns W|x> for every listed x, as a (2^n, k) block; W = U or U-dagger.

    The one place that tells unitary kinds apart: a circuit evolves all k
    basis columns in one pass over its fused blocks, each on its light cone
    (:func:`evolve_basis_columns`), in ``buffers`` where a lane passes its
    own, a :class:`LazyUnitary` serves U|0> from its up-front column
    without building its matrix, and otherwise a matrix's columns are
    sliced out.  Every kind refuses an x outside 0..2^n - 1.
    """
    try:
        indices = np.asarray(register_indices, dtype=np.intp)
        in_range = not indices.size or 0 <= indices.min() and indices.max() < 2**unitary.num_qubits
    except OverflowError:  # an index of at least 2^63 or below -2^63
        in_range = False
    if not in_range:
        raise ValueError(f"basis indices must lie in 0..{2**unitary.num_qubits - 1}")
    if isinstance(unitary, Circuit):
        return evolve_basis_columns(unitary, indices, adjoint, buffers)
    if isinstance(unitary, LazyUnitary) and not adjoint and not indices.any():
        return np.repeat(unitary.first_column[:, np.newaxis], indices.size, axis=1)
    if adjoint:
        return unitary.matrix[indices, :].conj().T
    return unitary.matrix[:, indices]


def final_state(config: Dqc1Config) -> DenseOperator:
    """Dense joint state; Hermitian, trace 1, PSD for tau in [0, 1]."""
    n = config.num_register_qubits
    check_dense_size(n)
    dim = 2**n
    u_mat = register_columns(config.unitary, np.arange(dim), False)
    tau = config.polarization
    rho = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    rho[:dim, :dim] = np.eye(dim)
    rho[dim:, dim:] = np.eye(dim)
    rho[:dim, dim:] = tau * u_mat.conj().T
    rho[dim:, :dim] = tau * u_mat
    rho /= 2 * dim
    return DenseOperator(n + 1, rho)


def apply_to_product(config: Dqc1Config, t: int, x: int) -> PureState:
    """Unnormalized probe vector rho|t,x> without materializing rho.

    Equals (1/2^{n+1}) (|t,x> + tau |1-t> (x) W|x>) with W = U for t = 0
    and W = U-dagger for t = 1.  Memory use stays O(2^n).
    """
    dim = 2**config.num_register_qubits
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    if not 0 <= x < dim:
        raise ValueError(f"register index {x} out of range 0..{dim - 1}")
    amp = np.zeros(2 * dim, dtype=np.complex128)
    amp[t * dim + x] = 1.0
    amp[(1 - t) * dim : (2 - t) * dim] += (
        config.polarization * register_columns(config.unitary, [x], bool(t))[:, 0]
    )
    return PureState(config.num_register_qubits + 1, amp / (2 * dim))


def probe_stack(
    tau: float,
    columns: np.ndarray,
    probes: Sequence[tuple[int, tuple[int, ...], int]],
    out: np.ndarray,
    unit: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write the nonzero rows of :func:`apply_to_product`'s probes, one per slot of ``out``.

    ``columns`` is a (2^n, m) block of evolved columns W|x>, and probe s is
    (c, axes, j): it reads column c; ``axes`` lists the register qubits of
    its cut, side A's a labels and then side B's, each ascending (the order
    :meth:`Bipartition.matricize` reads); and j is x's side-B index.  The
    joint cut holds the top qubit and side A (shifted up by one label); t
    does not matter.  The probe's 2^a rows of top bit t hold a single
    entry, 1 at (i, j), and its 2^a rows of top bit 1-t hold tau R(W|x>),
    the column matricized across the register cut.  Its Schmidt
    coefficients are the singular values of the (2^a + 1) x 2^b matrix
    [e_j^T ; tau R(W|x>)] / 2^{n+1}, padded with zeros to
    min(2^{a+1}, 2^b), which slot s of the (k, 2^a + 1, 2^b) stack ``out``
    receives.  Each probe's register rows take one strided copy from a
    (m, 2, ..., 2) view of the block; then the e_j rows are set for the
    whole stack and its register rows are multiplied once by
    tau 2^-(n+1), which has the bits of (tau R) / 2^{n+1} unless an entry
    falls into the subnormal range (for unit-scale amplitudes, tau below
    about 1e-280).  An array ``unit`` of out's shape receives the same
    probes at tau = 1: the unscaled stack is copied into it before each
    of the two is multiplied by its own factor, so both hold the bits
    of a stack written alone.
    """
    n = columns.shape[0].bit_length() - 1
    scale = 2.0 ** -(n + 1)
    qubits = columns.T.reshape((-1,) + (2,) * n)
    registers = out[:, 1:].reshape((len(out),) + (2,) * n)
    for slot, (c, axes, _j) in zip(registers, probes):
        slot[...] = qubits[c].transpose(axes)
    out[:, 0] = 0.0
    out[np.arange(len(out)), 0, [j for _c, _axes, j in probes]] = scale
    if unit is not None:
        np.copyto(unit, out)
        unit[:, 1:] *= scale
    out[:, 1:] *= tau * scale
    return out


def normalized_trace(unitary: UnitarySource, workers: int = 1) -> complex:
    """Exact Tr(U)/2^n.

    A matrix's diagonal is read off it.  A circuit's is gathered over
    equal blocks of columns, so its unitary is never materialized; that
    costs O(4^n * gates) time.  Block i is evolved by :func:`lane_map` in
    lane i mod min(workers, blocks)'s two work buffers, made here with the
    circuit's fused blocks; the calling thread gathers the diagonal in
    order and sums it once, so the result does not depend on ``workers``.
    """
    n = unitary.num_qubits
    if n > STREAM_LIMIT:
        raise ValueError(f"register of {n} qubits exceeds streaming limit {STREAM_LIMIT}")
    dim = 2**n
    step = min(dim, max(1, COLUMN_BLOCK_ENTRIES >> n))
    lanes = lane_count(workers, dim // step)
    if not isinstance(unitary, Circuit):
        return complex(np.trace(unitary.matrix) / dim)
    blocks = np.arange(dim).reshape(-1, step)
    unitary.fused_blocks  # built once, on this thread
    buffers = [column_buffers(n, step) for _ in range(lanes)]
    evolved = lane_map(lambda xs, lane: evolve_basis_columns(unitary, xs, False, lane),
                       blocks, buffers)
    diag = np.concatenate([columns[xs, np.arange(step)] for columns, xs in zip(evolved, blocks)])
    return complex(diag.sum() / dim)


def simulate_trace_estimation(
    config: Dqc1Config, shots: int, seed: SeedSpec, workers: int = 1
) -> TraceEstimate:
    """Simulate top-qubit X/Y measurement statistics for the trace.

    Draws ``shots`` Bernoulli outcomes per axis with
    P(+|X) = (1 + tau Re t)/2 and P(+|Y) = (1 - tau Im t)/2 where
    t = Tr(U)/2^n is computed exactly, then inverts both affine maps.  The
    estimator is unbiased; the returned errors are the binomial standard
    errors of each component.  A polarization below TRACE_MIN_TAU is refused.
    ``workers`` goes to :func:`normalized_trace`.
    """
    if not 1 <= shots < 2**63:  # Generator.binomial takes a signed 64-bit count
        raise ValueError("shots must lie in [1, 2^63 - 1]")
    tau = config.polarization
    if tau < TRACE_MIN_TAU:
        raise ValueError(f"polarization below {TRACE_MIN_TAU} cannot be resolved")
    t = normalized_trace(config.unitary, workers)
    # A unitary accepted within UNITARY_TOL can have |t| slightly above 1.
    p_x = min(max((1.0 + tau * t.real) / 2.0, 0.0), 1.0)
    p_y = min(max((1.0 - tau * t.imag) / 2.0, 0.0), 1.0)
    rng = seed.generator()
    mean_x = rng.binomial(shots, p_x) / shots
    mean_y = rng.binomial(shots, p_y) / shots
    estimate = complex((2.0 * mean_x - 1.0) / tau, (1.0 - 2.0 * mean_y) / tau)
    se_x = 2.0 * math.sqrt(mean_x * (1.0 - mean_x) / shots) / tau
    se_y = 2.0 * math.sqrt(mean_y * (1.0 - mean_y) / shots) / tau
    return TraceEstimate(estimate, se_x, se_y, t)
