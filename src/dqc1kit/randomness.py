"""Deterministic seeding, Haar-random unitaries, and random circuits."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .tensor_core import DenseOperator, PureState, is_unitary

# Keeping full circuit unitaries dense above this register size is a memory
# hazard (2^24 complex entries at 12 qubits is the practical desk limit).
DENSE_LIMIT = 12

# Gates are checked once, when a GateSpec is built, at the tolerance that
# circuit files document; the kernels that apply them do not check again.
GATE_UNITARY_TOL = 1e-8

# Gates are fused into blocks acting on at most this many qubits, and each
# block is one pass over the columns.  4n random gates fuse into about n
# blocks, and at n = 14 a 5-qubit pass costs about twice a two-qubit one.
FUSED_BLOCK_QUBITS = 5

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(value: int) -> int:
    """SplitMix64 finalizer; bijective scrambling of a 64-bit word."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """A (master seed, stream id) pair naming one reproducible RNG stream.

    Children derived via :meth:`child` are decorrelated from the parent and
    from each other, so per-task streams can be fanned out without any
    shared mutable state.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit word")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in an unsigned 64-bit word")

    def child(self, index: int) -> "SeedSpec":
        """Derive the index-th child stream (index >= 0)."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        new_stream = _mix64((self.stream_id + _GOLDEN * (index + 1)) & _MASK64)
        return SeedSpec(self.master_seed, new_stream)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(_mix64(self.master_seed ^ self.stream_id))


def _haar_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via the phase-fixed QR of a Ginibre matrix."""
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    ginibre /= np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    # Without this phase fix the QR convention biases the distribution.
    return q * (diag / np.abs(diag))


def haar_unitary(num_qubits: int, seed: SeedSpec) -> DenseOperator:
    """Haar-random unitary on a register of ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return DenseOperator(num_qubits, _haar_matrix(2**num_qubits, seed.generator()))


def haar_product_unitary(num_qubits: int, seed: SeedSpec) -> DenseOperator:
    """Tensor product of independent Haar single-qubit unitaries.

    Qubit k's factor is drawn from ``seed.child(k)``.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    mat = np.array([[1.0 + 0.0j]])
    for k in range(num_qubits):
        mat = np.kron(mat, haar_unitary(1, seed.child(k)).matrix)
    return DenseOperator(num_qubits, mat)


@dataclass(frozen=True)
class GateSpec:
    """One 4x4 unitary applied to an ordered pair of distinct qubits.

    Construction rejects a matrix that is not unitary within
    ``GATE_UNITARY_TOL``.
    """

    targets: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        q1, q2 = self.targets
        if q1 == q2:
            raise ValueError("gate targets must be distinct")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (4, 4):
            raise ValueError("gate matrix must be 4x4")
        # Both products are checked, so G-dagger, which the adjoint
        # evolution applies, is unitary within the same tolerance.
        adjoint = mat.conj().T
        if not (is_unitary(mat, GATE_UNITARY_TOL) and is_unitary(adjoint, GATE_UNITARY_TOL)):
            raise ValueError(f"gate is not unitary within {GATE_UNITARY_TOL}")
        object.__setattr__(self, "targets", (int(q1), int(q2)))
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Circuit:
    """A gate list over a fixed register, applied first-to-last."""

    num_qubits: int
    gates: tuple[GateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        gates = tuple(self.gates)
        for g in gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValueError(f"gate targets {g.targets} out of range")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def fused_blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """The gate list as (qubits, 2^k x 2^k matrix) blocks, first to last.

        Planned and built once per circuit; ``qubits`` ascend, and the
        first one is the most significant bit of the block matrix.
        """
        blocks = []
        for qubits, members in plan_blocks(self.gates):
            local = {q: k for k, q in enumerate(qubits)}
            steps = [
                (tuple(local[q] for q in self.gates[i].targets), self.gates[i].matrix)
                for i in members
            ]
            identity = np.eye(2 ** len(qubits), dtype=np.complex128)
            blocks.append((qubits, _apply_blocks(steps, identity, len(qubits))))
        return tuple(blocks)


def random_two_qubit_circuit(num_qubits: int, num_gates: int, seed: SeedSpec) -> Circuit:
    """Haar-random 4x4 gates on uniformly random unordered qubit pairs.

    Each gate draws its pair independently; repeats are allowed.  The pair
    is sampled as an unordered set and then applied in ascending label
    order, which costs no generality because the gate itself is already
    Haar on the pair.
    """
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits for two-qubit gates")
    if num_gates < 1:
        raise ValueError("num_gates must be >= 1")
    rng = seed.generator()
    gates = []
    for _ in range(num_gates):
        pair = rng.choice(num_qubits, size=2, replace=False)
        q1, q2 = int(pair.min()), int(pair.max())
        gates.append(GateSpec((q1, q2), _haar_matrix(4, rng)))
    return Circuit(num_qubits, tuple(gates))


def plan_blocks(gates: Sequence[GateSpec]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Greedy fusion plan: (ascending qubits, gate indices) per block, in order.

    Each gate joins the earliest block, at or after the last block that
    touches its qubits, whose qubit union stays within FUSED_BLOCK_QUBITS;
    otherwise it opens a new block.  The blocks it skips over leave its
    qubits alone, so every qubit still sees its gates in list order.
    """
    qubit_sets: list[set[int]] = []
    members: list[list[int]] = []
    for index, gate in enumerate(gates):
        targets = set(gate.targets)
        start = next(
            (b for b in range(len(qubit_sets) - 1, -1, -1) if qubit_sets[b] & targets), 0
        )
        for b in range(start, len(qubit_sets)):
            if len(qubit_sets[b] | targets) <= FUSED_BLOCK_QUBITS:
                qubit_sets[b] |= targets
                members[b].append(index)
                break
        else:
            qubit_sets.append(targets)
            members.append([index])
    return [(tuple(sorted(q)), m) for q, m in zip(qubit_sets, members)]


def _apply_blocks(
    blocks: Iterable[tuple[tuple[int, ...], np.ndarray]], columns: np.ndarray, n: int
) -> np.ndarray:
    """Apply (qubits, matrix) blocks in order to the columns of a (2^n, k) block."""
    k = columns.shape[1]
    # The column axis comes first, so each column goes through the same
    # matmul calls, bit for bit, whatever the other columns are.
    t = columns.T.reshape((k,) + (2,) * n)
    order = list(range(n))  # axis a + 1 of t holds qubit order[a]
    for qubits, matrix in blocks:
        rest = [q for q in order if q not in qubits]
        perm = [0] + [1 + order.index(q) for q in (*qubits, *rest)]
        flat = t.transpose(perm).reshape(k, matrix.shape[0], -1)
        t = np.matmul(matrix, flat).reshape(t.shape)
        order = [*qubits, *rest]
    perm = [1 + order.index(q) for q in range(n)] + [0]
    return t.transpose(perm).reshape(2**n, k)


def evolve_columns(circuit: Circuit, columns: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Run C (or C-dagger) on every column of a ``(2^n, k)`` block at once.

    The gates go through as the circuit's fused blocks of at most
    FUSED_BLOCK_QUBITS qubits (:func:`plan_blocks`), planned and built
    once per circuit; C-dagger runs the reversed blocks' adjoints.  Column
    j of the result is bit for bit that column evolved alone.  Gates were
    checked for unitarity when their ``GateSpec`` was built, so none is
    checked here.
    """
    n = circuit.num_qubits
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.ndim != 2 or columns.shape[0] != 2**n:
        raise ValueError(
            f"columns must have shape (2^{n}, k), got shape {columns.shape}"
        )
    blocks = circuit.fused_blocks
    if adjoint:
        blocks = ((qubits, mat.conj().T) for qubits, mat in reversed(blocks))
    return _apply_blocks(blocks, columns, n)


def apply_circuit(circuit: Circuit, state: PureState) -> PureState:
    """Run the circuit on a state of the same register size."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit expects {circuit.num_qubits}"
        )
    evolved = evolve_columns(circuit, state.amplitudes[:, np.newaxis])
    return PureState(circuit.num_qubits, evolved[:, 0])


def circuit_unitary(circuit: Circuit) -> DenseOperator:
    """Materialize the full unitary; refuses registers above DENSE_LIMIT."""
    n = circuit.num_qubits
    if n > DENSE_LIMIT:
        raise ValueError(
            f"refusing to build a dense 2^{n} x 2^{n} unitary (limit {DENSE_LIMIT})"
        )
    return DenseOperator(n, evolve_columns(circuit, np.eye(2**n, dtype=np.complex128)))
