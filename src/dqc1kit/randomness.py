"""Deterministic seeding, Haar-random unitaries, and random circuits."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor_core import UNITARY_TOL, DenseOperator, PureState

# Keeping full circuit unitaries dense above this register size is a memory
# hazard (2^24 complex entries at 12 qubits is the practical desk limit).
# The dense builders below and final_state refuse larger registers.
DENSE_LIMIT = 12

# Gates are fused into blocks acting on at most this many qubits, and each
# block is one pass over the columns.  4n random gates fuse into about n
# blocks (14 at n = 14, seed 1).  A 5-qubit pass over 20 columns at n = 14
# takes 1.9 ms against 1.3 ms for a two-qubit one, and width 5 was the
# fastest of 4-6 (n = 9 trace: 11.1, 8.6 and 9.2 ms; one BLAS thread).
# Another width moves the columns' last bits, and so the CLI's output.
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


def _complex_normals(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Standard complex normals (real + 1j * imag) / sqrt(2) from two real normal draws.

    The bits of that expression, without its complex temporaries.
    """
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = imag
    out /= np.sqrt(2.0)
    return out


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. standard complex normal entries, real parts drawn first."""
    real = rng.standard_normal((dim, dim))
    return _complex_normals(real, rng.standard_normal((dim, dim)))


def _phase_fixed_q(ginibre: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries: the phase-fixed QR of each Ginibre matrix.

    Takes one matrix or a stack of them (leading axes); LAPACK factors
    each matrix of a stack on its own, so the bits match per-matrix calls.
    """
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    # Without this phase fix the QR convention biases the distribution.
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def _haar_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via the phase-fixed QR of a Ginibre matrix."""
    return _phase_fixed_q(_ginibre(dim, rng))


def check_dense_size(num_qubits: int) -> None:
    """Refuse a dense 2^n x 2^n unitary unless 1 <= n <= DENSE_LIMIT."""
    if not 1 <= num_qubits <= DENSE_LIMIT:
        raise ValueError(f"a dense unitary needs 1 <= n <= {DENSE_LIMIT} qubits, got {num_qubits}")


@dataclass(frozen=True)
class LazyUnitary:
    """A drawn dense unitary: U|0> computed up front, the matrix built on first use.

    Column 0 of the built matrix holds ``first_column``'s bits, so every path reads one U|0>.
    """

    num_qubits: int
    first_column: np.ndarray
    build: Callable[[], np.ndarray]
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        # cached_property has no lock on Python 3.12+: threads reading
        # .matrix at once wait here, and build runs once.  Replacing it
        # drops what it holds (a Haar draw's normals, a product's factors),
        # and a waiting thread gets this matrix from it.
        with self._lock:
            mat = self.build()
            mat[:, 0] = self.first_column
            object.__setattr__(self, "build", lambda: mat)
        return mat


def haar_unitary(num_qubits: int, seed: SeedSpec) -> LazyUnitary:
    """Haar-random unitary on a register of ``num_qubits`` qubits.

    U|0> is z[:,0]/|z[:,0]| for the Ginibre draw z: column 0 of its phase-fixed
    QR in exact arithmetic (Mezzadri, Notices AMS 54, 592 (2007)).  The two
    real normal blocks of z are kept apart, and z itself is assembled only
    when the matrix is built; U|0> needs only their first columns.  The
    build releases the blocks once z holds them, before the QR.
    """
    check_dense_size(num_qubits)
    # One draw, the real block's values first in the stream: one allocation
    # of the assembled matrix's size.  Two separate blocks made the next job
    # in the same process slower (truncation after an n = 9 scan: 8.3-8.6
    # against 5.8 ms), likely through the allocator's mmap threshold.
    normals = [seed.generator().standard_normal((2, 2**num_qubits, 2**num_qubits))]
    column = _complex_normals(normals[0][0, :, 0], normals[0][1, :, 0])
    first = column / np.linalg.norm(column)
    return LazyUnitary(num_qubits, first, lambda: _phase_fixed_q(_complex_normals(*normals.pop())))


def haar_product_unitary(num_qubits: int, seed: SeedSpec) -> LazyUnitary:
    """Tensor product of independent Haar single-qubit unitaries.

    Qubit k's factor is drawn from ``seed.child(k)``; U|0> is the Kronecker
    product of the factors' first columns.
    """
    check_dense_size(num_qubits)
    factors = [_haar_matrix(2, seed.child(k).generator()) for k in range(num_qubits)]
    first = reduce(np.kron, [f[:, 0] for f in factors], np.ones(1, complex))
    return LazyUnitary(
        num_qubits, first, lambda: reduce(np.kron, factors, np.ones((1, 1), complex))
    )


@dataclass(frozen=True)
class GateSpec:
    """One 4x4 matrix applied to an ordered pair of distinct qubits.

    Construction checks the targets and the shape only: the
    :class:`Circuit` holding the gate checks that it is unitary.
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
        object.__setattr__(self, "targets", (int(q1), int(q2)))
        object.__setattr__(self, "matrix", mat)


def first_nonunitary_gate(gates: Sequence[GateSpec]) -> Optional[int]:
    """The index of the first gate G for which G or G-dagger fails ``is_unitary``, or None.

    One stacked pass over all the gates: each gate's G†G and GG† are the
    products ``is_unitary`` takes for G and for G-dagger, bit for bit.
    """
    if not gates:
        return None
    stack = np.array([g.matrix for g in gates])
    adjoints = stack.conj().transpose(0, 2, 1)
    eye = np.eye(4)
    unitary = (np.abs(adjoints @ stack - eye).max(axis=(1, 2)) <= UNITARY_TOL) & (
        np.abs(stack @ adjoints - eye).max(axis=(1, 2)) <= UNITARY_TOL
    )
    bad = np.flatnonzero(~unitary)
    return int(bad[0]) if bad.size else None


@dataclass(frozen=True)
class Circuit:
    """A gate list over a fixed register, applied first-to-last.

    Construction rejects the gates unless each G and G-dagger, which the
    adjoint evolution applies, is unitary within ``UNITARY_TOL``; the
    kernels that apply gates do not check again.
    """

    num_qubits: int
    gates: tuple[GateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        gates = tuple(self.gates)
        if first_nonunitary_gate(gates) is not None:
            raise ValueError(f"gate is not unitary within {UNITARY_TOL}")
        for g in gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValueError(f"gate targets {g.targets} out of range")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def fused_blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """The gate list as (qubits, 2^w x 2^w matrix) blocks, first to last.

        Planned and built once per circuit; ``qubits`` ascend, and the
        first one is the most significant bit of the block matrix.  Each
        block is built by :func:`_block_matrix`.
        """
        blocks = []
        for qubits, members in plan_blocks(self.gates):
            local = {q: k for k, q in enumerate(qubits)}
            steps = [
                (tuple(local[q] for q in self.gates[i].targets), self.gates[i].matrix)
                for i in members
            ]
            blocks.append((qubits, _block_matrix(len(qubits), steps)))
        return tuple(blocks)

    @cached_property
    def adjoint_blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """C-dagger's blocks, built once: the fused blocks reversed, each conjugate-transposed."""
        return tuple((qubits, mat.conj().T) for qubits, mat in reversed(self.fused_blocks))


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
    pairs, ginibres = [], []
    for _ in range(num_gates):
        pair = rng.choice(num_qubits, size=2, replace=False)
        pairs.append((int(pair.min()), int(pair.max())))
        ginibres.append(_ginibre(4, rng))
    # One stacked QR: the draw order, and so each gate's bits, stay per gate.
    matrices = _phase_fixed_q(np.stack(ginibres))
    return Circuit(num_qubits, tuple(map(GateSpec, pairs, matrices)))


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


# The label of the column axis in the block kernels' lists of axis labels.
_COLUMNS = -1


def _product_layout(
    block: Sequence[int], axes: Sequence[int], key: Callable[[int], int] = lambda q: 0
) -> tuple[list[int], tuple[int, ...]]:
    """The axis order and matmul shape of a block's product on a tensor with axes ``axes``.

    With R >= 4 entries of each column outside the block, the rest axes,
    stably sorted by ``key``, go next and the column axis last: all k
    columns take one (2^w, R k) product.  With R < 4 the column axis goes
    first, and each column takes its own (2^w, R) product.  Either way each
    column's bits are those of the column evolved alone: OpenBLAS computes
    an entry of a product with at least 4 columns the same way whatever the
    width and the entry's place, and not with 1 or 2 (OpenBLAS 0.3.31,
    SkylakeX kernel, w = 2-5, k = 1-130, matrices in either memory order:
    of 3000 random trials, none of the 2410 with R >= 4 changed a bit
    against per-column products, and 576 of the 590 with R < 4 did).
    """
    rest = [a for a in axes if a != _COLUMNS and a not in block]
    if len(rest) >= 2:
        return [*block, *sorted(rest, key=key), _COLUMNS], (2 ** len(block), -1)
    return [_COLUMNS, *block, *rest], (-1, 2 ** len(block), 2 ** len(rest))


def _stage(
    t: np.ndarray, axes: list[int], target: list[int], xs: Optional[np.ndarray], n: int,
    out: np.ndarray,
) -> np.ndarray:
    """Write ``t``, whose axis a holds qubit axes[a] or the columns, into ``out`` as ``target``.

    Returns the view of ``out`` with one axis per label of ``target``.  A
    qubit of ``target`` that ``t`` does not carry enters one-hot at its bit
    of the basis index xs[j] in column j (qubit 0 the most significant).
    """
    k = t.shape[axes.index(_COLUMNS)]
    new = [q for q in target if q not in axes]
    operand = out[: t.size << len(new)].reshape([k if a == _COLUMNS else 2 for a in target])
    hot = True
    if new:
        bits = sum(((xs >> (n - 1 - q)) & 1) << (len(new) - 1 - i) for i, q in enumerate(new))
        bits = bits.reshape([k if a == _COLUMNS else 1 for a in axes])
        hot = bits == np.arange(2 ** len(new)).reshape((2,) * len(new) + (1,) * len(axes))
        operand.fill(0)
    np.copyto(operand.transpose([target.index(a) for a in (*new, *axes)]), t, where=hot)
    return operand


def _block_matrix(width: int, steps: Sequence[tuple[tuple[int, int], np.ndarray]]) -> np.ndarray:
    """The (targets, 4x4 gate) steps on ``width`` qubits, as one 2^w x 2^w matrix.

    Each gate takes one product on the 2^w identity columns, laid out by
    :func:`_product_layout` as :func:`_apply_blocks` would lay it out with
    every qubit carried.
    """
    dim = 2**width
    axes = [_COLUMNS, *range(width)]
    t = np.eye(dim, dtype=np.complex128).reshape((dim,) + (2,) * width)
    for targets, gate in steps:
        target, shape = _product_layout(targets, axes)
        operand = np.ascontiguousarray(t.transpose([axes.index(a) for a in target]))
        t = np.matmul(gate, operand.reshape(shape))
        t, axes = t.reshape(operand.shape), target
    matrix = t.transpose([axes.index(a) for a in (*range(width), _COLUMNS)]).reshape(dim, dim)
    # A product with one column rounds differently with the matrix in C or
    # Fortran order, so each block keeps the order the column-first kernel
    # gave it: Fortran exactly when the gates, each moving its targets'
    # axes to the front, leave them in order.
    in_order = [a for a in axes if a != _COLUMNS] == list(range(width))
    return np.asfortranarray(matrix) if in_order else np.ascontiguousarray(matrix)


def _apply_blocks(
    blocks: Sequence[tuple[tuple[int, ...], np.ndarray]],
    t: np.ndarray,
    n: int,
    xs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply (qubits, matrix) blocks in order to k columns; return them as (2^n, k).

    ``t`` has shape (k, 2, ..., 2), and its axis a + 1 holds qubit a.
    Every other qubit of column j still holds its bit of the basis index
    ``xs[j]`` (qubit 0 the most significant), and :func:`_stage` enters it,
    one-hot at that bit, straight into the operand of the first block that
    touches it, or into the output if none does.  With every qubit carried,
    ``xs`` is not read.

    A block of width w on c carried qubits is one matrix product over
    R = 2^(c - w) entries of each column, laid out by
    :func:`_product_layout`.  With R >= 4 the rest axes come in the order
    the next blocks need them, so the transposed copies move outer axes and
    keep long inner runs.
    """
    k = t.shape[0]
    axes = [_COLUMNS, *range(t.ndim - 1)]  # axis a of t holds qubit axes[a], or the columns
    soonest, upcoming = [], {}  # soonest[b][q]: the first block after block b to touch q
    for qubits, _ in reversed(blocks):
        soonest.append(dict(upcoming))
        upcoming.update((q, len(blocks) - len(soonest)) for q in qubits)
    # Each operand, and last the output, is staged in stage, and each product
    # is written to result: two allocations per call, and the returned
    # columns hold only stage.  Fresh arrays per block cost page faults, and
    # made a circuit_scan session about 10% slower.
    stage, result = (np.empty(2**n * k, dtype=np.complex128) for _ in range(2))
    for (qubits, matrix), after in zip(blocks, reversed(soonest)):
        target, shape = _product_layout(qubits, axes, lambda q: after.get(q, len(blocks)))
        operand = _stage(t, axes, target, xs, n, stage)
        t = np.matmul(matrix, operand.reshape(shape), out=result[: operand.size].reshape(shape))
        t, axes = t.reshape(operand.shape), target
    return _stage(t, axes, [*range(n), _COLUMNS], xs, n, stage).reshape(2**n, k)


def evolve_basis_columns(
    circuit: Circuit, xs: Sequence[int], adjoint: bool = False
) -> np.ndarray:
    """C|x> (or C-dagger|x>) for every listed basis index x, as a (2^n, k) block.

    Each column is carried on its light cone: only the qubits that the
    blocks run so far have touched.  A qubit enters, one-hot at x's bit,
    straight into the operand of the first block that touches it, and the
    qubits no block touches enter into the output.  The touched set depends
    only on the circuit and the direction, so column j is bit for bit that
    column evolved alone.  C-dagger runs :attr:`Circuit.adjoint_blocks`.
    The call works in two buffers of 2^n k amplitudes, and the returned
    block is one of them.  Each x must lie in 0..2^n - 1, which
    :func:`register_columns` checks.
    """
    xs = np.asarray(xs, dtype=np.intp)
    blocks = circuit.adjoint_blocks if adjoint else circuit.fused_blocks
    return _apply_blocks(blocks, np.ones(xs.size, dtype=np.complex128), circuit.num_qubits, xs)


def apply_circuit(circuit: Circuit, state: PureState) -> PureState:
    """Run the circuit on a state of the same register size."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit expects {circuit.num_qubits}"
        )
    n = circuit.num_qubits
    # Every qubit carried: a general state has no light cone to follow.
    t = state.amplitudes.reshape((1,) + (2,) * n)
    return PureState(n, _apply_blocks(circuit.fused_blocks, t, n)[:, 0])


def circuit_unitary(circuit: Circuit) -> DenseOperator:
    """Materialize the full unitary; refuses registers above DENSE_LIMIT.

    Its columns are :func:`evolve_basis_columns`'s, bit for bit.
    """
    n = circuit.num_qubits
    check_dense_size(n)
    return DenseOperator(n, evolve_basis_columns(circuit, np.arange(2**n)))
