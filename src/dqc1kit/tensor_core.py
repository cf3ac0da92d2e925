"""Dense multi-qubit linear algebra.

Conventions used across the package:

* qubit 0 is the most-significant bit of every amplitude index, so a state
  on ``n`` qubits reshapes to a ``(2,) * n`` tensor whose axis ``q`` is
  qubit ``q``, and an operator to ``(2,) * 2n`` with the row axes first;
* Schmidt spectra are raw singular values, sorted decreasing;
  normalization is left to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-10
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10


def is_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Max-entry check of M == M†."""
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol)


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Max-entry check of M†M == I."""
    dim = matrix.shape[0]
    delta = matrix.conj().T @ matrix - np.eye(dim)
    return bool(np.max(np.abs(delta)) <= tol)


@dataclass(frozen=True)
class PureState:
    """Amplitude vector over a register of qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector must have length {2**self.num_qubits}, "
                f"got shape {amp.shape}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def tensor(self) -> np.ndarray:
        """View the amplitudes as a (2,)*n tensor; axis q is qubit q."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


def basis_state(num_qubits: int, index: int) -> PureState:
    """Computational basis state |index> with qubit 0 as the MSB."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amp = np.zeros(2**num_qubits, dtype=np.complex128)
    amp[index] = 1.0
    return PureState(num_qubits, amp)


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix acting on a register of qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass(frozen=True)
class Bipartition:
    """An A:B cut of a qubit register, given by the side-A labels.

    Both sides must be nonempty; ``n_a = |side_a|``.
    """

    total_qubits: int
    side_a: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.total_qubits < 2:
            raise ValueError("a bipartition needs at least 2 qubits")
        side = tuple(sorted(set(int(q) for q in self.side_a)))
        if len(side) != len(tuple(self.side_a)):
            raise ValueError("side_a contains duplicate labels")
        if any(q < 0 or q >= self.total_qubits for q in side):
            raise ValueError("side_a labels out of range")
        if not side or len(side) == self.total_qubits:
            raise ValueError("side_a must be a nonempty strict subset")
        object.__setattr__(self, "side_a", side)

    @property
    def side_b(self) -> tuple[int, ...]:
        in_a = set(self.side_a)
        return tuple(q for q in range(self.total_qubits) if q not in in_a)

    @property
    def n_a(self) -> int:
        return len(self.side_a)

    @property
    def n_b(self) -> int:
        return self.total_qubits - self.n_a

    @property
    def dim_a(self) -> int:
        return 2**self.n_a

    @property
    def dim_b(self) -> int:
        return 2**self.n_b

    def flipped(self) -> "Bipartition":
        """The same cut with the side labels exchanged."""
        return Bipartition(self.total_qubits, self.side_b)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Decreasing nonnegative coefficients."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if np.any(coeffs < 0):
            raise ValueError("coefficients must be nonnegative")
        coeffs = np.sort(coeffs)[::-1].copy()
        object.__setattr__(self, "coefficients", coeffs)


def _check_register(name: str, num_qubits: int, cut: Bipartition) -> None:
    if cut.total_qubits != num_qubits:
        raise ValueError(
            f"{name}: cut is over {cut.total_qubits} qubits "
            f"but the register has {num_qubits}"
        )


def schmidt_decompose(state: PureState, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the state reindexed as a dim_a x dim_b matrix."""
    _check_register("schmidt_decompose", state.num_qubits, cut)
    m = state.tensor().transpose(cut.side_a + cut.side_b).reshape(cut.dim_a, cut.dim_b)
    coeffs = np.linalg.svd(m, compute_uv=False)
    return SchmidtSpectrum(coeffs)


def _realign_axes(cut: Bipartition) -> list[int]:
    """Axis order (rA, cA, rB, cB) of an operator tensor with rows first."""
    n = cut.total_qubits
    a = list(cut.side_a)
    b = list(cut.side_b)
    return a + [n + q for q in a] + b + [n + q for q in b]


def realign(matrix: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Reshuffle entry ((rA rB),(cA cB)) to position ((rA cA),(rB cB)).

    The result is a dim_a^2 x dim_b^2 matrix whose singular values are the
    operator Schmidt coefficients of the input across the cut.
    """
    t = np.asarray(matrix, dtype=np.complex128).reshape((2,) * (2 * cut.total_qubits))
    return t.transpose(_realign_axes(cut)).reshape(cut.dim_a**2, cut.dim_b**2)


def unrealign(realigned: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Inverse of :func:`realign`; returns the ordinary 2^n x 2^n matrix."""
    n = cut.total_qubits
    t = np.asarray(realigned, dtype=np.complex128).reshape((2,) * (2 * n))
    return t.transpose(np.argsort(_realign_axes(cut))).reshape(2**n, 2**n)


def operator_schmidt_decompose(op: DenseOperator, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the realigned operator across the cut."""
    _check_register("operator_schmidt_decompose", op.num_qubits, cut)
    coeffs = np.linalg.svd(realign(op.matrix, cut), compute_uv=False)
    return SchmidtSpectrum(coeffs)


def rank_of(spectrum: SchmidtSpectrum, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count coefficients above rel_tol times the largest; 0 if all zero."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    coeffs = spectrum.coefficients
    largest = coeffs[0]
    if largest <= 0:
        return 0
    return int(np.count_nonzero(coeffs > rel_tol * largest))


def fidelity(op_a: DenseOperator, op_b: DenseOperator) -> float:
    """Normalized Hilbert-Schmidt overlap Re Tr(A†B) / (||A|| ||B||)."""
    if op_a.matrix.shape != op_b.matrix.shape:
        raise ValueError("operands must act on the same register")
    norm_a = op_a.frobenius_norm()
    norm_b = op_b.frobenius_norm()
    if norm_a == 0 or norm_b == 0:
        raise ValueError("fidelity is undefined for a zero-norm operand")
    overlap = np.vdot(op_a.matrix, op_b.matrix)
    if is_hermitian(op_a.matrix) and is_hermitian(op_b.matrix):
        # Tr(A†B) is real for a Hermitian pair; anything else is a numerics bug.
        assert abs(overlap.imag) < 1e-10 * norm_a * norm_b
    return float(overlap.real / (norm_a * norm_b))


def apply_two_qubit_gate(
    state: PureState, gate: np.ndarray, targets: tuple[int, int]
) -> PureState:
    """Apply a 4x4 unitary to (q1, q2); q1 is the MSB of the gate index."""
    q1, q2 = int(targets[0]), int(targets[1])
    n = state.num_qubits
    if q1 == q2:
        raise ValueError("targets must be distinct")
    if not (0 <= q1 < n and 0 <= q2 < n):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (4, 4):
        raise ValueError("gate must be a 4x4 matrix")
    if not is_unitary(gate, UNITARY_TOL):
        raise ValueError("gate is not unitary within 1e-10")
    out = np.tensordot(gate.reshape(2, 2, 2, 2), state.tensor(), axes=[(2, 3), (q1, q2)])
    out = np.moveaxis(out, (0, 1), (q1, q2))
    return PureState(n, np.ascontiguousarray(out).reshape(-1))


def truncation_fidelity(spectrum: SchmidtSpectrum, rank: int) -> float:
    """Fidelity between an object and its best rank-``rank`` truncation.

    Equals sqrt(sum of the leading rank squared coefficients / total), a
    direct consequence of the Hilbert-Schmidt overlap of an SVD truncation.
    """
    coeffs = spectrum.coefficients
    if not 1 <= rank <= coeffs.size:
        raise ValueError(f"rank {rank} out of range 1..{coeffs.size}")
    total = float(np.sum(coeffs**2))
    if total == 0:
        raise ValueError("truncation fidelity undefined for a zero spectrum")
    return float(math.sqrt(float(np.sum(coeffs[:rank] ** 2)) / total))
