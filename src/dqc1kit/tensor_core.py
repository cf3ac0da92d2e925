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
from typing import Optional

import numpy as np

DEFAULT_RANK_TOL = 1e-10
# The one unitarity tolerance: gates, CMAT unitaries and the two-qubit gate
# kernel are all checked against it, and circuit files document it.
UNITARY_TOL = 1e-8
HERMITIAN_TOL = 1e-10

# singular_values reduces a matrix to its square R factor before the SVD when
# the long side is at least QR_MIN_ASPECT times the short side and the matrix
# holds at least QR_MIN_ENTRIES entries (Chan, ACM TOMS 8, 72 (1982)).
# ms per call, plain SVD -> QR first, complex128, one OpenBLAS thread, numpy
# 2.4.6 on 2 vCPUs; wide | tall orientation:
#   aspect 1:  64x64 0.53 -> 0.68;  129x129 2.41 -> 3.15
#   aspect 2:  32x64 0.23 -> 0.21 | 0.21 -> 0.21;  64x128 1.05 -> 0.92 | 1.00 -> 0.94
#   aspect 3:  32x96 0.38 -> 0.28 | 0.27 -> 0.26;  64x192 1.56 -> 1.11 | 1.30 -> 1.14
#   4x256 (1024 entries): 0.033 -> 0.028 | 0.027 -> 0.032
#   16x64 (1024 entries): 0.091 -> 0.084 | 0.069 -> 0.082
#   9x144 (1296 entries): 0.078 -> 0.059 | 0.055 -> 0.060
#   8x256 (2048 entries): 0.100 -> 0.058 | 0.069 -> 0.060
#   17x136 (2312 entries): 0.18 -> 0.12 | 0.13 -> 0.11
#   9x2048: 1.13 -> 0.20;  2049x8: 0.62 -> 0.20;  65x256: 1.88 -> 1.46
#   257x64: 1.62 -> 1.45;  64x1024: 6.9 -> 4.0;  4096x16: 2.8 -> 1.4
QR_MIN_ASPECT = 3
QR_MIN_ENTRIES = 2048


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

    def matricize(self, vector: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The 2^n entries as a dim_a x dim_b matrix; the one map x -> (i, j).

        Row i reads the side-A bits of x and column j its side-B bits, each
        side's labels ascending with the first the most significant.  With
        ``out``, a C-contiguous dim_a x dim_b array, the entries are written
        there in one strided copy and ``out`` is returned.  Any other entry
        count is refused, naming both counts.
        """
        vector = np.asarray(vector)
        n = self.total_qubits
        if vector.size != 2**n:
            raise ValueError(f"a cut over {n} qubits needs {2**n} entries, got {vector.size}")
        t = vector.reshape((2,) * n).transpose(self.side_a + self.side_b)
        if out is None:
            return t.reshape(self.dim_a, self.dim_b)
        if out.shape != (self.dim_a, self.dim_b) or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {self.dim_a} x {self.dim_b} array")
        out.reshape(t.shape)[...] = t
        return out

    def basis_index(self, i: int, j: int) -> int:
        """The basis index x that :meth:`matricize` puts at (i, j)."""
        if not (0 <= i < self.dim_a and 0 <= j < self.dim_b):
            raise ValueError(f"({i}, {j}) out of range for cut {self.side_a}")
        x = 0
        for value, side in ((i, self.side_a), (j, self.side_b)):
            for k, q in enumerate(reversed(side)):
                x |= ((value >> k) & 1) << (self.total_qubits - 1 - q)
        return x


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


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of an m x n matrix, or of each in a (k, m, n) stack, decreasing.

    Every SVD of the package.  Past the QR_MIN_ASPECT / QR_MIN_ENTRIES
    crossover (entries per matrix) each matrix is turned tall and replaced
    by its square R factor, which has the same singular values; any other
    matrix goes to the SVD as it is.  A stack gives, row by row, the bits
    of the per-matrix calls: LAPACK runs on each matrix of it in turn.
    """
    rows, cols = matrix.shape[-2:]
    short, long = sorted((rows, cols))
    if long >= QR_MIN_ASPECT * short and rows * cols >= QR_MIN_ENTRIES:
        tall = matrix if rows == long else matrix.swapaxes(-1, -2)
        matrix = np.linalg.qr(tall, mode="r")
    return np.linalg.svd(matrix, compute_uv=False)


def schmidt_decompose(state: PureState, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the state reindexed as a dim_a x dim_b matrix."""
    return SchmidtSpectrum(singular_values(cut.matricize(state.amplitudes)))


def _doubled(cut: Bipartition) -> Bipartition:
    """The cut over an operator's 2n row and column labels, row labels first."""
    n = cut.total_qubits
    return Bipartition(2 * n, cut.side_a + tuple(n + q for q in cut.side_a))


def realign(matrix: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Reshuffle entry ((rA rB),(cA cB)) to position ((rA cA),(rB cB)).

    The result is a dim_a^2 x dim_b^2 matrix whose singular values are the
    operator Schmidt coefficients of the input across the cut.
    """
    return _doubled(cut).matricize(np.asarray(matrix, dtype=np.complex128))


def unrealign(realigned: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Inverse of :func:`realign`; returns the ordinary 2^n x 2^n matrix."""
    doubled = _doubled(cut)
    t = np.asarray(realigned, dtype=np.complex128).reshape((2,) * doubled.total_qubits)
    dim = 2**cut.total_qubits
    return t.transpose(np.argsort(doubled.side_a + doubled.side_b)).reshape(dim, dim)


def operator_schmidt_decompose(op: DenseOperator, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the realigned operator across the cut."""
    return SchmidtSpectrum(singular_values(realign(op.matrix, cut)))


def rank_of(spectrum: SchmidtSpectrum, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count coefficients above rel_tol times the largest; 0 if all zero."""
    return int(stacked_ranks(spectrum.coefficients[np.newaxis], rel_tol)[0])


def stacked_ranks(coefficients: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """:func:`rank_of` of each row of a (k, s) stack of decreasing coefficients."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    largest = coefficients[:, :1]
    counts = np.count_nonzero(coefficients > rel_tol * largest, axis=1)
    return np.where(largest[:, 0] > 0, counts, 0)


def fidelity(op_a: DenseOperator, op_b: DenseOperator) -> float:
    """Normalized Hilbert-Schmidt overlap Re Tr(A†B) / (||A|| ||B||)."""
    if op_a.matrix.shape != op_b.matrix.shape:
        raise ValueError("operands must act on the same register")
    norm_a = float(np.linalg.norm(op_a.matrix))
    norm_b = float(np.linalg.norm(op_b.matrix))
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
    if not is_unitary(gate):
        raise ValueError(f"gate is not unitary within {UNITARY_TOL}")
    psi = state.amplitudes.reshape((2,) * n)  # axis q is qubit q
    out = np.tensordot(gate.reshape(2, 2, 2, 2), psi, axes=[(2, 3), (q1, q2)])
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
