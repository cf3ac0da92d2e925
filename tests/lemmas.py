"""The paper's proof lemmas as plain-array helpers for the tests.

Majorization of reduction spectra and the extremal shifted distribution
are steps in the paper's proofs; the toolkit never computes them, so they
live here with the tests that check them.  Probability vectors are plain
1-d arrays and operators plain square matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dqc1kit import SeedSpec, haar_unitary


def majorizes(q: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff p is majorized by q (every partial sum of p <= q's + tol)."""
    q_partial = np.cumsum(np.sort(q)[::-1])
    p_partial = np.cumsum(np.sort(p)[::-1])
    if abs(q_partial[-1] - p_partial[-1]) > tol:
        return False
    return bool(np.all(p_partial <= q_partial + tol))


def qubit_permutation(matrix: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Relabel qubits of a 2^n x 2^n matrix: qubit q becomes qubit perm[q]."""
    n = len(perm)
    inverse = np.argsort(perm)
    axes = list(inverse) + [n + int(i) for i in inverse]
    return matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def shifted_distribution(shifts: np.ndarray) -> np.ndarray:
    """The vector (1/2 + (1+s_1)/(2d), (1+s_2)/(2d), ...) for zero-sum s."""
    d = shifts.size
    entries = (1.0 + shifts) / (2 * d)
    entries[0] += 0.5
    return entries


def majorant_distribution(delta: float, d: int) -> np.ndarray:
    """The extremal shifted distribution: +delta on the first half, -delta after.

    Majorizes shifted_distribution(s) for every zero-sum s with
    |s_i| <= delta.
    """
    return shifted_distribution(
        np.concatenate([np.full(d // 2, delta), np.full(d // 2, -delta)])
    )


def random_zero_sum_shifts(delta: float, d: int, seed: SeedSpec) -> np.ndarray:
    """Uniform draws in [-delta, delta], centered and rescaled to stay inside."""
    shifts = seed.generator().uniform(-delta, delta, size=d)
    shifts -= shifts.mean()
    peak = float(np.max(np.abs(shifts)))
    if peak > delta:
        shifts *= delta / peak
    return shifts


def random_density_matrix(num_qubits: int, seed: SeedSpec) -> np.ndarray:
    """Haar eigenbasis with a flat-Dirichlet spectrum; Hermitian, trace 1."""
    basis = haar_unitary(num_qubits, seed.child(0)).matrix
    weights = seed.child(1).generator().dirichlet(np.ones(2**num_qubits))
    return (basis * weights) @ basis.conj().T
