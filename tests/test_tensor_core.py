import numpy as np
import pytest

from dqc1kit import (
    Bipartition,
    DenseOperator,
    PureState,
    SchmidtSpectrum,
    apply_two_qubit_gate,
    basis_state,
    fidelity,
    operator_schmidt_decompose,
    rank_of,
    realign,
    schmidt_decompose,
    truncation_fidelity,
    unrealign,
)
from hypothesis import given, settings, strategies as st

import oracles
from lemmas import majorizes, qubit_permutation

INV_SQRT2 = 0.7071067811865476


def random_state(num_qubits: int, seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.zeros(3))
    with pytest.raises(ValueError):
        PureState(0, np.zeros(1))


def test_bipartition_properties_and_validation():
    cut = Bipartition(5, (3, 0))
    assert cut.side_a == (0, 3)
    assert cut.side_b == (1, 2, 4)
    assert (cut.n_a, cut.n_b) == (2, 3)
    assert (cut.dim_a, cut.dim_b) == (4, 8)
    assert cut.flipped().side_a == (1, 2, 4)
    with pytest.raises(ValueError):
        Bipartition(3, ())
    with pytest.raises(ValueError):
        Bipartition(3, (0, 1, 2))
    with pytest.raises(ValueError):
        Bipartition(3, (0, 3))
    with pytest.raises(ValueError):
        Bipartition(3, (0, 0))


def test_schmidt_product_state_rank_one():
    spectrum = schmidt_decompose(basis_state(2, 0), Bipartition(2, (0,)))
    assert np.allclose(spectrum.coefficients, [1.0, 0.0])
    assert rank_of(spectrum) == 1


def test_schmidt_bell_state():
    bell = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    spectrum = schmidt_decompose(bell, Bipartition(2, (0,)))
    assert spectrum.coefficients[0] == pytest.approx(INV_SQRT2, abs=1e-12)
    assert spectrum.coefficients[1] == pytest.approx(INV_SQRT2, abs=1e-12)
    assert rank_of(spectrum) == 2


def test_schmidt_against_reduced_gram_oracle():
    for seed in range(6):
        n = 3 + seed % 3
        state = random_state(n, seed)
        side_a = tuple(range(0, n, 2))[: max(1, n // 2)]
        cut = Bipartition(n, side_a)
        got = schmidt_decompose(state, cut).coefficients
        want = oracles.schmidt_coefficients(state.amplitudes, n, side_a)
        assert np.allclose(got[: want.size], want, atol=1e-10)


def test_schmidt_squares_sum_to_norm():
    for seed in range(5):
        state = random_state(5, 10 + seed)
        for side_a in [(0,), (1, 3), (0, 2, 4)]:
            spectrum = schmidt_decompose(state, Bipartition(5, side_a))
            assert np.sum(spectrum.coefficients**2) == pytest.approx(1.0, abs=1e-10)
            assert rank_of(spectrum) <= min(2 ** len(side_a), 2 ** (5 - len(side_a)))


def test_schmidt_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt_decompose(basis_state(3, 0), Bipartition(2, (0,)))


def test_rank_of_cases():
    assert rank_of(SchmidtSpectrum(np.array([1.0]))) == 1
    assert rank_of(SchmidtSpectrum(np.array([0.8, 0.6, 1e-14]))) == 2
    assert rank_of(SchmidtSpectrum(np.array([0.0, 0.0]))) == 0
    with pytest.raises(ValueError):
        rank_of(SchmidtSpectrum(np.array([1.0])), rel_tol=0.0)
    with pytest.raises(ValueError):
        rank_of(SchmidtSpectrum(np.array([1.0])), rel_tol=1.0)


def test_operator_schmidt_identity_rank_one():
    op = DenseOperator(2, np.eye(4) / 4)
    assert rank_of(operator_schmidt_decompose(op, Bipartition(2, (0,)))) == 1


def test_operator_schmidt_bell_projector_rank_four():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    op = DenseOperator(2, np.outer(bell, bell))
    assert rank_of(operator_schmidt_decompose(op, Bipartition(2, (0,)))) == 4


def test_operator_schmidt_cnot():
    cnot = np.eye(4)
    cnot[[2, 3]] = cnot[[3, 2]]
    spectrum = operator_schmidt_decompose(DenseOperator(2, cnot), Bipartition(2, (0,)))
    assert np.allclose(spectrum.coefficients, [np.sqrt(2), np.sqrt(2), 0.0, 0.0], atol=1e-12)
    assert rank_of(spectrum) == 2


def test_realign_matches_entrywise_oracle():
    rng = np.random.default_rng(4)
    n = 3
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for side_a in [(0,), (1,), (0, 2)]:
        cut = Bipartition(n, side_a)
        got = realign(mat, cut)
        want = oracles.realign_entrywise(mat, n, side_a)
        assert np.allclose(got, want, atol=1e-14)
        assert np.allclose(unrealign(got, cut), mat, atol=1e-14)


def test_operator_schmidt_squares_sum_to_frobenius():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = DenseOperator(4, mat)
    spectrum = operator_schmidt_decompose(op, Bipartition(4, (0, 3)))
    assert np.sum(spectrum.coefficients**2) == pytest.approx(
        op.frobenius_norm() ** 2, rel=1e-12
    )


# The partial-trace checks pin the entrywise oracle that the probe
# reduction tests in test_dqc1_model.py take their reductions from.
def test_partial_trace_bell_is_maximally_mixed():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    reduced = oracles.partial_trace_entrywise(np.outer(bell, bell), 2, (0,))
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_operator():
    rng = np.random.default_rng(6)
    sigma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    reduced = oracles.partial_trace_entrywise(np.kron(np.diag([1.0, 0.0]), sigma), 3, (1, 2))
    assert np.allclose(reduced, np.diag([1.0, 0.0]) * np.trace(sigma), atol=1e-12)


def test_partial_trace_sides_share_spectrum():
    state = random_state(6, 7)
    proj = np.outer(state.amplitudes, state.amplitudes.conj())
    spec_b = np.linalg.eigvalsh(oracles.partial_trace_entrywise(proj, 6, (0, 1, 2)))
    spec_a = np.linalg.eigvalsh(oracles.partial_trace_entrywise(proj, 6, (3, 4, 5)))
    assert np.allclose(np.sort(spec_a)[::-1], np.sort(spec_b)[::-1], atol=1e-10)


def test_partial_trace_iterated_equals_combined():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    combined = oracles.partial_trace_entrywise(mat, 4, (1, 3))
    stepwise = oracles.partial_trace_entrywise(
        oracles.partial_trace_entrywise(mat, 4, (3,)), 3, (1,)
    )
    assert np.allclose(combined, stepwise, atol=1e-12)
    assert np.trace(combined) == pytest.approx(np.trace(mat), abs=1e-12)


def test_partial_trace_matches_entrywise_oracle():
    # the two oracle routes to a pure state's reduction agree
    state = random_state(4, 9)
    m = oracles.split_amplitudes(state.amplitudes, 4, (0, 2))
    proj = np.outer(state.amplitudes, state.amplitudes.conj())
    want = oracles.partial_trace_entrywise(proj, 4, (0, 2))
    assert np.allclose(m.T @ m.conj(), want, atol=1e-12)


def test_fidelity_self_and_projectors():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = DenseOperator(3, mat + mat.conj().T)
    assert fidelity(op, op) == pytest.approx(1.0, abs=1e-12)
    zero = DenseOperator(1, np.diag([1.0, 0.0]))
    plus = DenseOperator(1, np.full((2, 2), 0.5))
    assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(plus, zero) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_bounds_and_errors():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert fidelity(DenseOperator(2, a), DenseOperator(2, b)) <= 1 + 1e-12
    with pytest.raises(ValueError):
        fidelity(DenseOperator(2, np.zeros((4, 4))), DenseOperator(2, b))
    with pytest.raises(ValueError):
        fidelity(DenseOperator(1, np.eye(2)), DenseOperator(2, b))


def test_truncation_fidelity_matches_reconstruction():
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = DenseOperator(4, mat + mat.conj().T)
    cut = Bipartition(4, (0, 1))
    spectrum = operator_schmidt_decompose(op, cut)
    u, s, vt = np.linalg.svd(realign(op.matrix, cut))
    for r in (1, 3, 7):
        approx = unrealign((u[:, :r] * s[:r]) @ vt[:r], cut)
        direct = fidelity(op, DenseOperator(4, approx))
        assert truncation_fidelity(spectrum, r) == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError):
        truncation_fidelity(spectrum, 0)


def test_majorizes_cases():
    point = np.array([1.0, 0.0])
    flat = np.array([0.5, 0.5])
    assert majorizes(point, flat)
    assert not majorizes(flat, point)
    assert majorizes(flat, flat)
    p = np.array([0.7, 0.3])
    q = np.array([0.6, 0.4])
    assert not majorizes(q, p)


def test_qubit_permutation_identity_and_swap():
    op = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |01><01|
    unchanged = qubit_permutation(op, (0, 1))
    assert np.allclose(unchanged, op)
    swapped = qubit_permutation(op, (1, 0))
    assert np.allclose(swapped, np.diag([0.0, 0.0, 1.0, 0.0]))  # |10><10|


def test_qubit_permutation_preserves_spectra():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = DenseOperator(4, mat)
    perm = (2, 0, 3, 1)
    permuted = DenseOperator(4, qubit_permutation(mat, perm))
    assert np.allclose(
        np.sort(np.linalg.svd(op.matrix, compute_uv=False)),
        np.sort(np.linalg.svd(permuted.matrix, compute_uv=False)),
        atol=1e-12,
    )
    # cut {0,1} maps to {perm[0], perm[1]} = {2, 0}
    before = operator_schmidt_decompose(op, Bipartition(4, (0, 1))).coefficients
    after = operator_schmidt_decompose(permuted, Bipartition(4, (0, 2))).coefficients
    assert np.allclose(before, after, atol=1e-10)


def test_apply_two_qubit_gate_basics():
    state = basis_state(2, 0b01)
    unchanged = apply_two_qubit_gate(state, np.eye(4), (0, 1))
    assert np.allclose(unchanged.amplitudes, state.amplitudes)
    swap = np.eye(4)[[0, 2, 1, 3]]
    swapped = apply_two_qubit_gate(state, swap, (0, 1))
    assert np.allclose(swapped.amplitudes, basis_state(2, 0b10).amplitudes)
    with pytest.raises(ValueError):
        apply_two_qubit_gate(state, np.eye(4), (0, 0))
    with pytest.raises(ValueError):
        apply_two_qubit_gate(state, np.ones((4, 4)), (0, 1))


def test_apply_two_qubit_gate_matches_embedding_oracle():
    rng = np.random.default_rng(14)
    for seed, targets in [(0, (1, 3)), (1, (3, 1)), (2, (0, 4)), (3, (4, 2))]:
        g = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )[0]
        state = random_state(5, 20 + seed)
        got = apply_two_qubit_gate(state, g, targets).amplitudes
        want = oracles.embed_gate(g, targets, 5) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-10)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


@st.composite
def operators_on_cuts(draw):
    """A random operator on 2-4 qubits, generic, Hermitian or a product, and a cut."""
    n = draw(st.integers(2, 4))
    side_a = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))
    kind = draw(st.sampled_from(["generic", "hermitian", "product"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(dim: int) -> np.ndarray:
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    if kind == "product":
        mat = np.ones((1, 1))
        for _ in range(n):
            mat = np.kron(mat, gaussian(2))
    else:
        mat = gaussian(2**n)
        if kind == "hermitian":
            mat = mat + mat.conj().T
    return n, side_a, mat


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)


@PROPERTY_SETTINGS
@given(operators_on_cuts())
def test_realign_and_unrealign_match_entrywise_oracle_property(case):
    n, side_a, mat = case
    cut = Bipartition(n, side_a)
    got = realign(mat, cut)
    # realignment only moves entries, so both directions are exact
    assert np.array_equal(got, oracles.realign_entrywise(mat, n, side_a))
    assert np.array_equal(unrealign(got, cut), mat)


@PROPERTY_SETTINGS
@given(operators_on_cuts())
def test_truncation_fidelity_matches_svd_reconstruction_property(case):
    n, side_a, mat = case
    spectrum = operator_schmidt_decompose(DenseOperator(n, mat), Bipartition(n, side_a))
    realigned = oracles.realign_entrywise(mat, n, side_a)
    u, s, vh = np.linalg.svd(realigned)
    for r in range(1, s.size + 1):
        truncated = (u[:, :r] * s[:r]) @ vh[:r]
        overlap = np.vdot(realigned, truncated).real
        direct = overlap / (np.linalg.norm(realigned) * np.linalg.norm(truncated))
        assert truncation_fidelity(spectrum, r) == pytest.approx(direct, abs=1e-12)
