import math
from itertools import combinations

import numpy as np
import pytest

from dqc1kit import (
    Bipartition,
    Circuit,
    GateSpec,
    DenseOperator,
    Dqc1Config,
    SchmidtSpectrum,
    SeedSpec,
    apply_to_product,
    balanced_window,
    circuit_unitary,
    final_state,
    haar_unitary,
    normalized_trace,
    random_two_qubit_circuit,
    rank_of,
    read_circuit,
    schmidt_decompose,
    simulate_trace_estimation,
    write_circuit,
)
from dqc1kit.dqc1_model import probe_stack, register_columns
from dqc1kit.tensor_core import is_unitary
from dqc1kit.randomness import DENSE_LIMIT

import oracles
from lemmas import qubit_permutation


def identity_config(n: int, tau: float) -> Dqc1Config:
    return Dqc1Config(tau, DenseOperator(n, np.eye(2**n)))


def side_b_reduction(vec: np.ndarray, num_qubits: int, side_a: tuple[int, ...]) -> np.ndarray:
    """Tr_A |v><v| from the oracle's bit-by-bit amplitude split."""
    m = oracles.split_amplitudes(vec, num_qubits, side_a)
    return m.T @ m.conj()


def probe_index(cut: Bipartition, i: int, j: int) -> int:
    """Register index x of the probe |t,i,j> across a joint cut with the top qubit on A."""
    n = cut.total_qubits - 1
    return oracles.register_index(n, tuple(q - 1 for q in cut.side_a[1:]), i, j)


def probe_reduction(config: Dqc1Config, cut: Bipartition, t: int, x: int) -> np.ndarray:
    """B-side reduction of the probe projector; the cut holds the top qubit on A."""
    psi = apply_to_product(config, t, x)
    return side_b_reduction(psi.amplitudes, config.num_register_qubits + 1, cut.side_a)


def test_config_validation():
    with pytest.raises(ValueError):
        identity_config(2, 1.5)
    with pytest.raises(ValueError):
        identity_config(2, -0.1)


def test_final_state_single_qubit_identity():
    rho = final_state(identity_config(1, 1.0))
    want = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    ) / 4
    assert np.allclose(rho.matrix, want, atol=1e-15)


def test_final_state_zero_polarization_is_maximally_mixed():
    u = haar_unitary(3, SeedSpec(30))
    rho = final_state(Dqc1Config(0.0, u))
    assert np.allclose(rho.matrix, np.eye(16) / 16, atol=1e-15)


def test_final_state_is_density_operator():
    for n, tau, seed in [(2, 0.3, 31), (3, 1.0, 32), (4, 0.7, 33)]:
        rho = final_state(Dqc1Config(tau, haar_unitary(n, SeedSpec(seed))))
        mat = rho.matrix
        assert np.abs(mat - mat.conj().T).max() < 1e-12
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_final_state_accepts_circuits_and_respects_limit():
    circuit = random_two_qubit_circuit(3, 6, SeedSpec(34))
    rho = final_state(Dqc1Config(0.5, circuit))
    dense = final_state(Dqc1Config(0.5, circuit_unitary(circuit)))
    assert np.allclose(rho.matrix, dense.matrix, atol=1e-12)
    big = random_two_qubit_circuit(DENSE_LIMIT + 1, 4, SeedSpec(35))
    with pytest.raises(ValueError):
        final_state(Dqc1Config(1.0, big))


def test_apply_to_product_identity_unitary():
    n = 3
    psi = apply_to_product(identity_config(n, 1.0), 0, 0)
    want = np.zeros(2 ** (n + 1))
    want[0] = want[2**n] = 1 / 2 ** (n + 1)
    assert np.allclose(psi.amplitudes, want, atol=1e-15)


def test_apply_to_product_norm_identity():
    for tau in (0.0, 0.4, 1.0):
        for t in (0, 1):
            config = Dqc1Config(tau, haar_unitary(4, SeedSpec(36)))
            psi = apply_to_product(config, t, probe_index(Bipartition(5, (0, 2, 3)), 2, 1))
            norm = np.linalg.norm(psi.amplitudes)
            assert norm**2 == pytest.approx((1 + tau**2) / 4**5, rel=1e-12)


def test_apply_to_product_matches_dense_state():
    # rho|t,i,j> assembled from the dense joint state, both unitary sources.
    n = 4
    circuit = random_two_qubit_circuit(n, 8, SeedSpec(37))
    for unitary in (circuit, circuit_unitary(circuit)):
        config = Dqc1Config(0.8, unitary)
        rho = final_state(config).matrix
        for t, i, j in [(0, 0, 0), (0, 1, 5), (1, 0, 3), (1, 1, 7)]:
            x = oracles.register_index(n, (1,), i, j)  # joint cut (0, 2)
            psi = apply_to_product(config, t, x)
            assert np.allclose(psi.amplitudes, rho[:, t * 2**n + x], atol=1e-12)


def test_apply_to_product_index_out_of_range():
    config = identity_config(3, 1.0)
    for t, x in [(2, 0), (-1, 0), (0, 8), (1, -1)]:
        with pytest.raises(ValueError):
            apply_to_product(config, t, x)


@pytest.mark.parametrize("kind", ["circuit", "lazy", "dense"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_register_columns_refuses_indices_outside_the_register_for_every_kind(kind, adjoint):
    n = 3
    unitary = {
        "circuit": random_two_qubit_circuit(n, 4, SeedSpec(5)),
        "lazy": haar_unitary(n, SeedSpec(5)),
        "dense": DenseOperator(n, np.eye(2**n)),
    }[kind]
    # Past the int64 range an index used to raise OverflowError in the intp conversion.
    for xs in ([-1], [2**n], [0, 2**n - 1, 2**n], [2**70], [-2**70], [2**63], [np.uint64(2**63)],
               [-2**63], [-2**63 - 1], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"basis indices must lie in 0\.\.7"):
            register_columns(unitary, xs, adjoint)
    assert register_columns(unitary, [0, 2**n - 1], adjoint).shape == (2**n, 2)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_probe_spectrum_matches_dense_probe(n):
    # The nonzero-row spectrum of every in-window register cut, padded with
    # zeros, against the SVD of the whole 2^{n+1}-entry probe vector across
    # the joint cut, for Haar and circuit U.
    low, high = balanced_window(n)
    cuts = [
        Bipartition(n, combo)
        for a in range(1, n)
        if low <= min(a, n - a) <= high
        for combo in combinations(range(n), a)
    ]
    rng = np.random.default_rng(n)
    for unitary in (haar_unitary(n, SeedSpec(60 + n)),
                    random_two_qubit_circuit(n, 4 * n, SeedSpec(70 + n))):
        for tau in (1.0, 0.6, 0.0):
            config = Dqc1Config(tau, unitary)
            for cut in cuts:
                joint = Bipartition(n + 1, (0,) + tuple(q + 1 for q in cut.side_a))
                for t in (0, 1):
                    i, j = int(rng.integers(cut.dim_a)), int(rng.integers(cut.dim_b))
                    x = oracles.register_index(n, cut.side_a, i, j)
                    column = register_columns(unitary, [x], bool(t))[:, 0]
                    rows = np.full((1, cut.dim_a + 1, cut.dim_b), np.nan, dtype=complex)
                    probe = (0, cut.side_a + cut.side_b, j)
                    assert probe_stack(tau, column[:, np.newaxis], [probe], rows) is rows
                    width = min(2 * cut.dim_a, cut.dim_b)
                    sing = np.linalg.svd(rows[0], compute_uv=False)
                    got = SchmidtSpectrum(np.pad(sing, (0, width - sing.size)))
                    want = schmidt_decompose(apply_to_product(config, t, x), joint)
                    assert got.coefficients.shape == want.coefficients.shape
                    scale = want.coefficients[0]
                    assert np.max(np.abs(got.coefficients - want.coefficients)) <= 1e-12 * scale
                    assert rank_of(got) == rank_of(want)


def test_probe_reduction_identity_unitary_rank_two():
    config = identity_config(3, 1.0)
    cut = Bipartition(4, (0, 1))
    sigma = probe_reduction(config, cut, 0, probe_index(cut, 1, 0))
    eigs = np.linalg.eigvalsh(sigma)
    assert np.sum(eigs > 1e-12 * eigs.max()) <= 2


def test_probe_reduction_block_identity():
    # Tr_A |psi><psi| = (|j><j| + tau^2 Q) / 4^{n+1} for t = 0, any tau.
    n = 5
    tau = 0.6
    u = haar_unitary(n, SeedSpec(38))
    config = Dqc1Config(tau, u)
    cut = Bipartition(n + 1, (0, 1, 2))
    i, j = 2, 5
    column = (i << 3) | j  # side-A register labels {1,2}, side-B {3,4,5}
    psi = apply_to_product(config, 0, column).amplitudes
    sigma = oracles.partial_trace_entrywise(np.outer(psi, psi.conj()), n + 1, cut.side_a)
    # independent Q: evolve the basis column and trace out side A by hand
    phi = u.matrix[:, column].reshape(4, 8)
    q = phi.T @ phi.conj()
    want = np.zeros((8, 8), dtype=complex)
    want[j, j] = 1.0
    want = (want + tau**2 * q) / 4 ** (n + 1)
    assert np.allclose(sigma, want, atol=1e-14)
    assert np.trace(sigma).real == pytest.approx((1 + tau**2) / 4 ** (n + 1), rel=1e-12)


def test_probe_reduction_spectrum_matches_flipped_side():
    config = Dqc1Config(1.0, haar_unitary(4, SeedSpec(39)))
    cut = Bipartition(5, (0, 1))
    x = probe_index(cut, 1, 2)
    psi = apply_to_product(config, 0, x)
    coeffs = schmidt_decompose(psi, cut).coefficients
    sigma_spectrum = np.sort(np.linalg.eigvalsh(probe_reduction(config, cut, 0, x)))[::-1]
    head = coeffs.size
    assert np.allclose(coeffs**2, sigma_spectrum[:head], atol=1e-12)
    assert np.allclose(sigma_spectrum[head:], 0.0, atol=1e-14)


def test_probe_reduction_haar_min_side_rank():
    # 2 register qubits on side A: rank is d_A + 1 = 5 >= d_A.
    config = Dqc1Config(1.0, haar_unitary(8, SeedSpec(40)))
    sigma = probe_reduction(config, Bipartition(9, (0, 1, 2)), 0, 0)
    eigs = np.linalg.eigvalsh(sigma)
    rank = int(np.sum(eigs > 1e-10 * eigs.max()))
    assert rank >= 4


def test_evolved_basis_reduction_identity():
    column = register_columns(DenseOperator(3, np.eye(8)), [0b110], False)  # i = 1, j = 2
    q = side_b_reduction(column[:, 0], 3, (0,))
    want = np.zeros((4, 4))
    want[2, 2] = 1.0
    assert np.allclose(q, want, atol=1e-15)


def test_evolved_basis_reduction_properties():
    # Tr_A[W|x><x|W-dagger] over the register: PSD, trace 1, rank <= d_A,
    # the same for a circuit and its dense unitary, and for W = U-dagger.
    u = haar_unitary(5, SeedSpec(41))
    side_a = (0, 3)
    x = 0b01010  # i = 1 on register qubits {0, 3}, j = 4 on {1, 2, 4}

    def reduction(unitary, adjoint=False):
        return side_b_reduction(register_columns(unitary, [x], adjoint)[:, 0], 5, side_a)

    q = reduction(u)
    eigs = np.linalg.eigvalsh(q)
    assert eigs.min() > -1e-12
    assert np.sum(eigs).real == pytest.approx(1.0, abs=1e-12)
    assert np.sum(eigs > 1e-10) <= 2 ** len(side_a)
    circuit = random_two_qubit_circuit(5, 10, SeedSpec(42))
    assert np.allclose(reduction(circuit), reduction(circuit_unitary(circuit)), atol=1e-12)
    adj_dense = reduction(DenseOperator(5, u.matrix.conj().T))
    assert np.allclose(reduction(u, adjoint=True), adj_dense, atol=1e-12)
    assert np.allclose(
        reduction(circuit, adjoint=True),
        reduction(DenseOperator(5, circuit_unitary(circuit).matrix.conj().T)),
        atol=1e-12,
    )


def test_probe_reduction_permutation_covariance():
    # relabeling the register and the cut together leaves spectra alone
    n = 4
    u = haar_unitary(n, SeedSpec(43))
    perm = (2, 0, 3, 1)  # register-level relabeling
    u_perm = DenseOperator(n, qubit_permutation(u.matrix, perm))
    cut = Bipartition(n + 1, (0, 1, 3))  # register labels {1,3} on side A
    permuted_side = (0,) + tuple(sorted(perm[q - 1] + 1 for q in cut.side_a if q))

    spec = np.linalg.eigvalsh(probe_reduction(Dqc1Config(1.0, u), cut, 0, 0))
    spec_perm = np.linalg.eigvalsh(
        probe_reduction(Dqc1Config(1.0, u_perm), Bipartition(n + 1, permuted_side), 0, 0)
    )
    assert np.allclose(np.sort(spec), np.sort(spec_perm), atol=1e-10)


def test_normalized_trace_cases():
    assert normalized_trace(DenseOperator(3, np.eye(8))) == pytest.approx(1.0)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xxx = DenseOperator(3, np.kron(np.kron(x, x), x))
    assert abs(normalized_trace(xxx)) < 1e-15
    rng = np.random.default_rng(44)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
    diag = DenseOperator(4, np.diag(phases))
    assert normalized_trace(diag) == pytest.approx(np.mean(phases), abs=1e-12)


def test_normalized_trace_dense_and_streamed_agree():
    # n = 10 streams the diagonal over 16 blocks of columns; both kinds of
    # unitary take that path and match np.trace bit for bit
    for n in (6, 10):
        circuit = random_two_qubit_circuit(n, 2 * n, SeedSpec(45))
        dense = circuit_unitary(circuit)
        want = complex(np.trace(dense.matrix) / 2**n)
        assert normalized_trace(circuit) == want
        assert normalized_trace(dense) == want


def test_trace_of_near_unitary_circuit_file_agrees_dense_and_streamed(tmp_path):
    gate = haar_unitary(2, SeedSpec(45)).matrix.copy()
    gate[1, 2] += 5e-10  # unitary within the 1e-8 file tolerance, not within 1e-10
    assert not is_unitary(gate, 1e-10)
    gates = (GateSpec((0, 3), gate),) + random_two_qubit_circuit(5, 10, SeedSpec(46)).gates
    path = tmp_path / "near.txt"
    write_circuit(path, Circuit(5, gates))
    circuit = read_circuit(path, 5)
    assert normalized_trace(circuit) == normalized_trace(circuit_unitary(circuit))


def test_trace_estimation_identity_is_exact():
    est = simulate_trace_estimation(identity_config(3, 1.0), 10**6, SeedSpec(46))
    assert est.estimate.real == pytest.approx(1.0, abs=1e-12)
    assert est.std_error_real == 0.0


def test_trace_estimation_tracks_exact_value():
    u = haar_unitary(4, SeedSpec(47))
    config = Dqc1Config(0.8, u)
    exact = normalized_trace(u)
    est = simulate_trace_estimation(config, 10**5, SeedSpec(48))
    limit = 4 / np.sqrt(10**5) / 0.8
    assert abs(est.estimate.real - exact.real) < limit
    assert abs(est.estimate.imag - exact.imag) < limit
    assert math.hypot(est.std_error_real, est.std_error_imag) > 0
    assert est.exact == exact


def test_trace_estimation_rejects_zero_polarization():
    with pytest.raises(ValueError):
        simulate_trace_estimation(identity_config(2, 0.0), 100, SeedSpec(49))
    with pytest.raises(ValueError):
        simulate_trace_estimation(identity_config(2, 1.0), 0, SeedSpec(49))
    with pytest.raises(ValueError, match=r"shots must lie in \[1, 2\^63 - 1\]"):
        simulate_trace_estimation(identity_config(2, 1.0), 2**63, SeedSpec(49))
