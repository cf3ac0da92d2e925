from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from dqc1kit import (
    Circuit,
    GateSpec,
    PureState,
    SeedSpec,
    apply_circuit,
    basis_state,
    circuit_unitary,
    evolve_columns,
    haar_unitary,
    random_two_qubit_circuit,
)
from dqc1kit.randomness import DENSE_LIMIT, _mix64, plan_blocks

import oracles
from lemmas import random_density_matrix


def test_seed_spec_validation_and_children():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    parent = SeedSpec(42)
    kids = [parent.child(k) for k in range(4)]
    assert len({k.stream_id for k in kids}) == 4
    assert all(k.master_seed == 42 for k in kids)
    assert parent.child(2) == parent.child(2)
    with pytest.raises(ValueError):
        parent.child(-1)


def test_mix64_is_bijective_on_samples():
    values = [_mix64(v) for v in range(1000)]
    assert len(set(values)) == 1000
    assert all(0 <= v < 2**64 for v in values)


def test_child_streams_decorrelated():
    a = SeedSpec(7).child(0).generator().standard_normal(8)
    b = SeedSpec(7).child(1).generator().standard_normal(8)
    assert not np.allclose(a, b)


def test_haar_unitary_is_unitary_and_deterministic():
    u = haar_unitary(3, SeedSpec(5))
    dev = np.abs(u.matrix.conj().T @ u.matrix - np.eye(8)).max()
    assert dev < 1e-12
    again = haar_unitary(3, SeedSpec(5))
    assert np.array_equal(u.matrix, again.matrix)
    assert not np.allclose(u.matrix, haar_unitary(3, SeedSpec(6)).matrix)
    with pytest.raises(ValueError):
        haar_unitary(0, SeedSpec(1))


def test_haar_eigenphases_uniform_chi_square():
    phases = []
    for k in range(1000):
        u = haar_unitary(1, SeedSpec(101).child(k))
        phases.extend(np.angle(np.linalg.eigvals(u.matrix)))
    hist, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
    assert stats.chisquare(hist).pvalue > 0.01


def test_haar_entry_second_moment():
    vals = [
        abs(haar_unitary(2, SeedSpec(202).child(k)).matrix[0, 0]) ** 2
        for k in range(2000)
    ]
    assert abs(np.mean(vals) - 0.25) < 0.02


def test_haar_reduction_spectrum_basis_independent():
    # Two-sample KS on reduced spectra of columns 0 and 37 (dims 4 x 16).
    def spectra(basis_index: int) -> np.ndarray:
        out = []
        for k in range(500):
            u = haar_unitary(6, SeedSpec(404).child(k))
            col = u.matrix[:, basis_index].reshape(4, 16)
            out.extend(np.linalg.svd(col, compute_uv=False) ** 2)
        return np.asarray(out)

    assert stats.ks_2samp(spectra(0), spectra(37)).pvalue > 0.01


def test_random_circuit_shape_and_determinism():
    circuit = random_two_qubit_circuit(10, 20, SeedSpec(9))
    assert circuit.num_qubits == 10 and len(circuit) == 20
    again = random_two_qubit_circuit(10, 20, SeedSpec(9))
    assert all(
        g1.targets == g2.targets and np.array_equal(g1.matrix, g2.matrix)
        for g1, g2 in zip(circuit.gates, again.gates)
    )
    with pytest.raises(ValueError):
        random_two_qubit_circuit(1, 5, SeedSpec(1))
    with pytest.raises(ValueError):
        random_two_qubit_circuit(4, 0, SeedSpec(1))


def test_random_circuit_pair_histogram_uniform():
    circuit = random_two_qubit_circuit(4, 10000, SeedSpec(303))
    counts: dict[tuple[int, int], int] = {}
    for gate in circuit.gates:
        assert gate.targets[0] < gate.targets[1]
        counts[gate.targets] = counts.get(gate.targets, 0) + 1
    assert len(counts) == 6
    expected = 10000 / 6
    sigma = np.sqrt(10000 * (1 / 6) * (5 / 6))
    assert all(abs(c - expected) <= 3 * sigma for c in counts.values())


def test_apply_circuit_empty_and_swap():
    state = basis_state(2, 0b01)
    assert np.allclose(apply_circuit(Circuit(2), state).amplitudes, state.amplitudes)
    swap = np.eye(4)[[0, 2, 1, 3]]
    swapped = apply_circuit(Circuit(2, (GateSpec((0, 1), swap),)), state)
    assert np.allclose(swapped.amplitudes, basis_state(2, 0b10).amplitudes)
    with pytest.raises(ValueError):
        apply_circuit(Circuit(3), state)


def test_apply_circuit_matches_dense_oracle():
    rng = np.random.default_rng(15)
    circuit = random_two_qubit_circuit(6, 12, SeedSpec(16))
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    got = apply_circuit(circuit, PureState(6, v)).amplitudes
    dense = np.eye(64, dtype=np.complex128)
    for gate in circuit.gates:
        dense = oracles.embed_gate(gate.matrix, gate.targets, 6) @ dense
    assert np.allclose(got, dense @ v, atol=1e-10)
    evolved = evolve_columns(circuit, np.eye(64, dtype=np.complex128))
    assert np.array_equal(evolved, circuit_unitary(circuit).matrix)
    assert np.abs(evolved - dense).max() < 1e-12
    block = evolve_columns(circuit, np.eye(64, dtype=np.complex128)[:, [5, 0, 63]])
    for j, x in enumerate((5, 0, 63)):
        column = apply_circuit(circuit, basis_state(6, x)).amplitudes
        assert np.array_equal(block[:, j], column)
    with pytest.raises(ValueError):
        evolve_columns(circuit, np.eye(32, dtype=np.complex128))


def test_apply_circuit_linear():
    circuit = random_two_qubit_circuit(4, 8, SeedSpec(17))
    x = basis_state(4, 3).amplitudes
    y = basis_state(4, 9).amplitudes
    combo = PureState(4, 0.6 * x + 0.8j * y)
    lhs = apply_circuit(circuit, combo).amplitudes
    rhs = 0.6 * apply_circuit(circuit, PureState(4, x)).amplitudes
    rhs = rhs + 0.8j * apply_circuit(circuit, PureState(4, y)).amplitudes
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_circuit_unitary_basics():
    assert np.allclose(circuit_unitary(Circuit(2)).matrix, np.eye(4))
    g = haar_unitary(2, SeedSpec(18)).matrix
    single = Circuit(2, (GateSpec((0, 1), g),))
    assert np.allclose(circuit_unitary(single).matrix, g, atol=1e-12)
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(DENSE_LIMIT + 1))


def test_disjoint_gates_commute():
    g1 = haar_unitary(2, SeedSpec(19)).matrix
    g2 = haar_unitary(2, SeedSpec(20)).matrix
    ab = Circuit(4, (GateSpec((0, 1), g1), GateSpec((2, 3), g2)))
    ba = Circuit(4, (GateSpec((2, 3), g2), GateSpec((0, 1), g1)))
    assert np.allclose(circuit_unitary(ab).matrix, circuit_unitary(ba).matrix, atol=1e-12)


def test_circuit_inverse():
    circuit = random_two_qubit_circuit(5, 10, SeedSpec(21))
    state = basis_state(5, 11)
    forward = apply_circuit(circuit, state).amplitudes[:, np.newaxis]
    round_trip = evolve_columns(circuit, forward, adjoint=True)[:, 0]
    assert np.allclose(round_trip, state.amplitudes, atol=1e-10)


def test_circuit_validation():
    with pytest.raises(ValueError):
        GateSpec((0, 0), np.eye(4))
    with pytest.raises(ValueError):
        GateSpec((0, 1), np.eye(3))
    with pytest.raises(ValueError):
        Circuit(2, (GateSpec((0, 2), np.eye(4)),))
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec((0, 1), np.ones((4, 4)))
    off = np.eye(4, dtype=np.complex128)
    off[0, 0] += 1e-7
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec((0, 1), off)
    # Inside the documented 1e-8 tolerance: accepted, and so is its adjoint.
    off[0, 0] = 1.0 + 5e-10
    assert GateSpec((0, 1), off).matrix[0, 0] == off[0, 0]
    assert GateSpec((0, 1), off.conj().T).matrix[0, 0] == off[0, 0]


def test_random_density_matrix_properties():
    for k in range(5):
        rho = random_density_matrix(3, SeedSpec(22).child(k))
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def _circuit_on(num_qubits, targets, seed):
    gates = tuple(
        GateSpec(pair, haar_unitary(2, SeedSpec(seed).child(k)).matrix)
        for k, pair in enumerate(targets)
    )
    return Circuit(num_qubits, gates)


@st.composite
def fusable_circuits(draw):
    """0-30 gates on ordered qubit pairs (either label first) of 2-7 qubits."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return _circuit_on(n, draw(st.lists(pair, max_size=30)), draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(fusable_circuits())
# a repeated pair, layers of disjoint pairs, and reversed target order
@example(_circuit_on(3, [(0, 1)] * 6, 1))
@example(_circuit_on(7, [(0, 1), (2, 3), (4, 5), (6, 0), (1, 2), (3, 4), (5, 6)] * 3, 2))
@example(_circuit_on(5, [(3, 1), (1, 3), (4, 0), (3, 1), (2, 4), (1, 0)], 3))
def test_fused_blocks_match_dense_gate_product_property(circuit):
    n, gates = circuit.num_qubits, circuit.gates
    dense = np.eye(2**n, dtype=np.complex128)
    for gate in gates:
        dense = oracles.embed_gate(gate.matrix, gate.targets, n) @ dense
    identity = np.eye(2**n, dtype=np.complex128)
    assert np.abs(evolve_columns(circuit, identity) - dense).max() < 1e-12
    assert np.abs(evolve_columns(circuit, identity, adjoint=True) - dense.conj().T).max() < 1e-12

    plan = plan_blocks(gates)
    assert len(circuit.fused_blocks) == len(plan)
    place = {}
    for b, (qubits, members) in enumerate(plan):
        assert len(qubits) <= 5
        assert set(qubits) == {q for i in members for q in gates[i].targets}
        for position, i in enumerate(members):
            assert i not in place
            place[i] = (b, position)
    assert sorted(place) == list(range(len(gates)))
    for i, j in combinations(range(len(gates)), 2):
        if set(gates[i].targets) & set(gates[j].targets):
            assert place[i] < place[j]
