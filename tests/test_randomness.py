import gc
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    circuit_unitary,
    haar_product_unitary,
    haar_unitary,
    random_two_qubit_circuit,
)
from dqc1kit import randomness
from dqc1kit.dqc1_model import register_columns
from dqc1kit.randomness import (
    DENSE_LIMIT,
    LazyUnitary,
    _mix64,
    evolve_basis_columns,
    plan_blocks,
)

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


@pytest.mark.parametrize("seed", [SeedSpec(3), SeedSpec(8).child(5), SeedSpec(2**63)])
@pytest.mark.parametrize("n", range(1, 11))
def test_haar_first_column_is_served_without_a_qr(dense_builds, n, seed):
    u = haar_unitary(n, seed)
    served = register_columns(u, [0], False)[:, 0]
    assert dense_builds == []
    # Oracle: the same Ginibre draw and its whole phase-fixed QR.
    rng = seed.generator()
    dim = 2**n
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    assert np.abs(served - q[:, 0] * phases[0]).max() <= 1e-15
    # The built matrix is the oracle's U, with the served column's bits in column 0.
    assert np.array_equal(u.matrix[:, 0], served)
    assert np.array_equal(u.matrix[:, 1:], q[:, 1:] * phases[1:])


@pytest.mark.parametrize("dim", [2, 4, 64, 512])
def test_ginibre_draw_keeps_the_bits_of_the_two_draw_sum(dim):
    # The in-place fill against the expression it replaced, on the same stream.
    seed = SeedSpec(130 + dim)
    got = randomness._ginibre(dim, seed.generator())
    rng = seed.generator()
    want = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    want /= np.sqrt(2.0)
    assert got.dtype == np.complex128 and got.shape == (dim, dim)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_haar_draw_keeps_the_bits_of_the_assembled_ginibre_draw(n):
    # haar_unitary keeps the two real normal blocks apart and assembles the
    # complex draw only to build the matrix.  U|0> and the built matrix keep
    # the bits they had with the draw assembled up front.
    for s in range(3 if n <= 8 else 1):
        seed = SeedSpec(1400 + 10 * n + s)
        ginibre = randomness._ginibre(2**n, seed.generator())
        u = haar_unitary(n, seed)
        column = ginibre[:, 0] / np.linalg.norm(ginibre[:, 0])
        assert u.first_column.tobytes() == column.tobytes()
        if n <= 8:
            want = randomness._phase_fixed_q(ginibre)
            want[:, 0] = column
            assert u.matrix.tobytes() == want.tobytes()


def test_built_haar_matrix_keeps_no_ginibre_draw():
    # At n = 10 the Ginibre draw and the matrix are 16 MiB each.  From the
    # draw on, the peak is the build's, inside np.linalg.qr: four matrices
    # (z, the QR's working copy, q and r), triu's 1 MiB boolean mask and a
    # few columns.  Normals held through the QR made it 81 MiB.
    haar_unitary(3, SeedSpec(3)).matrix  # first-use allocations, outside the trace
    tracemalloc.start()
    try:
        u = haar_unitary(10, SeedSpec(3))
        drawn = tracemalloc.get_traced_memory()[0]
        u.matrix
        gc.collect()
        built, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built - drawn < 2**20
    assert peak <= 65 * 2**20 + 4 * 16 * 2**10


def test_haar_matrix_read_by_threads_at_once_is_one_matrix():
    # The getter itself, without the lock cached_property takes before Python 3.12.
    build_matrix = LazyUnitary.matrix.func

    def read_at_once(u, start):
        start.wait()
        return build_matrix(u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for s in range(10):
                u = haar_unitary(3, SeedSpec(s))
                start = threading.Barrier(4)
                reads = [pool.submit(read_at_once, u, start) for _ in range(4)]
                mats = [r.result(timeout=60) for r in reads]
                want = haar_unitary(3, SeedSpec(s)).matrix
                for mat in mats + [build_matrix(u), u.matrix]:
                    assert mat.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_product_first_column_is_served_without_a_matrix_kron(dense_builds, n):
    seed = SeedSpec(40 + n)
    u = haar_product_unitary(n, seed)
    served = register_columns(u, [0], False)[:, 0]
    assert [b for b in dense_builds if b[0] == "kron"] == []
    expected = np.ones((1, 1), dtype=np.complex128)
    for k in range(n):
        expected = np.kron(expected, randomness._haar_matrix(2, seed.child(k).generator()))
    assert np.array_equal(u.matrix, expected)
    assert np.array_equal(u.matrix[:, 0], served)


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
    state = PureState(2, oracles.basis_vector(2, 0b01))
    assert np.allclose(apply_circuit(Circuit(2), state).amplitudes, state.amplitudes)
    swap = np.eye(4)[[0, 2, 1, 3]]
    swapped = apply_circuit(Circuit(2, (GateSpec((0, 1), swap),)), state)
    assert np.allclose(swapped.amplitudes, oracles.basis_vector(2, 0b10))
    with pytest.raises(ValueError):
        apply_circuit(Circuit(3), state)


def test_apply_circuit_matches_dense_oracle():
    rng = np.random.default_rng(15)
    circuit = random_two_qubit_circuit(6, 12, SeedSpec(16))
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    got = apply_circuit(circuit, PureState(6, v)).amplitudes
    dense = oracles.circuit_matrix(circuit)
    assert np.allclose(got, dense @ v, atol=1e-10)
    assert np.abs(circuit_unitary(circuit).matrix - dense).max() < 1e-12
    for x in (5, 0, 63):
        column = apply_circuit(circuit, PureState(6, oracles.basis_vector(6, x))).amplitudes
        assert np.abs(column - dense[:, x]).max() < 1e-12


def test_apply_circuit_linear():
    circuit = random_two_qubit_circuit(4, 8, SeedSpec(17))
    x = oracles.basis_vector(4, 3)
    y = oracles.basis_vector(4, 9)
    combo = PureState(4, 0.6 * x + 0.8j * y)
    lhs = apply_circuit(circuit, combo).amplitudes
    rhs = 0.6 * apply_circuit(circuit, PureState(4, x)).amplitudes
    rhs = rhs + 0.8j * apply_circuit(circuit, PureState(4, y)).amplitudes
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("n, num_gates, seed", [(7, 14, 704), (8, 8, 806)])
def test_circuit_unitary_is_the_light_cone_columns_bit_for_bit(n, num_gates, seed):
    # Circuits on which carrying every qubit lands ulps away from the light cone.
    circuit = random_two_qubit_circuit(n, num_gates, SeedSpec(seed))
    matrix = circuit_unitary(circuit).matrix
    assert np.array_equal(matrix, register_columns(circuit, np.arange(2**n), False))
    assert np.abs(matrix - oracles.circuit_matrix(circuit)).max() < 1e-12


def test_circuit_unitary_basics():
    assert np.allclose(circuit_unitary(Circuit(2)).matrix, np.eye(4))
    g = haar_unitary(2, SeedSpec(18)).matrix
    single = Circuit(2, (GateSpec((0, 1), g),))
    assert np.allclose(circuit_unitary(single).matrix, g, atol=1e-12)
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(DENSE_LIMIT + 1))


def test_dense_builders_refuse_registers_above_the_limit_before_drawing(monkeypatch):
    def drew(*_args):
        raise AssertionError("a Haar matrix was drawn")

    monkeypatch.setattr(randomness, "_haar_matrix", drew)
    # haar_unitary draws its normal blocks straight from the generator.
    monkeypatch.setattr(randomness.SeedSpec, "generator", drew)
    for build in (haar_unitary, haar_product_unitary):
        with pytest.raises(ValueError, match=f"n <= {DENSE_LIMIT} qubits, got {DENSE_LIMIT + 1}"):
            build(DENSE_LIMIT + 1, SeedSpec(19))


def test_disjoint_gates_commute():
    g1 = haar_unitary(2, SeedSpec(19)).matrix
    g2 = haar_unitary(2, SeedSpec(20)).matrix
    ab = Circuit(4, (GateSpec((0, 1), g1), GateSpec((2, 3), g2)))
    ba = Circuit(4, (GateSpec((2, 3), g2), GateSpec((0, 1), g1)))
    assert np.allclose(circuit_unitary(ab).matrix, circuit_unitary(ba).matrix, atol=1e-12)


def test_circuit_inverse():
    circuit = random_two_qubit_circuit(5, 10, SeedSpec(21))
    backward = PureState(5, register_columns(circuit, [11], True)[:, 0])
    round_trip = apply_circuit(circuit, backward).amplitudes
    assert np.allclose(round_trip, oracles.basis_vector(5, 11), atol=1e-10)


def test_stacked_gate_draws_match_per_gate_draws():
    # One stacked QR after the loop, and the stream still draws pair, then
    # Ginibre matrix, gate by gate.
    for seed in (0, 1, 29, 2**40):
        circuit = random_two_qubit_circuit(14, 56, SeedSpec(seed))
        rng = SeedSpec(seed).generator()
        for gate in circuit.gates:
            pair = rng.choice(14, size=2, replace=False)
            assert gate.targets == (int(pair.min()), int(pair.max()))
            assert np.array_equal(gate.matrix, randomness._haar_matrix(4, rng))


def test_circuit_validation():
    with pytest.raises(ValueError):
        GateSpec((0, 0), np.eye(4))
    with pytest.raises(ValueError):
        GateSpec((0, 1), np.eye(3))
    with pytest.raises(ValueError):
        Circuit(2, (GateSpec((0, 2), np.eye(4)),))
    # Unitarity is the circuit's check, on all its gates at once.
    with pytest.raises(ValueError, match="not unitary"):
        Circuit(2, (GateSpec((0, 1), np.ones((4, 4))),))
    off = np.eye(4, dtype=np.complex128)
    off[0, 0] += 1e-7
    with pytest.raises(ValueError, match="not unitary"):
        Circuit(2, (GateSpec((0, 1), off),))
    # Inside the documented 1e-8 tolerance: accepted, and so is its adjoint.
    off[0, 0] = 1.0 + 5e-10
    assert Circuit(2, (GateSpec((0, 1), off),)).gates[0].matrix[0, 0] == off[0, 0]
    assert Circuit(2, (GateSpec((0, 1), off.conj().T),)).gates[0].matrix[0, 0] == off[0, 0]


@st.composite
def perturbed_gate_stacks(draw):
    """1-60 Haar gates on 2-6 qubits, one entry of one gate moved by eps at a random phase."""
    n, count = draw(st.integers(2, 6)), draw(st.integers(1, 60))
    gates = random_two_qubit_circuit(n, count, SeedSpec(draw(st.integers(0, 2**32 - 1)))).gates
    where = draw(st.integers(0, count - 1))
    row, col = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    eps = draw(st.sampled_from([0.0, 5e-10, 5e-9, 2e-8, 1e-7]))
    phase = np.exp(2j * np.pi * draw(st.floats(0, 1)))
    matrix = gates[where].matrix.copy()
    matrix[row, col] += eps * phase
    stack = gates[:where] + (GateSpec(gates[where].targets, matrix),) + gates[where + 1:]
    return n, stack


@settings(derandomize=True, deadline=None, max_examples=150)
@given(perturbed_gate_stacks())
def test_circuit_refuses_a_stack_exactly_when_some_gate_fails_the_per_gate_check(case):
    n, gates = case
    if all(oracles.gate_is_unitary(g.matrix) for g in gates):
        assert len(Circuit(n, gates)) == len(gates)
    else:
        with pytest.raises(ValueError, match=r"^gate is not unitary within 1e-08$"):
            Circuit(n, gates)


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
    dense = oracles.circuit_matrix(circuit)
    assert np.abs(circuit_unitary(circuit).matrix - dense).max() < 1e-12
    every = np.arange(2**n)
    assert np.abs(register_columns(circuit, every, True) - dense.conj().T).max() < 1e-12
    # every qubit carried, on a state that is no basis column
    v = np.exp(1j * np.arange(2**n)) / np.sqrt(2**n)
    assert np.abs(apply_circuit(circuit, PureState(n, v)).amplitudes - dense @ v).max() < 1e-12

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


@st.composite
def light_cone_cases(draw):
    """A circuit on 1-8 qubits whose gates may touch only some, and 1-12 indices with repeats."""
    n = draw(st.integers(1, 8))
    active = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    pairs = []
    if len(active) >= 2:
        qubit = st.sampled_from(active)
        pair = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=20))
    circuit = _circuit_on(n, pairs, draw(st.integers(0, 2**32 - 1)))
    return circuit, draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(light_cone_cases())
# gates only on qubits 0 and 1 of 5, the empty circuit, and a 1-qubit register
@example((_circuit_on(5, [(0, 1), (1, 0), (0, 1)], 4), [31, 0, 31, 18, 7, 18]))
@example((_circuit_on(6, [(4, 2), (2, 4), (5, 4)], 5), [63, 1, 42, 42]))
@example((Circuit(4, ()), [9, 9, 0, 15]))
@example((Circuit(1, ()), [1, 0, 1]))
def test_light_cone_columns_match_dense_gate_product_property(case):
    circuit, xs = case
    n = circuit.num_qubits
    dense = oracles.circuit_matrix(circuit)
    for adjoint, want in ((False, dense), (True, dense.conj().T)):
        block = register_columns(circuit, xs, adjoint)
        assert block.shape == (2**n, len(xs))
        assert np.abs(block - want[:, xs]).max() < 1e-12
        for j, x in enumerate(xs):
            assert np.array_equal(block[:, j], register_columns(circuit, [x], adjoint)[:, 0])


def test_light_cone_agrees_with_the_full_register_kernel():
    # Past the oracle's sizes: the light cone against every qubit carried
    # (apply_circuit), forward, and as a round trip C C-dagger|x> = |x>.
    for n, seed in ((10, 41), (14, 42)):
        circuit = random_two_qubit_circuit(n, 4 * n, SeedSpec(seed))
        xs = [0, 2**n - 1, 5, 5, 2 ** (n - 1)]
        forward = register_columns(circuit, xs, False)
        backward = register_columns(circuit, xs, True)
        for j, x in enumerate(xs):
            basis = PureState(n, oracles.basis_vector(n, x))
            assert np.abs(forward[:, j] - apply_circuit(circuit, basis).amplitudes).max() < 1e-14
            round_trip = apply_circuit(circuit, PureState(n, backward[:, j])).amplitudes
            assert np.abs(round_trip - basis.amplitudes).max() < 1e-13
    with pytest.raises(ValueError, match="basis indices"):
        register_columns(circuit, [2**n], False)
    with pytest.raises(ValueError, match="basis indices"):
        register_columns(circuit, [-1], True)


def _outside_exponents(circuit, adjoint):
    """log2 R per block in light-cone order: carried qubits outside the block."""
    blocks = [qubits for qubits, _ in circuit.fused_blocks]
    carried = set()
    for qubits in reversed(blocks) if adjoint else blocks:
        carried |= set(qubits)
        yield len(carried) - len(qubits)


# Block 1, {0, 1, 2, 4, 5}, leaves one carried qubit outside it in either
# direction (R = 2), so its products run one column at a time.
NARROW_SECOND_BLOCK = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 5), (2, 5)]
# Block 1, {0, 1, 5}, holds three gates, each with its higher qubit first,
# so its build takes one product per column (R = 2) gate after gate.
NARROW_BLOCK_BUILD = [(0, 1), (2, 3), (4, 0), (5, 0), (5, 1), (1, 0)]
# Blocks {0, 1, 2, 3, 4} and {4, 5}: qubit 5 enters block 1 with R = 16,
# and in the adjoint qubits 0-3 enter block 1 with R = 2.
CHAIN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


@st.composite
def kernel_cases(draw):
    """A random circuit on 2-14 qubits with 1-5n gates, and 1-130 basis indices."""
    n = draw(st.integers(2, 14))
    gates, k = draw(st.integers(1, 5 * n)), draw(st.integers(1, 130))
    seed, index_seed = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    xs = np.random.default_rng(index_seed).integers(0, 2**n, k)
    return random_two_qubit_circuit(n, gates, SeedSpec(seed)), xs


@settings(derandomize=True, deadline=None, max_examples=30)
@given(kernel_cases())
@example((_circuit_on(6, NARROW_SECOND_BLOCK, 6), np.arange(64)))
@example((_circuit_on(6, NARROW_BLOCK_BUILD, 7), [0, 33, 63, 33]))
@example((random_two_qubit_circuit(14, 56, SeedSpec(14)), np.arange(130) * 126))
# every qubit carried through one block of the whole register, whose
# one-column product rounds differently in the two memory orders at this seed
@example((random_two_qubit_circuit(4, 13, SeedSpec(1327957532)), [15, 0, 7]))
@example((random_two_qubit_circuit(2, 3, SeedSpec(2)), [3]))
# qubits entering blocks of either layout, and qubits no gate touches
@example((_circuit_on(6, CHAIN, 8), [0, 63, 21, 42, 5]))
@example((_circuit_on(7, CHAIN, 9), [127, 64, 1]))
@example((random_two_qubit_circuit(14, 4, SeedSpec(3)), np.arange(20) * 819))
def test_circuit_kernel_is_the_column_first_kernel_bit_for_bit(case):
    circuit, xs = case
    n = circuit.num_qubits
    reference = oracles.column_first_fused_blocks(circuit)
    for (qubits, matrix), (want_qubits, want) in zip(circuit.fused_blocks, reference, strict=True):
        assert qubits == want_qubits and np.array_equal(matrix, want)
        # A one-column product reads the matrix's bits through its memory order.
        assert matrix.flags.f_contiguous == want.flags.f_contiguous
    for adjoint in (False, True):
        want = oracles.column_first_columns(circuit, xs, adjoint)
        assert np.array_equal(evolve_basis_columns(circuit, xs, adjoint), want)
    v = np.exp(1j * np.arange(2**n)) / np.sqrt(2**n)
    assert np.array_equal(
        apply_circuit(circuit, PureState(n, v)).amplitudes, oracles.column_first_state(circuit, v)
    )
    if n <= 8:
        want = oracles.column_first_columns(circuit, np.arange(2**n))
        assert np.array_equal(circuit_unitary(circuit).matrix, want)


def test_kernel_examples_cover_narrow_blocks():
    # The examples above reach the one-product-per-column branch past the
    # first block (NARROW_SECOND_BLOCK) and with every qubit carried (n = 2, 4).
    narrow = _circuit_on(6, NARROW_SECOND_BLOCK, 6)
    assert list(_outside_exponents(narrow, False)) == [0, 1]
    assert list(_outside_exponents(narrow, True)) == [0, 1]
    for n, gates, seed in ((2, 3, 2), (4, 13, 1327957532)):
        circuit = random_two_qubit_circuit(n, gates, SeedSpec(seed))
        assert n in [len(qubits) for qubits, _ in circuit.fused_blocks]
    # Blocks of width 2 or 3 are built one product per column; these hold
    # more than one gate (NARROW_BLOCK_BUILD, and the n = 2 circuit's one block).
    plan = plan_blocks(_circuit_on(6, NARROW_BLOCK_BUILD, 7).gates)
    assert [(qubits, len(members)) for qubits, members in plan] == [
        ((0, 1, 2, 3, 4), 3), ((0, 1, 5), 3)
    ]
    plan = plan_blocks(random_two_qubit_circuit(2, 3, SeedSpec(2)).gates)
    assert [(qubits, len(members)) for qubits, members in plan] == [((0, 1), 3)]


def _entering(circuit, adjoint):
    """(qubits entering, log2 R) per block in light-cone order, then (entering the output, None)."""
    carried = set()
    for qubits, _ in reversed(circuit.fused_blocks) if adjoint else circuit.fused_blocks:
        yield len(set(qubits) - carried), len(carried | set(qubits)) - len(qubits)
        carried |= set(qubits)
    yield circuit.num_qubits - len(carried), None


def test_kernel_examples_cover_every_entry_of_a_qubit():
    # Past the first block, qubits enter an operand with the column axis last
    # (R >= 4, CHAIN forward) and first (R < 4, CHAIN adjoint); qubits that no
    # gate touches enter the output (n = 7 CHAIN, and the 4-gate circuit).
    chain = _circuit_on(6, CHAIN, 8)
    assert list(_entering(chain, False)) == [(5, 0), (1, 4), (0, None)]
    assert list(_entering(chain, True)) == [(2, 0), (4, 1), (0, None)]
    sparse = random_two_qubit_circuit(14, 4, SeedSpec(3))
    for adjoint in (False, True):
        assert list(_entering(_circuit_on(7, CHAIN, 9), adjoint))[-1] == (1, None)
        assert list(_entering(sparse, adjoint))[-1] == (7, None)


@pytest.mark.parametrize("n, k", [(12, 16), (10, 64)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_basis_columns_work_in_two_buffers(n, k, adjoint):
    # The operands and the output are staged in one buffer and the products
    # written to the other: no third buffer of 2^n k amplitudes.
    circuit = random_two_qubit_circuit(n, 4 * n, SeedSpec(n))
    xs = np.random.default_rng(k).integers(0, 2**n, k)
    evolve_basis_columns(circuit, xs[:1], adjoint)  # the circuit's blocks, built once
    tracemalloc.start()
    try:
        columns = evolve_basis_columns(circuit, xs, adjoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns.shape == (2**n, k)
    assert peak <= 2.1 * 2**n * k * 16
