import json
import math
import sys
import tracemalloc
import zlib
from itertools import combinations, count

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dqc1kit import (
    DEFAULT_RANK_TOL,
    Bipartition,
    ClaimFalsified,
    DenseOperator,
    Dqc1Config,
    PureState,
    SchmidtSpectrum,
    SeedSpec,
    TreeGraph,
    apply_to_product,
    balanced_tree_edge,
    balanced_window,
    concentration_report,
    final_state,
    haar_product_unitary,
    haar_unitary,
    min_rank_over_equipartitions,
    normalized_trace,
    operator_schmidt_decompose,
    random_degree3_tree,
    random_two_qubit_circuit,
    rank_bound_scan,
    rank_of,
    robust_rank_bound,
    schmidt_decompose,
    truncation_experiment,
    truncation_fidelity,
)
from dqc1kit.cli import main as cli_main
from dqc1kit import correlation_analysis
from dqc1kit.correlation_analysis import (
    TRUNCATION_MIN_TAU,
    _sample_cuts,
    min_equipartition_rank,
    parallel_map,
)
from dqc1kit.dqc1_model import STREAM_LIMIT, register_columns

import oracles
from lemmas import (
    majorant_distribution,
    majorizes,
    random_zero_sum_shifts,
    shifted_distribution,
)


def _u0(circuit):
    """U|0> of a circuit as rank-scaling reads it: one light-cone column."""
    return PureState(circuit.num_qubits, register_columns(circuit, [0], False)[:, 0])


def test_balanced_window_values():
    assert balanced_window(5) == (1, 2)
    assert balanced_window(7) == (2, 2)
    assert balanced_window(8) == (2, 3)
    assert balanced_window(10) == (2, 4)
    assert balanced_window(4) == (1, 1)


@pytest.mark.parametrize("m, sizes", [(6, [2, 4]), (7, [3]), (5, [1, 2, 3, 4])])
def test_cut_sampler_picks_the_drawn_ranks_of_the_enumeration(m, sizes):
    population = [(0,) + tuple(q + 1 for q in c) for k in sizes for c in combinations(range(m), k)]
    total = len(population)
    seed = SeedSpec(77)
    for count in range(1, total):
        picks = np.sort(seed.generator().choice(total, size=count, replace=False))
        assert _sample_cuts(m, sizes, count, seed) == [population[p] for p in picks]
    for count in (None, total, total + 1):
        assert _sample_cuts(m, sizes, count, seed) == population


def test_cut_sampler_never_materializes_the_population():
    n = 20
    low, high = balanced_window(n)
    sizes = [a for a in range(1, n) if low <= min(a, n - a) <= high]
    assert sum(math.comb(n, a) for a in sizes) == 525_198
    tracemalloc.start()
    try:
        cuts = _sample_cuts(n, sizes, 50, SeedSpec(78))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(cuts)) == 50
    assert peak < 2**20


def test_cut_sampler_draws_distinct_cuts_above_two_million():
    n = 23
    low, high = balanced_window(n)
    sizes = [a for a in range(1, n) if low <= min(a, n - a) <= high]
    assert sum(math.comb(n, a) for a in sizes) > 2_000_000
    cuts = _sample_cuts(n, sizes, 10**4, SeedSpec(76))
    assert len(set(cuts)) == len(cuts) == 10**4
    assert cuts == sorted(cuts, key=lambda c: (len(c), c))
    assert all(c[0] == 0 and low <= min(len(c) - 1, n + 1 - len(c)) <= high for c in cuts)


# The cuts (side_a lists) three sampled scans choose.  They are integers and
# do not depend on BLAS, so any change to cut sampling shows here exactly.
PINNED_BOUND_SCAN_N10 = [
    [0, 2, 4, 8], [0, 2, 7, 9], [0, 3, 5, 10], [0, 5, 7, 8], [0, 1, 3, 4, 6],
    [0, 2, 7, 8, 10], [0, 6, 7, 9, 10], [0, 1, 2, 3, 4, 5, 9], [0, 1, 2, 3, 7, 8, 9],
    [0, 1, 2, 3, 8, 9, 10], [0, 1, 3, 4, 7, 8, 10], [0, 1, 4, 5, 7, 8, 10],
    [0, 2, 3, 4, 8, 9, 10], [0, 2, 3, 7, 8, 9, 10], [0, 2, 4, 5, 6, 8, 10],
    [0, 3, 4, 5, 7, 8, 9], [0, 3, 5, 6, 8, 9, 10], [0, 1, 2, 3, 4, 7, 8, 9],
    [0, 2, 3, 4, 5, 6, 8, 9], [0, 1, 3, 4, 6, 7, 8, 9, 10],
]
PINNED_CIRCUIT_SCAN_N14 = [
    [0, 2, 3, 4], [0, 4, 9, 11], [0, 1, 2, 8, 9, 14], [0, 1, 3, 4, 7, 8],
    [0, 1, 3, 6, 7, 12], [0, 2, 4, 8, 10, 11], [0, 4, 7, 8, 11, 14],
    [0, 1, 2, 3, 4, 5, 7, 10, 11, 12], [0, 1, 2, 4, 5, 6, 7, 9, 10, 13],
    [0, 1, 2, 4, 5, 6, 9, 10, 11, 14], [0, 1, 2, 7, 8, 9, 11, 12, 13, 14],
    [0, 1, 3, 4, 6, 7, 8, 10, 13, 14], [0, 2, 3, 5, 6, 7, 8, 10, 13, 14],
    [0, 2, 3, 5, 7, 10, 11, 12, 13, 14], [0, 4, 5, 8, 9, 10, 11, 12, 13, 14],
    [0, 1, 3, 4, 5, 6, 7, 9, 11, 12, 14], [0, 1, 4, 5, 6, 8, 10, 11, 12, 13, 14],
    [0, 1, 5, 7, 8, 9, 10, 11, 12, 13, 14], [0, 2, 4, 5, 6, 9, 10, 11, 12, 13, 14],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13],
]
PINNED_EQUIPARTITIONS_N8 = [
    [0, 1, 2, 4], [0, 1, 2, 5], [0, 1, 3, 5], [0, 1, 5, 6], [0, 2, 3, 4],
    [0, 2, 4, 7], [0, 2, 6, 7], [0, 3, 5, 6], [0, 3, 6, 7], [0, 4, 5, 6],
]


def test_circuit_scan_cut_choice_is_pinned(tmp_path):
    out = tmp_path / "scan.json"
    argv = ["bound-scan", "--unitary", "circuit", "--n", "14", "--cuts", "20"]
    assert cli_main(argv + ["--randomize-index", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["side_a"] for row in rows] == PINNED_CIRCUIT_SCAN_N14


def test_parallel_map_preserves_order():
    items = list(range(37))
    assert parallel_map(lambda x: x * x, items, workers=1) == [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, workers=4) == [x * x for x in items]


def test_min_rank_product_state_is_one():
    report = min_rank_over_equipartitions(PureState(6, oracles.basis_vector(6, 0)))
    assert report.min_rank == 1
    assert len(report.records) == math.comb(5, 2)


def test_min_rank_bell_pairs():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    state = PureState(4, np.kron(bell, bell))
    report = min_rank_over_equipartitions(state)
    assert len(report.records) == 3
    assert report.min_rank == 1
    assert report.argmin_side_a == (0, 1)


def test_min_rank_scan_is_the_per_cut_schmidt_ranks_at_any_worker_count(monkeypatch):
    from dqc1kit import correlation_analysis, schmidt_decompose

    state = _u0(random_two_qubit_circuit(12, 24, SeedSpec(62)))
    stacks = []
    svd = correlation_analysis.singular_values

    def recording_svd(matrix):
        stacks.append(matrix.shape)
        return svd(matrix)

    monkeypatch.setattr(correlation_analysis, "singular_values", recording_svd)
    report = min_rank_over_equipartitions(state, partition_cap=37, seed=SeedSpec(63))
    # the serial reference: one SVD per 64 x 64 cut
    assert stacks == [(64, 64)] * 37
    records = report.records
    assert len(records) == 37
    for record in records:
        spectrum = schmidt_decompose(state, Bipartition(12, record.side_a))
        assert record.rank == rank_of(spectrum)
        assert record.spectrum_head == tuple(spectrum.coefficients[:4].tolist())
    # every cut at n = 2 and 4, whose heads hold 2 and 4 coefficients
    for n in (2, 4):
        state = _u0(random_two_qubit_circuit(n, 2 * n, SeedSpec(90 + n)))
        for record in min_rank_over_equipartitions(state).records:
            spectrum = schmidt_decompose(state, Bipartition(n, record.side_a))
            assert record.rank == rank_of(spectrum) and record.log2_rank == math.log2(record.rank)
            assert record.spectrum_head == tuple(spectrum.coefficients[:4].tolist())


def test_min_rank_rejects_odd_registers():
    with pytest.raises(ValueError):
        min_rank_over_equipartitions(PureState(5, oracles.basis_vector(5, 0)))


def test_min_rank_sampled_subset_matches_exhaustive():
    circuit = random_two_qubit_circuit(8, 16, SeedSpec(60))
    state = _u0(circuit)
    full = min_rank_over_equipartitions(state)
    sampled = min_rank_over_equipartitions(state, partition_cap=10, seed=SeedSpec(61))
    assert len(sampled.records) == 10
    assert [list(r.side_a) for r in sampled.records] == PINNED_EQUIPARTITIONS_N8
    ranks_by_cut = {r.side_a: r.rank for r in full.records}
    assert all(ranks_by_cut[r.side_a] == r.rank for r in sampled.records)
    again = min_rank_over_equipartitions(state, partition_cap=10, seed=SeedSpec(61))
    assert [r.side_a for r in again.records] == [r.side_a for r in sampled.records]
    capped = min_rank_over_equipartitions(state, partition_cap=10**6, seed=SeedSpec(61))
    assert len(capped.records) == math.comb(7, 3)
    with pytest.raises(ValueError):
        min_rank_over_equipartitions(state, partition_cap=5)


def _pair_state(n, pairs, lams, rng=None):
    """The product over pairs (p, q) of |00> + lam |11>, unnormalized.

    Across a cut, its Schmidt coefficients are the products of 1 or lam
    over the pairs the cut splits.  With ``rng``, a random unitary acts on
    each qubit, which keeps those coefficients and fills the cut matrices.
    """
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    amp = np.ones(2**n, dtype=np.complex128)
    for (p, q), lam in zip(pairs, lams):
        amp *= np.where(bits[:, p] == bits[:, q], np.where(bits[:, p] == 1, lam, 1.0), 0.0)
    if rng is not None:
        t = amp.reshape((2,) * n)
        for q in range(n):
            gate = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            t = np.moveaxis(np.tensordot(gate, t, axes=(1, q)), 0, q)
        amp = t.reshape(-1)
    return PureState(n, amp)


def _planted_state(n, side_a, coefficients, rng):
    """A state whose Schmidt coefficients across side_a are ``coefficients``."""
    cut = Bipartition(n, side_a)
    r = len(coefficients)
    u, v = (np.linalg.qr(rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r)))[0]
            for dim in (cut.dim_a, cut.dim_b))
    matrix = (u * np.asarray(coefficients)) @ v.T
    t = matrix.reshape((2,) * n).transpose(np.argsort(cut.side_a + cut.side_b))
    return PureState(n, t.reshape(-1))


def _cuts_per_stack(monkeypatch, n, cuts):
    """Make the equipartition stacks hold ``cuts`` cuts each at n qubits."""
    monkeypatch.setattr(correlation_analysis, "COLUMN_BLOCK_ENTRIES", cuts * 4 ** (n // 2))


NEAR_TOL = (1 - 1e-3, 1 + 1e-3, 1 + 1e-7, 1 - 1e-7)


@st.composite
def equipartition_cases(draw):
    """(state, rel_tol, partition_cap, seed, cuts per stack or None for the real stacks).

    States are Gaussian, planted with a low-rank cut after the first stack
    (possibly with one coefficient at rel_tol times 1 +- 1e-3 or 1e-7), or
    products of pairs, some with a pair coefficient near rel_tol, under
    random one-qubit unitaries.  Some are scaled far from norm 1.
    """
    n = draw(st.sampled_from([2, 4, 4, 6, 6, 8, 8, 10, 10, 12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rel_tol = draw(st.sampled_from([DEFAULT_RANK_TOL, DEFAULT_RANK_TOL, 1e-6, 1e-2]))
    # n = 12 is always sampled: a full scan there takes 0.2 s per worker count
    cap = draw(st.integers(1, 60) if n == 12 else st.one_of(st.none(), st.none(), st.integers(1, 60)))
    seed = SeedSpec(draw(st.integers(0, 99)))
    # Below n = 10 one real stack holds every cut, so nothing would be sketched.
    per_stack = draw(st.sampled_from([1, 3] if n < 10 else [None, None, 1]))
    d = 2 ** (n // 2)
    cuts = _sample_cuts(n - 1, [n // 2 - 1], cap, seed)
    first = per_stack or correlation_analysis.COLUMN_BLOCK_ENTRIES // d**2
    kind = draw(st.sampled_from(["gaussian", "planted", "planted", "planted", "pairs", "pairs"]))
    if kind == "gaussian":
        state = PureState(n, rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
    elif kind == "planted":
        side_a = cuts[draw(st.integers(min(first, len(cuts) - 1), len(cuts) - 1))]
        coefficients = rng.uniform(0.5, 1.0, draw(st.integers(1, d)))
        if len(coefficients) > 1 and draw(st.booleans()):
            coefficients[-1] = rel_tol * draw(st.sampled_from(NEAR_TOL)) * coefficients.max()
        state = _planted_state(n, side_a, coefficients, rng)
    else:
        order = rng.permutation(n).tolist()
        pairs = list(zip(order[::2], order[1::2]))
        lams = [draw(st.sampled_from([1.0, 0.5, 0.0, rel_tol * draw(st.sampled_from(NEAR_TOL))]))
                for _ in pairs]
        state = _pair_state(n, pairs, lams, rng)
    scale = draw(st.sampled_from([1.0, 1.0, 1e-3, 1e5, 2.0**-300, 2.0**300]))
    return PureState(n, state.amplitudes * scale), rel_tol, cap, seed, per_stack


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=equipartition_cases())
def test_sketched_minimum_is_the_full_scan_minimum_property(case, monkeypatch):
    state, rel_tol, cap, seed, per_stack = case
    want = min_rank_over_equipartitions(state, rel_tol, cap, seed).min_rank
    with monkeypatch.context() as patch:
        if per_stack is not None:
            _cuts_per_stack(patch, state.num_qubits, per_stack)
        for workers in (1, 2, 4):
            assert min_equipartition_rank(state, rel_tol, cap, seed, workers) == want, workers


@pytest.mark.parametrize("rel_tol,factor,want", [
    pytest.param(DEFAULT_RANK_TOL, 1 - 1e-3, 1, id="0.999-1"),
    pytest.param(DEFAULT_RANK_TOL, 1 + 1e-3, 2, id="1.001-2"),
    pytest.param(1e-3, 1 - 1e-3, 1, id="tol1e-3-0.999-1"),
    pytest.param(1e-3, 1 + 1e-3, 2, id="tol1e-3-1.001-2"),
])
def test_sketch_threshold_carries_the_sketch_norms(monkeypatch, rel_tol, factor, want):
    # Cuts {0, 2, 3} and {0, 4, 5} split only the pair (0, 1), whose
    # coefficients 1 and lam sit at the rank cutoff; the first cut,
    # {0, 1, 2}, has rank 2.  A test without the gain ||G1[:2]||_2 passes
    # both at m = 2 and misses rank 1: under the random one-qubit unitaries
    # of seed 10, SKETCH_SEED's real G1[:2] stretches their sigma_2 by 1.77
    # and 1.59, past 1 / 0.999 (without them, by 0.906 only).  The first
    # assertion checks that for SKETCH_SEED's draw, so a new draw cannot
    # take this test's power away unnoticed.
    # At 1e-10 the Gram rounding term of the shift dominates s^2, so only
    # the case at 1e-3 sees the sketch norm.
    state = _pair_state(6, [(0, 1), (2, 3), (4, 5)], [rel_tol * factor, 1.0, 1.0],
                        np.random.default_rng(10))
    if rel_tol == 1e-3:
        psi = state.amplitudes / np.linalg.norm(state.amplitudes)
        cuts = np.stack([Bipartition(6, side_a).matricize(psi) for side_a in [(0, 2, 3), (0, 4, 5)]])
        assert _gram_passes(cuts, rel_tol, m=2, gain=False).tolist() == [True, True]
    _cuts_per_stack(monkeypatch, 6, 1)
    assert min_rank_over_equipartitions(state, rel_tol).min_rank == want
    for workers in (1, 2):
        assert min_equipartition_rank(state, rel_tol, workers=workers) == want


def test_sketched_scan_takes_full_svds_only_where_the_sketch_fails(monkeypatch):
    # Task 1 of `rank-scaling --n-list 10,12 --seeds 1`, at n = 12: the seed
    # SVD gives cut 0 rank d = 64, the first two stacks of 16 cuts pass the
    # Cholesky test at m = 64, and 6 cuts of the third fail.  The first of
    # them takes its full SVD and lowers m to the minimum, 32, where the
    # other 5 pass when tested again, as does every later cut (7 full SVDs
    # before the retest).
    master = SeedSpec(1).child(1)
    state = _u0(random_two_qubit_circuit(12, 24, master.child(0)))
    svds, tested = [], []
    svd, gram_test = correlation_analysis.singular_values, correlation_analysis._gram_test

    def recording_svd(matrix):
        assert matrix.shape[1:] == (64, 64)
        svds.append(len(matrix))
        return svd(matrix)

    def recording_test(stack, m, *args):
        tested.extend([m] * len(stack))
        return gram_test(stack, m, *args)

    monkeypatch.setattr(correlation_analysis, "singular_values", recording_svd)
    monkeypatch.setattr(correlation_analysis, "_gram_test", recording_test)
    assert min_equipartition_rank(state, seed=master.child(1)) == 32
    assert svds == [1, 1]
    assert tested == [64] * 48 + [32] * 5 + [32] * 414
    # At rel_tol 1e-2 the seed SVD gives m = 61, and three stacks that all
    # fail lower it through their full SVDs (61 -> 47 -> 44 -> 30); in each
    # the first failed cut's SVD leaves m where it was, so the other 15
    # take theirs in one call, untested again.  Two stacks at m = 30 pass
    # 3 cuts between them, and their full SVDs lower m to 19, where 364 of
    # the remaining 382 cuts pass: every cut is tested once (96 full SVDs,
    # as before the retest).  These pin the work done with SKETCH_SEED's
    # draw, not a result.
    svds.clear()
    tested.clear()
    assert min_equipartition_rank(state, 1e-2, seed=master.child(1)) == 19
    assert svds == [1] + [1, 15] * 3 + [1, 12, 1, 15] + [1] * 7 + [2, 1, 1, 2] + [1] * 5
    assert tested == [61] * 16 + [47] * 16 + [44] * 16 + [30] * 32 + [19] * 382


def test_lanes_share_one_running_minimum(monkeypatch):
    # The n = 12 state above on two lanes, with lane 1 run to completion
    # before lane 0.  Stack 0 passes at the seed SVD's m = d = 64 before
    # the lanes start.  Lane 1 tests its first stack (stack 2) at 64, lowers
    # m to 32 on its own and tests the rest of that stack again at 32;
    # lane 0 then tests every cut of its 14 stacks at 32.
    master = SeedSpec(1).child(1)
    state = _u0(random_two_qubit_circuit(12, 24, master.child(0)))
    tested, split = [], []
    gram_test = correlation_analysis._gram_test

    def recording_test(stack, m, *args):
        tested.extend([m] * len(stack))
        return gram_test(stack, m, *args)

    def lane_1_first(fn, items, workers=1):
        assert list(items) == [0, 1]
        fn(1)
        split.append(len(tested))
        fn(0)

    monkeypatch.setattr(correlation_analysis, "_gram_test", recording_test)
    monkeypatch.setattr(correlation_analysis, "parallel_map", lane_1_first)
    assert min_equipartition_rank(state, seed=master.child(1), workers=2) == 32
    [split] = split
    assert tested[:split] == [64] * 32 + [32] * 5 + [32] * 206
    assert tested[split:] == [32] * 224


def test_lanes_lower_the_shared_minimum_under_thread_switches(monkeypatch):
    # Four lanes on two cores, stacks of 4 cuts, a 1 us switch interval and
    # a tol at which most full SVDs lower m: a lane that raised the minimum
    # with a stale value would end some scan above the full scan's minimum
    # (without min() under the lock, 3 of these 40 scans did in one run).
    _cuts_per_stack(monkeypatch, 10, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(40):
            state = _u0(random_two_qubit_circuit(10, 20, SeedSpec(8300 + k)))
            want = min_rank_over_equipartitions(state, 1e-2).min_rank
            assert min_equipartition_rank(state, 1e-2, workers=4) == want, k
    finally:
        sys.setswitchinterval(interval)


def test_a_failed_cut_of_rank_m_leaves_the_lane_testing(monkeypatch):
    # One cut per stack.  The first cut that passes is failed by force: its
    # full SVD finds a rank of at least m, so m stays, and a rule counted in
    # stacks would stop testing there.  Counted in cuts, every cut is still
    # tested and the minimum is unchanged.
    master = SeedSpec(1).child(1)
    state = _u0(random_two_qubit_circuit(12, 24, master.child(0)))
    _cuts_per_stack(monkeypatch, 12, 1)
    gram_test = correlation_analysis._gram_test
    tested, forced = [], []

    def failing(stack, m, *args):
        passed = gram_test(stack, m, *args)
        tested.append(m)
        if passed.any() and (fail_every or not forced):
            forced.append(len(tested))
            passed[:] = False
        return passed

    monkeypatch.setattr(correlation_analysis, "_gram_test", failing)
    fail_every = False
    assert min_equipartition_rank(state, seed=master.child(1)) == 32
    assert forced == [1] and len(tested) == math.comb(11, 5)
    # Every test failing: the lane stops after 16 failed cuts in a row at
    # one m (m only decreases, so its last value was tested 16 times).
    tested.clear()
    fail_every = True
    assert min_equipartition_rank(state, seed=master.child(1)) == 32
    assert len(tested) < math.comb(11, 5) and tested.count(tested[-1]) == 16


# (gates, circuit and sampling seed, cuts per stack) per n.  The first case
# of each n fails when cuts that fail the retest skip their SVDs, and at
# n = 10 and 12 also when the retest runs at half the lowered m: a cut of
# the minimum rank then sits behind the stack's first failed cut.
FORCED_FAILURE_CASES = {
    8: [(12, 9451, 2), (8, 9400, 3), (12, 9451, 4)],
    10: [(15, 9614, 2), (10, 9600, 5), (15, 9614, 5)],
    12: [(12, 9816, 3), (18, 9800, 5)],
}


@pytest.mark.parametrize("n", sorted(FORCED_FAILURE_CASES))
def test_random_forced_failures_leave_the_full_scan_minimum(monkeypatch, n):
    # Failing a cut that passes is always sound: it only sends the cut to
    # its full SVD.  Here every cut whose matrix has an odd CRC-32 fails,
    # a fixed pseudo-random half that no thread schedule changes, so small
    # stacks are left with several failed cuts; where the first one's SVD
    # lowers m, the rest are tested again at the lowered m.  On every lane
    # count and at a tight and a loose tol the minimum must stay the full
    # scan's.  A retest gets the compacted stack without its first cut, a
    # view one cut into the stack buffer; a first test gets the buffer's start.
    gram_test = correlation_analysis._gram_test
    retests = []

    def failing_odd(stack, m, *args):
        retests.append(stack.ctypes.data != stack.base.ctypes.data)
        even = [zlib.crc32(matrix.tobytes()) % 2 == 0 for matrix in stack]
        return gram_test(stack, m, *args) & np.array(even, dtype=bool)

    monkeypatch.setattr(correlation_analysis, "_gram_test", failing_odd)
    cap = 40 if n == 12 else None
    for gates, seed, per_stack in FORCED_FAILURE_CASES[n]:
        _cuts_per_stack(monkeypatch, n, per_stack)
        state = _u0(random_two_qubit_circuit(n, gates, SeedSpec(seed)))
        for rel_tol in (DEFAULT_RANK_TOL, 1e-2):
            want = min_rank_over_equipartitions(state, rel_tol, cap, SeedSpec(seed)).min_rank
            for workers in (1, 2, 4):
                got = min_equipartition_rank(state, rel_tol, cap, SeedSpec(seed), workers)
                assert got == want, (gates, seed, per_stack, rel_tol, workers)
    assert any(retests)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_gathered_cut_matrices_are_the_matricized_cuts(n):
    # Every half:half cut, in stacks of 16 through the same buffers, bit for
    # bit against the one definition of the x -> (i, j) map.
    psi = _gaussian(np.random.default_rng(8200 + n), 2**n)
    cuts = _sample_cuts(n - 1, [n // 2 - 1], None, None)
    d = 2 ** (n // 2)
    weights = correlation_analysis._cut_weights(n, cuts)
    buffer = np.empty((16, d, d), dtype=np.complex128)
    index = np.empty(buffer.size, dtype=np.intp)
    for start in range(0, len(cuts), 16):
        stack = buffer[:len(cuts) - start]
        correlation_analysis._gather_cuts(psi, weights[start:start + 16], index, stack)
        for side_a, matrix in zip(cuts[start:], stack):
            assert matrix.tobytes() == Bipartition(n, side_a).matricize(psi).tobytes()


def _sketch_g1(d):
    """The real d x d Gaussian G1 that min_equipartition_rank draws from SKETCH_SEED."""
    return correlation_analysis.SKETCH_SEED.generator().standard_normal((d, d))


def _gram_passes(stack, rel_tol=DEFAULT_RANK_TOL, m=None, gain=True):
    """The Cholesky test at m (default d) on a (k, d, d) stack of unit-norm matrices, in one batch.

    Below d each matrix is sketched by SKETCH_SEED's G1, and s carries the
    gain ||G1[:m]||_2 unless ``gain`` is False.
    """
    d = stack.shape[-1]
    m = m or d
    g1 = _sketch_g1(d)
    floor = (rel_tol + correlation_analysis.SKETCH_ROUNDING * d * d * correlation_analysis.UNIT_ROUNDOFF)
    if m < d and gain:
        floor *= np.linalg.norm(g1[:m], 2)
    scratch = np.empty((3, stack.size), dtype=np.complex128)
    return correlation_analysis._gram_test(stack, m, g1, floor**2, scratch)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rank_deficient_batch(d, rank, count, seed):
    """``count`` unit-norm d x d products of d x rank and rank x d Gaussians."""
    rng = np.random.default_rng(seed)
    products = _gaussian(rng, count, d, rank) @ _gaussian(rng, count, rank, d)
    return products / np.linalg.norm(products, axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("d,m,seed", [
    pytest.param(8, 8, 8108, id="8"),
    pytest.param(64, 64, 8164, id="64"),
    *(pytest.param(64, m, 8400 + m, id=f"d64-m{m}") for m in (2, 8, 32)),
])
def test_cholesky_test_passes_no_rank_deficient_product(monkeypatch, d, m, seed):
    # Each product has rank m - 1, so the computed sigma_m of it (m = d) or
    # of its sketch G1[:m] M (m < d) is a rounding error, far below s.  At
    # rel_tol 1e-10 s^2 is below the rounding of the Gram product, so the
    # rounding term of the shift is what keeps these from passing: without
    # it, about half of them pass.
    batch = _rank_deficient_batch(d, m - 1, 300, seed)
    assert not _gram_passes(batch, m=m).any()
    monkeypatch.setattr(correlation_analysis, "GRAM_ROUNDING", 0.0)
    assert _gram_passes(batch, m=m).sum() > 60


@pytest.mark.parametrize("d,m", [(8, 3), (64, 32)])
def test_sketch_is_the_complex_product_with_the_real_draw(monkeypatch, d, m):
    # _gram_test multiplies the real G1[:m] into the stack viewed as float64,
    # (d, 2d) per cut with real and imaginary parts interleaved.  Each
    # batch's sketches, read from the sketch buffer as the batch reaches the
    # Cholesky test, must be G1[:m] M in complex arithmetic, up to the
    # docstring's rounding d sqrt(m) u ||G1[:m]||_2 ||M||_F for each of the
    # two products.  10 cuts in batches of 4 end in a partial batch; the
    # compacted stack is its buffer's prefix after 5 cuts moved forward.
    g1 = _sketch_g1(d)
    buffer = _gaussian(np.random.default_rng(8500 + d), 10, d, d)
    scratch = np.empty((3, 4 * m * d), dtype=np.complex128)
    seen = []
    cholesky_mask = correlation_analysis._cholesky_mask

    def recording_mask(grams):
        seen.append(scratch[0][:len(grams) * m * d].reshape(-1, m, d).copy())
        return cholesky_mask(grams)

    monkeypatch.setattr(correlation_analysis, "_cholesky_mask", recording_mask)
    rounding = d * math.sqrt(m) * correlation_analysis.UNIT_ROUNDOFF * np.linalg.norm(g1[:m], 2)

    def check(stack, batches):
        seen.clear()
        correlation_analysis._gram_test(stack, m, g1, 0.0, scratch)
        assert [len(batch) for batch in seen] == batches
        want = g1[:m].astype(np.complex128) @ stack
        error = np.linalg.norm(np.concatenate(seen) - want, 2, axis=(1, 2))
        assert (error <= 2 * rounding * np.linalg.norm(stack, axis=(1, 2))).all()

    check(buffer, [4, 4, 2])
    kept = [1, 4, 5, 8, 9]
    for j, k in enumerate(kept):
        buffer[j] = buffer[k]
    check(buffer[:len(kept)], [4, 1])


def test_sketch_gains_lie_in_the_norm_range_comments_bounds():
    # The SKETCH_NORM_RANGE comment bounds the gain ||G1[:m]||_2, m < d, of
    # the fixed draw by 2^-1 < gain < 2^6 for every d that rank-scaling
    # reaches, d = 2^(n/2) for even n up to STREAM_LIMIT; adding rows never
    # lowers a 2-norm, so G1[:1] and G1[:d-1] bound every m < d.  Its
    # overflow and underflow steps then follow from the constants.
    lows, highs = [], []
    for n in range(2, STREAM_LIMIT + 1, 2):
        g1 = _sketch_g1(2 ** (n // 2))
        lows.append(np.linalg.norm(g1[0]))
        highs.append(math.sqrt(np.linalg.eigvalsh(g1[:-1] @ g1[:-1].T)[-1]))
    assert 2**-1 < min(lows) and max(highs) < 2**6
    assert (round(min(lows), 3), round(max(highs), 1)) == (0.569, 63.7)
    low, high = correlation_analysis.SKETCH_NORM_RANGE
    u, rounding = correlation_analysis.UNIT_ROUNDOFF, correlation_analysis.SKETCH_ROUNDING
    assert 2**7 * high <= 2**263 and rounding * 2**2 * u * 2**-1 * low >= 2**-303


def test_cholesky_stack_with_a_failing_cut_gives_the_per_cut_mask():
    rng = np.random.default_rng(8164)
    stack = _gaussian(rng, 9, 16, 16)
    stack /= np.linalg.norm(stack, axis=(1, 2), keepdims=True)
    stack[3] = _rank_deficient_batch(16, 15, 1, 8165)[0]
    alone = [bool(_gram_passes(matrix[np.newaxis])[0]) for matrix in stack]
    assert alone == [k != 3 for k in range(9)]
    assert _gram_passes(stack).tolist() == alone


@pytest.mark.parametrize("failing", [{0}, {63}, {3, 40}, set(range(64))], ids=["0", "63", "3,40", "all"])
def test_cholesky_mask_is_the_per_matrix_mask(monkeypatch, failing):
    # 64 positive definite Gram matrices, those listed made indefinite.
    rng = np.random.default_rng(8166)
    y = _gaussian(rng, 64, 8, 8)
    grams = y @ y.conj().transpose(0, 2, 1) + 8 * np.eye(8)
    for k in failing:
        grams[k, 5, 5] = -1.0
    alone = []
    for gram in grams:
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            alone.append(False)
        else:
            alone.append(True)
    assert alone == [k not in failing for k in range(64)]
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a))
    assert correlation_analysis._cholesky_mask(grams).tolist() == alone
    if len(failing) == 1:
        # The stack, both halves of each failing part down to 4, then 4 single calls.
        assert len(calls) <= 13


def test_sketched_scan_working_set_is_its_lane_buffers():
    # The bound allows each of the 2 lanes 3 arrays of 16 x 64 x 64 complex
    # (1 MiB each) at n = 12; a lane holds its 1 MiB stack buffer and three
    # quarter-stack test buffers (sketches, conjugates, Gram matrices).  The
    # 1 MiB margin holds the real Gaussian draw G1 (32 KiB) and the Cholesky
    # and SVD outputs.  The 462 cut matrices at once would take 28.9 MiB.
    master = SeedSpec(1).child(1)
    state = _u0(random_two_qubit_circuit(12, 24, master.child(0)))
    tracemalloc.start()
    try:
        assert min_equipartition_rank(state, seed=master.child(1), workers=2) == 32
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lane_buffers = 2 * 3 * 16 * 64 * 64 * 16
    assert peak < lane_buffers + 2**20


def test_rank_bound_scan_exhaustive_count_and_floors():
    config = Dqc1Config(1.0, haar_unitary(8, SeedSpec(63)))
    report = rank_bound_scan(config, num_cuts=None)
    expected = sum(math.comb(8, a) for a in (2, 3, 5, 6))
    assert len(report.records) == expected
    for record in report.records:
        reg_a = len(record.side_a) - 1
        assert record.window_size == min(reg_a, 8 - reg_a)
        assert 2 <= record.window_size <= 3
        assert record.rank_floor == 2**record.window_size
        assert record.side_a[0] == 0
    assert report.all_meet_floor
    # asking for the whole population is the exhaustive scan
    assert rank_bound_scan(config, num_cuts=expected, seed=SeedSpec(63)) == report


def test_rank_bound_scan_sampled_mode():
    config = Dqc1Config(1.0, haar_unitary(10, SeedSpec(64)))
    report = rank_bound_scan(config, num_cuts=20, seed=SeedSpec(65))
    assert [list(r.side_a) for r in report.records] == PINNED_BOUND_SCAN_N10
    assert report.all_meet_floor
    assert report.min_rank >= 4  # 2^ceil(10/5)


def _scan_index(seed: SeedSpec, task_id: int, reg_a: int, n: int) -> tuple[int, int, int]:
    """The probe (t, i, j) a randomized scan draws for its task_id-th cut."""
    rng = seed.child(task_id).generator()
    return int(rng.integers(2)), int(rng.integers(2**reg_a)), int(rng.integers(2 ** (n - reg_a)))


def _oracle_probe(
    u: np.ndarray, tau: float, side_a: tuple[int, ...], t: int, i: int, j: int
) -> np.ndarray:
    """Column (t,i,j) of the dense joint state; side_a holds the top qubit."""
    n = u.shape[0].bit_length() - 1
    dim = 2**n
    rho = np.eye(2 * dim, dtype=np.complex128)
    rho[:dim, dim:] = tau * u.conj().T
    rho[dim:, :dim] = tau * u
    x = oracles.register_index(n, tuple(q - 1 for q in side_a[1:]), i, j)
    return rho[:, t * dim + x] / (2 * dim)


@pytest.mark.parametrize("randomize", [False, True])
def test_circuit_rank_bound_scan_matches_per_cut_oracle(randomize):
    n, tau, seed = 7, 0.7, SeedSpec(69)
    circuit = random_two_qubit_circuit(n, 4 * n, SeedSpec(70))
    u = oracles.circuit_matrix(circuit)
    config = Dqc1Config(tau, circuit)
    report = rank_bound_scan(config, num_cuts=25, seed=seed, randomize_index=randomize)
    indices = set()
    for task_id, record in enumerate(report.records):
        reg_a = len(record.side_a) - 1
        t, i, j = _scan_index(seed, task_id, reg_a, n) if randomize else (0, 0, 0)
        indices.add(t)
        psi = _oracle_probe(u, tau, record.side_a, t, i, j)
        coeffs = oracles.schmidt_coefficients(psi, n + 1, record.side_a)
        assert np.abs(coeffs[:4] - record.spectrum_head).max() < 1e-12
        # the Gram-matrix oracle resolves coefficients to ~1e-8 relative
        assert record.rank == np.count_nonzero(coeffs > 1e-6 * coeffs[0])
    assert indices == ({0, 1} if randomize else {0})


_UNITARY_BUILDERS = {
    "haar": haar_unitary,
    "product": haar_product_unitary,
    "circuit": lambda n, seed: random_two_qubit_circuit(n, 4 * n, seed),
}


@pytest.mark.parametrize("kind", sorted(_UNITARY_BUILDERS))
@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_stacked_bound_scan_is_the_dense_per_probe_path(n, kind):
    # Every record of the stacked scan against its own probe, built densely
    # by apply_to_product and cut by schmidt_decompose: the head comes from
    # the tau-scaled probe, whose min(2^{a+1}, 2^b) coefficients include the
    # zero padding, and the rank from the probe at tau = 1 (rank 1 at
    # tau = 0).  n = 5 scans every cut, so its a = 1 probes, three nonzero
    # rows, have a head padded from 3 values to 4.
    unitary = _UNITARY_BUILDERS[kind](n, SeedSpec(200 + n))
    seed = SeedSpec(300 + n)
    padded = 0
    for tau in (0.0, 1e-11, 0.6, 1.0):
        for randomize in (False, True):
            config = Dqc1Config(tau, unitary)
            num_cuts = None if n == 5 else 12
            report = rank_bound_scan(config, num_cuts, seed=seed, randomize_index=randomize)
            for task_id, record in enumerate(report.records):
                reg_a = len(record.side_a) - 1
                t, i, j = _scan_index(seed, task_id, reg_a, n) if randomize else (0, 0, 0)
                x = oracles.register_index(n, tuple(q - 1 for q in record.side_a[1:]), i, j)
                joint = Bipartition(n + 1, record.side_a)
                want = schmidt_decompose(apply_to_product(config, t, x), joint).coefficients
                assert len(record.spectrum_head) == min(4, want.size)
                error = np.abs(np.array(record.spectrum_head) - want[:4]).max()
                assert error <= 1e-12 * want[0], (tau, randomize, record.side_a)
                free = apply_to_product(Dqc1Config(1.0, unitary), t, x)
                assert record.rank == (1 if tau == 0 else rank_of(schmidt_decompose(free, joint)))
                padded += min(2**reg_a + 1, 2 ** (n - reg_a)) < len(record.spectrum_head)
    assert (padded > 0) == (n == 5)


@st.composite
def probe_scan_cases(draw):
    """(n, kind, tau, randomize, num_cuts, seed) of a bound scan at n = 5-9.

    ``num_cuts`` None scans every cut, so default-index stacks hold many
    probes; a randomized index spreads the probes over columns of both
    directions, so most of its stacks hold one.
    """
    n = draw(st.integers(5, 9))
    kind = draw(st.sampled_from(sorted(_UNITARY_BUILDERS)))
    tau = draw(st.sampled_from([0.0, 1e-11, 0.6, 1.0]))
    randomize = draw(st.booleans())
    num_cuts = draw(st.one_of(st.none(), st.integers(1, 16)))
    return n, kind, tau, randomize, num_cuts, draw(st.integers(0, 2**16))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=probe_scan_cases())
@example(case=(9, "haar", 1.0, False, None, 1))  # stacks of 36 and 84 probes
@example(case=(9, "circuit", 0.6, True, 6, 2))  # stacks of one
@example(case=(8, "product", 1e-11, True, None, 3))
def test_scan_stacks_hold_the_per_probe_writer_bits(case):
    # Every matrix the scan hands to its SVDs, against the per-probe writer
    # (oracles.probe_matrix) fed the very column the scan evolved: the same
    # multiset of (shape, bytes).  At 0 < tau < 1 each probe is filled twice,
    # once at tau and once at tau = 1 for the rank.
    n, kind, tau, randomize, num_cuts, seed_value = case
    seed = SeedSpec(seed_value)
    unitary = _UNITARY_BUILDERS[kind](n, seed)
    columns, filled, stack_sizes = {}, [], set()
    blocks, svd = correlation_analysis.column_blocks, correlation_analysis.singular_values

    def recorded_blocks(source, xs, adjoint):
        for block_xs, block in blocks(source, xs, adjoint):
            for c, x in enumerate(block_xs.tolist()):
                columns[adjoint, x] = block[:, c].copy()
            yield block_xs, block

    def recorded_svd(stack):
        stack_sizes.add(len(stack))
        filled.extend((m.shape, m.tobytes()) for m in stack)
        return svd(stack)

    correlation_analysis.column_blocks = recorded_blocks
    correlation_analysis.singular_values = recorded_svd
    try:
        report = rank_bound_scan(Dqc1Config(tau, unitary), num_cuts, seed=seed,
                                 randomize_index=randomize)
    finally:
        correlation_analysis.column_blocks = blocks
        correlation_analysis.singular_values = svd
    want = []
    for task_id, record in enumerate(report.records):
        cut = Bipartition(n, tuple(q - 1 for q in record.side_a[1:]))
        t, i, j = _scan_index(seed, task_id, cut.n_a, n) if randomize else (0, 0, 0)
        column = columns[bool(t), oracles.register_index(n, cut.side_a, i, j)]
        for scale in {tau, 1.0} if 0.0 < tau < 1.0 else {tau}:
            out = np.empty((cut.dim_a + 1, cut.dim_b), dtype=np.complex128)
            want.append((out.shape, oracles.probe_matrix(scale, cut, j, column, out).tobytes()))
    assert sorted(filled) == sorted(want)
    if num_cuts is None:
        assert max(stack_sizes) > 1 or randomize
        assert {adjoint for adjoint, _ in columns} == ({False, True} if randomize else {False})


def test_default_index_circuit_scan_evolves_one_column(monkeypatch):
    from dqc1kit import dqc1_model

    evolved = []
    kernel = dqc1_model.evolve_basis_columns

    def counting(circuit, xs, adjoint=False):
        evolved.append(len(xs))
        return kernel(circuit, xs, adjoint)

    monkeypatch.setattr(dqc1_model, "evolve_basis_columns", counting)
    config = Dqc1Config(1.0, random_two_qubit_circuit(10, 40, SeedSpec(71)))
    report = rank_bound_scan(config, num_cuts=20, seed=SeedSpec(72))
    assert len(report.records) == 20
    assert evolved == [1]
    evolved.clear()
    seed = SeedSpec(73)
    report = rank_bound_scan(config, num_cuts=20, seed=seed, randomize_index=True)
    keys = set()
    for task_id, record in enumerate(report.records):
        t, i, j = _scan_index(seed, task_id, len(record.side_a) - 1, 10)
        register_side = tuple(q - 1 for q in record.side_a[1:])
        keys.add((t, oracles.register_index(10, register_side, i, j)))
    # every distinct column once, in one pass per direction (U and U-dagger)
    assert sum(evolved) == len(keys) and len(evolved) == 2


def test_fused_plan_is_built_once_per_circuit(monkeypatch):
    from dqc1kit import dqc1_model, randomness

    planned = []
    planner = randomness.plan_blocks

    def counting_planner(gates):
        planned.append(len(gates))
        return planner(gates)

    directions = []
    kernel = dqc1_model.evolve_basis_columns

    def counting_kernel(circuit, xs, adjoint=False):
        directions.append(adjoint)
        return kernel(circuit, xs, adjoint)

    monkeypatch.setattr(randomness, "plan_blocks", counting_planner)
    monkeypatch.setattr(dqc1_model, "evolve_basis_columns", counting_kernel)
    circuit = random_two_qubit_circuit(10, 40, SeedSpec(74))
    config = Dqc1Config(1.0, circuit)
    report = rank_bound_scan(config, num_cuts=300, seed=SeedSpec(75), randomize_index=True)
    assert len(report.records) == 300
    # several column blocks in each direction, then the streamed trace
    assert directions.count(False) >= 2 and directions.count(True) >= 2
    normalized_trace(circuit)
    assert planned == [40]


def test_rank_bound_scan_product_unitary_collapses():
    config = Dqc1Config(1.0, haar_product_unitary(6, SeedSpec(66)))
    report = rank_bound_scan(config, num_cuts=None)
    assert report.min_rank <= 2
    assert not report.all_meet_floor


def test_rank_bound_scan_zero_polarization():
    config = Dqc1Config(0.0, haar_unitary(6, SeedSpec(67)))
    report = rank_bound_scan(config, num_cuts=None)
    assert {r.rank for r in report.records} == {1}


def test_rank_bound_scan_monotone_in_polarization():
    u = haar_unitary(6, SeedSpec(68))
    floor_0 = rank_bound_scan(Dqc1Config(0.0, u), num_cuts=None).min_rank
    for tau in (0.2, 1.0):
        assert (
            rank_bound_scan(Dqc1Config(tau, u), num_cuts=None).min_rank >= floor_0
        )


@pytest.mark.parametrize("build,n,kind", [(haar_unitary, 9, "qr"), (haar_product_unitary, 8, "kron")])
def test_default_index_scan_never_builds_the_dense_matrix(dense_builds, build, n, kind):
    u = build(n, SeedSpec(83))
    report = rank_bound_scan(Dqc1Config(1.0, u), num_cuts=None)
    assert [b for b in dense_builds if b[0] == kind] == []
    # The matrix built afterwards gives the same scan, bit for bit.
    assert rank_bound_scan(Dqc1Config(1.0, DenseOperator(n, u.matrix)), num_cuts=None) == report


@pytest.mark.parametrize("use", ["randomized scan", "truncation", "normalized trace"])
def test_haar_matrix_is_built_once_when_a_use_reads_past_the_first_column(dense_builds, use):
    n = 7
    u = haar_unitary(n, SeedSpec(85))
    assert dense_builds == []
    config = Dqc1Config(1.0, u)
    cut = Bipartition(n + 1, tuple(range(balanced_window(n)[0] + 1)))
    run = {
        "randomized scan": lambda: rank_bound_scan(
            config, num_cuts=10, seed=SeedSpec(86), randomize_index=True
        ),
        "truncation": lambda: truncation_experiment(config, cut, [1]),
        "normalized trace": lambda: normalized_trace(u),
    }[use]
    run()
    run()
    assert dense_builds == [("qr", (2**n, 2**n))]


def test_rank_bound_scan_randomized_index_deterministic():
    config = Dqc1Config(1.0, haar_unitary(7, SeedSpec(69)))
    a = rank_bound_scan(config, num_cuts=10, seed=SeedSpec(70), randomize_index=True)
    b = rank_bound_scan(config, num_cuts=10, seed=SeedSpec(70), randomize_index=True)
    assert a == b
    assert a.all_meet_floor


def test_rank_bound_scan_randomized_index_needs_a_seed():
    config = Dqc1Config(1.0, haar_unitary(6, SeedSpec(69)))
    with pytest.raises(ValueError, match="seed"):
        rank_bound_scan(config, num_cuts=None, randomize_index=True)


def test_sampled_scans_name_the_count_and_population_they_need_a_seed_for():
    config = Dqc1Config(1.0, haar_unitary(8, SeedSpec(69)))
    with pytest.raises(ValueError, match="^sampling 50 of 168 cuts needs a seed$"):
        rank_bound_scan(config)
    state = PureState(6, np.ones(2**6, dtype=np.complex128))
    for scan in (min_rank_over_equipartitions, min_equipartition_rank):
        with pytest.raises(ValueError, match="^sampling 3 of 10 cuts needs a seed$"):
            scan(state, partition_cap=3)


def test_rank_bound_scan_rejects_small_registers():
    config = Dqc1Config(1.0, haar_unitary(4, SeedSpec(71)))
    with pytest.raises(ValueError):
        rank_bound_scan(config, num_cuts=None)


def test_max_overlap_formula_cases():
    # the best overlap of norm-a psi with norm-b phi of Schmidt rank <= k is
    # a * b * truncation_fidelity(spectrum of psi, k)
    flat = SchmidtSpectrum(np.array([1.0, 1.0]) / np.sqrt(2))
    assert truncation_fidelity(flat, 1) == pytest.approx(0.7071067811865476, abs=1e-12)
    assert truncation_fidelity(flat, 2) == pytest.approx(1.0)
    assert 2.0 * 3.0 * truncation_fidelity(flat, 2) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        truncation_fidelity(flat, 3)
    # the fidelity normalizes the spectrum itself
    unnormalized = SchmidtSpectrum(np.array([1.0, 1.0]))
    assert truncation_fidelity(unnormalized, 1) == pytest.approx(
        truncation_fidelity(flat, 1), abs=1e-15
    )


def test_max_overlap_monotone_and_matches_truncation_oracle():
    rng = np.random.default_rng(72)
    for trial in range(10):
        d = int(rng.integers(2, 9))
        lam = rng.uniform(0.1, 1.0, d)
        lam = np.sort(lam / np.linalg.norm(lam))[::-1]
        spectrum = SchmidtSpectrum(lam)
        n_psi, n_phi = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        # plant the spectrum in a random matrix; best rank-k overlap is the
        # Frobenius norm of its rank-k SVD truncation times the phi norm
        q1 = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        q2 = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        m = (q1 * (n_psi * lam)) @ q2.conj().T
        sing = np.linalg.svd(m, compute_uv=False)
        prev = 0.0
        for k in range(1, d + 1):
            got = n_psi * n_phi * truncation_fidelity(spectrum, k)
            want = n_phi * math.sqrt(float(np.sum(sing[:k] ** 2)))
            assert got == pytest.approx(want, abs=1e-10)
            assert got >= prev - 1e-12
            prev = got
        assert prev == pytest.approx(n_psi * n_phi, rel=1e-12)


def test_shifted_distribution_values():
    dist = shifted_distribution(np.zeros(4))
    assert np.allclose(dist, [1 / 2 + 1 / 8, 1 / 8, 1 / 8, 1 / 8])
    extreme = majorant_distribution(1.0, 2)
    assert np.allclose(extreme, [1.0, 0.0])


def test_majorant_dominates_random_admissible_shifts():
    for trial in range(100):
        rng_seed = SeedSpec(73).child(trial)
        d = 2 * int(rng_seed.generator().integers(1, 17))
        delta = float(rng_seed.child(1).generator().uniform(0.05, 1.0))
        shifts = random_zero_sum_shifts(delta, d, rng_seed.child(2))
        assert abs(shifts.sum()) < 1e-12
        assert np.max(np.abs(shifts)) <= delta + 1e-12
        assert majorizes(majorant_distribution(delta, d), shifted_distribution(shifts))


def test_concentration_report_trivial_side():
    report = concentration_report(0, 5, 10, SeedSpec(74))
    assert report.fraction_for(0.5) == 1.0
    assert all(dev < 1e-12 for dev in report.max_deviations)
    assert all(count == 1 for count in report.nonzero_counts)


def test_concentration_report_regime_and_determinism():
    report = concentration_report(2, 9, 20, SeedSpec(75))
    assert all(count == 4 for count in report.nonzero_counts)
    assert report.fraction_for(0.5) >= 0.95
    again = concentration_report(2, 9, 20, SeedSpec(75), workers=4)
    assert again == report
    # fraction is nonincreasing as the window shrinks
    fractions = [report.fraction_for(d) for d in (0.5, 0.3, 0.1, 0.05)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    with pytest.raises(ValueError):
        concentration_report(3, 2, 5, SeedSpec(76))
    with pytest.raises(ValueError):
        concentration_report(1, 2, 0, SeedSpec(76))


def test_concentration_report_refuses_registers_past_the_limit_before_drawing(monkeypatch):
    from dqc1kit import correlation_analysis

    class Drew(Exception):
        pass

    def drew(*_args):
        raise Drew

    monkeypatch.setattr(correlation_analysis, "_stacked_singular_values", drew)
    with pytest.raises(Drew):  # n_a + n_b = 20 is accepted and reaches the draws
        concentration_report(10, 10, 1, SeedSpec(78))
    for n_a, n_b in ((10, 11), (14, 14)):
        with pytest.raises(ValueError, match="register limit 20"):
            concentration_report(n_a, n_b, 1, SeedSpec(78))


def test_concentration_report_is_the_per_sample_draws_at_any_worker_count():
    # 64 x 64 samples: stacks of 16, 16 and 8, on 1 and 3 threads
    report = concentration_report(6, 6, 40, SeedSpec(77))
    assert concentration_report(6, 6, 40, SeedSpec(77), workers=3) == report
    for k, (deviation, count) in enumerate(zip(report.max_deviations, report.nonzero_counts)):
        rng = SeedSpec(77).child(k).generator()
        v = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        sing = np.linalg.svd((v / np.linalg.norm(v)).reshape(64, 64), compute_uv=False)
        assert deviation == float(np.max(np.abs(sing**2 * 64 - 1.0)))
        assert count == rank_of(SchmidtSpectrum(sing)) == 64


def test_robust_rank_bound_values():
    both = robust_rank_bound(0.0, 0.0, 5, 1.0)
    assert both.exact_bound == pytest.approx(32.0)
    assert both.linear_bound == pytest.approx(32.0)
    mid = robust_rank_bound(0.1, 0.2, 5, 1.0)
    assert mid.exact_bound == pytest.approx(32 * (2 * 0.81 - 1) / 1.2, rel=1e-12)
    assert mid.linear_bound == pytest.approx(12.8, rel=1e-12)
    assert mid.exact_bound >= mid.linear_bound
    vacuous = robust_rank_bound(1 - 1 / np.sqrt(2) + 1e-12, 0.0, 5, 1.0)
    assert vacuous.exact_bound == pytest.approx(0.0, abs=1e-9)
    assert robust_rank_bound(0.5, 0.0, 5, 1.0).linear_bound == 0.0
    # delta >= 1 is valid: the linear floor is 0, the exact floor stays above it
    wide = robust_rank_bound(0.1, 1.5, 3, 1.0)
    assert wide.linear_bound == 0.0
    assert wide.exact_bound == pytest.approx(8 * 0.62 / 2.5, rel=1e-12)
    with pytest.raises(ValueError):
        robust_rank_bound(1.0, 0.0, 3, 1.0)
    for delta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            robust_rank_bound(0.1, delta, 3, 1.0)
    for tau in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            robust_rank_bound(0.1, 0.2, 3, tau)


def test_robust_rank_bound_below_full_polarization():
    half = robust_rank_bound(0.01, 0.1, 5, 0.5)
    assert half.linear_bound == pytest.approx(32 * (1 - 2 * 0.01 * 1.25 / 0.25 - 0.1), rel=1e-12)
    assert half.exact_bound == pytest.approx(32 * (1.25 * 0.99**2 - 1) / (0.25 * 1.1), rel=1e-12)
    # rho = I/2^{n+1} at tau = 0: no rank claim at all
    assert robust_rank_bound(0.0, 0.0, 5, 0.0) == robust_rank_bound(0.5, 3.0, 5, 0.0)
    assert robust_rank_bound(0.0, 0.0, 5, 0.0).exact_bound == 0.0
    # a lower polarization never raises a floor
    for eps, delta in [(0.0, 0.0), (0.01, 0.1), (0.05, 0.5)]:
        floors = [robust_rank_bound(eps, delta, 5, tau) for tau in (0.1, 0.3, 0.6, 1.0)]
        assert all(a.linear_bound <= b.linear_bound for a, b in zip(floors, floors[1:]))
        assert all(a.exact_bound <= b.exact_bound + 1e-12 for a, b in zip(floors, floors[1:]))


def test_robust_rank_bound_at_full_polarization_is_the_paper_floor_bit_for_bit():
    rng = np.random.default_rng(79)
    for eps, delta in rng.uniform(0.0, 0.3, (500, 2)):
        bound = robust_rank_bound(float(eps), float(delta), 4, 1.0)
        assert bound.linear_bound == 16 * max(0.0, 1.0 - 4.0 * eps - delta)
        assert bound.exact_bound == 16 * max(0.0, (2.0 * (1.0 - eps) ** 2 - 1.0) / (1.0 + delta))
    config = Dqc1Config(1.0, haar_unitary(7, SeedSpec(80)))
    for row in truncation_experiment(config, Bipartition(8, (0, 1, 2))):
        assert row.linear_bound == 4 * max(0.0, 1.0 - 4.0 * row.epsilon - row.delta_hat)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.sampled_from([5, 6]),
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(TRUNCATION_MIN_TAU, 1.0),
)
def test_truncation_floor_holds_for_any_resolvable_polarization(n, seed, tau):
    config = Dqc1Config(tau, haar_unitary(n, SeedSpec(seed)))
    window = balanced_window(n)[0]
    rows = truncation_experiment(config, Bipartition(n + 1, tuple(range(window + 1))))
    for row in rows:
        assert row.bound_satisfied
        bound = robust_rank_bound(row.epsilon, row.delta_hat, window, tau)
        assert bound.linear_bound == row.linear_bound
        assert bound.linear_bound <= bound.exact_bound <= row.rank + 1e-9


@pytest.mark.parametrize("tau", [5e-324, 1e-12, 1.5e-8, 0.99e-6])
def test_truncation_refuses_an_unresolvable_polarization(tau):
    # below TRUNCATION_MIN_TAU a double rounds F to 1 and the floor to d(1 - delta)
    config = Dqc1Config(tau, haar_unitary(5, SeedSpec(82)))
    with pytest.raises(ValueError, match="polarization"):
        truncation_experiment(config, Bipartition(6, (0, 1)))


def test_truncation_experiment_endpoints():
    config = Dqc1Config(1.0, haar_unitary(6, SeedSpec(77)))
    cut = Bipartition(7, (0, 1, 2))
    rows = truncation_experiment(config, cut)
    assert rows[-1].fidelity == pytest.approx(1.0, abs=1e-12)
    assert rows[-1].bound_satisfied
    spectrum = operator_schmidt_decompose(final_state(config), cut)
    assert rows[0].fidelity == pytest.approx(
        float(spectrum.coefficients[0] / np.linalg.norm(spectrum.coefficients)),
        abs=1e-10,
    )
    assert rows[0].fidelity == pytest.approx(truncation_fidelity(spectrum, 1), abs=1e-10)
    full_rank = len(rows)
    assert full_rank == rank_of(spectrum)
    with pytest.raises(ValueError):
        truncation_experiment(config, cut, ranks=[full_rank + 1])
    with pytest.raises(ValueError):
        truncation_experiment(config, Bipartition(7, (0, 1)), ranks=[1])  # window 1 < 2


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("tau", [1.0, 0.6])
def test_truncation_experiment_matches_reconstruction_oracle(n, tau):
    # every row against the rank-r SVD reconstruction of the entrywise
    # realigned state, and delta_hat against the Gram-matrix Schmidt
    # coefficients of U|0> across the register cut
    u = haar_unitary(n, SeedSpec(81).child(n))
    config = Dqc1Config(tau, u)
    side_a = tuple(range(balanced_window(n)[0] + 1))
    rows = truncation_experiment(config, Bipartition(n + 1, side_a))
    realigned = oracles.realign_entrywise(final_state(config).matrix, n + 1, side_a)
    left, sing, right = np.linalg.svd(realigned)
    norm = np.linalg.norm(realigned)
    window = min(len(side_a) - 1, n + 1 - len(side_a))
    register_side = tuple(q - 1 for q in side_a if q != 0)
    coeffs = oracles.schmidt_coefficients(u.matrix[:, 0], n, register_side)
    delta_hat = float(np.max(np.abs(coeffs[: 2**window] ** 2 * 2**window - 1.0)))
    assert [row.rank for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        r = row.rank
        truncated = (left[:, :r] * sing[:r]) @ right[:r]
        want = np.vdot(realigned, truncated).real / (norm * np.linalg.norm(truncated))
        assert abs(row.fidelity - want) <= 1e-12
        assert abs(row.delta_hat - delta_hat) <= 1e-14


def test_truncation_experiment_refuses_a_cut_without_the_top_qubit():
    config = Dqc1Config(1.0, haar_unitary(5, SeedSpec(78)))
    assert len(truncation_experiment(config, Bipartition(6, (0, 1)), ranks=[2, 5])) == 2
    with pytest.raises(ValueError, match="side A must hold the top qubit 0"):
        truncation_experiment(config, Bipartition(6, (2, 3, 4, 5)), ranks=[2, 5])


def test_truncation_experiment_refuses_an_empty_rank_list():
    config = Dqc1Config(1.0, haar_unitary(5, SeedSpec(78)))
    with pytest.raises(ValueError, match="at least one rank"):
        truncation_experiment(config, Bipartition(6, (0, 1)), ranks=[])


def test_tree_graph_validation():
    TreeGraph(3, ((0, 3), (1, 3), (2, 3)))
    with pytest.raises(ValueError):
        TreeGraph(3, ((0, 1), (1, 2)))  # leaf with degree 2
    with pytest.raises(ValueError):
        TreeGraph(4, ((0, 4), (1, 4), (2, 4), (3, 4)))  # degree-4 internal
    with pytest.raises(ValueError):
        TreeGraph(4, ((0, 4), (1, 4), (2, 5), (3, 5)))  # disconnected
    with pytest.raises(ValueError):
        TreeGraph(2, ((0, 1), (0, 1)))  # duplicate edge
    with pytest.raises(ValueError):
        TreeGraph(2, ((0, 1), (2, 2)))  # self-loop
    with pytest.raises(ValueError):
        TreeGraph(3, ((0, 3), (1, 3), (2, 3), (3, 3)))  # self-loop on an internal node


def test_tree_graph_builds_one_adjacency_and_walks_it():
    tree = TreeGraph(3, ((3, 0), (1, 3), (2, 3)))
    assert tree.adjacency == {0: [3], 1: [3], 2: [3], 3: [0, 1, 2]}
    assert tree.adjacency is tree.adjacency
    parent, order = tree.bfs
    assert order == (0, 3, 1, 2)
    assert parent == {0: -1, 3: 0, 1: 3, 2: 3}


def test_random_degree3_tree_structure():
    for leaves in (2, 3, 6, 17):
        tree = random_degree3_tree(leaves, SeedSpec(79).child(leaves))
        assert tree.num_leaves == leaves
        degree: dict[int, int] = {}
        for u, v in tree.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for node, deg in degree.items():
            assert deg == (1 if node < leaves else 3)
    same = random_degree3_tree(12, SeedSpec(80))
    assert same == random_degree3_tree(12, SeedSpec(80))


@pytest.mark.parametrize("seed", [0, 84, 2**64 - 1])
def test_random_degree3_tree_picks_are_the_per_leaf_draws(seed):
    # One integers() call over the bounds 1, 3, ..., 2 leaves - 5 must give
    # the per-leaf draws integers(len(edges)) that grow the tree, and leave
    # the generator where they leave it.
    for leaves in range(6, 65):
        spec = SeedSpec(seed).child(leaves)
        rng = spec.generator()
        edges = [(0, 1)]
        for leaf, middle in zip(range(2, leaves), count(leaves)):
            u, v = edges.pop(int(rng.integers(len(edges))))
            edges.extend([(u, middle), (middle, v), (middle, leaf)])
        assert random_degree3_tree(leaves, spec) == TreeGraph(leaves, tuple(edges))
        at_once = spec.generator()
        at_once.integers(np.arange(1, 2 * leaves - 4, 2))
        assert at_once.bit_generator.state == rng.bit_generator.state


def test_balanced_tree_edge_binary_tree():
    # complete binary tree over 8 leaves; balanced window for n = 7 is [2, 2]
    edges = [(8, 9), (8, 10), (9, 11), (9, 12), (10, 13), (10, 14)]
    edges += [(11, 0), (11, 1), (12, 2), (12, 3), (13, 4), (13, 5), (14, 6), (14, 7)]
    tree = TreeGraph(8, tuple(edges))
    edge, n_0 = balanced_tree_edge(tree)
    assert n_0 == 2
    sides = oracles.tree_split_sizes(tree.edges, 8, edge)
    assert min(sides) == 2


def test_balanced_tree_edge_caterpillar():
    # path of internal nodes with pendant leaves; 11 leaves, n = 10
    edges = [(11, 0), (11, 1), (11, 12)]
    for k in range(1, 9):
        internal = 11 + k
        edges.append((internal, k + 1))
        if k < 8:
            edges.append((internal, internal + 1))
    edges.append((19, 10))
    tree = TreeGraph(11, tuple(edges))
    edge, n_0 = balanced_tree_edge(tree)
    assert 2 <= n_0 <= 4
    sides = oracles.tree_split_sizes(tree.edges, 11, edge)
    assert min(sides) == n_0


def test_balanced_tree_edge_always_found_on_random_trees():
    for trial in range(300):
        leaves = 6 + trial % 59  # 6..64
        tree = random_degree3_tree(leaves, SeedSpec(81).child(trial))
        edge, n_0 = balanced_tree_edge(tree)
        n = leaves - 1
        low, high = balanced_window(n)
        assert low <= n_0 <= high
        sides = oracles.tree_split_sizes(tree.edges, leaves, edge)
        assert min(sides) == n_0


def test_balanced_tree_edge_requires_enough_leaves():
    tree = random_degree3_tree(5, SeedSpec(82))
    with pytest.raises(ValueError):
        balanced_tree_edge(tree)


def test_claim_falsified_is_raised_for_impossible_window():
    # a star-of-paths tree cannot be built with degree <= 3 and fail, so
    # exercise the falsification path directly on a doctored window by
    # shrinking the tree below any qualifying split: a 6-leaf double star
    # always has the 3:3 edge, so instead verify the exception type exists
    # and is raised by construction from an exhaustive check.
    tree = random_degree3_tree(6, SeedSpec(83))
    edge, n_0 = balanced_tree_edge(tree)
    assert isinstance(ClaimFalsified("x"), Exception)
    assert 1 <= n_0 <= 2
