"""End-to-end acceptance gate.

Each test certifies one headline claim at desk scale and emits a single
``[PASS]``/``[FAIL]`` verdict line into the terminal summary.  Master seed
1 is fixed for every randomized criterion; the verdicts are therefore
reproducible bit for bit.
"""

import json
import statistics
import time
from itertools import combinations

import numpy as np

from dqc1kit import (
    Bipartition,
    DenseOperator,
    Dqc1Config,
    PureState,
    SchmidtSpectrum,
    SeedSpec,
    apply_circuit,
    basis_state,
    circuit_unitary,
    concentration_report,
    final_state,
    haar_product_unitary,
    haar_unitary,
    min_rank_over_equipartitions,
    normalized_trace,
    operator_schmidt_decompose,
    random_two_qubit_circuit,
    rank_bound_scan,
    rank_of,
    robust_rank_bound,
    schmidt_decompose,
    simulate_trace_estimation,
    truncation_experiment,
    truncation_fidelity,
    write_cmat,
)
from dqc1kit.cli import main as cli_main

from conftest import record_verdict
from lemmas import (
    majorant_distribution,
    majorizes,
    random_density_matrix,
    random_zero_sum_shifts,
    shifted_distribution,
)

MASTER = SeedSpec(1)


def verdict(label: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}"
    record_verdict(line)
    print(line)
    assert passed, line


def test_median_equipartition_rank_scaling():
    started = time.perf_counter()
    sizes = (4, 6, 8, 10, 12)
    tasks = [(n, s) for n in sizes for s in range(10)]
    min_ranks: dict[int, list[int]] = {n: [] for n in sizes}
    for task_id, (n, _s) in enumerate(tasks):
        task_seed = MASTER.child(task_id)
        circuit = random_two_qubit_circuit(n, 2 * n, task_seed.child(0))
        state = apply_circuit(circuit, basis_state(n, 0))
        min_ranks[n].append(min_rank_over_equipartitions(state).min_rank)
    elapsed = time.perf_counter() - started
    failures = []
    medians = {}
    for n in sizes:
        med = statistics.median(min_ranks[n])
        medians[n] = med
        target = 2 ** (n // 2)
        if n >= 8:
            if med != target:
                failures.append(f"n={n} median {med} != {target}")
        elif med < target / 2:
            failures.append(f"n={n} median {med} < {target // 2}")
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s > 300s")
    detail = (
        "medians " + ", ".join(f"n={n}:{medians[n]:g}" for n in sizes)
        + f" in {elapsed:.1f}s"
    )
    if failures:
        detail += " | " + "; ".join(failures)
    verdict(
        "median equipartition rank grows as 2^(n/2) over 10 random circuits per size",
        not failures,
        detail,
    )


def test_balanced_cut_rank_floors_exhaustive():
    started = time.perf_counter()
    config = Dqc1Config(8, 1.0, haar_unitary(8, MASTER.child(0)))
    report = rank_bound_scan(config, exhaustive=True)
    elapsed = time.perf_counter() - started
    ok = report.all_meet_floor and report.min_rank >= 4 and elapsed < 60
    verdict(
        "every balanced cut of the 8-qubit joint state meets its 2^window rank floor",
        ok,
        f"{len(report.records)} cuts, min rank {report.min_rank}, "
        f"floor 4, {elapsed:.1f}s",
    )


def test_pure_state_operator_rank_square():
    mismatches = 0
    checked = 0
    for trial in range(50):
        n = 4 if trial % 2 == 0 else 6
        seed = MASTER.child(trial)
        rng = seed.generator()
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = PureState(n, vec / np.linalg.norm(vec))
        size_a = int(rng.integers(1, n))
        side_a = tuple(sorted(rng.choice(n, size=size_a, replace=False).tolist()))
        cut = Bipartition(n, side_a)
        chi = rank_of(schmidt_decompose(state, cut))
        projector = DenseOperator(n, np.outer(state.amplitudes, state.amplitudes.conj()))
        chi_sharp = rank_of(operator_schmidt_decompose(projector, cut))
        checked += 1
        if chi_sharp != chi**2:
            mismatches += 1
    verdict(
        "operator rank of a pure-state projector equals the squared state rank",
        mismatches == 0,
        f"{checked} random states (n in {{4,6}}), {mismatches} mismatches",
    )


def _product_cut_ranks(n: int, seed: SeedSpec) -> list[tuple[Bipartition, int]]:
    """Operator rank on every top-on-A cut of the joint state for a product U."""
    config = Dqc1Config(n, 1.0, haar_product_unitary(n, seed))
    rho = final_state(config)
    ranks = []
    for size in range(0, n):
        for combo in combinations(range(1, n + 1), size):
            cut = Bipartition(n + 1, (0,) + combo)
            ranks.append((cut, rank_of(operator_schmidt_decompose(rho, cut))))
    return ranks


def test_product_unitary_rank_collapse():
    # With the control on side A the operator rank is dim span{I_B, U_B,
    # U_B^dag}: 3 for generic product U when side B keeps >= 2 register
    # qubits, and 2 when it keeps one, since by Cayley-Hamilton
    # V^dag = (tr V * I - V) / det V lies in span{I, V} for any 2x2 unitary V.
    offenders = []
    details = []
    for task_id, n in enumerate((5, 7)):
        census: dict[int, int] = {}
        for cut, rank in _product_cut_ranks(n, MASTER.child(task_id)):
            census[rank] = census.get(rank, 0) + 1
            expected = 2 if cut.n_b == 1 else 3
            if rank != expected:
                offenders.append(f"n={n} cut {cut.side_a} rank {rank} != {expected}")
        details.append(
            f"n={n}: " + ", ".join(f"rank {r} x{c}" for r, c in sorted(census.items()))
        )
    detail = "; ".join(details)
    if offenders:
        detail += " | " + "; ".join(offenders)
    verdict(
        "product-of-single-qubit-gates state has operator rank 3 on every cut, "
        "2 where side B keeps one register qubit",
        not offenders,
        detail,
    )


def test_product_unitary_rank_refined():
    # companion to the criterion above at n=5: a single-qubit side B gives
    # rank 2 because V^dag lies in span{I, V} for any 2x2 unitary V
    # (Cayley-Hamilton); side B with >= 2 register qubits gives rank 3
    for cut, rank in _product_cut_ranks(5, MASTER.child(0)):
        expected = 2 if cut.n_b == 1 else 3
        assert rank == expected, (cut.side_a, rank, expected)


def test_max_overlap_oracle_equivalence():
    worst = 0.0
    for trial in range(100):
        seed = MASTER.child(trial)
        rng = seed.generator()
        d = int(rng.integers(2, 33))
        lam = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
        lam /= np.linalg.norm(lam)
        n_psi = float(rng.uniform(0.5, 2.0))
        n_phi = float(rng.uniform(0.5, 2.0))
        spectrum = SchmidtSpectrum(lam)
        q1 = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        q2 = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        planted = (q1 * (n_psi * lam)) @ q2.conj().T
        sing = np.linalg.svd(planted, compute_uv=False)
        for chi_prime in range(1, d + 1):
            got = n_psi * n_phi * truncation_fidelity(spectrum, chi_prime)
            oracle = n_phi * float(np.sqrt(np.sum(sing[:chi_prime] ** 2)))
            worst = max(worst, abs(got - oracle))
    verdict(
        "best rank-limited overlap matches the truncated-SVD oracle",
        worst <= 1e-10,
        f"100 spectra (d <= 32), all rank limits, max deviation {worst:.2e}",
    )


def test_spectrum_sum_majorization():
    violations = 0
    for trial in range(1000):
        seed = MASTER.child(trial)
        num_qubits = 1 + trial % 4  # d in {2, 4, 8, 16}
        rho_x = random_density_matrix(num_qubits, seed.child(0))
        rho_y = random_density_matrix(num_qubits, seed.child(1))
        x = np.sort(np.linalg.eigvalsh(rho_x))[::-1]
        y = np.sort(np.linalg.eigvalsh(rho_y))[::-1]
        mixed = np.linalg.eigvalsh((rho_x + rho_y) / 2)
        if not majorizes((x + y) / 2, mixed, tol=1e-10):
            violations += 1
    verdict(
        "sorted-spectrum average majorizes the spectrum of the mixture",
        violations == 0,
        f"1000 density-matrix pairs (d <= 16), {violations} violations",
    )


def test_shifted_distribution_majorant():
    violations = 0
    for trial in range(1000):
        seed = MASTER.child(trial)
        d = 2 * int(seed.generator().integers(1, 33))  # even d <= 64
        delta = float(seed.child(1).generator().uniform(0.01, 1.0))
        shifts = random_zero_sum_shifts(delta, d, seed.child(2))
        if not majorizes(majorant_distribution(delta, d), shifted_distribution(shifts)):
            violations += 1
    verdict(
        "extremal two-level distribution majorizes every admissible shifted one",
        violations == 0,
        f"1000 zero-sum shift vectors (even d <= 64), {violations} violations",
    )


def test_reduction_spectrum_concentration():
    report = concentration_report(2, 9, 0.5, 200, MASTER)
    counts_ok = all(count == 4 for count in report.nonzero_counts)
    ok = report.fraction_within >= 0.99 and counts_ok
    verdict(
        "reduced spectra of random 2x9-qubit states concentrate near uniform",
        ok,
        f"fraction within delta=0.5 ball: {report.fraction_within:.3f} "
        f"(need >= 0.99), all eigenvalue counts == 4: {counts_ok}",
    )


def test_truncation_floor_certification():
    config = Dqc1Config(7, 1.0, haar_unitary(7, MASTER.child(0)))
    table = truncation_experiment(config, Bipartition(8, (0, 1, 2)))
    sweep_ok = all(row.bound_satisfied for row in table)
    grid_worst = 0.0
    for eps in np.linspace(0.0, 0.25, 100):
        for delta in np.linspace(0.0, 1.0, 100):
            bound = robust_rank_bound(float(eps), float(delta), 5)
            grid_worst = max(grid_worst, bound.linear_bound - bound.exact_bound)
    grid_ok = grid_worst <= 1e-12
    verdict(
        "every truncation rank satisfies the robust rank floor",
        sweep_ok and grid_ok,
        f"full sweep over {len(table)} ranks satisfied: {sweep_ok}; "
        f"exact floor >= linear floor on 100x100 grid: {grid_ok}",
    )


def test_trace_estimation_accuracy():
    shots = 10_000
    threshold = 4 / np.sqrt(shots)
    within = 0
    path_mismatches = 0
    for run in range(100):
        seed = MASTER.child(run)
        circuit = random_two_qubit_circuit(6, 12, seed.child(0))
        exact = normalized_trace(circuit)
        path_mismatches += exact != normalized_trace(circuit_unitary(circuit))
        config = Dqc1Config(6, 1.0, circuit)
        estimate = simulate_trace_estimation(config, shots, seed.child(1))
        delta = estimate.estimate - exact
        if abs(delta.real) <= threshold and abs(delta.imag) <= threshold:
            within += 1
    ok = within >= 95 and path_mismatches == 0
    verdict(
        "shot-based trace estimates land within 4/sqrt(shots) of the exact value",
        ok,
        f"{within}/100 runs within {threshold:.3f} componentwise (need >= 95); "
        f"streamed circuit trace differs from the dense trace in {path_mismatches}/100",
    )


def test_zero_polarization_degeneracy():
    config = Dqc1Config(6, 0.0, haar_unitary(6, MASTER.child(0)))
    rho = final_state(config)
    degenerate_ok = True
    for size in range(0, 6):
        for combo in combinations(range(1, 7), size):
            cut = Bipartition(7, (0,) + combo)
            if rank_of(operator_schmidt_decompose(rho, cut)) != 1:
                degenerate_ok = False
    min_ranks = {}
    for tau in (0.1, 0.5):
        tiny = Dqc1Config(8, tau, haar_unitary(8, MASTER.child(0)))
        report = rank_bound_scan(tiny, num_cuts=30, seed=MASTER.child(2))
        min_ranks[tau] = report.min_rank
    tiny_ok = all(rank >= 4 for rank in min_ranks.values())
    verdict(
        "zero polarization collapses all cuts to rank 1 while tiny polarization keeps the floor",
        degenerate_ok and tiny_ok,
        f"tau=0: all 63 cuts rank 1: {degenerate_ok}; "
        f"min rank at tau=0.1: {min_ranks[0.1]}, tau=0.5: {min_ranks[0.5]} (need >= 4)",
    )


def test_cli_byte_determinism(tmp_path, capsys):
    cmat = tmp_path / "u3.cmat"
    write_cmat(cmat, haar_unitary(3, SeedSpec(7)).matrix)
    commands = {
        "rank-scaling": ["rank-scaling", "--n-list", "4,6", "--seeds", "2"],
        "bound-scan": ["bound-scan", "--n", "6", "--cuts", "8"],
        "concentration": ["concentration", "--na", "1", "--nb", "5", "--samples", "8"],
        "trace-estimate": ["trace-estimate", "--cmat", str(cmat), "--shots", "5000"],
        "tree-edge": ["tree-edge", "--leaves", "8", "--trees", "5"],
        "truncation": ["truncation", "--n", "5"],
    }
    unstable = []
    for name, argv in commands.items():
        outputs = []
        for workers in ("1", "1", "4"):
            code = cli_main(argv + ["--seed", "7", "--workers", workers])
            outputs.append((code, capsys.readouterr().out))
        if len(set(outputs)) != 1 or outputs[0][0] != 0:
            unstable.append(name)
    verdict(
        "every CLI subcommand is byte-identical across reruns and worker counts",
        not unstable,
        f"{len(commands)} subcommands at seed 7, workers {{1,4}}"
        + (f"; unstable: {', '.join(unstable)}" if unstable else ""),
    )


def test_cli_report_is_machine_readable(tmp_path, capsys):
    # not a headline criterion: guards the documented report schema
    code = cli_main(["bound-scan", "--n", "6", "--cuts", "4", "--seed", "7"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {
        "meta", "min_rank", "argmin_side_a", "global_floor", "global_pass",
        "all_cuts_meet_floor", "rows",
    }
