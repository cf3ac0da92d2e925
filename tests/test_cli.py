import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dqc1kit
from dqc1kit import SeedSpec, haar_unitary, write_cmat, write_circuit
from dqc1kit import random_two_qubit_circuit
from dqc1kit import cli, correlation_analysis, dqc1_model, randomness
from dqc1kit.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_name_the_benchmark_tracer_wraps_is_defined(monkeypatch):
    # perfbench/tracing.py looks these up with getattr at run time: a
    # refactor that deletes or renames one would crash the traced benchmark.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    wrapped = [(module, name) for module, name, *_ in tracing.WRAPPED]
    wrapped.append((correlation_analysis, "parallel_map"))
    src = Path(dqc1kit.__file__).parent
    for module, name in wrapped:
        assert Path(module.__file__).parent == src, module.__name__
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _out, err = run(capsys, ["bound-scan", "--no-such-flag"])
    assert code == 1
    assert "error" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _out, err = run(capsys, [])
    assert code == 1
    assert err


def test_bound_scan_small_n_rejected(capsys):
    code, _out, err = run(capsys, ["bound-scan", "--n", "4", "--cuts", "2"])
    assert code == 1
    assert "--n" in err


def test_register_size_policies_are_one_constant_each(capsys):
    # The parser types read the library's constants, and the README's flag
    # table states the same ranges.
    low, high = correlation_analysis.SCAN_MIN_QUBITS, correlation_analysis.TRUNCATION_MAX_QUBITS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command, argv, rule in (
        ("bound-scan", ["--n", str(low - 1)], f"[{low}, {dqc1_model.STREAM_LIMIT}]"),
        ("truncation", ["--n", str(low - 1)], f"[{low}, {high}]"),
        ("truncation", ["--n", str(high + 1)], f"[{low}, {high}]"),
    ):
        assert run(capsys, [command, *argv]) == (1, "", f"error: argument --n: must lie in {rule}\n")
        assert f"| `{command}` | `--n` in {rule};" in readme


@pytest.mark.parametrize("unitary", ["haar", "product"])
def test_bound_scan_gates_needs_circuit_mode(capsys, unitary):
    argv = ["bound-scan", "--n", "6", "--cuts", "2", "--unitary", unitary, "--gates", "3"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "--gates" in err
    code, _out, _err = run(capsys, argv[:-2])
    assert code in (0, 2)


def test_bound_scan_passes_and_is_deterministic(capsys):
    argv = ["bound-scan", "--n", "6", "--cuts", "6", "--seed", "7"]
    code_a, out_a, _ = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["global_pass"] is True
    assert payload["global_floor"] == 4
    assert len(payload["rows"]) == 6
    code_c, out_c, _ = run(capsys, argv + ["--workers", "4"])
    assert code_c == 0
    assert out_c == out_a


def test_bound_scan_exit_code_follows_the_global_floor_only(capsys):
    # Two cuts of this 2n-gate circuit miss their own 2^window floor (rank 5
    # < 8), but the scan minimum meets global_floor = 2^ceil(n/5) = 4, so the
    # run passes: exit 2 is for a minimum below the global floor.
    argv = ["bound-scan", "--unitary", "circuit", "--n", "9", "--gates", "18", "--cuts", "40",
            "--seed", "6"]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert code == 0
    assert (payload["global_pass"], payload["all_cuts_meet_floor"]) == (True, False)
    assert (payload["min_rank"], payload["global_floor"]) == (4, 4)
    missed = [(r["rank"], r["rank_floor"]) for r in payload["rows"] if not r["meets_floor"]]
    assert missed == [(5, 8), (5, 8)]


def test_bound_scan_zero_polarization_falsifies(capsys):
    code, out, _ = run(capsys, ["bound-scan", "--n", "6", "--cuts", "4", "--tau", "0"])
    assert code == 2
    assert json.loads(out)["min_rank"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "8", "--cuts", "20", "--seed", "3"],
        ["--n", "7", "--cuts", "15", "--seed", "5", "--unitary", "circuit", "--randomize-index"],
        ["--n", "6", "--exhaustive", "--unitary", "product"],
    ],
)
def test_bound_scan_ranks_do_not_depend_on_the_polarization_scale(capsys, argv):
    # The probe's rank is the same for every tau > 0 in exact arithmetic; at
    # tau = 1e-11 a decision on the tau-scaled spectrum gave rank 1 on every cut.
    def ranks(tau):
        code, out, _err = run(capsys, ["bound-scan", *argv, "--tau", tau])
        return code, [row["rank"] for row in json.loads(out)["rows"]]

    code, want = ranks("1")
    assert min(want) > 1
    for tau in ("1e-3", "1e-11", "1e-300", "5e-324"):
        assert ranks(tau) == (code, want)


def test_bound_scan_product_unitary_falsifies(capsys):
    code, out, _ = run(
        capsys,
        ["bound-scan", "--n", "6", "--exhaustive", "--unitary", "product"],
    )
    assert code == 2
    assert json.loads(out)["min_rank"] <= 2


def test_bound_scan_csv_override(capsys):
    code, out, _ = run(
        capsys, ["bound-scan", "--n", "6", "--cuts", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.startswith("#")
    header = next(ln for ln in out.split("\n") if not ln.startswith("#"))
    assert header == "side_a,window_size,rank,log2_rank,rank_floor,meets_floor,spectrum_head"


def test_rank_scaling_csv_shape(capsys):
    argv = ["rank-scaling", "--n-list", "4,6", "--seeds", "2", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == "n,seed,min_rank,log2_min_rank"
    assert len(lines) == 1 + 2 * 2 + 2  # header, 4 tasks, 2 medians
    assert sum(1 for ln in lines if ",median," in ln) == 2
    _code, out_again, _ = run(capsys, argv + ["--workers", "4"])
    assert out_again == out


def test_rank_scaling_starts_its_first_task_without_listing_every_seed(monkeypatch):
    # A list of all 10^12 (n, seed) pairs would exhaust memory before the
    # first scan; the scan stops the run after 3 tasks instead.
    class Stop(Exception):
        pass

    scanned = []

    def scan(state, *_args):
        scanned.append(state.num_qubits)
        if len(scanned) == 3:
            raise Stop
        return correlation_analysis.min_equipartition_rank(state, *_args)

    monkeypatch.setattr(cli, "min_equipartition_rank", scan)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            main(["rank-scaling", "--n-list", "4", "--seeds", str(10**12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scanned == [4, 4, 4]
    assert peak < 2**20


def test_rank_scaling_reads_u0_through_the_light_cone_column_path(monkeypatch, capsys):
    # U|0> comes from register_columns, as in every other subcommand: one
    # one-column evolve_basis_columns call per task, and no dense-state kernel.
    calls = {"apply_circuit": [], "evolve_basis_columns": []}
    for name, seen in calls.items():
        kernel = getattr(randomness, name)

        def counting(circuit, columns, *args, kernel=kernel, seen=seen):
            seen.append(np.shape(getattr(columns, "amplitudes", columns)))
            return kernel(circuit, columns, *args)

        for module in (randomness, dqc1_model, correlation_analysis, cli):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counting)
    code, _out, _err = run(capsys, ["rank-scaling", "--n-list", "4,6", "--seeds", "2"])
    assert code == 0
    assert calls == {"apply_circuit": [], "evolve_basis_columns": [(1,)] * 4}


def test_rank_scaling_rejects_bad_list(capsys):
    code, _out, err = run(capsys, ["rank-scaling", "--n-list", "4,x"])
    assert code == 1
    assert "n-list" in err or "integer" in err


def test_concentration_json(capsys):
    argv = ["concentration", "--na", "1", "--nb", "5", "--samples", "8", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["d_a"] == 2
    assert payload["all_counts_equal_d_a"] is True
    assert len(payload["rows"]) == 8


@pytest.mark.parametrize("delta", ["nan", "-1", "inf"])
def test_concentration_delta_must_be_finite_and_nonnegative(capsys, delta):
    argv = ["concentration", "--na", "1", "--nb", "2", "--samples", "2"]
    code, out, err = run(capsys, argv + ["--delta", delta])
    assert code == 1
    assert out == ""
    assert "--delta" in err


def test_trace_estimate_from_cmat(tmp_path, capsys):
    path = tmp_path / "u.cmat"
    write_cmat(path, haar_unitary(3, SeedSpec(94)).matrix)
    argv = ["trace-estimate", "--cmat", str(path), "--shots", "4000", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert abs(row["exact_re"] - row["estimate_re"]) < 5 * row["std_error_re"] + 0.05
    _c, out_again, _ = run(capsys, argv)
    assert out_again == out


@pytest.mark.parametrize("scale", [np.diag([1 + 4e-9] + [1.0] * 7), (1 + 4e-9) * np.eye(8)])
def test_trace_estimate_accepts_a_trace_just_above_one(tmp_path, capsys, scale):
    # unitary within the reader's 1e-8 tolerance, yet |Tr U|/2^n > 1
    path = tmp_path / "u.cmat"
    write_cmat(path, scale.astype(complex))
    code, out, err = run(capsys, ["trace-estimate", "--cmat", str(path), "--shots", "1000"])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert row["exact_re"] > 1
    assert all(np.isfinite(row[key]) for key in ("estimate_re", "estimate_im",
                                                 "std_error_re", "std_error_im"))


def test_trace_estimate_from_circuit_file(tmp_path, capsys):
    path = tmp_path / "c.circ"
    write_circuit(path, random_two_qubit_circuit(4, 6, SeedSpec(95)))
    code, out, _ = run(
        capsys,
        ["trace-estimate", "--circuit", str(path), "--circuit-qubits", "4",
         "--shots", "2000"],
    )
    assert code == 0
    assert json.loads(out)["meta"]["n"] == 4


def test_trace_estimate_circuit_needs_qubit_count(tmp_path, capsys):
    path = tmp_path / "c.circ"
    write_circuit(path, random_two_qubit_circuit(3, 2, SeedSpec(96)))
    code, _out, err = run(capsys, ["trace-estimate", "--circuit", str(path)])
    assert code == 1
    assert "--circuit-qubits" in err


def test_trace_estimate_zero_tau_is_usage_error(tmp_path, capsys):
    path = tmp_path / "u.cmat"
    write_cmat(path, haar_unitary(2, SeedSpec(97)).matrix)
    code, _out, _err = run(
        capsys, ["trace-estimate", "--cmat", str(path), "--tau", "0"]
    )
    assert code == 1


def _strict_json(text):
    """The report parsed by a reader that refuses nan and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tau", ["5e-324", "1e-300", "9.99e-7"])
def test_trace_estimate_refuses_a_polarization_below_the_floor(tmp_path, capsys, tau):
    # The estimate divides by tau: 5e-324 wrote Infinity into the report and
    # 1e-300 an estimate of 1e297 for a trace of modulus at most 1.
    path = tmp_path / "u.cmat"
    write_cmat(path, haar_unitary(3, SeedSpec(7)).matrix)
    code, out, err = run(capsys, ["trace-estimate", "--cmat", str(path), "--tau", tau])
    assert (code, out) == (1, "")
    assert "argument --tau: must lie in [1e-06, 1]: a polarization below 1e-06 cannot be resolved" in err
    code, out, _err = run(capsys, ["trace-estimate", "--cmat", str(path), "--tau", "1e-6"])
    row = _strict_json(out)["rows"][0]
    assert code == 0 and abs(row["estimate_re"]) <= 1e6 and abs(row["std_error_re"]) <= 1e6


def test_trace_estimate_missing_file_is_io_error(capsys):
    code, _out, err = run(capsys, ["trace-estimate", "--cmat", "/no/such/file.cmat"])
    assert code == 3
    assert "io error" in err or "input error" in err


def test_shots_up_to_the_largest_signed_64_bit_count_run(tmp_path, capsys):
    path = tmp_path / "u.cmat"
    write_cmat(path, haar_unitary(2, SeedSpec(3)).matrix)
    code, out, _ = run(capsys, ["trace-estimate", "--cmat", str(path), "--shots", str(2**63 - 1)])
    assert code == 0
    assert json.loads(out)["meta"]["shots"] == 2**63 - 1


def test_package_exports_public_names_only():
    modules = [name for name in dqc1kit.__all__ if isinstance(getattr(dqc1kit, name), type(dqc1kit))]
    assert modules == []
    assert {"Bipartition", "Dqc1Config", "read_cmat", "rank_bound_scan"} <= set(dqc1kit.__all__)


def test_trace_estimate_non_unitary_cmat_is_format_error(tmp_path, capsys):
    path = tmp_path / "bad.cmat"
    write_cmat(path, np.diag([1.0, 2.0]).astype(complex))
    code, _out, err = run(capsys, ["trace-estimate", "--cmat", str(path)])
    assert code == 3
    assert "unitary" in err


def test_tree_edge_rows_in_window(capsys):
    argv = ["tree-edge", "--leaves", "8", "--trees", "5", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert lines[0].startswith("tree_id,")
    assert len(lines) == 6
    for ln in lines[1:]:
        fields = ln.split(",")
        n_0, low, high = int(fields[3]), int(fields[4]), int(fields[5])
        assert low <= n_0 <= high
    _c, again, _ = run(capsys, argv)
    assert again == out


def test_truncation_default_passes(capsys):
    argv = ["truncation", "--n", "5", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = [ln for ln in out.strip().split("\n")]
    assert "# all_satisfied = true" in lines
    header = next(ln for ln in lines if ln.startswith("rank,"))
    assert header == "rank,fidelity,epsilon,delta_hat,linear_bound,bound_satisfied"


def test_truncation_explicit_cut_and_ranks(capsys):
    code, out, _ = run(
        capsys,
        ["truncation", "--n", "6", "--cut", "1,2", "--ranks", "1,4,16",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["side_a"] == [0, 1, 2]
    assert [r["rank"] for r in payload["rows"]] == [1, 4, 16]


def test_truncation_accepts_a_measured_delta_above_one(capsys):
    # seed 4 measures delta_hat > 1 on this in-window cut; the floor is then 0
    code, out, err = run(capsys, ["truncation", "--n", "5", "--cut", "1,2", "--seed", "4"])
    assert (code, err) == (0, "")
    assert "# all_satisfied = true" in out.split("\n")
    assert float(out.split("\n")[-2].split(",")[3]) > 1


@pytest.mark.parametrize("n", ["5", "6", "7", "8"])
def test_truncation_floor_holds_at_partial_polarization(capsys, n):
    code, out, err = run(capsys, ["truncation", "--n", n, "--tau", "0.3"])
    assert (code, err) == (0, "")
    assert "# all_satisfied = true" in out.split("\n")


def test_truncation_at_zero_polarization_has_no_floor(capsys):
    code, out, _err = run(capsys, ["truncation", "--n", "7", "--tau", "0", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["rank"], r["fidelity"], r["linear_bound"]) for r in rows] == [(1, 1.0, 0.0)]


def test_truncation_refuses_a_polarization_below_resolution(capsys):
    code, out, err = run(capsys, ["truncation", "--n", "5", "--tau", "1e-8"])
    assert (code, out) == (1, "")
    assert "polarization below 1e-06" in err


@pytest.mark.parametrize("tau", ["1", "0.3"])
def test_truncation_still_falsifies_a_broken_spectrum(capsys, monkeypatch, tau):
    # every rank claiming fidelity 1 must break the floor at small ranks
    monkeypatch.setattr(correlation_analysis, "truncation_fidelity", lambda spectrum, rank: 1.0)
    code, out, _err = run(capsys, ["truncation", "--n", "7", "--tau", tau])
    assert code == 2
    assert "# all_satisfied = false" in out.split("\n")


def test_truncation_out_of_range_rank_is_usage_error(capsys):
    code, _out, _err = run(capsys, ["truncation", "--n", "5", "--ranks", "99"])
    assert code == 1


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["concentration", "--na", "1", "--nb", "4", "--samples", "4",
            "--out", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ""
    on_disk = target.read_text()
    _c, stdout_version, _ = run(capsys, argv[:-2])
    assert on_disk == stdout_version


def test_out_flag_unwritable_path_is_io_error(capsys):
    code, _out, err = run(
        capsys,
        ["concentration", "--na", "1", "--nb", "4", "--samples", "2",
         "--out", "/no/such/dir/x.json"],
    )
    assert code == 3
    assert "io error" in err


def test_workers_must_be_positive(capsys):
    code, _out, _err = run(capsys, ["tree-edge", "--workers", "0"])
    assert code == 1


def test_bound_scan_and_tree_edge_run_serially_at_any_worker_count(capsys, monkeypatch):
    # Their items are one SVD or one small tree each, and a pool of them lost
    # to serial; only the stacks of rank-scaling and concentration use it.
    def pool(*_args, **_kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(correlation_analysis, "ThreadPoolExecutor", pool)
    for argv in (
        ["bound-scan", "--n", "6", "--cuts", "8", "--workers", "4"],
        ["tree-edge", "--leaves", "8", "--trees", "5", "--workers", "4"],
    ):
        code, _out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("tol", ["0", "1", "1.5", "nan"])
def test_tol_must_lie_in_open_unit_interval(capsys, tol):
    # trace-estimate names a missing file: without the tol check it exits 3
    for argv in (
        ["rank-scaling", "--n-list", "4", "--seeds", "1"],
        ["bound-scan", "--n", "5", "--cuts", "2"],
        ["concentration", "--na", "1", "--nb", "2", "--samples", "2"],
        ["trace-estimate", "--cmat", "missing.cmat"],
        ["tree-edge", "--leaves", "6", "--trees", "1"],
        ["truncation", "--n", "5"],
    ):
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert code == 1, argv
        assert out == ""
        assert "--tol" in err


def test_module_run_executes_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(dqc1kit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dqc1kit.cli", "tree-edge", "--leaves", "8", "--trees", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header = next(ln for ln in proc.stdout.split("\n") if not ln.startswith("#"))
    assert header == "tree_id,edge_u,edge_v,n_0,window_low,window_high"


# The n=16 circuit scan's spectrum_head digits moved with two OpenBLAS threads
# before main pinned one.
BLAS_THREAD_COMMANDS = [
    ["bound-scan", "--unitary", "circuit", "--n", "16", "--cuts", "50", "--randomize-index"],
    ["rank-scaling", "--n-list", "12", "--seeds", "1", "--partition-cap", "37", "--workers", "2"],
    ["concentration", "--na", "6", "--nb", "6", "--samples", "40", "--workers", "2"],
]


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(dqc1kit.__file__).parents[1]))
        for k, argv in enumerate(BLAS_THREAD_COMMANDS):
            out = tmp_path / f"{threads}-{k}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "dqc1kit.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode in (0, 2), proc.stderr
            outputs[threads, k] = (proc.returncode, out.read_bytes())
    for k, argv in enumerate(BLAS_THREAD_COMMANDS):
        assert outputs["1", k] == outputs["2", k], argv


@pytest.mark.parametrize("unitary", ["haar", "product"])
def test_bound_scan_refuses_a_dense_unitary_above_the_limit_before_drawing(
    capsys, monkeypatch, unitary
):
    def drew(*_args):
        raise AssertionError("a Haar matrix was drawn")

    monkeypatch.setattr(randomness, "_haar_matrix", drew)
    # haar_unitary draws its normal blocks straight from the generator.
    monkeypatch.setattr(randomness.SeedSpec, "generator", drew)
    code, out, err = run(capsys, ["bound-scan", "--n", "13", "--unitary", unitary])
    assert (code, out) == (1, "")
    assert "1 <= n <= 12 qubits, got 13" in err


# One bad value per range-checked flag.  The first five are cases that used
# to be refused late: after a 4096x4096 Haar build, a file read, or not at all
# (exhaustive scans ignored --cuts).  The files named here need not exist.
REFUSED_FLAGS = [
    (["bound-scan", "--unitary", "haar", "--n", "12", "--cuts", "0"], "--cuts"),
    (["trace-estimate", "--circuit", "c.circ", "--circuit-qubits", "0"], "--circuit-qubits"),
    (["trace-estimate", "--cmat", "missing.cmat", "--tau", "2"], "--tau"),
    (["trace-estimate", "--cmat", "u.cmat", "--shots", "0"], "--shots"),
    (["bound-scan", "--n", "6", "--exhaustive", "--cuts", "0"], "--cuts"),
    (["tree-edge", "--seed", str(2**64)], "--seed"),
    (["tree-edge", "--workers", "0"], "--workers"),
    (["tree-edge", "--tol", "nan"], "--tol"),
    (["tree-edge", "--leaves", "5"], "--leaves"),
    (["tree-edge", "--trees", "0"], "--trees"),
    (["bound-scan", "--n", "4"], "--n"),
    (["bound-scan", "--tau", "nan"], "--tau"),
    (["bound-scan", "--unitary", "circuit", "--gates", "0"], "--gates"),
    (["trace-estimate", "--cmat", "u.cmat", "--tau", "0"], "--tau"),
    (["truncation", "--n", "9"], "--n"),
    (["truncation", "--tau", "-0.5"], "--tau"),
    (["truncation", "--cut", "1,x"], "--cut"),
    (["truncation", "--ranks", "1,x"], "--ranks"),
    (["truncation", "--ranks", "4,0"], "--ranks"),
    (["concentration", "--delta", "inf"], "--delta"),
    (["concentration", "--samples", "0"], "--samples"),
    (["concentration", "--na", "-1"], "--na"),
    (["concentration", "--nb", "0"], "--nb"),
    (["rank-scaling", "--n-list", "4,5"], "--n-list"),
    (["rank-scaling", "--seeds", "0"], "--seeds"),
    (["rank-scaling", "--gates-factor", "0"], "--gates-factor"),
    (["rank-scaling", "--partition-cap", "0"], "--partition-cap"),
    (["bound-scan", "--unitary", "circuit", "--n", "21"], "--n"),
    (["rank-scaling", "--n-list", "22"], "--n-list"),
    (["trace-estimate", "--cmat", "u.cmat", "--shots", str(2**63)], "--shots"),
    (["trace-estimate", "--circuit", "missing.circ", "--circuit-qubits", "21"],
     "--circuit-qubits"),
    (["truncation", "--n", "7", "--ranks", ","], "--ranks"),
]

# Everything a command reads or builds before its library call does any work.
WORK_ENTRY_POINTS = (
    "haar_unitary", "haar_product_unitary", "random_two_qubit_circuit", "read_unitary_cmat",
    "read_circuit", "concentration_report", "random_degree3_tree",
)


@pytest.mark.parametrize("argv,flag", REFUSED_FLAGS, ids=[" ".join(a) for a, _ in REFUSED_FLAGS])
def test_bad_flag_value_is_refused_by_the_parser(capsys, monkeypatch, argv, flag):
    def started(*_args, **_kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in WORK_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, started)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}: " in err


def test_main_leaves_no_cyclic_garbage(capsys):
    argv = ["tree-edge", "--leaves", "8", "--trees", "3"]
    main(argv)  # settles lazy imports and first-call caches
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exhaustive_bound_scan_makes_one_svd_call_per_probe_shape(capsys, monkeypatch):
    # n = 9 has a = 2, 3, 6, 7 in its window: 36, 84, 84 and 36 probes of
    # (2^a + 1) x 2^(9-a), each shape one stack.  Below tau = 1 a second
    # stack per shape gives the tau-free ranks; at tau = 0 there is none.
    calls = []
    kernel = correlation_analysis.singular_values

    def counting(matrix):
        calls.append(matrix.shape)
        return kernel(matrix)

    monkeypatch.setattr(correlation_analysis, "singular_values", counting)
    shapes = [(36, 5, 128), (36, 129, 4), (84, 9, 64), (84, 65, 8)]
    for tau, stacks in (("1", shapes), ("0.6", 2 * shapes), ("0", shapes)):
        calls.clear()
        code, _out, err = run(capsys, ["bound-scan", "--n", "9", "--exhaustive", "--tau", tau])
        assert (code, err) == (0 if tau != "0" else 2, ""), tau
        assert sorted(calls) == sorted(stacks), tau


# Values per flag of the README's flag table: in-range boundaries (sizes kept
# small), out-of-range boundaries, nan, infinities, empty and huge values.
# Counts with no upper bound get a huge value only as a literal the parser
# refuses ("1e999"): a huge accepted count would run for ever.
_BAD = ["nan", "inf", ""]
ARGV_VALUES = {
    "common": {
        "--seed": ["0", str(2**64 - 1), str(2**64), "-1", "9" * 30, *_BAD],
        "--workers": ["1", "2", "0", "-1", "1e999", *_BAD],
        "--tol": ["1e-10", "0.5", "5e-324", "0", "1", "-inf", "1e999", *_BAD],
        "--format": ["csv", "json", "xml", ""],
        "--out": ["-", "report.txt", "", "."],
    },
    "rank-scaling": {
        "--n-list": ["2", "4,6", "4,,6", ",", "3", "22", "-2", "9" * 30, *_BAD],
        "--seeds": ["1", "2", "0", "1e999", *_BAD],
        "--gates-factor": ["1", "3", "0", "1e999", *_BAD],
        "--partition-cap": ["1", "3", "9" * 30, "0", *_BAD],
    },
    "bound-scan": {
        "--n": ["5", "6", "4", "21", "9" * 30, *_BAD],
        "--cuts": ["1", "3", "9" * 30, "0", "-1", *_BAD],
        "--tau": ["0", "1", "0.6", "1e-11", "5e-324", "-0.0", "1.0000001", "-inf", "1e999", *_BAD],
        "--exhaustive": None,
        "--unitary": ["haar", "product", "circuit", "bogus", ""],
        "--gates": ["1", "3", "0", "1e999", *_BAD],
        "--randomize-index": None,
    },
    "concentration": {
        "--na": ["0", "2", "-1", "9" * 30, *_BAD],
        "--nb": ["1", "3", "0", "9" * 30, *_BAD],
        "--delta": ["0", "0.5", "1e308", "-0.1", "1e999", *_BAD],
        "--samples": ["1", "2", "0", "1e999", *_BAD],
    },
    "trace-estimate": {
        "--cmat": ["u3.cmat", "missing.cmat", ""],
        "--circuit": ["c4.circ", "missing.circ", ""],
        "--circuit-qubits": ["1", "4", "5", "0", "21", "9" * 30, *_BAD],
        "--shots": ["1", str(2**63 - 1), str(2**63), "0", "9" * 30, *_BAD],
        "--tau": ["1", "0.5", "1e-6", "9e-7", "1e-300", "5e-324", "0", "1.5", "1e999", *_BAD],
    },
    "tree-edge": {
        "--leaves": ["6", "7", "5", "1e999", *_BAD],
        "--trees": ["1", "2", "0", "1e999", *_BAD],
    },
    "truncation": {
        "--n": ["5", "6", "4", "9", "9" * 30, *_BAD],
        "--tau": ["0", "1", "0.6", "1e-6", "9e-7", "5e-324", "-0.5", "1e999", *_BAD],
        "--cut": ["0,1", "1,2", "1,,2", "0", "9", "-1", "0,1,2,3,4,5,6", *_BAD],
        "--ranks": ["1", "1,4", "99", "0", ",", "9" * 30, *_BAD],
    },
}

# The rules that join flags name none of them; every other exit 1 names its flag.
JOINT_RULES = (
    r"a dense unitary needs 1 <= n <= 12",
    r"concentration regime requires n_a <= n_b",
    r"n_a \+ n_b = \d+ exceeds the register limit 20",
    r"side_a (labels out of range|must be a nonempty strict subset)",
    r"cut window \d+ outside the balanced range",
    r"rank \d+ outside 1\.\.\d+",
)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(set(ARGV_VALUES) - {"common"})))
    argv = [command]
    for flag, values in {**ARGV_VALUES["common"], **ARGV_VALUES[command]}.items():
        # rank-scaling's default --n-list alone takes seconds
        if flag == "--n-list" or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argvs())
def test_any_argv_from_the_flag_table_ends_in_a_documented_exit_property(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if not Path("u3.cmat").exists():
        write_cmat("u3.cmat", haar_unitary(3, SeedSpec(7)).matrix)
        write_circuit("c4.circ", random_two_qubit_circuit(4, 6, SeedSpec(95)))
    code, out, err = run(capsys, argv)
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        named = re.search(r"--[a-z]", err) or any(re.search(rule, err) for rule in JOINT_RULES)
        assert named, (argv, err)
    # Every report written reads with a strict JSON parser or is CSV.
    if "--out" in argv and code in (0, 2) and Path(argv[argv.index("--out") + 1]).is_file():
        out = Path(argv[argv.index("--out") + 1]).read_text()
    if out.startswith("{"):
        _strict_json(out)
