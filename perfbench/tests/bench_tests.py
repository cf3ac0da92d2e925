"""Tests of the session benchmark itself: inputs, checks, names and tracing.

Run from the repository root with ``python -m pytest -q
perfbench/tests/bench_tests.py``.  The file name keeps these tests, which
run whole sessions, out of pytest's default discovery, so the
repository's own suite stays quick.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import check, run, tracing, workloads  # noqa: E402


def _inputs(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_generation_is_deterministic_in_the_workload_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.make_session(workload, 7, 3, str(tmp_path / workload / "a"))
        b = workloads.make_session(workload, 7, 3, str(tmp_path / workload / "b"))
        other_seed = workloads.make_session(workload, 8, 3, str(tmp_path / workload / "c"))
        other_session = workloads.make_session(workload, 7, 4, str(tmp_path / workload / "d"))
        assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
        assert _inputs(a.directory) == _inputs(b.directory)
        for other in (other_seed, other_session):
            assert all(x.argv != y.argv for x, y in zip(a.jobs, other.jobs))
            if _inputs(a.directory):
                assert _inputs(a.directory) != _inputs(other.directory)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Session 0 of each workload at the default seed, untraced and traced."""
    out = {}
    for workload in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        plain = workloads.run_session(
            workloads.make_session(workload, workloads.DEFAULT_SEED, 0, str(base / "plain")))
        tracer = tracing.Tracer()
        tracer.session = 0
        with tracer.installed():
            traced = workloads.run_session(
                workloads.make_session(workload, workloads.DEFAULT_SEED, 0, str(base / "traced")))
        tracing.compute_self_times(tracer.spans)
        out[workload] = (plain, traced, tracer.spans)
    return out


def test_default_seed_passes_checks_and_matches_reference(runs):
    for workload, (plain, _traced, _spans) in runs.items():
        assert check.check_session(plain) == {}, workload
        assert check.compare_reference(plain) == [], workload


def test_traced_and_untraced_runs_write_identical_outputs(runs):
    for workload, (plain, traced, _spans) in runs.items():
        for a, b in zip(plain.jobs, traced.jobs):
            assert a.output is not None
            assert (a.exit_code, a.output) == (b.exit_code, b.output), (workload, a.job.name)


def test_tracing_restores_the_program(runs):
    from dqc1kit import cli, correlation_analysis, dqc1_model, randomness, tensor_core

    assert not hasattr(cli.main, "__wrapped__")
    for module in (dqc1_model, randomness, correlation_analysis):
        for name in ("apply_circuit", "apply_two_qubit_gate", "schmidt_decompose",
                     "normalized_trace", "parallel_map"):
            if hasattr(module, name):
                assert not hasattr(getattr(module, name), "__wrapped__"), (module, name)
    assert not hasattr(tensor_core.apply_two_qubit_gate, "__wrapped__")


def test_spans_nest_with_nonnegative_self_time_under_the_pool(runs):
    for workload, (_plain, _traced, spans) in runs.items():
        ids = {s.id for s in spans}
        assert all(s.parent is None or s.parent in ids for s in spans), workload
        assert all(s.self_s >= 0 for s in spans), workload
        assert all(s.session == 0 for s in spans)
    spans = runs["dense_analysis"][2]
    pools = [s for s in spans if s.name == tracing.POOL_SPAN and s.attrs["workers"] == 2]
    assert pools, "rank-scaling --workers 2 should run a 2-thread pool"
    tasks = [s for s in spans if s.parent == pools[0].id]
    assert len(tasks) == 2 and all(t.name == tracing.TASK_SPAN for t in tasks)
    metrics = tracing.layer_metrics(spans, 1)
    assert 0 < metrics["correlation_analysis.pool_busy_ratio"] <= 1


def test_waste_counters_repeat_exactly(runs):
    spans = runs["circuit_scan"][2]
    by_id = {s.id: s for s in spans}
    mains = sorted((s for s in spans if s.name == "cli.main"), key=lambda s: s.start)
    assert len(mains) == 3

    def job_of(span):
        while span.name != "cli.main":
            span = by_id[span.parent]
        return mains.index(span)

    default_scan = [s for s in spans if s.name == "randomness.apply_circuit" and job_of(s) == 0]
    assert len(default_scan) == workloads.SCAN_CUTS
    assert len({s.attrs["key"] for s in default_scan}) == 1
    metrics = tracing.layer_metrics(spans, 1)
    assert metrics["dqc1_model.trace_calls"] == 2
    assert metrics["dqc1_model.trace_distinct_ratio"] == 0.5
    assert metrics["randomness.circuit_unitary_calls"] == 2
    assert metrics["randomness.apply_circuit_calls"] == 2 * workloads.SCAN_CUTS
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}


def _replace_output(result, edit):
    return dataclasses.replace(result, output=edit(result.output.decode()).encode())


def test_checker_rejects_corrupted_reports(runs):
    circuit = {r.job.name: r for r in runs["circuit_scan"][0].jobs}
    dense = {r.job.name: r for r in runs["dense_analysis"][0].jobs}
    small = {r.job.name: r for r in runs["small_jobs"][0].jobs}
    for result in list(circuit.values()) + list(dense.values()) + list(small.values()):
        assert check.check_job(result) == []

    def flip_rank(text):
        payload = json.loads(text)
        payload["rows"][0]["rank"] = payload["rows"][0]["rank_floor"] - 1
        return json.dumps(payload)

    assert check.check_job(_replace_output(circuit["scan_default"], flip_rank))

    def flip_csv_rank(text):
        lines = text.splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        rank_col = lines[header].strip().split(",").index("rank")
        cells = lines[header + 1].split(",")
        cells[rank_col] = "1"
        lines[header + 1] = ",".join(cells)
        return "".join(lines)

    assert check.check_job(_replace_output(small["scan_csv"], flip_csv_rank))

    def shift_trace(text):
        payload = json.loads(text)
        payload["rows"][0]["exact_re"] += 1e-6
        return json.dumps(payload)

    assert check.check_job(_replace_output(circuit["trace_circuit"], shift_trace))
    assert check.check_job(_replace_output(small["trace_cmat"], shift_trace))
    assert check.check_job(dataclasses.replace(dense["scan_product"], exit_code=0))
    assert check.check_job(dataclasses.replace(small["tree_edge"], exit_code=2))
    assert check.check_job(dataclasses.replace(dense["truncation"], output=None))


def test_reference_comparison_is_typed():
    assert check.compare_values({"a": [1, 2.0, "x", True]}, {"a": [1, 2.0 + 1e-12, "x", True]}) == []
    assert check.compare_values(1.0, 1) == []
    assert check.compare_values(3, 4)
    assert check.compare_values(True, 1)
    assert check.compare_values("0;1", "0;2")
    assert check.compare_values(1.0, 1.0 + 1e-6)


def test_tail_is_the_slowest_session_with_ten_beyond():
    times = [float(k) for k in range(1, 41)]
    metrics, seconds, tail = run.end_to_end_metrics(times, [0.5] * 40, 1.5, 80.0)
    assert seconds["session_tail_s"] == 30.0
    assert tail == {"percentile": 75.0, "sessions_beyond": 10, "sessions": 40}
    assert seconds["session_p50_s"] == 20.5
    assert seconds["sessions_per_s"] == pytest.approx(40 / sum(times))
    assert metrics["session_tail_cal"] == 60.0
    assert metrics["session_p50_cal"] == 41.0
    assert metrics["sessions_per_cal"] == pytest.approx(20 / sum(times))
    assert set(metrics) == set(run.END_TO_END)


def test_cal_units_cancel_a_host_slowdown():
    times = [float(k) for k in range(1, 41)]
    cal = [0.5 + 0.01 * k for k in range(40)]
    metrics, seconds, _ = run.end_to_end_metrics(times, cal, 1.5, 80.0)
    # The host runs 1.6x slower for the second half of the run: sessions
    # and calibration loops slow alike, so only the seconds move.
    slow = [1.0] * 20 + [1.6] * 20
    metrics2, seconds2, _ = run.end_to_end_metrics(
        [t * f for t, f in zip(times, slow)], [c * f for c, f in zip(cal, slow)], 1.5, 80.0)
    assert metrics2 == pytest.approx(metrics)
    assert seconds2["session_p50_s"] > seconds["session_p50_s"]


def test_names_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def _run_benchmark(cwd, *args):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_benchmark(str(tmp_path), "--workload", "small_jobs", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _run_benchmark(ROOT, "--workload", "small_jobs", "--seed", "3",
                          "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(tracing.PER_LAYER)
    assert line["metrics"]["fileio.read_calls"] == {"value": 1.0, "unit": "count/session"}


@pytest.mark.parametrize("seed, index, exit_code", [(101, 1, 0), (103, 7, 2)])
def test_circuit_scan_below_a_floor_follows_the_report(tmp_path, seed, index, exit_code):
    # A random circuit with 4n gates gives a weak probe witness.  At seed 101,
    # session 1, one cut has rank 17 < 2^5 but the global floor 2^3 holds
    # (exit 0).  At seed 103, session 7, one cut has rank 5 < 2^3 and the CLI
    # reports the global floor falsified (exit 2).  Both reports are consistent.
    session = workloads.make_session("circuit_scan", seed, index, str(tmp_path))
    scan = workloads.run_session(session).jobs[0]
    report = check.parse_output(scan.output)
    assert scan.exit_code == exit_code
    assert report["meta"]["all_cuts_meet_floor"] is False
    assert check.check_job(scan) == []
    assert check.check_job(dataclasses.replace(scan, exit_code=2 - exit_code))
