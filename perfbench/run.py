"""Run one workload of the dqc1kit session benchmark.

    python3 perfbench/run.py --workload circuit_scan --seed 1 --seconds 20 --trace 0

Run it from the root of a dqc1kit checkout; it imports the program from
``src/`` there and nowhere else.  One client runs sessions in a closed
loop: the next session starts when the previous one has finished.  A
fixed calibration loop (``calibrate.py``) runs before each session and
after the last; session times divided by the mean of the two loops
around them are in "cal" units, which cancel the host's speed drift.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (jobs) and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
record, with the environment block, goes to
``.bench_build/perfbench/results/``; the traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

# BLAS threading changes timings 2-3x and some outputs in the last digits,
# so every BLAS and OpenMP pool is pinned to one thread before numpy loads.
# rank-scaling --workers 2 then runs 2 threads in total.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Setup (write inputs + one warm-up session) is repeated and its median taken.
SETUP_REPEATS = 5
# The tail is the slowest session that still has this many sessions beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "sessions_per_cal": "1/cal",
    "session_p50_cal": "cal",
    "session_tail_cal": "cal",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _thread_vars() -> dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OMP_", "GOTO_")) or "BLAS" in k or "THREADS" in k}


def _blas_runtime(numpy) -> dict:
    """BLAS name and version from numpy's build record, threads from the library."""
    import ctypes
    import glob

    info: dict = {}
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=build.get("name"), version=build.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            threads = getattr(lib, name, None)
            if threads is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                info["runtime_threads"] = threads()
                return info
    return info


def _git_revision(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package_dir: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, caller_thread_vars: dict, numpy, package_dir: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas": _blas_runtime(numpy),
        "thread_vars": _thread_vars(),
        "caller_thread_vars": caller_thread_vars,
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(package_dir),
    }


def session_stats(times: list[float], unit: str) -> dict:
    """Throughput, median and tail of session times given in ``unit``."""
    ordered = sorted(times)
    n = len(ordered)
    return {
        f"sessions_per_{unit}": n / sum(ordered),
        f"session_p50_{unit}": statistics.median(ordered),
        f"session_tail_{unit}": ordered[n - 1 - min(TAIL_BEYOND, n - 1)],
    }


def end_to_end_metrics(times: list[float], cal_s: list[float], setup_s: float,
                       rss_mib: float) -> tuple[dict, dict, dict]:
    """The end-to-end metrics from untraced session times and the calibration
    time next to each session; the same statistics in seconds; how the tail
    was taken."""
    n = len(times)
    metrics = session_stats([t / c for t, c in zip(times, cal_s)], "cal")
    metrics.update(peak_rss_mib=rss_mib, setup_s=setup_s)
    beyond = min(TAIL_BEYOND, n - 1)
    tail = {"percentile": round(100.0 * (n - beyond) / n, 1), "sessions_beyond": beyond,
            "sessions": n}
    return metrics, session_stats(times, "s"), tail


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    package_dir = os.path.join(src, "dqc1kit")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"error: no dqc1kit sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    caller_thread_vars = _thread_vars()
    for var in PINNED_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave the checkout as it was; same import cost every run
    sys.path[:0] = [src, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

    began = time.perf_counter()
    import numpy
    import dqc1kit.cli  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - began
    if os.path.dirname(os.path.abspath(dqc1kit.__file__)) != package_dir:
        print(f"error: imported dqc1kit from {dqc1kit.__file__}, not {package_dir}", file=sys.stderr)
        return 2

    from perfbench import calibrate, check, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".bench_build", "perfbench")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    attempted = 0
    failures: list[dict] = []
    exit_codes: dict = collections.defaultdict(collections.Counter)

    def run_one(index: int, tracer: tracing.Tracer | None = None) -> workloads.SessionResult:
        nonlocal attempted
        directory = os.path.join(work, f"session-{index}")
        session = workloads.make_session(args.workload, args.seed, index, directory)
        if tracer is None:
            result = workloads.run_session(session)
        else:
            tracer.session = index
            with tracer.installed():
                result = workloads.run_session(session)
        shutil.rmtree(directory)
        attempted += len(result.jobs)
        for job in result.jobs:
            exit_codes[job.job.name][str(job.exit_code)] += 1
        for name, problems in check.check_session(result).items():
            failures.append({"session": index, "job": name, "problems": problems})
        return result

    try:
        setup_times = []
        for index in range(SETUP_REPEATS):
            began = time.perf_counter()
            result = run_one(index)
            setup_times.append(time.perf_counter() - began)
            if index == 0:
                first = result
        setup_s = import_s + statistics.median(setup_times)

        # Differences from the reference (None: only the default seed has one)
        # and between traced and untraced outputs (None: untraced run).
        reference = replay = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = check.compare_reference(first)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            # Same seeds as warm-up session 0, traced: job outputs must not change.
            again = run_one(0, tracing.Tracer())
            replay = [f"{a.job.name}: traced output or exit code differs"
                      for a, b in zip(first.jobs, again.jobs)
                      if (a.output, a.exit_code) != (b.output, b.exit_code)]

        # (session seconds, traced) in loop order; cal[i] and cal[i + 1]
        # are the calibration loops before and after session i.
        sessions: list[tuple[float, bool]] = []
        cal: list[float] = []
        calibrate.calibration_loop()  # warm-up, untimed
        index = SETUP_REPEATS
        began = time.perf_counter()
        while (time.perf_counter() - began < args.seconds or len(sessions) < 2
               or (tracer and len(sessions) < 4)):
            use_tracer = tracer if tracer is not None and index % 2 else None
            cal.append(calibrate.calibration_loop())
            result = run_one(index, use_tracer)
            sessions.append((result.seconds, use_tracer is not None))
            index += 1
        cal.append(calibrate.calibration_loop())
        measured_s = time.perf_counter() - began
        cal_s = [(a + b) / 2 for a, b in zip(cal, cal[1:])]
        untraced = [t for t, is_traced in sessions if not is_traced]
        traced = [t for t, is_traced in sessions if is_traced]
        untraced_cal = [c for (_, is_traced), c in zip(sessions, cal_s) if not is_traced]
        traced_cal = [c for (_, is_traced), c in zip(sessions, cal_s) if is_traced]

        record: dict = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(root, caller_thread_vars, numpy, package_dir),
            "measured_s": measured_s,
            "import_s": import_s,
            "setup_session_s": setup_times,
            "untraced_session_s": untraced,
            "traced_session_s": traced,
            "calibration_s": cal,
            "untraced_session_cal_s": untraced_cal,
            "traced_session_cal_s": traced_cal,
            "attempted": attempted,
            "failed": len(failures),
            "failed_frac": len(failures) / attempted,
            "failures": failures,
            "exit_codes": exit_codes,
            "reference_differences": reference,
            "replay_differences": replay,
        }
        if tracer is None:
            metrics, record["seconds_metrics"], record["tail"] = end_to_end_metrics(
                untraced, untraced_cal, setup_s, _peak_rss_mib())
            units = END_TO_END
        else:
            tracing.compute_self_times(tracer.spans)
            metrics = tracing.layer_metrics(tracer.spans, len(traced))
            # In cal units, then back to seconds at the run's median host speed.
            metrics["trace.overhead_s"] = statistics.median(cal_s) * (
                statistics.median(t / c for t, c in zip(traced, traced_cal))
                - statistics.median(t / c for t, c in zip(untraced, untraced_cal)))
            mean_traced = statistics.fmean(traced)
            record["layer_share_of_traced_session"] = {
                k: v / mean_traced for k, v in metrics.items() if k.endswith("_s")}
            units = {k: unit for k, (unit, _better) in tracing.PER_LAYER.items()}
        record["metrics"] = metrics

        stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        if tracer is not None:
            with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.__dict__) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not failures and not reference and not replay
    for failure in failures[:10]:
        print(f"failed: session {failure['session']} {failure['job']}: {failure['problems'][:3]}",
              file=sys.stderr)
    if reference:
        print(f"reference differences: {reference[:10]}", file=sys.stderr)
    if replay:
        print(f"replay differences: {replay}", file=sys.stderr)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced sessions; "
          f"record in {stem}.json", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
