"""Time one benchmark workload's jobs on two checkouts, in one process.

    python tests/ab_jobs.py PARENT_SRC CHANGE_SRC WORKLOAD SESSIONS

Loads the ``dqc1kit`` package of each ``src`` directory under a name of its
own, without writing bytecode and with BLAS pinned to one thread before
numpy loads.  Sessions 0 .. SESSIONS-1 of WORKLOAD (workload seed 1) are
built with ``perfbench.workloads``, and each session's jobs run through
both checkouts' ``cli.main``, each side in its own copy of the session's
directory; the side that runs first alternates from session to session,
the parent first in session 0.  One more session (index SESSIONS) runs
first on both sides as an untimed warm-up.

Prints a JSON report: per job, and for the whole session (the sum of its
jobs), each side's median and quartiles in ms, their median ratio
(change / parent), and the sessions each side ran faster.  Exits 1 if any
pair of outputs differs in a byte (exit code, stdout or the ``--out``
file), naming the first such job.  The parent's package also serves as
``dqc1kit`` for ``perfbench.workloads``, which writes the session inputs.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

SIDES = ("parent", "change")


def load_cli(name: str, src: str):
    """Import ``src``'s dqc1kit package as ``name`` and return its cli module."""
    package = os.path.join(os.path.abspath(src), "dqc1kit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_job(cli, argv: list[str], directory: str) -> tuple[float, bytes]:
    """(seconds, output) of one job: its exit code, stdout and --out file as bytes."""
    previous = os.getcwd()
    os.chdir(directory)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            began = time.perf_counter()
            try:
                code = repr(cli.main(argv))
            except Exception:  # a crash is an output to compare, not the end of the run
                code = traceback.format_exc()
            seconds = time.perf_counter() - began
        out = argv[argv.index("--out") + 1]
        written = Path(out).read_bytes() if os.path.exists(out) else b"<no file>"
    finally:
        os.chdir(previous)
    return seconds, b"\0".join([code.encode(), stdout.getvalue().encode(), written])


def summary(parent: list[float], change: list[float]) -> dict:
    def quartiles(values: list[float]) -> list[float]:
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return [round(1e3 * q, 3) for q in (q1, q2, q3)]

    return {
        "parent_ms_q1_median_q3": quartiles(parent),
        "change_ms_q1_median_q3": quartiles(change),
        "median_ratio": round(statistics.median(change) / statistics.median(parent), 4),
        "change_faster": sum(c < p for p, c in zip(parent, change)),
        "parent_faster": sum(p < c for p, c in zip(parent, change)),
        "sessions": len(parent),
    }


def main(parent_src: str, change_src: str, workload: str, sessions: int) -> int:
    clis = {side: load_cli(f"dqc1kit_{side}", src)
            for side, src in zip(SIDES, (parent_src, change_src))}
    sys.modules["dqc1kit"] = sys.modules["dqc1kit_parent"]
    sys.modules["dqc1kit.randomness"] = sys.modules["dqc1kit_parent.randomness"]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    times: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory(prefix="dqc1kit-ab-") as scratch:
        for index in [sessions, *range(sessions)]:
            directories = {}
            for side in SIDES:
                directories[side] = os.path.join(scratch, side)
                shutil.rmtree(directories[side], ignore_errors=True)
                session = workloads.make_session(workload, workloads.DEFAULT_SEED, index,
                                                 directories[side])
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            outputs: dict[str, list[bytes]] = {}
            for side in order:
                outputs[side] = []
                for job in session.jobs:
                    seconds, output = run_job(clis[side], list(job.argv), directories[side])
                    outputs[side].append(output)
                    if index < sessions:
                        times.setdefault(job.name, {s: [] for s in SIDES})[side].append(seconds)
            for job, a, b in zip(session.jobs, outputs["parent"], outputs["change"]):
                if a != b:
                    print(f"session {index}, job {job.name}: outputs differ "
                          f"({' '.join(job.argv)})", file=sys.stderr)
                    return 1
    totals = {side: [sum(col) for col in zip(*(t[side] for t in times.values()))]
              for side in SIDES}
    report = {name: summary(t["parent"], t["change"]) for name, t in times.items()}
    report["session"] = summary(totals["parent"], totals["change"])
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(row)}" for name, row in report.items())
    print(f'{{"workload": {json.dumps(workload)}, "jobs": {{\n{rows}\n}}}}')
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 5 or not sys.argv[4].isdigit() or int(sys.argv[4]) < 1:
        sys.exit(__doc__)
    sys.dont_write_bytecode = True
    # BLAS threading moves SVD outputs in the last digits; pin it before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])))
