"""Record the reference reports that the default seed is compared against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  It runs warm-up session 0 of each
workload at the default seed with one BLAS thread, checks it, and writes
``perfbench/reference/<workload>.json``.  Re-record only in a change that
alters the reports on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile


def main() -> int:
    root = os.getcwd()
    bench_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), bench_root]
    from perfbench.run import PINNED_THREAD_VARS

    for var in PINNED_THREAD_VARS:
        os.environ[var] = "1"
    from perfbench import check, workloads

    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=out_dir)
    try:
        for workload in workloads.WORKLOADS:
            session = workloads.make_session(
                workload, workloads.DEFAULT_SEED, 0, os.path.join(work, workload))
            result = workloads.run_session(session)
            failures = check.check_session(result)
            if failures:
                print(f"{workload}: session fails its checks: {failures}", file=sys.stderr)
                return 1
            with open(check.reference_path(workload), "w", encoding="utf-8") as fh:
                json.dump(check.session_record(result), fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {check.reference_path(workload)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
