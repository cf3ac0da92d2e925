"""Fingerprint the CLI's output over a fixed corpus of accepted commands.

    python tests/cli_corpus.py SRC_DIR > corpus.txt

Imports ``dqc1kit`` from SRC_DIR (the ``src`` directory of a checkout),
runs each command through ``dqc1kit.cli.main`` in-process and prints one
line per command: ``sha256(stdout + --out file) float-free-sha256
exit-code argv``.  The second hash is taken over the parsed reports with
every float replaced by a marker, so two checkouts whose outputs differ
only in float digits show the same second column; a CSV cell counts as a
float when it is a number other than an integer literal.  The
corpus is the byte-determinism command set at seeds 1 and 7 and workers
1 and 4, every job of the three benchmark workloads (session 0 of the
default seed), and a few edge cases of flag parsing, of the thread
pool's SVD stacks, of bound-scan's probe stacks (zero-padded spectrum
heads, the tau-free rank stack, randomized product probes) and of
rank-scaling's sketched scan (at 1 and 2 workers, and at a --tol where
cuts fail their sketch and take the full SVD).  Input files are
written to a fixed temporary directory and named by relative paths, so
``meta.source`` is the same for every checkout; two checkouts are then
compared with one ``diff`` of their outputs.  pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

# BLAS threading can move SVD outputs in the last digits; pin it before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKDIR = Path(tempfile.gettempdir()) / "dqc1kit-cli-corpus"

DETERMINISM_SET = [
    ["rank-scaling", "--n-list", "4,6", "--seeds", "2"],
    ["bound-scan", "--n", "6", "--cuts", "8"],
    ["concentration", "--na", "1", "--nb", "5", "--samples", "8"],
    ["trace-estimate", "--cmat", "u3.cmat", "--shots", "5000"],
    ["tree-edge", "--leaves", "8", "--trees", "5"],
    ["truncation", "--n", "5"],
]

EDGE_CASES = [
    ["truncation", "--n", "7", "--ranks", ","],
    ["truncation", "--n", "7", "--ranks", "1, 4"],
    ["truncation", "--n", "6", "--cut", "1,2", "--ranks", "1,4,16", "--format", "json"],
    ["rank-scaling", "--n-list", "4,,6", "--seeds", "1", "--partition-cap", "3"],
    ["bound-scan", "--n", "6", "--exhaustive", "--cuts", "3", "--format", "csv"],
    ["bound-scan", "--n", "7", "--unitary", "circuit", "--gates", "9", "--randomize-index"],
    ["bound-scan", "--n", "8", "--exhaustive", "--randomize-index", "--tau", "0.6"],
    ["bound-scan", "--n", "6", "--cuts", "4", "--tau", "0"],
    ["concentration", "--na", "0", "--nb", "3", "--samples", "2", "--delta", "0"],
    ["rank-scaling", "--n-list", "12", "--seeds", "1", "--partition-cap", "37", "--workers", "4"],
    ["concentration", "--na", "6", "--nb", "6", "--samples", "40", "--workers", "3"],
    ["trace-estimate", "--circuit", "c4.circ", "--circuit-qubits", "4", "--tau", "0.5"],
    ["tree-edge", "--leaves", "6", "--trees", "2", "--seed", str(2**64 - 1)],
    *(["truncation", "--n", n, "--tau", "0.3"] for n in ("5", "6", "7", "8")),
    ["truncation", "--n", "7", "--tau", "0"],
    ["bound-scan", "--n", "10", "--cuts", "10"],
    ["bound-scan", "--n", "10", "--cuts", "10", "--randomize-index"],
    ["bound-scan", "--n", "5", "--cuts", "6"],
    ["bound-scan", "--n", "8", "--cuts", "12", "--tau", "1e-11"],
    ["bound-scan", "--n", "8", "--unitary", "product", "--cuts", "20", "--randomize-index"],
    *(["rank-scaling", "--n-list", "10,12", "--seeds", "3", "--workers", w] for w in ("2", "1")),
    ["rank-scaling", "--n-list", "10,12", "--seeds", "3", "--workers", "2", "--tol", "1e-2"],
]


FLOAT = "<float>"
_INT = re.compile(r"[-+]?\d+")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|[-+]?inf|nan")


def _drop_floats(value):
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, dict):
        return {key: _drop_floats(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_drop_floats(v) for v in value]
    return value


def _csv_cell(text: str):
    """A CSV cell's ';'-separated parts, each float part replaced by FLOAT."""
    parts = text.split(";")
    return [FLOAT if _NUMBER.fullmatch(p) and not _INT.fullmatch(p) else p for p in parts]


def parse_without_floats(report: str):
    """A JSON or CSV report as nested lists and dicts, every float dropped."""
    if report.startswith("{"):
        return _drop_floats(json.loads(report))
    rows = []
    for line in report.splitlines():
        cells = line[2:].split(" = ", 1) if line.startswith("# ") else line.split(",")
        rows.append([_csv_cell(cell) for cell in cells])
    return rows


def run(argv: list[str]) -> str:
    from dqc1kit.cli import main

    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    reports = [stdout.getvalue().encode()]
    if out_path is not None:
        reports.append(Path(out_path).read_bytes())
    parsed = json.dumps([parse_without_floats(report.decode()) for report in reports])
    digests = (hashlib.sha256(data).hexdigest() for data in (b"".join(reports), parsed.encode()))
    return f"{' '.join(digests)} {code} {shlex.join(argv)}"


def main(src: str) -> None:
    sys.path[:0] = [os.path.abspath(src), str(Path(__file__).resolve().parents[1])]
    from dqc1kit import SeedSpec, haar_unitary, random_two_qubit_circuit, write_circuit, write_cmat
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, make_session

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    os.chdir(WORKDIR)
    write_cmat("u3.cmat", haar_unitary(3, SeedSpec(7)).matrix)
    write_circuit("c4.circ", random_two_qubit_circuit(4, 6, SeedSpec(95)))
    for seed in ("1", "7"):
        for workers in ("1", "4"):
            for argv in DETERMINISM_SET:
                print(run(argv + ["--seed", seed, "--workers", workers]))
    for argv in EDGE_CASES:
        print(run(argv))
    for workload in WORKLOADS:
        session = make_session(workload, DEFAULT_SEED, 0, str(WORKDIR / workload))
        os.chdir(session.directory)
        for job in session.jobs:
            print(run(list(job.argv)))
        os.chdir(WORKDIR)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
