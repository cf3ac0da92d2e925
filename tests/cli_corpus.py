"""Fingerprint the CLI's output over a fixed corpus of accepted commands.

    python tests/cli_corpus.py SRC_DIR > corpus.txt
    python tests/cli_corpus.py src --write

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
rank-scaling's sketched scan (at 1 and 2 workers, at --tol 1e-2 at 1
and 2 workers, where many cuts fail their test and take the full SVD
and the work depends most on the sketch, at --tol 1e-3, where sketches
drawn differently pass different cuts, on an n = 10 state
whose minimum is d = 32, so every cut is proven at m = d, and at n = 16,
where a stack holds one cut) and of the circuit column kernel (an
11-qubit streamed trace, whose blocks hold 32 columns, and a
randomized-index scan at n = 12, whose blocks hold 16 columns evolved
both ways, and one at n = 14 with 4 gates, whose untouched qubits enter
the columns only after the last block), and of the circuit-file
unitarity check (c4.circ with one entry of its third gate moved by
5e-10, which is accepted, and by 1e-7, which is refused with exit code
3).  Last come the column lanes: an n = 12 randomized-index circuit scan
and the 11-qubit trace at 1 and 2 workers.  Input files are
written to a scratch directory and named by relative paths, so
``meta.source`` is the same for every checkout; two checkouts are then
compared with one ``diff`` of their outputs.

With ``--write`` the lines go to the golden file ``cli_corpus.expected``
next to this script instead, under a header that records the environment
(ENV_FIELDS) they were made in; ``test_cli_corpus.py`` checks the running
CLI against that file.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

WORKDIR = Path(tempfile.gettempdir()) / "dqc1kit-cli-corpus"
GOLDEN = Path(__file__).with_name("cli_corpus.expected")
WRITE_COMMAND = "python tests/cli_corpus.py src --write"
# The full-bytes hash holds only where all of these match the golden file's.
ENV_FIELDS = ("python", "numpy", "blas", "machine")

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
    *(["rank-scaling", "--n-list", "10,12", "--seeds", "3", "--workers", w, "--tol", "1e-2"]
      for w in ("2", "1")),
    ["rank-scaling", "--n-list", "10,12", "--seeds", "3", "--workers", "1", "--tol", "1e-3"],
    ["rank-scaling", "--n-list", "10", "--seeds", "4", "--workers", "2"],
    ["rank-scaling", "--n-list", "16", "--seeds", "2", "--partition-cap", "200", "--workers", "2"],
    ["trace-estimate", "--circuit", "c11.circ", "--circuit-qubits", "11"],
    ["bound-scan", "--unitary", "circuit", "--n", "12", "--cuts", "30", "--randomize-index"],
    ["bound-scan", "--unitary", "circuit", "--n", "14", "--gates", "4", "--cuts", "20",
     "--randomize-index"],
    *(["trace-estimate", "--circuit", f"c4_off{eps}.circ", "--circuit-qubits", "4"]
      for eps in ("5e-10", "1e-7")),
]

# Run after the workloads, so that these lines follow every older one.  At
# two workers the scan's blocks and the trace's run on two lanes.
LANE_CASES = [
    *(argv + ["--workers", w] for w in ("1", "2") for argv in (
        ["bound-scan", "--unitary", "circuit", "--n", "12", "--cuts", "50", "--randomize-index"],
        ["trace-estimate", "--circuit", "c11.circ", "--circuit-qubits", "11"],
    )),
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


def _blas(numpy) -> str:
    """The running BLAS: OpenBLAS's runtime config (it names the CPU kernel), else the build's."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            config = getattr(ctypes.CDLL(path), "scipy_openblas_get_config64_", None)
        except OSError:
            continue
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            return " ".join(config().decode().split())
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{build.get('name')} {build.get('version')}"


def environment() -> dict[str, str]:
    """The ENV_FIELDS of the running interpreter."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "machine": platform.machine(),
    }


def _write_off_unitary(path: str, circuit, eps: float) -> None:
    """``circuit``'s file with ``eps`` added to the first entry of its third gate."""
    from dqc1kit import write_circuit

    gates = [SimpleNamespace(targets=g.targets, matrix=g.matrix.copy()) for g in circuit.gates]
    gates[2].matrix[0, 0] += eps
    write_circuit(path, SimpleNamespace(num_qubits=circuit.num_qubits, gates=gates))


def corpus(workdir: Path) -> Iterator[str]:
    """Run the corpus in ``workdir``, which it empties first; yield one line per command.

    BLAS runs on one thread throughout: the input files' draws, like the
    SVDs, can move in the last digits on two.
    """
    from dqc1kit import SeedSpec, haar_unitary, random_two_qubit_circuit, write_circuit, write_cmat
    from dqc1kit.cli import _one_blas_thread
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, make_session

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    home = os.getcwd()
    try:
        with _one_blas_thread():
            os.chdir(workdir)
            write_cmat("u3.cmat", haar_unitary(3, SeedSpec(7)).matrix)
            c4 = random_two_qubit_circuit(4, 6, SeedSpec(95))
            write_circuit("c4.circ", c4)
            for eps in ("5e-10", "1e-7"):
                _write_off_unitary(f"c4_off{eps}.circ", c4, float(eps))
            write_circuit("c11.circ", random_two_qubit_circuit(11, 44, SeedSpec(11)))
            for seed in ("1", "7"):
                for workers in ("1", "4"):
                    for argv in DETERMINISM_SET:
                        yield run(argv + ["--seed", seed, "--workers", workers])
            for argv in EDGE_CASES:
                yield run(argv)
            for workload in WORKLOADS:
                session = make_session(workload, DEFAULT_SEED, 0, str(workdir / workload))
                os.chdir(session.directory)
                for job in session.jobs:
                    yield run(list(job.argv))
                os.chdir(workdir)
            for argv in LANE_CASES:
                yield run(argv)
    finally:
        os.chdir(home)


def read_golden() -> tuple[dict[str, str], list[str]]:
    """The environment header and the corpus lines of the golden file."""
    env, lines = {}, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        key, sep, value = line[2:].partition(": ")
        if line.startswith("# ") and sep and key in ENV_FIELDS:
            env[key] = value
        elif not line.startswith("#"):
            lines.append(line)
    return env, lines


def compare(golden_env: dict, golden: list[str], env: dict, lines: list[str]) -> list[str]:
    """What differs between a golden corpus and a fresh run, one message per difference.

    Commands, exit codes and float-free hashes must match everywhere; the
    full-bytes hashes are compared when the environments match, and
    otherwise each differing environment field is itself a difference.
    """
    problems = []
    if len(lines) != len(golden):
        problems.append(f"{len(lines)} corpus lines, the golden file has {len(golden)}")
    moved_env = [f"{key}: {env.get(key)!r} here, {golden_env.get(key)!r} in the golden file"
                 for key in ENV_FIELDS if env.get(key) != golden_env.get(key)]
    for k, (want, got) in enumerate(zip(golden, lines), 1):
        want_bytes, want_free, want_code, want_argv = want.split(" ", 3)
        got_bytes, got_free, got_code, got_argv = got.split(" ", 3)
        where = f"line {k} ({want_argv})"
        if got_argv != want_argv:
            problems.append(f"{where}: the command is now {got_argv!r}")
        elif got_code != want_code:
            problems.append(f"{where}: exit code {got_code}, golden {want_code}")
        elif got_free != want_free:
            problems.append(f"{where}: the float-free report differs")
        elif got_bytes != want_bytes and not moved_env:
            problems.append(f"{where}: the output bytes differ")
    if moved_env:
        problems.append("the environment differs from the golden file's, so its full-bytes "
                        "hashes were not checked: " + "; ".join(moved_env))
    return problems


def write_golden(lines: list[str]) -> None:
    header = [f"# Output of tests/cli_corpus.py. Regenerate: {WRITE_COMMAND}"]
    header += [f"# {key}: {value}" for key, value in environment().items()]
    GOLDEN.write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def main(src: str, write: bool) -> None:
    sys.path[:0] = [os.path.abspath(src), str(Path(__file__).resolve().parents[1])]
    lines = list(corpus(WORKDIR))
    if write:
        write_golden(lines)
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[2:] not in ([], ["--write"]):
        sys.exit(__doc__)
    # BLAS threading can move SVD outputs in the last digits; pin it before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    main(sys.argv[1], sys.argv[2:] == ["--write"])
