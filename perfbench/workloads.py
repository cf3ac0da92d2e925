"""The three workloads: per-session inputs, job lists and the session runner.

A session is one pass over a workload's fixed job list.  Every session
draws fresh CLI seeds and writes fresh input files, all derived from
(workload, workload seed, session index), so no session can reuse the
result of another and the same workload seed always yields the same
argv and the same input bytes.  The program sees only those argv lists
and files: jobs run through ``dqc1kit.cli.main`` in-process, with the
session directory as the working directory.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from dqc1kit import cli, fileio
from dqc1kit.randomness import Circuit, GateSpec

DEFAULT_SEED = 1

# Job sizes.  circuit_scan keeps the paper's n = 14 register (past the
# dense limit of 12) but samples 20 cuts rather than 50, and traces a
# 9-qubit circuit rather than a 10-qubit one, so that a run of the
# benchmark holds enough sessions for a tail percentile.
SCAN_QUBITS = 14
SCAN_CUTS = 20
TRACE_CIRCUIT_QUBITS = 9
TRACE_CIRCUIT_GATES = 36
CMAT_QUBITS = 8

WORKLOADS = ("circuit_scan", "dense_analysis", "small_jobs")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output check needs to know."""

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str
    # None: the report decides (0 if its global floor holds, else 2).
    expect_exit: Optional[int] = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    workload: str
    seed: int
    index: int
    directory: str
    jobs: tuple[Job, ...]


@dataclass(frozen=True)
class JobResult:
    job: Job
    exit_code: Optional[int]
    seconds: float
    output: Optional[bytes]
    error: Optional[str] = None


@dataclass(frozen=True)
class SessionResult:
    session: Session
    seconds: float
    jobs: tuple[JobResult, ...]


def derive_seed(*parts: object) -> int:
    """A 63-bit integer determined by the parts (valid as a CLI ``--seed``)."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_gates(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int, np.ndarray]]:
    gates = []
    for _ in range(count):
        q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
        gates.append((q1, q2, _haar(4, rng)))
    return gates


def _job(workload: str, seed: int, index: int, name: str, kind: str, argv: list[str],
         ext: str, expect_exit: Optional[int] = 0, **params: object) -> Job:
    out = f"{name}.{ext}"
    job_seed = derive_seed(workload, seed, index, "job", name)
    full = tuple(argv) + ("--seed", str(job_seed), "--out", out)
    return Job(name, kind, full, out, expect_exit, dict(params))


def make_session(workload: str, seed: int, index: int, directory: str) -> Session:
    """Write the session's input files into ``directory`` and list its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(derive_seed(workload, seed, index, "inputs"))

    def job(*args, **kwargs) -> Job:
        return _job(workload, seed, index, *args, **kwargs)

    if workload == "circuit_scan":
        gates = _random_gates(TRACE_CIRCUIT_QUBITS, TRACE_CIRCUIT_GATES, rng)
        circuit = Circuit(TRACE_CIRCUIT_QUBITS, tuple(GateSpec((a, b), m) for a, b, m in gates))
        fileio.write_circuit(os.path.join(directory, "circuit.txt"), circuit)
        scan = ["bound-scan", "--unitary", "circuit", "--n", str(SCAN_QUBITS), "--cuts", str(SCAN_CUTS)]
        jobs = [
            job("scan_default", "bound_scan", scan, "json", expect_exit=None,
                n=SCAN_QUBITS, cuts=SCAN_CUTS, unitary="circuit"),
            job("scan_random", "bound_scan", scan + ["--randomize-index"], "json",
                expect_exit=None, n=SCAN_QUBITS, cuts=SCAN_CUTS, unitary="circuit"),
            job("trace_circuit", "trace",
                ["trace-estimate", "--circuit", "circuit.txt",
                 "--circuit-qubits", str(TRACE_CIRCUIT_QUBITS)],
                "json", n=TRACE_CIRCUIT_QUBITS, gates=gates),
        ]
    elif workload == "dense_analysis":
        jobs = [
            job("scan_exhaustive", "bound_scan", ["bound-scan", "--n", "9", "--exhaustive"],
                "json", n=9, exhaustive=True, unitary="haar"),
            job("truncation", "truncation", ["truncation", "--n", "7"], "csv", n=7),
            job("rank_scaling", "rank_scaling",
                ["rank-scaling", "--n-list", "10,12", "--seeds", "1", "--workers", "2"],
                "csv", n_list=(10, 12), seeds=1),
            job("scan_product", "bound_scan",
                ["bound-scan", "--n", "8", "--unitary", "product", "--cuts", "50"],
                "json", expect_exit=2, n=8, cuts=50, unitary="product"),
        ]
    else:
        matrix = _haar(2**CMAT_QUBITS, rng)
        fileio.write_cmat(os.path.join(directory, "unitary.cmat"), matrix)
        jobs = [
            job("trace_cmat", "trace", ["trace-estimate", "--cmat", "unitary.cmat"], "json",
                n=CMAT_QUBITS, matrix=matrix),
            job("concentration", "concentration",
                ["concentration", "--na", "3", "--nb", "9", "--samples", "100"], "json",
                na=3, nb=9, samples=100),
            job("tree_edge", "tree_edge", ["tree-edge", "--leaves", "16", "--trees", "100"],
                "csv", leaves=16, trees=100),
            job("scan_csv", "bound_scan",
                ["bound-scan", "--n", "6", "--cuts", "8", "--format", "csv"], "csv",
                n=6, cuts=8, unitary="haar"),
        ]
    return Session(workload, seed, index, directory, tuple(jobs))


def run_session(session: Session) -> SessionResult:
    """Run the jobs one after another; the session time excludes reading outputs."""
    previous = os.getcwd()
    os.chdir(session.directory)
    try:
        timings = []
        start = time.perf_counter()
        for job in session.jobs:
            began = time.perf_counter()
            error = None
            try:
                code: Optional[int] = cli.main(list(job.argv))
            except Exception:  # a crash is a failed job, not the end of the run
                code, error = None, traceback.format_exc()
            timings.append((job, code, time.perf_counter() - began, error))
        seconds = time.perf_counter() - start
        results = []
        for job, code, took, error in timings:
            try:
                with open(job.out, "rb") as fh:
                    output: Optional[bytes] = fh.read()
            except FileNotFoundError:
                output = None
            results.append(JobResult(job, code, took, output, error))
    finally:
        os.chdir(previous)
    return SessionResult(session, seconds, tuple(results))
