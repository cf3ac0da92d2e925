"""Output checks behind ``failed``/``attempted``, and the reference comparison.

A job fails if it raises, returns an exit code other than the expected
one, or writes a report that fails its check.  The checks use oracles
that do not go through dqc1kit: a plain numpy trace of the matrix or
circuit the benchmark wrote, the paper's rank floors, the balanced window
recomputed from its definition, and the monotonicity of best-rank
truncation fidelities.  Reports are compared as parsed values, never as
bytes, because the bytes move with BLAS threading.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable

import numpy as np

from .workloads import JobResult, SessionResult

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
# Shot estimates are binomial; 6 standard errors is a miss once in ~5e8 jobs.
ESTIMATE_SIGMAS = 6.0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _scalar(text: str) -> object:
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _cell(text: str) -> object:
    return [_scalar(part) for part in text.split(";")] if ";" in text else _scalar(text)


def _as_list(value: object) -> list:
    return value if isinstance(value, list) else [value]


def parse_output(data: bytes) -> dict:
    """A report as ``{"meta": {...}, "rows": [...]}``; JSON extras join meta."""
    text = data.decode("ascii")
    if text.startswith("{"):
        payload = json.loads(text)
        rows = payload.pop("rows")
        meta = payload.pop("meta")
        meta.update(payload)
        return {"meta": meta, "rows": rows}
    meta: dict = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise ValueError(f"malformed meta line {line!r}")
            meta[key] = _cell(value)
        else:
            lines.append(line)
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, map(_cell, cells))))
    return {"meta": meta, "rows": rows}


def balanced_window(n: int) -> tuple[int, int]:
    """[ceil(n/5), floor(2n/5)], recomputed from the paper's definition."""
    return math.ceil(n / 5), math.floor(2 * n / 5)


def circuit_trace(n: int, gates: list[tuple[int, int, np.ndarray]]) -> complex:
    """Tr(U)/2^n of a gate list by plain matrix products on all basis columns."""
    dim = 2**n
    t = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
    for q1, q2, gate in gates:
        moved = np.moveaxis(t, (q1, q2), (0, 1))
        shape = moved.shape
        moved = (gate @ moved.reshape(4, -1)).reshape(shape)
        t = np.moveaxis(moved, (0, 1), (q1, q2))
    return complex(np.trace(t.reshape(dim, dim))) / dim


def _check_bound_scan(p: dict, report: dict) -> list[str]:
    meta, rows = report["meta"], report["rows"]
    n = p["n"]
    low, high = balanced_window(n)
    total = sum(math.comb(n, a) for a in range(1, n) if low <= min(a, n - a) <= high)
    expected = total if p.get("exhaustive") else min(p["cuts"], total)
    out = []
    if len(rows) != expected:
        out.append(f"{len(rows)} cuts, expected {expected}")
    sides = set()
    for row in rows:
        side = tuple(_as_list(row["side_a"]))
        labels = side[1:]
        a = len(labels)
        window = min(a, n - a)
        rank = row["rank"]
        if side[0] != 0 or list(labels) != sorted(set(labels)) or not all(1 <= q <= n for q in labels):
            out.append(f"bad side_a {side}")
        if row["window_size"] != window or not low <= window <= high:
            out.append(f"cut {side}: window {row['window_size']} outside [{low}, {high}]")
        if row["rank_floor"] != 2**window:
            out.append(f"cut {side}: floor {row['rank_floor']} != 2^{window}")
        if not 1 <= rank <= min(2 ** (a + 1), 2 ** (n - a)):
            out.append(f"cut {side}: rank {rank} impossible for the cut")
            continue
        if row["meets_floor"] != (rank >= 2**window):
            out.append(f"cut {side}: meets_floor disagrees with rank {rank}")
        if not math.isclose(row["log2_rank"], math.log2(rank), abs_tol=FLOAT_ATOL):
            out.append(f"cut {side}: log2_rank {row['log2_rank']} != log2({rank})")
        if p["unitary"] == "product":
            # A product unitary sends |0...0> to a product state, so every
            # probe vector has Schmidt rank at most 2.
            if rank > 2:
                out.append(f"cut {side}: product unitary gave rank {rank} > 2")
        elif p["unitary"] == "haar" and rank < 2**window:
            # A Haar unitary meets every per-cut floor generically.  The probe
            # vector of a random circuit with 4n gates is a weaker witness: at
            # n = 14 it can fall below a cut's floor, even below the global
            # floor, and the report's global_pass then sets the exit code.
            out.append(f"cut {side}: Haar rank {rank} below its floor 2^{window}")
        head = [float(c) for c in _as_list(row["spectrum_head"])]
        if any(c < 0 for c in head) or any(x < y for x, y in zip(head, head[1:])):
            out.append(f"cut {side}: spectrum head not decreasing and nonnegative")
        sides.add(side)
    if len(sides) != len(rows):
        out.append("a cut was evaluated twice")
    ranks = [row["rank"] for row in rows]
    if ranks:
        if meta["min_rank"] != min(ranks):
            out.append(f"min_rank {meta['min_rank']} != {min(ranks)}")
        if meta["global_pass"] != (min(ranks) >= 2**low):
            out.append("global_pass disagrees with the ranks")
    if meta["global_floor"] != 2**low:
        out.append(f"global_floor {meta['global_floor']} != 2^{low}")
    if meta["all_cuts_meet_floor"] != all(row["meets_floor"] for row in rows):
        out.append("all_cuts_meet_floor disagrees with the rows")
    if meta["n"] != n:
        out.append(f"meta n {meta['n']} != {n}")
    return out


def _check_trace(p: dict, report: dict) -> list[str]:
    rows = report["rows"]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    if "matrix" in p:
        oracle = complex(np.trace(p["matrix"])) / p["matrix"].shape[0]
    else:
        oracle = circuit_trace(p["n"], p["gates"])
    exact = complex(row["exact_re"], row["exact_im"])
    out = []
    # |Tr U| / 2^n <= 1, so this absolute tolerance is also a relative one.
    if abs(exact - oracle) > FLOAT_RTOL:
        out.append(f"exact trace {exact} != numpy trace {oracle}")
    for part, err in (("re", row["std_error_re"]), ("im", row["std_error_im"])):
        miss = abs(row[f"estimate_{part}"] - row[f"exact_{part}"])
        if not 0 <= err or miss > ESTIMATE_SIGMAS * err + FLOAT_RTOL:
            out.append(f"estimate_{part} misses the exact value by {miss} with error {err}")
    if report["meta"]["n"] != p["n"]:
        out.append(f"meta n {report['meta']['n']} != {p['n']}")
    return out


def _check_truncation(p: dict, report: dict) -> list[str]:
    rows = report["rows"]
    out = []
    if [row["rank"] for row in rows] != list(range(1, len(rows) + 1)):
        out.append("ranks are not 1..R")
    fids = [row["fidelity"] for row in rows]
    if any(later < earlier - FLOAT_ATOL for earlier, later in zip(fids, fids[1:])):
        out.append("fidelity decreases as rank grows")
    if not fids or abs(fids[-1] - 1.0) > FLOAT_RTOL:
        out.append("full-rank fidelity is not 1")
    for row in rows:
        if not math.isclose(row["epsilon"], max(0.0, 1.0 - row["fidelity"]), abs_tol=FLOAT_ATOL):
            out.append(f"rank {row['rank']}: epsilon != 1 - fidelity")
        if row["bound_satisfied"] is not True or row["linear_bound"] > row["rank"] + FLOAT_ATOL:
            out.append(f"rank {row['rank']}: robust bound violated")
    if len({row["delta_hat"] for row in rows}) > 1:
        out.append("delta_hat differs between rows")
    if report["meta"]["all_satisfied"] is not True:
        out.append("all_satisfied is not true")
    return out


def _check_rank_scaling(p: dict, report: dict) -> list[str]:
    rows = report["rows"]
    out = []
    for n in p["n_list"]:
        mine = [row for row in rows if row["n"] == n]
        runs = [row["min_rank"] for row in mine if isinstance(row["seed"], int)]
        medians = [row["min_rank"] for row in mine if row["seed"] == "median"]
        if len(runs) != p["seeds"] or len(medians) != 1:
            out.append(f"n={n}: {len(runs)} runs and {len(medians)} medians")
            continue
        for row in mine:
            if not 1 <= row["min_rank"] <= 2 ** (n // 2):
                out.append(f"n={n}: min_rank {row['min_rank']} outside [1, 2^{n // 2}]")
            elif not math.isclose(row["log2_min_rank"], math.log2(row["min_rank"]), abs_tol=FLOAT_ATOL):
                out.append(f"n={n}: log2_min_rank disagrees")
        if medians[0] != float(np.median(runs)):
            out.append(f"n={n}: median row {medians[0]} != {np.median(runs)}")
    if len(rows) != len(p["n_list"]) * (p["seeds"] + 1):
        out.append(f"{len(rows)} rows")
    return out


def _check_concentration(p: dict, report: dict) -> list[str]:
    meta, rows = report["meta"], report["rows"]
    d_a, d_b = 2 ** p["na"], 2 ** p["nb"]
    devs = [row["max_deviation"] for row in rows]
    out = []
    if len(rows) != p["samples"]:
        out.append(f"{len(rows)} samples, expected {p['samples']}")
    if meta["d_a"] != d_a or meta["d_b"] != d_b:
        out.append(f"dimensions {meta['d_a']}x{meta['d_b']} != {d_a}x{d_b}")
    bad = [row["sample"] for row in rows if row["nonzero_count"] != d_a]
    if bad or meta["all_counts_equal_d_a"] is not True:
        out.append(f"samples {bad[:5]} have a count other than d_a = {d_a}")
    if any(dev < 0 for dev in devs) or meta["max_deviation_worst"] != max(devs, default=None):
        out.append("deviations inconsistent")
    within = sum(1 for dev in devs if dev <= meta["delta"]) / max(len(devs), 1)
    if not math.isclose(meta["fraction_within"], within, abs_tol=FLOAT_ATOL):
        out.append(f"fraction_within {meta['fraction_within']} != {within}")
    return out


def _check_tree_edge(p: dict, report: dict) -> list[str]:
    rows = report["rows"]
    low, high = balanced_window(p["leaves"] - 1)
    out = []
    if [row["tree_id"] for row in rows] != list(range(p["trees"])):
        out.append("tree ids are not 0..trees-1")
    for row in rows:
        if (row["window_low"], row["window_high"]) != (low, high):
            out.append(f"tree {row['tree_id']}: window {row['window_low']}..{row['window_high']}")
        if not low <= row["n_0"] <= high:
            out.append(f"tree {row['tree_id']}: n_0 = {row['n_0']} outside [{low}, {high}]")
        if row["edge_u"] == row["edge_v"]:
            out.append(f"tree {row['tree_id']}: edge is a loop")
    return out


CHECKS: dict[str, Callable[[dict, dict], list[str]]] = {
    "bound_scan": _check_bound_scan,
    "trace": _check_trace,
    "truncation": _check_truncation,
    "rank_scaling": _check_rank_scaling,
    "concentration": _check_concentration,
    "tree_edge": _check_tree_edge,
}


def check_job(result: JobResult) -> list[str]:
    """Problems with one job's run; empty when it passed."""
    job = result.job
    if result.error is not None:
        return [f"raised: {result.error.strip().splitlines()[-1]}"]
    if result.output is None:
        return [f"no output file (exit code {result.exit_code})"]
    try:
        report = parse_output(result.output)
        out = CHECKS[job.kind](job.params, report)
        expected = job.expect_exit
        if expected is None:
            expected = 0 if report["meta"]["global_pass"] is True else 2
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return [f"malformed report: {exc!r} (exit code {result.exit_code})"]
    if result.exit_code != expected:
        out.append(f"exit code {result.exit_code}, expected {expected}")
    return out


def check_session(result: SessionResult) -> dict[str, list[str]]:
    """Failed jobs of a session, by job name."""
    failures = {}
    for job_result in result.jobs:
        problems = check_job(job_result)
        if problems:
            failures[job_result.job.name] = problems
    return failures


def compare_values(actual: object, expected: object, path: str = "") -> list[str]:
    """Integers, booleans and strings exactly; floats to FLOAT_RTOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(set(actual) ^ set(expected))} differ"]
        return [d for k in expected for d in compare_values(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare_values(a, e, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(actual, numbers) and isinstance(expected, numbers)
            and not isinstance(actual, bool) and not isinstance(expected, bool)
            and (isinstance(actual, float) or isinstance(expected, float))):
        # A float that happens to print as an integer in CSV parses as int.
        if actual == expected or math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def session_record(result: SessionResult) -> dict:
    """What the reference keeps of a session: argv, exit codes and parsed reports."""
    return {
        "workload": result.session.workload,
        "seed": result.session.seed,
        "session": result.session.index,
        "jobs": {
            r.job.name: {
                "argv": list(r.job.argv),
                "exit_code": r.exit_code,
                "report": parse_output(r.output) if r.output is not None else None,
            }
            for r in result.jobs
        },
    }


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def compare_reference(result: SessionResult) -> list[str]:
    """Differences between a session and the recorded reference for it."""
    with open(reference_path(result.session.workload), encoding="utf-8") as fh:
        expected = json.load(fh)
    return compare_values(session_record(result), expected, result.session.workload)
