"""Command-line experiment runner.

Every subcommand is deterministic in the master seed: task-level seed
streams are derived by task index, results are merged in task order, and
worker count never changes the bytes written.  Exit codes: 0 success,
1 usage or configuration error, 2 a certified property failed
numerically, 3 input/output error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from . import __version__
from .correlation_analysis import (
    SCAN_MIN_QUBITS,
    TRUNCATION_MAX_QUBITS,
    TRUNCATION_MIN_TAU,
    ClaimFalsified,
    balanced_tree_edge,
    balanced_window,
    concentration_report,
    min_equipartition_rank,
    random_degree3_tree,
    rank_bound_scan,
    truncation_experiment,
)
from .dqc1_model import (
    STREAM_LIMIT,
    TRACE_MIN_TAU,
    Dqc1Config,
    register_columns,
    simulate_trace_estimation,
)
from .fileio import FileFormatError, read_circuit, read_unitary_cmat, render_csv, render_json
from .randomness import SeedSpec, haar_product_unitary, haar_unitary, random_two_qubit_circuit
from .tensor_core import DEFAULT_RANK_TOL, Bipartition, PureState


def _openblas_thread_calls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The get/set thread-count calls of the OpenBLAS in numpy's wheel, if there is one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# Looked up once: the library is already loaded by numpy, this only finds it.
_OPENBLAS_THREADS = _openblas_thread_calls()


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run BLAS on one thread inside the block and restore the old count after.

    Two OpenBLAS threads move SVD outputs in the last digits, so the output
    bytes hold at one thread; --workers is the one parallelism knob.
    """
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # -> never returns
        raise ValueError(message)


@dataclass
class CommandResult:
    meta: dict
    rows: list[dict]
    extras: dict = field(default_factory=dict)
    default_format: str = "csv"
    exit_code: int = 0


def _ranged(kind: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds; nan never does."""

    def convert(text: str):
        value = kind(text)
        if value != value or not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid int value: ..." names it
    return convert


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expects comma-separated integers") from None


_AT_LEAST_1 = _ranged(int, lambda v: v >= 1, "be >= 1")
_UNIT_TAU = _ranged(float, lambda v: 0 <= v <= 1, "lie in [0, 1]")
# Generator.binomial takes a signed 64-bit count.
_SHOTS = _ranged(int, lambda v: 1 <= v < 2**63, "lie in [1, 2^63 - 1]")
_TRUNCATION_TAU = _ranged(float, lambda v: v == 0 or TRUNCATION_MIN_TAU <= v <= 1,
                          f"be 0 or lie in [{TRUNCATION_MIN_TAU}, 1]: a polarization below "
                          f"{TRUNCATION_MIN_TAU} cannot be resolved")
_TRACE_TAU = _ranged(float, lambda v: TRACE_MIN_TAU <= v <= 1,
                     f"lie in [{TRACE_MIN_TAU}, 1]: a polarization below {TRACE_MIN_TAU} "
                     "cannot be resolved")


def _qubits(low: int, high: int = STREAM_LIMIT):
    """An argparse type for a register size in [low, high]."""
    return _ranged(int, lambda v: low <= v <= high, f"lie in [{low}, {high}]")


def _base_meta(args: argparse.Namespace) -> dict:
    # workers and output location are excluded: results must not depend
    # on them, and the meta block records only what shapes the bytes.
    return {
        "tool": "dqc1kit",
        "version": __version__,
        "command": args.command,
        "master_seed": args.seed,
        "tol": args.tol,
    }


def _cmd_rank_scaling(args: argparse.Namespace) -> CommandResult:
    master = SeedSpec(args.seed)
    # Lazy: a list of every (n, seed) pair could exhaust memory before any work.
    tasks = ((n, s) for n in args.n_list for s in range(args.num_seeds))
    rows = []
    # The tasks run in turn and each scan spreads its cuts over the workers:
    # one task per worker left the largest n alone on one thread.
    for task_id, (n, seed_index) in enumerate(tasks):
        task_seed = master.child(task_id)
        circuit = random_two_qubit_circuit(n, args.gates_factor * n, task_seed.child(0))
        state = PureState(n, register_columns(circuit, [0], False)[:, 0])
        min_rank = min_equipartition_rank(
            state, args.tol, args.partition_cap, task_seed.child(1), args.workers
        )
        rows.append({
            "n": n,
            "seed": seed_index,
            "min_rank": min_rank,
            "log2_min_rank": float(np.log2(min_rank)),
        })
    medians = [statistics.median(r["min_rank"] for r in rows if r["n"] == n) for n in args.n_list]
    rows += [
        {"n": n, "seed": "median", "min_rank": float(med), "log2_min_rank": float(np.log2(med))}
        for n, med in zip(args.n_list, medians)
    ]
    meta = _base_meta(args)
    meta.update(
        n_list=args.n_list,
        seeds=args.num_seeds,
        gates_factor=args.gates_factor,
        partition_cap=args.partition_cap if args.partition_cap is not None else "none",
    )
    return CommandResult(meta, rows)


def _build_unitary(args: argparse.Namespace, n: int, seed: SeedSpec):
    if args.gates is not None and args.unitary != "circuit":
        raise ValueError("--gates applies only to --unitary circuit")
    if args.unitary == "haar":
        return haar_unitary(n, seed)
    if args.unitary == "product":
        return haar_product_unitary(n, seed)
    gates = args.gates if args.gates is not None else 4 * n
    return random_two_qubit_circuit(n, gates, seed)


def _cmd_bound_scan(args: argparse.Namespace) -> CommandResult:
    master = SeedSpec(args.seed)
    unitary = _build_unitary(args, args.n, master.child(0))
    config = Dqc1Config(args.tau, unitary)
    report = rank_bound_scan(
        config,
        num_cuts=None if args.exhaustive else args.cuts,
        rel_tol=args.tol,
        seed=master.child(1),
        randomize_index=args.randomize_index,
    )
    low, _high = balanced_window(args.n)
    global_floor = 2**low
    global_pass = report.min_rank >= global_floor
    meta = _base_meta(args)
    meta.update(
        n=args.n,
        tau=args.tau,
        cuts=args.cuts,
        exhaustive=args.exhaustive,
        unitary=args.unitary,
        gates=args.gates if args.gates is not None else "none",
        randomize_index=args.randomize_index,
    )
    extras = {
        "min_rank": report.min_rank,
        "argmin_side_a": report.argmin_side_a,
        "global_floor": global_floor,
        "global_pass": global_pass,
        "all_cuts_meet_floor": report.all_meet_floor,
    }
    return CommandResult(
        meta, [vars(r) for r in report.records], extras, default_format="json",
        exit_code=0 if global_pass else 2,
    )


def _cmd_concentration(args: argparse.Namespace) -> CommandResult:
    report = concentration_report(
        args.na, args.nb, args.samples, SeedSpec(args.seed), workers=args.workers,
        rel_tol=args.tol,
    )
    rows = [
        {"sample": k, "max_deviation": dev, "nonzero_count": cnt}
        for k, (dev, cnt) in enumerate(zip(report.max_deviations, report.nonzero_counts))
    ]
    meta = _base_meta(args)
    meta.update(na=args.na, nb=args.nb, delta=args.delta, samples=args.samples)
    extras = {
        "d_a": 2**args.na,
        "d_b": 2**args.nb,
        "fraction_within": report.fraction_for(args.delta),
        "max_deviation_worst": max(report.max_deviations),
        "all_counts_equal_d_a": all(c == 2**args.na for c in report.nonzero_counts),
    }
    return CommandResult(meta, rows, extras, default_format="json")


def _cmd_trace_estimate(args: argparse.Namespace) -> CommandResult:
    if args.cmat is not None:
        unitary = read_unitary_cmat(args.cmat)
    else:
        if args.circuit_qubits is None:
            raise ValueError("--circuit requires --circuit-qubits")
        unitary = read_circuit(args.circuit, args.circuit_qubits)
    config = Dqc1Config(args.tau, unitary)
    estimate = simulate_trace_estimation(config, args.shots, SeedSpec(args.seed).child(0))
    exact = estimate.exact
    meta = _base_meta(args)
    meta.update(
        n=unitary.num_qubits,
        tau=args.tau,
        shots=args.shots,
        source=args.cmat if args.cmat is not None else args.circuit,
    )
    row = {
        "exact_re": exact.real,
        "exact_im": exact.imag,
        "estimate_re": estimate.estimate.real,
        "estimate_im": estimate.estimate.imag,
        "std_error_re": estimate.std_error_real,
        "std_error_im": estimate.std_error_imag,
    }
    return CommandResult(meta, [row], default_format="json")


def _cmd_tree_edge(args: argparse.Namespace) -> CommandResult:
    master = SeedSpec(args.seed)
    low, high = balanced_window(args.leaves - 1)
    rows = []
    for tree_id in range(args.trees):
        tree = random_degree3_tree(args.leaves, master.child(tree_id))
        (u, v), n_0 = balanced_tree_edge(tree)
        rows.append({
            "tree_id": tree_id,
            "edge_u": u,
            "edge_v": v,
            "n_0": n_0,
            "window_low": low,
            "window_high": high,
        })
    meta = _base_meta(args)
    meta.update(leaves=args.leaves, trees=args.trees)
    return CommandResult(meta, rows)


def _cmd_truncation(args: argparse.Namespace) -> CommandResult:
    low, _high = balanced_window(args.n)
    if args.cut is not None:
        side_a = tuple(sorted(set(args.cut) | {0}))
    else:
        side_a = tuple(range(low + 1))
    cut = Bipartition(args.n + 1, side_a)  # a bad --cut is refused before the state is built
    config = Dqc1Config(args.tau, haar_unitary(args.n, SeedSpec(args.seed).child(0)))
    ranks = _int_list(args.ranks) if args.ranks is not None else None
    table = truncation_experiment(config, cut, ranks, args.tol)
    meta = _base_meta(args)
    meta.update(
        n=args.n,
        tau=args.tau,
        side_a=side_a,
        ranks=args.ranks if args.ranks is not None else "all",
    )
    all_satisfied = all(row.bound_satisfied for row in table)
    return CommandResult(
        meta, [vars(row) for row in table], {"all_satisfied": all_satisfied},
        exit_code=0 if all_satisfied else 2,
    )


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--seed", type=_ranged(int, lambda v: 0 <= v < 2**64, "lie in [0, 2^64)"), default=1,
        help="master seed (default 1)",
    )
    common.add_argument(
        "--workers", type=_AT_LEAST_1, default=1,
        help="threads for the stacked SVDs of rank-scaling and concentration and for"
        " rank-scaling's Cholesky tests (default 1)",
    )
    common.add_argument(
        "--tol", type=_ranged(float, lambda v: 0 < v < 1, "lie in (0, 1)"),
        default=DEFAULT_RANK_TOL,
        help="relative rank tolerance in (0, 1)",
    )
    common.add_argument("--out", default="-", help="output path, '-' for stdout")
    common.add_argument("--format", choices=["csv", "json"], default=None)

    parser = _Parser(prog="dqc1kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rank-scaling", parents=[common],
        help="minimum equipartition Schmidt rank of random circuit states",
    )
    p.add_argument(
        "--n-list", default="4,6,8,10,12",
        type=_ranged(_int_list,
                     lambda ns: ns and all(2 <= n <= STREAM_LIMIT and n % 2 == 0 for n in ns),
                     f"list even qubit counts in [2, {STREAM_LIMIT}]"),
    )
    p.add_argument("--seeds", dest="num_seeds", type=_AT_LEAST_1, default=10)
    p.add_argument("--gates-factor", type=_AT_LEAST_1, default=2)
    p.add_argument("--partition-cap", type=_AT_LEAST_1, default=None)
    p.set_defaults(run=_cmd_rank_scaling)

    p = sub.add_parser(
        "bound-scan", parents=[common],
        help="certified rank floors over balanced cuts of the joint state",
    )
    p.add_argument("--n", type=_qubits(SCAN_MIN_QUBITS), default=8)
    p.add_argument("--cuts", type=_AT_LEAST_1, default=50)
    p.add_argument("--tau", type=_UNIT_TAU, default=1.0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--unitary", choices=["haar", "product", "circuit"], default="haar")
    p.add_argument("--gates", type=_AT_LEAST_1, default=None)
    p.add_argument("--randomize-index", action="store_true")
    p.set_defaults(run=_cmd_bound_scan)

    p = sub.add_parser(
        "concentration", parents=[common],
        help="reduction-spectrum concentration of Haar-random states",
    )
    p.add_argument("--na", type=_ranged(int, lambda v: v >= 0, "be >= 0"), default=2)
    p.add_argument("--nb", type=_AT_LEAST_1, default=9)
    p.add_argument(
        "--delta", type=_ranged(float, lambda v: 0 <= v < np.inf, "be a finite number >= 0"),
        default=0.5,
    )
    p.add_argument("--samples", type=_AT_LEAST_1, default=200)
    p.set_defaults(run=_cmd_concentration)

    p = sub.add_parser(
        "trace-estimate", parents=[common],
        help="exact and shot-estimated normalized trace of a unitary",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cmat", default=None, help="CMAT v1 unitary file")
    source.add_argument("--circuit", default=None, help="gate-per-line circuit file")
    p.add_argument("--circuit-qubits", type=_qubits(1), default=None)
    p.add_argument("--shots", type=_SHOTS, default=10000)
    p.add_argument("--tau", type=_TRACE_TAU, default=1.0)
    p.set_defaults(run=_cmd_trace_estimate)

    p = sub.add_parser(
        "tree-edge", parents=[common],
        help="balanced-edge existence over random degree-<=3 trees",
    )
    p.add_argument("--leaves", type=_ranged(int, lambda v: v >= 6, "be >= 6"), default=16)
    p.add_argument("--trees", type=_AT_LEAST_1, default=100)
    p.set_defaults(run=_cmd_tree_edge)

    p = sub.add_parser(
        "truncation", parents=[common],
        help="fidelity of rank truncations against the certified floor",
    )
    p.add_argument("--n", type=_qubits(SCAN_MIN_QUBITS, TRUNCATION_MAX_QUBITS), default=7)
    p.add_argument("--tau", type=_TRUNCATION_TAU, default=1.0)
    p.add_argument("--cut", type=_int_list, default=None, help="comma-separated side-A labels")
    p.add_argument(  # kept as text: meta.ranks echoes it
        "--ranks", default=None, help="comma-separated ranks (default: all)",
        type=_ranged(str, lambda text: min(_int_list(text), default=0) >= 1,
                     "list at least one rank, each >= 1"),
    )
    p.set_defaults(run=_cmd_truncation)

    return parser


# Built once: every main() call parses with this tree.
_PARSER = _build_parser()


def _serialize(result: CommandResult, chosen_format: Optional[str]) -> str:
    fmt = chosen_format or result.default_format
    if fmt == "json":
        payload = {"meta": result.meta, **result.extras, "rows": result.rows}
        return render_json(payload)
    meta = dict(result.meta)
    meta.update(result.extras)
    # Every command reports at least one row, and its rows share one key order.
    return render_csv(meta, list(result.rows[0]), result.rows)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        with _one_blas_thread():
            result = args.run(args)
        text = _serialize(result, args.format)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        return result.exit_code
    except ClaimFalsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 2
    except FileFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
