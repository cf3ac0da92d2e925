"""Command-line experiment runner.

Every subcommand is deterministic in the master seed: task-level seed
streams are derived by task index, results are merged in task order, and
worker count never changes the bytes written.  Exit codes: 0 success,
1 usage or configuration error, 2 a certified property failed
numerically, 3 input/output error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__
from .correlation_analysis import (
    ClaimFalsified,
    CutRecord,
    TruncationRow,
    balanced_tree_edge,
    balanced_window,
    concentration_report,
    min_rank_over_equipartitions,
    parallel_map,
    random_degree3_tree,
    rank_bound_scan,
    truncation_experiment,
)
from .dqc1_model import Dqc1Config, simulate_trace_estimation
from .fileio import FileFormatError, read_circuit, read_unitary_cmat, render_csv, render_json
from .randomness import (
    DENSE_LIMIT,
    SeedSpec,
    apply_circuit,
    haar_product_unitary,
    haar_unitary,
    random_two_qubit_circuit,
)
from .tensor_core import Bipartition, basis_state


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # -> never returns
        raise ValueError(message)


@dataclass
class CommandResult:
    meta: dict
    columns: list[str]
    rows: list[dict]
    extras: dict = field(default_factory=dict)
    default_format: str = "csv"
    exit_code: int = 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated integers") from exc


def _master_seed(args: argparse.Namespace) -> SeedSpec:
    if not 0 <= args.seed < 2**64:
        raise ValueError("--seed must fit in an unsigned 64-bit integer")
    return SeedSpec(args.seed)


def _base_meta(args: argparse.Namespace, command: str) -> dict:
    # workers and output location are excluded: results must not depend
    # on them, and the meta block records only what shapes the bytes.
    return {
        "tool": "dqc1kit",
        "version": __version__,
        "command": command,
        "master_seed": args.seed,
        "tol": args.tol,
    }


def _cmd_rank_scaling(args: argparse.Namespace) -> CommandResult:
    n_list = _parse_int_list(args.n_list, "--n-list")
    if not n_list or any(n < 2 or n % 2 for n in n_list):
        raise ValueError("--n-list needs even qubit counts >= 2")
    if args.num_seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.gates_factor < 1:
        raise ValueError("--gates-factor must be >= 1")
    master = _master_seed(args)
    tasks = [(n, s) for n in n_list for s in range(args.num_seeds)]

    def run_task(task: tuple[int, tuple[int, int]]) -> dict:
        task_id, (n, seed_index) = task
        task_seed = master.child(task_id)
        circuit = random_two_qubit_circuit(n, args.gates_factor * n, task_seed.child(0))
        state = apply_circuit(circuit, basis_state(n, 0))
        report = min_rank_over_equipartitions(
            state, args.tol, args.partition_cap, task_seed.child(1)
        )
        return {
            "n": n,
            "seed": seed_index,
            "min_rank": report.min_rank,
            "log2_min_rank": float(np.log2(report.min_rank)),
        }

    rows = parallel_map(run_task, list(enumerate(tasks)), args.workers)
    for n in n_list:
        med = statistics.median(r["min_rank"] for r in rows if r["n"] == n and isinstance(r["seed"], int))
        rows.append(
            {
                "n": n,
                "seed": "median",
                "min_rank": float(med),
                "log2_min_rank": float(np.log2(med)),
            }
        )
    meta = _base_meta(args, "rank-scaling")
    meta.update(
        n_list=n_list,
        seeds=args.num_seeds,
        gates_factor=args.gates_factor,
        partition_cap=args.partition_cap if args.partition_cap is not None else "none",
    )
    return CommandResult(meta, ["n", "seed", "min_rank", "log2_min_rank"], rows)


def _build_unitary(args: argparse.Namespace, n: int, seed: SeedSpec):
    if args.gates is not None and args.unitary != "circuit":
        raise ValueError("--gates applies only to --unitary circuit")
    if args.unitary == "haar":
        if n > DENSE_LIMIT:
            raise ValueError(
                f"dense Haar mode needs n <= {DENSE_LIMIT}; use --unitary circuit"
            )
        return haar_unitary(n, seed)
    if args.unitary == "product":
        if n > DENSE_LIMIT:
            raise ValueError(f"product mode needs n <= {DENSE_LIMIT}")
        return haar_product_unitary(n, seed)
    gates = args.gates if args.gates is not None else 4 * n
    if gates < 1:
        raise ValueError("--gates must be >= 1")
    return random_two_qubit_circuit(n, gates, seed)


def _cmd_bound_scan(args: argparse.Namespace) -> CommandResult:
    if args.n < 5:
        raise ValueError("--n must be >= 5 (the scan's policy minimum)")
    if not 0.0 <= args.tau <= 1.0:
        raise ValueError("--tau must lie in [0, 1]")
    master = _master_seed(args)
    unitary = _build_unitary(args, args.n, master.child(0))
    config = Dqc1Config(args.n, args.tau, unitary)
    report = rank_bound_scan(
        config,
        num_cuts=args.cuts,
        rel_tol=args.tol,
        seed=master.child(1),
        exhaustive=args.exhaustive,
        randomize_index=args.randomize_index,
        workers=args.workers,
    )
    low, _high = balanced_window(args.n)
    global_floor = 2**low
    global_pass = report.min_rank >= global_floor
    meta = _base_meta(args, "bound-scan")
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
        meta, [f.name for f in fields(CutRecord)], [vars(r) for r in report.records], extras,
        default_format="json",
        exit_code=0 if global_pass else 2,
    )


def _cmd_concentration(args: argparse.Namespace) -> CommandResult:
    if not 0.0 <= args.delta < np.inf:
        raise ValueError("--delta must be a finite number >= 0")
    master = _master_seed(args)
    report = concentration_report(
        args.na, args.nb, args.delta, args.samples, master, workers=args.workers,
        rel_tol=args.tol,
    )
    rows = [
        {"sample": k, "max_deviation": dev, "nonzero_count": cnt}
        for k, (dev, cnt) in enumerate(zip(report.max_deviations, report.nonzero_counts))
    ]
    meta = _base_meta(args, "concentration")
    meta.update(na=args.na, nb=args.nb, delta=args.delta, samples=args.samples)
    extras = {
        "d_a": report.d_a,
        "d_b": report.d_b,
        "fraction_within": report.fraction_within,
        "max_deviation_worst": max(report.max_deviations),
        "all_counts_equal_d_a": all(c == report.d_a for c in report.nonzero_counts),
    }
    return CommandResult(
        meta, ["sample", "max_deviation", "nonzero_count"], rows, extras,
        default_format="json",
    )


def _cmd_trace_estimate(args: argparse.Namespace) -> CommandResult:
    if args.cmat is not None:
        unitary = read_unitary_cmat(args.cmat)
    else:
        if args.circuit_qubits is None:
            raise ValueError("--circuit requires --circuit-qubits")
        unitary = read_circuit(args.circuit, args.circuit_qubits)
    if not 0.0 <= args.tau <= 1.0:
        raise ValueError("--tau must lie in [0, 1]")
    if args.shots < 1:
        raise ValueError("--shots must be >= 1")
    master = _master_seed(args)
    config = Dqc1Config(unitary.num_qubits, args.tau, unitary)
    estimate = simulate_trace_estimation(config, args.shots, master.child(0))
    exact = estimate.exact
    meta = _base_meta(args, "trace-estimate")
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
    return CommandResult(meta, list(row), [row], default_format="json")


def _cmd_tree_edge(args: argparse.Namespace) -> CommandResult:
    if args.leaves < 6:
        raise ValueError("--leaves must be >= 6")
    if args.trees < 1:
        raise ValueError("--trees must be >= 1")
    master = _master_seed(args)
    low, high = balanced_window(args.leaves - 1)

    def run_tree(tree_id: int) -> dict:
        tree = random_degree3_tree(args.leaves, master.child(tree_id))
        (u, v), n_0 = balanced_tree_edge(tree)
        return {
            "tree_id": tree_id,
            "edge_u": u,
            "edge_v": v,
            "n_0": n_0,
            "window_low": low,
            "window_high": high,
        }

    rows = parallel_map(run_tree, list(range(args.trees)), args.workers)
    meta = _base_meta(args, "tree-edge")
    meta.update(leaves=args.leaves, trees=args.trees)
    columns = ["tree_id", "edge_u", "edge_v", "n_0", "window_low", "window_high"]
    return CommandResult(meta, columns, rows)


def _cmd_truncation(args: argparse.Namespace) -> CommandResult:
    if args.n < 5 or args.n > 8:
        raise ValueError("--n must lie in [5, 8] (dense state with a window)")
    if not 0.0 <= args.tau <= 1.0:
        raise ValueError("--tau must lie in [0, 1]")
    master = _master_seed(args)
    unitary = haar_unitary(args.n, master.child(0))
    config = Dqc1Config(args.n, args.tau, unitary)
    low, _high = balanced_window(args.n)
    if args.cut is not None:
        side_a = tuple(sorted(set(_parse_int_list(args.cut, "--cut")) | {0}))
    else:
        side_a = tuple(range(low + 1))
    cut = Bipartition(args.n + 1, side_a)
    ranks = _parse_int_list(args.ranks, "--ranks") if args.ranks is not None else None
    table = truncation_experiment(config, cut, ranks, args.tol)
    meta = _base_meta(args, "truncation")
    meta.update(
        n=args.n,
        tau=args.tau,
        side_a=side_a,
        ranks=args.ranks if args.ranks is not None else "all",
    )
    all_satisfied = all(row.bound_satisfied for row in table)
    return CommandResult(
        meta, [f.name for f in fields(TruncationRow)], [vars(row) for row in table],
        {"all_satisfied": all_satisfied},
        exit_code=0 if all_satisfied else 2,
    )


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    common.add_argument("--workers", type=int, default=1, help="thread count (default 1)")
    common.add_argument(
        "--tol", type=float, default=1e-10, help="relative rank tolerance in (0, 1)"
    )
    common.add_argument("--out", default="-", help="output path, '-' for stdout")
    common.add_argument("--format", choices=["csv", "json"], default=None)

    parser = _Parser(prog="dqc1kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rank-scaling", parents=[common],
        help="minimum equipartition Schmidt rank of random circuit states",
    )
    p.add_argument("--n-list", default="4,6,8,10,12")
    p.add_argument("--seeds", dest="num_seeds", type=int, default=10)
    p.add_argument("--gates-factor", type=int, default=2)
    p.add_argument("--partition-cap", type=int, default=None)
    p.set_defaults(run=_cmd_rank_scaling)

    p = sub.add_parser(
        "bound-scan", parents=[common],
        help="certified rank floors over balanced cuts of the joint state",
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--cuts", type=int, default=50)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--unitary", choices=["haar", "product", "circuit"], default="haar")
    p.add_argument("--gates", type=int, default=None)
    p.add_argument("--randomize-index", action="store_true")
    p.set_defaults(run=_cmd_bound_scan)

    p = sub.add_parser(
        "concentration", parents=[common],
        help="reduction-spectrum concentration of Haar-random states",
    )
    p.add_argument("--na", type=int, default=2)
    p.add_argument("--nb", type=int, default=9)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(run=_cmd_concentration)

    p = sub.add_parser(
        "trace-estimate", parents=[common],
        help="exact and shot-estimated normalized trace of a unitary",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cmat", default=None, help="CMAT v1 unitary file")
    source.add_argument("--circuit", default=None, help="gate-per-line circuit file")
    p.add_argument("--circuit-qubits", type=int, default=None)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(run=_cmd_trace_estimate)

    p = sub.add_parser(
        "tree-edge", parents=[common],
        help="balanced-edge existence over random degree-<=3 trees",
    )
    p.add_argument("--leaves", type=int, default=16)
    p.add_argument("--trees", type=int, default=100)
    p.set_defaults(run=_cmd_tree_edge)

    p = sub.add_parser(
        "truncation", parents=[common],
        help="fidelity of rank truncations against the certified floor",
    )
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--cut", default=None, help="comma-separated side-A labels")
    p.add_argument("--ranks", default=None, help="comma-separated ranks (default: all)")
    p.set_defaults(run=_cmd_truncation)

    return parser


def _serialize(result: CommandResult, chosen_format: Optional[str]) -> str:
    fmt = chosen_format or result.default_format
    if fmt == "json":
        payload = {"meta": result.meta, **result.extras, "rows": result.rows}
        return render_json(payload)
    meta = dict(result.meta)
    meta.update(result.extras)
    return render_csv(meta, result.columns, result.rows)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if not 0 < args.tol < 1:
            raise ValueError("--tol must lie in (0, 1)")
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
