"""Rank scans, tree-edge selection, and the robustness bound suite.

The balanced window for a register of n qubits is
[ceil(n/5), floor(2n/5)].  Throughout, the window size of a cut counts
register qubits only: the top qubit sits on side A but does not count
toward it, so a cut with a side-A register count a has window size
min(a, n - a).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .dqc1_model import (
    Dqc1Config,
    ProductStateIndex,
    column_blocks,
    final_state,
    probe_from_column,
    probe_key,
    register_columns,
    top_on_side_a,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    Bipartition,
    PureState,
    SchmidtSpectrum,
    operator_schmidt_decompose,
    rank_of,
    schmidt_decompose,
    truncation_fidelity,
)
from .randomness import SeedSpec

_T = TypeVar("_T")
_R = TypeVar("_R")

# The probe |t,i,j> = |0,0,0> that a scan without randomize_index uses.
_ZERO_INDEX = ProductStateIndex(0, 0, 0)


class ClaimFalsified(Exception):
    """A property the toolkit certifies numerically failed to hold."""


def parallel_map(
    fn: Callable[[_T], _R], items: Sequence[_T], workers: int = 1
) -> list[_R]:
    """Order-preserving map, optionally on a thread pool.

    Results are merged by item index, so output is identical for any
    worker count.  Threads suffice because the heavy kernels release the
    interpreter lock inside the linear-algebra backend.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def balanced_window(num_register_qubits: int) -> tuple[int, int]:
    """Inclusive [ceil(n/5), floor(2n/5)] window; empty below n = 3.

    It is [1, 1] at n = 3 and 4.  The n >= 5 minimum of
    :func:`rank_bound_scan` is a policy, not a property of the window.
    """
    n = num_register_qubits
    return -(-n // 5), (2 * n) // 5


def _unrank_combination(rank: int, n_items: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset of range(n_items) in lexicographic order."""
    combo = []
    start = 0
    r = rank
    for pos in range(k):
        for candidate in range(start, n_items):
            below = math.comb(n_items - candidate - 1, k - pos - 1)
            if r < below:
                combo.append(candidate)
                start = candidate + 1
                break
            r -= below
        else:
            raise ValueError("combination rank out of range")
    return tuple(combo)


@dataclass(frozen=True)
class CutRecord:
    """One evaluated bipartition of a rank scan."""

    side_a: tuple[int, ...]
    window_size: int
    rank: int
    log2_rank: float
    spectrum_head: tuple[float, ...]
    rank_floor: Optional[int] = None
    meets_floor: Optional[bool] = None


@dataclass(frozen=True)
class RankScanReport:
    """Per-cut records plus the scan minimum."""

    records: tuple[CutRecord, ...]
    rel_tol: float
    exhaustive: bool

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a scan must evaluate at least one cut")

    @property
    def min_rank(self) -> int:
        return min(r.rank for r in self.records)

    @property
    def argmin_side_a(self) -> tuple[int, ...]:
        return min(self.records, key=lambda r: (r.rank, r.side_a)).side_a

    @property
    def all_meet_floor(self) -> bool:
        return all(r.meets_floor for r in self.records if r.meets_floor is not None)


def _sample_cuts(
    m: int, sizes: Sequence[int], count: Optional[int], seed: Optional[SeedSpec]
) -> tuple[list[tuple[int, ...]], bool]:
    """Side-A labels (0,) + (1 + a k-subset of range(m)) for k in ``sizes``.

    Returns the cuts in (size, lexicographic) order and whether they are
    the whole population.  With ``count`` set below the population size,
    that many cuts are drawn uniformly without replacement.
    """
    blocks = [(k, math.comb(m, k)) for k in sizes]
    total = sum(block for _, block in blocks)
    if count is None or count >= total:
        combos = [combo for k in sizes for combo in combinations(range(m), k)]
        exhaustive = True
    else:
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        combos = []
        for pick in np.sort(seed.generator().choice(total, size=count, replace=False)):
            r = int(pick)
            for k, block in blocks:
                if r < block:
                    combos.append(_unrank_combination(r, m, k))
                    break
                r -= block
        exhaustive = False
    return [(0,) + tuple(q + 1 for q in combo) for combo in combos], exhaustive


def _cut_record(
    psi: PureState, cut: Bipartition, window: int, rel_tol: float, floored: bool
) -> CutRecord:
    """Schmidt rank of ``psi`` across ``cut``, with floor 2^window if ``floored``."""
    spectrum = schmidt_decompose(psi, cut)
    rank = rank_of(spectrum, rel_tol)
    floor = 2**window if floored else None
    return CutRecord(
        side_a=cut.side_a,
        window_size=window,
        rank=rank,
        log2_rank=math.log2(rank) if rank else float("-inf"),
        spectrum_head=tuple(float(c) for c in spectrum.coefficients[:4]),
        rank_floor=floor,
        meets_floor=None if floor is None else rank >= floor,
    )


def min_rank_over_equipartitions(
    state: PureState,
    rel_tol: float = DEFAULT_RANK_TOL,
    partition_cap: Optional[int] = None,
    seed: Optional[SeedSpec] = None,
    workers: int = 1,
) -> RankScanReport:
    """Smallest Schmidt rank over half:half cuts of an even register.

    Qubit 0 is fixed to side A, which halves the enumeration without
    losing any cut (sides are interchangeable).  With ``partition_cap``
    set, that many cuts are sampled uniformly without replacement.
    """
    n = state.num_qubits
    if n % 2 != 0:
        raise ValueError("equipartition scan requires an even qubit count")
    half = n // 2
    if partition_cap is not None and partition_cap < 1:
        raise ValueError("partition_cap must be >= 1")
    cuts, exhaustive = _sample_cuts(n - 1, [half - 1], partition_cap, seed)

    def evaluate(side_a: tuple[int, ...]) -> CutRecord:
        return _cut_record(state, Bipartition(n, side_a), half, rel_tol, floored=False)

    return RankScanReport(tuple(parallel_map(evaluate, cuts, workers)), rel_tol, exhaustive)


def rank_bound_scan(
    config: Dqc1Config,
    num_cuts: int = 50,
    rel_tol: float = DEFAULT_RANK_TOL,
    seed: Optional[SeedSpec] = None,
    exhaustive: bool = False,
    randomize_index: bool = False,
    workers: int = 1,
) -> RankScanReport:
    """Certified rank floors over balanced cuts of the joint state.

    Each evaluated cut keeps the top qubit on side A and has window size
    inside the balanced window.  The probe vector's Schmidt rank lower
    bounds the operator Schmidt rank of the joint state across the same
    cut, and the per-cut floor is 2^window_size.  Registers below n = 5
    are refused as a policy (see :func:`balanced_window`).  Every cut probes
    |0,0,0> unless ``randomize_index`` draws each cut's index from
    ``seed.child(task_id)``, so that mode needs a seed.
    """
    n = config.num_register_qubits
    if n < 5:
        raise ValueError(f"n = {n} is below the scan's policy minimum (need n >= 5)")
    if not exhaustive and num_cuts < 1:
        raise ValueError("num_cuts must be >= 1")
    if randomize_index and seed is None:
        raise ValueError("randomize_index needs a seed")
    low, high = balanced_window(n)
    sizes = [a for a in range(1, n) if low <= min(a, n - a) <= high]
    cuts, exhaustive = _sample_cuts(n, sizes, None if exhaustive else num_cuts, seed)

    probes = []
    for task_id, side_a in enumerate(cuts):
        cut = Bipartition(n + 1, side_a)
        a = len(side_a) - 1
        if randomize_index:
            rng = seed.child(task_id).generator()
            idx = ProductStateIndex(
                int(rng.integers(2)),
                int(rng.integers(2**a)),
                int(rng.integers(2 ** (n - a))),
            )
        else:
            idx = _ZERO_INDEX
        probes.append((cut, min(a, n - a), probe_key(config, cut, idx)))

    # Each distinct column W|x> is evolved once, in the column blocks of its
    # direction (U or U-dagger); a block's cuts are scanned while it is held.
    tasks: dict[tuple[bool, int], list[int]] = {}
    for task_id, (_, _, key) in enumerate(probes):
        tasks.setdefault(key, []).append(task_id)

    records: list[Optional[CutRecord]] = [None] * len(probes)
    for adjoint in (False, True):
        distinct = [x for direction, x in tasks if direction == adjoint]
        for xs, evolved in column_blocks(config.unitary, distinct, adjoint):
            columns = dict(zip(xs.tolist(), evolved.T))
            task_ids = [t for x in columns for t in tasks[adjoint, x]]

            def evaluate(task_id: int) -> CutRecord:
                cut, window, key = probes[task_id]
                psi = probe_from_column(config, key, columns[key[1]])
                return _cut_record(psi, cut, window, rel_tol, floored=True)

            for task_id, record in zip(task_ids, parallel_map(evaluate, task_ids, workers)):
                records[task_id] = record
    return RankScanReport(tuple(records), rel_tol, exhaustive)


@dataclass(frozen=True)
class ConcentrationReport:
    """Spectrum concentration of B-side reductions of Haar-random states."""

    d_a: int
    d_b: int
    delta: float
    samples: int
    max_deviations: tuple[float, ...]
    nonzero_counts: tuple[int, ...]

    @property
    def fraction_within(self) -> float:
        return self.fraction_for(self.delta)

    def fraction_for(self, delta: float) -> float:
        """Fraction of samples whose whole spectrum fits the delta window."""
        inside = sum(1 for dev in self.max_deviations if dev <= delta)
        return inside / self.samples


def concentration_report(
    n_a: int,
    n_b: int,
    delta: float,
    samples: int,
    seed: SeedSpec,
    workers: int = 1,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> ConcentrationReport:
    """Sample Haar states on d_a x d_b and measure reduction spectra.

    For each sample the nonzero eigenvalues of the B-side reduction are
    the squared singular values of the amplitude matrix; the recorded
    deviation is max_i |q_i * d_a - 1| over that spectrum.
    """
    if n_a < 0 or n_b < 1:
        raise ValueError("need n_a >= 0 and n_b >= 1")
    if n_a > n_b:
        raise ValueError("concentration regime requires n_a <= n_b")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d_a, d_b = 2**n_a, 2**n_b

    def sample(k: int) -> tuple[float, int]:
        rng = seed.child(k).generator()
        v = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
        v /= np.linalg.norm(v)
        sing = np.linalg.svd(v.reshape(d_a, d_b), compute_uv=False)
        deviation = float(np.max(np.abs(sing**2 * d_a - 1.0)))
        return deviation, rank_of(SchmidtSpectrum(sing), rel_tol)

    results = parallel_map(sample, list(range(samples)), workers)
    deviations = tuple(dev for dev, _ in results)
    counts = tuple(cnt for _, cnt in results)
    return ConcentrationReport(d_a, d_b, delta, samples, deviations, counts)


@dataclass(frozen=True)
class RobustRankBound:
    """Rank floors surviving a fidelity-epsilon approximation."""

    epsilon: float
    delta: float
    n_0: int
    exact_bound: float
    linear_bound: float


def robust_rank_bound(epsilon: float, delta: float, n_0: int) -> RobustRankBound:
    """Rank floor for any operator within fidelity 1-epsilon of the state.

    With d = 2^{n_0} and reduction spectrum within delta of uniform, a
    rank-r approximant with fidelity >= 1-epsilon forces
    sqrt((1 + (1+delta) r/d)/2) >= 1-epsilon; inverting gives the exact
    floor d * (2(1-epsilon)^2 - 1)/(1+delta).  The linear floor
    (1 - 4 epsilon - delta) d relaxes it and never exceeds it.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    if n_0 < 0:
        raise ValueError("n_0 must be nonnegative")
    d = 2**n_0
    exact = d * max(0.0, (2.0 * (1.0 - epsilon) ** 2 - 1.0) / (1.0 + delta))
    linear = d * max(0.0, 1.0 - 4.0 * epsilon - delta)
    return RobustRankBound(epsilon, delta, n_0, exact, linear)


@dataclass(frozen=True)
class TruncationRow:
    """One rank of a truncation sweep."""

    rank: int
    fidelity: float
    epsilon: float
    delta_hat: float
    linear_bound: float
    bound_satisfied: bool


def truncation_experiment(
    config: Dqc1Config,
    cut: Bipartition,
    ranks: Optional[Sequence[int]] = None,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> tuple[TruncationRow, ...]:
    """Truncate the joint state across a balanced cut and check the floor.

    For each rank r the fidelity F of the best rank-r approximation is
    read from the operator Schmidt spectrum across the cut,
    sqrt(sum_{i<=r} s_i^2 / sum_i s_i^2), and the floor
    robust_rank_bound(1-F, delta_hat, window).linear_bound is compared
    against r.  delta_hat is measured from the reduction of U|0> across
    the register part of the same cut rather than assumed.
    """
    n = config.num_register_qubits
    if n > 8:
        raise ValueError("truncation sweep needs the dense state (n <= 8)")
    cut = top_on_side_a(cut)
    if cut.total_qubits != n + 1:
        raise ValueError(f"cut is over {cut.total_qubits} qubits, need {n + 1}")
    a_reg = cut.n_a - 1
    window = min(a_reg, n - a_reg)
    low, high = balanced_window(n)
    if not low <= window <= high:
        raise ValueError(
            f"cut window {window} outside the balanced range [{low}, {high}]"
        )
    spectrum = operator_schmidt_decompose(final_state(config), cut)
    full_rank = rank_of(spectrum, rel_tol)

    # The squared Schmidt coefficients of U|0> across the register cut are
    # the nonzero eigenvalues of its reduction; there are 2^window of them.
    register_cut = Bipartition(n, tuple(q - 1 for q in cut.side_a if q != 0))
    column = PureState(n, register_columns(config.unitary, [0], False)[:, 0])
    q_spectrum = schmidt_decompose(column, register_cut).coefficients ** 2
    delta_hat = float(np.max(np.abs(q_spectrum * 2**window - 1.0)))

    sweep = list(ranks) if ranks is not None else list(range(1, full_rank + 1))
    for r in sweep:
        if not 1 <= r <= full_rank:
            raise ValueError(f"rank {r} outside 1..{full_rank}")

    rows = []
    for r in sweep:
        f = truncation_fidelity(spectrum, r)
        eps = max(0.0, 1.0 - f)
        bound = robust_rank_bound(eps, delta_hat, window)
        rows.append(
            TruncationRow(
                rank=r,
                fidelity=f,
                epsilon=eps,
                delta_hat=delta_hat,
                linear_bound=bound.linear_bound,
                bound_satisfied=r + 1e-12 >= bound.linear_bound,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class TreeGraph:
    """Tree whose leaves 0..num_leaves-1 are qubits; internal degree <= 3."""

    num_leaves: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_leaves < 2:
            raise ValueError("need at least 2 leaves")
        edges = tuple(tuple(sorted((int(u), int(v)))) for u, v in self.edges)
        edges = tuple(sorted(edges))
        object.__setattr__(self, "edges", edges)
        nodes = {u for e in edges for u in e}
        expected = len(edges) + 1
        if len(nodes) != expected:
            raise ValueError("edge list does not describe a tree")
        if not set(range(self.num_leaves)) <= nodes:
            raise ValueError("every leaf label must appear")
        degree: dict[int, int] = {}
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for node, deg in degree.items():
            if node < self.num_leaves:
                if deg != 1:
                    raise ValueError(f"leaf {node} must have degree 1, got {deg}")
            elif not 2 <= deg <= 3:
                raise ValueError(f"internal node {node} must have degree 2 or 3")
        # edge count == node count - 1 plus full connectivity <=> tree
        if self._reachable_from(next(iter(nodes))) != nodes:
            raise ValueError("tree is not connected")

    def _reachable_from(self, start: int) -> set[int]:
        adjacency = self.adjacency()
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen

    def adjacency(self) -> dict[int, list[int]]:
        adjacency: dict[int, list[int]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        return adjacency


def random_degree3_tree(num_leaves: int, seed: SeedSpec) -> TreeGraph:
    """Grow a random tree by repeated edge subdivision and leaf attachment.

    Every internal node ends with degree exactly 3, so the result is a
    uniform-topology-free but always-admissible degree-<=3 tree.
    """
    if num_leaves < 2:
        raise ValueError("need at least 2 leaves")
    rng = seed.generator()
    edges: list[tuple[int, int]] = [(0, 1)]
    next_internal = num_leaves
    for leaf in range(2, num_leaves):
        pick = int(rng.integers(len(edges)))
        u, v = edges.pop(pick)
        middle = next_internal
        next_internal += 1
        edges.extend([(u, middle), (middle, v), (middle, leaf)])
    return TreeGraph(num_leaves, tuple(edges))


def balanced_tree_edge(tree: TreeGraph) -> tuple[tuple[int, int], int]:
    """An edge whose leaf split lands in the balanced window.

    The window is computed for n = num_leaves - 1 (one leaf is the top
    qubit).  Raises ClaimFalsified when no edge qualifies, which is a
    genuine counterexample to the always-exists property this function
    certifies, not a recoverable condition.
    """
    leaves = tree.num_leaves
    if leaves < 6:
        raise ValueError("balanced edge search needs at least 6 leaves")
    n = leaves - 1
    low, high = balanced_window(n)
    adjacency = tree.adjacency()
    root = 0
    parent: dict[int, int] = {root: -1}
    order = [root]
    for node in order:
        for other in adjacency[node]:
            if other not in parent:
                parent[other] = node
                order.append(other)
    leaf_count: dict[int, int] = {}
    for node in reversed(order):
        total = 1 if node < leaves else 0
        total += sum(
            leaf_count[child] for child in adjacency[node] if parent.get(child) == node
        )
        leaf_count[node] = total

    for u, v in tree.edges:
        child = v if parent.get(v) == u else u
        side = leaf_count[child]
        n_0 = min(side, leaves - side)
        if low <= n_0 <= high:
            return (u, v), n_0
    raise ClaimFalsified(
        f"no edge of the tree splits its {leaves} leaves with a minority "
        f"side in [{low}, {high}]"
    )
