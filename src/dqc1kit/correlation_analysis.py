"""Rank scans, tree-edge selection, and the robustness bound suite.

The balanced window for a register of n qubits is
[ceil(n/5), floor(2n/5)].  Throughout, the window size of a cut counts
register qubits only: the top qubit sits on side A but does not count
toward it, so a cut with a side-A register count a has window size
min(a, n - a).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, islice
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .dqc1_model import (
    COLUMN_BLOCK_ENTRIES,
    STREAM_LIMIT,
    Dqc1Config,
    column_blocks,
    final_state,
    probe_stack,
    register_columns,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    Bipartition,
    PureState,
    operator_schmidt_decompose,
    rank_of,
    schmidt_decompose,
    singular_values,
    stacked_ranks,
    truncation_fidelity,
)
from .randomness import SeedSpec

_T = TypeVar("_T")
_R = TypeVar("_R")

# The truncation floor divides 1-F by tau^2, and the off-diagonal blocks hold
# a share tau^2/(1+tau^2) of ||rho||_F^2.  Once that share nears the 2^-52
# resolution of a double, F rounds to 1 and the floor reads epsilon as 0: at
# n = 5-8 the check falsified itself from tau = 1.5e-8 down.  Smaller nonzero
# polarizations are refused; at 1e-6 the share is 4500 ulps.
TRUNCATION_MIN_TAU = 1e-6

# Register-size policies, which the CLI's parser types also read: bound-scan
# (and the truncation command) start at SCAN_MIN_QUBITS, and truncation builds
# the dense joint state, so it stops at TRUNCATION_MAX_QUBITS.
SCAN_MIN_QUBITS = 5
TRUNCATION_MAX_QUBITS = 8


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


def _stacked_singular_values(
    fill: Callable[[int, np.ndarray], None], count: int, shape: tuple[int, int], workers: int = 1
) -> np.ndarray:
    """Singular values of ``count`` same-shape matrices, row k for matrix k.

    The matrices go to :func:`singular_values` in stacks of at most
    COLUMN_BLOCK_ENTRIES amplitudes (at least one matrix), and
    ``fill(start, stack)`` writes matrices start, start + 1, ... into the
    (k, m, n) array ``stack`` in place.  The stacks are the items of
    :func:`parallel_map`: one SVD per item loses to serial on two threads,
    a stack of them wins.
    """
    per_stack = max(1, COLUMN_BLOCK_ENTRIES // (shape[0] * shape[1]))

    def run(start: int) -> np.ndarray:
        stack = np.empty((min(per_stack, count - start), *shape), dtype=np.complex128)
        fill(start, stack)
        return singular_values(stack)

    return np.concatenate(parallel_map(run, range(0, count, per_stack), workers))


def balanced_window(num_register_qubits: int) -> tuple[int, int]:
    """Inclusive [ceil(n/5), floor(2n/5)] window; empty below n = 3.

    It is [1, 1] at n = 3 and 4.  The SCAN_MIN_QUBITS minimum of
    :func:`rank_bound_scan` is a policy, not a property of the window.
    """
    n = num_register_qubits
    return -(-n // 5), (2 * n) // 5


@dataclass(frozen=True)
class CutRecord:
    """One evaluated bipartition of a rank scan; fields in report column order."""

    side_a: tuple[int, ...]
    window_size: int
    rank: int
    log2_rank: float
    rank_floor: Optional[int]
    meets_floor: Optional[bool]
    spectrum_head: tuple[float, ...]


@dataclass(frozen=True)
class RankScanReport:
    """Per-cut records plus the scan minimum."""

    records: tuple[CutRecord, ...]

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
) -> list[tuple[int, ...]]:
    """Side-A labels (0,) + (1 + a k-subset of range(m)) for k in ``sizes``.

    Returns the cuts in (size, lexicographic) order: the whole population,
    or, with ``count`` set below its size, that many cuts drawn uniformly
    without replacement, picked in one pass over the same enumeration.
    """
    stream = chain.from_iterable(combinations(range(m), k) for k in sizes)
    total = sum(math.comb(m, k) for k in sizes)
    if count is None or count >= total:
        combos = list(stream)
    else:
        if seed is None:
            raise ValueError(f"sampling {count} of {total} cuts needs a seed")
        picks = np.sort(seed.generator().choice(total, size=count, replace=False))
        gaps = np.diff(picks, prepend=-1) - 1
        combos = [next(islice(stream, gap, None)) for gap in gaps.tolist()]
    return [(0,) + tuple(q + 1 for q in combo) for combo in combos]


def _cut_records(
    sides: Sequence[tuple[int, ...]], window: int, floored: bool,
    spectra: np.ndarray, ranks: np.ndarray, width: int,
) -> list[CutRecord]:
    """Records of same-window cuts from their stacked spectra, row k for cut k.

    Each spectrum_head is the first 4 values of the row zero-padded to
    ``width`` coefficients; the floor is 2^window if ``floored``.
    """
    head = min(4, width)
    heads = np.pad(spectra[:, :head], ((0, 0), (0, head - min(head, spectra.shape[1]))))
    floor = 2**window if floored else None
    return [
        CutRecord(side_a, window, rank, math.log2(rank) if rank else float("-inf"), floor,
                  None if floor is None else rank >= floor, tuple(values))
        for side_a, rank, values in zip(sides, ranks.tolist(), heads.tolist())
    ]


def _equipartition_cuts(
    state: PureState, partition_cap: Optional[int], seed: Optional[SeedSpec]
) -> list[tuple[int, ...]]:
    """The half:half cuts of an even register that the equipartition scans walk."""
    n = state.num_qubits
    if n % 2 != 0:
        raise ValueError("equipartition scan requires an even qubit count")
    if partition_cap is not None and partition_cap < 1:
        raise ValueError("partition_cap must be >= 1")
    return _sample_cuts(n - 1, [n // 2 - 1], partition_cap, seed)


def min_rank_over_equipartitions(
    state: PureState,
    rel_tol: float = DEFAULT_RANK_TOL,
    partition_cap: Optional[int] = None,
    seed: Optional[SeedSpec] = None,
) -> RankScanReport:
    """Smallest Schmidt rank over half:half cuts of an even register.

    Qubit 0 is fixed to side A, which halves the enumeration without
    losing any cut (sides are interchangeable).  With ``partition_cap``
    set, that many cuts are sampled uniformly without replacement; a cap
    below the population needs ``seed``.  The serial per-cut reference:
    one :func:`singular_values` call per cut.
    """
    cuts = _equipartition_cuts(state, partition_cap, seed)
    n = state.num_qubits
    half = n // 2
    matrices = (Bipartition(n, side_a).matricize(state.amplitudes) for side_a in cuts)
    spectra = np.stack([singular_values(matrix) for matrix in matrices])
    ranks = stacked_ranks(spectra, rel_tol)
    return RankScanReport(tuple(_cut_records(cuts, half, False, spectra, ranks, 2**half)))


# The Gaussian sketches of min_equipartition_rank come from this fixed
# stream; they decide only which cuts take a full SVD, never a result.
SKETCH_SEED = SeedSpec(0x5EED)
# The sketch threshold's rounding term is SKETCH_ROUNDING * d^2 * u: the
# worst-case error constants of the d-term product that makes a sketch and
# of the full SVD that counts a cut's rank, with room.
SKETCH_ROUNDING = 32.0
# The Cholesky test's shift adds GRAM_ROUNDING * d * u * ||Y||_F^2, which
# covers the rounding of the Gram product, of the factorization and of the
# shift itself (about 1.5 d + m + 12 units of u ||Y||_F^2) with room; see
# min_equipartition_rank.
GRAM_ROUNDING = 64.0
UNIT_ROUNDOFF = 2.0**-53
# While a cut matrix holds fewer entries than this (n <= 12), the Cholesky
# test takes a stack's matrices in batches of at most this many entries, a
# quarter of a stack; from n = 14, where a stack holds at most 4 cuts, it
# takes the whole stack.  In 5 s dense_analysis runs (seed 1), peak RSS read
# 51.9-52.0 MiB with the full-SVD scan, 54.0-54.2 with whole-stack test
# buffers and 51.4 with quarter stacks.  At n = 14, batches of one matrix
# took 252-255 ms against 242-246 ms whole (--n-list 14 --seeds 1 --workers 2).
GRAM_BATCH_ENTRIES = 2**14
# A lane stops testing after this many failed cuts in a row while its m
# stays; at n <= 12 a full stack holds at least this many.
STOP_AFTER_FAILED_CUTS = 16
# ||psi|| inside this range keeps every squared magnitude of the Cholesky
# test finite and its underflow negligible, so the test runs only there.  At
# d <= 2^10 (n <= 20) the fixed draw's gains ||G1[:m]||_2, m < d, run from
# 0.569 (d = 2, m = 1) to 63.7 (d = 2^10, m = d - 1), so 2^-1 < gain < 2^6
# (gain = 1 at m = d).  Overflow: Y's entries, ||Y||_F and s stay below
# 2^7 ||psi|| <= 2^263, and a Gram entry, ||Y||_F^2 and s^2 below 2^526,
# far from 2^1024.  Underflow: an operation on tiny entries errs by at most
# 2^-1075 absolutely, so a Gram entry by a few d 2^-1074 and the Gram
# matrix by under 2^-1040 in 2-norm.  A pass needs every shifted diagonal
# entry of Y Y^H above 0, so ||Y||_F^2 > m s^2, and
# s >= 32 d^2 u 2^-1 2^-256 >= 2^-303: the shift's room of
# 49 d u ||Y||_F^2 > 2^-660 absorbs it, with the sketch product's own
# underflow.
SKETCH_NORM_RANGE = (2.0**-256, 2.0**256)


def _cholesky_mask(grams: np.ndarray) -> np.ndarray:
    """Which matrices of the (k, m, m) Hermitian stack np.linalg.cholesky factors.

    One stacked call serves a stack whose every matrix factors.  A stack
    that raises is split in halves and each half retried, so one failing
    matrix among 64 costs 13 calls, not 65.  A stack of 4 or fewer is
    retried one matrix at a time: halving it takes as many calls or more,
    and factors more matrices (rank-scaling's failing stacks at m = d hold
    4 or 16 matrices, often with 2 failing).
    """
    try:
        np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if len(grams) == 1:
            return np.zeros(1, dtype=bool)
        if len(grams) <= 4:
            return np.concatenate([_cholesky_mask(gram[np.newaxis]) for gram in grams])
        half = len(grams) // 2
        return np.concatenate([_cholesky_mask(grams[:half]), _cholesky_mask(grams[half:])])
    return np.ones(len(grams), dtype=bool)


def _gram_test(
    stack: np.ndarray, m: int, g1: np.ndarray, floor_sq: float, scratch: Sequence[np.ndarray],
) -> np.ndarray:
    """Mask over the (k, d, d) stack: True where Cholesky proves sigma_m(Y) > sqrt(floor_sq).

    Y is each matrix M itself when m = d, else its m x d sketch G1[:m] M.
    Y Y^H - (floor_sq + GRAM_ROUNDING d u ||Y||_F^2) I, with ||Y||_F^2
    read off the Gram diagonal, goes to :func:`_cholesky_mask`.  The
    matrices are taken in batches that fit the three equal flat buffers of
    ``scratch``: the sketches, their conjugates, and the Gram matrices.
    """
    k, d, _ = stack.shape
    batch = scratch[0].size // (m * d)
    masks = []
    for part in (stack[i:i + batch] for i in range(0, k, batch)):
        sketches, conj = (buffer[:len(part) * m * d].reshape(-1, m, d) for buffer in scratch[:2])
        gram = scratch[2][:len(part) * m * m].reshape(-1, m, m)
        if m == d:
            sketches = part
        else:
            # A complex (d, d) cut viewed as float64 is (d, 2d), real and
            # imaginary parts interleaved: one real product writes Y in place.
            np.matmul(g1[:m], part.view(np.float64), out=sketches.view(np.float64))
        np.matmul(sketches, np.conjugate(sketches, out=conj).swapaxes(1, 2), out=gram)
        diagonal = gram.reshape(-1, m * m)[:, :: m + 1]
        frobenius_sq = diagonal.real.sum(axis=1, keepdims=True)
        diagonal -= floor_sq + GRAM_ROUNDING * d * UNIT_ROUNDOFF * frobenius_sq
        masks.append(_cholesky_mask(gram))
    return np.concatenate(masks)


def _cut_weights(n: int, cuts: Sequence[tuple[int, ...]]) -> np.ndarray:
    """(len(cuts), 2, n/2) int32 weights 2^(n-1-q) of the labels q of half:half cuts.

    Row 0 of cut k weighs its side B, row 1 its side A, each side's labels
    ascending, as :meth:`Bipartition.matricize` reads them.
    """
    side_a = np.zeros((len(cuts), n), dtype=bool)
    side_a[np.arange(len(cuts))[:, np.newaxis], cuts] = True
    labels = np.argsort(side_a, axis=1, kind="stable").astype(np.int32)
    return (1 << (n - 1 - labels)).reshape(len(cuts), 2, n // 2)


def _gather_cuts(psi: np.ndarray, weights: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Write the (d, d) matrix of the cut with weights[k] into out[k], for every k.

    Entry (i, j) is psi[R_k(i) | C_k(j)], where R_k(i) sums side A's
    weights over the bits of i, first label most significant, and C_k(j)
    side B's over those of j: ``Bipartition(n, side_a).matricize(psi)``.
    The (k, d, d) indices, the bitwise OR of the two (k, d) tables, go
    into ``index``, flat intp scratch of at least out.size entries, and
    the stack is one np.take.
    """
    d, half = out.shape[-1], weights.shape[-1]
    bits = (np.arange(d, dtype=np.int32)[:, np.newaxis] >> np.arange(half - 1, -1, -1)) & 1
    cols, rows = (weights @ bits.T).swapaxes(0, 1)
    table = index[:out.size].reshape(out.shape)
    np.bitwise_or(rows[:, :, np.newaxis], cols[:, np.newaxis, :], out=table)
    # mode="raise" would copy ``out`` through a temporary of its size.
    np.take(psi, table, out=out, mode="clip")


def min_equipartition_rank(
    state: PureState,
    rel_tol: float = DEFAULT_RANK_TOL,
    partition_cap: Optional[int] = None,
    seed: Optional[SeedSpec] = None,
    workers: int = 1,
) -> int:
    """``min_rank_over_equipartitions(...).min_rank``, with most full SVDs skipped.

    The same cuts, in the same order, are gathered into stacks; a
    ``partition_cap`` below the population needs ``seed``.  The stacks
    share one running minimum m.  It starts at the rank of cut 0, decided
    by a full SVD, and only ever decreases.  Stack 0 is scanned next, on
    the calling thread, so no lane starts at a stale m; then stack k,
    k >= 1, goes to lane (k - 1) mod ``workers``, lane 0 carrying on from
    stack 0's state, so a scan of two stacks runs one lane and
    ``workers = 1`` scans the stacks in order.  The lanes run on one
    thread pool: a pool per round of ``workers`` stacks made the
    benchmark's rank-scaling job slower (107 against 90 ms on two
    workers).  Each lane reads m before each stack and lowers it, under a
    lock, when its own SVDs find a smaller rank.  Every cut matrix M
    (d x d, d = 2^(n/2)) is tested at the m its lane read.  The test matrix Y
    is M itself while m = d (gain 1); below d it is the m x d sketch
    G1[:m] M, the one-sided randomized range finder, with real Gaussian
    G1 drawn from SKETCH_SEED (gain ||G1[:m]||_2, computed once per m).
    With u the unit roundoff, the cut passes if np.linalg.cholesky factors

        Y Y^H - (s^2 + GRAM_ROUNDING d u ||Y||_F^2) I,
        s = (rel_tol + SKETCH_ROUNDING d^2 u) gain ||psi||_2,

    with ||Y||_F taken per cut.  A pass proves sigma_m(Y) > s for the
    computed Y, because the shift covers every rounding error of the test
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.):
    - the Gram product sums d terms per entry, so it errs entrywise by at
      most about sqrt(2) (d + 2) u |Y| |Y|^H (Lemma 3.5 with complex
      arithmetic), so by at most that times ||Y||_F^2 in 2-norm;
    - a Cholesky factorization that runs to completion is exact for a
      matrix within (m + 1) u |R^H| |R| (Thm 10.3), and
      || |R^H| |R| ||_2 <= ||R||_F^2, the trace, at most ||Y||_F^2 up to
      rounding;
    - the subtraction from the diagonal and the computed shift (s^2 is
      below every diagonal entry on a pass) add under 8 u ||Y||_F^2.
    That is at most about 1.5 d + m + 12 units of u ||Y||_F^2, below 15 d
    for every m <= d, so GRAM_ROUNDING = 64 covers it with 49 d to spare,
    and Y Y^H - s^2 I is positive definite.  The test runs one stacked
    np.linalg.cholesky call per batch (see GRAM_BATCH_ENTRIES) and
    retries a batch that raises one cut at a time.

    From there the argument is the one for any Y.  M holds the entries of
    psi, so sigma_1(M) <= ||M||_F = ||psi||_2, and sigma_m(G1[:m] M) <=
    ||G1[:m]||_2 sigma_m(M), for any G1.  Rounding moves the computed
    sketch's sigma_m by at most about d sqrt(m) u ||G1[:m]||_2 ||psi||_2:
    the real and the imaginary part of Y are each a real product of G1[:m]
    that sums d terms, and the m-row |G1[:m]| has a 2-norm at most sqrt(m)
    times that of G1[:m].  That is inside the d^2 u term of s, so a pass gives
    sigma_m(M) > (rel_tol + c d^2 u) ||psi||_2, and the full SVD of M, whose
    computed values move by at most a small multiple of d^2 u sigma_1(M),
    counts sigma_m above rel_tol times its sigma_1: :func:`rank_of` gives M
    a rank of at least m.

    The cuts that fail take the full SVD, and they may lower m.  Where a
    stack leaves two or more, one of them takes its SVD first; if m has
    then fallen below the value the stack was tested at, the others are
    tested again at the new m, and those that still fail take their SVDs
    in one call.  Every value m ever holds is the rank of a cut decided
    in full (cut 0's, or one a lane's SVDs found), so the final m is at
    least the full scan's minimum.  Every cut is either decided in full,
    and then m is lowered to its rank or was already below it, or passes
    a test, first or again, at a value m held, and then has a rank of at
    least that value, which is at least the final m.  So the result is
    the full scan's minimum for any sketch, any ``workers`` and any
    interleaving of the lanes: they change only the work done.  A lane
    stops testing once STOP_AFTER_FAILED_CUTS cuts in a row have failed
    while its m stayed (counted over whole stacks, none passing), since
    the bound is then too loose at this rel_tol.  A state whose norm lies
    outside SKETCH_NORM_RANGE is scanned in full.
    """
    cuts = _equipartition_cuts(state, partition_cap, seed)
    n = state.num_qubits
    d = 2 ** (n // 2)
    per_stack = max(1, COLUMN_BLOCK_ENTRIES // d**2)
    starts = range(0, len(cuts), per_stack)
    psi = np.ascontiguousarray(state.amplitudes)
    # The row and column tables are made per stack from these: tables of
    # every cut at once would take 2 cuts d 4 bytes, 757 MB at n = 20.
    weights = _cut_weights(n, cuts)
    g1 = SKETCH_SEED.generator().standard_normal((d, d))
    norm = float(np.linalg.norm(state.amplitudes))
    rounding = SKETCH_ROUNDING * d * d * UNIT_ROUNDOFF
    in_range = SKETCH_NORM_RANGE[0] <= norm <= SKETCH_NORM_RANGE[1]

    @cache
    def floor_sq(m: int) -> float:
        gain = 1.0 if m == d else np.linalg.norm(g1[:m], 2)
        return float(((rel_tol + rounding) * gain * norm) ** 2)

    def failures(stack: np.ndarray, m: int, scratch: np.ndarray) -> np.ndarray:
        """The cuts of ``stack`` that fail the test at m, moved to its front."""
        kept = np.flatnonzero(~_gram_test(stack, m, g1, floor_sq(m), scratch))
        # Compacted in place: copying the failed cuts out of the first
        # stacks raised the dense_analysis peak RSS by 2 MiB.
        for j, k in enumerate(kept.tolist()):
            if j < k:
                stack[j] = stack[k]
        return stack[:len(kept)]

    def decide(stack: np.ndarray) -> None:
        """Full SVDs of the stack's cuts; their least rank lowers the shared m."""
        low = int(stacked_ranks(singular_values(stack), rel_tol).min())
        if low < minimum[0]:
            with lock:
                minimum[0] = min(minimum[0], low)

    def scan_stack(
        start: int, m: int, failed: int, testing: bool, buffers: tuple[np.ndarray, ...]
    ) -> tuple[int, int, bool]:
        """Decide the cuts of the stack at ``start``.

        Takes a lane's (m, failed, testing) and returns them as the stack leaves them.
        """
        if minimum[0] < m:  # lowered by another lane or by this one
            m, failed = minimum[0], 0
        stack_buffer, scratch, index = buffers
        stack = stack_buffer[:len(cuts) - start]
        count = len(stack)
        _gather_cuts(psi, weights[start:start + count], index, stack)
        passed = False
        if testing:
            stack = failures(stack, m, scratch)
            passed = len(stack) < count
            if len(stack) > 1:
                decide(stack[:1])
                stack = stack[1:]
                if minimum[0] < m:
                    stack = failures(stack, minimum[0], scratch)
        if len(stack):
            decide(stack)
        if minimum[0] == m:
            failed = 0 if passed else failed + count
            testing = testing and failed < STOP_AFTER_FAILED_CUTS
        return m, failed, testing

    def lane(first: int) -> None:
        carried = stack_0 if first == 0 else (minimum[0], 0, in_range)
        for start in starts[1 + first::workers]:
            carried = scan_stack(start, *carried, buffers[first])

    # Each lane refills one stack buffer and tests its cuts in three flat
    # batch buffers (sketches, conjugates, Gram matrices), all made here on
    # the calling thread: stack buffers made on the pool's threads raised
    # the peak of five rounds of the dense_analysis jobs from 47.8 to 49.8 MiB.
    # The batch buffers, viewed as intp, also hold a stack's gather index:
    # a batch is at least a quarter of a stack.
    lanes = range(min(workers, len(starts) - 1))
    shape = (min(per_stack, len(cuts)), d, d)
    batch = math.prod(shape)
    if d * d < GRAM_BATCH_ENTRIES:
        batch = min(batch, GRAM_BATCH_ENTRIES)

    def lane_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        scratch = np.empty((3, batch), dtype=np.complex128)
        return np.empty(shape, dtype=np.complex128), scratch, scratch.reshape(-1).view(np.intp)

    buffers = [lane_buffers() for _ in range(max(1, len(lanes)))]
    # The shared minimum starts at cut 0's rank, from a full SVD in lane 0's
    # buffers.  Reads of minimum[0] need no lock; the lock keeps a lane from
    # raising it with a stale min().
    cut_0 = buffers[0][0][:1]
    _gather_cuts(psi, weights[:1], buffers[0][2], cut_0)
    minimum = [int(stacked_ranks(singular_values(cut_0), rel_tol)[0])]
    lock = threading.Lock()
    if minimum[0] == 0:  # psi = 0: every cut has rank 0
        return 0
    stack_0 = scan_stack(0, minimum[0], 0, in_range, buffers[0])
    parallel_map(lane, lanes, workers)
    return minimum[0]


def _probe_spectra(
    tau: float, columns: np.ndarray, probes: Sequence[tuple], shape: tuple[int, int]
) -> np.ndarray:
    """Stacked singular values of :func:`probe_stack` for (column, axes, j) probes."""

    def fill(start: int, stack: np.ndarray) -> None:
        probe_stack(tau, columns, probes[start : start + len(stack)], stack)

    return _stacked_singular_values(fill, len(probes), shape)


def rank_bound_scan(
    config: Dqc1Config,
    num_cuts: Optional[int] = 50,
    rel_tol: float = DEFAULT_RANK_TOL,
    seed: Optional[SeedSpec] = None,
    randomize_index: bool = False,
) -> RankScanReport:
    """Certified rank floors over balanced cuts of the joint state.

    Each evaluated cut keeps the top qubit on side A and has window size
    inside the balanced window.  The probe vector's Schmidt rank lower
    bounds the operator Schmidt rank of the joint state across the same
    cut, and the per-cut floor is 2^window_size.  ``num_cuts`` cuts are
    sampled, or every in-window cut when it is None or at least the
    population; a smaller count needs ``seed``.  Registers below
    SCAN_MIN_QUBITS are refused as a policy (see :func:`balanced_window`).
    Every cut probes rho|t,x> at t = 0, x = 0 unless ``randomize_index``
    draws each cut's t and register sides (i, j) from
    ``seed.child(task_id)``, so that mode needs a seed.

    The probes run serially, stacked by shape, one SVD call per stack.  A
    rank is decided on [e_j^T ; R(W|x>)], free of tau: on the tau-scaled
    matrix sigma_1 comes from the e_j row and the rest scale with tau, so
    from tau ~ 1e-10 down all of them would fall below the rel_tol cutoff.
    At tau = 1 one stack serves both, for 0 < tau < 1 a second stack at
    tau = 1 gives the ranks, and at tau = 0 the stack [e_j^T ; 0] has rank 1.
    """
    n = config.num_register_qubits
    if n < SCAN_MIN_QUBITS:
        raise ValueError(
            f"n = {n} is below the scan's policy minimum (need n >= {SCAN_MIN_QUBITS})"
        )
    if num_cuts is not None and num_cuts < 1:
        raise ValueError("num_cuts must be >= 1")
    if randomize_index and seed is None:
        raise ValueError("randomize_index needs a seed")
    low, high = balanced_window(n)
    sizes = [a for a in range(1, n) if low <= min(a, n - a) <= high]
    cuts = _sample_cuts(n, sizes, num_cuts, seed)

    # Probes are grouped by the column W|x> they read, keyed (adjoint, x);
    # each entry is (task_id, axes, j), with the register qubits in axes
    # ordered side A, then side B.  A cut is a Bipartition only where the
    # randomized index needs its sizes and its (i, j) -> x map; the draws
    # come in the order t, i, j, which the output bytes depend on.
    probes: dict[tuple[bool, int], list[tuple[int, tuple[int, ...], int]]] = {}
    for task_id, side_a in enumerate(cuts):
        register_a = [q - 1 for q in side_a[1:]]
        axes = tuple(register_a + [q for q in range(n) if q not in register_a])
        t = j = x = 0
        if randomize_index:
            cut = Bipartition(n, axes[: len(register_a)])
            rng = seed.child(task_id).generator()
            t, i, j = (int(rng.integers(size)) for size in (2, cut.dim_a, cut.dim_b))
            x = cut.basis_index(i, j)
        probes.setdefault((bool(t), x), []).append((task_id, axes, j))

    # Each distinct column is evolved once, in the column blocks of its
    # direction (U or U-dagger); while a block is held, its probes are
    # stacked by side-A size, which fixes the matrix shape.
    tau = config.polarization
    records: list[Optional[CutRecord]] = [None] * len(cuts)
    for adjoint in (False, True):
        distinct = [x for direction, x in probes if direction == adjoint]
        for xs, evolved in column_blocks(config.unitary, distinct, adjoint):
            by_size: dict[int, list[tuple[int, tuple[int, tuple[int, ...], int]]]] = {}
            for c, x in enumerate(xs.tolist()):
                for task_id, axes, j in probes[adjoint, x]:
                    by_size.setdefault(len(cuts[task_id]) - 1, []).append((task_id, (c, axes, j)))
            for a, group in by_size.items():
                shape = (2**a + 1, 2 ** (n - a))
                picks = [probe for _, probe in group]
                spectra = _probe_spectra(tau, evolved, picks, shape)
                free = spectra if tau in (0.0, 1.0) else _probe_spectra(1.0, evolved, picks, shape)
                ranks = stacked_ranks(free, rel_tol)
                sides = [cuts[task_id] for task_id, _ in group]
                width = min(2 ** (a + 1), 2 ** (n - a))
                block = _cut_records(sides, min(a, n - a), True, spectra, ranks, width)
                for (task_id, _), record in zip(group, block):
                    records[task_id] = record
    return RankScanReport(tuple(records))


@dataclass(frozen=True)
class ConcentrationReport:
    """Spectrum concentration of B-side reductions of Haar-random states."""

    max_deviations: tuple[float, ...]
    nonzero_counts: tuple[int, ...]

    def fraction_for(self, delta: float) -> float:
        """Fraction of samples whose whole spectrum fits the delta window."""
        inside = sum(1 for dev in self.max_deviations if dev <= delta)
        return inside / len(self.max_deviations)


def concentration_report(
    n_a: int,
    n_b: int,
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
    if n_a + n_b > STREAM_LIMIT:
        raise ValueError(f"n_a + n_b = {n_a + n_b} exceeds the register limit {STREAM_LIMIT}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d_a, d_b = 2**n_a, 2**n_b

    # Drawn straight into the stack slot.  The bits are those of
    # (a + 1j b) / ||a + 1j b||: the sum a + 1j b can differ from the
    # parts a, b only in a zero's sign, where a draw is exactly -0.
    def fill(start: int, stack: np.ndarray) -> None:
        for k, out in enumerate(stack, start):
            rng = seed.child(k).generator()
            out.real = rng.standard_normal((d_a, d_b))
            out.imag = rng.standard_normal((d_a, d_b))
            out /= np.linalg.norm(out)

    sing = _stacked_singular_values(fill, samples, (d_a, d_b), workers)
    deviations = np.max(np.abs(sing**2 * d_a - 1.0), axis=1)
    counts = stacked_ranks(sing, rel_tol)
    return ConcentrationReport(tuple(deviations.tolist()), tuple(counts.tolist()))


@dataclass(frozen=True)
class RobustRankBound:
    """Rank floors surviving a fidelity-epsilon approximation."""

    exact_bound: float
    linear_bound: float


def robust_rank_bound(epsilon: float, delta: float, n_0: int, tau: float) -> RobustRankBound:
    """Rank floor for any operator within fidelity 1-epsilon of the state.

    With d = 2^{n_0}, polarization tau and a reduction spectrum q within
    delta of uniform, fidelity F >= 1-epsilon at rank r forces
    F^2 <= (1 + tau^2 (1+delta) r/d) / (1+tau^2).  Inverting gives the exact
    floor d((1+tau^2)(1-epsilon)^2 - 1) / (tau^2 (1+delta)); the linear floor
    d(1 - 2 epsilon (1+tau^2)/tau^2 - delta) never exceeds it, because
    (1-epsilon)^2 >= 1 - 2 epsilon and 1/(1+delta) >= 1 - delta.  At tau = 1
    both are the paper's floors bit for bit, (1 - 4 epsilon - delta) d the
    linear one.  Both are clamped at 0, and both are 0 at tau = 0, where
    rho = I/2^{n+1} carries no rank claim.

    Derivation, top qubit on side A, D = 2^{n+1}: rho = (I + tau X)/D with
    X = |1><0| (x) U + |0><1| (x) U-dagger, the off-diagonal blocks.  F^2 is
    the largest ||R(rho) P||^2 / ||R(rho)||^2 over rank-r projections P on
    side B, R the realignment across the cut.  R(I) and R(X) occupy disjoint
    rows (the top qubit's row and column bits agree or differ), so for every
    P the squared norms add, and ||R(rho)||^2 = (1+tau^2)/D.  R(I) is rank
    one, so the identity term is at most 1/D.  The U term is the tau = 1
    argument's term times tau^2: that argument bounds ||R(X) P||^2 / ||X||^2
    by sum_{i<=r} q_i <= r(1+delta)/d, which is free of tau, and
    ||X||^2 = D.  That step is a hypothesis on U, typical of Haar U and not
    true of every U.  It holds for every delta >= 0, so any finite delta >= 0
    is accepted.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be a finite number >= 0")
    if n_0 < 0:
        raise ValueError("n_0 must be nonnegative")
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    t2 = tau**2
    if t2 == 0:  # tau = 0, or a tau whose square underflows
        return RobustRankBound(0.0, 0.0)
    d = 2**n_0
    exact = d * max(0.0, ((1.0 + t2) * (1.0 - epsilon) ** 2 - 1.0) / (t2 * (1.0 + delta)))
    linear = d * max(0.0, 1.0 - 2.0 * epsilon * (1.0 + t2) / t2 - delta)
    return RobustRankBound(exact, linear)


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
    robust_rank_bound(1-F, delta_hat, window, tau).linear_bound is compared
    against r.  delta_hat is measured from the reduction of U|0> across
    the register part of the same cut rather than assumed.  Side A must hold
    the top qubit 0 and ``ranks`` at least one rank.  A polarization in
    (0, TRUNCATION_MIN_TAU) is refused: double precision cannot resolve it.
    """
    n = config.num_register_qubits
    if n > TRUNCATION_MAX_QUBITS:
        raise ValueError(f"truncation sweep needs the dense state (n <= {TRUNCATION_MAX_QUBITS})")
    if 0 < config.polarization < TRUNCATION_MIN_TAU:
        raise ValueError(f"polarization below {TRUNCATION_MIN_TAU} cannot be resolved")
    if 0 not in cut.side_a:
        raise ValueError("the cut's side A must hold the top qubit 0")
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
    register_cut = Bipartition(n, tuple(q - 1 for q in cut.side_a[1:]))
    column = PureState(n, register_columns(config.unitary, [0], False)[:, 0])
    q_spectrum = schmidt_decompose(column, register_cut).coefficients ** 2
    delta_hat = float(np.max(np.abs(q_spectrum * 2**window - 1.0)))

    sweep = list(ranks) if ranks is not None else list(range(1, full_rank + 1))
    if not sweep:
        raise ValueError("ranks must list at least one rank")
    for r in sweep:
        if not 1 <= r <= full_rank:
            raise ValueError(f"rank {r} outside 1..{full_rank}")

    rows = []
    for r in sweep:
        f = truncation_fidelity(spectrum, r)
        eps = max(0.0, 1.0 - f)
        bound = robust_rank_bound(eps, delta_hat, window, config.polarization)
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
        edges = tuple(sorted(tuple(sorted((int(u), int(v)))) for u, v in self.edges))
        object.__setattr__(self, "edges", edges)
        adjacency = self.adjacency
        if len(adjacency) != len(edges) + 1:
            raise ValueError("edge list does not describe a tree")
        if not set(range(self.num_leaves)) <= adjacency.keys():
            raise ValueError("every leaf label must appear")
        for node, others in adjacency.items():
            deg = len(others)
            if node < self.num_leaves:
                if deg != 1:
                    raise ValueError(f"leaf {node} must have degree 1, got {deg}")
            elif not 2 <= deg <= 3:
                raise ValueError(f"internal node {node} must have degree 2 or 3")
        # edge count == node count - 1 plus full connectivity <=> tree, which
        # also rules out self-loops and repeated edges
        if len(self.bfs[1]) != len(adjacency):
            raise ValueError("tree is not connected")

    @cached_property
    def adjacency(self) -> dict[int, list[int]]:
        """Neighbours of every node, built once per tree; its keys are the nodes."""
        adjacency: dict[int, list[int]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        return adjacency

    @cached_property
    def bfs(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """Breadth-first search from leaf 0: (parent map, visit order).

        Run once per tree; leaf 0's parent is -1, and the order reaches
        every node exactly when the tree is connected.
        """
        parent = {0: -1}
        order = [0]
        for node in order:
            for other in self.adjacency[node]:
                if other not in parent:
                    parent[other] = node
                    order.append(other)
        return parent, tuple(order)


def random_degree3_tree(num_leaves: int, seed: SeedSpec) -> TreeGraph:
    """Grow a random tree by repeated edge subdivision and leaf attachment.

    Every internal node ends with degree exactly 3, so the result is a
    uniform-topology-free but always-admissible degree-<=3 tree.
    """
    if num_leaves < 2:
        raise ValueError("need at least 2 leaves")
    # Leaf k is attached to one of the 2k - 3 edges present, drawn in one
    # call that consumes the generator as one integers(2k - 3) per leaf does.
    picks = seed.generator().integers(np.arange(1, 2 * num_leaves - 4, 2))
    edges: list[tuple[int, int]] = [(0, 1)]
    next_internal = num_leaves
    for leaf, pick in enumerate(picks.tolist(), 2):
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
    parent, order = tree.bfs
    leaf_count = dict.fromkeys(order, 0)
    for node in reversed(order):  # children before parents
        if node < leaves:
            leaf_count[node] += 1
        if parent[node] >= 0:
            leaf_count[parent[node]] += leaf_count[node]

    for u, v in tree.edges:
        child = v if parent[v] == u else u
        side = leaf_count[child]
        n_0 = min(side, leaves - side)
        if low <= n_0 <= high:
            return (u, v), n_0
    raise ClaimFalsified(
        f"no edge of the tree splits its {leaves} leaves with a minority "
        f"side in [{low}, {high}]"
    )
