"""Layer tracing from outside the program.

``Tracer.installed()`` wraps the public functions of each dqc1kit module
at run time and patches every module that imported them by name (``cli``,
``dqc1_model``, ``randomness``, ``correlation_analysis``, the package
namespace), then restores the originals.  Each call records a span: name,
start, end, parent, session id and thread.  Spans stay in memory until
the run writes them out.  Every thread keeps its own span stack; a
``parallel_map`` task starts on a worker thread with the ``parallel_map``
span as its parent, so self times stay nonnegative under the thread pool.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

import dqc1kit
from dqc1kit import cli, correlation_analysis, dqc1_model, fileio, randomness, tensor_core

_MODULES = (dqc1kit, cli, correlation_analysis, dqc1_model, fileio, randomness, tensor_core)


def _circuit_digest(circuit) -> str:
    h = hashlib.blake2b(digest_size=12)
    h.update(str(circuit.num_qubits).encode())
    for gate in circuit.gates:
        h.update(repr(gate.targets).encode())
        h.update(gate.matrix.tobytes())
    return h.hexdigest()


def _unitary_digest(unitary) -> str:
    if hasattr(unitary, "gates"):
        return _circuit_digest(unitary)
    return hashlib.blake2b(np.ascontiguousarray(unitary.matrix).tobytes(), digest_size=12).hexdigest()


def _state_key(state) -> str:
    """The input basis index of a basis state, else a digest of the amplitudes."""
    amp = state.amplitudes
    nonzero = np.flatnonzero(amp)
    if nonzero.size == 1 and amp[nonzero[0]] == 1:
        return str(int(nonzero[0]))
    return hashlib.blake2b(amp.tobytes(), digest_size=12).hexdigest()


# Each entry: module, function, span name, and a function of (args, result)
# giving the span's counters.  Byte counts marked "computed" come from array
# sizes, not from measured memory traffic.
_Attrs = Optional[Callable[[tuple, object], dict]]
WRAPPED: tuple[tuple[object, str, str, _Attrs], ...] = (
    (cli, "main", "cli.main", None),
    (fileio, "read_cmat", "fileio.read", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (fileio, "read_unitary_cmat", "fileio.read", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (fileio, "read_circuit", "fileio.read", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (fileio, "render_csv", "fileio.render", lambda a, r: {"bytes": len(r)}),
    (fileio, "render_json", "fileio.render", lambda a, r: {"bytes": len(r)}),
    (randomness, "apply_circuit", "randomness.apply_circuit",
     lambda a, r: {"key": _circuit_digest(a[0]) + ":" + _state_key(a[1])}),
    # computed: one read and one write of the 4^n-entry complex batch per gate
    (randomness, "circuit_unitary", "randomness.circuit_unitary",
     lambda a, r: {"bytes": 2 * 16 * 4 ** a[0].num_qubits * len(a[0].gates)}),
    (randomness, "random_two_qubit_circuit", "randomness.circuit_gen", None),
    (randomness, "haar_unitary", "randomness.haar", None),
    # computed: one read and one write of the 2^n-entry complex state
    (tensor_core, "apply_two_qubit_gate", "tensor_core.gate",
     lambda a, r: {"bytes": 2 * 16 * 2 ** a[0].num_qubits}),
    (tensor_core, "schmidt_decompose", "tensor_core.schmidt",
     lambda a, r: {"elems": a[1].dim_a * a[1].dim_b}),
    (tensor_core, "operator_schmidt_decompose", "tensor_core.schmidt",
     lambda a, r: {"elems": a[1].dim_a ** 2 * a[1].dim_b ** 2}),
    (tensor_core, "realign", "tensor_core.realign", None),
    (tensor_core, "unrealign", "tensor_core.realign", None),
    (tensor_core, "fidelity", "tensor_core.fidelity", None),
    (dqc1_model, "apply_to_product", "dqc1_model.probe", None),
    (dqc1_model, "normalized_trace", "dqc1_model.trace",
     lambda a, r: {"key": _unitary_digest(a[0])}),
    # computed: the dense 2^(n+1) x 2^(n+1) complex joint state
    (dqc1_model, "final_state", "dqc1_model.final_state",
     lambda a, r: {"bytes": 16 * 4 ** (a[0].num_register_qubits + 1)}),
    (correlation_analysis, "rank_bound_scan", "correlation_analysis.scan",
     lambda a, r: {"cuts": len(r.records)}),
    (correlation_analysis, "min_rank_over_equipartitions", "correlation_analysis.scan",
     lambda a, r: {"cuts": len(r.records)}),
    (correlation_analysis, "truncation_experiment", "correlation_analysis.truncation", None),
    (correlation_analysis, "concentration_report", "correlation_analysis.concentration", None),
    (correlation_analysis, "random_degree3_tree", "correlation_analysis.tree", None),
    (correlation_analysis, "balanced_tree_edge", "correlation_analysis.tree", None),
)
POOL_SPAN = "correlation_analysis.parallel_map"
TASK_SPAN = "correlation_analysis.task"


@dataclass
class Span:
    id: int
    name: str
    fn: str
    start: float
    end: float
    parent: Optional[int]
    session: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)
    self_s: float = 0.0


class Tracer:
    """Collects spans while installed; ``session`` tags the spans recorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.session: Optional[int] = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn: Callable, attrs: _Attrs, args: tuple, kwargs: dict,
              parent: Optional[int] = None, span_id: Optional[int] = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if span_id is None:
            with self._lock:
                span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        result, info = None, {}
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            info["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if attrs is not None and "error" not in info:
                info.update(attrs(args, result))
            span = Span(span_id, name, fn.__name__, start, end, parent, self.session,
                        threading.get_ident(), info)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, attrs: _Attrs) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, attrs, args, kwargs)
        return traced

    def _wrap_pool(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(task_fn, items, workers=1):
            items = list(items)
            pooled = min(workers, len(items)) if workers > 1 and len(items) > 1 else 1
            # The pool span's id is taken up front so that tasks on worker
            # threads, whose own stacks are empty, can name it as parent.
            with self._lock:
                pool_id = next(self._ids)

            def task(item):
                return self._call(TASK_SPAN, task_fn, None, (item,), {}, parent=pool_id)

            return self._call(POOL_SPAN, fn, lambda a, r: {"workers": pooled},
                              (task, items, workers), {}, span_id=pool_id)
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every module that holds a wrapped function; restore on exit."""
        patches = [(correlation_analysis, "parallel_map",
                    self._wrap_pool(correlation_analysis.parallel_map))]
        patches += [(module, fname, self._wrap(name, getattr(module, fname), attrs))
                    for module, fname, name, attrs in WRAPPED]
        saved = []
        try:
            for home, fname, wrapper in patches:
                original = getattr(home, fname)
                for module in _MODULES:
                    if getattr(module, fname, None) is original:
                        saved.append((module, fname, original))
                        setattr(module, fname, wrapper)
            yield self
        finally:
            for module, fname, original in reversed(saved):
                setattr(module, fname, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def compute_self_times(spans: list[Span]) -> None:
    """Self time: span time minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    for span in spans:
        covered = [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
        span.self_s = (span.end - span.start) - _union_length([iv for iv in covered if iv[1] > iv[0]])


# Per-layer metrics: name -> (unit, better).  A ratio whose base is 0 reads
# 0.  trace.overhead_s is the traced median session time minus the untraced
# one, taken in cal units and turned back into seconds (see run.py).
PER_LAYER = {
    "cli.self_s": ("s/session", "lower"),
    "fileio.read_calls": ("count/session", "lower"),
    "fileio.read_s": ("s/session", "lower"),
    "fileio.read_bytes": ("B/session", "lower"),
    "fileio.render_s": ("s/session", "lower"),
    "fileio.render_bytes": ("B/session", "lower"),
    "randomness.apply_circuit_calls": ("count/session", "lower"),
    "randomness.apply_circuit_s": ("s/session", "lower"),
    "randomness.apply_circuit_distinct_ratio": ("ratio", "higher"),
    "randomness.circuit_unitary_calls": ("count/session", "lower"),
    "randomness.circuit_unitary_s": ("s/session", "lower"),
    "randomness.circuit_unitary_bytes": ("B/session", "lower"),
    "randomness.circuit_gen_s": ("s/session", "lower"),
    "randomness.haar_s": ("s/session", "lower"),
    "tensor_core.gate_calls": ("count/session", "lower"),
    "tensor_core.gate_s": ("s/session", "lower"),
    "tensor_core.gate_state_bytes": ("B/session", "lower"),
    "tensor_core.schmidt_calls": ("count/session", "lower"),
    "tensor_core.schmidt_s": ("s/session", "lower"),
    "tensor_core.schmidt_elems": ("count/session", "lower"),
    "tensor_core.realign_s": ("s/session", "lower"),
    "tensor_core.fidelity_s": ("s/session", "lower"),
    "dqc1_model.probe_calls": ("count/session", "lower"),
    "dqc1_model.probe_s": ("s/session", "lower"),
    "dqc1_model.trace_calls": ("count/session", "lower"),
    "dqc1_model.trace_s": ("s/session", "lower"),
    "dqc1_model.trace_distinct_ratio": ("ratio", "higher"),
    "dqc1_model.final_state_calls": ("count/session", "lower"),
    "dqc1_model.final_state_bytes": ("B/session", "lower"),
    "correlation_analysis.cuts": ("count/session", "lower"),
    "correlation_analysis.scan_self_s": ("s/session", "lower"),
    "correlation_analysis.truncation_self_s": ("s/session", "lower"),
    "correlation_analysis.pool_busy_ratio": ("ratio", "higher"),
    "correlation_analysis.concentration_s": ("s/session", "lower"),
    "correlation_analysis.tree_s": ("s/session", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], sessions: int) -> dict[str, float]:
    """Per-session layer totals from the spans of ``sessions`` traced sessions.

    Calls and times count only the outermost span of a name, so a read
    that calls another read is counted once.  ``trace.overhead_s`` needs
    untraced sessions and is added by the caller.
    """
    by_id = {span.id: span for span in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def outermost(name: str) -> list[Span]:
        found = []
        for span in by_name[name]:
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent)
            if parent is None:
                found.append(span)
        return found

    def calls(name: str) -> float:
        return len(outermost(name)) / sessions

    def seconds(name: str) -> float:
        return sum(s.end - s.start for s in outermost(name)) / sessions

    def total(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in outermost(name)) / sessions

    def distinct_ratio(name: str) -> float:
        found = outermost(name)
        keys = {(s.session, s.attrs["key"]) for s in found if "key" in s.attrs}
        return _ratio(len(keys), len(found))

    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    def layer_self(name: str) -> float:
        """Self time of the named spans plus that of same-module spans below them."""
        layer = name.split(".")[0] + "."
        todo = outermost(name)
        acc = 0.0
        while todo:
            span = todo.pop()
            acc += span.self_s
            todo.extend(c for c in children[span.id] if c.name.startswith(layer))
        return acc / sessions

    pools = [s for s in by_name[POOL_SPAN] if s.attrs["workers"] > 1]
    busy = sum(c.end - c.start for p in pools for c in children[p.id])
    capacity = sum((p.end - p.start) * p.attrs["workers"] for p in pools)

    return {
        "cli.self_s": sum(s.self_s for s in outermost("cli.main")) / sessions,
        "fileio.read_calls": calls("fileio.read"),
        "fileio.read_s": seconds("fileio.read"),
        "fileio.read_bytes": total("fileio.read", "bytes"),
        "fileio.render_s": seconds("fileio.render"),
        "fileio.render_bytes": total("fileio.render", "bytes"),
        "randomness.apply_circuit_calls": calls("randomness.apply_circuit"),
        "randomness.apply_circuit_s": seconds("randomness.apply_circuit"),
        "randomness.apply_circuit_distinct_ratio": distinct_ratio("randomness.apply_circuit"),
        "randomness.circuit_unitary_calls": calls("randomness.circuit_unitary"),
        "randomness.circuit_unitary_s": seconds("randomness.circuit_unitary"),
        "randomness.circuit_unitary_bytes": total("randomness.circuit_unitary", "bytes"),
        "randomness.circuit_gen_s": seconds("randomness.circuit_gen"),
        "randomness.haar_s": seconds("randomness.haar"),
        "tensor_core.gate_calls": calls("tensor_core.gate"),
        "tensor_core.gate_s": seconds("tensor_core.gate"),
        "tensor_core.gate_state_bytes": total("tensor_core.gate", "bytes"),
        "tensor_core.schmidt_calls": calls("tensor_core.schmidt"),
        "tensor_core.schmidt_s": seconds("tensor_core.schmidt"),
        "tensor_core.schmidt_elems": total("tensor_core.schmidt", "elems"),
        "tensor_core.realign_s": seconds("tensor_core.realign"),
        "tensor_core.fidelity_s": seconds("tensor_core.fidelity"),
        "dqc1_model.probe_calls": calls("dqc1_model.probe"),
        "dqc1_model.probe_s": seconds("dqc1_model.probe"),
        "dqc1_model.trace_calls": calls("dqc1_model.trace"),
        "dqc1_model.trace_s": seconds("dqc1_model.trace"),
        "dqc1_model.trace_distinct_ratio": distinct_ratio("dqc1_model.trace"),
        "dqc1_model.final_state_calls": calls("dqc1_model.final_state"),
        "dqc1_model.final_state_bytes": total("dqc1_model.final_state", "bytes"),
        "correlation_analysis.cuts": total("correlation_analysis.scan", "cuts"),
        "correlation_analysis.scan_self_s": layer_self("correlation_analysis.scan"),
        "correlation_analysis.truncation_self_s": layer_self("correlation_analysis.truncation"),
        "correlation_analysis.pool_busy_ratio": _ratio(busy, capacity),
        "correlation_analysis.concentration_s": seconds("correlation_analysis.concentration"),
        "correlation_analysis.tree_s": seconds("correlation_analysis.tree"),
    }
