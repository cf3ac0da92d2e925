"""Plain-text interchange formats and report writers.

CMAT v1 holds one complex matrix: a header line ``CMAT v1 <rows> <cols>``
followed by rows*cols lines of ``re im`` in row-major order.  Circuit
files hold one gate per line: two target labels then 16 ``re im`` pairs,
row-major over the 4x4 gate.  All floats are printed with 17 significant
digits so a write/read round trip is exact.
"""

from __future__ import annotations

import io
import json
import os
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .randomness import Circuit, GateSpec
from .tensor_core import DenseOperator, is_unitary

CMAT_MAGIC = "CMAT v1"
LOAD_UNITARY_TOL = 1e-8


class FileFormatError(Exception):
    """Input file violates a documented format or validation rule."""


def format_float(value: float) -> str:
    """Shortest representation that survives a parse round trip."""
    return format(float(value), ".17g")


def write_cmat(path: str, matrix: np.ndarray) -> None:
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("CMAT files hold 2-d matrices only")
    rows, cols = mat.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{CMAT_MAGIC} {rows} {cols}\n")
        for entry in mat.reshape(-1):
            fh.write(f"{format_float(entry.real)} {format_float(entry.imag)}\n")


def read_cmat(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header_line = fh.readline()
        header = header_line.split()
        if len(header) != 4 or " ".join(header[:2]) != CMAT_MAGIC:
            raise FileFormatError(f"{path}: missing '{CMAT_MAGIC} <rows> <cols>' header")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError as exc:
            raise FileFormatError(f"{path}: non-integer shape in header") from exc
        if rows < 1 or cols < 1:
            raise FileFormatError(f"{path}: shape must be positive")
        # An entry line takes at least 4 bytes ("a b\n", the last one may
        # lack its newline), so a header the file cannot back is refused
        # before anything is allocated for it.
        capacity = (os.fstat(fh.fileno()).st_size - len(header_line) + 1) // 4
        if rows * cols > capacity:
            raise FileFormatError(
                f"{path}: header declares {rows * cols} entries, "
                f"but the file can hold at most {capacity}"
            )
        entries = np.empty(rows * cols, dtype=np.complex128)
        for k in range(rows * cols):
            line = fh.readline()
            if not line:
                raise FileFormatError(f"{path}: expected {rows * cols} entries, got {k}")
            parts = line.split()
            if len(parts) != 2:
                raise FileFormatError(f"{path}: entry line {k + 2} must be 're im'")
            try:
                entries[k] = complex(float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad number on line {k + 2}") from exc
        if fh.readline().strip():
            raise FileFormatError(f"{path}: trailing content after {rows * cols} entries")
    return entries.reshape(rows, cols)


def read_unitary_cmat(path: str) -> DenseOperator:
    """Load a CMAT file that must hold a square unitary on whole qubits."""
    mat = read_cmat(path)
    rows, cols = mat.shape
    if rows != cols:
        raise FileFormatError(f"{path}: unitary must be square, got {rows}x{cols}")
    num_qubits = rows.bit_length() - 1
    if 2**num_qubits != rows or num_qubits < 1:
        raise FileFormatError(f"{path}: dimension {rows} is not 2^n for n >= 1")
    if not is_unitary(mat, LOAD_UNITARY_TOL):
        raise FileFormatError(f"{path}: matrix is not unitary within {LOAD_UNITARY_TOL}")
    return DenseOperator(num_qubits, mat)


def write_circuit(path: str, circuit: Circuit) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# circuit on {circuit.num_qubits} qubits\n")
        for gate in circuit.gates:
            q1, q2 = gate.targets
            parts = [str(q1), str(q2)]
            for entry in gate.matrix.reshape(-1):
                parts.append(format_float(entry.real))
                parts.append(format_float(entry.imag))
            fh.write(" ".join(parts) + "\n")


def read_circuit(path: str, num_qubits: int) -> Circuit:
    """Parse a gate-per-line circuit file onto a declared register size."""
    gates = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2 + 32:
                raise FileFormatError(
                    f"{path}:{lineno}: need 2 targets plus 16 're im' pairs"
                )
            try:
                q1, q2 = int(parts[0]), int(parts[1])
                values = [float(p) for p in parts[2:]]
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: bad number") from exc
            mat = np.array(values[0::2]) + 1j * np.array(values[1::2])
            try:
                gates.append(GateSpec((q1, q2), mat.reshape(4, 4)))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    try:
        return Circuit(num_qubits, tuple(gates))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


JsonValue = Union[None, bool, int, float, str, Sequence["JsonValue"], Mapping[str, "JsonValue"]]


def render_csv(
    meta: Mapping[str, JsonValue],
    columns: Sequence[str],
    rows: Iterable[Mapping[str, JsonValue]],
) -> str:
    """CSV text with '#'-prefixed meta lines, fixed float formatting."""
    out = io.StringIO()
    for key in sorted(meta):
        out.write(f"# {key} = {_render_cell(meta[key])}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_render_cell(row[c]) for c in columns) + "\n")
    return out.getvalue()


def _render_cell(value: JsonValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_render_cell(v) for v in value)
    return str(value)


def render_json(payload: Mapping[str, JsonValue]) -> str:
    """Stable-key-order JSON with native floats (repr round trip exact)."""
    return json.dumps(_plainify(payload), sort_keys=True, indent=2) + "\n"


def _plainify(value):
    if isinstance(value, Mapping):
        return {str(k): _plainify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plainify(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plainify(v) for v in value.tolist()]
    return value
