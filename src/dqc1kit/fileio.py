"""Plain-text interchange formats and report writers.

CMAT v1 holds one complex matrix: a header line ``CMAT v1 <rows> <cols>``
followed by rows*cols lines of ``re im`` in row-major order; blank lines
are skipped anywhere after the header.  Circuit
files hold one gate per line: two target labels then 16 ``re im`` pairs,
row-major over the 4x4 gate.  All floats are printed with 17 significant
digits so a write/read round trip is exact.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import warnings
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .randomness import Circuit, GateSpec, first_nonunitary_gate
from .tensor_core import UNITARY_TOL, DenseOperator, is_unitary

CMAT_MAGIC = "CMAT v1"


class FileFormatError(Exception):
    """Input file violates a documented format or validation rule."""


def format_float(value: float) -> str:
    """Shortest representation that survives a parse round trip."""
    return format(float(value), ".17g")


def write_cmat(path: str, matrix: np.ndarray) -> None:
    mat = np.asarray(matrix, dtype=np.complex128)
    # Refused before the path is opened: read_cmat refuses these files.
    if mat.ndim != 2 or not mat.size:
        raise ValueError("CMAT files hold nonempty 2-d matrices only")
    if not np.isfinite(mat).all():
        raise ValueError("CMAT entries must be finite")
    rows, cols = mat.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{CMAT_MAGIC} {rows} {cols}\n")
        # format_float's spec on Python floats, one join per row: joining the
        # whole 256x256 matrix at once took 14 MiB more peak memory.
        entry = "{:.17g} {:.17g}\n".format
        for row in mat:
            fh.write("".join(map(entry, row.real.tolist(), row.imag.tolist())))


@contextlib.contextmanager
def _ascii_text(path: str) -> Iterator[IO[str]]:
    """Open ``path`` as ASCII text; a byte it cannot decode is a FileFormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # Text mode decodes in chunks, so the line being read when this
        # surfaces need not hold the byte: the message names the byte only.
        bad = exc.object[exc.start]
        raise FileFormatError(f"{path}: not ASCII text (byte {bad:#04x})") from exc


def read_cmat(path: str) -> np.ndarray:
    with _ascii_text(path) as fh:
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
        count = rows * cols
        # An entry line takes at least 4 bytes ("a b\n", the last one may
        # lack its newline), so a header the file cannot back is refused
        # before anything is allocated for it.
        capacity = (os.fstat(fh.fileno()).st_size - len(header_line) + 1) // 4
        if count > capacity:
            raise FileFormatError(
                f"{path}: header declares {count} entries, "
                f"but the file can hold at most {capacity}"
            )
        # The ASCII decoder keeps no state, so tell() is the body's byte offset.
        body = fh.tell()
        # numpy's C reader takes the body whole when it holds exactly
        # ``count`` rows of two finite numbers; reading one row more shows
        # trailing content.  The warnings it gives on a skipped blank line
        # or an empty body are silenced: such files are valid or refused below.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2, max_rows=count + 1)
            if values.shape == (count, 2) and np.isfinite(values).all():
                return values.view(np.complex128).reshape(rows, cols)
        except ValueError:  # a UnicodeDecodeError too: the loop raises it again
            pass
        # Any other file: this loop owns every accept/refuse decision and message.
        fh.seek(body)
        entries = np.empty(count, dtype=np.complex128)
        k = 0
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if k == count:
                raise FileFormatError(f"{path}: trailing content after {count} entries")
            if len(parts) != 2:
                raise FileFormatError(f"{path}: entry line {lineno} must be 're im'")
            try:
                entry = complex(float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad number on line {lineno}") from exc
            if not cmath.isfinite(entry):
                raise FileFormatError(f"{path}: non-finite number on line {lineno}")
            entries[k] = entry
            k += 1
        if k < count:
            raise FileFormatError(f"{path}: expected {count} entries, got {k}")
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
    if not is_unitary(mat):
        raise FileFormatError(f"{path}: matrix is not unitary within {UNITARY_TOL}")
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
    """Parse a gate-per-line circuit file onto a declared register size.

    The gates are checked for unitarity together, when the Circuit is
    built.  A refusal still names the line at fault: the first
    non-unitary gate's, unless an error on an earlier line comes first.
    """
    gates, linenos = [], []
    try:
        with _ascii_text(path) as fh:
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
                if not np.isfinite(values).all():
                    raise FileFormatError(f"{path}:{lineno}: non-finite number")
                mat = np.array(values[0::2]) + 1j * np.array(values[1::2])
                try:
                    gates.append(GateSpec((q1, q2), mat.reshape(4, 4)))
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
                linenos.append(lineno)
        return Circuit(num_qubits, tuple(gates))
    except (FileFormatError, ValueError) as exc:
        # Every gate read so far lies on a line before the error's.
        bad = first_nonunitary_gate(gates)
        if bad is not None:
            raise FileFormatError(
                f"{path}:{linenos[bad]}: gate is not unitary within {UNITARY_TOL}"
            ) from exc
        if isinstance(exc, FileFormatError):
            raise
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
    """Stable-key-order JSON with native floats (repr round trip exact).

    numpy scalars and arrays become Python values through ``tolist``;
    ``np.float64`` is a float subclass and is written by ``float.__repr__``.
    A nan or infinity is not JSON (RFC 8259) and raises ``ValueError``.
    """
    return json.dumps(
        payload, sort_keys=True, indent=2, allow_nan=False, default=_numpy_to_python
    ) + "\n"


def _numpy_to_python(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
