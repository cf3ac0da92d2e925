import contextlib
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqc1kit import (
    Circuit,
    FileFormatError,
    GateSpec,
    SeedSpec,
    format_float,
    haar_unitary,
    random_two_qubit_circuit,
    read_circuit,
    read_cmat,
    read_unitary_cmat,
    render_csv,
    render_json,
    write_circuit,
    write_cmat,
)
from dqc1kit.cli import main as cli_main

import oracles


def test_cmat_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(90)
    mat = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.cmat"
    write_cmat(path, mat)
    back = read_cmat(path)
    assert back.shape == (3, 5)
    assert np.array_equal(back, mat)


def test_write_cmat_bytes_are_the_per_entry_format(tmp_path):
    rng = np.random.default_rng(91)
    mat = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-300, 300, (4, 6))
    mat = mat + 1j * rng.standard_normal((4, 6))
    mat[0, :4] = [0.0, -0.0, 1.0, -1e-320]
    mat[1, :3] = [complex(0.1, -0.0), complex(3, 1e308), complex(2**-1074, -2.5)]
    path = tmp_path / "m.cmat"
    write_cmat(path, mat)
    want = "CMAT v1 4 6\n" + "".join(
        f"{format_float(z.real)} {format_float(z.imag)}\n" for z in mat.reshape(-1)
    )
    assert path.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("matrix", [
    [[np.nan, 0]], [[1, np.inf]], [[complex(0, -np.inf)]], np.zeros((0, 3)),
], ids=["nan", "inf", "imag-inf", "0x3"])
def test_write_cmat_refuses_what_read_cmat_refuses_before_opening_the_path(tmp_path, matrix):
    # read_cmat refuses non-finite entries and an empty shape; no such file is written.
    path = tmp_path / "m.cmat"
    with pytest.raises(ValueError):
        write_cmat(path, np.asarray(matrix))
    assert not path.exists()


def test_cmat_header_and_shape_errors(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("CMAT v2 2 2\n0 0\n0 0\n0 0\n0 0\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)
    path.write_text("CMAT v1 2\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)
    path.write_text("CMAT v1 2 2\n1 0\n0 0\n0 0\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)  # truncated
    path.write_text("CMAT v1 1 1\n1 0\n0 0\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)  # trailing entries
    path.write_text("CMAT v1 1 1\n1 zero\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)
    path.write_text("CMAT v1 0 2\n")
    with pytest.raises(FileFormatError):
        read_cmat(path)


def test_cmat_allows_only_blank_lines_after_the_entries(tmp_path):
    path = tmp_path / "tail.cmat"
    write_cmat(path, np.eye(2))
    entries = path.read_text()
    path.write_text(entries + "\n  \n")
    assert np.array_equal(read_cmat(path), np.eye(2))
    path.write_text(entries + "\njunk 1 2\n")
    with pytest.raises(FileFormatError, match="trailing content after 4 entries"):
        read_cmat(path)
    assert cli_main(["trace-estimate", "--cmat", str(path)]) == 3


def test_cmat_skips_blank_lines_between_entries(tmp_path, fallbacks):
    path = tmp_path / "gaps.cmat"
    mat = haar_unitary(2, SeedSpec(3)).matrix
    write_cmat(path, mat)
    lines = path.read_text().split("\n")
    lines[3:3] = ["", "  \t", ""]
    lines.insert(1, " ")
    path.write_text("\n".join(lines))
    assert read_cmat(path).tobytes() == mat.tobytes()
    assert fallbacks == []
    assert _loop_outcome(path) == (mat.shape, mat.tobytes())


def test_cmat_trailing_rows_are_refused_without_reading_them(tmp_path):
    path = tmp_path / "tail.cmat"
    path.write_text("CMAT v1 2 2\n" + "0 0\n" * (4 + 10**6))
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as refused:
            read_cmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"{path}: trailing content after 4 entries"
    assert peak < 2**20  # the 10^6 rows as floats alone would take 16 MB


def test_cmat_with_an_all_blank_body_is_refused_without_a_warning(tmp_path, capsys):
    path = tmp_path / "blank.cmat"
    path.write_text("CMAT v1 2 2\n" + "\n \n\t\n" * 4)  # room for 4 entries
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["trace-estimate", "--cmat", str(path)]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"input error: {path}: expected 4 entries, got 0\n"


def test_cmat_header_the_file_cannot_hold_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.cmat"
    path.write_text("CMAT v1 1024 1024\n0 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as refused:
            read_cmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "at most 1" in str(refused.value)
    assert cli_main(["trace-estimate", "--cmat", str(path)]) == 3


def test_cmat_reader_accepts_the_smallest_files_it_writes(tmp_path):
    # "0 0" is the shortest entry line write_cmat emits
    path = tmp_path / "zeros.cmat"
    for shape in [(1, 1), (1, 2), (3, 2), (4, 4)]:
        write_cmat(path, np.zeros(shape, dtype=complex))
        assert np.array_equal(read_cmat(path), np.zeros(shape))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # no final newline
        assert np.array_equal(read_cmat(path), np.zeros(shape))
        path.write_bytes(path.read_bytes()[:-1])  # one byte short of the last entry
        with pytest.raises(FileFormatError):
            read_cmat(path)


@pytest.fixture
def fallbacks(monkeypatch):
    """Row counts asked of np.loadtxt for CMAT bodies it left to the per-line loop.

    read_cmat takes numpy's rows only as ``max_rows - 1`` rows of two
    finite numbers; any other result, or a ValueError, is a decline.
    """
    declined = []
    loadtxt = np.loadtxt

    def counted(*args, max_rows, **kwargs):
        try:
            values = loadtxt(*args, max_rows=max_rows, **kwargs)
        except ValueError:
            declined.append(max_rows)
            raise
        if values.shape != (max_rows - 1, 2) or not np.isfinite(values).all():
            declined.append(max_rows)
        return values

    monkeypatch.setattr(np, "loadtxt", counted)
    return declined


def _read_outcome(path):
    """(shape, bytes) of what read_cmat returns, or the message it refuses with."""
    try:
        mat = read_cmat(path)
    except FileFormatError as exc:
        return str(exc)
    return mat.shape, mat.tobytes()


def _loop_outcome(path):
    """The outcome with np.loadtxt declining, so the per-line loop decides."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return _read_outcome(path)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (256, 256)])
@pytest.mark.parametrize("tail", ["newline", "no final newline", "blank lines", "long blank run"])
def test_written_cmat_takes_the_vectorized_pass(tmp_path, fallbacks, shape, tail):
    rng = np.random.default_rng(shape[0])
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if shape == (1, 1):
        mat[:] = 0  # "0 0", the shortest entry line
    path = tmp_path / "m.cmat"
    write_cmat(path, mat)
    data = path.read_bytes()
    # Blank lines do not count toward max_rows, so even a long run stays on numpy's path.
    extra = {"newline": b"", "blank lines": b"\n\n", "long blank run": b"\n" * 200_000}
    path.write_bytes(data.rstrip(b"\n") if tail == "no final newline" else data + extra[tail])
    back = read_cmat(path)
    assert back.shape == shape
    assert back.tobytes() == mat.tobytes()
    assert fallbacks == []


def test_vectorized_read_of_a_256x256_file_stays_in_blocks(tmp_path):
    path = tmp_path / "u.cmat"
    write_cmat(path, haar_unitary(8, SeedSpec(17)).matrix)
    tracemalloc.start()
    try:
        read_cmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 1 MiB result plus numpy's read buffers; reading the whole 3.3 MB
    # body at once, or a token list, would pass this bound.
    assert peak < 2.5 * 2**20


EXACT_TOKENS = [
    "9007199254740993",  # halfway between two doubles: rounds to even
    "2.2250738585072011e-308",  # largest subnormal
    "4.9406564584124654e-324",  # smallest subnormal
    "1.7976931348623157e308",  # largest finite double
    "-0",
    "+.5",
    "5.",
    "1E+05",
]
REFUSED_TOKENS = ["1e", ".", "1.2.3", "1+2", "1e5-3", "--1"]


def test_vectorized_pass_reads_edge_tokens_as_float_does(tmp_path, fallbacks):
    path = tmp_path / "t.cmat"
    path.write_text(
        f"CMAT v1 {len(EXACT_TOKENS)} 1\n"
        + "".join(f"{t} {EXACT_TOKENS[-1 - k]}\n" for k, t in enumerate(EXACT_TOKENS))
    )
    want = [complex(float(t), float(EXACT_TOKENS[-1 - k])) for k, t in enumerate(EXACT_TOKENS)]
    assert read_cmat(path).tobytes() == np.array(want).reshape(-1, 1).tobytes()
    assert fallbacks == []


@pytest.mark.parametrize("token", REFUSED_TOKENS)
@pytest.mark.parametrize("place", [(0, 0), (1, 1), (2, 0), (2, 1)])
def test_unreadable_token_goes_to_the_loop_and_its_message(tmp_path, fallbacks, token, place):
    line, column = place
    entries = [["0.5", "-0.25"] for _ in range(3)]
    entries[line][column] = token
    path = tmp_path / "t.cmat"
    path.write_text("CMAT v1 3 1\n" + "".join(f"{re} {im}\n" for re, im in entries))
    message = f"{path}: bad number on line {line + 2}"
    assert _read_outcome(path) == message == _loop_outcome(path)
    assert len(fallbacks) == 1


MUTANT_TOKENS = ["1e999", "-1e999", "inf", "nan", "1_0", "1e", ".", "1+2", "--1", "+.5", "5.", "-0"]


@st.composite
def mutated_cmat_files(draw):
    """A write_cmat file of a small unitary, or of a 2x3 matrix, with 1-3 edits."""
    n = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if n:
        mat = haar_unitary(n, SeedSpec(int(rng.integers(2**32)))).matrix
    else:
        mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    # write_cmat's bytes (test_write_cmat_bytes_are_the_per_entry_format)
    entries = "".join(f"{format_float(z.real)} {format_float(z.imag)}\n" for z in mat.flat)
    data = f"CMAT v1 {mat.shape[0]} {mat.shape[1]}\n{entries}".encode("ascii")
    header = data.index(b"\n") + 1  # the header's own checks are tested above
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["flip", "insert", "non-ascii", "duplicate", "drop", "blank", "token", "final",
             "tail"]
        ))
        at = draw(st.integers(header, max(len(data) - 1, header)))
        lines = data.split(b"\n")
        row = draw(st.integers(1, max(len(lines) - 1, 1)))
        if kind == "flip":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
        elif kind == "insert":
            byte = draw(st.sampled_from([b"\t", b"\r", b" ", b"\n", b"#", b"\x0b", b"\x00"]))
            data = data[:at] + byte + data[at:]
        elif kind == "non-ascii":
            data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
        elif kind in ("duplicate", "drop"):
            lines[row : row + 1] = [lines[row]] * (2 if kind == "duplicate" else 0)
            data = b"\n".join(lines)
        elif kind == "blank":  # a line between entries, or before the first
            lines.insert(row, draw(st.sampled_from([b"", b"  ", b"\t", b"\x0b", b" \x0c ", b"#"])))
            data = b"\n".join(lines)
        elif kind == "token":
            tokens = lines[row].split(b" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(MUTANT_TOKENS)
            ).encode()
            lines[row] = b" ".join(tokens)
            data = b"\n".join(lines)
        elif kind == "final":
            data = data.rstrip(b"\n")
        else:
            data += draw(st.sampled_from([b"\n", b"\n\n", b"  \n", b"\t\n", b"\r\n", b"\n0 0\n"]))
    return data


@settings(derandomize=True, deadline=None, max_examples=200)
@given(mutated_cmat_files())
@example(b"CMAT v1 1 1\n1 0\n\n\n")
@example(b"CMAT v1 1 1\n1e999 0\n")
# 2 numbers a line on average, but the lines are not 're im'
@example(b"CMAT v1 2 1\n1 2 3\n4\n")
@example(b"CMAT v1 1 1\n1 \r2\n")
# blank lines between entries are skipped
@example(b"CMAT v1 4 1\n" + b"0.5 0.25\n" * 3 + b"\n0.5 0.25\n")
@example(b"CMAT v1 5 1\n" + b"0.5 0.2\n" * 4 + b"\n0.12345678901234 0.123456789012\n")
@example(b"CMAT v1 1 1\n0.12345678901234567 0.12345678901234567\n")
# '#' starts no comment in a CMAT body
@example(b"CMAT v1 2 1\n0.5 0.25 # note\n0.5 0.25\n")
@example(b"CMAT v1 1 1\n# note\n0.5 0.25\n")
def test_vectorized_pass_agrees_with_the_per_line_loop_property(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.cmat"
    path.write_bytes(data)
    assert _read_outcome(path) == _loop_outcome(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["trace-estimate", "--cmat", str(path), "--shots", "100"])
    assert code in (0, 3)
    assert len(err.getvalue().splitlines()) <= int(code == 3)
    assert [str(w.message) for w in caught] == []


def _circuit_bytes(circuit):
    """The bytes write_circuit writes for ``circuit``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.circ"
        write_circuit(path, circuit)
        return path.read_bytes()


def _gates_on(n, m, count, seed):
    """``count`` random gates on qubits 0..m-1 of an n-qubit register."""
    return Circuit(n, random_two_qubit_circuit(m, count, SeedSpec(seed)).gates)


def _edit_tokens(data, row, edits):
    """Set tokens of line ``row`` by {index: bytes}; a line too short is left alone."""
    lines = data.split(b"\n")
    tokens = lines[row].split(b" ")
    if len(tokens) > max(edits):
        for index, token in edits.items():
            tokens[index] = token
        lines[row] = b" ".join(tokens)
    return b"\n".join(lines)


def _off_unitary(data, row):
    """Move the real part of line ``row``'s entry (0, 0) by 1e-7, if it is still a number."""
    try:
        value = float(data.split(b"\n")[row].split(b" ")[2])
    except (IndexError, ValueError):
        return data
    return _edit_tokens(data, row, {2: format_float(value + 1e-7).encode()})


@st.composite
def mutated_circuit_files(draw):
    """A write_circuit file of gates on m of n <= 6 qubits with 0-3 edits, and n."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, n))  # qubits m..n-1 are left untouched
    data = _circuit_bytes(_gates_on(n, m, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["flip", "non-ascii", "drop", "duplicate", "targets", "token", "off-unitary"]
        ))
        at = draw(st.integers(0, len(data) - 1))
        lines = data.split(b"\n")
        # clamped: flips can leave a file of one line, with no line 1
        row = min(draw(st.integers(1, max(len(lines) - 2, 1))), len(lines) - 1)
        if kind == "flip":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
        elif kind == "non-ascii":
            data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
        elif kind in ("drop", "duplicate"):
            lines[row : row + 1] = [lines[row]] * (2 if kind == "duplicate" else 0)
            data = b"\n".join(lines)
        elif kind == "targets":  # equal, or out of range
            q = draw(st.integers(-1, n + 1))
            other = draw(st.sampled_from([q, n, 99]))
            data = _edit_tokens(data, row, {0: str(q).encode(), 1: str(other).encode()})
        elif kind == "token":
            token = draw(st.sampled_from([b"inf", b"-inf", b"nan", b"NaN", b"1e999"]))
            data = _edit_tokens(data, row, {draw(st.integers(2, 33)): token})
        else:
            data = _off_unitary(data, row)
    return data, n


@settings(derandomize=True, deadline=None, max_examples=120)
@given(mutated_circuit_files())
# untouched qubits 2-4, a gate 1e-7 off unitary, equal targets, a nan entry
@example((_circuit_bytes(_gates_on(5, 2, 3, 1)), 5))
@example((_off_unitary(_circuit_bytes(_gates_on(3, 3, 2, 2)), 1), 3))
@example((_edit_tokens(_circuit_bytes(_gates_on(3, 3, 2, 3)), 1, {0: b"1", 1: b"1"}), 3))
@example((_edit_tokens(_circuit_bytes(_gates_on(4, 3, 2, 4)), 2, {5: b"nan"}), 4))
def test_mutated_circuit_file_ends_in_a_documented_exit_property(tmp_path_factory, case):
    data, n = case
    path = tmp_path_factory.getbasetemp() / "mutated.circ"
    path.write_bytes(data)
    argv = ["trace-estimate", "--circuit", str(path), "--circuit-qubits", str(n), "--shots", "100"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 3)
    assert len(err.getvalue().splitlines()) <= int(code == 3)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        # The accepted circuit's trace, light cone and all, against the dense gate product.
        dense = oracles.circuit_matrix(read_circuit(path, n))
        row = json.loads(out.getvalue())["rows"][0]
        exact = complex(row["exact_re"], row["exact_im"])
        assert abs(exact - np.trace(dense) / 2**n) < 1e-12


def test_read_unitary_cmat_validations(tmp_path):
    path = tmp_path / "u.cmat"
    write_cmat(path, np.zeros((2, 3), dtype=complex))
    with pytest.raises(FileFormatError):
        read_unitary_cmat(path)  # not square
    write_cmat(path, np.eye(3, dtype=complex))
    with pytest.raises(FileFormatError):
        read_unitary_cmat(path)  # 3 is not a power of two
    write_cmat(path, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(FileFormatError):
        read_unitary_cmat(path)  # not unitary
    u = haar_unitary(2, SeedSpec(91))
    write_cmat(path, u.matrix)
    loaded = read_unitary_cmat(path)
    assert loaded.num_qubits == 2
    assert np.array_equal(loaded.matrix, u.matrix)


def test_circuit_round_trip(tmp_path):
    circuit = random_two_qubit_circuit(5, 9, SeedSpec(92))
    path = tmp_path / "c.circ"
    write_circuit(path, circuit)
    back = read_circuit(path, 5)
    assert back.num_qubits == 5
    assert len(back) == 9
    for got, want in zip(back.gates, circuit.gates):
        assert got.targets == want.targets
        assert np.array_equal(got.matrix, want.matrix)


def test_circuit_file_tolerates_comments(tmp_path):
    circuit = random_two_qubit_circuit(3, 2, SeedSpec(93))
    path = tmp_path / "c.circ"
    write_circuit(path, circuit)
    text = path.read_text()
    path.write_text("# hand-edited\n\n" + text + "# trailing note\n")
    back = read_circuit(path, 3)
    assert len(back) == 2


def test_circuit_file_errors(tmp_path):
    path = tmp_path / "c.circ"
    path.write_text("0 1 " + " ".join(["0"] * 31) + "\n")
    with pytest.raises(FileFormatError):
        read_circuit(path, 2)  # 33 tokens, need 34
    swap_row = "0 1 " + " ".join(
        format_float(v) for pair in np.eye(4)[[0, 2, 1, 3]].flatten() for v in (pair, 0.0)
    )
    path.write_text(swap_row + "\n")
    assert len(read_circuit(path, 2)) == 1
    path.write_text("0 0 " + " ".join(["1 0"] * 16) + "\n")
    with pytest.raises(FileFormatError):
        read_circuit(path, 2)  # duplicate target
    path.write_text("0 5 " + " ".join(["1 0"] * 16) + "\n")
    with pytest.raises(FileFormatError):
        read_circuit(path, 2)  # target out of range
    non_unitary = "0 1 " + " ".join(["1 0"] * 16)
    path.write_text("# header\n" + non_unitary + "\n")
    with pytest.raises(FileFormatError, match=f"{path}:2: gate is not unitary within 1e-08"):
        read_circuit(path, 2)
    path.write_text("0 x " + " ".join(["1 0"] * 16) + "\n")
    with pytest.raises(FileFormatError):
        read_circuit(path, 2)


def test_circuit_file_names_the_first_of_several_non_unitary_lines(tmp_path):
    # Gates 3 and 5 fail (lines 5 and 7, after a header and a blank line),
    # and line 8 is short: the file is refused at line 5, as a check of each
    # gate on its own line would.
    circuit = random_two_qubit_circuit(4, 5, SeedSpec(31))
    path = tmp_path / "c.circ"
    write_circuit(path, circuit)
    lines = path.read_text().splitlines()
    lines.insert(1, "")
    for k, eps in ((4, 1e-7), (6, 1.0)):
        parts = lines[k].split()
        parts[2] = format_float(float(parts[2]) + eps)
        lines[k] = " ".join(parts)
    path.write_text("\n".join(lines + ["0 1 x"]) + "\n")
    with pytest.raises(FileFormatError, match=f"^{path}:5: gate is not unitary within 1e-08$"):
        read_circuit(path, 4)
    # Without the earlier gates' faults, the later error is the one named.
    path.write_text("\n".join(lines[:4] + ["0 1 x"]) + "\n")
    with pytest.raises(FileFormatError, match=f"^{path}:5: need 2 targets"):
        read_circuit(path, 4)


@pytest.mark.parametrize("kind", ["cmat", "circuit"])
def test_undecodable_byte_is_a_format_error_naming_the_file(tmp_path, capsys, kind):
    # One non-ASCII byte, in a CMAT entry or in a circuit-file comment.
    if kind == "cmat":
        path = tmp_path / "u.cmat"
        write_cmat(path, haar_unitary(3, SeedSpec(5)).matrix)
        lines = path.read_bytes().split(b"\n")
        lines[40] += b"\xc3\xa9"
        argv = ["trace-estimate", "--cmat", str(path)]
        read = lambda: read_cmat(path)
    else:
        path = tmp_path / "c.circ"
        write_circuit(path, random_two_qubit_circuit(3, 4, SeedSpec(5)))
        lines = [b"# caf\xc3\xa9"] + path.read_bytes().split(b"\n")
        argv = ["trace-estimate", "--circuit", str(path), "--circuit-qubits", "3"]
        read = lambda: read_circuit(path, 3)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FileFormatError) as info:
        read()
    assert str(info.value) == f"{path}: not ASCII text (byte 0xc3)"
    assert cli_main(argv) == 3
    assert capsys.readouterr().err == f"input error: {path}: not ASCII text (byte 0xc3)\n"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind", ["cmat", "circuit"])
def test_non_finite_entry_is_refused_without_a_warning(tmp_path, capsys, kind, value):
    if kind == "cmat":
        path = tmp_path / "u.cmat"
        write_cmat(path, haar_unitary(3, SeedSpec(5)).matrix)
        lines = path.read_text().split("\n")
        lines[40] = f"0.5 {value}"
        argv = ["trace-estimate", "--cmat", str(path)]
        message = f"{path}: non-finite number on line 41"
    else:
        path = tmp_path / "c.circ"
        write_circuit(path, random_two_qubit_circuit(3, 4, SeedSpec(5)))
        lines = path.read_text().split("\n")
        parts = lines[2].split()
        parts[7] = value
        lines[2] = " ".join(parts)
        argv = ["trace-estimate", "--circuit", str(path), "--circuit-qubits", "3"]
        message = f"{path}:3: non-finite number"
    path.write_text("\n".join(lines))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_format_float_round_trips():
    values = [0.1, 1 / 3, 2**-52, 1e300, -0.0, 123456789.123456789]
    for v in values:
        assert float(format_float(v)) == v


def test_render_csv_layout():
    meta = {"seed": 7, "tau": 0.5, "exhaustive": True}
    rows = [
        {"n": 4, "rank": 16, "cut": [0, 2, 3]},
        {"n": 6, "rank": 8, "cut": [1]},
    ]
    text = render_csv(meta, ["n", "rank", "cut"], rows)
    lines = text.split("\n")
    assert lines[0] == "# exhaustive = true"
    assert lines[1] == "# seed = 7"
    assert lines[2] == "# tau = 0.5"
    assert lines[3] == "n,rank,cut"
    assert lines[4] == "4,16,0;2;3"
    assert lines[5] == "6,8,1"
    assert text.endswith("\n")


def test_render_csv_float_formatting():
    text = render_csv({}, ["x"], [{"x": 1 / 3}])
    assert "0.33333333333333331" in text


def test_render_json_layout():
    payload = {"b": np.float64(0.5), "a": [np.int64(3)], "flag": np.bool_(True)}
    text = render_json(payload)
    assert text == '{\n  "a": [\n    3\n  ],\n  "b": 0.5,\n  "flag": true\n}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_render_json_refuses_a_non_finite_value(value):
    # nan and Infinity are not JSON (RFC 8259): a strict reader refuses them.
    with pytest.raises(ValueError):
        render_json({"rows": [{"estimate_re": value}]})


def test_write_circuit_requires_two_qubit_gates(tmp_path):
    gate = GateSpec((0, 1), np.eye(4, dtype=complex))
    circuit = Circuit(2, (gate,))
    path = tmp_path / "ok.circ"
    write_circuit(path, circuit)
    assert read_circuit(path, 2).gates[0].targets == (0, 1)
