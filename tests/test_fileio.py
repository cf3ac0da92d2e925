import tracemalloc
import warnings

import numpy as np
import pytest

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


def test_write_circuit_requires_two_qubit_gates(tmp_path):
    gate = GateSpec((0, 1), np.eye(4, dtype=complex))
    circuit = Circuit(2, (gate,))
    path = tmp_path / "ok.circ"
    write_circuit(path, circuit)
    assert read_circuit(path, 2).gates[0].targets == (0, 1)
