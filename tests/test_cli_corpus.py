"""The CLI's output bytes against the golden corpus, ``cli_corpus.expected``."""

from pathlib import Path

import pytest

import cli_corpus

RULE = (
    "A deliberate output change regenerates the golden file in the same change, with "
    f"`{cli_corpus.WRITE_COMMAND}`, and CHANGES.md lists the lines that moved."
)


def test_cli_output_matches_the_golden_corpus(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    golden_env, golden = cli_corpus.read_golden()
    lines = list(cli_corpus.corpus(tmp_path / "corpus"))
    problems = cli_corpus.compare(golden_env, golden, cli_corpus.environment(), lines)
    assert not problems, "\n".join(problems + [RULE])


def _moved(line: str, field: int, value: str) -> str:
    parts = line.split(" ", 3)
    parts[field] = value
    return " ".join(parts)


@pytest.mark.parametrize("field, value, message", [
    (0, "0" * 64, "the output bytes differ"),
    (1, "0" * 64, "the float-free report differs"),
    (2, "7", "exit code 7, golden 0"),
    (3, "tree-edge", "the command is now 'tree-edge'"),
])
def test_golden_comparison_names_each_moved_line(field, value, message):
    env, golden = cli_corpus.read_golden()
    lines = list(golden)
    lines[3] = _moved(lines[3], field, value)
    assert cli_corpus.compare(env, golden, env, lines) == [
        f"line 4 ({golden[3].split(' ', 3)[3]}): {message}"
    ]


def test_golden_comparison_fails_in_another_environment_and_names_the_fields():
    env, golden = cli_corpus.read_golden()
    assert set(env) == set(cli_corpus.ENV_FIELDS)
    other = dict(env, numpy="0.0", machine="elsewhere")
    lines = [_moved(line, 0, "0" * 64) for line in golden]
    problems = cli_corpus.compare(env, golden, other, lines)
    assert len(problems) == 1
    assert "numpy: '0.0' here" in problems[0] and "machine: 'elsewhere' here" in problems[0]
    assert "python" not in problems[0] and "blas" not in problems[0]
    # Exit codes and float-free hashes are still checked line by line.
    lines[0] = _moved(lines[0], 2, "9")
    assert len(cli_corpus.compare(env, golden, other, lines)) == 2

