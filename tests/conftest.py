"""Shared test plumbing: acceptance verdict lines for the summary, and a
recorder of the dense builds of drawn unitaries."""

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def dense_builds(monkeypatch):
    """Record the dense builds made while a test runs.

    A Haar U is built by the QR of a square matrix, recorded as
    ("qr", shape); a product U by Kronecker products of matrices, recorded
    as ("kron", shape, shape).  Other QRs (the SVD kernel takes some of
    tall matrices and stacks) and Kronecker products of vectors are not
    recorded.
    """
    builds = []
    qr, kron = np.linalg.qr, np.kron

    def recorded_qr(a, *args, **kwargs):
        if np.ndim(a) == 2 and np.shape(a)[0] == np.shape(a)[1]:
            builds.append(("qr", np.shape(a)))
        return qr(a, *args, **kwargs)

    def recorded_kron(a, b):
        if np.ndim(a) > 1 or np.ndim(b) > 1:
            builds.append(("kron", np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np.linalg, "qr", recorded_qr)
    monkeypatch.setattr(np, "kron", recorded_kron)
    return builds
