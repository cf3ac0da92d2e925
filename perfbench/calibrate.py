"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the speed of one core drifts by 20-60% over seconds to
minutes (a neighbour on the sibling hyperthread, frequency changes),
while the process keeps the core the whole time.  Raw session times
then move with the host, not with the program.  The benchmark times
this loop next to every session and reports session times in units of
it ("cal"), which cancels most of that drift.

The loop runs only numpy and the interpreter, never dqc1kit, on inputs
fixed here, so no change to the program can move it.  Its mix follows
the program's: interpreter work, parsing floats from text, small
complex SVDs and matrix products, and two-qubit gates applied to a
13-qubit state by tensordot.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20061115)
_SVD_INPUT = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_MATMUL_INPUT = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_GATE = (_rng.standard_normal((2, 2, 2, 2)) + 1j * _rng.standard_normal((2, 2, 2, 2)))
_STATE = (_rng.standard_normal(2**13) + 0j).reshape((2,) * 13)
_TEXT = " ".join(repr(float(x)) for x in _rng.standard_normal(4000))


def calibration_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    began = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    for _ in range(6):
        np.linalg.svd(_SVD_INPUT)
    for _ in range(6):
        _MATMUL_INPUT @ _MATMUL_INPUT
    state = _STATE
    for q in range(12):
        state = np.moveaxis(np.tensordot(_GATE, state, axes=([2, 3], [q, q + 1])), [0, 1], [q, q + 1])
    [float(x) for x in _TEXT.split()]
    return time.perf_counter() - began
