"""A fixed piece of work that tells how fast the machine is at the moment.

On a shared machine the same code runs at speeds that drift by tens of
per cent over tens of seconds as other tenants come and go, in wall and
CPU time alike. The worker times this work right before every CLI call
and divides the run's timings by its mean time, then multiplies them by
``REFERENCE_S``, so that the figures read as seconds on the reference
machine when it is quiet.

The work mixes numpy column sorts and scans, as in the learners' split
search, with per-row Python loops, as in the fusion and rule layers, so it
slows down when the program does. It uses none of the program's code, so
no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Time of ``run`` on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6) when it is quiet.
REFERENCE_S = 0.034

_RNG = np.random.default_rng(0)
_X = _RNG.random((4000, 8))
_Y = _RNG.integers(0, 5, 4000).astype(float)
_ROWS = [[float(v) for v in row] for row in _X]
_N = np.arange(1, _X.shape[0] + 1)


def run() -> float:
    """Seconds the fixed work took."""
    start = time.perf_counter()
    for j in range(48):
        order = np.argsort(_X[:, j % 8], kind="stable")
        total, squares = np.cumsum(_Y[order]), np.cumsum(_Y[order] ** 2)
        (squares / _N - (total / _N) ** 2).min()
    counts: dict[int, int] = {}
    mean = 0.0
    for _ in range(6):
        for row in _ROWS:
            best = row.index(max(row))
            counts[best] = counts.get(best, 0) + 1
            mean += sum(row) / len(row)
    return time.perf_counter() - start
