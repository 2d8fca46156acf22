"""Fixed numpy kernels that measure how fast the machine is right now.

On a shared machine the same work can take twice as long from one second to
the next.  The benchmark runs these kernels every half second between calls
and divides each call's time by the kernels' median pass time nearest to it,
which cancels most of that drift while leaving changes in winavc's own work
in full.

The kernels use numpy only, never winavc, so no change to the library can
change them.  Each mimics one kind of work winavc does:

    scalar  a loop of tiny einsum/log2 evaluations, like the capacity solvers
    pivot   Gauss-Jordan pivots on a small tableau built row by row, like the
            simplex solver behind the symmetrizability checks
    matrix  window counts over a 64 x 704 int8 matrix, like the jammer check,
            expurgation and decoding

Different work slows down by different amounts when the machine is busy, so
each workload is scaled by the kernels closest to its own work: `matrix` for
simulate, all three for sweep, `scalar` and `pivot` for ternary.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_MATRIX = (_rng.random((64, 704)) < 0.05).astype(np.int8)
_CHANNEL = _rng.dirichlet(np.ones(3), size=(3, 3))
_INPUT = np.array([0.5, 0.3, 0.2])


def _scalar() -> float:
    total = 0.0
    for i in range(400):
        q = np.array([0.6, 0.3 - i * 1e-4, 0.1 + i * 1e-4])
        v = np.einsum("s,xsy->xy", q, _CHANNEL)
        py = _INPUT @ v
        total += float(np.sum(_INPUT[:, None] * v * np.log2(v / py[None, :])))
    return total


def _pivot() -> float:
    total = 0.0
    for _ in range(6):
        rows = []
        for i in range(12):
            row = np.zeros(9)
            row[i % 9] += 1.0
            row[(4 * i) % 9] -= 0.5
            rows.append(row)
        tableau = np.vstack(rows)
        for k in range(9):
            col = tableau[:, k]
            pivot = int(np.argmax(np.abs(col)))
            if abs(col[pivot]) > 1e-12:
                tableau[pivot] /= col[pivot]
                for j in range(tableau.shape[0]):
                    if j != pivot:
                        tableau[j] -= tableau[j, k] * tableau[pivot]
        total += float(tableau.sum())
    return total


def _matrix() -> int:
    total = 0
    for i in range(12):
        counts = (_MATRIX == 1).astype(np.int32).cumsum(axis=1)
        windows = counts[:, 64:] - counts[:, :-64]
        total += int(np.count_nonzero(windows > 3)) + int(np.count_nonzero(_MATRIX[i] != _MATRIX[i + 1]))
    return total


KERNELS = {"scalar": _scalar, "pivot": _pivot, "matrix": _matrix}


def kernel_seconds(names) -> float:
    """Time one pass of the named kernels."""
    start = time.perf_counter()
    for name in names:
        KERNELS[name]()
    return time.perf_counter() - start
