"""Reference math the benchmark uses to check winavc's outputs.

Everything here is written from the definitions, independently of the
library, so a check does not pass merely because the library agrees with
itself.  Information is in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bitflip_capacity(w: float, p: float) -> float:
    """H(p * w) - H(p): list capacity of the weight-capped XOR channel."""
    return binary_entropy(p * (1.0 - w) + w * (1.0 - p)) - binary_entropy(p)


def _log_ratio(px: np.ndarray, q: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.einsum("s,xsy->xy", q, table)  # V(y|x)
    py = px @ v
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(v > 0, np.log2(v / py[None, :]), 0.0)
    return v, ratio


def mutual_information(px: np.ndarray, q: np.ndarray, table: np.ndarray) -> float:
    """I(x; y) under input law px, state law q and channel W(y|x,s)."""
    v, ratio = _log_ratio(px, q, table)
    return float(np.sum(px[:, None] * v * ratio))


def frank_wolfe_gap(px: np.ndarray, q: np.ndarray, table: np.ndarray, vertices: np.ndarray) -> float:
    """max over vertices u of <grad_Q I, q - u>.

    I(px, .) is convex in the state law, so this bounds I(px, q) minus the
    true minimum over the polytope spanned by the vertices.
    """
    _, ratio = _log_ratio(px, q, table)
    grad = np.einsum("x,xsy,xy->s", px, table, ratio)
    return float(np.max(grad @ q - vertices @ grad))


def polytope_vertices(coeffs: np.ndarray, bounds: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vertices of {q in the simplex : coeffs @ q <= bounds}, one per row."""
    dim = coeffs.shape[1]
    rows = np.vstack([coeffs, -np.eye(dim)])
    rhs = np.concatenate([bounds, np.zeros(dim)])
    found: list[np.ndarray] = []
    for active in itertools.combinations(range(rows.shape[0]), dim - 1):
        a = np.vstack([np.ones(dim), rows[list(active)]])
        b = np.concatenate([[1.0], rhs[list(active)]])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(rows @ x <= rhs + tol) and not any(np.allclose(x, y, atol=1e-9) for y in found):
            found.append(x)
    return np.array(found)


def in_polytope(q: np.ndarray, coeffs: np.ndarray, bounds: np.ndarray, tol: float) -> bool:
    return bool(
        np.all(q >= -tol) and abs(q.sum() - 1.0) <= tol and np.all(coeffs @ q <= bounds + tol)
    )


def symmetrization_residual(u: np.ndarray, table: np.ndarray) -> float:
    """max |sum_s U(s|x') W(y|x,s) - sum_s U(s|x) W(y|x',s)| over x, x', y."""
    worst = 0.0
    for x, xp in itertools.combinations(range(table.shape[0]), 2):
        worst = max(worst, float(np.max(np.abs(u[xp] @ table[x] - u[x] @ table[xp]))))
    return worst


def wilson_upper(errors: int, trials: int, z: float = 1.96) -> float:
    """Upper end of the Wilson score interval for errors / trials."""
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return min(1.0, (center + half) / denom)
