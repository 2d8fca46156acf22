"""Dense two-phase simplex for the small LPs used throughout the package.

Problems are stated as

    minimize    c . x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                x >= 0

which covers every use here (probability vectors and conditional maps are
naturally non-negative).  Bland's pivoting rule is used in both phases, so
the solver cannot cycle; problem sizes are tiny (tens of variables), making
the O(rows * cols) dense tableau perfectly adequate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9  # pivot, ratio-test and phase-1 feasibility tolerance
_MAX_ITER = 10_000  # pivots per simplex phase
_SMALL_ROW = 1e-3  # constraint rows with a smaller largest |coefficient| are rescaled
# Re-substitution tolerance of a returned point, relative to each row's
# scale: ratio-test ties within _TOL can leave a basic variable a few _TOL
# below zero.
_CHECK_TOL = 1e3 * _TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Pivoting did not terminate within the iteration budget, or ended at an infeasible point."""


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LpResult:
    """Solve min c.x subject to a_ub x <= b_ub, a_eq x == b_eq, x >= 0."""
    c = np.asarray(c, dtype=float)
    n = c.size

    rows = []
    rhs = []
    slack_rows = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        if a_ub.shape != (b_ub.size, n):
            raise ValueError(f"a_ub shape {a_ub.shape} incompatible with c size {n}")
        for i in range(b_ub.size):
            rows.append(a_ub[i])
            rhs.append(b_ub[i])
            slack_rows.append(len(rows) - 1)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if a_eq.shape != (b_eq.size, n):
            raise ValueError(f"a_eq shape {a_eq.shape} incompatible with c size {n}")
        for i in range(b_eq.size):
            rows.append(a_eq[i])
            rhs.append(b_eq[i])

    m = len(rows)
    if m == 0:
        # Unconstrained over the non-negative orthant.
        if np.any(c < -_TOL):
            return LpResult(UNBOUNDED, None, None)
        return LpResult(OPTIMAL, np.zeros(n), 0.0)

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    # Pivots on a row far below unit scale turn roundoff into infeasible
    # "optimal" points; such rows are scaled to unit max, the rest divided by 1.
    row_max = np.abs(a).max(axis=1)
    shrink = np.where((row_max > 0) & (row_max < _SMALL_ROW), row_max, 1.0)
    a, b = a / shrink[:, None], b / shrink

    n_slack = len(slack_rows)
    full = np.zeros((m, n + n_slack))
    full[:, :n] = a
    for j, r in enumerate(slack_rows):
        full[r, n + j] = 1.0

    # Normalize to b >= 0 before introducing artificials.
    neg = b < 0
    full[neg] *= -1.0

    tableau = np.zeros((m, n + n_slack + m + 1))
    tableau[:, : n + n_slack] = full
    tableau[:, -1] = np.abs(b)
    basis = np.empty(m, dtype=int)
    for i in range(m):
        tableau[i, n + n_slack + i] = 1.0
        basis[i] = n + n_slack + i

    # Phase 1: minimize the sum of artificial variables.
    art_cost = np.zeros(n + n_slack + m)
    art_cost[n + n_slack :] = 1.0
    status = _run_simplex(tableau, basis, art_cost)
    if status == UNBOUNDED:  # phase 1 is bounded below: only roundoff in a pivot gets here
        raise SimplexError("phase-1 objective reported unbounded")
    phase1_value = float(art_cost[basis] @ tableau[:, -1])
    if phase1_value > max(_TOL, _TOL * max(1.0, np.abs(b).max())):
        return LpResult(INFEASIBLE, None, None)

    # Drive any artificial variables remaining in the basis out of it.
    n_real = n + n_slack
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = -1
            for j in range(n_real):
                if abs(tableau[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
            # Otherwise the row is redundant; the artificial stays at zero.

    # Phase 2 on the real variables only (artificial columns neutralized).
    tableau[:, n_real:-1] = 0.0
    cost = np.zeros(n + n_slack + m)
    cost[:n] = c
    status = _run_simplex(tableau, basis, cost, ncols=n_real)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = np.zeros(n + n_slack + m)
    x[basis] = tableau[:, -1]
    x = x[:n]
    _check_point(x, a, b, n_slack)
    return LpResult(OPTIMAL, x, float(c @ x))


def _check_point(x, a, b, n_ub) -> None:
    """Raise SimplexError unless x >= 0, a[:n_ub] x <= b[:n_ub] and a[n_ub:] x == b[n_ub:].

    Degenerate pivots on a tiny entry can leave roundoff that the final
    tableau no longer shows; the check re-substitutes x into the scaled rows.
    """
    excess = a @ x - b
    np.abs(excess[n_ub:], out=excess[n_ub:])
    scale = 1.0 + np.abs(a) @ np.abs(x) + np.abs(b)
    if np.any(excess > _CHECK_TOL * scale) or x.min() < -_CHECK_TOL * (1.0 + x.max()):
        raise SimplexError(
            f"simplex returned an infeasible point (row excess {excess.max():.3g}, "
            f"least entry {x.min():.3g})"
        )


def _run_simplex(tableau, basis, cost, ncols=None) -> str:
    m = tableau.shape[0]
    if ncols is None:
        ncols = tableau.shape[1] - 1
    for _ in range(_MAX_ITER):
        cb = cost[basis]
        # Reduced costs: c_j - cb . B^-1 A_j (tableau already holds B^-1 A).
        reduced = cost[:ncols] - cb @ tableau[:, :ncols]
        entering = -1
        for j in range(ncols):  # Bland: smallest eligible index
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = tableau[:, entering]
        leaving = -1
        best = np.inf
        for i in range(m):
            if col[i] > _TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio < best - _TOL or (
                    abs(ratio - best) <= _TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
    raise SimplexError(f"simplex did not terminate within {_MAX_ITER} pivots")


def _pivot(tableau, basis, row, col) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col
