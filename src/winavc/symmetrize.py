"""Symmetrizability feasibility checks and the window-ratio set transform.

A conditional map U(s|x) symmetrizes the channel for input law P_x when

    sum_s U(s|x') W(y|x, s) == sum_s U(s|x) W(y|x', s)   for all x, x', y

and the induced state marginal sum_x P_x(x) U(s|x) is an admissible state
distribution.  Existence is a pure LP feasibility question in the |S|*|X|
variables U(s|x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .core import Channel, ConstraintSet, Distribution


@dataclass(frozen=True)
class SymmetrizabilityResult:
    feasible: bool
    witness: tuple[Distribution, ...] | None
    marginal: Distribution | None
    residual: float

    def witness_matrix(self) -> np.ndarray:
        """Rows U(.|x), shape (|X|, |S|)."""
        if self.witness is None:
            raise ValueError("no witness: the instance is not symmetrizable")
        return np.vstack([u.probs for u in self.witness])


def ecn_symmetrizable(
    p_x: Distribution,
    channel: Channel,
    lam: ConstraintSet,
) -> SymmetrizabilityResult:
    """Decide whether p_x is symmetrizable for (channel, lam).

    Feasibility of the linear system in U(s|x) is decided by phase-1
    simplex; on success the witness is re-substituted and the maximum
    equality violation is reported as `residual`.
    """
    nx, ns = channel.num_inputs, channel.num_states
    if p_x.size != nx:
        raise ValueError("input distribution does not match channel")
    if lam.dim != ns:
        raise ValueError("state constraint set does not match channel")

    w = channel.table  # (x, s, y)
    nvar = nx * ns  # u[x, s] flattened row-major

    eq_rows, eq_rhs = [], []
    for x, xp in itertools.combinations(range(nx), 2):
        for y in range(channel.num_outputs):
            row = np.zeros(nvar)
            # sum_s u[xp, s] W(y|x, s) - sum_s u[x, s] W(y|xp, s) = 0
            row[xp * ns : (xp + 1) * ns] += w[x, :, y]
            row[x * ns : (x + 1) * ns] -= w[xp, :, y]
            eq_rows.append(row)
            eq_rhs.append(0.0)
    for x in range(nx):
        row = np.zeros(nvar)
        row[x * ns : (x + 1) * ns] = 1.0
        eq_rows.append(row)
        eq_rhs.append(1.0)

    ub_rows, ub_rhs = [], []
    for c, b in lam.inequalities:
        row = np.zeros(nvar)
        for x in range(nx):
            row[x * ns : (x + 1) * ns] = p_x[x] * c
        ub_rows.append(row)
        ub_rhs.append(b)

    res = lp.solve_lp(
        np.zeros(nvar),
        a_ub=np.vstack(ub_rows) if ub_rows else None,
        b_ub=np.asarray(ub_rhs) if ub_rows else None,
        a_eq=np.vstack(eq_rows),
        b_eq=np.asarray(eq_rhs),
    )
    if not res.is_optimal:
        return SymmetrizabilityResult(False, None, None, float("inf"))

    u = res.x.reshape(nx, ns)
    witness = tuple(Distribution(np.clip(row, 0, None), atol=1e-6) for row in u)
    marginal = Distribution(np.clip(p_x.probs @ u, 0, None), atol=1e-6)
    residual = symmetrization_residual(witness, channel)
    return SymmetrizabilityResult(True, witness, marginal, residual)


def symmetrization_residual(witness, channel: Channel) -> float:
    """Max violation of the symmetrization equalities for a candidate map."""
    u = np.vstack([d.probs for d in witness])
    w = channel.table
    worst = 0.0
    for x, xp in itertools.combinations(range(channel.num_inputs), 2):
        lhs = u[xp] @ w[x]  # (|Y|,)
        rhs = u[x] @ w[xp]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def bitflip_symmetrizable(w: float, p: float) -> bool:
    """Closed-form oracle for the weight-constrained XOR channel.

    The dominant input type Bern(w) is symmetrizable exactly when w <= p
    (boundary included); both weights must be below 1/2.
    """
    if not (0.0 <= w < 0.5 and 0.0 <= p < 0.5):
        raise ValueError(f"weights must lie in [0, 0.5), got w={w}, p={p}")
    return w <= p


def gamma_prime(gamma: ConstraintSet, alpha: float) -> ConstraintSet:
    """Enlarge an input constraint set by the window ratio alpha.

    Returns {T1 : exists T2 in the simplex with alpha*T1 + (1-alpha)*T2
    in gamma}, eliminating T2 one inequality at a time: the best T2 for
    <c, .> <= b contributes (1-alpha) * min_k c_k, so the bound on T1
    becomes (b - (1-alpha) min_k c_k) / alpha.  Exact whenever a single T2
    attains all per-inequality minima (in particular for one-inequality
    sets); otherwise an outer relaxation.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return gamma
    ineqs = []
    for c, b in gamma.inequalities:
        new_bound = (b - (1.0 - alpha) * float(np.min(c))) / alpha
        ineqs.append((c, new_bound))
    return ConstraintSet(gamma.dim, ineqs)


def scan_nonsymmetrizable(
    gamma: ConstraintSet,
    channel: Channel,
    lam: ConstraintSet,
    grid_resolution: int = 21,
) -> list[Distribution]:
    """Grid-scan gamma (lattice plus vertices) for non-symmetrizable inputs.

    An empty result is evidence, not proof, that every admissible input is
    symmetrizable.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    found = []
    for p in gamma.grid_points(grid_resolution):
        if not ecn_symmetrizable(p, channel, lam).feasible:
            found.append(p)
    return found
