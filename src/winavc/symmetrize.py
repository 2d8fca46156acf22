"""Symmetrizability feasibility checks and the window-ratio set transform.

A conditional map U(s|x) symmetrizes the channel for input law P_x when

    sum_s U(s|x') W(y|x, s) == sum_s U(s|x) W(y|x', s)   for all x, x', y

and the induced state marginal sum_x P_x(x) U(s|x) is an admissible state
distribution.  Existence is a pure LP feasibility question in the |S|*|X|
variables U(s|x); whether a whole input set holds a non-symmetrizable law is
one LP per Farkas multiplier on the state set's inequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .core import Channel, ConstraintSet, Distribution, _compositions

_MULTIPLIER_STEPS = 20  # lattice steps per edge of the multiplier simplex (lam with k > 1 rows)


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

    a_eq, b_eq = _symmetrization_equalities(channel)
    # u[x, s] flattened row-major; inequality i has coefficient P(x) c_i(s)
    res = lp.solve_lp(
        np.zeros(nx * ns),
        a_ub=np.kron(p_x.probs, lam.coeffs),
        b_ub=lam.bounds,
        a_eq=a_eq,
        b_eq=b_eq,
    )
    if not res.is_optimal:
        return SymmetrizabilityResult(False, None, None, float("inf"))

    u = res.x.reshape(nx, ns)
    witness = tuple(Distribution(np.clip(row, 0, None), atol=1e-6) for row in u)
    marginal = Distribution(np.clip(p_x.probs @ u, 0, None), atol=1e-6)
    residual = symmetrization_residual(witness, channel)
    return SymmetrizabilityResult(True, witness, marginal, residual)


def _symmetrization_equalities(channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows (a_eq, b_eq) on u[x, s], flattened row-major, that make U a
    symmetrizing map: the identities for every x < x' and y, then each U(.|x)
    summing to 1."""
    nx, ns = channel.num_inputs, channel.num_states
    w = channel.table  # (x, s, y)
    eq_rows, eq_rhs = [], []
    for x, xp in itertools.combinations(range(nx), 2):
        for y in range(channel.num_outputs):
            row = np.zeros(nx * ns)
            # sum_s u[xp, s] W(y|x, s) - sum_s u[x, s] W(y|xp, s) = 0
            row[xp * ns : (xp + 1) * ns] += w[x, :, y]
            row[x * ns : (x + 1) * ns] -= w[xp, :, y]
            eq_rows.append(row)
            eq_rhs.append(0.0)
    for x in range(nx):
        row = np.zeros(nx * ns)
        row[x * ns : (x + 1) * ns] = 1.0
        eq_rows.append(row)
        eq_rhs.append(1.0)
    return np.vstack(eq_rows), np.asarray(eq_rhs)


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


def _farkas_multipliers(lam: ConstraintSet) -> np.ndarray:
    """Multipliers mu on lam's rows: 1 for at most one row, else a simplex lattice."""
    k = lam.num_inequalities
    if k <= 1:
        return np.ones((1, k))
    return np.array(list(_compositions(_MULTIPLIER_STEPS, k))) / _MULTIPLIER_STEPS


def _relaxed_witnesses(gamma: ConstraintSet, channel: Channel, lam: ConstraintSet):
    """Yield (c, b, p) per multiplier mu: the row <c, Q> <= b of mu^T lam at unit max |c|,
    and a law of gamma that scan_nonsymmetrizable's LP finds non-symmetrizable under it, or None."""
    nx, ns = channel.num_inputs, channel.num_states
    a_eq, b_eq = _symmetrization_equalities(channel)
    m = b_eq.size
    # variables (P, nu+, nu-) with nu = nu+ - nu-; rows: gamma's inequalities,
    # then a_eq^T nu - P(x) c(s) <= 0 for every (x, s)
    ng = gamma.num_inequalities
    a_ub = np.zeros((ng + nx * ns, nx + 2 * m))
    a_ub[:ng, :nx] = gamma.coeffs
    a_ub[ng:, nx : nx + m] = a_eq.T
    a_ub[ng:, nx + m :] = -a_eq.T
    b_ub = np.concatenate([gamma.bounds, np.zeros(nx * ns)])
    cost = np.concatenate([np.zeros(nx), -b_eq, b_eq])
    simplex_row = np.concatenate([np.ones(nx), np.zeros(2 * m)])
    for mu in _farkas_multipliers(lam):
        # at unit max |c| the 1e-9 margin does not depend on scale
        scale = np.abs(mu @ lam.coeffs).max(initial=0.0) or 1.0
        c, b = mu @ lam.coeffs / scale, float(mu @ lam.bounds) / scale
        a_ub[ng:, :nx] = -np.kron(np.eye(nx), c[:, None])
        res = lp.solve_lp(cost, a_ub, b_ub, simplex_row, [1.0])
        p = None
        if not res.is_optimal:
            p = gamma.feasible_point()
        elif -res.value > b + 1e-9:
            p = Distribution(np.clip(res.x[:nx], 0, None), atol=1e-6)
        yield c, b, None if p is None or ecn_symmetrizable(p, channel, lam).feasible else p


def scan_nonsymmetrizable(
    gamma: ConstraintSet, channel: Channel, lam: ConstraintSet
) -> Distribution | None:
    """A non-symmetrizable input law in gamma, or None when gamma has none.

    Let 𝒰 be the polytope of symmetrizing maps U and C, b the rows and
    bounds of lam.  By Farkas' lemma P is non-symmetrizable exactly when some
    multiplier mu >= 0 on the k-simplex gives
    min_{U in 𝒰} <P ⊗ mu^T C, U> > mu^T b (Csiszar & Narayan 1988).  The LP
    dual of that minimum, max {b_eq^T nu : a_eq^T nu <= P ⊗ mu^T C}, is
    linear jointly in (P, nu), so one LP per mu maximises it over gamma.  A
    law whose optimum exceeds mu^T b is returned once ecn_symmetrizable
    confirms it.  An unbounded LP means 𝒰 is empty, and then gamma's feasible
    point is the witness.  With at most one inequality mu = 1 and None is
    exact; with k > 1 inequalities mu runs over a lattice of the simplex and
    None is grid evidence.
    """
    return next((p for _, _, p in _relaxed_witnesses(gamma, channel, lam) if p is not None), None)
