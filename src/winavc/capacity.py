"""Max-min mutual information solvers and capacity predicates.

The saddle problem max_{P in gamma} min_{Q in lam} I(x;y) is concave in P
(for each Q) and convex in Q (for each P).  The inner minimization is
Frank-Wolfe with the polytope's vertex set as LP oracle, for every state
alphabet; the outer maximization is a lattice sweep over gamma followed by
golden-section refinement along segments toward the polytope vertices
(valid because the inner value is concave in P).  `list_capacity` and
`oblivious_capacity` share that outer loop (`_max_min`), which brackets the
true max-min by the saddle interval [lower, upper] at its returned pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_FLOOR,
    Channel,
    ConstraintSet,
    Distribution,
    WindowedAvcSpec,
    binary_convolution,
    binary_entropy,
    _mi_from_induced,
)
from .symmetrize import ecn_symmetrizable, gamma_prime, scan_nonsymmetrizable

VERDICT_THM1 = "equals_Clist_thm1"
VERDICT_THM2 = "equals_Clist_thm2"
VERDICT_UNKNOWN = "unknown"

_INNER_MAX_ITER = 400  # Frank-Wolfe steps per inner solve
_REFINE_PASSES = 3  # outer refinement sweeps over gamma's vertices
_REGIME_CONSTANT = 4.0  # c in the advisory window regime (c ln n, n/c)


@dataclass(frozen=True)
class CapacityResult:
    """`value` is the worst-case rate of `argmax_px`; lower <= max-min <= upper."""

    value: float
    argmax_px: Distribution | None
    argmin_qs: Distribution | None
    solver_iterations: int
    lower: float
    upper: float
    all_symmetrizable_evidence: bool = False


@dataclass(frozen=True)
class WindowedCapacityVerdict:
    status: str
    capacity: CapacityResult  # list_capacity of the spec's (gamma, lam, channel)
    hypothesis_evidence: str
    regime_warnings: tuple[str, ...] = ()


def bitflip_list_capacity(w: float, p: float) -> float:
    """H(p * w) - H(p) for the weight-constrained XOR channel."""
    if not (0.0 <= w < 0.5 and 0.0 <= p < 0.5):
        raise ValueError(f"weights must lie in [0, 0.5), got w={w}, p={p}")
    return binary_entropy(binary_convolution(p, w)) - binary_entropy(p)


def _golden_max(f, lo: float, hi: float, *, tol: float = 1e-9, max_iter: int = 200):
    """Maximize a unimodal function on [lo, hi]; returns (x, f(x), evals)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    evals = 2
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        evals += 1
    ends = [(a, f(a)), (b, f(b)), (x1, f1), (x2, f2)]
    evals += 2
    x, fx = max(ends, key=lambda t: t[1])
    return x, fx, evals


def _log_ratio(px: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log2 V(y|x) / (PV)(y), shape (|X|, |Y|), 0 where V(y|x) = 0."""
    py = px @ v
    log_ratio = np.log2(np.maximum(v, LOG_FLOOR) / np.maximum(py, LOG_FLOOR)[None, :])
    log_ratio[v <= 0] = 0.0
    return log_ratio


def _mi_grad_q(px: np.ndarray, q: np.ndarray, channel: Channel) -> np.ndarray:
    """d I / d Q(s) at fixed input law (up to an additive constant)."""
    w = channel.table
    log_ratio = _log_ratio(px, np.einsum("s,xsy->xy", q, w))
    return np.einsum("x,xsy,xy->s", px, w, log_ratio)


def _saddle_interval(px, q, gamma, lam, channel: Channel) -> tuple[float, float]:
    """[lower, upper] around max_{P in gamma} min_{Q in lam} I from one pair (px, q).

    I is convex in Q, so its tangent at q, minimised over lam's vertices,
    bounds min_Q I(px, Q) and hence the max-min from below.  I is concave in
    P with gradient D(V(.|x) || px V) up to a constant, so its tangent at px,
    maximised over gamma's vertices, bounds max_P I(P, q) and hence the
    max-min from above.
    """
    v = np.einsum("s,xsy->xy", q, channel.table)
    mi = _mi_from_induced(px, v)
    grad_q = _mi_grad_q(px, q, channel)
    grad_p = np.sum(v * _log_ratio(px, v), axis=1)
    lower = mi - max(float(grad_q @ (q - b.probs)) for b in lam.vertices())
    upper = mi + max(float(grad_p @ (a.probs - px)) for a in gamma.vertices())
    return lower, upper


def worst_case_mi(
    p_x: Distribution,
    lam: ConstraintSet,
    channel: Channel,
    *,
    tol: float = 1e-7,
) -> tuple[float, Distribution, int]:
    """min_{Q in lam} I(p_x; y) by Frank-Wolfe.  Returns (value, argmin, evals).

    I is convex in Q.  Each step moves from the current law toward the vertex
    of lam that minimizes the linearized objective, with an exact golden line
    search along that segment; it stops once the Frank-Wolfe gap is <= tol or
    after _INNER_MAX_ITER steps.  On a binary state alphabet lam is a segment,
    so the first line search already reaches the minimum.
    """
    px = p_x.probs

    def value_at(q: np.ndarray) -> float:
        return _mi_from_induced(px, np.einsum("s,xsy->xy", q, channel.table))

    verts = [v.probs for v in lam.vertices()]
    q = lam.feasible_point().probs.copy()
    best_val = value_at(q)
    evals = 1
    for _ in range(_INNER_MAX_ITER):
        grad = _mi_grad_q(px, q, channel)
        v = min(verts, key=lambda u: float(grad @ u))
        gap = float(grad @ (q - v))
        if gap <= tol:
            break
        t, neg_val, e = _golden_max(
            lambda t: -value_at(q + t * (v - q)), 0.0, 1.0, tol=1e-10
        )
        evals += e
        q = q + t * (v - q)
        best_val = -neg_val
    return best_val, Distribution(np.clip(q, 0, None), atol=1e-6), evals


def _max_min(gamma, lam, channel, grid_resolution, admissible=None) -> CapacityResult | None:
    """max_P min_{Q in lam} I(x;y) over the P in gamma that `admissible` accepts.

    The best lattice point of gamma is refined by golden-section searches
    along segments toward gamma's vertices; the lattice sweep and the
    refinement both skip rejected laws.  Returns None when `admissible`
    rejects every lattice point of gamma.
    """
    candidates = gamma.grid_points(grid_resolution)
    if admissible is not None:
        candidates = [p for p in candidates if admissible(p)]
        if not candidates:
            return None
    evals = len(candidates)

    def g(px_arr: np.ndarray) -> float:
        nonlocal evals
        p = Distribution(np.clip(px_arr, 0, None), atol=1e-6)
        if admissible is not None and not admissible(p):
            return -np.inf
        val, _, e = worst_case_mi(p, lam, channel)
        evals += e
        return val

    best_val, best_p = -np.inf, None
    for p in candidates:
        val = g(p.probs)
        if val > best_val:
            best_val, best_p = val, p
    cur = best_p.probs.copy()
    for _ in range(_REFINE_PASSES):
        improved = False
        for vtx in gamma.vertices():
            direction = vtx.probs - cur
            if np.abs(direction).max() < 1e-12:
                continue
            t, val, e = _golden_max(lambda t: g(cur + t * direction), 0.0, 1.0, tol=1e-9)
            evals += e
            if val > best_val + 1e-12:
                best_val = val
                cur = cur + t * direction
                improved = True
        if not improved:
            break
    p_star = Distribution(np.clip(cur, 0, None), atol=1e-6)
    _, q_star, e = worst_case_mi(p_star, lam, channel)
    lower, upper = _saddle_interval(p_star.probs, q_star.probs, gamma, lam, channel)
    return CapacityResult(
        value=max(best_val, 0.0),
        argmax_px=p_star,
        argmin_qs=q_star,
        solver_iterations=evals + e,
        lower=lower,
        upper=upper,
    )


def list_capacity(
    gamma: ConstraintSet,
    lam: ConstraintSet,
    channel: Channel,
    *,
    grid_resolution: int = 21,
) -> CapacityResult:
    """max_{P in gamma} min_{Q in lam} I(x;y) in bits per use.

    The reported value is the worst-case rate of the returned argmax input
    law; [lower, upper] is the saddle interval at the returned pair, so
    upper - lower bounds the value's error.
    """
    return _max_min(gamma, lam, channel, grid_resolution)


def oblivious_capacity(
    gamma: ConstraintSet,
    lam: ConstraintSet,
    channel: Channel,
    *,
    grid_resolution: int = 21,
) -> CapacityResult:
    """Same max-min restricted to non-symmetrizable admissible input laws.

    The restriction is evaluated on the scan grid (plus vertices) with local
    refinement around the best point; exactness beyond the grid resolution
    is not claimed.  [lower, upper] is the same saddle interval as
    list_capacity's, taken at the restricted pair: upper bounds the
    unrestricted max-min.  When every scanned point is symmetrizable the
    value and lower are 0, upper is NaN and `all_symmetrizable_evidence` is
    set.
    """
    res = _max_min(
        gamma, lam, channel, grid_resolution,
        admissible=lambda p: not ecn_symmetrizable(p, channel, lam).feasible,
    )
    if res is None:
        return CapacityResult(
            value=0.0,
            argmax_px=None,
            argmin_qs=None,
            solver_iterations=0,
            lower=0.0,
            upper=float("nan"),
            all_symmetrizable_evidence=True,
        )
    return res


def windowed_capacity_verdict(spec: WindowedAvcSpec) -> WindowedCapacityVerdict:
    """Decide which equality hypothesis certifies the windowed capacity.

    Looks for a non-symmetrizable admissible input law directly, then (when
    w_s <= w_x) on the ratio-enlarged input set.  `unknown` is a legal
    verdict.  For a state set with one inequality the search is exact; with
    several it is grid evidence (see scan_nonsymmetrizable), and the text says
    so.  Window lengths outside (c ln n, n/c), c = 4, get advisory regime
    warnings since the equalities are asymptotic statements about mid-scale
    windows.
    """
    cap = list_capacity(spec.gamma, spec.lam, spec.channel)

    warnings = []
    low = _REGIME_CONSTANT * math.log(spec.n)
    high = spec.n / _REGIME_CONSTANT
    for name, w in (("w_x", spec.w_x), ("w_s", spec.w_s)):
        if not low < w < high:
            warnings.append(
                f"{name}={w} outside ({low:.1f}, {high:.1f}) for n={spec.n}"
            )

    def verdict(status: str, evidence: str) -> WindowedCapacityVerdict:
        return WindowedCapacityVerdict(status, cap, evidence, tuple(warnings))

    grid = " (grid evidence)" if spec.lam.num_inequalities > 1 else ""
    direct = scan_nonsymmetrizable(spec.gamma, spec.channel, spec.lam)
    if direct is not None:
        return verdict(VERDICT_THM1, (
            "admissible set holds the non-symmetrizable input law "
            f"{np.round(direct.probs, 6).tolist()}"
        ))

    alpha = spec.alpha
    if alpha > 1.0:
        return verdict(VERDICT_UNKNOWN, (
            f"admissible set all-symmetrizable{grid}; ratio "
            f"alpha={alpha:g} > 1 rules out the enlarged-set route"
        ))
    # at alpha = 1 the enlarged set is gamma itself, scanned above
    widened = None if alpha == 1.0 else scan_nonsymmetrizable(
        gamma_prime(spec.gamma, alpha), spec.channel, spec.lam
    )
    if widened is not None:
        return verdict(VERDICT_THM2, (
            f"admissible set all-symmetrizable{grid}; ratio-enlarged set at "
            f"alpha={alpha:g} holds the non-symmetrizable law "
            f"{np.round(widened.probs, 6).tolist()}"
        ))
    return verdict(VERDICT_UNKNOWN, (
        f"all-symmetrizable on both the admissible set and its ratio-"
        f"enlarged version at alpha={alpha:g}{grid}"
    ))
