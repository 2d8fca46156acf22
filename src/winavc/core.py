"""Finite-alphabet probability primitives.

Distributions, state-dependent channels, and convex
constraint sets on the probability simplex.  Everything is immutable after
construction; sampling takes an explicit numpy Generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp

TOLERANCE = 1e-9

LOG_FLOOR = 1e-300  # guards log2 of structurally zero entries
_SAMPLE_CHUNK = 1 << 16  # symbols per sparse draw of sample_iid


class InfeasibleSetError(ValueError):
    """The half-space intersection has no point on the simplex."""


class Distribution:
    """Probability vector over a finite alphabet.

    Entries must be non-negative and sum to 1 within `atol`; the stored
    vector is normalized exactly on construction.
    """

    __slots__ = ("probs",)

    def __init__(self, probs, *, atol: float = 1e-12):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if np.any(p < -atol):
            raise ValueError(f"negative probability entries: {p}")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > atol:
            raise ValueError(f"probabilities sum to {total}, expected 1 within {atol}")
        p /= total
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def point_mass(cls, symbol: int, size: int) -> "Distribution":
        p = np.zeros(size)
        p[symbol] = 1.0
        return cls(p)

    @classmethod
    def bernoulli(cls, weight: float) -> "Distribution":
        """Binary distribution with P(1) = weight."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
        return cls([1.0 - weight, weight])

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:
        return f"Distribution({np.array2string(self.probs, precision=6)})"

    def close_to(self, other: "Distribution") -> bool:
        return self.size == other.size and bool(
            np.all(np.abs(self.probs - other.probs) <= TOLERANCE)
        )


class Channel:
    """Conditional distribution table W(y | x, s), shape (|X|, |S|, |Y|)."""

    __slots__ = ("table",)

    def __init__(self, table):
        t = np.array(table, dtype=float)
        if t.ndim != 3:
            raise ValueError(f"channel table must be 3-D (x, s, y), got {t.ndim}-D")
        if np.any(t < -TOLERANCE):
            raise ValueError("channel table has negative entries")
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > TOLERANCE):
            raise ValueError("every channel row W(. | x, s) must sum to 1")
        t /= sums[:, :, None]
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    @property
    def num_inputs(self) -> int:
        return self.table.shape[0]

    @property
    def num_states(self) -> int:
        return self.table.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.table.shape[2]

    @classmethod
    def xor(cls) -> "Channel":
        """Binary channel y = x XOR s."""
        t = np.zeros((2, 2, 2))
        for x in range(2):
            for s in range(2):
                t[x, s, x ^ s] = 1.0
        return cls(t)

    def is_binary_additive(self) -> bool:
        """True iff the channel is exactly y = x XOR s on binary alphabets."""
        if self.table.shape != (2, 2, 2):
            return False
        return bool(np.array_equal(self.table, Channel.xor().table))


class ConstraintSet:
    """Intersection of half-spaces <c, P> <= bound with the simplex.

    Non-emptiness is verified at construction by LP feasibility.  A row whose
    largest |coefficient| is below 1 (but not 0) measures tolerances in units of it.
    """

    __slots__ = ("dim", "coeffs", "bounds", "_scale", "_feasible", "_vertices")

    def __init__(self, dim: int, inequalities=()):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        coeff_rows = []
        bound_vals = []
        for c, b in inequalities:
            c = np.asarray(c, dtype=float)
            if c.shape != (dim,):
                raise ValueError(f"coefficient vector {c} does not match dim {dim}")
            coeff_rows.append(c)
            bound_vals.append(float(b))
        coeffs = np.array(coeff_rows, dtype=float).reshape(len(coeff_rows), dim)
        bounds = np.asarray(bound_vals, dtype=float)
        coeffs.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bounds", bounds)
        scale = np.abs(coeffs).max(axis=1, initial=0.0)  # each row's unit for tolerances
        object.__setattr__(self, "_scale", np.where((scale > 0) & (scale < 1), scale, 1.0))

        if len(coeff_rows) == 0:
            pt = np.full(dim, 1.0 / dim)
        else:
            res = lp.solve_lp(np.zeros(dim), coeffs, bounds, np.ones((1, dim)), [1.0])
            if not res.is_optimal:
                raise InfeasibleSetError(
                    "constraint set has no feasible point on the simplex"
                )
            pt = res.x
        object.__setattr__(self, "_feasible", Distribution(np.clip(pt, 0, None), atol=1e-6))
        object.__setattr__(self, "_vertices", None)  # enumerated on first use

    def __setattr__(self, name, value):
        raise AttributeError("ConstraintSet is immutable")

    @classmethod
    def weight_cap(cls, cap: float, dim: int = 2) -> "ConstraintSet":
        """All P with P(1) + ... + P(dim-1) <= cap (Hamming-weight budget)."""
        c = np.ones(dim)
        c[0] = 0.0
        return cls(dim, [(c, cap)])

    @property
    def num_inequalities(self) -> int:
        return self.coeffs.shape[0]

    @property
    def inequalities(self) -> list[tuple[np.ndarray, float]]:
        return [(self.coeffs[i], float(self.bounds[i])) for i in range(self.num_inequalities)]

    def feasible_point(self) -> Distribution:
        return self._feasible

    def contains(self, p: Distribution, tol: float = TOLERANCE) -> bool:
        return bool(np.all(self.bounds - self.coeffs @ p.probs >= -tol * self._scale))

    def max_linear(self, direction) -> tuple[float, Distribution]:
        """Maximize <direction, P> over the set; returns (value, argmax)."""
        d = np.asarray(direction, dtype=float)
        res = lp.solve_lp(
            -d, a_ub=self.coeffs, b_ub=self.bounds,
            a_eq=np.ones((1, self.dim)), b_eq=[1.0],
        )
        if not res.is_optimal:  # pragma: no cover - set is non-empty and bounded
            raise lp.SimplexError(f"linear optimization over constraint set: {res.status}")
        return -res.value, Distribution(np.clip(res.x, 0, None), atol=1e-6)

    def min_linear(self, direction) -> tuple[float, Distribution]:
        value, arg = self.max_linear(-np.asarray(direction, dtype=float))
        return -value, arg

    def vertices(self) -> list[Distribution]:
        """Vertices of the polytope (set inequalities plus simplex facets)."""
        if self._vertices is None:
            object.__setattr__(self, "_vertices", self._enumerate_vertices())
        return list(self._vertices)

    def _enumerate_vertices(self) -> tuple[Distribution, ...]:
        tol = 1e-7
        d = self.dim
        rows = [self.coeffs[i] for i in range(self.num_inequalities)]
        rhs = [self.bounds[i] for i in range(self.num_inequalities)]
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            rows.append(-e)  # P(k) >= 0
            rhs.append(0.0)
        found: list[np.ndarray] = []
        for active in itertools.combinations(range(len(rows)), d - 1):
            a = np.vstack([np.ones(d)] + [rows[i] for i in active])
            b = np.array([1.0] + [rhs[i] for i in active])
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                continue
            if np.any(x < -tol):
                continue
            x = np.clip(x, 0.0, None)
            x /= x.sum()
            if self.num_inequalities and np.any(self.coeffs @ x > self.bounds + tol * self._scale):
                continue
            if not any(np.abs(x - v).max() <= 1e-8 for v in found):
                found.append(x)
        return tuple(Distribution(v, atol=1e-6) for v in found)

    def grid_points(self, resolution: int = 21) -> list[Distribution]:
        """Lattice points of the set at denominator resolution-1, plus vertices."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        denom = resolution - 1
        pts: list[np.ndarray] = []
        for comp in _compositions(denom, self.dim):
            x = np.asarray(comp, dtype=float) / denom
            if self.num_inequalities == 0 or np.all(
                self.coeffs @ x <= self.bounds + TOLERANCE * self._scale
            ):
                pts.append(x)
        out = [Distribution(x) for x in pts]
        for v in self.vertices():
            if not any(v.close_to(u) for u in out):
                out.append(v)
        return out

    def __repr__(self) -> str:
        return f"ConstraintSet(dim={self.dim}, inequalities={self.num_inequalities})"


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class WindowedAvcSpec:
    """A channel with convex type constraints enforced on sliding windows.

    With w_x = w_s = n this reduces to the windowless constrained channel.
    """

    channel: Channel
    gamma: ConstraintSet
    lam: ConstraintSet
    w_x: int
    w_s: int
    n: int

    def __post_init__(self):
        if self.gamma.dim != self.channel.num_inputs:
            raise ValueError("gamma dimension does not match the channel's inputs")
        if self.lam.dim != self.channel.num_states:
            raise ValueError("lambda dimension does not match the channel's states")
        if not 1 <= self.w_x <= self.n:
            raise ValueError(f"w_x must satisfy 1 <= w_x <= n, got {self.w_x}")
        if not 1 <= self.w_s <= self.n:
            raise ValueError(f"w_s must satisfy 1 <= w_s <= n, got {self.w_s}")

    @property
    def alpha(self) -> float:
        """Window ratio w_s / w_x at this blocklength."""
        return self.w_s / self.w_x


def bitflip_spec(w: float, p: float, n: int, w_x: int, w_s: int) -> WindowedAvcSpec:
    """Binary XOR channel with weight caps w on inputs and p on states."""
    return WindowedAvcSpec(
        channel=Channel.xor(),
        gamma=ConstraintSet.weight_cap(w),
        lam=ConstraintSet.weight_cap(p),
        w_x=w_x, w_s=w_s, n=n,
    )


def binary_convolution(p: float, w: float) -> float:
    """p * w = p(1-w) + w(1-p)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= w <= 1.0):
        raise ValueError(f"arguments must be probabilities, got {p}, {w}")
    return p * (1.0 - w) + w * (1.0 - p)


def entropy(d: Distribution) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    p = d.probs
    nz = p > 0
    return float(-np.sum(p[nz] * np.log2(p[nz])))


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"argument must be a probability, got {p}")
    return entropy(Distribution.bernoulli(p))


def induced_channel(q_s: Distribution, channel: Channel) -> np.ndarray:
    """Average out the state: V(y|x) = sum_s Q(s) W(y|x,s), shape (|X|, |Y|)."""
    if q_s.size != channel.num_states:
        raise ValueError("state distribution does not match channel")
    return np.einsum("s,xsy->xy", q_s.probs, channel.table)


def _mi_from_induced(px: np.ndarray, v: np.ndarray) -> float:
    """I(x; y) in bits for the input law px through the induced channel v."""
    terms = px[:, None] * v * _log_ratio(px, v)
    return max(float(terms.sum()), 0.0)


def _log_ratio(px: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log2 V(y|x) / (PV)(y), shape (|X|, |Y|), 0 where V(y|x) = 0."""
    py = px @ v
    log_ratio = np.log2(np.maximum(v, LOG_FLOOR) / np.maximum(py, LOG_FLOOR)[None, :])
    log_ratio[v <= 0] = 0.0
    return log_ratio


def channel_sample_rows(x_rows, s_rows, channel: Channel, rngs) -> np.ndarray:
    """Block channel outputs for equal-shape (rows, n) inputs and states; each
    y_i ~ W(. | x_i, s_i) independently.

    Row r draws its n uniforms from rngs[r], so a row does not depend on the
    others in the block; one inverse-CDF pass then samples every output.
    """
    x = np.asarray(x_rows)
    s = np.asarray(s_rows)
    if x.shape != s.shape or x.ndim != 2 or len(rngs) != x.shape[0]:
        raise ValueError(
            f"need equal (rows, n) inputs and states and one generator per row, got "
            f"{x.shape}, {s.shape} and {len(rngs)}"
        )
    u = _row_uniforms(np.empty(x.shape), rngs)
    nx, ns, ny = channel.table.shape
    pairs = np.ravel_multi_index((x, s), (nx, ns))  # refuses a symbol outside its alphabet
    return inverse_cdf_indexed(channel.table.reshape(nx * ns, ny), pairs, u)


def sample_iid(p: Distribution, shape, rng: np.random.Generator) -> np.ndarray:
    """int8 array of the given shape with i.i.d. p entries.

    The entries are filled in C order, _SAMPLE_CHUNK at a time, each piece
    drawn from rng by _sparse_iid_sampler, so no buffer grows with the array.
    """
    out = np.empty(shape, dtype=np.int8)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _SAMPLE_CHUNK):
        piece = flat[lo:lo + _SAMPLE_CHUNK]
        if lo == 0 or piece.size < _SAMPLE_CHUNK:  # the first piece, or a shorter last one
            draw = _sparse_iid_sampler(p, piece.size, 1)
        piece[:] = draw([rng])[0]
    return out


def inverse_cdf(probs, u) -> np.ndarray:
    """int8 symbols by inverse CDF, one per uniform in u; laws lie along probs' last axis.

    The other axes of probs broadcast against u, whose shape the result has.
    A symbol counts the cdf entries <= u but never one that reaches the law's
    total (the last entry, or one after the last positive probability), so no
    u in [0, 1) gives a symbol outside the alphabet or of probability zero.
    """
    return _cdf_symbols(_capped_cdf(probs), u)


def _sparse_iid_sampler(p: Distribution, size: int, max_rows: int):
    """draw(rngs) -> one row of size i.i.d. p symbols per generator, a (len(rngs),
    size) int8 block reused by the next call; at most max_rows generators.

    Only the symbols off the most probable one, b, are drawn.  They sit at
    the successes of a Bernoulli(rho) process, rho = 1 - p(b), whose gaps
    are i.i.d. Geometric(rho), drawn by inversion as 1 + floor(log(1 - u) /
    log(1 - rho)) (Devroye, Non-Uniform Random Variate Generation, 1986);
    each success takes its symbol from p conditioned on not being b, by
    inverse CDF (no draw when that law is a point mass).  A row draws
    its gap uniforms in chunks of rho * size plus four standard deviations
    until a gap lands past the row, then one uniform per success: about
    rho * size uniforms instead of size, none when rho = 0.
    """
    b = int(np.argmax(p.probs))
    rest = p.probs.copy()
    rest[b] = 0.0
    rho = float(rest.sum())
    block = np.empty((max_rows, size), dtype=np.int8)
    if rho == 0.0:
        block.fill(b)
        return lambda rngs: block[: len(rngs)]
    others = np.flatnonzero(rest)
    conditional = rest / rho
    mean = rho * size
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 1
    scale = 1.0 / math.log1p(-rho)
    uniforms = np.empty((max_rows, chunk))
    starts = np.arange(max_rows)[:, None] * size - 1  # flat index of row r's position -1

    def ends(u):
        """Gap uniforms to running gap sums along the last axis, in place; a
        success sits at its sum - 1.  Sums up to size are exact in float64,
        and once one passes size every later one does."""
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        u *= scale
        np.floor(u, out=u)
        u += 1.0
        return np.add.accumulate(u, axis=-1, out=u)

    def draw(rngs) -> np.ndarray:
        rows = block[: len(rngs)]
        rows.fill(b)
        u = ends(_row_uniforms(uniforms[: len(rngs)], rngs))
        rows.reshape(-1)[(u + starts[: len(rngs)])[u <= size].astype(np.intp)] = others[0]
        for r, last in enumerate(u[:, -1].tolist()):
            while last <= size:  # the chunk ended inside the row: draw the next
                more = last + ends(rngs[r].random(chunk))
                rows[r, (more[more <= size] - 1).astype(np.intp)] = others[0]
                last = more[-1]
        if others.size > 1:
            for row, rng in zip(rows, rngs):
                hits = np.flatnonzero(row != b)
                row[hits] = inverse_cdf(conditional, rng.random(hits.size))
        return rows

    return draw


def inverse_cdf_indexed(laws, index, u) -> np.ndarray:
    """inverse_cdf(laws[index], u) for a (count, k) table of laws.

    Each law's cdf is taken once on the table and then gathered: a row's
    cdf does not depend on the rows around it, so the symbols are those of
    inverse_cdf, without a cumulative sum over every gathered row.
    """
    return _cdf_symbols(_capped_cdf(laws).take(index, axis=0), u)


def _row_uniforms(out, rngs) -> np.ndarray:
    """Fill row r of the 2-D out with uniforms from rngs[r], in place; returns out."""
    for row, rng in zip(out, rngs):
        rng.random(out=row)
    return out


def _capped_cdf(probs) -> np.ndarray:
    """Cumulative sums along the last axis, inf from the first that reaches the law's total."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = np.inf
    return cdf


def _cdf_symbols(cdf, u) -> np.ndarray:
    out = np.zeros(np.shape(u), dtype=np.int8)
    for k in range(cdf.shape[-1] - 1):
        out += u >= cdf[..., k]
    return out
