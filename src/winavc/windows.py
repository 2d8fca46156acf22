"""Sliding-window type verification, guard words, and codebook expurgation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TOLERANCE, ConstraintSet, Distribution

OPEN_RANGE = "open-range"
INCLUSIVE_RANGE = "inclusive-range"

# expurgate checks codebooks in row blocks to bound the rows x windows x
# inequalities working array.
_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class WindowReport:
    """Outcome of checking every window of one sequence against a set."""

    valid: bool
    violations: tuple[tuple[int, Distribution], ...]
    windows_checked: int

    def first_violation(self) -> int | None:
        return self.violations[0][0] if self.violations else None


def verify_windows(
    seq,
    w: int,
    c: ConstraintSet,
    mode: str = INCLUSIVE_RANGE,
) -> WindowReport:
    """Check the type of every length-w window of seq against c.

    Start indices are 0-based.  Inclusive-range mode checks all n-w+1
    windows; open-range mode stops one start short (indices 0..n-w-1),
    matching the literal index set in the windowed-channel definition.
    """
    raw = np.asarray(seq)
    arr = raw.astype(int)
    if not np.array_equal(arr, raw):
        raise ValueError("sequence symbols must be integers")
    n = arr.size
    _check_window(w, n)
    if mode not in (OPEN_RANGE, INCLUSIVE_RANGE):
        raise ValueError(f"unknown mode {mode!r}")
    if arr.min() < 0 or arr.max() >= c.dim:
        raise ValueError("sequence symbols out of range for the constraint set")

    n_starts = n - w + 1 if mode == INCLUSIVE_RANGE else n - w
    if n_starts <= 0:
        return WindowReport(True, (), 0)
    starts = np.flatnonzero(violation_flags(arr, w, c)[:n_starts])
    # Symbol counts of the violating windows from running per-symbol totals.
    onehot = arr[:, None] == np.arange(c.dim)
    csum = np.vstack([np.zeros((1, c.dim), dtype=int), onehot.cumsum(axis=0)])
    counts = csum[starts + w] - csum[starts]
    violations = tuple(
        (int(t), Distribution(row / w)) for t, row in zip(starts, counts)
    )
    return WindowReport(not violations, violations, n_starts)


@dataclass(frozen=True)
class GuardWord:
    """Deterministic fixed-type buffer built from repetitions of a base block.

    Any contiguous window of length L >= base_block_length has type within
    base_block_length / L (total variation) of the target.
    """

    symbols: np.ndarray
    base_block_length: int
    target_type: Distribution

    def __post_init__(self):
        self.symbols.setflags(write=False)

    def deviation_bound(self, window_len: int) -> float:
        if window_len < self.base_block_length:
            raise ValueError("bound only applies to windows of at least one block")
        return self.base_block_length / window_len

    def __len__(self) -> int:
        return self.symbols.size


def rationalize(target: Distribution, max_denominator: int) -> tuple[np.ndarray, int]:
    """Represent target as integers a / b with a common denominator b.

    Raises ValueError when no denominator up to max_denominator reproduces
    every entry to within 1e-9.
    """
    fracs = [Fraction(float(p)).limit_denominator(max_denominator) for p in target.probs]
    b = 1
    for f in fracs:
        b = b * f.denominator // math.gcd(b, f.denominator)
        if b > max_denominator:
            raise ValueError(
                f"no common denominator <= {max_denominator} for {target.probs}"
            )
    a = np.array([round(float(p) * b) for p in target.probs], dtype=int)
    if a.sum() != b or np.max(np.abs(a / b - target.probs)) > 1e-9:
        raise ValueError(
            f"target {target.probs} is not rational with denominator <= {max_denominator}"
        )
    return a, b


def block_pattern(counts: np.ndarray) -> np.ndarray:
    """Canonical base block: counts[0] copies of 0, counts[1] of 1, ..."""
    return np.repeat(np.arange(counts.size), counts).astype(np.int8)


def guard_word(target: Distribution, w_x: int) -> GuardWord:
    """Build the deterministic guard word of length w_x with type ~ target.

    The base block realizes target exactly as a/b with b <= w_x; it is
    repeated ceil(w_x / b) times and truncated to w_x symbols.
    """
    a, b = rationalize(target, w_x)
    if b > w_x:
        raise ValueError(f"base block length {b} exceeds guard length {w_x}")
    base = block_pattern(a)
    reps = -(-w_x // b)  # ceil
    word = np.tile(base, reps)[:w_x]
    return GuardWord(word, b, target)


def _round_to_denominator(p: Distribution, b: int) -> Distribution:
    """Nearest distribution with entries k/b (largest-remainder rounding)."""
    scaled = p.probs * b
    base = np.floor(scaled).astype(int)
    short = b - base.sum()
    order = np.argsort(-(scaled - base))
    base[order[:short]] += 1
    return Distribution(base / b)


@dataclass(frozen=True)
class ExpurgationStats:
    total: int
    removed: int
    kept_indices: np.ndarray

    def __post_init__(self):
        self.kept_indices.setflags(write=False)

    @property
    def removed_fraction(self) -> float:
        return self.removed / self.total if self.total else 0.0


def expurgate(
    codebook,
    w_x: int,
    gamma: ConstraintSet,
    suffix_context=None,
    prefix_context=None,
) -> tuple[np.ndarray, ExpurgationStats]:
    """Drop codewords with any violating window, including boundary straddles.

    When a context is supplied, windows straddling the codeword/context
    boundary are checked as well (suffix_context follows the codeword,
    prefix_context precedes it); windows lying entirely inside a context
    are not attributed to the codeword.
    """
    mat = np.atleast_2d(np.asarray(codebook, dtype=np.int8))
    m, n = mat.shape
    if m == 0:
        raise ValueError("codebook must be non-empty")
    pre = np.asarray(prefix_context, dtype=np.int8) if prefix_context is not None else None
    suf = np.asarray(suffix_context, dtype=np.int8) if suffix_context is not None else None
    if pre is not None and pre.size >= w_x:
        pre = pre[-(w_x - 1):] if w_x > 1 else pre[:0]
    if suf is not None and suf.size >= w_x:
        suf = suf[: w_x - 1]

    # Contexts are trimmed to w_x - 1 symbols above, so every window of the
    # extended sequence overlaps the codeword itself.
    pre_len = 0 if pre is None else pre.size
    ext_len = pre_len + n + (0 if suf is None else suf.size)
    if ext_len < w_x:
        raise ValueError(f"window length {w_x} exceeds extended sequence length {ext_len}")

    keep = np.ones(m, dtype=bool)
    for lo in range(0, m, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, m)
        chunk = mat[lo:hi]
        parts = []
        if pre is not None:
            parts.append(np.broadcast_to(pre, (hi - lo, pre.size)))
        parts.append(chunk)
        if suf is not None:
            parts.append(np.broadcast_to(suf, (hi - lo, suf.size)))
        ext = np.concatenate(parts, axis=1)
        keep[lo:hi] = ~_window_violations(ext, w_x, gamma).any(axis=1)

    kept_idx = np.flatnonzero(keep)
    stats = ExpurgationStats(total=m, removed=int(m - kept_idx.size), kept_indices=kept_idx)
    return mat[keep], stats


def windows_valid(seq, w: int, c: ConstraintSet) -> bool:
    """Fast vectorized equivalent of verify_windows(...).valid (inclusive range)."""
    return bool(windows_valid_rows(seq, w, c)[0])


def windows_valid_rows(mat, w: int, c: ConstraintSet) -> np.ndarray:
    """Per-row window validity for a matrix of sequences."""
    arr = np.atleast_2d(np.asarray(mat, dtype=np.int8))
    _check_window(w, arr.shape[1])
    return ~_window_violations(arr, w, c).any(axis=1)


def violation_flags(seq, w: int, c: ConstraintSet) -> np.ndarray:
    """Per start 0..n-w (inclusive range): does the length-w window of seq there leave c?"""
    arr = np.asarray(seq)
    _check_window(w, arr.size)
    return _window_violations(arr[None, :], w, c)[0]


def _check_window(w: int, n: int) -> None:
    if not 1 <= w <= n:
        raise ValueError(f"window length must satisfy 1 <= w <= {n}, got {w}")


def _window_violations(mat: np.ndarray, w: int, gamma: ConstraintSet) -> np.ndarray:
    """Flags (rows, n-w+1): does window t of row r violate gamma (inclusive range)?"""
    rows, n = mat.shape
    flags = np.zeros((rows, n - w + 1), dtype=bool)
    # Window counts of every symbol that some inequality weighs, from running totals.
    win_counts = {}
    for sym in np.flatnonzero(np.any(gamma.coeffs != 0.0, axis=0)):
        csum = np.cumsum(mat == sym, axis=1, dtype=np.int32)
        counts = csum[:, w - 1:].copy()
        counts[:, 1:] -= csum[:, : n - w]
        win_counts[sym] = counts
    for c, bound in zip(gamma.coeffs, gamma.bounds):
        # <c, window counts> summed over symbols in order; a zero term would
        # not change the sum, so it is skipped.
        terms = (c[sym] * counts for sym, counts in win_counts.items() if c[sym] != 0.0)
        dots = next(terms, 0.0)
        for term in terms:
            dots += term
        flags |= dots > bound * w + TOLERANCE * w
    return flags
