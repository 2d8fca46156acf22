"""Sliding-window type verification, guard words, and codebook expurgation."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import TOLERANCE, ConstraintSet, Distribution

OPEN_RANGE = "open-range"
INCLUSIVE_RANGE = "inclusive-range"

# expurgate checks codebooks in row blocks.  A block's boolean and uint8
# window-count arrays take rows x n bytes each, a few alive at once; at 1024
# rows and n of a few hundred they stay inside a 2 MiB L2 cache.  Timed in
# the `sweep` command's cells, where each 4096 x 512 and 4096 x 128 codebook
# expurgated at w = 64 is freshly sampled between other work, expurgation
# took 4.3 ms per cell with 1024-row blocks, 5.0 ms with 512 and 6.1 ms with
# 2048 (medians of three runs; Xeon, 2 MiB L2 per core).
_CHUNK_ROWS = 1024


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
    counts = np.column_stack([_window_counts(arr, s, w)[starts] for s in range(c.dim)])
    violations = tuple(
        (int(t), Distribution(row / w)) for t, row in zip(starts, counts)
    )
    return WindowReport(not violations, violations, n_starts)


def block_pattern(counts: np.ndarray) -> np.ndarray:
    """Canonical base block: counts[0] copies of 0, counts[1] of 1, ..."""
    return np.repeat(np.arange(counts.size), counts).astype(np.int8)


def guard_word(counts, length: int) -> np.ndarray:
    """The deterministic int8 word of `length` symbols with type ~ counts / sum(counts).

    The word is the base block block_pattern(counts // gcd(counts)), of b
    symbols, repeated and truncated to length; a block longer than length is
    refused.  Every contiguous window of length L >= b has type within b / L
    (total variation) of the target.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.min() < 0 or counts.sum() < 1:
        raise ValueError(f"symbol counts must be non-negative with a positive sum, got {counts}")
    block = block_pattern(counts // np.gcd.reduce(counts))
    if block.size > length:
        raise ValueError(f"base block length {block.size} exceeds word length {length}")
    return np.resize(block, length)


def _rounded_counts(p: Distribution, total: int) -> np.ndarray:
    """Symbol counts summing to total whose type is nearest p (largest-remainder rounding)."""
    scaled = p.probs * total
    counts = np.floor(scaled).astype(int)
    short = total - counts.sum()
    counts[np.argsort(-(scaled - counts))[:short]] += 1
    return counts


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
    are not attributed to the codeword.  When no codeword is dropped, kept is
    the int8 codebook itself, not a copy: it may be the caller's own rows,
    and they are read-only once wrapped in a ListCode.
    """
    mat = np.atleast_2d(np.asarray(codebook, dtype=np.int8))
    m, n = mat.shape
    if m == 0:
        raise ValueError("codebook must be non-empty")
    # A window that overlaps the codeword reaches at most w_x - 1 symbols into
    # a context, so each context is trimmed to those.
    reach = w_x - 1
    pre = np.asarray([] if prefix_context is None else prefix_context, dtype=np.int8)
    pre = pre[pre.size - min(pre.size, reach):]
    suf = np.asarray([] if suffix_context is None else suffix_context, dtype=np.int8)[:reach]
    ext_len = pre.size + n + suf.size
    if ext_len < w_x:
        raise ValueError(f"window length {w_x} exceeds extended sequence length {ext_len}")

    keep = np.ones(m, dtype=bool)
    for lo in range(0, m, _CHUNK_ROWS):
        block = mat[lo:lo + _CHUNK_ROWS]
        if n < w_x:
            # a window can cover the whole codeword: check it between its contexts
            bad = _violates_any(_between(pre, block, suf), w_x, gamma)
        else:
            # the windows inside the codeword on the block as it lies, and those
            # reaching into a context on a seam of w_x - 1 codeword columns
            bad = _violates_any(block, w_x, gamma)
            if pre.size:
                bad |= _violates_any(_between(pre, block[:, :reach], suf[:0]), w_x, gamma)
            if suf.size:
                bad |= _violates_any(_between(pre[:0], block[:, n - reach:], suf), w_x, gamma)
        keep[lo:lo + block.shape[0]] = ~bad

    kept_idx = np.flatnonzero(keep)
    stats = ExpurgationStats(total=m, removed=int(m - kept_idx.size), kept_indices=kept_idx)
    return (mat if stats.removed == 0 else mat[kept_idx]), stats


def _between(pre: np.ndarray, block: np.ndarray, suf: np.ndarray) -> np.ndarray:
    """The rows of block, each with the 1-D pre before it and suf after it."""
    rows = block.shape[0]
    return np.concatenate(
        [np.broadcast_to(pre, (rows, pre.size)), block, np.broadcast_to(suf, (rows, suf.size))],
        axis=1,
    )


def _violates_any(mat: np.ndarray, w: int, gamma: ConstraintSet) -> np.ndarray:
    """Per row of mat: does any length-w window of it leave gamma?"""
    flags = _window_violations(mat, w, gamma)
    # one pass over all the flags costs a fraction of a reduction row by row,
    # and most codebook blocks hold no violating window
    return flags.any(axis=1) if flags.any() else np.zeros(flags.shape[0], dtype=bool)


def windows_valid(seq, w: int, c: ConstraintSet) -> bool:
    """Fast vectorized equivalent of verify_windows(...).valid (inclusive range)."""
    return bool(windows_valid_rows(seq, w, c)[0])


def windows_valid_rows(mat, w: int, c: ConstraintSet) -> np.ndarray:
    """Per-row window validity for a matrix of sequences."""
    arr = np.atleast_2d(np.asarray(mat, dtype=np.int8))
    _check_window(w, arr.shape[1])
    return ~_violates_any(arr, w, c)


def violation_flags(seq, w: int, c: ConstraintSet) -> np.ndarray:
    """Per start 0..n-w (inclusive range): does the length-w window of seq there leave c?

    seq is one sequence, or a (rows, n) array whose rows are checked apart:
    the flags then have shape (rows, n-w+1).
    """
    arr = np.asarray(seq)
    _check_window(w, arr.shape[-1])
    flags = _window_violations(arr.reshape(-1, arr.shape[-1]), w, c)
    return flags.reshape(arr.shape[:-1] + flags.shape[-1:])


def _check_window(w: int, n: int) -> None:
    if not 1 <= w <= n:
        raise ValueError(f"window length must satisfy 1 <= w <= {n}, got {w}")


def _window_counts(seq: np.ndarray, s: int, w: int) -> np.ndarray:
    """Counts of symbol s in each length-w window of seq, read flat, one per start.

    Sums over windows of 1, 2, 4, ... entries come from doubling, and those
    of the bits set in w add up to w: about 2 log2(w) vector adds in the
    narrowest integer type that holds w.  The doubling sums overwrite one
    scratch buffer, the indicator of s, in place, and the total is summed in
    place: a call allocates at most three arrays whatever w is.
    """
    ind = (seq == s).reshape(-1)
    block = ind.view(np.uint8) if w < 1 << 8 else ind.astype(np.uint16 if w < 1 << 16 else np.int64)
    starts = ind.size - w + 1
    total, have, size, valid = None, 0, 1, ind.size
    while True:
        # block[t] counts entries t..t+size-1 (t < valid), total[t] entries t..t+have-1
        last = 2 * size > w
        if w & size:
            part = block[have:have + starts]
            if total is None:
                total = part if last else part.copy()
            else:
                total += part
            have += size
        if last:
            return total
        # in place: each sum reads only entries at or after the one it overwrites
        np.add(block[: valid - size], block[size:valid], out=block[: valid - size])
        valid -= size
        size *= 2


class _WindowTests(NamedTuple):
    """The window tests equivalent to one ConstraintSet at one window length w.

    An inequality <c, counts> > bound*w + TOLERANCE*w that weighs a single
    symbol becomes an integer threshold on that symbol's count: fl(c*k) is
    monotone in k, so the counts k in 0..w that violate it form a tail
    (c > 0) or a head (c < 0), and the flags match the float test bit for
    bit.  Inequalities over several symbols keep the float sum, with terms
    added in symbol order.
    """

    always: bool  # an all-zero inequality fails on every window
    symbols: tuple[int, ...]  # symbols whose window counts a test reads
    at_least: tuple[tuple[int, int], ...]  # (s, k): violated when count of s >= k
    at_most: tuple[tuple[int, int], ...]  # (s, k): violated when count of s <= k
    sums: tuple  # (((s, c), ...), t): violated when the sum of c * count of s exceeds t


@functools.lru_cache(maxsize=64)
def _window_tests(gamma: ConstraintSet, w: int) -> _WindowTests:
    """The tests of gamma at window length w, built once per (set, w).

    ConstraintSet is immutable and hashed by identity, so the cache key is
    exact and the entry keeps its set alive.
    """
    always = False
    at_least, at_most, sums = [], [], []
    ks = np.arange(w + 1)
    for c, threshold in zip(gamma.coeffs, gamma.bounds * w + TOLERANCE * w):
        weighed = np.flatnonzero(c)
        if weighed.size == 0:
            always |= bool(0.0 > threshold)
        elif weighed.size > 1:
            sums.append((tuple((int(s), float(c[s])) for s in weighed), float(threshold)))
        else:
            s = int(weighed[0])
            bad = np.flatnonzero(c[s] * ks > threshold)
            if bad.size and c[s] > 0:
                at_least.append((s, int(bad[0])))
            elif bad.size:
                at_most.append((s, int(bad[-1])))
    symbols = sorted({s for s, _ in at_least + at_most} | {s for t, _ in sums for s, _ in t})
    return _WindowTests(always, tuple(symbols), tuple(at_least), tuple(at_most), tuple(sums))


def _window_violations(mat: np.ndarray, w: int, gamma: ConstraintSet) -> np.ndarray:
    """Flags (rows, n-w+1): does window t of row r violate gamma (inclusive range)?

    The rows are scanned as one flat sequence; windows that straddle two
    rows are counted too and then dropped.
    """
    tests = _window_tests(gamma, w)
    rows, n = mat.shape
    if tests.always:
        return np.ones((rows, n - w + 1), dtype=bool)
    counts = {s: _window_counts(mat, s, w) for s in tests.symbols}
    flags = np.zeros(rows * n, dtype=bool)
    live = flags[: rows * n - w + 1]
    for s, k in tests.at_least:
        live |= counts[s] >= k
    for s, k in tests.at_most:
        live |= counts[s] <= k
    for terms, threshold in tests.sums:
        (s, c), *rest = terms
        dots = c * counts[s]
        for s, c in rest:
            dots += c * counts[s]
        live |= dots > threshold
    return flags.reshape(rows, n)[:, : n - w + 1]
