"""Jamming strategies as oblivious state-sequence generators.

Generators see only public objects (a sampler of the public code's
codewords), never the transmitted message or the encoder's realized
codeword.  Each strategy is one *_rows function that makes many independent
draws, one Generator per draw, in one call, working on at most `width` of
them at a time; a Generator draws only its own states, so a draw does not
depend on the draws around it or on the width.  The i.i.d. and symmetrizing
strategies share one exact rejection loop, _first_admissible, which keeps a
pool of width draws live and hands a finished draw's slot to the next
pending one.  The spoofing strategy reports whether its chosen codeword
happens to be admissible instead of resampling, since admissibility of
codewords-as-states is exactly the attack's precondition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    ConstraintSet,
    Distribution,
    _row_uniforms,
    _sparse_iid_sampler,
    inverse_cdf_indexed,
)
from .windows import (
    _check_window,
    _rounded_counts,
    guard_word,
    verify_windows,
    violation_flags,
    windows_valid_rows,
)

DEFAULT_REJECTION_CAP = 10_000
_IID_BLOCK = 8  # the i.i.d. jammer draws its states 8n at a time


class JammerGenerationError(RuntimeError):
    """Rejection sampling exceeded its cap; the law hugs the boundary."""


@dataclass(frozen=True)
class JamResult:
    states: np.ndarray
    window_valid: bool
    rejections: int

    def __post_init__(self):
        self.states.setflags(write=False)


def iid_jammer_rows(
    p_s: Distribution,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rngs,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
    width: int | None = None,
) -> list[JamResult | None]:
    """An i.i.d. p_s state sequence conditioned on every window being admissible,
    one per generator in rngs; None where that draw hit the rejection cap.

    Candidates are read off the generator's i.i.d. blocks of 8n states, each
    starting right after the previous one's first violating window; the
    rejection count lets converse experiments bound the conditioning.  A
    block is drawn sparsely, by core._sparse_iid_sampler, whose buffers hold
    width rows (all of rngs when width is None).
    """
    width = _pool_width(width, rngs)
    draw = _sparse_iid_sampler(p_s, _IID_BLOCK * n, width)
    return _first_admissible(draw, rngs, n, w_s, lam, rejection_cap, width)


def _pool_width(width: int | None, rngs) -> int:
    """Draws a *_rows call works on at once: width, or every one when width is None."""
    if width is not None and width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return max(1, len(rngs) if width is None else min(width, len(rngs)))


def _first_admissible(draw, rngs, n: int, w_s: int, lam: ConstraintSet, rejection_cap: int,
                      width: int):
    """For each generator in rngs, the first length-n candidate with every window admissible.

    At most width generators are live at once, from a pool filled in the
    order of rngs.  draw(live) returns one block of states per generator in
    the list live, a (len(live), L) array; every round, each live generator
    reads its next block, and each that accepts or reaches the cap gives its
    slot to the next pending generator for the following round, so the pool
    stays full while any wait.  A candidate starting at s is accepted when
    no violating window starts in s..s+n-w_s.  Otherwise it counts as one
    rejection and the next candidate starts at j + w_s, just past the first
    violating window j: the refusal read only symbols before that point, so
    the accepted sequence keeps the law of one candidate conditioned on
    admissibility.  A block tail shorter than n is dropped.  A draw whose
    rejections reach rejection_cap stops with None.
    """
    _check_window(w_s, n)
    results: list[JamResult | None] = [None] * len(rngs)
    rejections = [0] * len(rngs)
    span = n - w_s + 1  # window starts one candidate reads
    pending = iter(range(len(rngs)))
    live = list(itertools.islice(pending, width))
    while live:
        block = draw([rngs[t] for t in live])
        size = block.shape[1]
        # one byte per window start, 1 where the window violates lam; row r's from r * starts
        starts = size - w_s + 1
        find = violation_flags(block, w_s, lam).tobytes().find
        looking = []
        for r, t in enumerate(live):
            base = r * starts
            start, last = base, base + size - n  # positions are offsets into the flag bytes
            refused = rejections[t]
            while start <= last:
                j = find(1, start, start + span)
                if j < 0:
                    begin = start - base
                    results[t] = JamResult(block[r, begin:begin + n].copy(), True, refused)
                    break
                refused += 1
                if refused >= rejection_cap:
                    break
                start = j + w_s
            else:
                rejections[t] = refused
                looking.append(t)
        live = looking + list(itertools.islice(pending, width - len(looking)))
    return results


def _codeword_rows(sample_rows, rngs, n: int) -> np.ndarray:
    x = np.asarray(sample_rows(rngs), dtype=np.int8)
    if x.shape[1:] != (n,):
        raise ValueError(f"codeword length {x.shape[-1]} != required state length {n}")
    return x


def spoof_jammer_rows(
    sample_rows, n: int, w_s: int, lam: ConstraintSet, rngs, width: int | None = None
) -> list[JamResult]:
    """Play a random codeword, one per generator from sample_rows, as the states.

    Codewords are sampled and checked width generators at a time (all of
    rngs when width is None).  Admissibility is reported, not enforced: the
    spoof only works in the regime where codewords are themselves admissible
    states."""
    step = _pool_width(width, rngs)
    results = []
    for lo in range(0, len(rngs), step):
        x = _codeword_rows(sample_rows, rngs[lo:lo + step], n)
        valid = windows_valid_rows(x, w_s, lam)
        results += [JamResult(states=row, window_valid=bool(v), rejections=0)
                    for row, v in zip(x, valid)]
    return results


def symmetrize_jammer_rows(
    sample_rows,
    u,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rngs,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
    width: int | None = None,
) -> list[JamResult | None]:
    """Pass a random codeword, one per generator from sample_rows(rngs), through the
    symmetrizing map U(s|x'); None where that draw hit the rejection cap.

    u holds one state Distribution per input symbol.  Each retry redraws both
    the codeword and its n states; with a deterministic U this is the spoof.
    At most width draws (all of rngs when width is None) are live at once.
    """
    u_mat = np.vstack([row.probs for row in u])

    def draw(live):
        x = _codeword_rows(sample_rows, live, n)
        return inverse_cdf_indexed(u_mat, x, _row_uniforms(np.empty(x.shape), live))

    return _first_admissible(draw, rngs, n, w_s, lam, rejection_cap, _pool_width(width, rngs))


def fallback_state_sequence(n: int, w_s: int, lam: ConstraintSet) -> np.ndarray:
    """Deterministic admissible state sequence (the jammer's forfeit move).

    Tries constant sequences first, then a fixed-type word whose type is the
    mean of the state set's vertices rounded to multiples of 1/w_s, so every
    length-w_s window has exactly that type.
    """
    for sym in range(lam.dim):
        if lam.contains(Distribution.point_mass(sym, lam.dim)):
            return np.full(n, sym, dtype=np.int8)
    centre = np.mean([v.probs for v in lam.vertices()], axis=0)
    seq = guard_word(_rounded_counts(Distribution(centre, atol=1e-9), w_s), n)
    if not verify_windows(seq, w_s, lam).valid:
        raise JammerGenerationError(
            "no deterministic admissible fallback state sequence found"
        )
    return seq
