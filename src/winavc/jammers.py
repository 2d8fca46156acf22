"""Jamming strategies as oblivious state-sequence generators.

Generators see only public objects (a sampler of the public code's
codewords), never the transmitted message or the encoder's realized
codeword.  Each strategy is one *_rows function that makes many independent
draws, one Generator per draw, working on at most _POOL_WIDTH at a time; a
Generator draws only its own states, so a draw does not depend on the draws
around it.  Each returns arrays (states, rejections, admissible): a (draws,
n) int8 block, the refusals and whether the states are admissible.  The
i.i.d. and symmetrizing strategies share one exact rejection loop,
_first_admissible.  The spoofing strategy reports whether its codeword is
admissible instead of resampling, since admissibility of codewords-as-states
is exactly the attack's precondition.
"""

from __future__ import annotations

import itertools

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
# Draws live at once in the rejection pool, and codewords the spoof jammer
# checks at once.  Every round pays a fixed cost for the whole pool, so a
# wider pool shares it among more draws, while its buffers grow.  On a 2-CPU
# Xeon, 200 experiment.json trials ran at 0.187 ms per trial at 12, 0.171 at
# 24, 0.170 at 32 and 0.165 at 48 (best of 24 calls, with harness._TRIAL_BLOCK
# as wide); a run's tracemalloc peak was 1.62 MiB at 24, 2.04 at 32, 2.87 at 48.
_POOL_WIDTH = 32


class JammerGenerationError(RuntimeError):
    """Rejection sampling exceeded its cap; the law hugs the boundary."""


def iid_jammer_rows(
    p_s: Distribution,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rngs,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An i.i.d. p_s state sequence conditioned on every window being admissible,
    one per generator in rngs, as (states, rejections, admissible).

    Candidates are read off the generator's i.i.d. blocks of 8n states, each
    starting right after the previous one's first violating window; the
    rejection count lets converse experiments bound the conditioning.  A
    block is drawn sparsely, by core._sparse_iid_sampler, whose buffers hold
    one row per pool slot.
    """
    draw = _sparse_iid_sampler(p_s, _IID_BLOCK * n, min(_POOL_WIDTH, len(rngs)))
    return _first_admissible(draw, rngs, n, w_s, lam, rejection_cap)


def _first_admissible(draw, rngs, n: int, w_s: int, lam: ConstraintSet, rejection_cap: int):
    """For each generator in rngs, the first length-n candidate with every window
    admissible, as (states, rejections, admissible).

    At most _POOL_WIDTH generators are live at once, from a pool filled in
    the order of rngs.  draw(live) returns one block of states per generator
    in the list live, a (len(live), L) array; every round, each live
    generator reads its next block, and each that accepts or reaches the cap
    gives its slot to the next pending generator for the following round, so
    the pool stays full while any wait.  A candidate starting at s is
    accepted when no violating window starts in s..s+n-w_s.  Otherwise it
    counts as one rejection and the next candidate starts at j + w_s, just
    past the first violating window j: the refusal read only symbols before
    that point, so the accepted sequence keeps the law of one candidate
    conditioned on admissibility.  A block tail shorter than n is dropped.
    A draw whose rejections reach rejection_cap stops with all-zero states,
    rejections == rejection_cap and admissible False.
    """
    _check_window(w_s, n)
    states = np.zeros((len(rngs), n), dtype=np.int8)
    admissible = np.zeros(len(rngs), dtype=bool)
    rejections = [0] * len(rngs)  # Python ints: the walk counts slower in numpy ints
    span = n - w_s + 1  # window starts one candidate reads
    pending = iter(range(len(rngs)))
    live = list(itertools.islice(pending, _POOL_WIDTH))
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
                    states[t] = block[r, begin:begin + n]
                    admissible[t] = True
                    break
                refused += 1
                if refused >= rejection_cap:
                    break
                start = j + w_s
            else:
                looking.append(t)
            rejections[t] = refused
        live = looking + list(itertools.islice(pending, _POOL_WIDTH - len(looking)))
    return states, np.array(rejections, dtype=np.int64), admissible


def _codeword_rows(sample_rows, rngs, n: int) -> np.ndarray:
    x = np.asarray(sample_rows(rngs), dtype=np.int8)
    if x.shape[1:] != (n,):
        raise ValueError(f"codeword length {x.shape[-1]} != required state length {n}")
    return x


def spoof_jammer_rows(
    sample_rows, n: int, w_s: int, lam: ConstraintSet, rngs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play a random codeword, one per generator from sample_rows, as the states,
    as (states, rejections, admissible) with no rejections.

    Codewords are sampled and checked _POOL_WIDTH generators at a time.
    Admissibility is reported, not enforced: the spoof only works in the
    regime where codewords are themselves admissible states."""
    states = np.empty((len(rngs), n), dtype=np.int8)
    admissible = np.empty(len(rngs), dtype=bool)
    for lo in range(0, len(rngs), _POOL_WIDTH):
        rows = slice(lo, lo + _POOL_WIDTH)
        states[rows] = _codeword_rows(sample_rows, rngs[rows], n)
        admissible[rows] = windows_valid_rows(states[rows], w_s, lam)
    return states, np.zeros(len(rngs), dtype=np.int64), admissible


def symmetrize_jammer_rows(
    sample_rows,
    u,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rngs,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass a random codeword, one per generator from sample_rows(rngs), through the
    symmetrizing map U(s|x'), as (states, rejections, admissible).

    u holds one state Distribution per input symbol.  Each retry redraws both
    the codeword and its n states; with a deterministic U this is the spoof.
    """
    u_mat = np.vstack([row.probs for row in u])

    def draw(live):
        x = _codeword_rows(sample_rows, live, n)
        return inverse_cdf_indexed(u_mat, x, _row_uniforms(np.empty(x.shape), live))

    return _first_admissible(draw, rngs, n, w_s, lam, rejection_cap)


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
