"""Jamming strategies as oblivious state-sequence generators.

Generators see only public objects (a sampler of the public code's
codewords), never the transmitted message or the encoder's realized
codeword.  The i.i.d. and symmetrizing strategies share one exact rejection
loop: it scans blocks of states, refuses a candidate at its first violating
window and starts the next one right after that window, so the accepted
sequence has the candidate law conditioned on every window being admissible.
The i.i.d. jammer scans long i.i.d. blocks that hold many candidates; the
symmetrizing jammer scans one codeword's states per block, so every retry
draws a fresh codeword.  The spoofing strategy reports whether its chosen
codeword happens to be admissible instead of resampling, since admissibility
of codewords-as-states is exactly the attack's precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConstraintSet, Distribution, inverse_cdf, sample_iid
from .windows import (
    _round_to_denominator,
    guard_word,
    violation_flags,
    windows_valid,
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


def iid_jammer(
    p_s: Distribution,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> JamResult:
    """i.i.d. p_s state sequence conditioned on every window being admissible.

    Candidates are read off i.i.d. blocks of 8n states, each starting right
    after the previous one's first violating window; conditioning by
    rejection does not distort the law, and the rejection count is returned
    so converse experiments can bound how much conditioning occurred.
    """
    return _first_admissible(
        lambda: sample_iid(p_s, _IID_BLOCK * n, rng), n, w_s, lam, rejection_cap
    )


def _first_admissible(draw, n: int, w_s: int, lam: ConstraintSet, rejection_cap: int):
    """The first length-n candidate with every window admissible, read off the blocks draw() returns.

    A candidate starting at s is accepted when no violating window starts in
    s..s+n-w_s.  Otherwise it counts as one rejection and the next candidate
    starts at j + w_s, just past the first violating window j: the refusal
    read only symbols before that point, so the accepted sequence keeps the
    law of one candidate conditioned on admissibility.  A block tail shorter
    than n is dropped.
    """
    if not 1 <= w_s <= n:
        raise ValueError(f"window length must satisfy 1 <= w <= {n}, got {w_s}")
    rejections = 0
    while True:
        block = draw()
        # one byte per window start, 1 where the window violates lam
        bad = violation_flags(block, w_s, lam).tobytes()
        start = 0
        while start + n <= block.size:
            j = bad.find(1, start, start + n - w_s + 1)
            if j < 0:
                return JamResult(block[start:start + n].copy(), True, rejections)
            rejections += 1
            if rejections >= rejection_cap:
                raise JammerGenerationError(
                    f"no admissible sequence in {rejection_cap} draws; the state law is "
                    "too close to the constraint boundary for this window length"
                )
            start = j + w_s


def estimate_rejection_rate(
    p_s: Distribution,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
    draws: int = 1000,
) -> tuple[float, int]:
    """Fraction of fresh i.i.d. draws that violate some state window."""
    bad = 0
    done = 0
    while done < draws:
        count = min(256, draws - done)
        cands = sample_iid(p_s, (count, n), rng)
        bad += int(np.count_nonzero(~windows_valid_rows(cands, w_s, lam)))
        done += count
    return bad / draws, bad


def _draw_codeword(sampler, n: int, rng: np.random.Generator) -> np.ndarray:
    x = np.asarray(sampler(rng), dtype=np.int8)
    if x.size != n:
        raise ValueError(f"codeword length {x.size} != required state length {n}")
    return x


def spoof_jammer(
    sampler,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
) -> JamResult:
    """Play a uniformly chosen codeword, sampler(rng), as the state sequence.

    Admissibility is reported, not enforced: the spoof only works in the
    regime where codewords are themselves admissible states.
    """
    x = _draw_codeword(sampler, n, rng)
    return JamResult(states=x, window_valid=windows_valid(x, w_s, lam), rejections=0)


def symmetrize_jammer(
    sampler,
    u,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> JamResult:
    """Pass a random codeword, sampler(rng), through the symmetrizing map U(s|x').

    u holds one state Distribution per input symbol.  Each retry redraws both the
    codeword and the states; with a deterministic U this is the spoofing strategy.
    """
    u_mat = np.vstack([row.probs for row in u])

    def draw() -> np.ndarray:
        x = _draw_codeword(sampler, n, rng)
        return inverse_cdf(u_mat[x], rng.random(n))

    return _first_admissible(draw, n, w_s, lam, rejection_cap)


def fallback_state_sequence(
    s_alphabet_size: int, n: int, w_s: int, lam: ConstraintSet
) -> np.ndarray:
    """Deterministic admissible state sequence (the jammer's forfeit move).

    Tries constant sequences first, then a fixed-type word whose type is the
    mean of the state set's vertices rounded to multiples of 1/w_s, so every
    length-w_s window has exactly that type.
    """
    for sym in range(s_alphabet_size):
        if lam.contains(Distribution.point_mass(sym, s_alphabet_size)):
            return np.full(n, sym, dtype=np.int8)
    centre = np.mean([v.probs for v in lam.vertices()], axis=0)
    word = guard_word(_round_to_denominator(Distribution(centre, atol=1e-9), w_s), w_s)
    reps = -(-n // word.symbols.size)
    seq = np.tile(word.symbols, reps)[:n]
    if not windows_valid(seq, w_s, lam):
        raise JammerGenerationError(
            "no deterministic admissible fallback state sequence found"
        )
    return seq
