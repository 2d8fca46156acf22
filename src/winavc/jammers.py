"""Jamming strategies as oblivious state-sequence generators.

Generators see only public objects (the codebook or a codeword sampler),
never the transmitted message or the encoder's realized codeword.  The
i.i.d. and symmetrizing strategies rejection-sample whole sequences until
every state window is admissible; the spoofing strategy reports whether its
chosen codeword happens to be admissible instead of resampling, since
admissibility of codewords-as-states is exactly the attack's precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConstraintSet, Distribution, sample_iid
from .windows import guard_word, windows_valid, windows_valid_rows

DEFAULT_REJECTION_CAP = 10_000


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
    """i.i.d. state sequence, resampled whole until every window is admissible.

    Resampling realizes conditioning on admissibility without distorting the
    law; the rejection count is returned so converse experiments can bound
    how much conditioning occurred.
    """
    batch = 64
    drawn = 0
    while drawn < rejection_cap:
        count = min(batch, rejection_cap - drawn)
        cands = sample_iid(p_s, (count, n), rng)
        ok = windows_valid_rows(cands, w_s, lam)
        hits = np.flatnonzero(ok)
        if hits.size:
            first = int(hits[0])
            return JamResult(
                states=cands[first], window_valid=True, rejections=drawn + first
            )
        drawn += count
    raise JammerGenerationError(
        f"no admissible sequence in {rejection_cap} draws; the state law is "
        "too close to the constraint boundary for this window length"
    )


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


def _draw_codeword(codebook_or_sampler, rng: np.random.Generator) -> np.ndarray:
    if callable(codebook_or_sampler):
        return np.asarray(codebook_or_sampler(rng), dtype=np.int8)
    mat = np.atleast_2d(np.asarray(codebook_or_sampler, dtype=np.int8))
    return mat[rng.integers(mat.shape[0])]


def spoof_jammer(
    codebook_or_sampler,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
) -> JamResult:
    """Play a uniformly chosen codeword as the state sequence.

    Admissibility is reported, not enforced: the spoof only works in the
    regime where codewords are themselves admissible states.
    """
    x = _draw_codeword(codebook_or_sampler, rng)
    if x.size != n:
        raise ValueError(f"codeword length {x.size} != required state length {n}")
    valid = windows_valid(x, w_s, lam)
    return JamResult(states=x, window_valid=valid, rejections=0)


def symmetrize_jammer(
    codebook_or_sampler,
    u,
    n: int,
    w_s: int,
    lam: ConstraintSet,
    rng: np.random.Generator,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
) -> JamResult:
    """Pass a random codeword through the symmetrizing map U(s|x').

    Each retry redraws both the codeword and the per-letter states; with a
    deterministic U this degenerates to the spoofing strategy.
    """
    u_mat = np.vstack([np.asarray(getattr(row, "probs", row), dtype=float) for row in u])
    cdf = np.cumsum(u_mat, axis=1)
    for attempt in range(rejection_cap):
        x = _draw_codeword(codebook_or_sampler, rng)
        if x.size != n:
            raise ValueError(f"codeword length {x.size} != required state length {n}")
        s = (cdf[x] < rng.random(n)[:, None]).sum(axis=1).astype(np.int8)
        if windows_valid(s, w_s, lam):
            return JamResult(states=s, window_valid=True, rejections=attempt)
    raise JammerGenerationError(
        f"no admissible symmetrized sequence in {rejection_cap} draws"
    )


def fallback_state_sequence(
    s_alphabet_size: int, n: int, w_s: int, lam: ConstraintSet
) -> np.ndarray:
    """Deterministic admissible state sequence (the jammer's forfeit move).

    Tries constant sequences first, then a fixed-type word built from a
    rationalized interior point of the state set.
    """
    for sym in range(s_alphabet_size):
        if lam.contains(Distribution.point_mass(sym, s_alphabet_size)):
            return np.full(n, sym, dtype=np.int8)
    target = lam.feasible_point()
    word = guard_word(target, w_s)
    reps = -(-n // word.symbols.size)
    seq = np.tile(word.symbols, reps)[:n]
    if not windows_valid(seq, w_s, lam):
        raise JammerGenerationError(
            "no deterministic admissible fallback state sequence found"
        )
    return seq
