"""Three-phase coding: list codes, polynomial hashing, guard layout, keys.

A transmission has three segments: a random list-decodable codeword carrying
the message concatenated with its hash, a deterministic buffer region that
keeps every sliding window feasible across segment boundaries, and a short
key codeword from which the decoder recovers the hash keys and disambiguates
the list.  Two buffer layouts are supported: a single fixed-type guard word
("thm1"), and an interleaved region whose windows hold w_s type-1 and
w_x - w_s type-2 symbols ("thm2", for jammer windows shorter than encoder
windows: the ratio alpha = w_s/w_x of the channel's windows).  Both buffers
are deterministic words built from integer symbol counts: the guard from
p_x rounded to multiples of 1/min(8, w_x), the interleaved blocks from the
exact counts w_s*t1 and (w_x - w_s)*t2 of each window.  The code is built
for one WindowedAvcSpec, which supplies the channel, both constraint sets
and both window lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2
from .core import (
    LOG_FLOOR,
    Channel,
    ConstraintSet,
    Distribution,
    WindowedAvcSpec,
    induced_channel,
    sample_iid,
)
from .symmetrize import ecn_symmetrizable, gamma_prime
from .windows import (
    ExpurgationStats,
    _rounded_counts,
    _window_counts,
    block_pattern,
    expurgate,
    guard_word,
    verify_windows,
    windows_valid_rows,
)

LAYOUT_THM1 = "thm1"
LAYOUT_THM2 = "thm2"
# a decoded row's status: one survivor, an empty list, a list without survivors, several
STATUSES = ("unique", "empty-list", "no-survivor", "ambiguous")

_DELTA = 0.02  # L1 margin every sampling law keeps inside its input set
_LL_SLACK = 0.05  # bits per letter the likelihood floor sits below the worst admissible mean
_L_MAX = 32  # decoded-list size cap
_MAX_CODEWORDS = 1 << 16  # codewords one list-code build may sample
_GUARD_DENOMINATOR = 8  # the thm1 guard type is p_x rounded to this denominator
# A Hamming scan finishes a pair alone, word by word, at about _PAIR_COST
# times the cost of a pair in a dense word, after gathering it at about
# _PAIR_SETUP words' worth: 32 rows against 4,032 codewords on a 2-CPU Xeon
# took 0.13 ms per dense word, and 13,000 pairs 0.25 ms for one word and
# 0.45 ms for five.
_PAIR_COST = 4
_PAIR_SETUP = 4
_LAM_FRAC = 0.1  # thm2 ramp step l = _LAM_FRAC*w_s unless the params set lam_frac


class CodeConstructionError(RuntimeError):
    """Code building failed (empty expurgated code or invalid layout)."""


# ---------------------------------------------------------------------------
# Polynomial hash over GF(2^k)


@dataclass(frozen=True)
class HashParams:
    """Field size and chunk count for the message hash h = r1 + sum m_i r2^i."""

    field_bits: int
    chunk_count: int

    def __post_init__(self):
        _check_field_bits(self.field_bits)
        if self.chunk_count < 1:
            raise ValueError("chunk_count must be >= 1")

    @property
    def field_order(self) -> int:
        return 1 << self.field_bits

    @property
    def collision_bound(self) -> float:
        """Hash collision probability of two distinct messages over uniform r2: K/q."""
        return self.chunk_count / self.field_order


def _check_field_bits(field_bits: int) -> None:
    if not 1 <= field_bits <= gf2.MAX_FIELD_BITS:
        raise ValueError(f"field_bits must be in 1..{gf2.MAX_FIELD_BITS}, got {field_bits}")


def chunk_message(message, params: HashParams) -> np.ndarray:
    """Split message ids into chunk_count field elements, low bits first.

    A scalar id gives a (chunk_count,) array, an array of ids one more
    trailing axis of that length.
    """
    m = np.asarray(message)
    fb, k = params.field_bits, params.chunk_count
    if m.dtype.kind not in "iu" or (m >> (fb * k)).any():  # a negative id shifts to -1
        raise ValueError(
            f"message ids must be non-negative integers that fit in {k} chunks of {fb} bits"
        )
    return (m.astype(np.int64)[..., None] >> (fb * np.arange(k))) & (params.field_order - 1)


def poly_hash(m_chunks, r1, r2, params: HashParams):
    """Evaluate r1 + sum_{i=1..K} m_i r2^i in GF(2^field_bits).

    The chunks lie on the last axis of m_chunks; its leading axes broadcast
    against r1 and r2.  Returns an int when every input is a single
    message and key pair, else an int64 array.
    """
    m, r1, r2 = (np.asarray(v) for v in (m_chunks, r1, r2))
    if m.shape[-1:] != (params.chunk_count,):
        raise ValueError(
            f"expected {params.chunk_count} chunks on the last axis, got shape {m.shape}"
        )
    # a negative value, or one of q or more, has a bit at or above field_bits
    if any(v.dtype.kind not in "iu" for v in (m, r1, r2)) or (
        (m | r1[..., None] | r2[..., None]) >> params.field_bits
    ).any():
        raise ValueError(f"chunks, r1 and r2 must be integers in [0, {params.field_order})")
    mul = gf2.mul_table(params.field_bits)
    # Horner on sum m_i r2^i = ((m_K r2 + m_{K-1}) r2 + ...) r2
    acc = 0
    for i in reversed(range(params.chunk_count)):
        acc = mul[acc ^ m[..., i], r2]
    h = r1 ^ acc
    return int(h) if h.ndim == 0 else h.astype(np.int64)


# ---------------------------------------------------------------------------
# Decoding budgets


@dataclass(frozen=True)
class JamBudget:
    """Admissibility threshold used by the budget-ball list decoder."""

    kind: str  # "hamming" | "likelihood"
    radius: int = 0
    ll_table: np.ndarray | None = None  # (|X|, |Y|) per-letter log2 likelihood
    ll_floor: float = -np.inf


def hamming_budget(seg_len: int, w_s: int, lam: ConstraintSet) -> JamBudget:
    """Max total corruption inside any seg_len stretch of an admissible state.

    Every disjoint state window carries at most k non-zero symbols, the most
    an admissible window allows, so a segment of length L admits at most
    floor(L/w_s)*k + min(k, L mod w_s).
    """
    weight = np.ones(lam.dim)
    weight[0] = 0.0
    hi, _ = lam.max_linear(weight)
    k = int(math.floor(hi * w_s + 1e-9))
    radius = (seg_len // w_s) * k + min(k, seg_len % w_s)
    return JamBudget(kind="hamming", radius=radius)


def likelihood_budget(p_x: Distribution, channel: Channel, lam: ConstraintSet) -> JamBudget:
    """Per-letter log-likelihood floor that admits every admissible jammer.

    Codewords are scored by the mean of ll(y|x) = log2 V_ref(y|x), where
    V_ref averages the channel over the reference state law
    lam.feasible_point().  For the true codeword the expectation of that
    score is linear in the jammer's state law, so its minimum over the
    admissible set is exact; the floor is that minimum less a concentration
    slack of _LL_SLACK bits.
    """
    v = induced_channel(lam.feasible_point(), channel)
    ll = np.log2(np.maximum(v, LOG_FLOOR))
    # d[s] = E[ll(y|x)] contribution of state s under the true input law
    d = np.einsum("x,xsy,xy->s", p_x.probs, channel.table, ll)
    worst, _ = lam.min_linear(d)
    return JamBudget(kind="likelihood", ll_table=ll, ll_floor=worst - _LL_SLACK)


# ---------------------------------------------------------------------------
# Random codes


@dataclass(frozen=True)
class ListCode:
    """Expurgated random code with a size-capped budget-ball list decoder."""

    codewords: np.ndarray  # (M, n) int8, the rows expurgation kept
    ids: np.ndarray  # (M,) int64, increasing: each row's index before expurgation

    def __post_init__(self):
        self.codewords.setflags(write=False)
        self.ids.setflags(write=False)

    @cached_property
    def _packed_codewords(self) -> np.ndarray:
        """(words, codewords) _pack_bits array, packed on first Hamming scoring."""
        return np.ascontiguousarray(_pack_bits(self.codewords).T)

    def _scores(self, y_rows, budget: JamBudget, radius: int | None = None) -> np.ndarray:
        """Scores (rows, codewords) of every codeword against each row of a (rows, n)
        output block, lower better.  A Hamming scan given a radius drops each pair
        whose running score passes it: such a pair reads some score above it."""
        y = np.asarray(y_rows, dtype=np.int8)
        n = self.codewords.shape[1]
        if y.ndim != 2 or y.shape[1] != n:
            raise ValueError(f"output length {y.shape[-1]} != code length {n}")
        if budget.kind == "hamming":
            return self._hamming_scan(y, radius)
        if budget.kind == "likelihood":
            # row by row: one (codewords, n) table of letter scores at a time
            return -np.array([budget.ll_table[self.codewords, row].mean(axis=1) for row in y])
        raise ValueError(f"unknown budget kind {budget.kind!r}")

    def _hamming_scan(self, y: np.ndarray, radius: int | None) -> np.ndarray:
        """Hamming distances from each row of a binary (rows, n) block to every codeword.

        Running sums go one packed word at a time, in the narrowest unsigned
        type that holds n.  Given a radius, the pairs still within it are
        finished alone once that costs less than one more dense word; the
        others keep the partial sum that passed the radius.
        """
        code, y_words = self._packed_codewords, _pack_bits(y).T
        words, size = code.shape
        scores = np.zeros((y.shape[0], size),
                          dtype=np.uint16 if y.shape[1] < 1 << 16 else np.uint32)
        diff = np.empty(scores.shape, dtype=np.uint64)
        ones = np.empty(scores.shape, dtype=np.uint8)
        for w in range(words):
            np.bitwise_xor(code[w], y_words[w, :, None], out=diff)
            scores += np.bitwise_count(diff, out=ones)
            left = words - w - 1
            if radius is None or not left:
                continue
            inside = scores <= radius
            if np.count_nonzero(inside) * _PAIR_COST * (left + _PAIR_SETUP) < scores.size:
                pairs = np.flatnonzero(inside)
                rows, pos = np.divmod(pairs, size)
                dist = scores.reshape(-1)[pairs]
                for v in range(w + 1, words):
                    dist += np.bitwise_count(code[v][pos] ^ y_words[v][rows])
                scores.reshape(-1)[pairs] = dist
                break
        return scores


def delta_interior(p: Distribution, cset: ConstraintSet, delta: float) -> bool:
    """Sufficient check that the L1 ball of radius delta around p is in cset."""
    for c, b in cset.inequalities:
        spread = float(np.max(c) - np.min(c))
        if b - float(c @ p.probs) < delta / 2.0 * spread - 1e-12:
            return False
    return True


def _random_code(
    skeleton: np.ndarray,
    count: int,
    law: Distribution,
    gamma: ConstraintSet,
    w_x: int,
    rng: np.random.Generator,
    *,
    prefix_context=None,
    suffix_context=None,
    fiber: int = 1,
) -> tuple[ListCode, ExpurgationStats]:
    """Sample count i.i.d. law rows and expurgate them in their segment.

    Each row is written, in order, into the -1 entries (the slots) of the
    skeleton; the code length is the slot count.  Each filled segment is
    window-checked between prefix_context and suffix_context.  Rows come in
    hash fibers of `fiber` consecutive ids, one message's codewords, and a
    fiber that lost a row to expurgation is dropped whole.  When no row is
    dropped the code holds the sampled rows themselves, not a copy.
    """
    if count > _MAX_CODEWORDS:
        raise ValueError(
            f"{count} codewords exceed the desk-scale cap {_MAX_CODEWORDS}; "
            "lower the message count"
        )
    slots = np.flatnonzero(skeleton < 0)
    raw = sample_iid(law, (count, slots.size), rng)
    segments = raw  # a skeleton of slots only: each segment is its row
    if slots.size < skeleton.size:
        segments = np.tile(skeleton, (count, 1))
        segments[:, slots] = raw
    kept, stats = expurgate(
        segments, w_x, gamma, prefix_context=prefix_context, suffix_context=suffix_context
    )
    ids = stats.kept_indices
    if ids.size == 0:
        raise CodeConstructionError("expurgation removed every codeword")
    if fiber > 1 and stats.removed:
        complete = np.bincount(ids // fiber, minlength=count // fiber) == fiber
        ids = ids[complete[ids // fiber]]
        if ids.size == 0:
            raise CodeConstructionError(
                "no message kept a complete hash fiber after expurgation"
            )
    if segments is not raw or ids.size < kept.shape[0]:
        # expurgate's rows carry the skeleton's symbols or a dropped fiber's
        # rows: they are freed before the code's one copy of its rows
        del kept, segments
        kept = raw if ids.size == count else raw[ids]
    return ListCode(codewords=kept, ids=ids.astype(np.int64)), stats


def _pack_bits(rows: np.ndarray) -> np.ndarray:
    """Binary int8 rows packed along the last axis into uint64 words.

    The packed bytes are zero-padded to a whole number of words, so two
    arrays packed alike differ in exactly the bits where their symbols do.
    """
    if rows.size and rows.view(np.uint8).max() > 1:  # a negative symbol reads 128 or more
        raise ValueError("Hamming scoring needs binary symbols; got one outside {0, 1}")
    packed = np.packbits(rows, axis=-1)
    width = -(-packed.shape[-1] // 8) * 8  # bytes, rounded up to whole words
    words = np.zeros(packed.shape[:-1] + (width,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


def _ranked_lists(y_rows, code: ListCode, budget: JamBudget):
    """Block list decoding as arrays: (rows, positions, sizes, overflow).

    rows and positions hold each row's list in row order, best score first
    and ties by position, truncated to _L_MAX; sizes and overflow are per
    row.  A pair is admissible when its score is within the Hamming radius or
    at most minus the likelihood floor; the admissible pairs of the whole
    block are ranked by one lexsort.
    """
    if budget.kind == "hamming":
        scores = code._scores(y_rows, budget, budget.radius)
        ok = scores <= budget.radius
    else:
        scores = code._scores(y_rows, budget)
        ok = scores <= -budget.ll_floor
    size = scores.shape[1]
    found = ok.sum(axis=1, dtype=np.int32)
    if found.max(initial=0) > _L_MAX:
        # the mask is a threshold on the score, so a longer row keeps its entries
        # up to its _L_MAX-th least key; an integer score and the position pack
        # into one key below (n + 1) * size, so ties stop there too
        key = scores
        if scores.dtype.kind == "u":
            key = scores.astype(np.uint32 if scores.dtype == np.uint16 else np.uint64)
            key *= size
            key += np.arange(size, dtype=key.dtype)
        ok &= key <= np.partition(key, _L_MAX - 1, axis=1)[:, _L_MAX - 1 : _L_MAX]
    rows, pos = np.divmod(np.flatnonzero(ok), size)
    order = np.lexsort((pos, scores[rows, pos], rows))
    rows, pos = rows[order], pos[order]
    kept = np.bincount(rows, minlength=found.size)
    listed = np.arange(rows.size) - (np.cumsum(kept) - kept)[rows] < _L_MAX
    return rows[listed], pos[listed], np.minimum(found, _L_MAX), found > _L_MAX


# ---------------------------------------------------------------------------
# Interleaved window layout


def interleave_allocation(
    w_x: int,
    w_s: int,
    lam_frac: float,
    window_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Split one length-w_x window into w_s type-1 and w_x - w_s type-2 positions.

    Window i of the buffer phase starts with min(i*l, w_s) type-1 positions
    (l = lam_frac*w_s) and the matching block of type-2 positions, then
    fills sequentially: position j goes to type-2 exactly when the fraction
    of earlier positions in type-2 is below 1 - w_s/w_x.  From i*l >= w_s on,
    so in the last buffer window i = ceil(1/lam_frac), this is the plain block
    split that the key phase repeats.  Positions are 0-based.
    """
    if not 1 <= w_s <= w_x:
        raise ValueError(f"the interleaved layout needs 1 <= w_s <= w_x = {w_x}, got w_s = {w_s}")
    if lam_frac <= 0:
        raise ValueError(f"lam_frac must be positive, got {lam_frac}")
    if window_index < 0:
        raise ValueError("window_index must be >= 0")
    l = lam_frac * w_s
    if abs(l - round(l)) > 1e-9 or round(l) < 1:
        raise ValueError(f"l = lam_frac*w_s = {l} must be an integer >= 1")
    l = round(l)

    li = min(window_index * l, w_s)
    ci = math.ceil((w_x - w_s) * li / w_s)
    in_s2 = np.zeros(w_x, dtype=bool)
    in_s2[li : li + ci] = True
    count2 = ci
    for j in range(li + ci, w_x):
        # exact integer form of count2 / j < 1 - w_s/w_x; an empty prefix
        # counts as fraction 0, so the first position is type-2 when
        # w_s < w_x
        if (count2 * w_x < (w_x - w_s) * j) or (j == 0 and w_s < w_x):
            in_s2[j] = True
            count2 += 1
    s1 = np.flatnonzero(~in_s2)
    s2 = np.flatnonzero(in_s2)
    if s1.size != w_s:
        raise CodeConstructionError(
            f"fill rule produced {s1.size} type-1 positions, expected {w_s}"
        )
    return s1, s2


@dataclass(frozen=True)
class PhasePlan:
    """Segment lengths and, for the interleaved layout, the window recipe."""

    layout: str
    n1: int
    w_x: int
    w_s: int
    phase2_len: int
    phase3_len: int
    lam_frac: float | None = None  # thm2, the buffer's ramp step as a fraction of w_s

    @property
    def total_length(self) -> int:
        return self.n1 + self.phase2_len + self.phase3_len

    @property
    def phase3_start(self) -> int:
        return self.n1 + self.phase2_len


def _per_window_counts(t: Distribution, slots: int, what: str) -> np.ndarray:
    counts = _rounded_counts(t, slots)
    if np.max(np.abs(t.probs * slots - counts)) > 1e-9:
        raise ValueError(
            f"{what} must scale to integer symbol counts over {slots} slots, "
            f"got {t.probs * slots}"
        )
    return counts


def _type1_mask(plan: PhasePlan) -> np.ndarray:
    """Type-1 positions of phases II and III, one window of w_x at a time: the key
    windows repeat the last buffer window's block split."""
    n2 = plan.phase2_len // plan.w_x
    mask = np.zeros(((plan.phase2_len + plan.phase3_len) // plan.w_x, plan.w_x), dtype=bool)
    for i in range(n2):
        mask[i, interleave_allocation(plan.w_x, plan.w_s, plan.lam_frac, i)[0]] = True
    mask[n2:] = mask[n2 - 1]
    return mask.ravel()


def build_interleaved_region(plan: PhasePlan, t1: Distribution, t2: Distribution):
    """Phase-II sequence and the phase-III skeleton (type-1 slots left as -1)."""
    t1_block = block_pattern(_per_window_counts(t1, plan.w_s, "w_s * t1"))
    t2_block = block_pattern(_per_window_counts(t2, plan.w_x - plan.w_s, "(w_x - w_s) * t2"))
    mask = _type1_mask(plan)
    # each window holds w_s type-1 and w_x - w_s type-2 positions, filled in order
    region = np.full(mask.size, -1, dtype=np.int8)
    region[~mask] = np.tile(t2_block, mask.size // plan.w_x)
    phase2 = region[: plan.phase2_len]
    phase2[mask[: plan.phase2_len]] = np.tile(t1_block, plan.phase2_len // plan.w_x)
    return phase2, region[plan.phase2_len :]


def type1_window_fractions(plan: PhasePlan) -> np.ndarray:
    """Sliding-window type-1 location fractions over phases II and III."""
    return _window_counts(_type1_mask(plan), True, plan.w_x) / plan.w_x


# ---------------------------------------------------------------------------
# Key code (hash-key transmission)


@dataclass(frozen=True)
class KeyCode(ListCode):
    """The random code carrying the two hash keys: row ids are r1 * q + r2."""

    field_bits: int

    @property
    def q(self) -> int:
        return 1 << self.field_bits

    def encode_rows(self, r1, r2) -> np.ndarray:
        """Key codewords (rows, n) for equal-length arrays of key pairs."""
        kid = np.asarray(r1) * self.q + np.asarray(r2)
        pos = np.searchsorted(self.ids, kid)
        kept = pos < self.ids.size
        kept[kept] = self.ids[pos[kept]] == kid[kept]
        if not kept.all():
            first = np.argmin(kept)
            raise KeyError(f"key pair ({r1[first]}, {r2[first]}) was expurgated")
        return self.codewords[pos]

    def draw_keys(self, rng: np.random.Generator) -> tuple[int, int]:
        return divmod(int(self.ids[rng.integers(self.ids.size)]), self.q)

    def decode_rows(self, y_rows, budget: JamBudget) -> tuple[np.ndarray, np.ndarray]:
        """Best key pair for each row of a (rows, n) output block, as arrays (r1, r2),
        by the budget's scores alone (its threshold is not read); ties go to the
        smallest key id, the first in ids."""
        return np.divmod(self.ids[np.argmin(self._scores(y_rows, budget), axis=1)], self.q)


# ---------------------------------------------------------------------------
# Full three-phase codec


@dataclass(frozen=True)
class CodecParams:
    """Build-time knobs for the three-phase code.

    The window lengths, and with them the thm2 ratio alpha = w_s/w_x, are
    not knobs: they come from the WindowedAvcSpec the code is built for.
    """

    layout: str
    n1: int
    message_bits: int
    p_x: Distribution
    field_bits: int = 6
    key_type: Distribution | None = None  # thm1; defaults to p_x
    key_len: int | None = None  # default 2*w_x; thm2 rounds up to whole windows
    lam_frac: float | None = None  # thm2; the planner defaults it to _LAM_FRAC
    t1: Distribution | None = None  # thm2
    t2: Distribution | None = None  # thm2
    allow_symmetrizable_key_type: bool = False

    def __post_init__(self):
        _check_field_bits(self.field_bits)


def make_phase_plan(params: CodecParams, w_x: int, w_s: int) -> PhasePlan:
    """Segment lengths for params.layout at input windows w_x and state windows
    w_s; the key length defaults to 2*w_x.

    The interleaved layout needs w_s <= w_x and rounds the key length up to
    whole windows of w_s key slots each; its lam_frac defaults to _LAM_FRAC,
    and lam_frac*w_s must be a positive integer.  A field the layout does not
    read is refused: t1, t2 and lam_frac under thm1, key_type under thm2.
    """
    key_len = params.key_len if params.key_len is not None else 2 * w_x
    if key_len < 1:
        raise ValueError("key code length must be >= 1")
    if params.layout == LAYOUT_THM1:
        ignored = [k for k in ("t1", "t2", "lam_frac") if getattr(params, k) is not None]
        if ignored:
            raise ValueError(f"layout {LAYOUT_THM1!r} does not read {' or '.join(ignored)}")
        return PhasePlan(
            layout=LAYOUT_THM1, n1=params.n1, w_x=w_x, w_s=w_s,
            phase2_len=w_x, phase3_len=key_len,
        )
    if params.layout != LAYOUT_THM2:
        raise ValueError(
            f"unknown layout {params.layout!r}; expected {LAYOUT_THM1!r} or {LAYOUT_THM2!r}"
        )
    missing = [k for k in ("t1", "t2") if getattr(params, k) is None]
    if missing:
        raise ValueError(
            f"interleaved layout {LAYOUT_THM2!r} requires t1 and t2; "
            f"missing {', '.join(missing)}"
        )
    if params.key_type is not None:
        raise ValueError(f"layout {LAYOUT_THM2!r} does not read key_type; its keys ride on t1")
    lam_frac = params.lam_frac if params.lam_frac is not None else _LAM_FRAC
    interleave_allocation(w_x, w_s, lam_frac)  # refuses w_s > w_x and a bad ramp step l
    n2_windows = 1 + math.ceil(1.0 / lam_frac)
    n3_windows = math.ceil(key_len / w_s)
    return PhasePlan(
        layout=LAYOUT_THM2, n1=params.n1, w_x=w_x, w_s=w_s,
        phase2_len=n2_windows * w_x, phase3_len=n3_windows * w_x,
        lam_frac=lam_frac,
    )


class BlockDecode(NamedTuple):
    """A decoded (rows, n) block as arrays: one entry per row, survivors one per pair."""

    status: np.ndarray  # index into STATUSES
    position: np.ndarray  # the first survivor's message position, -1 without one
    list_size: np.ndarray
    overflow: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    survivor_rows: np.ndarray  # survivors in row order, ascending ids within a row
    survivor_ids: np.ndarray


@dataclass(frozen=True)
class ThreePhaseCodec:
    plan: PhasePlan
    hash_params: HashParams
    gamma: ConstraintSet
    phase1_flat: ListCode  # (M_surv * q, n1), message-major
    phase2_seq: np.ndarray
    phase3_skeleton: np.ndarray  # key segment with its key slots left as -1
    key_code: KeyCode
    budget1: JamBudget  # phase-1 list decoding; key decoding reads only its scoring

    def __post_init__(self):
        self.phase2_seq.setflags(write=False)
        self.phase3_skeleton.setflags(write=False)

    @cached_property
    def message_ids(self) -> np.ndarray:
        """Surviving original message ids: each kept message holds q consecutive rows."""
        ids = self.phase1_flat.ids[:: self.q] // self.q
        ids.setflags(write=False)
        return ids

    @property
    def message_count(self) -> int:
        return self.message_ids.size

    @property
    def q(self) -> int:
        return self.hash_params.field_order

    @cached_property
    def _hash_table(self) -> np.ndarray:
        """(messages, q) hashes at r1 = 0; the hash under (r1, r2) is r1 ^ T[pos, r2]."""
        chunks = chunk_message(self.message_ids, self.hash_params)[:, None, :]
        table = poly_hash(chunks, 0, np.arange(self.q)[None, :], self.hash_params)
        return table.astype(np.uint8)

    def draw_message(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.message_count))

    @property
    def key_slots(self) -> np.ndarray:
        """Positions of the key codeword in the transmission."""
        return self.plan.phase3_start + np.flatnonzero(self.phase3_skeleton < 0)

    def encode_rows(self, message_pos, r1, r2) -> np.ndarray:
        """Full codewords for equal-length arrays of message positions and keys: one
        (rows, n) block, each row the transmission of its message under its keys."""
        pos, r1, r2 = (np.asarray(v) for v in (message_pos, r1, r2))
        out = (pos < 0) | (pos >= self.message_count)
        if out.any():
            raise ValueError(f"message position {pos[np.argmax(out)]} out of range")
        # an out-of-range key would index another message's hash or alias another key id
        bad = np.ones(pos.shape, dtype=bool)
        if r1.dtype.kind in "iu" and r2.dtype.kind in "iu":
            bad = (r1 < 0) | (r1 >= self.q) | (r2 < 0) | (r2 >= self.q)
        if bad.any():
            t = np.argmax(bad)
            raise ValueError(f"keys r1, r2 must be integers in [0, {self.q}), got {r1[t]}, {r2[t]}")
        h = r1 ^ self._hash_table[pos, r2]
        plan = self.plan
        full = np.empty((pos.size, plan.total_length), dtype=np.int8)
        full[:, : plan.n1] = self.phase1_flat.codewords[pos * self.q + h]
        full[:, plan.n1 : plan.phase3_start] = self.phase2_seq
        full[:, plan.phase3_start :] = self.phase3_skeleton
        full[:, self.key_slots] = self.key_code.encode_rows(r1, r2)
        valid = windows_valid_rows(full, plan.w_x, self.gamma)
        if not valid.all():
            report = verify_windows(full[np.argmin(valid)], plan.w_x, self.gamma)
            raise CodeConstructionError(
                f"assembled codeword violates an input window at start "
                f"{report.first_violation()}"
            )
        return full

    def decode_rows(self, y_rows) -> BlockDecode:
        """List-decode the first segment, recover the keys and filter the list by hash,
        for each row of a (rows, n) output block; each stage handles the whole block
        in one pass."""
        y = np.asarray(y_rows, dtype=np.int8)
        if y.ndim != 2 or y.shape[1] != self.plan.total_length:
            raise ValueError(
                f"output length {y.shape[-1]} != transmission length {self.plan.total_length}"
            )
        rows, flat, sizes, overflow = _ranked_lists(y[:, : self.plan.n1], self.phase1_flat,
                                                    self.budget1)
        r1, r2 = self.key_code.decode_rows(y[:, self.key_slots], self.budget1)
        # keep the listed messages whose hash under their row's keys matches their codeword's
        pos, h = np.divmod(flat, self.q)
        match = h == r1[rows] ^ self._hash_table[pos, r2[rows]]
        order = np.lexsort((pos[match], rows[match]))
        rows, pos = rows[match][order], pos[match][order]
        count = np.bincount(rows, minlength=y.shape[0])
        position = np.full(count.size, -1)
        listed, first = np.unique(rows, return_index=True)
        position[listed] = pos[first]
        # indices into STATUSES: empty-list, no-survivor, unique, else ambiguous
        status = np.select([sizes == 0, count == 0, count == 1], [1, 2, 0], 3)
        return BlockDecode(status, position, sizes, overflow, r1, r2, rows,
                           self.message_ids[pos])


def build_three_phase_codec(
    params: CodecParams,
    spec: WindowedAvcSpec,
    rng: np.random.Generator,
) -> tuple[ThreePhaseCodec, dict]:
    """Construct all three segments; returns the codec and build statistics.

    The channel, the input set gamma, the state set lam and both window
    lengths come from spec, so a thm2 code interleaves in the ratio
    spec.alpha; the plan sets the transmission length and spec.n is not
    read.  Phase-1 codewords are sampled per (message, hash value) pair;
    after expurgation any message with an incomplete hash fiber is dropped
    so the encoder can realize every key draw.  Each sampling law must sit
    strictly inside its input set (delta-interior), otherwise a constant
    fraction of windows would violate it and expurgation would gut the
    code.  The key-carrying law must also be non-symmetrizable for
    (channel, lam), since the keys are what rescue unique decoding;
    params.allow_symmetrizable_key_type lifts that check only to demonstrate
    the failure mode.
    """
    gamma, lam, channel = spec.gamma, spec.lam, spec.channel
    hp = HashParams(params.field_bits, max(1, math.ceil(params.message_bits / params.field_bits)))
    q = hp.field_order
    n_msg = 1 << params.message_bits

    plan = make_phase_plan(params, spec.w_x, spec.w_s)
    if not delta_interior(params.p_x, gamma, _DELTA):
        raise ValueError("input law is not in the delta-interior of the input set")
    phase2_seq, phase3_skeleton, key_t = _buffer_region(params, plan, spec)
    if not params.allow_symmetrizable_key_type and ecn_symmetrizable(key_t, channel, lam).feasible:
        raise ValueError(
            "key-carrying law is symmetrizable for the state constraints; "
            "key transmission cannot be made reliable"
        )
    # The buffer region must be feasible on its own before anything random
    # is attached to it.
    rep = verify_windows(phase2_seq, plan.w_x, gamma)
    if not rep.valid:
        raise CodeConstructionError(
            f"deterministic buffer violates an input window at start "
            f"{rep.first_violation()}"
        )

    # budget1 also scores the key words, nearest first: a Hamming score reads
    # no radius, and the likelihood table depends on lam and the channel only.
    if channel.is_binary_additive():
        budget1 = hamming_budget(plan.n1, plan.w_s, lam)
    else:
        budget1 = likelihood_budget(params.p_x, channel, lam)

    # Phase 1: one codeword per (message, hash value) pair; messages whose
    # hash fiber lost a codeword to expurgation are dropped.  Expurgation
    # trims the phase-2 context to the w_x - 1 symbols a window can reach.
    phase1, p1_stats = _random_code(
        np.full(plan.n1, -1, dtype=np.int8), n_msg * q, params.p_x, gamma, plan.w_x, rng,
        suffix_context=phase2_seq, fiber=q,
    )

    keys, key_stats = _random_code(
        phase3_skeleton, q * q, key_t, gamma, plan.w_x, rng, prefix_context=phase2_seq,
    )
    key_code = KeyCode(codewords=keys.codewords, ids=keys.ids, field_bits=params.field_bits)

    codec = ThreePhaseCodec(
        plan=plan,
        hash_params=hp,
        gamma=gamma,
        phase1_flat=phase1,
        phase2_seq=phase2_seq,
        phase3_skeleton=phase3_skeleton,
        key_code=key_code,
        budget1=budget1,
    )
    build_stats = {
        "hash_collision_bound": hp.collision_bound,
        "phase1_total": int(p1_stats.total),
        "phase1_removed": int(p1_stats.removed),
        "phase1_removed_fraction": p1_stats.removed_fraction,
        "messages_built": int(n_msg),
        "messages_kept": codec.message_count,
        "key_total": int(key_stats.total),
        "key_removed": int(key_stats.removed),
        "key_removed_fraction": key_stats.removed_fraction,
    }
    return codec, build_stats


def _buffer_region(params: CodecParams, plan: PhasePlan, spec: WindowedAvcSpec):
    """The layout's buffer: (phase-2 sequence, phase-3 skeleton with key
    slots as -1, key-carrying law), each law checked against its set."""
    gamma = spec.gamma
    if plan.layout == LAYOUT_THM1:
        counts = _rounded_counts(params.p_x, min(_GUARD_DENOMINATOR, plan.w_x))
        if not delta_interior(Distribution(counts / counts.sum()), gamma, _DELTA):
            raise ValueError("guard type is not in the delta-interior of the input set")
        key_type = params.key_type if params.key_type is not None else params.p_x
        if not delta_interior(key_type, gamma, _DELTA):
            raise ValueError("key-carrying law is not in the delta-interior of the input set")
        skeleton = np.full(plan.phase3_len, -1, dtype=np.int8)
        return guard_word(counts, plan.w_x), skeleton, key_type
    _validate_interleaved_types(params, plan, spec)
    phase2_seq, skeleton = build_interleaved_region(plan, params.t1, params.t2)
    return phase2_seq, skeleton, params.t1


def _validate_interleaved_types(params: CodecParams, plan: PhasePlan, spec: WindowedAvcSpec):
    gamma, alpha = spec.gamma, spec.alpha
    enlarged = gamma_prime(gamma, alpha)
    if not delta_interior(params.t1, enlarged, _DELTA):
        raise ValueError(
            "type-1 law is not in the delta-interior of the ratio-enlarged input set"
        )
    mix = Distribution(alpha * params.t1.probs + (1.0 - alpha) * params.t2.probs)
    # Sliding windows deviate from the mix by at most lam_frac * alpha in TV,
    # an L1 radius of twice that.
    dev = plan.lam_frac * alpha
    if not delta_interior(mix, gamma, 2 * dev):
        raise ValueError(
            "window-type margin too small: alpha*t1 + (1-alpha)*t2 must sit "
            f"at least lam_frac*alpha = {dev:g} (TV) inside the input set"
        )

