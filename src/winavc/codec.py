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

import numpy as np

from . import gf2
from .core import (
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
    block_pattern,
    expurgate,
    guard_word,
    verify_windows,
    windows_valid,
    windows_valid_rows,
)

LAYOUT_THM1 = "thm1"
LAYOUT_THM2 = "thm2"

_DELTA = 0.02  # L1 margin every sampling law keeps inside its input set
_LL_SLACK = 0.05  # bits per letter the likelihood floor sits below the worst admissible mean
_L_MAX = 32  # decoded-list size cap
_MAX_CODEWORDS = 1 << 16  # codewords one list-code build may sample
_GUARD_DENOMINATOR = 8  # the thm1 guard type is p_x rounded to this denominator


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

    @classmethod
    def for_message_bits(cls, message_bits: int, field_bits: int) -> "HashParams":
        _check_field_bits(field_bits)  # before dividing by it
        k = max(1, math.ceil(message_bits / field_bits))
        return cls(field_bits=field_bits, chunk_count=k)

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


def max_window_corruption(w_s: int, lam: ConstraintSet) -> int:
    """Largest number of non-zero state symbols an admissible window allows."""
    weight = np.ones(lam.dim)
    weight[0] = 0.0
    hi, _ = lam.max_linear(weight)
    return int(math.floor(hi * w_s + 1e-9))


def hamming_budget(seg_len: int, w_s: int, lam: ConstraintSet) -> JamBudget:
    """Max total corruption inside any seg_len stretch of an admissible state.

    Every disjoint state window carries at most k non-zero symbols, so a
    segment of length L admits at most floor(L/w_s)*k + min(k, L mod w_s).
    """
    k = max_window_corruption(w_s, lam)
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
    ll = np.log2(np.maximum(v, 1e-300))
    ll[v <= 0] = -300.0
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

    def score_rows(self, y_rows, budget: JamBudget) -> tuple[np.ndarray, np.ndarray]:
        """(scores, admissible mask) of every codeword against each row of a (rows, n)
        output block, two (rows, codewords) arrays; lower scores are better."""
        y = np.asarray(y_rows, dtype=np.int8)
        n = self.codewords.shape[1]
        if y.ndim != 2 or y.shape[1] != n:
            raise ValueError(f"output length {y.shape[-1]} != code length {n}")
        if budget.kind == "hamming":
            # one pass per packed word, so no (rows, words, codewords) array is built
            packed = _pack_bits(y)
            scores = np.zeros((y.shape[0], self.codewords.shape[0]), dtype=np.int32)
            diff = np.empty(scores.shape, dtype=np.uint64)
            for word, y_word in zip(self._packed_codewords, packed.T):
                np.bitwise_xor(word, y_word[:, None], out=diff)
                scores += np.bitwise_count(diff)
            return scores, scores <= budget.radius
        if budget.kind == "likelihood":
            # row by row: one (codewords, n) table of letter scores at a time
            ll = np.array([budget.ll_table[self.codewords, row].mean(axis=1) for row in y])
            return -ll, ll >= budget.ll_floor
        raise ValueError(f"unknown budget kind {budget.kind!r}")


@dataclass(frozen=True)
class ListDecodeResult:
    messages: tuple[int, ...]
    overflow: bool


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
    """Binary rows packed along the last axis into uint64 words.

    The packed bytes are zero-padded to a whole number of words, so two
    arrays packed alike differ in exactly the bits where their symbols do.
    """
    if rows.size and (rows.min() < 0 or rows.max() > 1):
        raise ValueError("Hamming scoring needs binary symbols; got one outside {0, 1}")
    packed = np.packbits(rows, axis=-1)
    width = -(-packed.shape[-1] // 8) * 8  # bytes, rounded up to whole words
    words = np.zeros(packed.shape[:-1] + (width,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


def list_decode_rows(y_rows, code: ListCode, budget: JamBudget) -> list[ListDecodeResult]:
    """Positions of all codewords within the jamming budget for each row of a (rows, n)
    output block, best score first and ties by position, truncated to _L_MAX with
    the overflow flagged; every row is scored in one pass."""
    scores, ok = code.score_rows(y_rows, budget)
    results = []
    for row_scores, row_ok in zip(scores, ok):
        idx = np.flatnonzero(row_ok)
        ranked = idx[np.lexsort((idx, row_scores[idx]))]
        results.append(ListDecodeResult(
            messages=tuple(int(i) for i in ranked[:_L_MAX]),
            overflow=ranked.size > _L_MAX,
        ))
    return results


# ---------------------------------------------------------------------------
# Interleaved window layout


def interleave_allocation(
    w_x: int,
    w_s: int,
    lam_frac: float,
    window_index: int = 0,
    phase: str = "II",
) -> tuple[np.ndarray, np.ndarray]:
    """Split one length-w_x window into w_s type-1 and w_x - w_s type-2 positions.

    Window i of the buffer phase starts with min(i*l, w_s) type-1 positions
    (l = lam_frac*w_s) and the matching block of type-2 positions, then
    fills sequentially: position j goes to type-2 exactly when the fraction
    of earlier positions in type-2 is below 1 - w_s/w_x.  The key phase (and
    the last buffer window) is the plain block split.  Positions are 0-based.
    """
    if not 1 <= w_s <= w_x:
        raise ValueError(f"the interleaved layout needs 1 <= w_s <= w_x = {w_x}, got w_s = {w_s}")
    if lam_frac <= 0:  # checked for phase III too, so the planner's call refuses it
        raise ValueError(f"lam_frac must be positive, got {lam_frac}")
    if phase == "III":
        return np.arange(w_s), np.arange(w_s, w_x)
    if phase != "II":
        raise ValueError(f"phase must be 'II' or 'III', got {phase!r}")
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
    lam_frac: float | None = None  # thm2

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
    """Type-1 positions of phases II and III, one window of w_x at a time."""
    n2 = plan.phase2_len // plan.w_x
    mask = np.zeros(((plan.phase2_len + plan.phase3_len) // plan.w_x, plan.w_x), dtype=bool)
    for i in range(n2):
        mask[i, interleave_allocation(plan.w_x, plan.w_s, plan.lam_frac, i, "II")[0]] = True
    mask[n2:, interleave_allocation(plan.w_x, plan.w_s, plan.lam_frac, 0, "III")[0]] = True
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
    c = np.concatenate([[0], np.cumsum(_type1_mask(plan))])
    w = plan.w_x
    return (c[w:] - c[:-w]) / w


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
        """Best key pair under the budget scoring for each row of a (rows, n) output
        block, as arrays (r1, r2); ties go to the smallest key id, the first in ids."""
        scores, _ = self.score_rows(y_rows, budget)
        return np.divmod(self.ids[np.argmin(scores, axis=1)], self.q)


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
    key_type: Distribution | None = None  # defaults to p_x
    key_len: int | None = None  # default 2*w_x; thm2 rounds up to whole windows
    lam_frac: float = 0.1  # thm2
    t1: Distribution | None = None  # thm2
    t2: Distribution | None = None  # thm2
    allow_symmetrizable_key_type: bool = False

    def __post_init__(self):
        _check_field_bits(self.field_bits)


def make_phase_plan(params: CodecParams, w_x: int, w_s: int) -> PhasePlan:
    """Segment lengths for params.layout at input windows w_x and state windows
    w_s; the key length defaults to 2*w_x.

    The interleaved layout needs w_s <= w_x and rounds the key length up to
    whole windows of w_s key slots each.
    """
    key_len = params.key_len if params.key_len is not None else 2 * w_x
    if key_len < 1:
        raise ValueError("key code length must be >= 1")
    if params.layout == LAYOUT_THM1:
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
    interleave_allocation(w_x, w_s, params.lam_frac, 0, "III")  # refuses w_s > w_x, lam_frac <= 0
    n2_windows = 1 + math.ceil(1.0 / params.lam_frac)
    n3_windows = math.ceil(key_len / w_s)
    return PhasePlan(
        layout=LAYOUT_THM2, n1=params.n1, w_x=w_x, w_s=w_s,
        phase2_len=n2_windows * w_x, phase3_len=n3_windows * w_x,
        lam_frac=params.lam_frac,
    )


@dataclass(frozen=True)
class DecodeResult:
    message_id: int | None
    status: str  # "unique" | "empty-list" | "no-survivor" | "ambiguous"
    list_size: int
    overflow: bool
    keys: tuple[int, int]
    survivors: tuple[int, ...]


@dataclass(frozen=True)
class ThreePhaseCodec:
    plan: PhasePlan
    hash_params: HashParams
    gamma: ConstraintSet
    message_ids: np.ndarray  # surviving original message ids
    phase1_flat: ListCode  # (M_surv * q, n1), message-major
    phase2_seq: np.ndarray
    phase3_skeleton: np.ndarray  # key segment with its key slots left as -1
    key_code: KeyCode
    budget1: JamBudget  # phase-1 list decoding
    budget3: JamBudget  # key decoding

    def __post_init__(self):
        self.message_ids.setflags(write=False)
        self.phase2_seq.setflags(write=False)
        self.phase3_skeleton.setflags(write=False)

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

    def draw_keys(self, rng: np.random.Generator) -> tuple[int, int]:
        return self.key_code.draw_keys(rng)

    @property
    def key_slots(self) -> np.ndarray:
        """Positions of the key codeword in the transmission."""
        return self.plan.phase3_start + np.flatnonzero(self.phase3_skeleton < 0)

    def encode_rows(self, message_pos, r1, r2, *, check_windows: bool = True) -> np.ndarray:
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
        if check_windows:
            valid = windows_valid_rows(full, plan.w_x, self.gamma)
            if not valid.all():
                report = verify_windows(full[np.argmin(valid)], plan.w_x, self.gamma)
                raise CodeConstructionError(
                    f"assembled codeword violates an input window at start "
                    f"{report.first_violation()}"
                )
        return full

    def decode_rows(self, y_rows) -> list[DecodeResult]:
        """List-decode the first segment, recover the keys and filter the list by hash,
        for each row of a (rows, n) output block; each stage is scored in one pass."""
        y = np.asarray(y_rows, dtype=np.int8)
        if y.ndim != 2 or y.shape[1] != self.plan.total_length:
            raise ValueError(
                f"output length {y.shape[-1]} != transmission length {self.plan.total_length}"
            )
        listings = list_decode_rows(y[:, : self.plan.n1], self.phase1_flat, self.budget1)
        r1s, r2s = self.key_code.decode_rows(y[:, self.key_slots], self.budget3)
        return [
            self._filter(listing, int(r1), int(r2))
            for listing, r1, r2 in zip(listings, r1s, r2s)
        ]

    def _filter(self, listing: ListDecodeResult, r1: int, r2: int) -> DecodeResult:
        """Keep the listed messages whose hash under (r1, r2) matches their codeword's."""
        if not listing.messages:
            return DecodeResult(None, "empty-list", 0, listing.overflow, (r1, r2), ())
        pos, h = np.divmod(np.array(listing.messages), self.q)
        survivors = np.sort(pos[h == r1 ^ self._hash_table[pos, r2]])
        if not survivors.size:
            return DecodeResult(None, "no-survivor", len(listing.messages), listing.overflow,
                                (r1, r2), ())
        status = "unique" if survivors.size == 1 else "ambiguous"
        return DecodeResult(int(self.message_ids[survivors[0]]), status, len(listing.messages),
                            listing.overflow, (r1, r2),
                            tuple(int(m) for m in self.message_ids[survivors]))


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
    hp = HashParams.for_message_bits(params.message_bits, params.field_bits)
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
    if plan.phase2_len >= plan.w_x and not windows_valid(phase2_seq, plan.w_x, gamma):
        rep = verify_windows(phase2_seq, plan.w_x, gamma)
        raise CodeConstructionError(
            f"deterministic buffer violates an input window at start "
            f"{rep.first_violation()}"
        )

    if channel.is_binary_additive():
        budget1 = hamming_budget(plan.n1, plan.w_s, lam)
        budget3 = hamming_budget(plan.phase3_len, plan.w_s, lam)
    else:
        budget1 = likelihood_budget(params.p_x, channel, lam)
        budget3 = likelihood_budget(key_t, channel, lam)

    # Phase 1: one codeword per (message, hash value) pair; messages whose
    # hash fiber lost a codeword to expurgation are dropped.  Expurgation
    # trims the phase-2 context to the w_x - 1 symbols a window can reach.
    phase1, p1_stats = _random_code(
        np.full(plan.n1, -1, dtype=np.int8), n_msg * q, params.p_x, gamma, plan.w_x, rng,
        suffix_context=phase2_seq, fiber=q,
    )
    message_ids = phase1.ids[::q] // q  # each kept message holds q consecutive rows

    keys, key_stats = _random_code(
        phase3_skeleton, q * q, key_t, gamma, plan.w_x, rng, prefix_context=phase2_seq,
    )
    key_code = KeyCode(codewords=keys.codewords, ids=keys.ids, field_bits=params.field_bits)

    codec = ThreePhaseCodec(
        plan=plan,
        hash_params=hp,
        gamma=gamma,
        message_ids=message_ids,
        phase1_flat=phase1,
        phase2_seq=phase2_seq,
        phase3_skeleton=phase3_skeleton,
        key_code=key_code,
        budget1=budget1,
        budget3=budget3,
    )
    build_stats = {
        "hash_collision_bound": hp.collision_bound,
        "phase1_total": int(p1_stats.total),
        "phase1_removed": int(p1_stats.removed),
        "phase1_removed_fraction": p1_stats.removed_fraction,
        "messages_built": int(n_msg),
        "messages_kept": int(message_ids.size),
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
    _validate_interleaved_types(params, spec)
    phase2_seq, skeleton = build_interleaved_region(plan, params.t1, params.t2)
    return phase2_seq, skeleton, params.t1


def _validate_interleaved_types(params: CodecParams, spec: WindowedAvcSpec):
    gamma, alpha = spec.gamma, spec.alpha
    enlarged = gamma_prime(gamma, alpha)
    if not delta_interior(params.t1, enlarged, _DELTA):
        raise ValueError(
            "type-1 law is not in the delta-interior of the ratio-enlarged input set"
        )
    mix = Distribution(alpha * params.t1.probs + (1.0 - alpha) * params.t2.probs)
    # Sliding windows deviate from the mix by at most lam_frac * alpha in TV,
    # an L1 radius of twice that.
    dev = params.lam_frac * alpha
    if not delta_interior(mix, gamma, 2 * dev):
        raise ValueError(
            "window-type margin too small: alpha*t1 + (1-alpha)*t2 must sit "
            f"at least lam_frac*alpha = {dev:g} (TV) inside the input set"
        )

