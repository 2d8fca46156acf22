"""Monte Carlo simulation driver: experiment configs, trial loops, sweeps.

Each trial owns one Generator, derived counter-mode from (master_seed,
trial index, 2), which draws in a fixed order: the message (not under the
max criterion, which sweeps messages instead), the keys, the jammer's
states, then the channel outputs.  A run draws every trial's message and
keys first, then jams a chunk of trials in one call, and then encodes,
samples the channel and decodes in fixed blocks, one call per stage and
block.  Every Generator draws exactly what it would in a trial run alone,
so each trial is bit-reproducible on its own and the records do not
depend on the block, pool or chunk size or on which trials run before it.
The jammer only ever receives public objects; a strategy that proposes an
inadmissible state sequence forfeits the trial, and a deterministic
admissible fallback is played (an adversary cannot play outside the model).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import jammers
from .capacity import windowed_capacity_verdict
from .codec import CodecParams, ThreePhaseCodec, build_three_phase_codec, make_phase_plan
from .core import (
    Channel,
    ConstraintSet,
    Distribution,
    WindowedAvcSpec,
    channel_sample_rows,
)
from .symmetrize import ecn_symmetrizable

# decoder status k -> trial outcome OUTCOMES[k]; a unique decode of another
# message is the last outcome, "wrong-message"
_STATUSES = ("unique", "empty-list", "no-survivor", "ambiguous")
OUTCOMES = ("correct", "list-failure", "disambiguation-failure", "ambiguity", "wrong-message")

MAX_CRITERION_MESSAGE_CAP = 1 << 10
_IID_MARGIN = 0.2  # the default iid jammer law backs off the state cap by this fraction
JAMMER_KINDS = ("iid", "spoof", "symmetrize", "none")
# Trials per block in run_trials' encoding, budget check, channel and
# decoding: a wider block shares each call's fixed cost among more trials,
# while the temporaries grow with it (measured with jammers._POOL_WIDTH).
_TRIAL_BLOCK = 32
# Trials per chunk, 32 pool widths: a run holds one chunk's Generators and
# states at a time, and each chunk's rejection pool waits for one tail.
_TRIAL_CHUNK = 1024
_TRIAL_STREAM = 2  # the last entry of a trial Generator's seed key


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class JammerParams:
    kind: str  # one of JAMMER_KINDS
    p_s: Distribution | None = None
    rejection_cap: int = jammers.DEFAULT_REJECTION_CAP

    def __post_init__(self):
        if self.kind not in JAMMER_KINDS:
            raise ConfigError(f"unknown jammer kind {self.kind!r}; expected one of {JAMMER_KINDS}")
        if self.rejection_cap < 1:
            raise ConfigError(f"jammer.rejection_cap must be >= 1, got {self.rejection_cap}")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: WindowedAvcSpec
    code: CodecParams
    jammer: JammerParams
    trials: int
    master_seed: int
    error_criterion: str = "average"  # or "max"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.error_criterion not in ("average", "max"):
            raise ConfigError(f"unknown error criterion {self.error_criterion!r}")
        p_s, states = self.jammer.p_s, self.spec.lam.dim
        if p_s is not None and p_s.size != states:
            raise ConfigError(f"jammer.p_s has {p_s.size} entries but alphabets.s is {states}")
        if self.jammer.kind == "iid" and p_s is None:
            if states != 2:
                raise ConfigError(
                    f"an iid jammer without jammer.p_s needs binary states, not {states}"
                )
            # the default law backs off the cap on state 1; a set that also
            # bounds state 1 from below refuses nearly every i.i.d. draw
            if not self.spec.lam.contains(Distribution.point_mass(0, 2)):
                raise ConfigError(
                    "an iid jammer without jammer.p_s needs a state set with no lower "
                    "bound on state 1; set jammer.p_s"
                )
            _default_iid_law(self.spec.lam)  # solved here, once per state set
        if self.jammer.kind == "spoof" and self.spec.channel.num_inputs > states:
            raise ConfigError(
                f"a spoof jammer sends codewords as states, but alphabets.x = "
                f"{self.spec.channel.num_inputs} is larger than alphabets.s = {states}"
            )
        if self.jammer.kind == "symmetrize":
            _symmetrizing_map(self)


@functools.lru_cache(maxsize=64)
def _default_iid_law(lam: ConstraintSet) -> Distribution:
    """The iid jammer's law without jammer.p_s; one LP per state set, hashed by identity."""
    cap, _ = lam.max_linear([0.0, 1.0])
    return Distribution.bernoulli(cap * (1.0 - _IID_MARGIN))


def _symmetrizing_map(config: ExperimentConfig) -> tuple[Distribution, ...]:
    """The symmetrize jammer's U(s|x) for the public input law; ConfigError if there is none."""
    sym = ecn_symmetrizable(config.code.p_x, config.spec.channel, config.spec.lam)
    if not sym.feasible:
        raise ConfigError("symmetrize jammer requested but the input law is not symmetrizable")
    return sym.witness


@dataclass(frozen=True)
class TrialRecord:
    index: int
    message_id: int
    keys: tuple[int, int]
    jam_rejections: int
    jam_forfeited: bool
    jam_generation_failed: bool
    list_size: int
    outcome: str


@dataclass
class RunStats:
    """Aggregated trial outcomes.

    err_max_est is the max over per-message empirical error rates for the
    one strategy that was run; the model's maximal error supremizes over
    all admissible strategies, so this (and any max over a configured
    strategy set) is a lower-bound estimate of it.
    """

    trials: int
    outcome_counts: dict
    err_avg: float
    err_max_est: float
    wilson_lo: float
    wilson_hi: float
    per_message: dict  # message_id -> (errors, trials)
    jam_forfeits: int
    jam_rejections_total: int
    jam_generation_failures: int
    build_stats: dict
    notes: list = field(default_factory=list)
    records: list = field(default_factory=list)


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The trial's one Generator.  The key keeps three entries: (master_seed, i)
    would be the build's stream at trial 0 and the message pool's at trial 1."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, trial_index, _TRIAL_STREAM))
    )


def build_codec_from_config(config: ExperimentConfig) -> tuple[ThreePhaseCodec, dict]:
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 0)))
    return build_three_phase_codec(config.code, config.spec, rng)


def _make_state_generator(config: ExperimentConfig, codec: ThreePhaseCodec, fallback):
    """Returns draw(rngs) -> (states, rejections, admissible), one row per
    generator ("none" plays fallback).  Sees only public code structure."""
    spec = config.spec
    jp = config.jammer
    n = codec.plan.total_length
    if jp.kind == "none":
        return lambda rngs: (np.tile(fallback, (len(rngs), 1)),
                             np.zeros(len(rngs), dtype=np.int64), np.ones(len(rngs), dtype=bool))
    if jp.kind == "iid":
        p_s = jp.p_s if jp.p_s is not None else _default_iid_law(spec.lam)
        return lambda rngs: jammers.iid_jammer_rows(p_s, n, spec.w_s, spec.lam, rngs,
                                                    jp.rejection_cap)
    sample_rows = _public_codeword_sampler(codec)
    if jp.kind == "spoof":
        return lambda rngs: jammers.spoof_jammer_rows(sample_rows, n, spec.w_s, spec.lam, rngs)
    # symmetrize: the symmetrizing map is derived from the public input law;
    # the dominant surviving phase-1 law is approximated by its sampler law.
    u = _symmetrizing_map(config)
    return lambda rngs: jammers.symmetrize_jammer_rows(sample_rows, u, n, spec.w_s, spec.lam,
                                                       rngs, jp.rejection_cap)


def _public_codeword_sampler(codec: ThreePhaseCodec):
    """Uniform draws over the public encoder's possible transmissions, one per generator."""

    def sample(rngs) -> np.ndarray:
        draws = [(codec.draw_message(rng), *codec.key_code.draw_keys(rng)) for rng in rngs]
        return codec.encode_rows(*np.array(draws).T)

    return sample


def _outcome(result, sent_id: int) -> int:
    """Index in OUTCOMES of a trial that sent sent_id and decoded to result."""
    if result.status == "unique" and result.message_id != sent_id:
        return len(OUTCOMES) - 1  # wrong-message
    return _STATUSES.index(result.status)


def run_trials(
    config: ExperimentConfig,
    *,
    keep_records: bool = True,
    codec: ThreePhaseCodec | None = None,
    build_stats: dict | None = None,
) -> RunStats:
    """Build the code once, then simulate trials; deterministic per seed.

    Trials run _TRIAL_CHUNK at a time: every trial's message and keys are
    drawn first, then one jammer call draws the chunk's states, and
    encoding, the budget check, the channel and decoding run _TRIAL_BLOCK
    trials at a time.  The tally is kept in arrays, and TrialRecords are
    built only under keep_records.  Under the max criterion, messages are
    swept round-robin (exhaustively when the surviving message count is at
    most 2^10, else over a fixed seed-derived subset) so that per-message
    error estimates are balanced.
    """
    if codec is None:
        codec, build_stats = build_codec_from_config(config)
    spec = config.spec
    cap = config.jammer.rejection_cap
    fallback = jammers.fallback_state_sequence(codec.plan.total_length, spec.w_s, spec.lam)
    draw_states = _make_state_generator(config, codec, fallback)
    notes = []

    message_pool = None
    if config.error_criterion == "max":
        if codec.message_count <= MAX_CRITERION_MESSAGE_CAP:
            message_pool = np.arange(codec.message_count)
        else:
            pool_rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, 1)))
            message_pool = pool_rng.choice(
                codec.message_count, size=MAX_CRITERION_MESSAGE_CAP, replace=False
            )
            notes.append(
                f"max criterion over a fixed random subset of "
                f"{MAX_CRITERION_MESSAGE_CAP} of {codec.message_count} messages"
            )

    counts = np.zeros(len(OUTCOMES), dtype=np.int64)
    sent = np.zeros(codec.message_count, dtype=np.int64)  # trials per message position
    missed = np.zeros(codec.message_count, dtype=np.int64)  # errors per message position
    forfeits = rejections = generation_failures = 0
    records = []
    for lo in range(0, config.trials, _TRIAL_CHUNK):
        trials = np.arange(lo, min(lo + _TRIAL_CHUNK, config.trials))
        rngs = [_trial_rng(config.master_seed, i) for i in trials.tolist()]
        if message_pool is None:
            m_pos = np.array([codec.draw_message(rng) for rng in rngs])
        else:
            m_pos = message_pool[trials % message_pool.size]
        r1, r2 = np.array([codec.key_code.draw_keys(rng) for rng in rngs]).T
        states, jam_rejections, admissible = draw_states(rngs)
        states[~admissible] = fallback  # forfeits; a capped draw also counts as a failure
        outcome = np.empty(trials.size, dtype=np.int64)  # index into OUTCOMES
        list_size = np.empty(trials.size, dtype=np.int64)
        for b in range(0, trials.size, _TRIAL_BLOCK):
            block = slice(b, b + _TRIAL_BLOCK)
            x = codec.encode_rows(m_pos[block], r1[block], r2[block])
            if codec.budget1.kind == "hamming":
                # admissible states can never exceed the decoder's budget ball,
                # so the true codeword always enters the pre-truncation list
                corruption = np.count_nonzero(states[block, : codec.plan.n1], axis=1)
                over = np.flatnonzero(corruption > codec.budget1.radius)
                if over.size:
                    raise RuntimeError(
                        f"trial {trials[b + over[0]]}: admissible corruption "
                        f"{corruption[over[0]]} exceeds the phase-1 decoding budget "
                        f"radius {codec.budget1.radius}"
                    )
            y = channel_sample_rows(x, states[block], spec.channel, rngs[block])
            results = codec.decode_rows(y)
            outcome[block] = [_outcome(r, sent_id) for r, sent_id
                              in zip(results, codec.message_ids[m_pos[block]].tolist())]
            list_size[block] = [r.list_size for r in results]

        failed = jam_rejections >= cap
        counts += np.bincount(outcome, minlength=len(OUTCOMES))
        sent += np.bincount(m_pos, minlength=codec.message_count)
        missed += np.bincount(m_pos[outcome != 0], minlength=codec.message_count)
        forfeits += int(np.count_nonzero(~admissible))
        rejections += int(jam_rejections.sum())
        generation_failures += int(np.count_nonzero(failed))
        if keep_records:
            rows = zip(trials.tolist(), codec.message_ids[m_pos].tolist(), r1.tolist(),
                       r2.tolist(), jam_rejections.tolist(), admissible.tolist(),
                       failed.tolist(), list_size.tolist(), outcome.tolist())
            records += [TrialRecord(i, m, (k1, k2), rej, not ok, fail, size, OUTCOMES[o])
                        for i, m, k1, k2, rej, ok, fail, size, o in rows]
    failure_budget = max(10, config.trials // 10)
    if generation_failures > failure_budget:
        raise jammers.JammerGenerationError(
            f"{generation_failures} trials exceeded the rejection cap "
            f"(budget {failure_budget}); the jammer law is incompatible "
            "with its window constraints"
        )

    per_message = {int(codec.message_ids[k]): (int(missed[k]), int(sent[k]))
                   for k in np.flatnonzero(sent)}
    errors = config.trials - int(counts[0])
    lo, hi = wilson_interval(errors, config.trials)
    return RunStats(
        trials=config.trials,
        outcome_counts=dict(zip(OUTCOMES, counts.tolist())),
        err_avg=errors / config.trials,
        err_max_est=max(e / t for e, t in per_message.values()),
        wilson_lo=lo,
        wilson_hi=hi,
        per_message=per_message,
        jam_forfeits=forfeits,
        jam_rejections_total=rejections,
        jam_generation_failures=generation_failures,
        build_stats=build_stats or {},
        notes=notes,
        records=records,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps over the weight-constrained XOR family

SWEEP_COLUMNS = (
    "w", "p", "alpha", "n", "R", "c_list", "verdict",
    "err_avg", "err_max_est", "ci_lo", "ci_hi", "status",
)


def sweep(grid: dict) -> list[dict]:
    """Cross-product sweep over bit-flip cells; one row per cell.

    Grid keys: w, p (lists of weights), alpha (list, w_s = alpha*w_x), n
    (phase-1 lengths), w_x, message_bits, field_bits, p_x_weight (optional,
    defaults to w/3 rounded), jammer (list of kinds), trials (0 means
    capacity-only), seed.  Cell seeds derive from (seed, cell index).  An
    axis that is not a list, or a fractional n or integer key, raises
    ConfigError; a failing cell keeps its exception and message in status.

    Each cell is an experiment document loaded by config_from_dict, so its
    verdict sees the planned transmission length while the n column stays n1.
    """
    ws = _sweep_axis(grid, "w", [0.2])
    ps = _sweep_axis(grid, "p", [0.1])
    alphas = _sweep_axis(grid, "alpha", [1.0])
    ns = [_json_int(v, "n") for v in _sweep_axis(grid, "n", [256])]
    jam_kinds = _sweep_axis(grid, "jammer", ["iid"])
    trials = _json_int(grid.get("trials", 0), "trials")
    seed = _json_int(grid.get("seed", 0), "seed")
    w_x = _json_int(grid.get("w_x", 64), "w_x")
    message_bits = _json_int(grid.get("message_bits", 4), "message_bits")
    field_bits = _json_int(grid.get("field_bits", 4), "field_bits")
    p_x_weight = grid.get("p_x_weight")

    def cell(cell_index, w, p, alpha, n, jam_kind) -> dict:
        row = dict.fromkeys(SWEEP_COLUMNS, float("nan"))
        row.update(w=w, p=p, alpha=alpha, n=n, verdict="", status="ok")
        try:
            w_s = round(alpha * w_x)
            if abs(w_s - alpha * w_x) > 1e-9 or not 1 <= w_s <= w_x:
                raise ConfigError(f"alpha={alpha} does not give an integer w_s <= w_x")
            px = p_x_weight if p_x_weight is not None else round(w / 3, 3)
            # parsed once, without a jammer: every ConstraintSet costs one LP
            config = config_from_dict({
                "alphabets": {"x": 2, "s": 2, "y": 2},
                "channel": [[1, 0], [0, 1], [0, 1], [1, 0]],
                "gamma": [{"coeffs": [0, 1], "bound": w}],
                "lambda": [{"coeffs": [0, 1], "bound": p}],
                "windows": {"w_x": w_x, "w_s": w_s},
                "code": {"n1": n, "message_bits": message_bits,
                         "field_bits": field_bits, "p_x": {"weight": px}},
            })
            verdict = windowed_capacity_verdict(config.spec)
            row["c_list"] = verdict.capacity.value
            row["verdict"] = verdict.status
            if trials > 0:
                seed_state = np.random.SeedSequence((seed, cell_index)).generate_state(1)
                config = replace(
                    config, jammer=JammerParams(kind=jam_kind),
                    trials=trials, master_seed=int(seed_state[0]),
                )
                codec, build_stats = build_codec_from_config(config)
                row["R"] = math.log2(codec.message_count) / codec.plan.n1
                stats = run_trials(config, keep_records=False, codec=codec,
                                   build_stats=build_stats)
                row["err_avg"] = stats.err_avg
                row["err_max_est"] = stats.err_max_est
                row["ci_lo"] = stats.wilson_lo
                row["ci_hi"] = stats.wilson_hi
        except Exception as exc:  # per-cell failures land in the status column
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        return row

    cells = itertools.product(ws, ps, alphas, ns, jam_kinds)
    return [cell(i, *axes) for i, axes in enumerate(cells)]


def _sweep_axis(grid: dict, key: str, default: list) -> list:
    values = grid.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"sweep axis {key!r} must be a list, got {values!r}")
    return list(values)


def format_csv(rows: list[dict], columns=SWEEP_COLUMNS) -> str:
    """Render rows as CSV with floats at 6 significant digits."""
    def fmt(v):
        if isinstance(v, float):
            return "" if math.isnan(v) else f"{v:.6g}"
        return str(v)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON config loading


def _json_int(value, key: str) -> int:
    """An integer key's value; an integral float (64.0) counts, anything else is a ConfigError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _parse_constraints(entries, dim: int) -> ConstraintSet:
    """Half-spaces from a list of {coeffs, bound} entries."""
    return ConstraintSet(dim, [(e["coeffs"], e["bound"]) for e in entries])


def _parse_distribution(value) -> Distribution:
    if isinstance(value, dict):
        return Distribution.bernoulli(float(value["weight"]))
    return Distribution(value)


def _parse_spec(doc: dict, planned_n: int | None = None) -> WindowedAvcSpec:
    """The windowed channel of a JSON document.

    Keys: alphabets {x, s, y}, channel (row-major |X|*|S| rows of |Y|
    probabilities), gamma, lambda (lists of {coeffs, bound}), windows
    {w_x, w_s} and n.  Without windows both lengths default to n, or 64
    without n either; without n the blocklength is planned_n, or else the
    longer window.  Malformed documents raise ConfigError.
    """
    try:
        sizes = doc["alphabets"]
        nx, ns, ny = (_json_int(sizes[k], f"alphabets.{k}") for k in ("x", "s", "y"))
        if min(nx, ns, ny) < 1:
            raise ValueError(f"alphabet sizes must be >= 1, got {sizes}")
        channel = Channel(np.asarray(doc["channel"], dtype=float).reshape(nx, ns, ny))
        gamma = _parse_constraints(doc["gamma"], nx)
        lam = _parse_constraints(doc["lambda"], ns)
        wins = doc.get("windows", {"w_x": doc.get("n", 64), "w_s": doc.get("n", 64)})
        w_x, w_s = _json_int(wins["w_x"], "windows.w_x"), _json_int(wins["w_s"], "windows.w_s")
        n = doc.get("n")
        if n is None:
            n = planned_n if planned_n is not None else max(w_x, w_s)
        return WindowedAvcSpec(
            channel=channel, gamma=gamma, lam=lam, w_x=w_x, w_s=w_s, n=_json_int(n, "n"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad channel description: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON document layout.

    The channel keys are those of _parse_spec, with windows required and n,
    if given, the planned transmission length; the rest are code {...} (the
    CodecParams fields), jammer {...}, trials, seed, criterion.  The code
    is planned from windows.w_x and windows.w_s, so a thm2 code interleaves
    in the ratio alpha = w_s/w_x.
    """
    try:
        wins = doc["windows"]
        code_doc = dict(doc["code"])
        code_doc.setdefault("layout", "thm1")
        for key in ("p_x", "key_type", "t1", "t2"):
            if key in code_doc and code_doc[key] is not None:
                code_doc[key] = _parse_distribution(code_doc[key])
        for key in ("n1", "message_bits", "field_bits", "key_len"):
            if code_doc.get(key) is not None:
                code_doc[key] = _json_int(code_doc[key], f"code.{key}")
        code = CodecParams(**code_doc)
        jam_doc = dict(doc.get("jammer", {"kind": "none"}))
        if jam_doc.get("p_s") is not None:
            jam_doc["p_s"] = _parse_distribution(jam_doc["p_s"])
        if "rejection_cap" in jam_doc:
            jam_doc["rejection_cap"] = _json_int(jam_doc["rejection_cap"], "jammer.rejection_cap")
        jammer = JammerParams(**jam_doc)
        trials = _json_int(doc.get("trials", 1), "trials")
        seed = _json_int(doc.get("seed", 0), "seed")
        criterion = doc.get("criterion", "average")

        # CodecParams rejects a field size outside 1..8 and planning an unknown
        # or incomplete layout here rather than at build time; without an
        # explicit n planning also sizes the instance.
        w_x, w_s = (_json_int(wins[k], f"windows.{k}") for k in ("w_x", "w_s"))
        planned = make_phase_plan(code, w_x, w_s).total_length
        spec = _parse_spec(doc, planned)
        # w_x cannot exceed the plan, whose buffer alone is at least w_x long
        if spec.w_s > planned:
            raise ConfigError(f"windows.w_s = {spec.w_s} is longer than the planned "
                              f"transmission of {planned} symbols")
        # the trials send the planned transmission, so an n of another length means nothing
        if spec.n != planned:
            raise ConfigError(f"n = {spec.n} differs from the planned transmission of "
                              f"{planned} symbols; leave n out of an experiment config")
        return ExperimentConfig(
            spec=spec, code=code, jammer=jammer,
            trials=trials, master_seed=seed, error_criterion=criterion,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def read_json(path: str):
    """The JSON document at path; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path))
