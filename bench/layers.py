"""Which winavc functions the traced run wraps, and the per-layer metrics.

Every span name is module.function of the function's home module; the
(owner, attribute) pairs are the names the three workloads' callers look the
function up under.  Counts that feed the ratios are taken from call arguments and return
values in hooks, so they are measured where the work happens.
"""

from __future__ import annotations

import numpy as np

import checks
from spans import Tracer
from winavc import capacity, cli, codec, harness, jammers, lp, symmetrize

INNER_TOL = 1e-7  # list_capacity's default inner tolerance


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _expurgate(tr, args, kwargs, result):
    stats = result[1]
    tr.counters["expurgate.rows"] += stats.total
    tr.counters["expurgate.removed"] += stats.removed


def _iid_jammer(tr, args, kwargs, result):
    tr.counters["jam.accepted"] += 1
    tr.counters["jam.rejections"] += result.rejections


def _valid_rows(tr, args, kwargs, result):
    tr.counters["valid_rows.rows"] += len(result)


def _decode(tr, args, kwargs, result):
    tr.counters["decode.list_size"] += result.list_size
    tr.counters["decode.overflow"] += bool(result.overflow)


def _worst_case_mi(tr, args, kwargs, result):
    tr.counters["inner.evals"] += result[2]
    p_x = _arg(args, kwargs, 0, "p_x")
    lam = _arg(args, kwargs, 1, "lam")
    channel = _arg(args, kwargs, 2, "channel")
    tr.records["inner"].append((p_x.probs, result[1].probs, channel.table, lam))


def _ecn_symmetrizable(tr, args, kwargs, result):
    tr.counters["sym.feasible"] += bool(result.feasible)


def _solve_lp(tr, args, kwargs, result):
    tr.counters["lp.infeasible"] += result.status == lp.INFEASIBLE


# span name -> (hook, [(owner, attribute), ...])
LAYERS = {
    "cli.cli_main": (None, [(cli, "cli_main")]),
    "harness.sweep": (None, [(cli, "sweep")]),
    "harness.run_trials": (None, [(harness, "run_trials")]),
    "harness.build_codec_from_config": (None, [(harness, "build_codec_from_config")]),
    "codec.build": (None, [(harness, "build_three_phase_codec")]),
    "windows.expurgate": (_expurgate, [(codec, "expurgate")]),
    "windows.verify_windows": (None, [(codec, "verify_windows")]),
    "windows.windows_valid": (None, [(codec, "windows_valid")]),
    "jammers.iid_jammer": (_iid_jammer, [(jammers, "iid_jammer")]),
    "windows.windows_valid_rows": (_valid_rows, [(jammers, "windows_valid_rows")]),
    "codec.encode": (None, [(codec.ThreePhaseCodec, "encode")]),
    "codec.decode": (_decode, [(codec.ThreePhaseCodec, "decode")]),
    "codec.list_decode": (None, [(codec, "list_decode")]),
    "codec.key_decode": (None, [(codec.KeyCode, "decode")]),
    "codec.poly_hash": (None, [(codec, "poly_hash")]),
    "core.block_channel_sample": (None, [(harness, "block_channel_sample")]),
    "capacity.list_capacity": (None, [(harness, "list_capacity"), (capacity, "list_capacity")]),
    "capacity.windowed_capacity_verdict": (None, [(harness, "windowed_capacity_verdict")]),
    "symmetrize.scan_nonsymmetrizable": (None, [(capacity, "scan_nonsymmetrizable")]),
    "capacity.worst_case_mi": (_worst_case_mi, [(capacity, "worst_case_mi")]),
    "symmetrize.ecn_symmetrizable": (
        _ecn_symmetrizable, [(symmetrize, "ecn_symmetrizable"), (codec, "ecn_symmetrizable")]
    ),
    "lp.solve_lp": (_solve_lp, [(lp, "solve_lp")]),
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer; returns the names that could not be found."""
    missing = []
    for name, (hook, targets) in LAYERS.items():
        for owner, attr in targets:
            if not tracer.wrap(name, owner, attr, hook):
                missing.append(f"{owner.__name__}.{attr}")
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def inner_gaps(tracer: Tracer) -> list[float]:
    """Frank-Wolfe gap at every returned inner minimiser, recomputed here."""
    vertices: dict[tuple, np.ndarray] = {}
    gaps = []
    for px, q, table, lam in tracer.records["inner"]:
        key = (lam.coeffs.tobytes(), lam.bounds.tobytes())
        if key not in vertices:
            vertices[key] = checks.polytope_vertices(lam.coeffs, lam.bounds)
        gaps.append(checks.frank_wolfe_gap(px, q, table, vertices[key]))
    return gaps


def per_layer_metrics(tracer: Tracer, wall_s: float, ops: int, overhead_frac: float) -> dict:
    times = tracer.layer_times()
    values: dict[str, float] = {}
    for name in LAYERS:
        entry = times.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]

    def calls(name):
        return values[f"{name}.calls"]

    c = tracer.counters
    gaps = inner_gaps(tracer)
    values.update({
        "jammers.useful_frac": _ratio(c["jam.accepted"], c["valid_rows.rows"]),
        "jammers.rejections_per_draw": _ratio(c["jam.rejections"], c["jam.accepted"]),
        "windows.windows_valid_rows.rows": c["valid_rows.rows"],
        "codec.list_size_mean": _ratio(c["decode.list_size"], calls("codec.decode")),
        "codec.overflow_frac": _ratio(c["decode.overflow"], calls("codec.decode")),
        "windows.expurgate.rows": c["expurgate.rows"],
        "windows.expurgate.removed_frac": _ratio(c["expurgate.removed"], c["expurgate.rows"]),
        "capacity.list_capacity.calls_per_cell": _ratio(calls("capacity.list_capacity"), ops),
        "lp.infeasible_frac": _ratio(c["lp.infeasible"], calls("lp.solve_lp")),
        "capacity.inner_evals": c["inner.evals"],
        "capacity.inner_unconverged_frac": _ratio(sum(g > INNER_TOL for g in gaps), len(gaps)),
        "symmetrize.feasible_frac": _ratio(c["sym.feasible"], calls("symmetrize.ecn_symmetrizable")),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage_frac": _ratio(sum(t["self_s"] for t in times.values()), wall_s),
    })
    return values
