"""Command-line interface.

Subcommands: capacity, symmetrize, check-windows, simulate, sweep.
Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime/solver error.
The AVC_LOG environment variable sets log verbosity (DEBUG/INFO/WARNING); the
only record logged so far is the traceback of an unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .capacity import _SADDLE_TOL, oblivious_capacity, windowed_capacity_verdict
from .codec import CodeConstructionError
from .core import Distribution
from .harness import (
    SWEEP_COLUMNS,
    ConfigError,
    _json_int,
    _parse_constraints,
    _parse_spec,
    config_from_dict,
    format_csv,
    read_json,
    run_trials,
    sweep,
)
from .jammers import JammerGenerationError
from .lp import SimplexError
from .symmetrize import ecn_symmetrizable, scan_nonsymmetrizable
from .windows import INCLUSIVE_RANGE, verify_windows

log = logging.getLogger("winavc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _setup_logging() -> None:
    level = os.environ.get("AVC_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _emit(payload, args, columns=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = payload if isinstance(payload, list) else [payload]
        if columns is None:
            columns = list(rows[0].keys())
        text = format_csv(rows, columns)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_capacity(args) -> int:
    spec = _parse_spec(read_json(args.config))
    verdict = windowed_capacity_verdict(spec)
    res = verdict.capacity
    row = {
        "c_list": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "argmax_px": list(np.round(res.argmax_px.probs, 9)),
        "argmin_qs": list(np.round(res.argmin_qs.probs, 9)),
        "verdict": verdict.status,
        "status": "ok" if res.upper - res.lower <= _SADDLE_TOL else "step-cap",
    }
    if args.with_oblivious:
        obl = oblivious_capacity(spec.gamma, spec.lam, spec.channel)
        row["c_obl"] = obl.value
        row["all_symmetrizable_evidence"] = obl.all_symmetrizable_evidence
    _emit(row, args, columns=[k for k in row if not isinstance(row[k], list)])
    return EXIT_OK


def _cmd_symmetrize(args) -> int:
    spec = _parse_spec(read_json(args.config))
    if args.scan:
        witness = scan_nonsymmetrizable(spec.gamma, spec.channel, spec.lam)
        row = {
            "witness": None if witness is None else witness.probs.tolist(),
            "all_symmetrizable": witness is None,
            # one LP decides a state set of at most one inequality
            "exact": spec.lam.num_inequalities <= 1,
            "status": "ok",
        }
        _emit(row, args, columns=["all_symmetrizable", "exact", "status"])
        return EXIT_OK
    if args.px:
        p_x = Distribution([float(v) for v in args.px.split(",")])
    else:
        p_x = spec.gamma.feasible_point()
    res = ecn_symmetrizable(p_x, spec.channel, spec.lam)
    row = {
        "p_x": p_x.probs.tolist(),
        "feasible": res.feasible,
        "residual": res.residual if res.feasible else float("nan"),
        "marginal": res.marginal.probs.tolist() if res.feasible else None,
        "witness": res.witness_matrix().tolist() if res.feasible else None,
    }
    if args.format == "json":
        _emit(row, args)
    else:
        _emit({"feasible": res.feasible,
               "residual": row["residual"], "status": "ok"}, args)
    return EXIT_OK


def _cmd_check_windows(args) -> int:
    doc = read_json(args.config)
    try:
        seq = doc["sequence"]
        w = _json_int(doc["window"], "window")
        dim = _json_int(doc["dim"], "dim") if "dim" in doc else int(max(seq) + 1 if seq else 2)
        cset = _parse_constraints(doc["constraints"], dim)
        mode = doc.get("mode", INCLUSIVE_RANGE)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad window-check config: {exc}") from exc
    report = verify_windows(seq, w, cset, mode)
    payload = {
        "valid": report.valid,
        "windows_checked": report.windows_checked,
        "violations": [
            {"start": s, "type": d.probs.tolist()} for s, d in report.violations
        ],
    }
    if args.format == "json":
        _emit(payload, args)
    else:
        _emit({"valid": report.valid, "windows_checked": report.windows_checked,
               "violations": len(report.violations), "status": "ok"}, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = config_from_dict(read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    stats = run_trials(config, keep_records=False)
    row = {
        "trials": stats.trials,
        "err_avg": stats.err_avg,
        "err_max_est": stats.err_max_est,
        "ci_lo": stats.wilson_lo,
        "ci_hi": stats.wilson_hi,
        "jam_forfeits": stats.jam_forfeits,
        "jam_rejections": stats.jam_rejections_total,
        "status": "ok",
    }
    for k, v in stats.outcome_counts.items():
        row[f"n_{k}"] = v
    _emit(row, args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = read_json(args.config)
    if not isinstance(grid, dict):
        raise ConfigError(f"sweep grid must be a JSON object, got {type(grid).__name__}")
    if args.seed is not None:
        grid["seed"] = args.seed
    rows = sweep(grid)
    _emit(rows, args, columns=SWEEP_COLUMNS)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winavc",
        description="Windowed adversarial-channel toolkit: capacities, "
        "symmetrizability, window checks, and jamming simulations.",
    )
    parser.add_argument("--version", action="version", version=f"winavc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("capacity", help="list-decoding capacity and equality verdict")
    common(p)
    p.add_argument("--with-oblivious", action="store_true",
                   help="also compute the unique-decoding (restricted) capacity")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("symmetrize", help="symmetrizability feasibility check")
    common(p)
    p.add_argument("--px", help="input law as comma-separated probabilities")
    p.add_argument("--scan", action="store_true",
                   help="look for a non-symmetrizable law in the input set")
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("check-windows", help="verify sliding-window constraints")
    common(p)
    p.set_defaults(func=_cmd_check_windows)

    p = sub.add_parser("simulate", help="Monte Carlo decoding-error simulation")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweep with CSV output")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; --help/--version exit 0
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimplexError, CodeConstructionError, JammerGenerationError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        log.exception("unexpected failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
