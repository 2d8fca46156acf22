"""The three workloads: simulate, sweep and ternary.

Each is a closed loop with one caller and no worker threads: the next call
starts when the previous one returns.  A run repeats one pass of call inputs,
each pass in a new seeded order, so every input is timed several times.  A
workload provides

    setup(seed)            -> state, with a `fingerprint` that must not change
                              when setup is repeated
    pass_inputs(state, seed) -> the pass: a seeded list of (call input, ops in it)
    call(state, input)     -> result; the only part that is timed
    check(state, records)  -> extra end-to-end metrics; marks failed ops.
                              Besides its own checks, each workload checks
                              that every repeat of an input gave the same
                              output as its first run.

Why these three (see DESIGN.md for the layer predictions):
  simulate  the trial loop on examples_configs/experiment.json: jammer
            rejection sampling, channel sampling and decoding, no capacity work.
  sweep     the user's `winavc sweep` CLI path on bit-flip grids: capacity,
            LP and symmetrizability scans plus a codec build per cell.
  ternary   random 3x3x3 channels: the only path into the Frank-Wolfe inner
            solver; never touches codec, jammers or windows.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from winavc import capacity, cli, harness, symmetrize
from winavc.core import Channel, ConstraintSet

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

CAPACITY_TOL_BITS = 1e-3  # acceptance test A1's tolerance
WILSON_MAX = 0.10  # acceptance test A5's bound
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


def _derive(seed: int, k: int) -> int:
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


@dataclasses.dataclass
class Record:
    """One timed call: its input's place in the pass, the input, how many ops
    it holds, and what came back."""

    index: int
    op: object
    n_ops: int
    seconds: float
    result: object = None
    error: str | None = None
    failed: int = 0  # ops of this call that raised or failed a check

    def fail(self) -> None:
        self.failed = self.n_ops


def first_runs(records) -> dict[int, Record]:
    """The first completed record of each input of the pass."""
    first = {}
    for r in records:
        if r.error is None:
            first.setdefault(r.index, r)
    return first


def tail_latency(op_ms: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(op_ms) * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(op_ms, pct)), pct
    return max(op_ms), 100.0


class Simulate:
    name = "simulate"
    calibration = ("matrix",)
    calls_per_pass = 6
    trials_per_call = 100

    def setup(self, seed):
        config = harness.load_config(str(ROOT / "examples_configs" / "experiment.json"))
        config = dataclasses.replace(config, master_seed=seed, trials=self.trials_per_call)
        codec, build_stats = harness.build_codec_from_config(config)
        fingerprint = (
            codec.message_ids.tobytes()
            + codec.phase1_flat.codewords.tobytes()
            + codec.key_code.codewords.tobytes()
        )
        return SimpleNamespace(config=config, codec=codec, build_stats=build_stats,
                               fingerprint=fingerprint)

    def pass_inputs(self, state, seed):
        return [(dataclasses.replace(state.config, master_seed=_derive(seed, k)), self.trials_per_call)
                for k in range(self.calls_per_pass)]

    def call(self, state, config):
        return harness.run_trials(config, keep_records=False, codec=state.codec,
                                  build_stats=state.build_stats)

    @staticmethod
    def _outcome(stats):
        return (stats.outcome_counts, stats.per_message, stats.jam_rejections_total,
                stats.jam_forfeits)

    def check(self, state, records):
        first = first_runs(records)
        for r in records:
            if (r.error is not None
                    or sum(r.result.outcome_counts.values()) != r.n_ops
                    or self._outcome(r.result) != self._outcome(first[r.index].result)):
                r.fail()
        # The error rate counts each distinct trial once, not once per repeat.
        trials = sum(r.n_ops for r in first.values())
        errors = sum(r.n_ops - r.result.outcome_counts["correct"] for r in first.values())
        wilson_hi = checks.wilson_upper(errors, trials) if trials else 1.0
        if wilson_hi > WILSON_MAX:
            for r in records:
                r.fail()
        return {
            "decode_err_avg": (errors / trials if trials else 1.0, "frac"),
            "decode_wilson_hi": (wilson_hi, "frac"),
        }


class Sweep:
    name = "sweep"
    calibration = ("matrix", "scalar", "pivot")  # codec build, capacity search, LP
    # Corners, edge midpoints and centre of w in [0.30, 0.45] x p in [0.02, 0.095];
    # p < w everywhere, so every cell builds a code.
    cells = [(w, p) for w in (0.30, 0.375, 0.45) for p in (0.02, 0.0575, 0.095)]
    trials = 2  # per cell: enough to exercise the build, few enough that it does not dominate

    def setup(self, seed):
        workdir = OUT / "sweep"
        workdir.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(workdir=workdir, fingerprint=b"", runs=0)

    def pass_inputs(self, state, seed):
        """One single-cell grid per cell: the same cells for every seed, whose
        trials take seeds derived from the benchmark seed."""
        inputs = []
        for k, (w, p) in enumerate(self.cells):
            grid = {
                "w": [w],
                "p": [p],
                "n": [512],
                "message_bits": 6,
                "field_bits": 6,
                "trials": self.trials,
                "seed": _derive(seed, k),
            }
            grid_path = state.workdir / f"grid-{k}.json"
            grid_path.write_text(json.dumps(grid))
            inputs.append((SimpleNamespace(grid=grid, grid_path=grid_path), 1))
        return inputs

    def call(self, state, op):
        """One CLI sweep; each run writes its rows to a file of its own."""
        state.runs += 1
        rows_path = state.workdir / f"rows-{state.runs}.json"
        argv = ["sweep", "--config", str(op.grid_path), "--format", "json", "--out", str(rows_path)]
        return cli.cli_main(argv), rows_path

    def check(self, state, records):
        worst = 0.0
        first = first_runs(records)
        for r in records:
            if r.error is not None or r.result[0] != 0:
                r.fail()
                continue
            text = r.result[1].read_text()
            rows = json.loads(text)
            expected = [(w, p) for w in r.op.grid["w"] for p in r.op.grid["p"]]
            if ([(row["w"], row["p"]) for row in rows] != expected
                    or text != first[r.index].result[1].read_text()):
                r.fail()
                continue
            for row in rows:
                err = abs(row["c_list"] - checks.bitflip_capacity(row["w"], row["p"]))
                if math.isfinite(err):
                    worst = max(worst, err)
                if not cell_ok(row, err):
                    r.failed += 1
        return {"capacity_err_bits": (worst, "bits")}


def cell_ok(row: dict, capacity_err: float) -> bool:
    """A sweep cell passes when it is `ok`, matches H(p*w)-H(p) and the oracle."""
    symmetrizable = row["w"] <= row["p"]  # closed-form bit-flip oracle
    return (
        row["status"] == "ok"
        and capacity_err <= CAPACITY_TOL_BITS
        and (row["verdict"] == "equals_Clist_thm1") == (not symmetrizable)
        and math.isfinite(row["err_avg"])
    )


class Ternary:
    name = "ternary"
    calibration = ("scalar", "pivot")
    gamma_bound = 0.8  # Gamma = {P(1) + 2 P(2) <= 0.8}
    lam_bound = 0.6  # Lambda = {Q(1) + 2 Q(2) <= 0.6}
    resolution = 6
    channel_count = 8
    channel_seed = 8  # its 72 ops hold 8 slow solves (11%), as random channels do
    gap_max_bits = 1e-3
    witness_tol = 1e-7

    def setup(self, seed):
        """The ops: every Gamma lattice point for each of a fixed set of
        Dirichlet(1,1,1)-row channels.

        About a tenth of these inner solves run to max_iter and take ~90% of
        the time.  A fixed set holds the same number of them on every run, so
        the mean op time moves only with the solver and the machine, not
        with the seed.
        """
        gamma = ConstraintSet(3, [([0.0, 1.0, 2.0], self.gamma_bound)])
        lam = ConstraintSet(3, [([0.0, 1.0, 2.0], self.lam_bound)])
        points = gamma.grid_points(self.resolution)
        rng = np.random.default_rng(np.random.SeedSequence(self.channel_seed))
        tables = rng.dirichlet(np.ones(3), size=(self.channel_count, 3, 3))
        ops = [(Channel(table), p_x) for table in tables for p_x in points]
        lam_vertices = checks.polytope_vertices(lam.coeffs, lam.bounds)
        return SimpleNamespace(
            lam=lam, ops=ops, lam_vertices=lam_vertices,
            fingerprint=tables.tobytes() + np.vstack([p.probs for p in points]).tobytes(),
        )

    def pass_inputs(self, state, seed):
        """The same ops for every seed; the seed orders each pass."""
        return [(op, 1) for op in state.ops]

    def call(self, state, op):
        channel, p_x = op
        value, q, evals = capacity.worst_case_mi(p_x, state.lam, channel)
        sym = symmetrize.ecn_symmetrizable(p_x, channel, state.lam)
        return value, q, evals, sym

    def op_ok(self, state, op, result) -> tuple[bool, float]:
        """Checks one op; returns (passed, Frank-Wolfe gap in bits)."""
        channel, p_x = op
        value, q, _, sym = result
        lam = state.lam
        table = channel.table
        gap = checks.frank_wolfe_gap(p_x.probs, q.probs, table, state.lam_vertices)
        ok = (
            checks.in_polytope(q.probs, lam.coeffs, lam.bounds, 1e-9)
            and abs(value - checks.mutual_information(p_x.probs, q.probs, table)) <= 1e-9
            and gap <= self.gap_max_bits
        )
        if sym.feasible:
            u = np.vstack([row.probs for row in sym.witness])
            ok = ok and (
                checks.symmetrization_residual(u, table) <= self.witness_tol
                and checks.in_polytope(p_x.probs @ u, lam.coeffs, lam.bounds, self.witness_tol)
            )
        return ok, gap

    @staticmethod
    def _same(a, b) -> bool:
        return (a[0] == b[0] and np.array_equal(a[1].probs, b[1].probs)
                and a[3].feasible == b[3].feasible)

    def check(self, state, records):
        first = first_runs(records)
        verdicts = {i: self.op_ok(state, r.op, r.result) for i, r in first.items()}
        for r in records:
            if (r.error is not None or not verdicts[r.index][0]
                    or not self._same(r.result, first[r.index].result)):
                r.fail()
        gaps = [gap for _, gap in verdicts.values()]
        op_ms = [r.seconds * 1e3 for r in records]
        tail, pct = tail_latency(op_ms)
        return {
            "capacity_err_bits": (max(gaps, default=0.0), "bits"),
            "op_ms.tail": (tail, "ms"),
            "op_ms.tail_percentile": (pct, "%"),
            "op_ms.samples": (len(op_ms), "count"),
        }


WORKLOADS = {w.name: w for w in (Simulate(), Sweep(), Ternary())}
