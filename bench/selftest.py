"""Smoke-size self-test of the benchmark itself.

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

Runs every workload for one second (which becomes two passes of its
inputs), end-to-end and traced, and asserts that the last line of output
names every BENCHMARK.json metric with its unit and that all outputs pass
their checks.  Then it feeds corrupted outputs (a perturbed c_list, a wrong
mutual information, a broken witness, changed outcome counts, a repeat that
differs from its first run) to the workloads' checks and asserts that they
fail.  Takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from winavc.core import Channel, Distribution  # noqa: E402

SEED = 7


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_metric_printed_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[kind]}, (workload, kind)
            for m in result["metrics"].values():
                assert isinstance(m["value"], (int, float))


def _one_call(workload, seed=SEED):
    state = workload.setup(seed)
    op, n_ops = workload.pass_inputs(state, seed)[0]
    return state, workloads.Record(0, op, n_ops, 0.0, workload.call(state, op))


def test_sweep_rejects_perturbed_c_list():
    sweep = workloads.WORKLOADS["sweep"]
    state, record = _one_call(sweep)
    sweep.check(state, [record])
    assert record.failed == 0
    rows_path = record.result[1]
    rows = json.loads(rows_path.read_text())
    rows[0]["c_list"] += 2e-3
    rows_path.write_text(json.dumps(rows))
    sweep.check(state, [record])
    assert record.failed == 1


def test_ternary_rejects_wrong_value_and_point():
    ternary = workloads.WORKLOADS["ternary"]
    state, record = _one_call(ternary)
    value, q, evals, sym = record.result
    assert ternary.op_ok(state, record.op, record.result)[0]
    assert not ternary.op_ok(state, record.op, (value + 1e-6, q, evals, sym))[0]
    outside = Distribution([0.0, 0.0, 1.0])  # Q(1) + 2 Q(2) = 2 > 0.6
    assert not ternary.op_ok(state, record.op, (value, outside, evals, sym))[0]


def test_ternary_rejects_repeat_with_other_output():
    ternary = workloads.WORKLOADS["ternary"]
    state, record = _one_call(ternary)
    value, q, evals, sym = record.result
    repeat = dataclasses.replace(record, result=(value + 1e-12, q, evals, sym))
    ternary.check(state, [record, repeat])
    assert record.failed == 0 and repeat.failed == 1


def test_ternary_checks_symmetrizability_witness():
    """y = x + s mod 3 is symmetrizable wherever P(1) + 2 P(2) <= 0.6."""
    ternary = workloads.WORKLOADS["ternary"]
    state = ternary.setup(SEED)
    table = np.zeros((3, 3, 3))
    for x in range(3):
        for s in range(3):
            table[x, s, (x + s) % 3] = 1.0
    op = (Channel(table), Distribution([0.8, 0.2, 0.0]))
    value, q, evals, sym = ternary.call(state, op)
    assert sym.feasible
    assert ternary.op_ok(state, op, (value, q, evals, sym))[0]
    broken = tuple(Distribution.point_mass(2, 3) for _ in range(3))
    bad = dataclasses.replace(sym, witness=broken)
    assert not ternary.op_ok(state, op, (value, q, evals, bad))[0]


def test_simulate_rejects_changed_outcomes():
    simulate = workloads.WORKLOADS["simulate"]
    state, record = _one_call(simulate)
    counts = dict(record.result.outcome_counts)
    counts["correct"] -= 1
    counts["wrong-message"] += 1
    repeat = dataclasses.replace(
        record, result=dataclasses.replace(record.result, outcome_counts=counts))
    simulate.check(state, [record, repeat])
    assert record.failed == 0 and repeat.failed == repeat.n_ops
    counts = dict.fromkeys(counts, 0)
    counts["correct"] = record.n_ops // 2
    counts["list-failure"] = record.n_ops - counts["correct"]
    record.result = dataclasses.replace(record.result, outcome_counts=counts)
    report = simulate.check(state, [record])
    assert report["decode_wilson_hi"][0] > workloads.WILSON_MAX
    assert record.failed == record.n_ops


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
