"""Seeded winavc benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {simulate,sweep,ternary} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a winavc source checkout and imports the library from
its src/ directory.  The workload's calls run back to back, pass after pass
over one seeded set of inputs, until S seconds of calls and at least two
passes are done (the pass in progress is finished); then every output is
checked.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the metrics are the
`end_to_end` list of BENCHMARK.json, with --trace 1 the `per_layer` list.
The lines before it give provenance and a report with further metrics.
Results and spans are also written under bench/out/.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; every workload is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import kernel_seconds  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CALIBRATE_EVERY_S = 0.5
RESAMPLE_SETUP_EVERY_S = 3.0
CALIBRATION_PASSES = 3
# A timing is divided by the median of this many kernel passes timed nearest to it.
NEAREST_CALIBRATIONS = 6
MIN_PASSES = 2  # so that every input is run at least twice and its outputs compared
# op_cost.* and the set-up part of setup_s are times on a machine where the
# kernels take this long, and the import part of setup_s is the import time
# on a machine where the reference imports below take REFERENCE_IMPORT_MS.
REFERENCE_CALIBRATION_MS = 10.0
REFERENCE_IMPORT_MS = 50.0

# Standard-library modules that neither numpy nor winavc loads.  Importing
# them right after winavc, in the same interpreter, measures how fast the
# machine imports modules at that moment: it follows import time much more
# closely than the numpy kernels do.
REFERENCE_MODULES = ("argparse", "csv", "calendar", "difflib", "email.parser", "http.client",
                     "xml.dom.minidom", "configparser", "pprint", "tomllib", "plistlib")

# numpy is imported before the clock starts: only winavc's own import is timed.
IMPORT_PROBE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import winavc\n"
    "own = time.perf_counter() - t\n"
    "t = time.perf_counter()\n"
    + "".join(f"import {name}\n" for name in REFERENCE_MODULES)
    + "print(own, time.perf_counter() - t)\n"
)


def import_seconds() -> tuple[float, float]:
    """Times of `import winavc` (which loads every submodule) and of the
    reference imports after it, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    own, reference = done.stdout.strip().splitlines()[-1].split()
    return float(own), float(reference)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def machine_speed(calibration, t0, t1) -> float:
    """Median time of the NEAREST_CALIBRATIONS kernel passes timed closest to
    the interval [t0, t1]: how fast the machine was while it ran."""
    near = sorted(calibration, key=lambda c: max(t0 - c[0], c[0] - t1, 0.0))
    return statistics.median(s for _, s in near[:NEAREST_CALIBRATIONS])


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values: the typical op, steadier than
    the median when op costs come in discrete levels, and blind to the tail
    (which op_cost.mean counts in full)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def measure(workload, state, inputs, order_rng, seconds, tracer=None, resample=None):
    """Closed loop: call after call, pass after pass over `inputs`, each pass
    in an order drawn from `order_rng`, until at least MIN_PASSES passes and
    `seconds` of calls have passed.  The pass in progress is finished.

    Before a call, if CALIBRATE_EVERY_S have passed since the last time, the
    workload's calibration kernels run CALIBRATION_PASSES times, and
    `resample` runs if RESAMPLE_SETUP_EVERY_S have passed since it last did.  With a
    tracer, every other call is also run once untraced right next to its
    traced run (alternating which goes first), so the tracing overhead is
    measured on the same work under the same machine load.  Calibration,
    resampling and untraced runs are left out of the window.

    Returns (records, starts, wall_s, paired, calibration), where starts
    holds each record's start time, paired maps a record's position to the
    time of its untraced run, and calibration holds (start, seconds) of
    every kernel pass, the last ones timed after the last call.
    """
    from workloads import Record

    records, starts, calibration, paired = [], [], [], {}

    def calibrate():
        for _ in range(CALIBRATION_PASSES):
            calibration.append((time.perf_counter(), kernel_seconds(workload.calibration)))

    excluded_s = 0.0
    last_calibration = -math.inf
    passes = 0
    start = last_resample = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start - excluded_s < seconds:
        for index in order_rng.permutation(len(inputs)):
            op, n_ops = inputs[index]
            k = len(records)
            t0 = time.perf_counter()
            if t0 - last_calibration >= CALIBRATE_EVERY_S:
                calibrate()
                if resample is not None and t0 - last_resample >= RESAMPLE_SETUP_EVERY_S:
                    resample()
                    last_resample = t0
                last_calibration = time.perf_counter()
                excluded_s += last_calibration - t0
            if tracer is not None and k % 4 == 0:
                paired[k] = _untraced(workload, state, op, tracer)
            if tracer is not None:
                tracer.op_id = k
            t0 = time.perf_counter()
            try:
                result, error = workload.call(state, op), None
            except Exception as exc:  # a failed op is counted, and the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
                if not any(r.error for r in records):
                    traceback.print_exc(file=sys.stderr)
            records.append(Record(int(index), op, n_ops, time.perf_counter() - t0, result, error))
            starts.append(t0)
            if tracer is not None and k % 4 == 2:
                paired[k] = _untraced(workload, state, op, tracer)
            excluded_s += paired.get(k, 0.0)
        passes += 1
    wall_s = time.perf_counter() - start - excluded_s
    calibrate()
    return records, starts, wall_s, paired, calibration


def _untraced(workload, state, op, tracer) -> float:
    tracer.active = False
    t0 = time.perf_counter()
    try:
        workload.call(state, op)
    except Exception:  # the traced run of the same op records the failure
        pass
    elapsed = time.perf_counter() - t0
    tracer.active = True
    return elapsed


def run(args) -> int:
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)

    # Set-up is timed again every few seconds during the run, with the
    # import in a fresh interpreter each time.  Set-up samples are (start,
    # end, seconds), so that each can be set against the kernels' speed then;
    # import samples are (winavc's import, the reference imports).
    setup_samples, import_samples, fingerprints = [], [], set()

    def set_up():
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        t1 = time.perf_counter()
        setup_samples.append((t0, t1, t1 - t0))
        fingerprints.add(state.fingerprint)
        return state

    def resample():
        set_up()
        import_samples.append(import_seconds())

    state = set_up()
    if not args.trace:
        import_samples.append(import_seconds())

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        missing = layers.install(tracer)
        if missing:
            print("trace: not found, left untraced: " + ", ".join(missing), file=sys.stderr)
        tracer.active = True
    inputs = workload.pass_inputs(state, args.seed)
    order_rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xB)))
    records, starts, wall_s, paired, calibration = measure(
        workload, state, inputs, order_rng, args.seconds, tracer,
        resample=None if args.trace else resample)
    if tracer is not None:
        tracer.active = False

    report = workload.check(state, records)
    attempted = sum(r.n_ops for r in records)
    failed = sum(r.failed for r in records)
    if len(fingerprints) != 1:
        print("check failed: repeated setup built different inputs", file=sys.stderr)
        failed = attempted
    correct = failed == 0
    op_ms = [r.seconds * 1e3 / r.n_ops for r in records]

    # The speed of a shared machine drifts from second to second.  Each
    # timing is divided by the kernels' pass time nearest to it, which gives
    # its cost in kernel passes; each input takes the median of its runs'
    # costs.  REFERENCE_CALIBRATION_MS turns kernel passes back into ms.
    runs = {}
    for r, t0 in zip(records, starts):
        runs.setdefault(r.index, []).append(r.seconds / machine_speed(calibration, t0, t0 + r.seconds))
    cost = {i: statistics.median(v) for i, v in runs.items()}
    n_ops = sum(inputs[i][1] for i in cost)
    values = {
        "op_cost.iqm": interquartile_mean(cost[i] / inputs[i][1] for i in cost) * REFERENCE_CALIBRATION_MS,
        "op_cost.mean": sum(cost.values()) / n_ops * REFERENCE_CALIBRATION_MS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fastest = {}
    for r in records:
        fastest[r.index] = min(fastest.get(r.index, math.inf), r.seconds)
    kernel_ms = [seconds * 1e3 for _, seconds in calibration]
    report.update({
        "wall_s": (wall_s, "s"),
        "ops_per_s": (attempted / wall_s, "1/s"),
        "ops_failed_frac": (failed / attempted, "frac"),
        "op_ms.mean": (sum(r.seconds for r in records) * 1e3 / attempted, "ms"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.fastest_mean": (sum(fastest.values()) * 1e3 / n_ops, "ms"),
        "calibration_ms": (min(kernel_ms), "ms"),
        "calibration_ms.median": (statistics.median(kernel_ms), "ms"),
        "calls": (len(records), "count"),
        "passes": (len(records) // len(inputs), "count"),
    })
    if tracer is None:
        import_cost = statistics.median(own / ref for own, ref in import_samples)
        construct_cost = statistics.median(
            s / machine_speed(calibration, t0, t1) for t0, t1, s in setup_samples)
        values["setup_s"] = (import_cost * REFERENCE_IMPORT_MS
                             + construct_cost * REFERENCE_CALIBRATION_MS) / 1e3
        report.update({
            "setup.import_s": (statistics.median(own for own, _ in import_samples), "s"),
            "setup.reference_import_s": (statistics.median(ref for _, ref in import_samples), "s"),
            "setup.construct_s": (statistics.median(s for *_, s in setup_samples), "s"),
            "setup.samples": (len(setup_samples), "count"),
        })
        metric_specs = spec["end_to_end"]
    else:
        values.update(layers.per_layer_metrics(
            tracer, wall_s, attempted,
            sum(records[i].seconds for i in paired) / sum(paired.values()) - 1.0))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metric_specs = spec["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    report_metrics = {name: {"value": v, "unit": u} for name, (v, u) in report.items()}
    print("report " + json.dumps(report_metrics), flush=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "report": report_metrics, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("simulate", "sweep", "ternary"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "winavc" / "__init__.py").is_file():
        print(f"error: no winavc sources under {SRC}; run from a winavc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import winavc

    if Path(winavc.__file__).resolve().parent != SRC / "winavc":
        print(f"error: imported winavc from {winavc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
