"""sgdm benchmark: Monte Carlo ensemble and indicator throughput.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload mc_p3_1d --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``. Workloads and metrics
are declared in ``BENCHMARK.json``; ``workloads.py`` says why each workload
exists. Lines starting with ``#`` report the environment, per-phase rates
and the correctness checks; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off. Set-up is
repeated and its median reported. Then rounds of timed calls (a
`run_ensemble` call, or one indicator evaluation; a round is one ensemble
per phase, or one sweep) run for ``--seconds``, the phases of a workload
taking turns. A phase reports operations per reference second: operations
per wall-clock second over all its calls, scaled by the machine speed that
a calibration kernel measured between the calls (``measure.Calibrator``).
On the shared 2-vCPU VM where the benchmark was defined, wall-clock
throughput spread 7-13% between runs (first to third quartile over ten
runs, per workload) as the CPU's speed drifted, and 4-5% once scaled. The
median set-up time is scaled the same way.

``--trace 1`` runs serially: half the time untraced, half with every probed
library call recorded as a span. It reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.
"""

import argparse
import json
import multiprocessing
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pinned to one thread by main(); modules that load numpy are therefore
# imported inside the functions that use them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sgdm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sgdm" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sgdm sources under {src}")
    sys.path.insert(0, str(src))
    import sgdm

    if Path(sgdm.__file__).resolve().parent != (src / "sgdm").resolve():
        raise SystemExit(f"benchmark: imported sgdm from {sgdm.__file__}, not {src}")


def note(key, value):
    print(f"# {key}: {json.dumps(value, default=str)}")


def report_phase(label, phase):
    from measure import quartiles

    note(f"phase {label}", {
        "calls": len(phase.ops), "ops": sum(phase.ops), "seconds": sum(phase.seconds),
        "ops_per_s": phase.throughput, "batch_ops_per_s_quartiles": quartiles(phase.rates),
        "machine_speed": phase.speed, "calibration_runs": len(phase.calibration),
        "ops_per_ref_s": phase.ref_throughput,
    })
    return phase.ref_throughput


def measure_end_to_end(workload, seconds, ref, info):
    from measure import Calibrator, peak_rss_mb, timed_rounds, timed_setup

    calibrator = Calibrator()
    setup_s, wall_s, reps, pb = timed_setup(workload.setup, calibrator)
    note("setup", {"median_s": wall_s, "median_ref_s": setup_s, "repetitions": reps})
    errors = workload.check_reference(pb, ref)
    phases = timed_rounds(workload.phases(pb), seconds, calibrator)
    throughput = {label: report_phase(label, phase) for label, phase in phases.items()}
    if "workers=2" in throughput:
        info["parallel_efficiency"] = throughput["workers=2"] / (2.0 * throughput["workers=1"])
    errors += workload.check(pb, [o for phase in phases.values() for o in phase.outcomes], ref, info)
    values = {
        "ops_per_ref_s": next(iter(throughput.values())),
        "setup_s": setup_s,
        "completed_share": 1.0 - workload.failures.failed_share,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, errors


def measure_layers(workload, seconds, ref, info, seed):
    from measure import Calibrator, timed_rounds
    from tracer import Tracer
    from workloads import instrument, layer_metrics

    tracer = Tracer()
    instrument(tracer)
    try:
        pb = workload.setup()
    finally:
        tracer.restore()
    errors = workload.check_reference(pb, ref)
    steps = workload.phases(pb, serial_only=True)
    calibrator = Calibrator()
    (label, off), = timed_rounds(steps, seconds / 2, calibrator).items()
    untraced = report_phase(f"{label} untraced", off)
    n_spans = len(tracer.start)
    instrument(tracer)
    try:
        (_, on), = timed_rounds(steps, seconds / 2, calibrator).items()
    finally:
        tracer.restore()
    traced = report_phase(f"{label} traced", on)
    errors += workload.check(pb, off.outcomes + on.outcomes, ref, info)
    if tracer.missing:
        note("trace targets missing", tracer.missing)

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{workload.name}_seed{seed}.npz"
    tracer.save(path)
    note("spans", {"setup": n_spans, "total": len(tracer.start), "file": str(path.relative_to(ROOT))})

    values = layer_metrics(tracer, workload)
    values.update({
        "trace.ops_per_ref_s_untraced": untraced,
        "trace.ops_per_ref_s_traced": traced,
        "trace.overhead_share": 1.0 - traced / untraced,
    })
    return values, errors


def main(argv=None):
    args = parse_args(argv)
    # one BLAS/OpenMP thread, fixed before numpy loads its libraries
    for var in THREAD_VARS:
        os.environ[var] = "1"
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; expected one of {names}")
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    import_program()
    import numpy
    import scipy

    from measure import metric_entries
    from workloads import load_reference, make_workload

    note("env", {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    })
    workload = make_workload(args.workload, args.seed)
    ref = load_reference()[args.workload]
    info = {}
    if args.trace:
        values, errors = measure_layers(workload, args.seconds, ref, info, args.seed)
        metrics = metric_entries(values, spec["per_layer"])
    else:
        values, errors = measure_end_to_end(workload, args.seconds, ref, info)
        metrics = metric_entries(values, spec["end_to_end"])
    for child in multiprocessing.active_children():
        child.join()
    info["failures"] = dict(workload.failures.errors)
    note("checks", info)
    for err in errors:
        note("INCORRECT", err)
    print(json.dumps({
        "correct": not errors,
        "attempted": workload.failures.attempted,
        "failed": workload.failures.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
