"""rasqp benchmark: run one workload, verify every result, print its metrics.

    python3 perfbench/run.py --workload hard-dense --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from ``src/``.  Each
workload runs in its own process from one thread of load generation (a
closed loop: the next op starts when the previous one returns), with BLAS
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics, with
every time scaled to a fixed machine speed measured by the calibration
kernel in ``calibrate.py`` (the unscaled times are printed too);
``--trace 1`` replays the same ops under the span tracer and prints the
per-layer split.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a per-run record with the
environment is also written to ``perfbench/out/``.  See
``perfbench/README.md`` for what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("hard-dense", "small-many", "sparse-mixed", "plan-grid")
DEFAULT_SEED = 0
#: Not used while the benchmark was tuned; re-check any claim on it.
HELD_OUT_SEED = 7
BLAS_THREADS = 1
#: Set-up runs at least this many times and for at least this long; the
#: median is reported, so a slow first set-up or a short stall drops out.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: p90 needs at least ten samples beyond it, so a run on a slow machine
#: goes on past --seconds until it has this many ops, up to a limit.
MIN_OPS_FOR_P90 = 100
MAX_SECONDS_FACTOR = 3
#: Times are scaled to the speed at which the calibration kernel takes this
#: long, about its time on the machine the benchmark was built on when no
#: neighbour slowed it.
REFERENCE_KERNEL_S = 1e-3
#: Layer self times must cover at least this share of the traced op time.
MIN_TRACE_COVERAGE = 0.99


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "rasqp" / "__init__.py").is_file():
        print(f"error: no rasqp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before NumPy loads
    sys.path.insert(0, str(ROOT / "src"))
    import rasqp
    if Path(rasqp.__file__).resolve().parent != ROOT / "src" / "rasqp":
        print(f"error: imported rasqp from {rasqp.__file__}, not from src/", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    run = run_traced if args.trace else run_untraced
    summary, values = run(WORKLOADS[args.workload], args.seed, args.seconds)
    if values.keys() != units.keys():
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    record = {"workload": args.workload, "environment": environment(args), **summary,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(record["environment"]))
    for error in summary["errors"]:
        print(f"FAILED {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={summary['attempted']} "
          f"failed={summary['failed']} fail_frac={summary['fail_frac']:.4g} ratio")
    for key, m in metrics.items():
        print(f"  {key:<34}{m['value']:>16.6g} {m['unit']}")
    for key, value in summary.get("unscaled", {}).items():
        print(f"  {key + ' (unscaled)':<34}{value:>16.6g} {metrics[key]['unit']}")
    if "speed" in summary:
        print("  speed " + json.dumps(summary["speed"]))
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def set_up(workload, seed, warm_up_op=0):
    """Generate the workload's problems and run one op as a warm-up."""
    make_op = workload.setup(seed)
    make_op(warm_up_op).call()
    return make_op


def run_untraced(workload, seed, seconds):
    """Time the set-ups and ops, each between two samples of the calibration
    kernel, and scale the times to the kernel's reference speed (see
    :func:`speed_adjust`).  The unscaled figures go into the run's record."""
    import calibrate

    setup_s, setup_kernel = [], []
    before = calibrate.sample()
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        t0 = time.perf_counter()
        # Each repeat warms up on another op, so the median does not hang on
        # how many solves one particular op happens to take.
        make_op = set_up(workload, seed, warm_up_op=len(setup_s))
        setup_s.append(time.perf_counter() - t0)
        after = calibrate.sample()
        setup_kernel.append((before + after) / 2)
        before = after
    times, op_kernel, outcomes = [], [], []
    start = time.perf_counter()
    spent = 0.0
    while spent < seconds or (len(times) < MIN_OPS_FOR_P90
                              and spent < MAX_SECONDS_FACTOR * seconds):
        elapsed, outcome = make_op(len(times)).run()
        after = calibrate.sample()
        times.append(elapsed)
        op_kernel.append((before + after) / 2)
        outcomes.append(outcome)
        before = after
        spent = time.perf_counter() - start
    if len(times) < MIN_OPS_FOR_P90:
        print(f"warning: {len(times)} ops, fewer than {MIN_OPS_FOR_P90}; "
              "run_ms_p90 has under ten samples beyond it", file=sys.stderr)
    runs = [run for o in outcomes for run in o.runs]
    values = timings(speed_adjust(times, op_kernel), speed_adjust(setup_s, setup_kernel))
    values["solves_per_run"] = sum(solves for _, solves in runs) / max(len(runs), 1)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = summarize({k: o.error for k, o in enumerate(outcomes) if o.error}, len(times))
    summary["unscaled"] = timings(times, setup_s)
    summary["speed"] = {"kernel_ms_p10": statistics.quantiles(op_kernel, n=10)[0] * 1e3,
                        "kernel_ms_p50": statistics.median(op_kernel) * 1e3,
                        "kernel_ms_p90": statistics.quantiles(op_kernel, n=10)[-1] * 1e3}
    return summary, values


def timings(op_s, setup_s) -> dict[str, float]:
    ms = [t * 1e3 for t in op_s]
    return {"run_ms_p50": statistics.median(ms),
            "run_ms_p90": statistics.quantiles(ms, n=10)[-1],
            "runs_per_s": len(ms) / sum(op_s),
            "setup_s": statistics.median(setup_s)}


def speed_adjust(times, kernel) -> list[float]:
    """Each time as it would read if the kernel next to it had taken
    REFERENCE_KERNEL_S: ``t * REFERENCE_KERNEL_S / c``.

    On a shared host the same code runs up to ~2x slower in some spells than
    in others, and how much of a run falls in slow spells changes from run
    to run.  The scaled time removes that, and leaves what the code does.
    """
    return [t * REFERENCE_KERNEL_S / c for t, c in zip(times, kernel)]


def run_traced(workload, seed, seconds):
    """Run each op twice, untraced and traced, in alternating order.

    Pairing the two runs of an op keeps a slow spell of the machine from
    landing on one side only, so their time ratio is the tracing overhead.
    The traced side has its own set-up, traced as op id 0, so that generation
    in set-up is measured as well.
    """
    from tracer import Tracer

    tracer = Tracer()
    make_untraced = set_up(workload, seed)
    with tracer.installed():
        make_traced = set_up(workload, seed)
    times_u, outcomes_u, times_t, outcomes_t = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = len(times_u)
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    tracer.op = k + 1
                    elapsed, outcome = make_traced(k).run()
                times_t.append(elapsed)
                outcomes_t.append(outcome)
            else:
                elapsed, outcome = make_untraced(k).run()
                times_u.append(elapsed)
                outcomes_u.append(outcome)
    ops = len(times_u)

    values = tracer.layer_metrics(ops)
    values["trace_overhead_frac"] = sum(times_t) / sum(times_u) - 1.0
    coverage = float(sum(t for s, t in zip(tracer.spans, tracer.self_times()) if s[4] > 0)
                     / sum(times_t))
    problems = {}
    for k, (u, t, solves) in enumerate(zip(outcomes_u, outcomes_t, tracer.solves_per_op(ops))):
        if u.error or t.error:
            problems[k] = f"untraced: {u.error}; traced: {t.error}"
        elif u.runs != t.runs:
            problems[k] = f"traced runs {t.runs} differ from untraced {u.runs}"
        elif solves != sum(n for _, n in t.runs):
            problems[k] = f"{solves} traced solves, solver reported {sum(n for _, n in t.runs)}"
    summary = summarize(problems, ops)
    if coverage < MIN_TRACE_COVERAGE:
        summary["correct"] = False
        summary["errors"].append(f"layer self times cover {coverage:.4f} of traced op time")
    summary["trace_coverage"] = coverage
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload.name}-seed{seed}.csv")
    return summary, values


def summarize(problems: dict[int, str], attempted: int) -> dict:
    """Counts for the result line from the failed ops (op index -> reason)."""
    return {"correct": not problems, "attempted": attempted, "failed": len(problems),
            "fail_frac": len(problems) / attempted if attempted else 1.0,
            "errors": [f"op {k}: {why}" for k, why in sorted(problems.items())][:20]}


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


if __name__ == "__main__":
    sys.exit(main())
