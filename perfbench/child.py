"""Run one benchmark workload in this process and print its record as JSON.

    python3 perfbench/child.py --workload train --seed 1 --seconds 25 --trace 0

``run.py`` starts this in a fresh process per workload, one at a time, so
that import time and peak memory belong to that workload alone.  The
package is imported from the checkout's ``src`` directory, never from an
installed copy.  The process starts no threads and no processes.

With ``--trace 0`` every operation runs untraced and the record holds the
end-to-end metrics.  ``wall_s`` is the mean wall time of the run's
operations: the timed region's wall time divided by the operations in it.
On a shared 2-vCPU host whose speed other tenants swing by up to 1.8x,
its spread over seeds was the smallest of mean, median and minimum in 8 of
14 sets of runs, and unlike the minimum it does not fall further when a
faster program fits more operations into a run.  Every operation's wall
time is kept in the record.

With ``--trace 1`` operations alternate between traced and untraced, so the
per-layer metrics and the tracing overhead come from the same run; every
wrapper is removed again after each traced operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# The workload process runs single-threaded, BLAS included.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# Input generation is repeated and its median time kept.  The package
# import can only be timed once per process; run.py adds samples from fresh
# processes.
SETUP_REPEATS = 5


def import_package() -> float:
    """Import steadygain from the checkout; return the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import steadygain
    elapsed = time.perf_counter() - start
    where = Path(steadygain.__file__).resolve().parent
    if where != SRC / "steadygain":
        raise ImportError(f"steadygain was imported from {where}, not {SRC}")
    return elapsed


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def layer_metrics(tracer, traced_output_bytes: list, walls: dict,
                  cpu_per_wall: float) -> dict:
    """Per-layer figures, counts and times per traced operation."""
    n_ops = len(walls[True])
    stats = tracer.summary()
    counts = tracer.counts

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def calls_per_op(name):
        return (stat(name, "calls") / n_ops, "count")

    def us_per_call(name):
        calls = stat(name, "calls")
        return (stat(name, "total_s") / calls * 1e6 if calls else 0.0, "us")

    iters = counts.get("training.iters", 0)
    run_s = stat("evaluation.run_trajectories", "total_s")
    run_calls = stat("evaluation.run_trajectories", "calls")
    steps = counts.get("evaluation.steps", 0)
    return {
        "training.iters": (iters / n_ops, "count"),
        "training.train.calls": calls_per_op("training.train"),
        "training.train.self_us_per_iter": (
            stat("training.train", "self_s") / iters * 1e6 if iters else 0.0,
            "us"),
        "training.adam_update.calls": calls_per_op("training.adam_update"),
        "training.adam_update.us_per_call": us_per_call("training.adam_update"),
        "error_mdp.draw_noise.calls": calls_per_op("error_mdp.draw_noise"),
        "error_mdp.draw_noise.us_per_call": us_per_call("error_mdp.draw_noise"),
        "error_mdp.step.us_per_call": us_per_call("error_mdp.step"),
        "error_mdp.cov_factor.calls": calls_per_op("error_mdp.cov_factor"),
        "cli.write_s": ((stat("training.TrainHistory.to_csv", "total_s")
                         + stat("evaluation.write_eval_csv", "total_s"))
                        / n_ops, "s"),
        "cli.write_bytes": (sum(traced_output_bytes) / n_ops, "bytes"),
        "cli.self_s": (stat("cli.main", "self_s") / n_ops, "s"),
        "kalman.solve_dare.calls": calls_per_op("kalman.solve_dare"),
        "kalman.solve_dare.us_per_call": us_per_call("kalman.solve_dare"),
        "kalman.riccati_iterate.calls": calls_per_op("kalman.riccati_iterate"),
        "kalman.riccati_iterate.us_per_call":
            us_per_call("kalman.riccati_iterate"),
        "evaluation.run_trajectories.s": (
            run_s / run_calls if run_calls else 0.0, "s"),
        "evaluation.step_us": (run_s / steps * 1e6 if steps else 0.0, "us"),
        "evaluation.traj_steps_per_s": (
            counts.get("evaluation.traj_steps", 0) / run_s if run_s else 0.0,
            "1/s"),
        "evaluation.losses.us_per_call": us_per_call("evaluation.losses"),
        "models.build_s": (tracer.outermost_s("models.") / n_ops, "s"),
        "proc.cpu_per_wall": (cpu_per_wall, "ratio"),
        "trace.overhead_pct": (
            (statistics.fmean(walls[True]) / statistics.fmean(walls[False])
             - 1.0) * 100.0, "%"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full", import_s: float = 0.0) -> dict:
    """Set up, run operations for ``seconds``, check them and measure."""
    import cases
    import tracing

    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = cases.WORKLOADS[name](cases.SIZES[size], seed, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        tracer = tracing.Tracer() if trace else None
        results = []
        cpu_start, start = cpu_seconds(), time.perf_counter()
        while True:
            i = len(results)
            traced = bool(trace) and i % 2 == 0
            if traced:
                tracer.op = i
                cases.install_tracing(tracer)
            op_start = time.perf_counter()
            try:
                result = workload.op(i)
            except Exception as err:  # a failed op is counted, not fatal
                result = {"wall_s": time.perf_counter() - op_start,
                          "attempted": 1, "output_bytes": 0, "failures": [
                              f"op {i} raised {cases.error_text(err)}"]}
            finally:
                if traced:
                    tracer.uninstall()
            result["traced"] = traced
            results.append(result)
            if time.perf_counter() - start >= seconds and (
                    not trace or len(results) >= 2):
                break
        elapsed = time.perf_counter() - start
        cpu_per_wall = (cpu_seconds() - cpu_start) / elapsed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        extra, late_failures = workload.finish()
        failures = [f for r in results for f in r["failures"]] + late_failures
        attempted = sum(r["attempted"] for r in results)
        walls = {flag: [r["wall_s"] for r in results if r["traced"] == flag]
                 for flag in (False, True)}
        if trace:
            metrics = layer_metrics(
                tracer, [r["output_bytes"] for r in results if r["traced"]],
                walls, cpu_per_wall)
            tracer.flush(WORK / f"spans-{name}-seed{seed}.csv")
        else:
            metrics = {
                "wall_s": (statistics.fmean(walls[False]), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                **extra,
                "fail_frac": (len(failures) / attempted, "ratio"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "size": size, "ops": len(results),
            "op_walls_s": {"untraced": walls[False], "traced": walls[True]},
            "import_s": import_s,
            "inputs_s": statistics.median(setup_times),
            "attempted": attempted, "failed": len(failures),
            "problems": list(dict.fromkeys(failures))[:20],
            "metrics": {k: {"value": v, "unit": unit}
                        for k, (v, unit) in metrics.items()},
            "env": environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    import_s = import_package()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.size, import_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
