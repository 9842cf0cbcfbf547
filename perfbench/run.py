"""Benchmark of the steadygain command line and Riccati oracle.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``cases.py`` for why each was chosen):

    train   steadygain train, one seed, 1 000 iterations
    sweep   steadygain sweep-gamma, 5 discounts x 3 seeds x 300 iterations
    eval    steadygain eval of dare, zero and a shipped gain, 10 000 x 1 000
    oracle  solve_dare on a seeded family of ~200 plants

Each workload runs in a fresh child process (``child.py``), one at a time,
with BLAS held to one thread.  Operations repeat for ``--seconds``;
``wall_s`` is their mean, and ``setup_s`` the median package import time
plus the median input-generation time.  The report gives the environment,
then every metric with its unit; results also go to ``.perfbench_out/``.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json names: its end-to-end ones with
``--trace 0``, its per-layer ones with ``--trace 1``.

Exit codes: 0 with a result line; 1 when a workload process fails, times
out or misses a metric; 2 when the checkout holds no package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from child import BLAS_ENV, HERE, ROOT, SRC, WORK

# The same names as cases.WORKLOADS.  This process does not import cases,
# which imports numpy and steadygain: a checkout without package sources
# must end with exit code 2, and only the workload process may pay for
# the package import.
WORKLOADS = ("train", "sweep", "eval", "oracle")
CHILD_TIMEOUT_S = 170

# setup_s takes the median package import time over the workload process
# and this many fresh probe processes, half started before the workload and
# half after it so that the samples span the run, plus the median of the
# workload's input generations.
IMPORT_PROBES = 12
PROBE = ("import sys, time; start = time.perf_counter(); "
         "sys.path.insert(0, sys.argv[1]); import steadygain; "
         "print(time.perf_counter() - start)")


class BenchError(RuntimeError):
    pass


def run_child(workload: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: no result within {err.timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: workload process exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                              cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-1000:]}")
        times.append(float(proc.stdout))
    return times


def add_setup(record: dict, probes: list[float]) -> None:
    """setup_s = median import time + median input-generation time."""
    imports = probes + [record["import_s"]]
    setup = statistics.median(imports) + record["inputs_s"]
    record["metrics"] = {"setup_s": {"value": setup, "unit": "s"},
                         **record["metrics"]}
    record["import_samples_s"] = imports


def report(record: dict) -> None:
    env = record["env"]
    blas = ",".join(f"{k}={v}" for k, v in env["blas_env"].items())
    print(f"# {record['workload']}: seed={record['seed']} "
          f"trace={record['trace']} size={record['size']} ops={record['ops']} "
          f"attempted={record['attempted']} failed={record['failed']} | "
          f"nproc={env['nproc']} usable={env['cpus_usable']} "
          f"python={env['python']} numpy={env['numpy']} {blas}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:<7} {name:<36} "
              f"{metric['value']:>16.6g} {metric['unit']}")


def contract_metrics(record: dict, wanted: dict) -> dict:
    """The metrics BENCHMARK.json names, with the units it gives them."""
    got = record["metrics"]
    for name, unit in wanted.items():
        if name not in got or got[name]["unit"] != unit:
            raise BenchError(f"{record['workload']}: metric {name} [{unit}] "
                             f"missing or in another unit")
    return {name: got[name] for name in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="steadygain benchmark: one workload per child process")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "steadygain" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    results = []
    try:
        for workload in workloads:
            probes = [] if args.trace else import_times(IMPORT_PROBES // 2)
            record = run_child(workload, args)
            if not args.trace:
                probes += import_times(IMPORT_PROBES - len(probes))
                add_setup(record, probes)
            report(record)
            results.append((record, contract_metrics(record, wanted)))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    for record, _ in results:
        path = WORK / (f"result-{record['workload']}-seed{args.seed}"
                       f"-trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=2))
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{record['workload']}.{name}": value
                   for record, chosen in results for name, value in chosen.items()}
    failed = sum(record["failed"] for record, _ in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r, _ in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
