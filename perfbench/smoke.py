"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload through ``run.py`` untraced and traced, and checks that
each run succeeds, reports no failed operation, prints every metric
BENCHMARK.json names with its unit, and ends with the result line.  Then
runs a traced workload in this process and checks that every wrapped
function is back in place afterwards.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from child import HERE, ROOT, import_package, run_workload


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    printed = [line.split() for line in lines[:-1]]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{where}: {name} is {got}, want a number in {unit}")
        if [workload, name, unit] not in [[f[0], f[1], f[-1]] for f in printed if len(f) >= 3]:
            problems.append(f"{where}: report has no line for {name} [{unit}]")
    return problems


def check_restored(cases) -> list[str]:
    targets = cases.trace_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    problems = []
    for workload in cases.WORKLOADS:
        run_workload(workload, seed=5, seconds=0.5, trace=1, size="tiny")
        for (owner, attr, _, _), original in zip(targets, before):
            if vars(owner)[attr] is not original:
                problems.append(f"{workload}: {owner.__name__}.{attr} is "
                                f"still wrapped after a traced run")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import cases
    problems = []
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
    problems += check_restored(cases)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
