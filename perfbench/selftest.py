"""Self-test of the benchmark's tracing; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Installing the tracer rebinds names in the copocert modules, and
   restoring it puts back every original object.
2. Two traced runs of each workload with the same seed must report the same
   counts and ratios: every ``.calls``, every derived count or ratio, and
   ``linalg.max_result_bits``.  Only times may differ.
3. On census-n5, every span lies inside its parent's interval, no self
   time is negative, and the self times of the spans under each traced
   ``run_census`` call add up to that call's duration.

Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from run import WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 2


def tracer_restores() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import copocert.cli  # noqa: F401  (loads every copocert module)

    modules = {k: m for k, m in sys.modules.items()
               if k == "copocert" or k.startswith("copocert.")}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    with tracer.Tracer():
        rebound = sum(1 for k, m in modules.items()
                      for name, value in vars(m).items() if before[k][name] is not value)
    after = {k: dict(vars(m)) for k, m in modules.items()}
    if rebound < len(tracer.TARGETS):
        return [f"tracer rebound only {rebound} names"]
    if any(after[k][name] is not value for k in before for name, value in before[k].items()):
        return ["tracer left a wrapper in place"]
    print(f"tracer rebound {rebound} names and restored all of them")
    return []


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"traced run of {workload} failed:\n{done.stdout[-3000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def deterministic(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if not name.endswith(".self_s") and not name.startswith("trace.")}


def read_spans(path: str) -> list[list]:
    spans = []
    with open(path) as handle:
        for line in handle:
            _, name, start, end, parent, request = line.rstrip("\n").split("\t")
            spans.append([name, float(start), float(end), int(parent),
                          int(request), None])
    return spans


def census_spans_consistent(seed: int) -> list[str]:
    spans = read_spans(os.path.join(WORK, f"spans-census-n5-{seed}.tsv"))
    own = tracer.self_times(spans)
    root_of = list(range(len(spans)))
    problems = []
    totals = {}
    for k, span in enumerate(spans):
        parent = span[tracer.PARENT]
        if parent >= 0 and not (spans[parent][tracer.START] <= span[tracer.START]
                                and span[tracer.END] <= spans[parent][tracer.END]):
            problems.append(f"span {k} is not inside its parent span {parent}")
        if own[k] < -1e-9:
            problems.append(f"span {k} has negative self time {own[k]}")
        if parent >= 0 and spans[root_of[parent]][tracer.NAME] == "census.run_census":
            root_of[k] = root_of[parent]
        if spans[root_of[k]][tracer.NAME] == "census.run_census":
            totals[root_of[k]] = totals.get(root_of[k], 0.0) + own[k]
    if not totals:
        problems.append("no run_census span in the census trace")
    for k, total in totals.items():
        duration = spans[k][tracer.END] - spans[k][tracer.START]
        if abs(total - duration) > 1e-6:
            problems.append(f"run_census span {k}: self times add up to "
                            f"{total:.9f} s, its duration is {duration:.9f} s")
        else:
            print(f"census span {k}: self times add up to the run_census "
                  f"duration {duration:.6f} s")
    return problems[:20]


def main() -> int:
    problems = tracer_restores()
    for workload in WORKLOADS:
        first, second = (deterministic(traced_metrics(workload, SEED, SECONDS))
                         for _ in range(2))
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ or first.keys() != second.keys():
            problems.append(f"{workload}: counts differ between runs: {differ}")
        else:
            print(f"{workload}: {len(first)} counts and ratios repeat exactly")
    problems += census_spans_consistent(SEED)
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
