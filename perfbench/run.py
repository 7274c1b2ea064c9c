"""copocert benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): census-n5, certify-rational, refute-rational.
One closed-loop client: a single worker process sends its next CLI request
only when the previous one has returned.

``--trace 0`` measures set-up time (median over fresh interpreters) and then
runs the workload untraced in a worker process; it prints every end-to-end
metric.  ``--trace 1`` runs pass 0 of the workload repeatedly, first
untraced and then traced, each in its own worker process, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced time per
pass).  The traced run's spans are written to
``.perfbench_work/spans-<workload>-<seed>.tsv``.

Every CLI output is re-checked; the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from workloads import BASELINE, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 31


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


# Run in a fresh interpreter: time the import, then take two calibration
# samples (calibrate imports only fractions, which copocert.cli has loaded).
_SETUP_CHILD = """
import time
start = time.perf_counter()
import copocert.cli
elapsed = time.perf_counter() - start
import calibrate
print(elapsed * 2 * calibrate.REFERENCE_S / (calibrate.sample() + calibrate.sample()))
"""


def setup_seconds() -> float:
    """Median seconds to import copocert.cli in a fresh interpreter, timed
    inside it around the import (the launch time minus a bare interpreter
    start, without the noise of two launches), scaled to reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), HERE)))
    argv = [sys.executable, "-c", _SETUP_CHILD]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True, timeout=60)
        times.append(float(done.stdout))
    # the first launch compiles bytecode, as installing a copy would have
    return statistics.median(times[1:])


def worker(args, workdir, seconds, repeat=False, spans=None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--workdir", workdir]
    if repeat:
        argv.append("--repeat")
    if spans:
        argv += ["--trace", spans]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stdin=subprocess.DEVNULL, timeout=2 * seconds + 60)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def report(label: str, result: dict) -> None:
    print(f"{label}:")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print("request mix (family n=order command: count):")
    for key, count in result["mix"].items():
        print(f"  {key}: {count}")
    print("samples per command: " + ", ".join(
        f"{c} {k}" for c, k in result["samples"].items()))
    # the scaled latencies next to the raw ones, so that a divergence
    # between the two (see calibrate.py) shows
    print(json.dumps({"run": label, "scaled_ms": result["scaled"],
                      "raw_ms": result["raw"]}))
    print(f"passes: {len(result['passes'])}, "
          f"failed_ratio: {result['failed'] / result['attempted']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join("src", "copocert", "cli.py"), BASELINE):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a copocert checkout",
                  file=sys.stderr)
            return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            plain = worker(args, workdir, args.seconds / 2, repeat=True)
            spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv")
            traced = worker(args, workdir, args.seconds / 2, repeat=True, spans=spans)
            untraced_s = statistics.median(plain["passes"])
            traced_s = statistics.median(traced["passes"])
            metrics = dict(traced["metrics"])
            metrics["trace.overhead_s"] = traced_s - untraced_s
            metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
            results = {"untraced run": plain, "traced run": traced}
        else:
            metrics = {"setup_s": setup_seconds()}
            plain = worker(args, workdir, args.seconds)
            metrics.update(plain["metrics"])
            results = {"untraced run": plain}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, result in results.items():
        report(label, result)
    units = declared_metrics()[args.trace]
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
