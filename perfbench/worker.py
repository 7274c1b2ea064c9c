"""One measurement process: drive copocert.cli.main in-process and time it.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--repeat] [--trace]

Runs passes of the workload until their time, scaled to the reference speed
of calibrate.py, reaches S seconds (always at least one pass), times each
request from outside, re-checks every output, and prints one JSON object.  With ``--repeat`` every pass is pass 0, so the
passes are identical; the traced run uses that to report counts per pass
that must repeat exactly.  ``run.py`` starts this script and is the only
caller.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CORE_COMMANDS, Workload  # noqa: E402

from copocert import cli  # noqa: E402

WALL_CAP = 1.6


def execute(argv):
    """``(exit code or failure text, stdout)`` of one CLI call."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def judge(request, code, text) -> str | None:
    if not isinstance(code, int):
        return code
    try:
        return request.check(text, checks.parse_machine(text), code)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def measure(workload: Workload, seconds: float, repeat: bool, tracer=None):
    """Run passes until their time, scaled to the reference speed (see
    calibrate.py), reaches ``seconds``.

    Counting scaled time keeps the number of passes, and so the inputs a
    seed gives, independent of how fast the host happens to be.  On a very
    slow host the run also stops before a pass that, going by the last one,
    would end after ``WALL_CAP`` times ``seconds`` of wall time.
    """
    passes = []
    requests = []  # (command, raw seconds, scaled seconds)
    failures = []
    mix = Counter()
    marks = []
    begin = time.perf_counter()
    p = 0
    with calibrate.Sampler() as sampler:
        while True:
            started = time.perf_counter()
            batch = workload.requests(0 if repeat else p)
            results = []
            if tracer is not None:
                marks.append(len(tracer.spans))
            for request in batch:
                if tracer is not None:
                    tracer.request = len(requests) + len(results)
                results.append(sampler.timed(execute, request.argv))
            passes.append(sum(scaled for scaled, _, _ in results))
            for request, (scaled, raw, (code, text)) in zip(batch, results):
                requests.append((request.command, raw, scaled))
                mix[f"{request.family} n={request.order} {request.command}"] += 1
                reason = judge(request, code, text)
                if reason:
                    failures.append(f"pass {p} {request.family} n={request.order} "
                                    f"{' '.join(request.argv)}: {reason}")
            p += 1
            now = time.perf_counter()
            elapsed, last = now - begin, now - started
            if sum(passes) >= seconds or elapsed + last > WALL_CAP * seconds:
                break
    if tracer is not None:
        marks.append(len(tracer.spans))
    return passes, requests, failures, mix, marks, sampler.samples


def latency_metrics(requests, scaled=True) -> dict[str, float]:
    ms = [1000 * (s if scaled else r) for _, r, s in requests]
    metrics = {
        "request_ms_p50": statistics.median(ms),
        "request_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }
    for command in CORE_COMMANDS:
        metrics[f"{command}_ms_p50"] = statistics.median(
            t for t, (c, _, _) in zip(ms, requests) if c == command)
    return metrics


def end_to_end(passes, requests) -> dict[str, float]:
    metrics = {"pass_s": statistics.median(passes)}
    metrics.update(latency_metrics(requests))
    metrics["requests_per_s"] = len(requests) / sum(passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(spans, marks, scales, samples) -> tuple[dict[str, float], list[str]]:
    """Counts of the first pass; self times, scaled per request, as medians
    over the passes."""
    reps = list(zip(marks, marks[1:]))
    counted = [tracing.counts(spans, lo, hi) for lo, hi in reps]
    problems = []
    if any(c != counted[0] for c in counted[1:]):
        problems.append("traced counts differ between identical passes")
    metrics = dict(counted[0])
    timed = [tracing.self_seconds(spans, lo, hi, scales, samples) for lo, hi in reps]
    for key in timed[0]:
        metrics[key] = statistics.median(t[key] for t in timed)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_FILE",
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    workload = Workload(args.workload, args.seed, ROOT, args.workdir)
    if args.trace:
        with tracing.Tracer() as tracer:
            passes, requests, failures, mix, marks, samples = measure(
                workload, args.seconds, args.repeat, tracer)
        metrics, problems = per_layer(tracer.spans, marks,
                                      [s / r for _, r, s in requests], samples)
        failures += problems
        tracer.write(args.trace)
    else:
        passes, requests, failures, mix, _, _ = measure(
            workload, args.seconds, args.repeat)
        metrics = end_to_end(passes, requests)
    samples = Counter(command for command, _, _ in requests)
    print(json.dumps({"attempted": len(requests), "failed": len(failures),
                      "failures": failures[:20], "passes": passes,
                      "samples": dict(samples), "mix": dict(mix),
                      "metrics": metrics,
                      "scaled": latency_metrics(requests),
                      "raw": latency_metrics(requests, scaled=False)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
