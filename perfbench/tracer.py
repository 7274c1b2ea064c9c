"""Spans around copocert's public functions, recorded from outside.

``Tracer.install`` replaces each target function by a wrapper in every
loaded ``copocert`` module that holds a reference to it (modules import
each other's functions by name, so rebinding only the defining module would
miss most calls); ``restore`` puts every original back.  Nothing under
``src/`` changes.

A span is ``[name, start, end, parent, request, result]``.  Spans are
appended when they start, so a parent always precedes its children and one
forward pass over the list can resolve ancestry.  ``result`` is kept only
for the functions whose outcome a ratio needs; it is inspected after the
run, outside every timed interval.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import Counter

# qualified name (module inside copocert, function) of every wrapped function
TARGETS = (
    "census.run_census",
    "copositivity.is_copositive",
    "zeros.minimal_zeros",
    "extremality.extremality_certificate",
    "extremality.build_system",
    "linalg.solve_affine",
    "linalg.kernel_basis",
    "linalg.eval_quadratic",
    "lp.strictly_positive_point",
    "lp.simplex_maximize",
    "scaling.has_sign_pattern_scaling",
    "scaling.extract_pattern",
    "structure_graph.build_graph",
    "structure_graph.component_analysis",
    "cli.parse_matrix_file",
    "cli.main",
)

# functions whose results feed a derived ratio
_KEEP_RESULT = {"linalg.solve_affine", "linalg.kernel_basis",
                "lp.strictly_positive_point", "zeros.minimal_zeros"}

NAME, START, END, PARENT, REQUEST, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        keep = name in _KEEP_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                span[RESULT] = result
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "copocert" or key.startswith("copocert.")]
        for target in TARGETS:
            module_name, attr = target.rsplit(".", 1)
            original = getattr(sys.modules["copocert." + module_name], attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end,
        parent index, request id."""
        with open(path, "w") as handle:
            for k, s in enumerate(self.spans):
                handle.write(f"{k}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t"
                             f"{s[PARENT]}\t{s[REQUEST]}\n")


def self_times(spans, lo=0, hi=None) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    hi = len(spans) if hi is None else hi
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for k in range(lo, hi):
        parent = spans[k][PARENT]
        if parent >= lo:
            own[parent - lo] -= spans[k][END] - spans[k][START]
    return own


def _bits(vectors) -> int:
    best = 0
    for v in vectors:
        for x in v:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def counts(spans, lo, hi) -> dict[str, float]:
    """Call counts and the derived counts and ratios for spans[lo:hi].

    Every value here is a function of the program's inputs alone, so two
    traced runs of the same pass must agree on all of them exactly.
    """
    calls = Counter(s[NAME] for s in spans[lo:hi])
    under_cop = [False] * (hi - lo)
    under_zeros = [False] * (hi - lo)
    solved = Counter()  # is_copositive span -> systems solved beneath it
    cop_solves = feasible = kernels_in_zeros = zeros_found = 0
    positive = bits = 0
    cop_of = [-1] * (hi - lo)  # nearest is_copositive ancestor
    for k in range(lo, hi):
        name, parent, result = spans[k][NAME], spans[k][PARENT], spans[k][RESULT]
        i = k - lo
        if parent >= lo:
            p = parent - lo
            pname = spans[parent][NAME]
            under_cop[i] = under_cop[p] or pname == "copositivity.is_copositive"
            under_zeros[i] = under_zeros[p] or pname == "zeros.minimal_zeros"
            cop_of[i] = parent if pname == "copositivity.is_copositive" else cop_of[p]
        if name == "linalg.solve_affine":
            bits = max(bits, _bits((result.particular or (),) + result.kernel))
            if under_cop[i]:
                cop_solves += 1
                feasible += result.feasible
                solved[cop_of[i]] += 1
        elif name == "linalg.kernel_basis":
            bits = max(bits, _bits(result))
            kernels_in_zeros += under_zeros[i]
        elif name == "lp.strictly_positive_point":
            positive += result is not None
        elif name == "zeros.minimal_zeros" and result is not None:
            zeros_found += len(result)
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = calls[target]
    cop_calls = calls["copositivity.is_copositive"]
    spp = calls["lp.strictly_positive_point"]
    out["copositivity.supports_per_call"] = _ratio(cop_solves, cop_calls)
    out["copositivity.feasible_ratio"] = _ratio(feasible, cop_solves)
    out["copositivity.prefilter_hits"] = sum(
        1 for k in range(lo, hi)
        if spans[k][NAME] == "copositivity.is_copositive" and not solved[k])
    out["copositivity.gates_per_request"] = _ratio(cop_calls, calls["cli.main"])
    out["zeros.kernel_yield"] = _ratio(zeros_found, kernels_in_zeros)
    out["lp.simplex_ratio"] = _ratio(calls["lp.simplex_maximize"], spp)
    out["lp.positive_ratio"] = _ratio(positive, spp)
    out["linalg.max_result_bits"] = bits
    return out


def self_seconds(spans, lo, hi, scales, samples) -> dict[str, float]:
    """Total self time per wrapped function over spans[lo:hi], each span
    scaled by its request's calibration factor ``scales[request]``.

    ``samples`` are the ``(start, end, seconds)`` calibration samples taken
    during the run (calibrate.Sampler).  Each is taken out of the self time
    of the innermost span that holds it, as it is taken out of request
    times.  Spans start in list order, so that span is the last one started
    before the sample, or the nearest ancestor of it still open.
    """
    own = self_times(spans, lo, hi)
    starts = [s[START] for s in spans[lo:hi]]
    for begin, end, _ in samples:
        k = bisect.bisect_right(starts, begin) - 1
        while k >= 0 and spans[lo + k][END] < end:
            k = spans[lo + k][PARENT] - lo
        if k >= 0:
            own[k] -= end - begin
    totals = dict.fromkeys(TARGETS, 0.0)
    for k, t in zip(range(lo, hi), own):
        totals[spans[k][NAME]] += t * scales[spans[k][REQUEST]]
    return {f"{name}.self_s": value for name, value in totals.items()}
