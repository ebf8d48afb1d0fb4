"""Span tracing for the benchmark's traced run.

Each public loadlaw function is wrapped at the module attribute where its
caller looks it up (``cli`` binds its imports by name, so wrapping
``loadlaw.ingest.parse_series`` alone would miss the CLI's calls). A
span records its name, start, end, parent and job; spans stay in memory
until the run ends. A wrapped name that no longer exists is skipped, and
its metric is then reported as missing.

A counter runs while the caller's span is still open, so each one costs
O(1): it must not add to the self time it sits inside.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). Class attributes are "Class.method".
WRAP_POINTS = (
    ("loadlaw.cli", "main", "cli.main"),
    ("loadlaw.cli", "build_parser", "cli.build_parser"),
    ("loadlaw.cli", "parse_series", "ingest.parse_series"),
    ("loadlaw.cli", "parse_profile", "ingest.parse_profile"),
    ("loadlaw.cli", "parse_trace", "ingest.parse_trace"),
    ("loadlaw.cli", "steady_state_average", "ingest.steady_state_average"),
    ("loadlaw.cli", "solve_reference", "curves.solve_reference"),
    ("loadlaw.cli", "bounds_summary", "model.bounds_summary"),
    ("loadlaw.cli", "diagnose_series", "report.diagnose_series"),
    ("loadlaw.cli", "audit_series", "report.audit_series"),
    ("loadlaw.cli", "plot_rows", "report.plot_rows"),
    ("loadlaw", "solve_reference", "curves.solve_reference"),
    ("loadlaw", "diagnose_series", "report.diagnose_series"),
    ("loadlaw.report", "bounds_summary", "model.bounds_summary"),
    ("loadlaw.report", "audit_littles_law", "diagnostics.audit_littles_law"),
    ("loadlaw.report", "estimate_knee", "diagnostics.estimate_knee"),
    ("loadlaw.report", "detect_bound_violation", "diagnostics.detect_bound_violation"),
    ("loadlaw.report", "detect_thread_throttling", "diagnostics.detect_thread_throttling"),
    ("loadlaw.report", "detect_think_time_violation", "diagnostics.detect_think_time_violation"),
    ("loadlaw.report", "detect_retrograde", "diagnostics.detect_retrograde"),
    ("loadlaw.report", "detect_response_flattening", "diagnostics.detect_response_flattening"),
    ("loadlaw.report", "classify_growth", "diagnostics.classify_growth"),
    ("loadlaw.report", "Report.to_json", "report.to_json"),
    ("loadlaw.curves", "CanonicalCurves.write_csv", "curves.write_csv"),
    ("loadlaw.curves", "CanonicalCurves.as_series", "curves.as_series"),
)


def _rows(args, kwargs, result):
    return len(getattr(result, "points", None) or getattr(result, "samples", ()))


def _stage_steps(args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    return n_max * len(profile.stages)


def _findings(args, kwargs, result):
    if result is None:
        return 0
    return len(result) if isinstance(result, list) else 1


# span name -> (counter name, function of (args, kwargs, result) -> increment)
COUNTERS = {
    "ingest.parse_series": (("ingest.rows_parsed", _rows),),
    "ingest.parse_trace": (("ingest.rows_parsed", _rows),),
    "curves.solve_reference": (("curves.stage_steps", _stage_steps),),
    "report.to_json": (("report.to_json.calls", lambda a, k, r: 1),
                       # to_json's json.dumps escapes to ASCII: one byte per character
                       ("report.json_bytes", lambda a, k, r: len(r))),
}
for _name in ("detect_bound_violation", "detect_thread_throttling", "detect_think_time_violation",
              "detect_retrograde", "detect_response_flattening"):
    COUNTERS[f"diagnostics.{_name}"] = (("diagnostics.findings", _findings),)

# per-layer metrics reported as self time under a ".self_ms" suffix; every
# other span is reported under ".ms" (still self time)
SELF_SUFFIX = ("cli.main", "report.diagnose_series", "report.audit_series")


def metric_name(span_name: str) -> str:
    return f"{span_name}.self_ms" if span_name in SELF_SUFFIX else f"{span_name}.ms"


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent_index, job]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, int]] = []  # (counter, job, increment)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counters = COUNTERS.get(name, ())
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            for counter, count in counters:
                tracer.counts.append((counter, tracer.job, count(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every point that exists; returns the span names that are missing."""
        installed = set()
        for module_name, attr, name in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))
            installed.add(name)
        return sorted({name for _, _, name in WRAP_POINTS} - installed)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()


def self_times_ns(spans) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_cycle_metrics(spans, counts, job_cycle: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics: self ms and counts summed per job cycle, median over cycles.

    Also gives ``trace.spans``, the number of spans in a cycle.
    """
    per_cycle: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times_ns(spans)):
        name, job = span[0], span[4]
        if job in job_cycle:
            per_cycle[job_cycle[job]][metric_name(name)] += own / 1e6
            per_cycle[job_cycle[job]]["trace.spans"] += 1
    for counter, job, inc in counts:
        if job in job_cycle:
            per_cycle[job_cycle[job]][counter] += inc
    cycles = sorted(set(job_cycle.values()))
    names = {n for sums in per_cycle.values() for n in sums}
    return {n: statistics.median(per_cycle[c].get(n, 0.0) for c in cycles) for n in names}


def span_cost_ns(calls: int = 2000, rounds: int = 25) -> float:
    """What wrapping adds to one call, in ns: the tracing overhead of one span.

    Times an empty function bare and wrapped, ``calls`` times each, in
    ``rounds`` alternating rounds, and returns the median difference per
    call.
    """
    tracer = Tracer()

    def empty():
        pass

    traced = tracer.wrap(empty, "empty")
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        tracer.spans.clear()
        costs.append((t2 - 2 * t1 + t0) / calls)
    return statistics.median(costs)


def expected_metrics(missing_spans=()) -> list[str]:
    """Names of every span and counter metric the traced run can report."""
    names = {metric_name(n) for _, _, n in WRAP_POINTS if n not in missing_spans}
    names.update(c for span, cs in COUNTERS.items() if span not in missing_spans for c, _ in cs)
    return sorted(names)
