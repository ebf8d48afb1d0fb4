"""Operational-law diagnostics for closed-loop load-test measurements.

Given per-stage service times and a think time, this package derives the
throughput ceiling, response floor and optimal client count; generates
the exact lawful reference curves for comparison; audits measured
(N, X, R) triples with Little's law; and runs detectors for the classic
ways benchmark data goes wrong: claimed throughput above the ceiling,
pacing that silently stopped pacing, retrograde throughput, response
curves that flatten instead of climbing, and load generators throttled
by their own thread pool.
"""

from ._version import __version__
from .curves import (
    ORACLE_MAX_N,
    ORACLE_MAX_STAGES,
    CanonicalCurves,
    solve_oracle,
    solve_reference,
)
from .diagnostics import (
    BOUND_VIOLATION,
    CRITICAL,
    GROWTH_CLASS,
    INFO,
    RESPONSE_FLATTENING,
    RETROGRADE_THROUGHPUT,
    THINK_TIME_VIOLATION,
    THREAD_THROTTLING,
    WARNING,
    Audit,
    AuditRow,
    DetectorConfig,
    Finding,
    audit_littles_law,
    classify_growth,
    detect_bound_violation,
    detect_response_flattening,
    detect_retrograde,
    detect_think_time_violation,
    detect_thread_throttling,
    estimate_knee,
)
from .ingest import (
    InsufficientSteadyStateError,
    LoadPoint,
    LoadSeries,
    ParseError,
    ThroughputTrace,
    parse_profile,
    parse_series,
    parse_trace,
    serialize_series,
    steady_state_average,
)
from .model import (
    Bounds,
    ServiceProfile,
    Stage,
    bounds_summary,
    compute_n_opt,
    compute_x_max,
)
from .report import (
    Report,
    audit_series,
    diagnose_series,
    plot_rows,
)

__all__ = [
    "__version__",
    "ORACLE_MAX_N",
    "ORACLE_MAX_STAGES",
    "CanonicalCurves",
    "solve_oracle",
    "solve_reference",
    "BOUND_VIOLATION",
    "CRITICAL",
    "GROWTH_CLASS",
    "INFO",
    "RESPONSE_FLATTENING",
    "RETROGRADE_THROUGHPUT",
    "THINK_TIME_VIOLATION",
    "THREAD_THROTTLING",
    "WARNING",
    "Audit",
    "AuditRow",
    "DetectorConfig",
    "Finding",
    "audit_littles_law",
    "classify_growth",
    "detect_bound_violation",
    "detect_response_flattening",
    "detect_retrograde",
    "detect_think_time_violation",
    "detect_thread_throttling",
    "estimate_knee",
    "InsufficientSteadyStateError",
    "LoadPoint",
    "LoadSeries",
    "ParseError",
    "ThroughputTrace",
    "parse_profile",
    "parse_series",
    "parse_trace",
    "serialize_series",
    "steady_state_average",
    "Bounds",
    "ServiceProfile",
    "Stage",
    "bounds_summary",
    "compute_n_opt",
    "compute_x_max",
    "Report",
    "audit_series",
    "diagnose_series",
    "plot_rows",
]
