"""Report assembly: run the detector suite and fold results into one verdict.

``audit_series`` runs the two harness detectors on the Little's-law
audit; ``diagnose_series`` runs those and every other detector. A
detector that cannot run leaves one info finding that says why; one that
finds nothing returns None, which ``_report``, the one builder of a
Report, drops before it sorts the findings (detector id, then first
affected load point) and derives the verdict: ``broken`` iff any
critical finding, ``suspect`` iff any warning and no critical, ``clean``
otherwise. Info findings never affect the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .diagnostics import (
    CRITICAL,
    GROWTH_CLASS,
    INFO,
    RESPONSE_FLATTENING,
    THINK_TIME_VIOLATION,
    THREAD_THROTTLING,
    WARNING,
    AUDIT_FIELDS,
    Audit,
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
    post_knee,
)
from .ingest import LoadSeries, _float_texts, _int_texts
from .model import Bounds, ServiceProfile, bounds_summary

VERDICT_CLEAN = "clean"
VERDICT_SUSPECT = "suspect"
VERDICT_BROKEN = "broken"


@dataclass
class Report:
    """Everything one diagnosis produced, JSON-serializable.

    ``audit`` holds the Little's-law table as columns; iterating it
    yields AuditRows.
    """

    tool_version: str
    inputs: dict[str, str]
    bounds: Bounds | None
    knee: Bounds | None
    audit: Audit | None
    findings: list[Finding]
    verdict: str

    def to_dict(self) -> dict:
        """``json.loads(self.to_json())``: the report's keys and values, NaN
        and the infinities as floats."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The report as JSON text: the single serialization point, and
        the one place the report's keys are written.

        Every JSON report the CLI emits, on stdout and in ``--out`` files,
        is this string, so both carry the same bytes: the bytes
        ``json.dumps(..., indent=2)`` gives, NaN and Infinity included.
        That call is avoided because with an indent json runs its
        pure-Python encoder, slower on a 2,000-point report than the
        whole diagnosis. Here _Layout writes every part
        itself: the audit by columns into one list joined once, point
        lists joined, and the small parts (inputs, bounds, knee,
        evidence) by a recursive encoder of their few value types. The
        audit's numbers and the point lists are written a column at a
        time by orjson (``ingest._float_texts``, ``ingest._int_texts``),
        whose text is ``repr``'s to the byte.
        """
        layout = _Layout()
        findings = [layout.container("{}", [
            ("detector", encode_basestring_ascii(f.detector)),
            ("severity", encode_basestring_ascii(f.severity)),
            ("message", encode_basestring_ascii(f.message)),
            ("evidence", layout.dumps(dict(f.evidence), 3)),
            ("affected_points", layout.container("[]", _int_texts(f.affected_points), 3)),
        ], 2) for f in self.findings]
        return layout.container("{}", [
            ("version", layout.dumps(self.tool_version, 1)),
            ("inputs", layout.dumps(dict(self.inputs), 1)),
            ("bounds", layout.dumps(_bounds_dict(self.bounds), 1)),
            ("knee", layout.dumps(_knee_dict(self.knee), 1)),
            ("audit", layout.audit(self.audit, 1) if self.audit is not None else "null"),
            ("findings", layout.container("[]", findings, 1)),
            ("verdict", layout.dumps(self.verdict, 1)),
        ], 0)


class _Layout:
    """JSON text laid out exactly as ``json.dumps(..., indent=2)`` lays it out.

    Each method encodes one part of a report placed at nesting ``depth``;
    the audit table is written by columns, without a container per row,
    each column's numbers converted by one orjson call.
    """

    unit = "  "

    def dumps(self, value, depth: int) -> str:
        """``value`` as json.dumps encodes it, placed at nesting ``depth``:
        None, bools, ints, floats (NaN and the infinities included),
        strings, and lists and str-keyed dicts of those."""
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _json_float(value)
        if isinstance(value, dict):
            return self.container("{}", [(key, self.dumps(item, depth + 1))
                                         for key, item in value.items()], depth)
        if isinstance(value, (list, tuple)):
            return self.container("[]", [self.dumps(item, depth + 1) for item in value], depth)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def container(self, brackets: str, items, depth: int) -> str:
        """A list of encoded items, or a dict of (key, encoded value) pairs
        when ``brackets`` is "{}", at nesting ``depth``."""
        if brackets == "{}":
            items = [f"{encode_basestring_ascii(key)}: {value}" for key, value in items]
        else:
            items = list(items)
        if not items:
            return brackets
        inner = "\n" + self.unit * (depth + 1)
        return (brackets[0] + inner + ("," + inner).join(items)
                + "\n" + self.unit * depth + brackets[1])

    def audit(self, audit: Audit, depth: int) -> str:
        """The audit as a list of one object per row, filled in by columns:
        slot k of every row's template is set by one slice assignment."""
        rows = len(audit)
        if not rows:
            return "[]"
        # the row object cut at its values: text, value, text, ..., value, text
        pieces = self.container("{}", [(name, "%s") for name in AUDIT_FIELDS], depth + 1).split("%s")
        columns = [_int_texts(audit.n_was)]
        columns += [_float_texts(c, _json_float) for c in audit.columns[1:]]
        inner = "\n" + self.unit * (depth + 1)
        width = len(pieces) + len(columns)
        out = [""] * (width * rows)
        out[0::width] = ["," + inner + pieces[0]] * rows
        out[0] = "[" + inner + pieces[0]
        for k, piece in enumerate(pieces[1:], 1):
            out[2 * k::width] = [piece] * rows
        for k, column in enumerate(columns):
            out[2 * k + 1::width] = column
        out.append("\n" + self.unit * depth + "]")
        return "".join(out)


def _json_float(value: float) -> str:
    """A float as json.dumps writes it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _bounds_dict(bounds: Bounds | None) -> dict | None:
    if bounds is None:
        return None
    return {"x_max": bounds.x_max, "r_min": bounds.r_min, "n_opt": bounds.n_opt,
            "bottleneck_label": bounds.bottleneck_label, "tied_labels": list(bounds.tied_labels)}


def _knee_dict(knee: Bounds | None) -> dict | None:
    if knee is None:
        return None
    return {"s_max_hat": knee.s_max_hat, "r_min_hat": knee.r_min_hat,
            "n_opt_hat": knee.n_opt_hat, "basis": knee.basis}


def verdict_for(findings: list[Finding]) -> str:
    severities = {f.severity for f in findings}
    if CRITICAL in severities:
        return VERDICT_BROKEN
    if WARNING in severities:
        return VERDICT_SUSPECT
    return VERDICT_CLEAN


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic merge order: detector id, then first affected point."""
    return sorted(findings, key=lambda f: (f.detector,
                                           f.affected_points[0] if f.affected_points else -1,
                                           f.severity, f.message))


def _note(detector: str, message: str) -> Finding:
    return Finding(detector=detector, severity=INFO, message=message)


def _report(inputs: dict[str, str] | None, bounds: Bounds | None, knee: Bounds | None,
            audit: Audit | None, findings: list[Finding | None]) -> Report:
    """The one builder of a Report: the tool version stamped, the None of
    each detector that found nothing dropped, the findings sorted and the
    verdict derived from them."""
    findings = sort_findings([f for f in findings if f is not None])
    return Report(tool_version=__version__, inputs=dict(inputs or {}), bounds=bounds, knee=knee,
                  audit=audit, findings=findings, verdict=verdict_for(findings))


def audit_series(series: LoadSeries, config: DetectorConfig | None = None,
                 inputs: dict[str, str] | None = None) -> Report:
    """Little's-law audit plus the two harness detectors it feeds."""
    config = config or DetectorConfig()
    rows = audit_littles_law(series)
    return _report(inputs, None, None, rows, _harness_findings(series, rows, config))


def _harness_findings(series: LoadSeries, rows: Audit, config: DetectorConfig) -> list[Finding | None]:
    """The load generator's two checks, thread throttling on the audit and
    think time on the series; each leaves a note when it cannot run."""
    if len(rows) < 3:
        findings = [_note(THREAD_THROTTLING,
                          f"only {len(rows)} audit row(s); need 3 to assess thread throttling")]
    else:
        findings = [detect_thread_throttling(rows, plateau_tol=config.plateau_tol,
                                             span_factor=config.span_factor)]
    z_conf = series.configured_think_time
    if z_conf is None or z_conf <= 0:
        return findings + [_note(THINK_TIME_VIOLATION,
                                 "no positive configured think time declared; pacing check skipped")]
    zero_x = series.n[series.x <= 0].tolist()
    if zero_x:
        findings.append(Finding(
            detector=THINK_TIME_VIOLATION, severity=INFO,
            message=f"skipped {len(zero_x)} zero-throughput point(s) where implied think time is undefined",
            evidence={"points_skipped_zero_x": float(len(zero_x))}, affected_points=tuple(zero_x)))
    findings.append(detect_think_time_violation(series, rel_tol=config.think_time_rel_tol))
    return findings


def diagnose_series(series: LoadSeries, profile: ServiceProfile | None = None,
                    config: DetectorConfig | None = None,
                    inputs: dict[str, str] | None = None) -> Report:
    """Run every applicable detector against one load series.

    With a profile the bounds and knee are exact; without one the knee
    falls back to data-side estimates and the ceiling check is skipped
    (there is no independent ceiling to check against). Without a knee
    the post-knee checks cannot run, and the report says why.
    """
    config = config or DetectorConfig()
    rows = audit_littles_law(series)
    findings = _harness_findings(series, rows, config)
    findings += detect_retrograde(series, rel_tol=config.retrograde_rel_tol)
    if profile is not None:
        findings.append(detect_bound_violation(float(series.x.max()), profile, rel_tol=config.bound_rel_tol))
    try:
        knee = bounds_summary(profile) if profile is not None else estimate_knee(series)
    except ValueError as exc:
        findings.append(_note(RESPONSE_FLATTENING, f"knee estimate unavailable: {exc}"))
        return _report(inputs, None, None, rows, findings)

    post = series.n[post_knee(series, knee)].tolist()
    if len(post) < 2:
        findings.append(_note(RESPONSE_FLATTENING,
                              f"only {len(post)} point(s) beyond the knee; flattening not assessable"))
    else:
        findings.append(detect_response_flattening(series, knee, slope_fraction=config.slope_fraction))
    growth_class, fit = classify_growth(series, knee, min_points=config.min_growth_points,
                                        slope_fraction=config.slope_fraction)
    evidence: dict[str, float] = {"n_points": float(fit.n_points)}
    for key in ("linear_slope", "linear_ss", "exp_rate", "exp_ss"):
        value = getattr(fit, key)
        if value is not None:
            evidence[key] = float(value)
    detail = f"; {fit.note}" if fit.note else ""
    findings.append(Finding(detector=GROWTH_CLASS, severity=INFO,
                            message=f"growth class {growth_class}: post-knee response growth{detail}",
                            evidence=evidence, affected_points=tuple(post)))
    # a profile's knee is its exact bounds
    return _report(inputs, knee if profile is not None else None, knee, rows, findings)


def plot_rows(series: LoadSeries, bounds: Bounds) -> list[tuple[int, float, float, float, float]]:
    """Measured points next to their bounding lines, for external plotting.

    Returns (n, x_measured, r_measured, x_upper_bound, r_lower_bound)
    per point, the lines drawn from ``bounds``: a profile's exact bounds
    or a data-basis knee estimate.
    """
    return list(zip(series.n.tolist(), series.x.tolist(), series.r.tolist(),
                    bounds.x_upper(series.n).tolist(), bounds.r_lower(series.n).tolist()))
