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
    _MIN_LINE_POINTS,
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
from .ingest import LoadSeries, _float_texts, _int_texts, _interleave, _point_list_json
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
        whole diagnosis. Here every piece of the text is appended to one
        list, joined once: the keys as fixed pieces, strings by
        ``encode_basestring_ascii`` and floats by ``_json_float`` as json
        writes them, the audit by columns and each point list, indent
        and all, by one orjson call, whose number text is ``repr``'s to
        the byte.
        """
        b, k = self.bounds, self.knee
        out = ['{\n  "version": ', _value(self.tool_version, "\n  "), ',\n  "inputs": ']
        _object(out, self.inputs)
        out.append(',\n  "bounds": ')
        _object(out, None if b is None else {"x_max": b.x_max, "r_min": b.r_min, "n_opt": b.n_opt,
                "bottleneck_label": b.bottleneck_label, "tied_labels": b.tied_labels})
        out.append(',\n  "knee": ')
        _object(out, None if k is None else {"s_max_hat": k.s_max_hat, "r_min_hat": k.r_min_hat,
                "n_opt_hat": k.n_opt_hat, "basis": k.basis})
        out.append(',\n  "audit": ')
        _audit(out, self.audit)
        out.append(',\n  "findings": ')
        opening = "[\n    {"
        for f in self.findings:
            out += (opening, '\n      "detector": ', encode_basestring_ascii(f.detector),
                    ',\n      "severity": ', encode_basestring_ascii(f.severity),
                    ',\n      "message": ', encode_basestring_ascii(f.message), ',\n      "evidence": ')
            _object(out, f.evidence, "\n      ")
            out += (',\n      "affected_points": ', _point_list_json(f.affected_points))
            opening = "\n    },\n    {"
        out += ("\n    }\n  ]" if self.findings else "[]", ',\n  "verdict": ',
                _value(self.verdict, "\n  "), "\n}")
        return "".join(out)


def _object(out: list, mapping: dict | None, nl: str = "\n  ") -> None:
    """Append a str-keyed dict, or null for None, to the report's pieces
    ``out``; ``nl`` is the newline and indent of the line it starts on."""
    if mapping is None:
        out.append("null")
        return
    opening = "{" + nl + "  "
    for key, value in mapping.items():
        out += (opening, encode_basestring_ascii(key), ": ", _value(value, nl + "  "))
        opening = "," + nl + "  "
    out.append(nl + "}" if mapping else "{}")


# an audit row as a report lays it out, cut at its values: the piece after
# each value, the last one also closing the row and opening the next
_KEYS = [f'\n      {encode_basestring_ascii(name)}: ' for name in AUDIT_FIELDS]
_AFTER = ["," + key for key in _KEYS[1:]] + ["\n    },\n    {" + _KEYS[0]]


def _audit(out: list, audit: Audit | None) -> None:
    """Append the audit as a list of one object per row, or null, filled
    in by columns; the piece after the last row closes the list instead."""
    if not audit:  # None or no rows
        out.append("[]" if audit is not None else "null")
        return
    columns = [_int_texts(audit.n_was)] + [_float_texts(c, _json_float) for c in audit.columns[1:]]
    pieces = _interleave(columns, _AFTER)
    pieces[-1] = "\n    }\n  ]"
    out.append("[\n    {" + _KEYS[0])
    out += pieces


def _value(value, nl: str) -> str:
    """One value as ``json.dumps(..., indent=2)`` writes it on a line that
    starts at ``nl``: a float, a string or a tuple of strings directly,
    anything else (None, a bool, an int, a list or dict of those) by
    json.dumps, re-indented."""
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, tuple) and all(isinstance(v, str) for v in value):  # bounds.tied_labels
        item = nl + "  "
        return f"[{item}{(',' + item).join(map(encode_basestring_ascii, value))}{nl}]" if value else "[]"
    return json.dumps(value, indent=2).replace("\n", nl)


def _json_float(value: float) -> str:
    """A float as json.dumps writes it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


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

    # growth's linear fit, when it has one, is the flattening test's slope
    growth_class, fit = classify_growth(series, knee, min_points=config.min_growth_points,
                                        slope_fraction=config.slope_fraction)
    post = series.n[post_knee(series, knee)].tolist()
    if len(post) < _MIN_LINE_POINTS:
        findings.append(_note(RESPONSE_FLATTENING,
                              f"only {len(post)} point(s) beyond the knee; flattening not assessable"))
    else:
        findings.append(detect_response_flattening(series, knee, slope_fraction=config.slope_fraction,
                                                    fit=fit))
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
