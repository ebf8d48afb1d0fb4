import json
from dataclasses import asdict

import pytest

from loadlaw import (
    Report,
    ServiceProfile,
    __version__,
    audit_series,
    bounds_summary,
    diagnose_series,
    solve_reference,
)

from .conftest import capped_pool_series, three_stage_profile


def reference_dict(report: Report) -> dict:
    """The report dict built field by field with dataclasses.asdict: the
    reference the direct construction in Report.to_dict must match."""
    bounds = None
    if report.bounds is not None:
        bounds = asdict(report.bounds)
        bounds["tied_labels"] = list(report.bounds.tied_labels)
    return {
        "version": report.tool_version,
        "inputs": dict(report.inputs),
        "bounds": bounds,
        "knee": asdict(report.knee) if report.knee is not None else None,
        "audit": [asdict(row) for row in report.audit] if report.audit is not None else None,
        "findings": [{"detector": f.detector, "severity": f.severity, "message": f.message,
                      "evidence": dict(f.evidence), "affected_points": list(f.affected_points)}
                     for f in report.findings],
        "verdict": report.verdict,
    }


def bounds_report(profile: ServiceProfile) -> Report:
    # built as `loadlaw bounds --format json` builds it
    return Report(tool_version=__version__, inputs={"profile": "profile.json"},
                  bounds=bounds_summary(profile), knee=None, audit=None, findings=[],
                  verdict="clean")


def reference_series():
    return solve_reference(three_stage_profile(), 40).as_series(ns=[1, 2, 5, 10, 20, 30, 40])


REPORTS = {
    "audit-capped": lambda: audit_series(capped_pool_series(configured_think_time=10.0),
                                         inputs={"series": "capped.csv"}),
    "diagnose-capped-profile": lambda: diagnose_series(capped_pool_series(),
                                                       three_stage_profile(),
                                                       inputs={"series": "capped.csv"}),
    "diagnose-capped-data-knee": lambda: diagnose_series(capped_pool_series(),
                                                         inputs={"series": "capped.csv"}),
    "diagnose-reference-profile": lambda: diagnose_series(reference_series(),
                                                          three_stage_profile()),
    "bounds": lambda: bounds_report(three_stage_profile()),
    "bounds-tied": lambda: bounds_report(ServiceProfile.from_service_times(
        [0.01, 0.004, 0.01], think_time=1.0, labels=["a", "b", "c"])),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_serialization_matches_asdict_reference(name):
    report = REPORTS[name]()
    expected = reference_dict(report)
    assert report.to_dict() == expected
    assert report.to_json() == json.dumps(expected, indent=2)

