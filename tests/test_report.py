import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadlaw import (
    INFO,
    RETROGRADE_THROUGHPUT,
    Audit,
    Finding,
    LoadPoint,
    LoadSeries,
    Report,
    ServiceProfile,
    __version__,
    audit_series,
    bounds_summary,
    diagnose_series,
    estimate_knee,
    plot_rows,
    solve_reference,
)

from .conftest import (capped_pool_series, gen0_collections, load_series, profiles,
                       three_stage_profile)


def reference_dict(report: Report) -> dict:
    """The report dict built field by field, audit rows with
    dataclasses.asdict: the reference Report.to_json must encode and
    Report.to_dict must equal."""
    bounds = knee = None
    if report.bounds is not None:
        b = report.bounds
        bounds = {"x_max": b.x_max, "r_min": b.r_min, "n_opt": b.n_opt,
                  "bottleneck_label": b.bottleneck_label, "tied_labels": list(b.tied_labels)}
    if report.knee is not None:
        k = report.knee
        knee = {"s_max_hat": k.s_max_hat, "r_min_hat": k.r_min_hat, "n_opt_hat": k.n_opt_hat,
                "basis": k.basis}
    return {
        "version": report.tool_version,
        "inputs": dict(report.inputs),
        "bounds": bounds,
        "knee": knee,
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



def assert_encodes_like_json_dumps(report: Report):
    assert report.to_json() == json.dumps(reference_dict(report), indent=2)


@settings(deadline=None)
@given(load_series(), st.one_of(st.none(), profiles()))
def test_to_json_is_json_dumps_of_the_reference_dict(series, profile):
    for report in (diagnose_series(series, profile), audit_series(series)):
        assert_encodes_like_json_dumps(report)
        assert report.to_dict() == reference_dict(report)
        for f in report.findings:
            assert all(type(v) is float for v in f.evidence.values())
            assert all(type(n) is int for n in f.affected_points)


ODD_TEXT = 'série "7" \\ 查询\t\u2028'


def odd_profile():
    return ServiceProfile.from_service_times([0.004, 0.006, 0.006], think_time=0.5,
                                             labels=[ODD_TEXT, "b\"", "ü"])


def note(evidence=None, points=()):
    return Finding(detector=RETROGRADE_THROUGHPUT, severity=INFO, message=ODD_TEXT,
                   evidence=evidence or {}, affected_points=points)


ENCODER_CASES = {
    "odd-paths-and-labels": lambda: diagnose_series(capped_pool_series(), odd_profile(),
                                                    inputs={"series": ODD_TEXT,
                                                            "profile": "p\"q.json"}),
    "tied-bottlenecks": lambda: bounds_report(odd_profile()),
    "nonfinite-evidence": lambda: Report(
        tool_version=__version__, inputs={}, bounds=None, knee=None, audit=None,
        findings=[note({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "one": 1.0}, (3,)),
                  note()],
        verdict="clean"),
    # r = 5e-5 s, n_run below 1e-4, x and n_run from 1e16 up: repr's exponent forms
    "exponent-form-audit": lambda: diagnose_series(LoadSeries(points=(
        LoadPoint(1, 1.0, 5e-5), LoadPoint(2, 1.5, 3e-5), LoadPoint(3, 1e16, 1e-3),
        LoadPoint(4, 2e16, 1.0), LoadPoint(5, 2.5e-7, 0.0))), three_stage_profile()),
    "exponent-form-audit-only": lambda: audit_series(LoadSeries(points=(
        LoadPoint(1, 1.0, 5e-5), LoadPoint(9, 1e16, 1e-3)), configured_think_time=1e-5)),
    "nan-audit-column": lambda: Report(
        tool_version=__version__, inputs={}, bounds=None, knee=None,
        audit=Audit(*(np.array(c) for c in ([1, 2], [1.0, math.nan], [0.5, 1.0], [0.5, math.inf],
                                             [0.5, -math.inf]))),
        findings=[], verdict="clean"),
    "no-findings": lambda: Report(tool_version=__version__, inputs={"series": "s.csv"},
                                  bounds=None, knee=None, audit=None, findings=[],
                                  verdict="clean"),
    "one-row-audit": lambda: diagnose_series(LoadSeries(points=(LoadPoint(7, 3.0, 0.25),)),
                                             three_stage_profile()),
    "bounds-only": lambda: bounds_report(three_stage_profile()),
}


# to_json writes indent 2 only; another layout is json.dumps of to_dict, which
# must then carry every value of the reference, NaN and exponent forms included
@pytest.mark.parametrize("indent", [2, 0, 4])
@pytest.mark.parametrize("name", sorted(ENCODER_CASES))
def test_encoder_edge_cases(name, indent):
    report = ENCODER_CASES[name]()
    assert_encodes_like_json_dumps(report)
    assert json.dumps(report.to_dict(), indent=indent) == json.dumps(reference_dict(report), indent=indent)


def test_nonfinite_values_are_written_as_json_dumps_writes_them():
    text = ENCODER_CASES["nonfinite-evidence"]().to_json()
    assert '"nan": NaN' in text and '"inf": Infinity' in text and '"-inf": -Infinity' in text
    # no LoadSeries has a non-finite n_run, so only a hand-built Audit reaches that branch
    audit = json.loads(ENCODER_CASES["nan-audit-column"]().to_json())["audit"]
    assert audit[1]["n_run"] == math.inf and audit[1]["n_idle"] == -math.inf


def test_audit_rows_are_built_on_demand_from_columns():
    report = audit_series(capped_pool_series())
    assert len(report.audit) == 7
    assert report.audit[-1] == list(report.audit)[-1]
    assert report.audit[-1].n_was == 400 and type(report.audit[-1].n_was) is int
    assert [row.n_run for row in report.audit] == (report.audit.n_run).tolist()


def reference_plot_rows(series, profile=None, knee=None):
    """plot_rows as it was before Bounds: a per-point loop for each basis,
    with the scalar bound formulas of the profile basis written out."""
    columns = list(zip(series.n.tolist(), series.x.tolist(), series.r.tolist()))
    if profile is not None:
        r_min, s_max, z = profile.r_min, profile.s_max, profile.think_time
        return [(n, x, r, min(n / (r_min + z), 1.0 / s_max), max(r_min, n * s_max - z))
                for n, x, r in columns]
    z = series.configured_think_time or 0.0
    x_max_hat = 1.0 / knee.s_max_hat
    return [(n, x, r, min(n / (knee.r_min_hat + z), x_max_hat),
             max(knee.r_min_hat, n * knee.s_max_hat - z))
            for n, x, r in columns]


@settings(deadline=None)
@given(load_series(), profiles())
def test_plot_rows_matches_the_per_point_loops(series, profile):
    report = diagnose_series(series, profile)
    assert report.bounds is report.knee
    assert repr(plot_rows(series, report.knee)) == repr(reference_plot_rows(series, profile))
    try:
        knee = estimate_knee(series)
    except ValueError:
        return
    # the loop divided by a zero floor plus think time; Bounds gives the ceiling there
    assume(knee.r_min + knee.z > 0)
    assert repr(plot_rows(series, knee)) == repr(reference_plot_rows(series, knee=knee))


def test_to_json_keeps_no_container_per_audit_row():
    """A container kept alive per row costs gen-0 collections on every report."""
    report = audit_series(solve_reference(three_stage_profile(), 5000).as_series())
    assert len(report.audit) == 5000
    assert gen0_collections(report.to_json) == 0
