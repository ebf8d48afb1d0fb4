import json
import math
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadlaw import (
    CRITICAL,
    INFO,
    RETROGRADE_THROUGHPUT,
    WARNING,
    Audit,
    Bounds,
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
from loadlaw import report as report_module
from loadlaw.diagnostics import DETECTOR_IDS

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


# Every note the report writes, on series that reach each path: what each
# entry point reports, and what it leaves out, as (detector, severity,
# message, affected_points).
NO_PACING = ("THINK_TIME_VIOLATION", "info",
             "no positive configured think time declared; pacing check skipped", ())
ZERO_PAST_KNEE = [
    ("GROWTH_CLASS", "info", "growth class inconclusive: post-knee response growth; "
     "only 0 point(s) beyond the knee; need 4", ()),
    ("RESPONSE_FLATTENING", "info", "only 0 point(s) beyond the knee; flattening not assessable", ()),
]
CAPPED_THROTTLING = (
    "THREAD_THROTTLING", "critical",
    "running-client count (x*r) plateaus near 121.0 while the configured load grows 2x from 200 to 400; "
    "the remaining clients sit idle in the generator's pool, so points beyond the plateau measure the "
    "harness cap, not the system", (200, 300, 400))
ZERO_X_THINK_TIME = [
    ("THINK_TIME_VIOLATION", "info",
     "skipped 1 zero-throughput point(s) where implied think time is undefined", (1,)),
    ("THINK_TIME_VIOLATION", "critical",
     "harness declares 1 s of think time between requests but the measurements imply a median of "
     "0.05 s; the pacing logic in the client scripts is not doing what it claims", (2, 3, 4)),
]
ZERO_X_THROTTLING = (
    "THREAD_THROTTLING", "critical",
    "running-client count (x*r) plateaus near 0.0 while the configured load grows 3x from 1 to 3; "
    "the remaining clients sit idle in the generator's pool, so points beyond the plateau measure the "
    "harness cap, not the system", (1, 2, 3))
ONE_PAST_KNEE = [
    ("GROWTH_CLASS", "info", "growth class inconclusive: post-knee response growth; "
     "only 1 point(s) beyond the knee; need 4", (2200,)),
    ("RESPONSE_FLATTENING", "info", "only 1 point(s) beyond the knee; flattening not assessable", ()),
    NO_PACING,
]
TWO_PAST_KNEE = [
    ("GROWTH_CLASS", "info", "growth class inconclusive: post-knee response growth; "
     "only 2 point(s) beyond the knee; need 4", (2200, 3000)),
    NO_PACING,
]


def too_few_rows(rows):
    return ("THREAD_THROTTLING", "info", f"only {rows} audit row(s); need 3 to assess thread throttling", ())


def no_knee(reason):
    return ("RESPONSE_FLATTENING", "info", f"knee estimate unavailable: {reason}", ())


CAPPED = {  # with no think time or a zero one
    "audit": [NO_PACING, CAPPED_THROTTLING],
    "data-knee": [
        ("GROWTH_CLASS", "info", "growth class sublinear: post-knee response growth",
         (120, 200, 300, 400)),
        ("RESPONSE_FLATTENING", "critical",
         "beyond the knee (~17.1 users) response time climbs at 6.11e-05 s/user, far below the "
         "0.00234 s/user the bottleneck dictates; a flattened post-saturation response curve is a "
         "signal that the measurements are wrong, not that the system scales well",
         (120, 200, 300, 400)),
        NO_PACING, CAPPED_THROTTLING],
    "profile": [
        ("BOUND_VIOLATION", "critical",
         "claimed throughput 428/s exceeds the ceiling 200/s set by the 'lookup' stage's service "
         "time; either the throughput measurement is wrong or the measured service times are "
         "wrong. If the service times stand, roughly 228/s of the claimed rate is error or "
         "phantom work counted as completed transactions", ()),
        *ZERO_PAST_KNEE, NO_PACING, CAPPED_THROTTLING],
}

NOTE_CASES = {  # name: (series, {entry point: findings})
    "two-rows": (lambda: LoadSeries.from_arrays([1, 2], [10.0, 20.0], [0.1, 0.1]), {
        "audit": [NO_PACING, too_few_rows(2)],
        "data-knee": [*ZERO_PAST_KNEE, NO_PACING, too_few_rows(2)],
        "profile": [*ZERO_PAST_KNEE, NO_PACING, too_few_rows(2)],
    }),
    "zero-think-time": (lambda: capped_pool_series(configured_think_time=0.0), CAPPED),
    "no-think-time": (capped_pool_series, CAPPED),
    "zero-x-positive-think-time": (lambda: LoadSeries.from_arrays(
        [1, 2, 3, 4], [0.0, 10.0, 20.0, 30.0], [0.1, 0.1, 0.1, 0.2], configured_think_time=1.0), {
        "audit": ZERO_X_THINK_TIME,
        "data-knee": [*ZERO_PAST_KNEE, *ZERO_X_THINK_TIME],
        "profile": [*ZERO_PAST_KNEE, *ZERO_X_THINK_TIME],
    }),
    "one-point": (lambda: LoadSeries.from_arrays([1], [5.0], [0.1]), {
        "audit": [NO_PACING, too_few_rows(1)],
        "data-knee": [no_knee("need at least 2 points to estimate the knee from data"),
                      NO_PACING, too_few_rows(1)],
        "profile": [*ZERO_PAST_KNEE, NO_PACING, too_few_rows(1)],
    }),
    "every-x-zero": (lambda: LoadSeries.from_arrays([1, 2, 3], [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]), {
        "audit": [NO_PACING, ZERO_X_THROTTLING],
        "data-knee": [no_knee("cannot estimate the knee: every point has zero throughput"),
                      NO_PACING, ZERO_X_THROTTLING],
        "profile": [*ZERO_PAST_KNEE, NO_PACING, ZERO_X_THROTTLING],
    }),
    # the data knee at r[0] * max(x) = 2100 users, the profile's at 2102
    "one-past-knee": (lambda: LoadSeries.from_arrays(
        [100, 2000, 2200], [10.0, 190.0, 200.0], [10.5, 10.6, 11.0]), {
        "audit": [NO_PACING],
        "data-knee": ONE_PAST_KNEE,
        "profile": ONE_PAST_KNEE,
    }),
    # the data knee at 1000 users; flattening ran and found nothing
    "two-past-knee": (lambda: LoadSeries.from_arrays(
        [100, 2200, 3000], [10.0, 200.0, 200.0], [5.0, 11.0, 15.0]), {
        "audit": [NO_PACING],
        "data-knee": TWO_PAST_KNEE,
        "profile": TWO_PAST_KNEE,
    }),
}
ENTRY_POINTS = {
    "audit": audit_series,
    "data-knee": diagnose_series,
    "profile": lambda series: diagnose_series(series, three_stage_profile()),
}


@pytest.mark.parametrize("case, entry", [(case, entry) for case, (_, expected) in NOTE_CASES.items()
                                         for entry in expected])
def test_every_note_and_silence_of_each_entry_point(case, entry):
    make_series, expected = NOTE_CASES[case]
    report = ENTRY_POINTS[entry](make_series())
    assert [(f.detector, f.severity, f.message, f.affected_points) for f in report.findings] \
        == expected[entry]


# -- the writer against json.dumps on any report a caller can build -------------

# every float64 bit pattern, and the values whose text repr and json write apart
any_float = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-308, 9.99e-5, 1e-4,
                     1e16, 9.9e15, 1.5e300, -1e22]))
# every code point: control characters, DEL, lone surrogates and astral characters
any_text = st.one_of(st.text(st.characters(blacklist_categories=()), max_size=12),
                     st.sampled_from(["\x7f", "\ud800", "\udfff", "\U0001f600", '\x00\n\t"\\', "é查"]))
# what a hand-built Report may hold beside floats and strings
other_values = st.recursive(st.none() | st.booleans() | st.integers() | any_float | any_text,
                            lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(any_text, inner, max_size=3), max_leaves=6)
int64s = st.integers(-2 ** 63, 2 ** 63 - 1)
affected_points = st.one_of(st.lists(int64s, max_size=20).map(tuple),
                            st.lists(int64s, max_size=20).map(lambda ns: np.array(ns, dtype=np.int64)))
bounds_values = st.one_of(st.none(), st.builds(
    Bounds, s_max=any_float.filter(lambda v: v != 0), r_min=any_float, z=any_float, basis=any_text,
    bottleneck_label=any_text, tied_labels=st.lists(any_text, max_size=3).map(tuple)))


@st.composite
def audits(draw):
    kind = draw(st.sampled_from(["none", "empty", "one row", "many rows"]))
    if kind == "none":
        return None
    rows = {"empty": 0, "one row": 1}.get(kind) or draw(st.integers(2, 12))
    n_was = np.array(draw(st.lists(int64s, min_size=rows, max_size=rows)), dtype=np.int64)
    floats = [np.array(draw(st.lists(any_float, min_size=rows, max_size=rows)), dtype=np.float64)
              for _ in range(4)]
    return Audit(n_was, *floats)


findings_lists = st.lists(st.builds(
    Finding, detector=st.sampled_from(DETECTOR_IDS), severity=st.sampled_from([INFO, WARNING, CRITICAL]),
    message=any_text, evidence=st.dictionaries(any_text, any_float | other_values, max_size=5),
    affected_points=affected_points), max_size=4)
reports = st.builds(Report, tool_version=any_text,
                    inputs=st.dictionaries(any_text, any_text | other_values, max_size=3),
                    bounds=bounds_values, knee=bounds_values, audit=audits(), findings=findings_lists,
                    verdict=any_text)


def with_tuple_points(report: Report) -> Report:
    """The report with each finding's affected points as a tuple of ints, which
    reference_dict can hand to json.dumps."""
    return replace(report, findings=[replace(f, affected_points=tuple(int(n) for n in f.affected_points))
                                     for f in report.findings])


@settings(max_examples=300, deadline=None)
@given(reports)
def test_any_report_encodes_like_json_dumps(report):
    assert_encodes_like_json_dumps(with_tuple_points(report))
    assert report.to_json() == with_tuple_points(report).to_json()


def capped_sweep(size):
    """A noiseless sweep whose load generator capped its pool at 30 % of ``size``."""
    profile = three_stage_profile(think_time=1.0)
    curves = solve_reference(profile, size)
    at = np.minimum(np.arange(1, size + 1), 3 * size // 10) - 1
    return LoadSeries.from_arrays(np.arange(1, size + 1), curves.x[at], curves.r[at],
                                  configured_think_time=1.0), profile


def test_writer_calls_no_python_encoder_per_point(monkeypatch):
    """The strings and the per-value path are called as often on a 2,000-row
    capped sweep as on a 400-row one that fires the same findings."""
    calls = {}

    def spy(name):
        wrapped = getattr(report_module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return wrapped(*args)
        monkeypatch.setattr(report_module, name, counted)

    spy("encode_basestring_ascii")
    spy("_value")
    counts = []
    for size in (400, 2000):
        report = diagnose_series(*capped_sweep(size))
        assert [(f.detector, f.severity, sorted(f.evidence)) for f in report.findings] == [
            ("GROWTH_CLASS", "info", ["exp_rate", "exp_ss", "linear_slope", "linear_ss", "n_points"]),
            ("RESPONSE_FLATTENING", "critical", ["bottleneck_slope", "n_opt_hat", "observed_slope",
                                                 "slope_ratio"]),
            ("THINK_TIME_VIOLATION", "critical", ["configured_think_time", "median_effective_think_time",
                                                  "points_skipped_zero_x", "relative_deviation"]),
            ("THREAD_THROTTLING", "critical", ["n_was_span", "plateau_n_run", "plateau_spread",
                                               "plateau_start_n"])]
        calls.clear()
        report.to_json()
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["encode_basestring_ascii"] > 0 and counts[0]["_value"] > 0
