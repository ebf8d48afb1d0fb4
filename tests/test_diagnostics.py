import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loadlaw import (
    CRITICAL,
    INFO,
    WARNING,
    AuditRow,
    Bounds,
    DetectorConfig,
    Finding,
    LoadPoint,
    LoadSeries,
    ServiceProfile,
    audit_littles_law,
    bounds_summary,
    classify_growth,
    compute_n_opt,
    detect_bound_violation,
    detect_response_flattening,
    detect_retrograde,
    detect_think_time_violation,
    detect_thread_throttling,
    diagnose_series,
    estimate_knee,
    parse_series,
    solve_reference,
)
from loadlaw import diagnostics

from .conftest import (
    CAPPED_POOL_EXPECTED,
    CAPPED_POOL_ROWS,
    capped_pool_series,
    load_series,
    profiles,
    three_stage_profile,
)


def series_of(tuples, **kwargs):
    return LoadSeries(points=tuple(LoadPoint(n, x, r) for n, x, r in tuples), **kwargs)


def audit_row(point):
    """Little's law on one point, as audit_littles_law applies it to each row."""
    n_run = point.x * point.r
    return AuditRow(n_was=point.n, x_was=point.x, r_was=point.r, n_run=n_run, n_idle=point.n - n_run)


def implied_think_time(point):
    """Think time implied by N = X * (R + Z): n/x - r."""
    return point.n / point.x - point.r


def reference_series(profile, span=10.0, count=30, **kwargs):
    """Sample the lawful curves out to span * n_opt."""
    n_max = max(2, math.ceil(span * compute_n_opt(profile)))
    curves = solve_reference(profile, n_max)
    ns = sorted(set(np.linspace(1, n_max, count).astype(int)))
    return curves.as_series(ns=ns, **kwargs)


@pytest.mark.parametrize("detector, severity, message", [
    ("BOUND", CRITICAL, "unknown detector 'BOUND'"),
    ("growth_class", INFO, "unknown detector 'growth_class'"),
    ("GROWTH_CLASS", "error", "unknown severity 'error'"),
    ("GROWTH_CLASS", "INFO", "unknown severity 'INFO'"),
], ids=["unknown-detector", "lowercase-detector", "unknown-severity", "uppercase-severity"])
def test_finding_refuses_unknown_detector_and_severity(detector, severity, message):
    with pytest.raises(ValueError) as exc:
        Finding(detector=detector, severity=severity, message="m")
    assert str(exc.value) == message


class TestAuditLittlesLaw:
    def test_reproduces_printed_table(self):
        rows = audit_littles_law(capped_pool_series())
        for row in rows:
            n_run, n_idle = CAPPED_POOL_EXPECTED[row.n_was]
            assert row.n_run == pytest.approx(n_run, abs=0.005)
            assert row.n_idle == pytest.approx(n_idle, abs=0.005)

    def test_first_row(self):
        row = audit_row(LoadPoint(1, 24.0, 0.040))
        assert row.n_run == pytest.approx(0.96, abs=0.005)
        assert row.n_idle == pytest.approx(0.04, abs=0.005)

    def test_zero_throughput(self):
        row = audit_row(LoadPoint(10, 0.0, 0.5))
        assert row.n_run == 0.0
        assert row.n_idle == 10.0

    def test_rows_in_series_order(self):
        rows = audit_littles_law(capped_pool_series())
        assert [r.n_was for r in rows] == [n for n, _, _ in CAPPED_POOL_ROWS]


@given(st.integers(min_value=1, max_value=1_000_000),
       st.floats(min_value=0, max_value=2000), st.floats(min_value=0, max_value=1000))
def test_audit_identity_exact(n, x, r):
    row = audit_row(LoadPoint(n, x, r))
    assert row.n_run == x * r
    assert row.n_idle == n - row.n_run
    assert row.n_run + row.n_idle == n


class TestThreadThrottling:
    def test_fires_on_capped_pool(self):
        finding = detect_thread_throttling(audit_littles_law(capped_pool_series()))
        assert finding is not None
        assert finding.severity == CRITICAL
        assert 115 <= finding.evidence["plateau_n_run"] <= 125
        assert finding.affected_points == (200, 300, 400)

    def test_silent_when_all_threads_run(self):
        rows = audit_littles_law(series_of([(n, float(n), 1.0) for n in (1, 10, 100, 400)]))
        assert detect_thread_throttling(rows) is None

    def test_too_few_rows(self):
        rows = audit_littles_law(series_of([(1, 1.0, 1.0), (100, 1.0, 1.0)]))
        assert detect_thread_throttling(rows) is None

    def test_plateau_without_load_growth_is_silent(self):
        rows = audit_littles_law(series_of([(100, 50.0, 1.0), (110, 50.2, 1.0), (120, 49.9, 1.0)]))
        assert detect_thread_throttling(rows) is None

    @pytest.mark.parametrize("low, high", [(8.988465674311579e+307, 8.98846567431158e+307),
                                           (1.7976931348623157e308, 1.7976931348623157e308)])
    def test_plateau_level_past_float64_sum_stays_finite(self, low, high):
        # the n_run values sum past the largest double; their mean does not
        rows = audit_littles_law(series_of([(1, 0.0, 0.0), (2, 1.0, low), (3, 1.0, high)]))
        finding = detect_thread_throttling(rows)
        assert low <= finding.evidence["plateau_n_run"] <= high
        assert "inf" not in finding.message


class TestEffectiveThinkTime:
    @staticmethod
    def median(point):
        finding = detect_think_time_violation(series_of([point], configured_think_time=10.0))
        return finding.evidence["median_effective_think_time"]

    def test_worked_value(self):
        assert self.median((200, 428.0, 0.279)) == pytest.approx(0.1883, abs=0.0005)

    def test_zero_think(self):
        assert self.median((1, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


class TestThinkTimeViolation:
    def test_fires_when_pacing_broken(self):
        # generated without pacing, declared as 10 s
        profile = three_stage_profile(think_time=0.0)
        series = reference_series(profile, span=3, configured_think_time=10.0)
        finding = detect_think_time_violation(series)
        assert finding is not None and finding.severity == CRITICAL
        assert finding.evidence["median_effective_think_time"] == pytest.approx(0.0, abs=1e-9)

    def test_silent_on_honest_series(self):
        series = reference_series(three_stage_profile(), span=2)
        assert detect_think_time_violation(series) is None

    def test_not_applicable_without_declared_pacing(self):
        assert detect_think_time_violation(capped_pool_series()) is None


class TestBoundViolation:
    def test_fires_at_300_against_200_ceiling(self):
        finding = detect_bound_violation(300.0, three_stage_profile())
        assert finding is not None and finding.severity == CRITICAL
        assert finding.evidence["x_max"] == pytest.approx(200.0)
        assert finding.evidence["x_errors_estimate"] == pytest.approx(100.0, abs=0.5)
        # both hypotheses spelled out
        assert "measurement is wrong" in finding.message
        assert "service times" in finding.message

    def test_silent_at_the_ceiling(self):
        assert detect_bound_violation(200.0, three_stage_profile()) is None

    def test_silent_within_tolerance(self):
        assert detect_bound_violation(203.0, three_stage_profile(), rel_tol=0.02) is None

    def test_sharp_threshold(self):
        p = three_stage_profile()
        assert detect_bound_violation(204.0 * (1 + 1e-9), p, rel_tol=0.02) is not None
        assert detect_bound_violation(204.0 * (1 - 1e-9), p, rel_tol=0.02) is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            detect_bound_violation(-1.0, three_stage_profile())


class TestEstimateKnee:
    def test_profile_basis_is_exact(self):
        knee = estimate_knee(capped_pool_series(), three_stage_profile())
        assert knee.basis == "profile"
        assert knee.n_opt_hat == pytest.approx(2002.1, abs=0.05)

    def test_data_basis_recovers_knee(self):
        profile = three_stage_profile()
        series = reference_series(profile, span=10, count=40)
        knee = estimate_knee(series)
        assert knee.basis == "data"
        assert knee.n_opt_hat == pytest.approx(compute_n_opt(profile), rel=0.10)

    @given(load_series(), profiles())
    def test_profile_basis_is_the_profile_bounds(self, series, profile):
        assert estimate_knee(series, profile) == bounds_summary(profile)

    def test_all_zero_throughput(self):
        series = series_of([(1, 0.0, 0.1), (2, 0.0, 0.1)])
        with pytest.raises(ValueError, match="zero throughput"):
            estimate_knee(series)

    def test_needs_two_points_without_profile(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_knee(series_of([(1, 1.0, 0.1)]))


class TestRetrograde:
    def test_flags_drop_below_running_max(self):
        findings = detect_retrograde(series_of([(1, 100.0, 1), (2, 120.0, 1), (3, 110.0, 1)]))
        assert len(findings) == 1
        assert findings[0].severity == WARNING
        assert findings[0].affected_points == (3,)
        assert findings[0].evidence["drop_fraction"] == pytest.approx(1 - 110 / 120)

    def test_monotone_is_silent(self):
        assert detect_retrograde(series_of([(1, 10.0, 1), (2, 10.0, 1), (3, 11.0, 1)])) == []

    def test_reference_curves_are_silent(self):
        series = reference_series(three_stage_profile(), span=3)
        assert detect_retrograde(series) == []

    def test_small_dip_within_tolerance(self):
        assert detect_retrograde(series_of([(1, 100.0, 1), (2, 99.5, 1)]), rel_tol=0.02) == []


class TestResponseFlattening:
    def test_fires_on_capped_pool_response_column(self):
        series = capped_pool_series()
        knee = estimate_knee(series)
        finding = detect_response_flattening(series, knee)
        assert finding is not None and finding.severity == CRITICAL
        # slope over the four post-knee rows is ~6.1e-5 s/user vs ~2.3e-3 bottleneck slope
        assert finding.evidence["observed_slope"] == pytest.approx(6.1e-5, rel=0.05)
        assert finding.evidence["bottleneck_slope"] == pytest.approx(1 / 428.0, rel=1e-9)
        assert finding.evidence["observed_slope"] * 10 < finding.evidence["bottleneck_slope"]

    def test_silent_on_lawful_handle(self):
        profile = three_stage_profile()
        series = reference_series(profile, span=10, count=40)
        knee = estimate_knee(series, profile)
        assert detect_response_flattening(series, knee) is None

    def test_not_applicable_with_one_post_knee_point(self):
        profile = three_stage_profile()
        series = series_of([(1, 0.1, 0.0105), (3000, 200.0, 0.02)])
        knee = estimate_knee(series, profile)
        assert detect_response_flattening(series, knee) is None


class TestClassifyGrowth:
    def test_reference_handle_is_linear(self):
        profile = three_stage_profile()
        n_opt = compute_n_opt(profile)
        n_max = math.ceil(10 * n_opt)
        curves = solve_reference(profile, n_max)
        ns = sorted(set(np.linspace(math.ceil(n_opt), n_max, 25).astype(int)))
        series = curves.as_series(ns=ns)
        cls, fit = classify_growth(series, estimate_knee(series, profile))
        assert cls == "linear"
        assert fit.linear_slope == pytest.approx(profile.s_max, rel=0.05)

    def test_synthetic_exponential(self):
        pts = [(n, 50.0, 0.01 * math.exp(0.05 * n)) for n in range(30, 61)]
        series = series_of(pts)
        knee = estimate_knee(series)
        cls, fit = classify_growth(series, knee)
        assert cls == "exponential"
        assert fit.exp_rate == pytest.approx(0.05, rel=0.05)

    def test_too_few_points_is_inconclusive(self):
        profile = three_stage_profile()
        series = series_of([(2500, 200.0, 0.5), (3000, 200.0, 0.6), (3500, 200.0, 0.7)])
        cls, fit = classify_growth(series, estimate_knee(series, profile), min_points=4)
        assert cls == "inconclusive"
        assert fit.n_points == 3

    def test_flattened_response_is_sublinear(self):
        series = capped_pool_series()
        cls, _ = classify_growth(series, estimate_knee(series))
        assert cls == "sublinear"

    def test_nonpositive_r_skips_exponential_fit(self):
        series = series_of([(10, 5.0, 0.0), (20, 5.0, 0.1), (30, 5.0, 0.2),
                            (40, 5.0, 0.3), (50, 5.0, 0.4)])
        knee = estimate_knee(series)
        cls, fit = classify_growth(series, knee)
        assert fit.exp_ss is None
        assert "skipped" in fit.note
        assert cls in ("linear", "sublinear")

    def test_decaying_response_with_a_huge_log_intercept_is_classified(self):
        # log r = 800 - 0.8 n: the exponential fit is finite, exp(800) is not
        series = series_of([(n, 1.0, math.exp(800 - 0.8 * n)) for n in (1000, 1001, 1002, 1003)])
        cls, fit = classify_growth(series, Bounds(s_max=1.0, r_min=0.0, z=0.0, basis="data"))
        assert (cls, fit.n_points) == ("sublinear", 4)
        diagnose_series(series)  # raised OverflowError while the fit kept exp(800)

    def test_an_overflowing_exponential_fit_is_noted_and_not_used(self):
        # log r jumps from -744 to 353: the fitted exp() passes float64 at n = 89,
        # with no numpy warning on the way (the test runs with warnings as errors)
        rs = [math.exp(-744)] * 2 + [math.exp(353)] * 5
        series = series_of([(n, 1e-160, r) for n, r in zip((5, 12, 32, 38, 41, 48, 89), rs)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cls, fit = classify_growth(series, Bounds(s_max=1.0, r_min=0.0, z=0.0, basis="data"))
        assert cls == "linear"
        assert (fit.n_points, fit.exp_rate, fit.exp_ss) == (7, None, None)
        assert fit.linear_ss == pytest.approx(2.72e306, rel=1e-3)
        assert fit.note == "exponential fit overflowed; treated as non-exponential"


# three_stage_profile's knee is at n = 2002.1: two points before it, then four
# post-knee points on the slope S_max
LEAD = [(10, 0.99, 0.0105), (100, 9.9, 0.0105)]
HANDLE = [(2500, 200.0, 2.5), (3000, 200.0, 5.0), (3500, 200.0, 7.5), (4000, 200.0, 10.0)]


@pytest.mark.parametrize("rows, solves", [
    (LEAD + HANDLE, 2),
    (LEAD + HANDLE[:1] + [(2800, 200.0, 0.0)] + HANDLE[1:], 1),
    (LEAD + HANDLE[:3], 1),
    (LEAD + HANDLE[:2], 1),
    (LEAD + HANDLE[:1], 0),
], ids=["growth-fits", "nonpositive-r", "three-past-knee", "two-past-knee", "one-past-knee"])
def test_diagnosis_fits_each_post_knee_line_once(monkeypatch, rows, solves):
    """Growth's linear fit is the flattening test's slope: one solve for it,
    one for the log fit, and the flattening test fits only when growth
    does not (2 to min_growth_points - 1 points past the knee). np.polyfit
    calls its own reference to lstsq, so the spy sees only loadlaw's solves."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args: calls.append(args) or lstsq(*args))
    diagnose_series(series_of(rows), three_stage_profile())
    assert len(calls) == solves


@settings(max_examples=60, deadline=None)
@given(load_series(), st.one_of(st.none(), profiles()))
def test_flattening_given_growths_fit_finds_what_it_finds_alone(series, profile):
    try:
        knee = estimate_knee(series, profile)
    except ValueError:
        assume(False)
    fit = classify_growth(series, knee)[1]
    assert detect_response_flattening(series, knee, fit=fit) == detect_response_flattening(series, knee)


@pytest.mark.parametrize("min_points", [1, 0, -3])
def test_growth_refuses_a_line_through_fewer_than_two_points(min_points):
    """A line through one point is not determined, so no min_points under 2
    is taken, as --min-growth-points refuses it; none warns on the way."""
    profile = three_stage_profile(think_time=1.0)
    series = solve_reference(profile, n_max=300).as_series([10, 100, 300])
    knee = bounds_summary(profile)
    assert classify_growth(series, knee, min_points=2) == ("inconclusive", diagnostics.GrowthFit(
        n_points=1, note="only 1 point(s) beyond the knee; need 2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"min_points must be >= 2, got {min_points}"):
            classify_growth(series, knee, min_points=min_points)
        with pytest.raises(ValueError, match="min_points must be >= 2"):
            diagnose_series(series, profile, config=DetectorConfig(min_growth_points=min_points))


def test_flattening_refuses_a_fit_over_other_points():
    series = capped_pool_series()
    knee = estimate_knee(series)
    fit = classify_growth(series, knee)[1]
    with pytest.raises(ValueError, match="fit covers 3 point"):
        detect_response_flattening(series, knee, fit=dataclasses.replace(fit, n_points=3))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_detector_suite_silent_on_lawful_data(seed):
    """No warning or critical findings on series the laws generated."""
    from loadlaw import diagnose_series

    from .conftest import random_profile

    rng = np.random.default_rng(seed)
    profile = random_profile(rng)
    series = reference_series(profile, span=6, count=25)
    report = diagnose_series(series, profile)
    assert report.verdict == "clean"
    assert all(f.severity == INFO for f in report.findings)


# Row-by-row references for the array detectors: the loops they replaced.
# The array versions must give equal findings, evidence bits included.

def loop_thread_throttling(rows, plateau_tol=0.05, span_factor=1.5):
    if len(rows) < 3:
        return None
    mx = mn = rows[-1].n_run
    start = len(rows) - 1
    for i in range(len(rows) - 2, -1, -1):
        v = rows[i].n_run
        hi, lo = max(mx, v), min(mn, v)
        if lo < 0 or (lo == 0 and hi > 0):
            break
        if hi > 0 and (hi - lo) / lo >= plateau_tol:
            break
        mx, mn = hi, lo
        start = i
    plateau = rows[start:]
    if len(plateau) < 2:
        return None
    span = plateau[-1].n_was / plateau[0].n_was
    if span < span_factor:
        return None
    level = 0.0
    for r in plateau:  # left to right: sum() compensates from Python 3.12
        level += r.n_run
    level /= len(plateau)
    return {"plateau_n_run": level, "plateau_spread": (mx - mn) / mn if mn > 0 else 0.0,
            "n_was_span": span, "plateau_start_n": float(plateau[0].n_was)}, \
        tuple(r.n_was for r in plateau)


def loop_retrograde(series, rel_tol=0.02):
    found = []
    points = list(series.points)
    running_max = points[0].x
    for p in points[1:]:
        if p.x < (1.0 - rel_tol) * running_max:
            drop = 1.0 - p.x / running_max if running_max > 0 else 0.0
            found.append(({"x": p.x, "running_max": running_max, "drop_fraction": drop}, (p.n,)))
        running_max = max(running_max, p.x)
    return found


def loop_think_time_median(series):
    import statistics
    return statistics.median([implied_think_time(p) for p in series.points if p.x > 0])


@st.composite
def plateau_series(draw, max_points=30):
    """Sweeps whose x*r wanders near one level, with some zero-throughput points."""
    ns = sorted(draw(st.lists(st.integers(min_value=1, max_value=5_000), min_size=1,
                              max_size=max_points, unique=True)))
    level = draw(st.floats(min_value=0.0, max_value=1_000.0))
    points = []
    for n in ns:
        r = draw(st.floats(min_value=1e-3, max_value=10.0))
        wobble = draw(st.one_of(st.just(0.0), st.floats(min_value=0.9, max_value=1.1)))
        points.append(LoadPoint(n, level * wobble / r, r))
    z = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=30.0)))
    return LoadSeries(points=tuple(points), configured_think_time=z)


@given(st.one_of(plateau_series(), load_series()),
       st.sampled_from([0.01, 0.05, 0.2]), st.sampled_from([1.0, 1.5, 3.0]))
def test_array_detectors_match_row_loops(series, tol, span_factor):
    rows = audit_littles_law(series)
    assert list(rows) == [audit_row(p) for p in series.points]

    expected = loop_thread_throttling(list(rows), tol, span_factor)
    finding = detect_thread_throttling(rows, plateau_tol=tol, span_factor=span_factor)
    assert (None if finding is None else (finding.evidence, finding.affected_points)) == expected

    retro = detect_retrograde(series, rel_tol=tol)
    assert [(f.evidence, f.affected_points) for f in retro] == loop_retrograde(series, tol)

    violation = detect_think_time_violation(series, rel_tol=tol)
    if violation is not None:
        assert violation.evidence["median_effective_think_time"] == loop_think_time_median(series)


# -- metamorphic properties ------------------------------------------------------

def _scaled(series, profile, c):
    """Every time scaled by ``c``: r, Z and the service times by c, x by 1/c."""
    z = series.configured_think_time
    scaled = LoadSeries.from_arrays(series.n, series.x / c, series.r * c,
                                    configured_think_time=None if z is None else z * c)
    return scaled, ServiceProfile.from_service_times([s.service_time * c for s in profile.stages],
                                                     think_time=profile.think_time * c)


def _verdict_and_pairs(report):
    return report.verdict, {(f.detector, f.severity) for f in report.findings if f.severity != INFO}


@settings(max_examples=200, deadline=None)
@given(load_series(), profiles(), st.sampled_from([2.0 ** -8, 0.5, 2.0, 2.0 ** 8]))
def test_scaling_every_time_keeps_the_verdict_and_the_fired_detectors(series, profile, c):
    # a power of two scales exactly unless a value leaves the normal range
    times = [*series.r, series.configured_think_time or 0.0, profile.think_time,
             *(s.service_time for s in profile.stages)]
    for values, k in ((np.array(series.x), 1 / c), (np.array(times), c)):
        scaled = values * k
        assume(np.isfinite(scaled).all() and np.array_equal(scaled / k, values)
               and not ((values != 0) & (np.abs(scaled) < np.finfo(float).tiny)).any())
    scaled, scaled_profile = _scaled(series, profile, c)
    assert (_verdict_and_pairs(diagnose_series(scaled, scaled_profile))
            == _verdict_and_pairs(diagnose_series(series, profile)))
    assert _verdict_and_pairs(diagnose_series(scaled)) == _verdict_and_pairs(diagnose_series(series))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
       st.floats(min_value=0.0, max_value=30.0), st.randoms(use_true_random=False))
def test_permuting_the_stages_keeps_bounds_and_curves(times, z, rnd):
    labels = [f"s{k}" for k in range(len(times))]
    order = list(range(len(times)))
    rnd.shuffle(order)
    profile = ServiceProfile.from_service_times(times, think_time=z, labels=labels)
    permuted = ServiceProfile.from_service_times([times[k] for k in order], think_time=z,
                                                 labels=[labels[k] for k in order])
    b, p = bounds_summary(profile), bounds_summary(permuted)
    for name in ("x_max", "r_min", "n_opt", "s_max", "z"):
        assert getattr(p, name) == pytest.approx(getattr(b, name), rel=1e-12)
    assert {p.bottleneck_label, *p.tied_labels} == {b.bottleneck_label, *b.tied_labels}
    c, d = solve_reference(profile, 60), solve_reference(permuted, 60)
    np.testing.assert_allclose(d.x, c.x, rtol=1e-12)
    np.testing.assert_allclose(d.r, c.r, rtol=1e-12)
    for j, k in enumerate(order):
        np.testing.assert_allclose(d.q[:, j], c.q[:, k], rtol=1e-12)
        assert permuted.stages[j].label == profile.stages[k].label


# -- the same bits on every supported Python ---------------------------------------

def left_to_right_mean(values):
    """Plain float additions in order, as sum() added floats before Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def test_plateau_mean_does_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # the golden capped-2k plateau: the one whose mean Python 3.12's compensated
    # sum() (math.fsum's value here) rounds one bit away from 3.11's
    from .test_golden import write_inputs
    write_inputs(tmp_path)
    rows = audit_littles_law(parse_series((tmp_path / "capped-2k.csv").read_text()))
    before = detect_thread_throttling(rows)
    plateau = rows.n_run[-len(before.affected_points):].tolist()
    assert math.fsum(plateau) / len(plateau) != left_to_right_mean(plateau)
    assert before.evidence["plateau_n_run"] == left_to_right_mean(plateau)
    monkeypatch.setattr(diagnostics, "sum", math.fsum, raising=False)
    assert detect_thread_throttling(rows) == before


@settings(deadline=None)
@given(plateau_series(), st.sampled_from([0.05, 0.2]))
def test_plateau_mean_is_a_left_to_right_sum(series, tol):
    rows = audit_littles_law(series)
    finding = detect_thread_throttling(rows, plateau_tol=tol, span_factor=1.0)
    if finding is not None:
        plateau = rows.n_run[-len(finding.affected_points):].tolist()
        assert finding.evidence["plateau_n_run"] == left_to_right_mean(plateau)


def test_no_module_calls_the_builtin_sum():
    """sum() compensates from Python 3.12, so its bits depend on the interpreter:
    neither the package nor the tests' row-loop references may call it."""
    import ast
    import pathlib

    def sum_calls(path, tree):
        return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]

    calls = []
    for path in sorted(pathlib.Path(diagnostics.__file__).parent.glob("*.py")):
        calls += sum_calls(path, ast.parse(path.read_text(), str(path)))
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("loop_", "reference_")):
                calls += sum_calls(path, node)
    assert calls == []


def test_no_module_fits_by_polyfit():
    """Every least-squares line in the package is fitted by diagnostics._line_fits."""
    import ast
    import pathlib

    fits = []
    for path in sorted(pathlib.Path(diagnostics.__file__).parent.glob("*.py")):
        fits += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute) and node.attr == "polyfit"
                 or isinstance(node, ast.alias) and node.name == "polyfit"]
    assert fits == []


# small loads, and loads past 2**53 where neighbouring n round to one float64
# and leave the design matrix rank deficient
fit_ns = st.one_of(st.integers(min_value=1, max_value=10**6),
                   st.integers(min_value=2**53 - 8, max_value=2**53 + 64),
                   st.integers(min_value=2**63 - 2**12, max_value=2**63 - 1))
fit_ys = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300))
fit_cases = st.lists(fit_ns, min_size=1, max_size=12, unique=True).map(sorted).flatmap(
    lambda ns: st.tuples(st.just(ns), st.lists(st.lists(fit_ys, min_size=len(ns), max_size=len(ns)),
                                               min_size=1, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(fit_cases)
@example(([1], [[-0.0]]))
@example(([2**62, 2**62 + 1, 2**62 + 2], [[1.0, 5e-324, -1e300], [0.0, -0.0, 2.0]]))
def test_line_fits_have_polyfits_bits_and_warnings(case):
    """_line_fits gives np.polyfit(x, y, 1) of each y bit for bit, and the
    RankWarning exactly when polyfit gives it.

    Each y is solved on its own: one lstsq over both columns
    (np.polyfit(x, np.column_stack(ys), 1)) gave bits other than two
    separate polyfits in 14,981 of 20,000 random post-knee cases."""
    n, ys = np.array(case[0], dtype=np.int64), [np.array(y) for y in case[1]]

    def outcome(fit):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = [c.tobytes() for c in fit()]
            except np.linalg.LinAlgError as exc:
                result = str(exc)
        return result, [(w.category, str(w.message)) for w in caught]

    assert outcome(lambda: diagnostics._line_fits(n, *ys)) == outcome(lambda: [np.polyfit(n, y, 1) for y in ys])


# a few values, so that ties are common, and +inf, which n/x - r reaches when n/x overflows
median_values = st.sampled_from([-3.5, -1e-300, 0.0, 1e-5, 0.1, 0.30000000000000004, 2.5, 1e300, math.inf])


@given(st.lists(st.one_of(median_values, st.floats(allow_nan=False, min_value=-1e308, max_value=math.inf)
                          .filter(lambda v: v != 0.0)), min_size=1, max_size=40))
def test_median_has_the_bits_of_statistics_median(values):
    import statistics
    assert diagnostics._median(np.array(values)).hex() == float(statistics.median(values)).hex()
