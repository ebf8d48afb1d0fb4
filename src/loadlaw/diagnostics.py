"""Blunder detectors for closed-loop load-test data.

Each detector is a pure function from measurements to an optional
Finding (or a list of them). They all rest on the same operational
identities: N = X * (R + Z) for a closed system in steady state, the
throughput ceiling 1/S_max, and the saturation response slope S_max.
When measured data violates one of these, the data is wrong somewhere;
these functions say where and by how much.

Severity levels: ``info`` findings are notes and never affect a verdict;
``warning`` marks data worth scrutiny; ``critical`` marks a violated
operational law, which no amount of benign interpretation survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .ingest import LoadSeries, _Rows
from .model import Bounds, ServiceProfile, bounds_summary

BOUND_VIOLATION = "BOUND_VIOLATION"
THREAD_THROTTLING = "THREAD_THROTTLING"
THINK_TIME_VIOLATION = "THINK_TIME_VIOLATION"
RETROGRADE_THROUGHPUT = "RETROGRADE_THROUGHPUT"
RESPONSE_FLATTENING = "RESPONSE_FLATTENING"
GROWTH_CLASS = "GROWTH_CLASS"

DETECTOR_IDS = (BOUND_VIOLATION, THREAD_THROTTLING, THINK_TIME_VIOLATION,
                RETROGRADE_THROUGHPUT, RESPONSE_FLATTENING, GROWTH_CLASS)

INFO = "info"
WARNING = "warning"
CRITICAL = "critical"

# a line through fewer than two points is not determined: the fewest
# post-knee points the growth and flattening fits, and the CLI, accept
_MIN_LINE_POINTS = 2


@dataclass
class DetectorConfig:
    """Tolerances for the detector suite; defaults catch the gross cases
    with margin while absorbing ordinary sampling noise. Each detector's
    keyword defaults are these."""

    bound_rel_tol: float = 0.02
    retrograde_rel_tol: float = 0.02
    plateau_tol: float = 0.05
    span_factor: float = 1.5
    think_time_rel_tol: float = 0.5
    slope_fraction: float = 0.5
    min_growth_points: int = 4


@dataclass(frozen=True)
class Finding:
    """One detector verdict with its numeric evidence."""

    detector: str
    severity: str
    message: str
    evidence: dict[str, float] = field(default_factory=dict)
    affected_points: tuple[int, ...] = ()

    def __post_init__(self):
        if self.detector not in DETECTOR_IDS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.severity not in (INFO, WARNING, CRITICAL):
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True)
class AuditRow:
    """Little's-law reconstruction of one load point.

    ``n_run = x_was * r_was`` is how many clients were actually inside
    the system on average; ``n_idle = n_was - n_run`` is every configured
    client not inside it: those idle in the generator's pool and those
    thinking, declared think time included.
    """

    n_was: int
    x_was: float
    r_was: float
    n_run: float
    n_idle: float


AUDIT_FIELDS = tuple(f.name for f in fields(AuditRow))


class Audit(_Rows):
    """The Little's-law reconstruction of a whole series: ``columns`` holds
    one array per AuditRow field, each also the attribute of its name;
    indexing and iteration build AuditRows on demand."""

    __slots__ = AUDIT_FIELDS

    def __init__(self, n_was, x_was, r_was, n_run, n_idle):
        super().__init__(AuditRow, n_was, x_was, r_was, n_run, n_idle)
        self.n_was, self.x_was, self.r_was, self.n_run, self.n_idle = self.columns


@dataclass(frozen=True)
class GrowthFit:
    """Fit diagnostics behind a growth classification."""

    n_points: int
    linear_slope: float | None = None
    linear_ss: float | None = None
    exp_rate: float | None = None
    exp_ss: float | None = None
    note: str = ""


def audit_littles_law(series: LoadSeries) -> Audit:
    """The audit of every load point, in series order, as an Audit of
    columns (one AuditRow per item); r must be seconds."""
    n_run = series.x * series.r  # finite: LoadSeries refuses a row whose x * r is not
    return Audit(n_was=series.n, x_was=series.x, r_was=series.r, n_run=n_run,
                 n_idle=series.n - n_run)


def post_knee(series: LoadSeries, knee: Bounds) -> np.ndarray:
    """Mask of the points beyond the knee, where response climbs at S_max."""
    return series.n > knee.n_opt


def detect_thread_throttling(audit: Audit, plateau_tol: float = DetectorConfig.plateau_tol,
                             span_factor: float = DetectorConfig.span_factor) -> Finding | None:
    """Flag a load generator whose running-thread count has hit a cap.

    Looks for the longest suffix of the audit whose n_run values stay
    within ``plateau_tol`` relative spread; if the offered load grows by
    at least ``span_factor`` across that suffix while n_run stands still,
    the extra configured clients exist only as idle pool threads and the
    measurements above the cap describe the harness, not the system.
    ``audit`` is what audit_littles_law returns.
    """
    if len(audit) < 3:
        return None
    n_was, n_run = audit.n_was, audit.n_run
    # longest suffix with (max - min) / min < plateau_tol: the suffix from
    # i has the running max and min of n_run[i:], and the first i (from
    # the end) whose suffix breaks the rule ends the scan
    hi = np.maximum.accumulate(n_run[::-1])[::-1]
    lo = np.minimum.accumulate(n_run[::-1])[::-1]
    with np.errstate(all="ignore"):  # the ratio counts only where lo > 0
        breaks = (lo < 0) | ((lo == 0) & (hi > 0)) | ((hi > 0) & ((hi - lo) / lo >= plateau_tol))
    start = len(breaks) - int(breaks[::-1].argmax()) if breaks.any() else 0
    if len(n_run) - start < 2:
        return None
    plateau = n_was[start:].tolist()
    span = plateau[-1] / plateau[0]
    if span < span_factor:
        return None
    mx, mn = float(hi[start]), float(lo[start])
    # summed left to right on every Python (np.sum pairs; sum() compensates from 3.12);
    # a sum past float64 is taken term by term, the mean kept inside the plateau
    with np.errstate(over="ignore"):
        level = (0.0 + np.cumsum(n_run[start:])[-1].item()) / len(plateau)
        if level == math.inf:
            level = min(0.0 + np.cumsum(n_run[start:] / len(plateau))[-1].item(), mx)
    spread = (mx - mn) / mn if mn > 0 else 0.0
    return Finding(
        detector=THREAD_THROTTLING,
        severity=CRITICAL,
        message=(f"running-client count (x*r) plateaus near {level:.1f} while the configured "
                 f"load grows {span:.2g}x from {plateau[0]} to {plateau[-1]}; "
                 f"the remaining clients sit idle in the generator's pool, so points beyond "
                 f"the plateau measure the harness cap, not the system"),
        evidence={
            "plateau_n_run": level,
            "plateau_spread": spread,
            "n_was_span": span,
            "plateau_start_n": float(plateau[0]),
        },
        affected_points=tuple(plateau),
    )


def detect_think_time_violation(series: LoadSeries,
                                rel_tol: float = DetectorConfig.think_time_rel_tol) -> Finding | None:
    """Compare declared pacing against what the measurements imply.

    Uses the median of per-point implied think times (robust to the
    noisy small-n points). Only applicable when the series declares a
    positive configured think time.
    """
    z_conf = series.configured_think_time
    if z_conf is None or z_conf <= 0:
        return None
    usable = series.x > 0
    if not usable.any():
        return None
    n = series.n[usable]
    # each point's implied think time: n/x > 0 and r is finite, so no -0.0 or NaN
    with np.errstate(over="ignore"):
        z_effs = n / series.x[usable] - series.r[usable]
    med = _median(z_effs)
    deviation = abs(med - z_conf) / z_conf
    if deviation <= rel_tol:
        return None
    detail = ""
    if med < 0:
        detail = " (a negative implied think time means n, x and r are mutually inconsistent)"
    return Finding(
        detector=THINK_TIME_VIOLATION,
        severity=CRITICAL,
        message=(f"harness declares {z_conf:g} s of think time between requests but the "
                 f"measurements imply a median of {med:.3g} s{detail}; the pacing logic in "
                 f"the client scripts is not doing what it claims"),
        evidence={
            "configured_think_time": float(z_conf),
            "median_effective_think_time": float(med),
            "relative_deviation": float(deviation),
            "points_skipped_zero_x": float(len(series.n) - len(n)),
        },
        affected_points=tuple(n.tolist()),
    )


def _median(values: np.ndarray) -> float:
    """statistics.median's bits from one np.sort: the middle item or (a + b) / 2 of
    the middle two. Equal values must share their bits (no -0.0 or NaN)."""
    ordered, half = np.sort(values), len(values) // 2
    return ordered[half].item() if len(values) % 2 else (ordered[half - 1].item() + ordered[half].item()) / 2


def detect_bound_violation(observed_x: float, profile: ServiceProfile,
                           rel_tol: float = DetectorConfig.bound_rel_tol) -> Finding | None:
    """Check a claimed throughput against the service-time ceiling.

    Fires exactly when observed_x / x_max > 1 + rel_tol. The excess over
    the ceiling estimates how much of the claimed rate cannot be real
    completed work (failed or phantom transactions acknowledged and then
    counted as successes are the classic cause).
    """
    if observed_x < 0 or not math.isfinite(observed_x):
        raise ValueError(f"observed_x must be finite and >= 0, got {observed_x!r}")
    x_max = bounds_summary(profile).x_max
    if observed_x <= (1.0 + rel_tol) * x_max:
        return None
    excess = observed_x - x_max
    return Finding(
        detector=BOUND_VIOLATION,
        severity=CRITICAL,
        message=(f"claimed throughput {observed_x:g}/s exceeds the ceiling {x_max:g}/s set by "
                 f"the {profile.bottleneck_label!r} stage's service time; either the throughput "
                 f"measurement is wrong or the measured service times are wrong. If the service "
                 f"times stand, roughly {excess:g}/s of the claimed rate is error or phantom "
                 f"work counted as completed transactions"),
        evidence={
            "observed_x": float(observed_x),
            "x_max": float(x_max),
            "x_errors_estimate": float(excess),
            "relative_excess": float(observed_x / x_max - 1.0),
        },
    )


def estimate_knee(series: LoadSeries, profile: ServiceProfile | None = None) -> Bounds:
    """Locate the knee: exact from a profile, else back-estimated from data.

    Data basis: the ceiling is approximated by the largest observed
    throughput, the floor by the response time at the lightest load, and
    the think time by the declared pacing (zero when undeclared).
    """
    if profile is not None:
        return bounds_summary(profile)
    if len(series.n) < 2:
        raise ValueError("need at least 2 points to estimate the knee from data")
    x_peak = float(series.x.max())
    if x_peak <= 0:
        raise ValueError("cannot estimate the knee: every point has zero throughput")
    return Bounds(s_max=1.0 / x_peak, r_min=float(series.r[0]),
                  z=series.configured_think_time or 0.0, basis="data")


def detect_retrograde(series: LoadSeries,
                      rel_tol: float = DetectorConfig.retrograde_rel_tol) -> list[Finding]:
    """Flag points where throughput falls below its running maximum.

    Healthy closed-system throughput is nondecreasing in load; a drop
    beyond ``rel_tol`` of the best rate seen so far marks retrograde
    behavior past saturation.
    """
    findings: list[Finding] = []
    # the best rate seen before each point
    running = np.maximum.accumulate(series.x)[:-1]
    dropped = np.flatnonzero(series.x[1:] < (1.0 - rel_tol) * running) + 1
    for n, x, running_max in zip(series.n[dropped].tolist(), series.x[dropped].tolist(),
                                 running[dropped - 1].tolist()):
        drop = 1.0 - x / running_max if running_max > 0 else 0.0
        findings.append(Finding(
            detector=RETROGRADE_THROUGHPUT,
            severity=WARNING,
            message=(f"throughput at n={n} fell {drop:.1%} below the running maximum "
                     f"{running_max:g}/s; throughput decreasing as load grows marks "
                     f"retrograde behavior beyond saturation"),
            evidence={
                "x": x,
                "running_max": running_max,
                "drop_fraction": float(drop),
            },
            affected_points=(n,),
        ))
    return findings


# a y whose largest magnitude reaches _HUGE is fitted as y * _SHRINK, and a power
# of two scales exactly. Below it, with |x - x̄| <= 2**53 and fewer than 2**400
# points, no sum or product of the fit reaches 2**1024
_HUGE = 2.0 ** 500
_SHRINK = 2.0 ** -600


def _line_fits(x: np.ndarray, *ys: np.ndarray) -> list[tuple[float, float]]:
    """The least-squares line ``(slope, intercept)`` of each ``y`` over the
    loads ``x``, as Python floats, in closed form from two-pass centered
    sums: x̄ and ȳ first, then ``slope = Σ(x - x̄)(y - ȳ) / Σ(x - x̄)²`` and
    ``intercept = ȳ - slope·x̄``.

    ``x`` holds at least two distinct integers in 1..2**53, as a
    LoadSeries' n does: ``x - x[0]`` is then exact, which keeps x̄
    accurate near 2**53, and ``Σ(x - x̄)² > 0``. Every ``y`` goes through
    the same code, so a line fitted alone has the bits it has among
    others. A ``y`` that reaches ``_HUGE`` is fitted at a power-of-two
    scale, so no sum or product leaves float64 and nothing warns; a slope
    or intercept past float64 is ±inf. The sums are numpy's pairwise
    sums, not BLAS or LAPACK calls, so the bits do not depend on the BLAS
    build. tests/test_diagnostics.py bounds the error against the exact
    rational line."""
    x0 = x[0]
    xs = np.subtract(x, x0, dtype=np.float64)
    k = len(xs)
    shift = float(np.add.reduce(xs)) / k
    xc = xs - shift
    sxx = float(np.add.reduce(xc * xc))
    xbar = float(x0) + shift
    fits = []
    for y in ys:
        scale = 1.0
        if np.maximum.reduce(np.abs(y)) >= _HUGE:
            scale, y = _SHRINK, y * _SHRINK
        ybar = float(np.add.reduce(y)) / k
        slope = float(np.add.reduce(xc * (y - ybar))) / sxx
        fits.append((slope / scale, (ybar - slope * xbar) / scale))
    return fits


def detect_response_flattening(series: LoadSeries, knee: Bounds,
                               slope_fraction: float = DetectorConfig.slope_fraction, *,
                               fit: GrowthFit | None = None) -> Finding | None:
    """Flag a post-knee response curve that climbs far too slowly.

    Past the knee a lawful response curve rises with slope ~S_max per
    added user. A least-squares slope below ``slope_fraction`` of the
    bottleneck slope means the hockey-stick handle snapped: flattened
    response above saturation signals a throttled or broken harness,
    not good scalability.

    ``fit`` is what ``classify_growth`` returned for the same series and
    knee; its ``linear_slope``, when set, is this test's slope (the same
    fit on the same points), so the line is fitted once. A fit over
    another number of post-knee points is refused with ValueError; that
    count is the only check, so a fit of another series or knee with as
    many post-knee points is used as given.
    """
    post = post_knee(series, knee)
    ns = series.n[post]
    if fit is not None and fit.n_points != len(ns):
        raise ValueError(f"fit covers {fit.n_points} point(s) but {len(ns)} lie beyond the knee")
    if len(ns) < _MIN_LINE_POINTS:
        return None
    if fit is not None and fit.linear_slope is not None:
        slope = fit.linear_slope
    else:
        slope = _line_fits(ns, series.r[post])[0][0]
    expected = knee.s_max
    if slope >= slope_fraction * expected:
        return None
    return Finding(
        detector=RESPONSE_FLATTENING,
        severity=CRITICAL,
        message=(f"beyond the knee (~{knee.n_opt:.1f} users) response time climbs at "
                 f"{slope:.3g} s/user, far below the {expected:.3g} s/user the bottleneck "
                 f"dictates; a flattened post-saturation response curve is a signal that the "
                 f"measurements are wrong, not that the system scales well"),
        evidence={
            "observed_slope": slope,
            "bottleneck_slope": float(expected),
            "slope_ratio": float(slope / expected) if expected > 0 else 0.0,
            "n_opt_hat": float(knee.n_opt),
        },
        affected_points=tuple(ns.tolist()),
    )


def classify_growth(series: LoadSeries, knee: Bounds,
                    min_points: int = DetectorConfig.min_growth_points,
                    slope_fraction: float = DetectorConfig.slope_fraction) -> tuple[str, GrowthFit]:
    """Classify post-knee response growth: linear, exponential, sublinear.

    Fits r = a + b*n by ordinary least squares and r = c*exp(d*n) by
    least squares on log r, both in closed form by ``_line_fits``, then
    compares residual sums on the original scale so both families are
    scored on the same footing. "exponential" requires decisive
    evidence: residuals under half the linear fit's and a positive rate.
    A linear slope far below the bottleneck slope is "sublinear" (the
    flattening syndrome); anything else is the lawful "linear". A
    ``min_points`` under 2 is refused with ValueError.
    """
    if min_points < _MIN_LINE_POINTS:
        raise ValueError(f"min_points must be >= {_MIN_LINE_POINTS}, got {min_points!r}: "
                         "a line through fewer than two points is not determined")
    post = post_knee(series, knee)
    count = int(post.sum())
    if count < min_points:
        return "inconclusive", GrowthFit(
            n_points=count,
            note=f"only {count} point(s) beyond the knee; need {min_points}")

    ns = series.n[post]
    rs = series.r[post]
    ys = (rs, np.log(rs)) if (rs > 0).all() else (rs,)
    (b, a), *log_fit = _line_fits(ns, *ys)
    # a huge finite r squares to inf in either residual sum
    with np.errstate(over="ignore", invalid="ignore"):
        linear_ss = float(((a + b * ns - rs) ** 2).sum())
        if log_fit:
            d, log_c = log_fit[0]
            residual = float(((np.exp(log_c + d * ns) - rs) ** 2).sum())

    exp_rate = exp_ss = None
    note = ""
    if not log_fit:
        note = "nonpositive response times; exponential fit skipped"
    elif math.isfinite(residual):
        exp_rate, exp_ss = d, residual
    else:
        note = "exponential fit overflowed; treated as non-exponential"

    fit = GrowthFit(n_points=count, linear_slope=b, linear_ss=linear_ss,
                    exp_rate=exp_rate, exp_ss=exp_ss, note=note)
    if exp_ss is not None and exp_rate is not None and exp_ss < 0.5 * linear_ss and exp_rate > 0:
        return "exponential", fit
    if b < slope_fraction * knee.s_max:
        return "sublinear", fit
    return "linear", fit
