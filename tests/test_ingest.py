import io

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from loadlaw import (
    InsufficientSteadyStateError,
    LoadPoint,
    LoadSeries,
    ParseError,
    SeriesFormat,
    ThroughputTrace,
    parse_profile,
    parse_series,
    parse_trace,
    serialize_series,
    steady_state_average,
)

from .conftest import load_series


class TestLoadPointValidation:
    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            LoadPoint(n=0, x=1.0, r=1.0)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            LoadPoint(n=1, x=-1.0, r=1.0)

    def test_rejects_nan_r(self):
        with pytest.raises(ValueError):
            LoadPoint(n=1, x=1.0, r=float("nan"))


class TestLoadSeriesValidation:
    def test_rejects_duplicate_n(self):
        pts = (LoadPoint(5, 1.0, 1.0), LoadPoint(5, 2.0, 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            LoadSeries(points=pts)

    def test_rejects_unsorted(self):
        pts = (LoadPoint(5, 1.0, 1.0), LoadPoint(2, 2.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            LoadSeries(points=pts)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LoadSeries(points=())


class TestParseSeries:
    def test_r_ms_header_converts(self):
        s = parse_series(b"n,x,r_ms\n1,24,40\n5,48,102\n")
        assert s.points[0] == LoadPoint(1, 24.0, 0.040)
        assert s.points[1] == LoadPoint(5, 48.0, 0.102)

    def test_bare_r_defaults_to_seconds(self):
        s = parse_series("n,x,r\n10,99,0.1\n")
        assert s.points == (LoadPoint(10, 99.0, 0.1),)

    def test_bare_r_with_ms_descriptor(self):
        s = parse_series("n,x,r\n10,99,100\n", SeriesFormat(r_unit="ms"))
        assert s.points[0].r == pytest.approx(0.1)

    def test_suffixed_header_wins_over_descriptor(self):
        s = parse_series("n,x,r_s\n10,99,0.1\n", SeriesFormat(r_unit="ms"))
        assert s.points[0].r == 0.1

    def test_duplicate_n_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse_series("n,x,r\n5,1,0.1\n5,2,0.1\n")

    def test_non_monotone_rejected(self):
        with pytest.raises(ParseError, match="increasing"):
            parse_series("n,x,r\n5,1,0.1\n2,2,0.1\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_series("n,x,r\n1,2,0.1\n2,oops,0.2\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_series("")

    def test_header_only(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse_series("n,x,r\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_series("# a comment\n\nn,x,r\n# another\n1,2,0.5\n")
        assert s.points == (LoadPoint(1, 2.0, 0.5),)

    def test_missing_column(self):
        with pytest.raises(ParseError, match="response-time column"):
            parse_series("n,x\n1,2\n")

    def test_ambiguous_r_columns(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_series("n,x,r_s,r_ms\n1,2,0.5,500\n")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unknown response-time unit"):
            SeriesFormat(r_unit="minutes")

    def test_negative_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_series("n,x,r\n1,-3,0.1\n")

    def test_extra_columns_ignored(self):
        s = parse_series("n,x,r,errors\n1,2,0.5,99\n")
        assert s.points[0].x == 2.0

    def test_think_time_and_label_attached(self):
        s = parse_series("n,x,r\n1,2,0.5\n", configured_think_time=10.0, source_label="run1")
        assert s.configured_think_time == 10.0
        assert s.source_label == "run1"


@given(load_series())
def test_serialize_parse_round_trip(series):
    back = parse_series(serialize_series(series),
                        configured_think_time=series.configured_think_time,
                        source_label=series.source_label)
    assert back == series


class TestParseProfile:
    def test_ms_unit_converts_everything(self):
        raw = (b'{"stages":[{"label":"a","service_time":3.5},'
               b'{"label":"b","service_time":5.0},{"label":"c","service_time":2.0}],'
               b'"think_time":10000,"time_unit":"ms"}')
        p = parse_profile(raw)
        assert p.s_max == pytest.approx(0.005, rel=1e-12)
        assert p.think_time == pytest.approx(10.0, rel=1e-12)
        assert p.bottleneck_label == "b"

    def test_empty_stages_rejected(self):
        with pytest.raises(ParseError, match="stages"):
            parse_profile('{"stages":[],"think_time":0,"time_unit":"s"}')

    def test_nonpositive_service_time_rejected(self):
        with pytest.raises(ParseError, match="service_time"):
            parse_profile('{"stages":[{"label":"a","service_time":-1}],"think_time":0,"time_unit":"s"}')

    def test_missing_unit_rejected(self):
        with pytest.raises(ParseError, match="time_unit"):
            parse_profile('{"stages":[{"label":"a","service_time":1}],"think_time":0}')

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_profile("{nope")

    def test_negative_think_time_rejected(self):
        with pytest.raises(ParseError, match="think_time"):
            parse_profile('{"stages":[{"label":"a","service_time":1}],"think_time":-2,"time_unit":"s"}')


class TestParseTrace:
    def test_basic(self):
        t = parse_trace("t,x_inst\n0,10\n1,12\n2,11\n")
        assert t.samples == ((0.0, 10.0), (1.0, 12.0), (2.0, 11.0))

    def test_non_increasing_time_rejected(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_trace("t,x_inst\n0,10\n0,12\n")

    def test_missing_column(self):
        with pytest.raises(ParseError, match="x_inst"):
            parse_trace("t,x\n0,10\n")


UTF8_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("parse, raw", [
    (parse_series, b"n,x,r\n10,99,0.1\n20,150,0.13\n"),
    (parse_trace, b"t,x_inst\n0,10\n1,12\n"),
    (parse_profile, b'{"stages":[{"label":"a","service_time":1}],"think_time":0,"time_unit":"s"}'),
], ids=["series", "trace", "profile"])
@pytest.mark.parametrize("wrap", [bytes, io.BytesIO], ids=["bytes", "binary-file"])
def test_leading_utf8_bom_is_ignored(parse, raw, wrap):
    """Excel and PowerShell exports start with a byte-order mark."""
    assert parse(wrap(UTF8_BOM + raw)) == parse(raw)


class TestSteadyStateAverage:
    def test_constant_trace(self):
        trace = ThroughputTrace(tuple((float(t), 200.0) for t in range(0, 101)))
        x_bar, window = steady_state_average(trace, warmup_fraction=0.25)
        assert x_bar == pytest.approx(200.0, rel=1e-12)
        assert window == (25.0, 100.0)

    def test_ramp_then_plateau(self):
        samples = tuple((float(t), 2.0 * t if t < 50 else 100.0) for t in range(0, 101))
        x_bar, window = steady_state_average(ThroughputTrace(samples), warmup_fraction=0.5)
        assert x_bar == pytest.approx(100.0, rel=1e-12)
        assert window[0] == 50.0

    def test_everything_in_warmup(self):
        trace = ThroughputTrace(((0.0, 1.0), (10.0, 2.0)))
        with pytest.raises(InsufficientSteadyStateError):
            steady_state_average(trace, warmup_fraction=0.9)

    def test_rejects_bad_fraction(self):
        trace = ThroughputTrace(((0.0, 1.0), (1.0, 1.0)))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                steady_state_average(trace, warmup_fraction=bad)

    def test_uneven_sampling_time_weighted(self):
        # 10 for one second, then 0 for nine: time-weighted mean is (integral 55)/10
        trace = ThroughputTrace(((0.0, 10.0), (1.0, 10.0), (10.0, 0.0)))
        x_bar, _ = steady_state_average(trace, warmup_fraction=0.0)
        assert x_bar == pytest.approx((10.0 + 45.0) / 10.0)


@given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=0.9),
       st.integers(min_value=3, max_value=50))
def test_constant_trace_average_is_the_constant(level, frac, count):
    trace = ThroughputTrace(tuple((float(t), level) for t in range(count)))
    try:
        x_bar, _ = steady_state_average(trace, warmup_fraction=frac)
    except InsufficientSteadyStateError:
        reject()  # cut left fewer than two samples; not this property's concern
    assert x_bar == pytest.approx(level, rel=1e-12, abs=1e-12)


# fractions chosen so the warm-up cut never lands within float rounding of a
# sample instant, where inclusion could legitimately flip under a shift
@given(st.floats(min_value=-1e6, max_value=1e6),
       st.sampled_from([0.0, 0.1, 0.25, 0.33, 0.5, 0.75]))
def test_average_invariant_under_time_shift(shift, frac):
    base = [(float(t), 5.0 + (t % 7)) for t in range(0, 40)]
    trace = ThroughputTrace(tuple(base))
    shifted = ThroughputTrace(tuple((t + shift, x) for t, x in base))
    x0, _ = steady_state_average(trace, warmup_fraction=frac)
    x1, _ = steady_state_average(shifted, warmup_fraction=frac)
    assert x1 == pytest.approx(x0, rel=1e-9)
