import csv
import io

import numpy as np
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

from loadlaw import ingest

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


# (input, exact message, line) for every way a series row is refused, as
# the csv.reader-based parser worded them
SERIES_ERRORS = {
    "too-few-columns": ("n,x,r\n1,2,0.1\n2,3\n", "line 3: expected at least 3 columns, got 2", 3),
    "malformed-cell": ("n,x,r\n1,2,0.1\n2,oops,0.2\n", "line 3: malformed row: '2,oops,0.2'", 3),
    "malformed-n": ("n,x,r\n1.5,2,0.1\n", "line 2: malformed row: '1.5,2,0.1'", 2),
    "duplicate-n": ("n,x,r\n5,1,0.1\n5,2,0.1\n", "line 3: duplicate load point n=5", 3),
    "decreasing-n": ("n,x,r\n5,1,0.1\n2,2,0.1\n",
                     "line 3: load points must be strictly increasing in n (n=2 after n=5)", 3),
    "zero-n": ("n,x,r\n0,1,0.1\n", "line 2: n must be >= 1, got 0", 2),
    "negative-x": ("n,x,r\n1,-3,0.1\n", "line 2: x must be finite and >= 0, got -3.0", 2),
    "nan-r": ("n,x,r\n1,2,nan\n", "line 2: r must be finite and >= 0, got nan", 2),
    "inf-r": ("n,x,r_ms\n1,2,inf\n", "line 2: r must be finite and >= 0, got inf", 2),
    "quoted-comma": ('n,x,r\n1,"2,5",0.1\n', "line 2: malformed row: '1,2,5,0.1'", 2),
    "comment-and-blank-lines": ("# c\n\nn,x,r\n  # indented\n\n1,2,x\n",
                                "line 6: malformed row: '1,2,x'", 6),
    "crlf": ("n,x,r\r\n1,2,0.1\r\n3,1,bad\r\n", "line 3: malformed row: '3,1,bad'", 3),
    "bom": (b"\xef\xbb\xbfn,x,r\n1,-2,0.1\n", "line 2: x must be finite and >= 0, got -2.0", 2),
    "order-before-width": ("n,x,r\n2,1,0.1\n1,1,0.1\n3\n",
                           "line 3: load points must be strictly increasing in n (n=1 after n=2)", 3),
    "nul-in-cell": ("n,x,r\n1,2\x00,0.1\n", "line 2: malformed row: '1,2\\x00,0.1'", 2),
    "spaced-cells": ("n , x , r\n 1 , 2 , 0.1 \n 1 , 3 , 0.2\n", "line 3: duplicate load point n=1", 3),
    "missing-column": ("n,r\n1,2\n", "line 1: missing required column 'x'", 1),
    "empty": ("", "empty file: expected a header row", None),
    "header-only": ("n,x,r\n", "no data rows", None),
}


@pytest.mark.parametrize("name", sorted(SERIES_ERRORS))
def test_parse_errors_keep_message_and_line(name):
    raw, message, line = SERIES_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse_series(raw)
    assert (str(exc.value), exc.value.line) == (message, line)


def test_n_beyond_float_precision_is_refused():
    with pytest.raises(ParseError, match=r"line 2: n must be <= 2\*\*53"):
        parse_series(f"n,x,r\n{2 ** 53 + 1},1,0.1\n")
    assert parse_series(f"n,x,r\n{2 ** 53},1,0.1\n").ns == (2 ** 53,)


@pytest.mark.parametrize("raw, points", [
    ('n,x,r\n1,"2.5",0.1\n', ((1, 2.5, 0.1),)),
    ('n,x,r\n1,2,"0.1\n', ((1, 2.0, 0.1),)),  # csv.reader closes an unterminated quote
    ("n,x,r\n1,2\x1f,0.1\n", ((1, 2.0, 0.1),)),  # str.strip drops the unit separator
    ("n,x,r_ms\n1,2,1e308\n", ((1, 2.0, 1e305),)),
])
def test_parse_series_equals_series_built_from_points(raw, points):
    expected = LoadSeries(points=tuple(LoadPoint(*p) for p in points))
    assert parse_series(raw) == expected
    assert parse_series(raw).points == expected.points


def test_points_is_a_view_that_builds_nothing_to_count(monkeypatch):
    series = parse_series("n,x,r\n" + "".join(f"{n},{n},0.5\n" for n in range(1, 2001)))

    def refuse(*args):
        raise AssertionError("LoadPoint built")

    monkeypatch.setattr(ingest, "LoadPoint", refuse)
    assert len(series.points) == 2000
    assert series.points  # truth goes through len
    monkeypatch.undo()
    assert series.points[-1] == LoadPoint(2000, 2000.0, 0.5)
    assert list(series.points)[:2] == [LoadPoint(1, 1.0, 0.5), LoadPoint(2, 2.0, 0.5)]
    assert series.ns[:3] == (1, 2, 3) and type(series.ns[0]) is int


class TestFromArrays:
    def test_equals_points_constructor(self):
        series = LoadSeries.from_arrays([1, 5, 10], [24.0, 48.0, 99.0], [0.04, 0.102, 0.1],
                                        configured_think_time=10, source_label="s")
        assert series == LoadSeries(points=(LoadPoint(1, 24.0, 0.04), LoadPoint(5, 48.0, 0.102),
                                            LoadPoint(10, 99.0, 0.1)),
                                    configured_think_time=10.0, source_label="s")

    @pytest.mark.parametrize("n, x, r, message", [
        ([1, 0], [1.0, 1.0], [1.0, 1.0], "n must be >= 1, got 0"),
        ([1, 2], [1.0, -1.0], [1.0, 1.0], "x must be finite and >= 0, got -1.0"),
        ([1, 2], [1.0, 1.0], [np.inf, 1.0], "r must be finite and >= 0, got inf"),
        ([1, 1], [1.0, 1.0], [1.0, 1.0], "duplicate load point n=1"),
        ([2, 1], [1.0, 1.0], [1.0, 1.0], "strictly increasing"),
        ([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], "integers"),
        ([], [], [], "at least one point"),
    ])
    def test_refuses_what_load_points_refuse(self, n, x, r, message):
        with pytest.raises(ValueError, match=message):
            LoadSeries.from_arrays(n, x, r)

    def test_columns_are_read_only_copies(self):
        x = np.array([1.0, 2.0])
        series = LoadSeries.from_arrays(np.array([1, 2]), x, [0.5, 0.5])
        x[0] = 9.0
        assert series.x[0] == 1.0
        with pytest.raises(ValueError):
            series.x[0] = 3.0


# lines as load-test exports write them: cells, separators, quotes, blanks
_line_chars = st.sampled_from(list('0123456789.,-e "#\t\x00\x1fabé'))


@given(st.lists(st.text(_line_chars, max_size=12), max_size=8))
def test_row_reader_matches_csv_reader(lines):
    """str.split(',') stands in for csv.reader on lines without quotes."""
    text = "\n".join(lines)
    expected = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip() and not line.strip().startswith("#"):
            expected.append((lineno, [c.strip() for c in next(csv.reader([line]))]))
    assert [(lineno, [c.strip() for c in cells])
            for lineno, cells in ingest._rows(text)] == expected


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

    # (input, samples or (exact message, line)) as the csv.reader-based parser had them
    OUTCOMES = {
        "quoted-cells": ('t,x_inst\n"0",1\n1," 2 "\n', ((0.0, 1.0), (1.0, 2.0))),
        "crlf-comment": ("# c\r\nt,x_inst\r\n0,1\r\n\r\n1,2\r\n", ((0.0, 1.0), (1.0, 2.0))),
        "repeated-t": ("t,x_inst\n0,1\n0,2\n", ("line 3: timestamps must be strictly increasing (t=0.0)", 3)),
        "negative-x": ("t,x_inst\n0,1\n1,-2\n", ("line 3: sample must be finite with x_inst >= 0: '1,-2'", 3)),
        "nan-x": ("t,x_inst\n0,1\n1,nan\n", ("line 3: sample must be finite with x_inst >= 0: '1,nan'", 3)),
        "inf-t": ("t,x_inst\n0,1\ninf,2\n", ("line 3: sample must be finite with x_inst >= 0: 'inf,2'", 3)),
        "nan-first-t": ("t,x_inst\nnan,1\n1,1\n", ("line 2: sample must be finite with x_inst >= 0: 'nan,1'", 2)),
        "too-few-columns": ("t,x_inst\n0\n", ("line 2: expected at least 2 columns, got 1", 2)),
        "malformed": ("t,x_inst\n0,a\n", ("line 2: malformed row: '0,a'", 2)),
        "quoted-comma": ('t,x_inst\n"0",1\n1,"2,0"\n', ("line 3: malformed row: '1,2,0'", 3)),
        "header-only": ("t,x_inst\n", ("no data rows", None)),
        "empty": ("", ("empty file: expected a header row", None)),
    }

    @pytest.mark.parametrize("name", sorted(OUTCOMES))
    def test_accepts_and_refuses_as_before(self, name):
        raw, expected = self.OUTCOMES[name]
        if isinstance(expected[0], str):
            with pytest.raises(ParseError) as exc:
                parse_trace(raw)
            assert (str(exc.value), exc.value.line) == expected
        else:
            assert parse_trace(raw).samples == expected


UTF8_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("parse, raw", [
    (parse_series, b"n,x,r\n10,99,0.1\n20,150,0.13\n"),
    (parse_trace, b"t,x_inst\n0,10\n1,12\n"),
    (parse_profile, b'{"stages":[{"label":"a","service_time":1}],"think_time":0,"time_unit":"s"}'),
], ids=["series", "trace", "profile"])
@pytest.mark.parametrize("wrap", [bytes, io.BytesIO, lambda raw: raw.decode("utf-8")],
                         ids=["bytes", "binary-file", "str"])
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
