import csv
import importlib.util
import io
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from loadlaw import (
    InsufficientSteadyStateError,
    LoadPoint,
    LoadSeries,
    ParseError,
    ServiceProfile,
    Stage,
    ThroughputTrace,
    parse_profile,
    parse_series,
    parse_trace,
    serialize_series,
    steady_state_average,
)

from loadlaw import audit_series, ingest
from loadlaw.report import _json_float

from .conftest import CSV_PROBES, PROFILE_PROBES, gen0_collections, load_series

ROOT = pathlib.Path(__file__).resolve().parent.parent


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

    # an n too long for str() is worded by its length, as the CSV path words it
    @pytest.mark.parametrize("n, x, message", [
        (10 ** 5000, 1.0, "n must be <= 2**53, got an integer of more than 4300 digits"),
        (-10 ** 5000, 1.0, "n must be >= 1, got an integer of more than 4300 digits"),
        (10 ** 30, 1.0, f"n must be <= 2**53, got {10 ** 30}"),
        (1.0, 1.0, "n must be an integer, got 1.0"),
        (True, 1.0, "n must be an integer, got True"),
        (1, "2", "x must be a number, got '2'"),
        (1, None, "x must be a number, got None"),
    ], ids=["n-too-long-to-print", "negative-n-too-long-to-print", "n-beyond-2**53",
            "float-n", "bool-n", "str-x", "none-x"])
    def test_refusal_messages(self, n, x, message):
        with pytest.raises(ValueError) as exc:
            LoadPoint(n, x, 0.1)
        assert str(exc.value) == message


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
        s = parse_series("n,x,r\n10,99,100\n", r_unit="ms")
        assert s.points[0].r == pytest.approx(0.1)

    def test_suffixed_header_wins_over_descriptor(self):
        s = parse_series("n,x,r_s\n10,99,0.1\n", r_unit="ms")
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
            parse_series("n,x,r\n10,99,100\n", r_unit="minutes")

    def test_negative_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_series("n,x,r\n1,-3,0.1\n")

    def test_extra_columns_ignored(self):
        s = parse_series("n,x,r,errors\n1,2,0.5,99\n")
        assert s.points[0].x == 2.0

    def test_think_time_attached(self):
        s = parse_series("n,x,r\n1,2,0.5\n", configured_think_time=10.0)
        assert s.configured_think_time == 10.0

    # a parser builds the rows before a malformed one; a bad think time is named
    # first whether the row fault is in a value, the order or a cell
    @pytest.mark.parametrize("text", ["n,x,r\n1,1,1\n2,-1,1\n", "n,x,r\n2,1,1\n1,1,1\n",
                                      "n,x,r\n1,1,1\n2,oops,1\n"], ids=["value", "order", "cell"])
    def test_a_bad_think_time_is_named_before_a_bad_row(self, text):
        with pytest.raises(ValueError) as exc:
            parse_series(text, configured_think_time=-1)
        assert str(exc.value) == "configured_think_time must be finite and >= 0, got -1"


# (input, exact message, line) for every way a series row is refused, as
# the csv.reader-based parser worded them; it read "1_000" as 1000, and
# refused an n too long for int() as a malformed row that echoed every digit
_LONG = "9" * 5000
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
    "overflowing-run": ("n,x,r\n1,2,0.1\n2,1e300,1e10\n",
                        "line 3: x * r must be finite, got 1e+300 * 10000000000.0", 3),
    "overflowing-run-in-ms": ("n,x,r_ms\n1,1e306,1e6\n", "line 2: x * r must be finite, got 1e+306 * 1000.0", 2),
    "order-before-overflow": ("n,x,r\n2,1,0.1\n1,1e300,1e10\n",
                              "line 3: load points must be strictly increasing in n (n=1 after n=2)", 3),
    "overflow-before-later-fault": ("n,x,r\n1,1e300,1e10\n2,-1,0.1\n3\n",
                                    "line 2: x * r must be finite, got 1e+300 * 10000000000.0", 2),
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
    "underscore-n": ("n,x,r\n1,1,0.1\n1_000,1,0.1\n", "line 3: malformed row: '1_000,1,0.1'", 3),
    "underscore-x": ("n,x,r\n1,1_0.5,0.1\n", "line 2: malformed row: '1,1_0.5,0.1'", 2),
    "underscore-r_ms": ("n,x,r_ms\n1,1,1_0\n", "line 2: malformed row: '1,1,1_0'", 2),
    "underscore-quoted": ('n,x,r\n1,"1_0",0.1\n', "line 2: malformed row: '1,1_0,0.1'", 2),
    "n-too-long-for-int": (f"n,x,r\n1,1,0.1\n{_LONG},1,0.1\n",
                           "line 3: n must be <= 2**53, got an integer of more than 4300 digits", 3),
    "signed-n-too-long-for-int": (f"n,x,r\n+{_LONG},1,0.1\n",
                                  "line 2: n must be <= 2**53, got an integer of more than 4300 digits", 2),
    "negative-n-too-long-for-int": (f"n,x,r\n-{_LONG},1,0.1\n",
                                    "line 2: n must be >= 1, got an integer of more than 4300 digits", 2),
    # the echo of a long row stops after 80 characters and gives the row's length
    "malformed-long-row": (f"n,x,r\n{_LONG}.5,1,0.1\n",
                           f"line 2: malformed row: '{_LONG[:80]}'... (5008 characters)", 2),
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
    assert parse_series(f"n,x,r\n{2 ** 53},1,0.1\n").n.tolist() == [2 ** 53]


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
    assert series.n.tolist()[:3] == [1, 2, 3] and type(series.n.tolist()[0]) is int


class TestFromArrays:
    def test_equals_points_constructor(self):
        series = LoadSeries.from_arrays([1, 5, 10], [24.0, 48.0, 99.0], [0.04, 0.102, 0.1],
                                        configured_think_time=10)
        assert series == LoadSeries(points=(LoadPoint(1, 24.0, 0.04), LoadPoint(5, 48.0, 0.102),
                                            LoadPoint(10, 99.0, 0.1)),
                                    configured_think_time=10.0)

    @pytest.mark.parametrize("n, x, r, message", [
        ([1, 0], [1.0, 1.0], [1.0, 1.0], "n must be >= 1, got 0"),
        ([1, 2], [1.0, -1.0], [1.0, 1.0], "x must be finite and >= 0, got -1.0"),
        ([1, 2], [1.0, 1.0], [np.inf, 1.0], "r must be finite and >= 0, got inf"),
        ([1, 1], [1.0, 1.0], [1.0, 1.0], "duplicate load point n=1"),
        ([2, 1], [1.0, 1.0], [1.0, 1.0], "strictly increasing"),
        ([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], "integers"),
        ([], [], [], "at least one point"),
        ([1, 2], [1.0, 1e300], [1.0, 1e10], "x * r must be finite, got 1e+300 * 10000000000.0"),
    ])
    def test_refuses_what_load_points_refuse(self, n, x, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LoadSeries.from_arrays(n, x, r)

    # the audit would write this row's n_run and n_idle as infinities
    def test_points_refuse_an_overflowing_run_as_from_arrays_does(self):
        with pytest.raises(ValueError) as exc:
            LoadSeries(points=map(LoadPoint, [1, 2], [1.0, 1e300], [1.0, 1e10]))
        assert str(exc.value) == "x * r must be finite, got 1e+300 * 10000000000.0"

    @pytest.mark.parametrize("n, x, r, z, message", [
        ([1, 2], [1.0], [1.0, 1.0], None,
         "n, x and r must be 1-d and of one length, got shapes (2,), (1,), (2,)"),
        ([[1]], [[1.0]], [[1.0]], None,
         "n, x and r must be 1-d and of one length, got shapes (1, 1), (1, 1), (1, 1)"),
        ([1], [1.0], [1.0], -1, "configured_think_time must be finite and >= 0, got -1"),
        ([1], [1.0], [1.0], math.nan, "configured_think_time must be finite and >= 0, got nan"),
        ([1], [1.0], [1.0], True, "configured_think_time must be finite and >= 0, got True"),
        ([1], [1.0], [1.0], "10", "configured_think_time must be finite and >= 0, got '10'"),
        # too long for str(): worded by its length
        ([1], [1.0], [1.0], 10 ** 5000, "configured_think_time must be finite and >= 0, "
                                        f"got an integer of more than {sys.get_int_max_str_digits()} digits"),
    ], ids=["mismatched-lengths", "two-d", "negative-z", "nan-z", "bool-z", "str-z", "huge-int-z"])
    def test_refuses_bad_shapes_and_think_times(self, n, x, r, z, message):
        with pytest.raises(ValueError) as exc:
            LoadSeries.from_arrays(n, x, r, configured_think_time=z)
        assert str(exc.value) == message

    # numpy reads an n past int64 into a uint64 or object column, and one
    # beside an int64 n into a float64 column: each is still refused on its row
    @pytest.mark.parametrize("n, x, message", [
        ([2 ** 63], [1.0], "n must be <= 2**53, got 9223372036854775808"),
        ([2 ** 64], [1.0], "n must be <= 2**53, got 18446744073709551616"),
        ([-2 ** 63 - 1], [1.0], "n must be >= 1, got -9223372036854775809"),
        ([1, 2 ** 63], [1.0, 1.0], "n must be <= 2**53, got 9223372036854775808"),
        (np.array([1, 2 ** 63], dtype=np.uint64), [1.0, 1.0], "n must be <= 2**53, got 9223372036854775808"),
        ([10 ** 5000], [1.0], "n must be <= 2**53, got an integer of more than 4300 digits"),
        ([1, -10 ** 5000], [1.0, 1.0], "n must be >= 1, got an integer of more than 4300 digits"),
        # the first bad row, in row order, is the one named
        ([3, 2, 2 ** 64], [1.0, 1.0, 1.0], "load points must be strictly increasing in n (n=2 after n=3)"),
        ([1, 2, 2 ** 64], [1.0, -1.0, 1.0], "x must be finite and >= 0, got -1.0"),
        ([1, 2 ** 64, 3], [1.0, 1.0, -1.0], "n must be <= 2**53, got 18446744073709551616"),
        ([2 ** 64, 1.5], [1.0, 1.0], "n must hold integers, got dtype object"),
    ], ids=["2**63", "2**64", "below-int64", "beside-int64", "uint64", "too-long-to-print",
            "negative-too-long-to-print", "order-first", "x-first", "n-first", "float-beside"])
    def test_an_n_past_int64_is_refused_as_load_points_refuse_it(self, n, x, message):
        with pytest.raises(ValueError) as exc:
            LoadSeries.from_arrays(n, x, [1.0] * len(x))
        assert str(exc.value) == message

    def test_negative_zero_series_equal_and_hash_alike(self):
        # -0 passes the x >= 0 check; its bytes differ from 0's, its value does not
        minus, plus = parse_series("n,x,r\n1,-0,0\n"), parse_series("n,x,r\n1,0,0\n")
        assert minus.x.tobytes() != plus.x.tobytes()
        assert minus == plus and hash(minus) == hash(plus)

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
            for lineno, cells in ingest._rows(text.splitlines())] == expected


def reference_serialize_series(series):
    """serialize_series as it was before it wrote by columns: one repr per value."""
    lines = ["n,x,r"]
    for n, x, r in zip(series.n.tolist(), series.x.tolist(), series.r.tolist()):
        lines.append(f"{n},{x!r},{r!r}")
    return "\n".join(lines) + "\n"


@given(load_series())
def test_serialize_parse_round_trip(series):
    text = serialize_series(series)
    assert text == reference_serialize_series(series)
    back = parse_series(text, configured_think_time=series.configured_think_time)
    assert back == series


# values repr writes in exponent form (below 1e-4 or from 1e16 up) among ones it does not
EXPONENT_FORM_SERIES = LoadSeries.from_arrays(
    [1, 2, 3, 4, 5, 6], [1e16, 0.0, 5e-5, 2.5e20, 1e-4, 9999999999999998.0],
    [5e-5, 5e-324, 0.0, 1e-4, 1e16, 3.0e-7])


def test_serialize_series_writes_exponent_forms_as_repr_does():
    text = serialize_series(EXPONENT_FORM_SERIES)
    assert text == reference_serialize_series(EXPONENT_FORM_SERIES)
    assert text.splitlines()[1:4] == ["1,1e+16,5e-05", "2,0.0,5e-324", "3,5e-05,0.0"]
    assert parse_series(text) == EXPONENT_FORM_SERIES


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

    STAGE = '{"label":"a","service_time":1}'
    REFUSALS = {
        "not-an-object": ("[1, 2]", "profile must be a JSON object"),
        "missing-think-time": (f'{{"stages":[{STAGE}],"time_unit":"s"}}',
                               "profile is missing 'think_time'"),
        "string-think-time": (f'{{"stages":[{STAGE}],"think_time":"10","time_unit":"s"}}',
                              "think_time must be a number, got '10'"),
        "bool-think-time": (f'{{"stages":[{STAGE}],"think_time":true,"time_unit":"s"}}',
                            "think_time must be a number, got True"),
        "stage-not-an-object": (f'{{"stages":[{STAGE},5],"think_time":0,"time_unit":"s"}}',
                                "stage #2 must be an object with 'label' and 'service_time'"),
        "stage-without-label": ('{"stages":[{"service_time":1}],"think_time":0,"time_unit":"s"}',
                                "stage #1 must be an object with 'label' and 'service_time'"),
        "string-service-time": ('{"stages":[{"label":"a","service_time":"1"}],"think_time":0,"time_unit":"s"}',
                                "stage #1: service_time must be a number, got '1'"),
    }

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_messages(self, name):
        raw, message = self.REFUSALS[name]
        with pytest.raises(ParseError) as exc:
            parse_profile(raw)
        assert (str(exc.value), exc.value.line) == (message, None)


@pytest.mark.parametrize("name", sorted(PROFILE_PROBES))
def test_profile_crash_probes_are_parse_errors(name):
    raw, message = PROFILE_PROBES[name]
    with pytest.raises(ParseError) as exc:
        parse_profile(raw)
    assert str(exc.value).startswith(message) and exc.value.line is None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300)
@given(place=st.sampled_from(["think_time", "time_unit", "stages", "label", "service_time", "document"]),
       value=_JSON_VALUES)
def test_any_json_value_anywhere_in_a_profile_is_read_or_refused(place, value):
    stage = {"label": "a", "service_time": 1}
    doc = {"stages": [stage], "think_time": 0, "time_unit": "s"}
    if place == "document":
        doc = value
    elif place in stage:
        stage[place] = value
    else:
        doc[place] = value
    try:
        profile = parse_profile(json.dumps(doc))
    except ParseError:
        return
    assert isinstance(profile, ServiceProfile)


# every way a scalar reaches a number check, each returning the value it keeps
_NUMBER_CHECKS = {
    "LoadPoint.x": lambda v: LoadPoint(1, v, 1.0).x,
    "LoadPoint.r": lambda v: LoadPoint(1, 1.0, v).r,
    "Stage": lambda v: Stage("a", v).service_time,
    "ServiceProfile.think_time": lambda v: ServiceProfile((Stage("a", 1.0),), think_time=v).think_time,
    "configured_think_time":
        lambda v: LoadSeries.from_arrays([1], [1.0], [1.0], configured_think_time=v).configured_think_time,
}


@settings(max_examples=300)
@given(check=st.sampled_from(sorted(_NUMBER_CHECKS)),
       value=st.one_of(st.integers(-10 ** 400, 10 ** 400), st.sampled_from([10 ** 400, -10 ** 400]),
                       st.just(2 ** 1024 - 1), st.floats(), st.booleans(), st.text(max_size=4), st.none()))
def test_every_scalar_is_read_or_refused_with_value_error(check, value):
    """Never OverflowError: an int past float64 reads as +-inf, which the finiteness check refuses."""
    try:
        kept = _NUMBER_CHECKS[check](value)
    except ValueError:
        return
    if value is None:  # no configured think time
        assert (check, kept) == ("configured_think_time", None)
    else:
        assert type(kept) is float and kept == float(value) and math.isfinite(kept)


@pytest.mark.parametrize("check, value, message", [
    ("LoadPoint.x", 10 ** 400, "x must be finite and >= 0, got inf"),
    ("LoadPoint.r", -10 ** 400, "r must be finite and >= 0, got -inf"),
    ("Stage", 2 ** 1024 - 1, "stage 'a' service_time must be finite, got inf"),
    ("ServiceProfile.think_time", -10 ** 400, "think_time must be finite, got -inf"),
    ("configured_think_time", 10 ** 400, f"configured_think_time must be finite and >= 0, got {10 ** 400}"),
], ids=["x", "r", "service-time", "think-time", "configured-think-time"])
def test_an_int_past_float64_gets_the_checks_own_message(check, value, message):
    with pytest.raises(ValueError) as exc:
        _NUMBER_CHECKS[check](value)
    assert str(exc.value) == message


_INF_SAMPLE = "trace sample (0.0, inf) must be finite with x_inst >= 0"


@pytest.mark.parametrize("build, message", [
    (lambda: LoadSeries.from_arrays([1], [10 ** 400], [1.0]), "x must be finite and >= 0, got inf"),
    (lambda: LoadSeries.from_arrays([1, 2], [1.0, 1.0], [1.0, -10 ** 400]), "r must be finite and >= 0, got -inf"),
    (lambda: ThroughputTrace([(0, 10 ** 400)]), _INF_SAMPLE),
    (lambda: ThroughputTrace.from_arrays([0], [10 ** 400]), _INF_SAMPLE),
    (lambda: ThroughputTrace.from_arrays((-10 ** 400, 0), np.array([1.0, 1.0])),
     "trace sample (-inf, 1.0) must be finite with x_inst >= 0"),
], ids=["series-x", "series-r", "trace-samples", "trace-x", "trace-t"])
def test_an_int_past_float64_in_a_column_gets_the_column_checks_message(build, message):
    """Read as +-inf, as a scalar is, never OverflowError."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda value: Stage(value, 1.0), "stage label must be a nonempty string"),
    (lambda value: Stage("a", value), "stage 'a' service_time must be a number"),
], ids=["label", "service-time"])
def test_a_refused_list_is_quoted_by_its_start_and_length(build, message):
    """As a refused text is (see PROFILE_PROBES): one huge value does not make a huge message."""
    value = [0] * 100_000
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value) == f"{message}, got {repr(value)[:80]}... ({len(repr(value))} characters)"


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

    # (input, samples or (exact message, line)) as the csv.reader-based parser
    # had them, except that it read "1_0" as 10
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
        "underscore-t": ("t,x_inst\n0,1\n1_0,1\n", ("line 3: malformed row: '1_0,1'", 3)),
        "underscore-x": ("t,x_inst\n0,1_0\n", ("line 2: malformed row: '0,1_0'", 2)),
        "long-inf-t": (f"t,x_inst\n0,1\n{_LONG},2\n",
                       (f"line 3: sample must be finite with x_inst >= 0: '{_LONG[:80]}'... (5002 characters)", 3)),
        "long-malformed": (f"t,x_inst\n0,1\n1,{_LONG}x\n",
                           (f"line 3: malformed row: '1,{_LONG[:78]}'... (5003 characters)", 3)),
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


@pytest.mark.parametrize("parse, header, name", [
    (parse_series, "n,x,r,x", "x"),
    (parse_series, "n,x,r,R", "r"),
    (parse_series, " N ,x,r_ms,n", "n"),
    (parse_series, "n,x,r_s,r_s", "r_s"),
    (parse_trace, "t,x_inst,t", "t"),
    (parse_trace, "t,x_inst,X_INST ", "x_inst"),
])
def test_a_repeated_read_column_is_refused_on_the_header_line(parse, header, name):
    # before, the last of the repeats was read: t,x_inst,t averaged the third column's times
    body = "".join(f"{i},{i + 1},{i + 2},{i + 3}\n" for i in range(1, 4))
    with pytest.raises(ParseError) as exc:
        parse(f"# export\n{header}\n{body}")
    assert (str(exc.value), exc.value.line) == (f"line 2: duplicate column {name!r}", 2)


@pytest.mark.parametrize("parse, header, name", [
    *[(parse_series, "n,x,r", name) for name in ("t", "x_inst")],
    *[(parse_trace, "t,x_inst", name) for name in ("n", "x", *ingest._R_COLUMN_UNITS)],
])
def test_a_name_only_the_other_parser_reads_may_repeat(parse, header, name):
    """Only a column the parser reads is refused when repeated: the repeat of
    one it does not read parses as the file without the repeat."""
    body = "".join(f"{i},{i + 1},{i + 2},{i + 3},{i + 4}\n" for i in range(1, 4))
    once = parse(f"# export\n{header},{name}\n{body}")
    assert parse(f"# export\n{header},{name},{name.upper()}\n{body}") == once


def test_a_repeated_unread_column_is_not_refused():
    series = parse_series("n,note,x,r,NOTE\n1,a,2,0.1,b\n2,c,3,0.2,d\n")
    assert (series.n.tolist(), series.x.tolist(), series.r.tolist()) == ([1, 2], [2.0, 3.0], [0.1, 0.2])
    trace = parse_trace("t,note,x_inst,note\n0,a,1,b\n1,c,2,d\n")
    assert (trace.t.tolist(), trace.x.tolist()) == ([0.0, 1.0], [1.0, 2.0])


class TestThroughputTrace:
    def test_columns_and_samples_view(self):
        trace = ThroughputTrace.from_arrays([0, 1, 2], [10, 12, 11])
        assert trace == ThroughputTrace(((0.0, 10.0), (1.0, 12.0), (2.0, 11.0)))
        assert trace.t.dtype == trace.x.dtype == np.float64
        assert trace.t.tolist() == [0.0, 1.0, 2.0] and trace.x.tolist() == [10.0, 12.0, 11.0]
        # sized and truthy through len, as row counters read it
        assert len(trace.samples) == 3 and trace.samples
        assert trace.samples[1] == (1.0, 12.0) and type(trace.samples[1][0]) is float
        assert list(trace.samples) == [(0.0, 10.0), (1.0, 12.0), (2.0, 11.0)]
        assert repr(trace) == "ThroughputTrace(samples=((0.0, 10.0), (1.0, 12.0), (2.0, 11.0)))"

    def test_columns_are_read_only_copies(self):
        t = np.array([0.0, 1.0])
        trace = ThroughputTrace.from_arrays(t, [1.0, 2.0])
        t[0] = -5.0
        assert trace.t[0] == 0.0
        with pytest.raises(ValueError):
            trace.x[0] = 3.0

    def test_negative_zero_traces_equal_and_hash_alike(self):
        minus, plus = parse_trace("t,x_inst\n0,-0\n1,0\n"), parse_trace("t,x_inst\n0,0\n1,0\n")
        assert minus.x.tobytes() != plus.x.tobytes()
        assert minus == plus and hash(minus) == hash(plus)

    @pytest.mark.parametrize("t, x, message", [
        ([], [], "at least one sample"),
        ([0.0, 1.0], [1.0, -1.0], r"trace sample \(1.0, -1.0\) must be finite with x_inst >= 0"),
        ([0.0, np.nan], [1.0, 1.0], r"trace sample \(nan, 1.0\) must be finite"),
        ([1.0, 0.0], [1.0, 1.0], "trace timestamps must be strictly increasing"),
        ([0.0, 0.0], [1.0, -1.0], "trace timestamps must be strictly increasing"),
        ([0.0, 1.0], [1.0], r"^t and x must be 1-d and of one length, got shapes \(2,\), \(1,\)$"),
    ])
    def test_refuses_bad_samples(self, t, x, message):
        with pytest.raises(ValueError, match=message):
            ThroughputTrace.from_arrays(t, x)
        if len(t) == len(x):
            with pytest.raises(ValueError, match=message):
                ThroughputTrace(tuple(zip(t, x)))


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


@pytest.mark.parametrize("parse", [parse_series, parse_trace, parse_profile],
                         ids=["series", "trace", "profile"])
@pytest.mark.parametrize("mode", ["rb", "r"])
def test_non_utf8_file_is_a_parse_error_in_either_mode(parse, mode, tmp_path):
    """A text-mode file decodes while it is read; that error is a ParseError too."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"n,x,r\n# caf\xe9\n1,2,0.1\n")
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
        with pytest.raises(ParseError) as exc:
            parse(fh)
    assert (str(exc.value), exc.value.line) == ("line 2: not UTF-8: byte 0xe9 at offset 11", 2)


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


# -- the row-by-row parsers and the averaging loop, kept as references ----------

def reference_parse_series(raw, r_unit="s"):
    """parse_series as a loop that checks each row as it reads it; returns (n, x, r) lists."""
    rows = ingest._rows(ingest._as_text(raw).splitlines())
    header_line, columns = ingest._header(rows, ("n", "x"))
    present = [name for name in ingest._R_COLUMN_UNITS if name in columns]
    if not present:
        raise ParseError("missing response-time column: expected one of r, r_s, r_ms",
                         line=header_line)
    if len(present) > 1:
        raise ParseError(f"ambiguous response-time columns {sorted(present)}", line=header_line)
    n_idx, x_idx, r_idx = columns["n"], columns["x"], columns[present[0]]
    divisor = ingest._UNIT_DIVISOR[ingest._R_COLUMN_UNITS[present[0]] or r_unit]
    width = max(n_idx, x_idx, r_idx)
    ns, xs, rs = [], [], []
    prev = 0
    for lineno, cells in rows:
        if len(cells) <= width:
            raise ParseError(f"expected at least {width + 1} columns, got {len(cells)}", line=lineno)
        texts = [cells[i].strip() for i in (n_idx, x_idx, r_idx)]
        try:
            if any("_" in text for text in texts):
                raise ValueError("digit separator")
            if re.fullmatch(r"[+-]?\d+", texts[0]) and len(texts[0].lstrip("+-")) > sys.get_int_max_str_digits():
                n = None  # past int(); its range error waits for x and r to convert
            else:
                n = int(texts[0])
            x = float(texts[1])
            r = float(texts[2]) / divisor
        except ValueError:
            raise ParseError(f"malformed row: {ingest._joined(cells)}", line=lineno) from None
        if n is None:
            bound = "n must be >= 1" if texts[0][0] == "-" else "n must be <= 2**53"
            raise ParseError(f"{bound}, got an integer of more than {sys.get_int_max_str_digits()} digits",
                             line=lineno)
        if not (1 <= n <= ingest.MAX_N and 0.0 <= x < math.inf and 0.0 <= r < math.inf):
            try:
                LoadPoint(n=n, x=x, r=r)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
        if n <= prev:
            raise ParseError(ingest._order_error(n, prev), line=lineno)
        if not math.isfinite(x * r):
            raise ParseError(f"x * r must be finite, got {x!r} * {r!r}", line=lineno)
        prev = n
        ns.append(n)
        xs.append(x)
        rs.append(r)
    if not ns:
        raise ParseError("no data rows")
    return ns, xs, rs


_LARGE = st.floats(min_value=0, max_value=1.7976931348623157e308)


def _refuse_constant(name):
    raise AssertionError(f"the report writes {name}, which strict JSON refuses")


@given(st.lists(st.tuples(_LARGE, _LARGE), min_size=1, max_size=6), st.sampled_from(["r", "r_s", "r_ms"]))
def test_parsed_series_audits_finite_or_is_refused(rows, r_name):
    # the audit's JSON is strict only if every n_run and n_idle is finite;
    # the same rows, built each way a series is built, are refused or audit so
    text = f"n,x,{r_name}\n" + "".join(f"{n},{x!r},{r!r}\n" for n, (x, r) in enumerate(rows, 1))
    divisor = 1000.0 if r_name == "r_ms" else 1.0
    n, x, r = range(1, len(rows) + 1), [x for x, _ in rows], [r / divisor for _, r in rows]
    for build, refusal in ((lambda: parse_series(text), ParseError),
                           (lambda: LoadSeries.from_arrays(n, x, r), ValueError),
                           (lambda: LoadSeries(points=map(LoadPoint, n, x, r)), ValueError)):
        try:
            series = build()
        except refusal as exc:
            assert refusal is not ParseError or exc.line is not None
            continue
        json.loads(audit_series(series).to_json(), parse_constant=_refuse_constant)


_ANY_FLOAT = st.floats() | st.sampled_from([1e300, 1e10, 1.7976931348623157e308, 5e-324, -0.0])


@given(st.lists(st.tuples(st.integers(-1, 6) | st.sampled_from([ingest.MAX_N, ingest.MAX_N + 1]),
                          _ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=6))
def test_from_arrays_refuses_as_parse_series_does(rows):
    """One validator: for the same columns, from_arrays raises parse_series'
    message without its ``line N: `` prefix, or both build equal series."""
    n, x, r = map(list, zip(*rows))
    text = "n,x,r\n" + "".join(f"{a},{b!r},{c!r}\n" for a, b, c in rows)
    try:
        parsed = parse_series(text)
    except ParseError as exc:
        with pytest.raises(ValueError) as built:
            LoadSeries.from_arrays(n, x, r)
        assert str(exc) == f"line {built.value.row + 2}: {built.value}"
        return
    assert LoadSeries.from_arrays(n, x, r) == parsed


def reference_parse_trace(raw):
    """parse_trace as a loop that checks each row as it reads it; returns (t, x) lists."""
    rows = ingest._rows(ingest._as_text(raw).splitlines())
    _, columns = ingest._header(rows, ("t", "x_inst"))
    t_idx, x_idx = columns["t"], columns["x_inst"]
    samples = []
    for lineno, cells in rows:
        if len(cells) <= max(t_idx, x_idx):
            raise ParseError(f"expected at least {max(t_idx, x_idx) + 1} columns, got {len(cells)}",
                             line=lineno)
        try:
            if "_" in cells[t_idx] + cells[x_idx]:
                raise ValueError("digit separator")
            t = float(cells[t_idx].strip())
            x = float(cells[x_idx].strip())
        except ValueError:
            raise ParseError(f"malformed row: {ingest._joined(cells)}", line=lineno) from None
        if samples and t <= samples[-1][0]:
            raise ParseError(f"timestamps must be strictly increasing (t={t!r})", line=lineno)
        if not (math.isfinite(t) and math.isfinite(x)) or x < 0:
            raise ParseError(f"sample must be finite with x_inst >= 0: {ingest._joined(cells)}",
                             line=lineno)
        samples.append((t, x))
    if not samples:
        raise ParseError("no data rows")
    return [t for t, _ in samples], [x for _, x in samples]


def reference_steady_state_average(samples, warmup_fraction):
    """steady_state_average as a loop over (t, x) pairs."""
    t_start, t_end = samples[0][0], samples[-1][0]
    cut = t_start + warmup_fraction * (t_end - t_start)
    kept = [(t, x) for t, x in samples if t >= cut]
    if len(kept) < 2:
        raise InsufficientSteadyStateError(
            f"only {len(kept)} sample(s) at or after the warm-up cut t={cut:g}; "
            "cannot form a steady-state average")
    area = 0.0
    for (t0, x0), (t1, x1) in zip(kept, kept[1:]):
        area += 0.5 * (x0 + x1) * (t1 - t0)
    span = kept[-1][0] - kept[0][0]
    if area == math.inf:  # span-weighted terms, the mean kept among the samples
        mean = 0.0
        for (t0, x0), (t1, x1) in zip(kept, kept[1:]):
            mean += (0.5 * x0 + 0.5 * x1) * ((t1 - t0) / span)
        return min(mean, max(x for _, x in kept)), (kept[0][0], kept[-1][0])
    return area / span, (kept[0][0], kept[-1][0])


def _outcome(parse, *args, **kwargs):
    """The columns a parse returns, floats as their bits, or its (message, line)."""
    try:
        result = parse(*args, **kwargs)
    except ParseError as exc:
        return str(exc), exc.line
    if isinstance(result, LoadSeries):
        result = result.n, result.x, result.r
    elif isinstance(result, ThroughputTrace):
        result = result.t, result.x
    n = [np.asarray(result[0], dtype=np.int64).tolist()] if len(result) == 3 else []
    return n + [np.asarray(c, dtype=np.float64).view(np.uint64).tolist() for c in result[-2:]]


# cells a sweep or trace export gets wrong, beside well-formed numbers
_BAD_CELLS = ["nan", "inf", "-inf", "-0.0", "-1", "0", "abc", "", " 7 ", "1.5", "2\x1f", "1_0",
              "1e308", str(2 ** 53 + 1), str(2 ** 63), str(10 ** 30), str(-10 ** 30),
              "9" * 4301, "-" + "9" * 4301]


def _cell(draw, good):
    """``good`` mostly; now and then a bad literal or any float (nan, inf, -0.0, negatives)."""
    kind = draw(st.integers(0, 24))
    if kind == 0:
        return draw(st.sampled_from(_BAD_CELLS))
    if kind == 1:
        return repr(draw(st.floats()))
    return good


@st.composite
def _csv_text(draw, names, key, step):
    """A CSV over the column ``names`` (in any order, plus maybe an extra one)
    whose ``key`` column mostly grows by ``step``; with comment, blank, CRLF
    and quoted lines, short rows, bad cells and several faults per file."""
    names = draw(st.permutations(names)) + draw(st.sampled_from([[], ["extra"]]))
    header = ",".join(draw(st.sampled_from([name, f" {name.upper()} "])) for name in names)
    lines = [draw(st.sampled_from(["", "# exported\n"])) + header]
    value = step
    for _ in range(draw(st.integers(0, 10))):
        cells = []
        for name in names:
            if name == "extra":  # text, or JSON that a one-call block reader must not misread
                cells.append(draw(st.sampled_from(["x", "null", "true", "[1,2]", "{}", "-7"])))
            else:
                cells.append(_cell(draw, str(value) if name == key else repr(draw(st.floats(0, 1e6)))))
        if draw(st.integers(0, 24)) == 0:
            cells = cells[:draw(st.integers(0, len(cells)))]
        if cells and draw(st.integers(0, 5)) == 0:
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = f'"{cells[i]}"'
        lines.append(",".join(cells))
        value += draw(st.sampled_from([1, 1, 1, 1, 1, 1, 1, 1, 3, 0, -1])) * step
        lines.append(draw(st.sampled_from([None, None, None, "", "   ", "# note", "  # indented"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(line for line in lines if line is not None) + end


@given(_csv_text(["n", "x", "r"], "n", 1) | _csv_text(["n", "x", "r_ms"], "n", 1)
       | _csv_text(["n", "x", "r_s"], "n", 1), st.sampled_from(["s", "ms"]))
@settings(max_examples=300)
def test_parse_series_matches_the_row_loop(text, r_unit):
    assert _outcome(parse_series, text, r_unit=r_unit) == _outcome(reference_parse_series, text, r_unit)


@given(_csv_text(["t", "x_inst"], "t", 0.5))
@settings(max_examples=300)
def test_parse_trace_matches_the_row_loop(text):
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


@pytest.mark.parametrize("raw, message", [
    (f"n,x,r\n1,1,0.1\n{10 ** 30},1,0.1\n", f"line 3: n must be <= 2**53, got {10 ** 30}"),
    (f"n,x,r\n{-10 ** 30},1,0.1\n", f"line 2: n must be >= 1, got {-10 ** 30}"),
    (f"n,x,r\n2,1,0.1\n1,1,0.1\n{10 ** 30},1,0.1\n",
     "line 3: load points must be strictly increasing in n (n=1 after n=2)"),
    (f"n,x,r\n{2 ** 63},1,0.1\n1,oops,0.1\n", f"line 2: n must be <= 2**53, got {2 ** 63}"),
])
def test_n_beyond_int64_is_refused_on_its_line(raw, message):
    with pytest.raises(ParseError) as exc:
        parse_series(raw)
    assert str(exc.value) == message
    assert _outcome(parse_series, raw) == _outcome(reference_parse_series, raw)


@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0, 1e6) | st.just(-0.0)),
                min_size=1, max_size=200),
       st.booleans(), st.floats(0, 1, exclude_max=True))
@settings(max_examples=300)
def test_steady_state_average_matches_the_loop_bit_for_bit(rows, all_negative_zero, frac):
    t = np.cumsum([step for step, _ in rows]).tolist()  # uneven sampling
    x = [-0.0] * len(rows) if all_negative_zero else [x for _, x in rows]
    samples = tuple(zip(t, x))
    try:
        expected = reference_steady_state_average(samples, frac)
    except InsufficientSteadyStateError as exc:
        with pytest.raises(InsufficientSteadyStateError) as got:
            steady_state_average(ThroughputTrace(samples), frac)
        assert str(got.value) == str(exc)
        return
    x_bar, (w0, w1) = steady_state_average(ThroughputTrace(samples), frac)
    assert [v.hex() for v in (x_bar, w0, w1)] == [v.hex() for v in (expected[0], *expected[1])]


@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0, 1.7976931348623157e308)
                          | st.sampled_from([1.7976931348623157e308, 1e308, 0.0])),
                min_size=2, max_size=60),
       st.floats(0, 1, exclude_max=True))
@settings(max_examples=300)
def test_steady_state_average_past_a_float64_area_matches_the_loop_bit_for_bit(rows, frac):
    """An area that overflows float64 still gives a finite mean."""
    t = np.cumsum([step for step, _ in rows]).tolist()
    samples = tuple(zip(t, (x for _, x in rows)))
    try:
        expected = reference_steady_state_average(samples, frac)
    except InsufficientSteadyStateError:
        return
    x_bar, (w0, w1) = steady_state_average(ThroughputTrace(samples), frac)
    assert [v.hex() for v in (x_bar, w0, w1)] == [v.hex() for v in (expected[0], *expected[1])]
    assert 0.0 <= x_bar < math.inf


# (series text, trace text, whether a row does not convert: one flag for
# both, or a (series, trace) pair): the row loop (ingest._refused) runs only
# for files with such a row
PARSE_PATHS = {
    "all-valid": ("n,x,r\n1,2,0.1\n2,3,0.2\n3,4,0.3\n", "t,x_inst\n0,1\n1,2\n2,3\n", False),
    "quoted-cell": ('n,x,r\n1,2,0.1\n2,3,0.2\n3,"4",0.3\n', 't,x_inst\n0,1\n1,2\n2,"3"\n', False),
    "fully-quoted": ('"n","x","r"\n"1","2","0.1"\n"2","3","0.2"\n"3","4","0.3"\n',
                     '"t","x_inst"\n"0","1"\n"1","2"\n"2","3"\n', False),
    "quoted-comma-in-unread-column": ('n,x,r,note\n1,2,0.1,"a,b"\n2,3,0.2,c\n3,4,0.3,"d,e,f"\n',
                                      't,x_inst,note\n0,1,"a,b"\n1,2,c\n2,3,"d,e,f"\n', False),
    "two-widths": ("n,x,r\n1,2,0.1\n2,3,0.2,extra\n3,4,0.3\n",
                   "t,x_inst\n0,1\n1,2,extra\n2,3\n", False),
    "ragged": ("n,x,r\n1,2,0.1,\n2,3,0.2\n3,4,0.3,a,b\n4,5,0.4,\n",
               "t,x_inst\n0,1,\n1,2\n2,3,a,b\n3,4,\n", False),
    "one-width-block-then-quoted-block": ('n,x,r\n1,2,0.1\n2,3,0.2\n3,"4",0.3\n4,5,0.4\n',
                                          't,x_inst\n0,1\n1,2\n2,"3"\n3,4\n', False),
    "short-row": ("n,x,r\n1,2,0.1\n2,3,0.2\n3,4\n", "t,x_inst\n0,1\n1,2\n2\n", True),
    "all-rows-short": ("n,x,r\n1,2\n2,3\n", "t,x_inst,y\n0\n1\n", True),
    "bad-cell-after-good-rows": ("n,x,r\n1,2,0.1\n2,3,0.2\n3,oops,0.3\n",
                                 "t,x_inst\n0,1\n1,2\n2,oops\n", True),
    "bad-cell-in-quoted-block": ('n,x,r\n1,2,0.1\n2,3,0.2\n3,"4",0.3\n4,oops,0.4\n',
                                 't,x_inst\n0,1\n1,2\n2,"3"\n3,oops\n', True),
    "out-of-order-before-bad-cell": ("n,x,r\n2,2,0.1\n1,3,0.2\n3,oops,0.3\n",
                                     "t,x_inst\n1,1\n0,2\n2,oops\n", True),
    "out-of-order-every-cell-converts": ("n,x,r\n2,2,0.1\n1,3,0.2\n3,4,0.3\n",
                                         "t,x_inst\n1,1\n0,2\n2,3\n", False),
    "bad-value-every-cell-converts": ("n,x,r\n1,2,0.1\n2,-3,0.2\n", "t,x_inst\n0,1\n1,nan\n",
                                      False),
    "comment-blank-crlf-formfeed": ("# c\r\nn,x,r\r\n\r\n1,2,0.1\x0c2,3,0.2\r\n  # note\n 3 , 4 ,0.3",
                                    "# c\r\nt,x_inst\r\n\r\n0,1\x0c1,2\r\n  # note\n 2 , 3 ",
                                    False),
    "header-with-no-rows": ("n,x,r\n# none\n\n", "t,x_inst\n", False),
    # int() and float() read "4_0" as 40; a "_" in a column that is not read is legal
    "underscore-in-unread-column": ("n,x,r,note\n1,2,0.1,a_b\n2,3,0.2,c\n3,4,0.3,d_e\n",
                                    "t,x_inst,note\n0,1,a_b\n1,2,c\n2,3,d_e\n", False),
    "underscore-in-read-cell": ("n,x,r\n1,2,0.1\n2,3,0.2\n3,4_0,0.3\n",
                                "t,x_inst\n0,1\n1,2\n2,3_0\n", True),
}


def _in_x(cell: str, bad_row: bool):
    """A PARSE_PATHS entry whose second row holds ``cell`` as x and as x_inst."""
    return (f"n,x,r\n1,2.5,0.1\n2,{cell},0.2\n3,4.5,0.3\n", f"t,x_inst\n0.5,1.5\n1.5,{cell}\n2.5,3.5\n",
            bad_row)


def _in_n(cell: str, bad_t: bool = False):
    """A PARSE_PATHS entry whose second row holds ``cell`` as n, which does
    not convert into the int64 column, and as t."""
    return f"n,x,r\n1,2.5,0.1\n{cell},3.5,0.2\n", f"t,x_inst\n0.5,1.5\n{cell},2.5\n", (True, bad_t)


# cells where JSON's number grammar and float()'s or int()'s part: orjson
# reads a column only when every cell in it is a JSON number of the
# column's type, so each of these takes the float()/int() reader
PARSE_PATHS |= {
    "negative-zero-x": _in_x("-0", False),  # orjson reads the int 0; x must stay -0.0
    "plus-sign-x": _in_x("+1.5", False),
    "no-leading-digit-x": _in_x(".5", False),
    "no-trailing-digit-x": _in_x("1.", False),
    "leading-zeros-x": _in_x("007", False),
    "overflowing-x": _in_x("1E400", False),  # inf, refused by the value check
    "arabic-indic-digit-x": _in_x("\u0665", False),
    "formfeed-padded-x": _in_x("\x0c2.5\x0c", True),  # splitlines breaks the line at \x0c
    "unit-separator-padded-x": _in_x("\x1f2.5\x1f", False),
    "no-break-space-padded-x": _in_x("\xa02.5\xa0", False),
    "json-whitespace-padded-x": _in_x(" 2.5\t", False),
    "true-x": _in_x("true", True),
    "null-x": _in_x("null", True),
    "array-x": _in_x("[1]", True),
    "quoted-comma-x": _in_x('"2.5,3.5"', True),  # one cell, two JSON numbers
    "float-text-n": _in_n("1.0"),
    "exponent-n": _in_n("1e3"),
    "n-of-2**63": _in_n(str(2 ** 63)),  # orjson's int, past int64
    "n-of-2**64": _in_n(str(2 ** 64)),  # orjson's float
    "n-of-10**30": _in_n(str(10 ** 30)),
    "true-n": _in_n("true", True),  # a bool, not an int
}

# bodies the marked cut must clean, or turn over to the line-by-line cut: it
# proves a block's width by where its row markers land, not per line
PARSE_PATHS |= {
    "blank-line-mid-body": ("n,x,r\n1,2,0.1\n\n2,3,0.2\n3,4,0.3\n", "t,x_inst\n0,1\n\n1,2\n2,3\n", False),
    "whitespace-only-line": ("n,x,r\n1,2,0.1\n \t \n2,3,0.2\n3,4,0.3\n", "t,x_inst\n0,1\n1,2\n   \n2,3\n",
                             False),
    "pause-comment-mid-body": ("n,x,r\n1,2,0.1\n# pause\n2,3,0.2\n3,4,0.3\n",
                               "t,x_inst\n0,1\n# pause\n1,2\n2,3\n", False),
    "comment-as-wide-as-the-rows": ("n,x,r\n1,2,0.1\n# n,x,r\n2,3,0.2\n3,4,0.3\n",
                                    "t,x_inst\n0,1\n# t,x\n1,2\n2,3\n", False),
    "hash-in-unread-cell": ("n,x,r,run\n1,2,0.1,run#1\n2,3,0.2,run#2\n3,4,0.3,run#3\n",
                            "t,x_inst,run\n0,1,run#1\n1,2,run#2\n2,3,run#3\n", False),
    "hash-in-read-cell": _in_x("#2", True),
    "trailing-blank-lines": ("n,x,r\n1,2,0.1\n2,3,0.2\n3,4,0.3\n\n\n", "t,x_inst\n0,1\n1,2\n2,3\n\n  \n",
                             False),
    "plain-crlf": ("n,x,r\r\n1,2,0.1\r\n2,3,0.2\r\n3,4,0.3\r\n", "t,x_inst\r\n0,1\r\n1,2\r\n2,3\r\n", False),
    # rows of 5, 3 and 7 cells split into 17 cells with their two markers, as
    # three rows of 5 would: only the markers' places tell them apart
    "ragged-rows-of-one-width's-cell-count": ("n,x,r,a,b\n1,2,0.1,a,b\n2,3,0.2\n3,4,0.3,a,b,c,d\n",
                                              "t,x_inst,a,b,c\n0,1,a,b,c\n1,2,d\n2,3,e,f,g,h,i\n", False),
}

# blocks one orjson call reads as float() and int() do, and blocks it must
# turn over to the line-by-line cutter: it proves a block's width by where
# the null row markers land, so a container or a null in a cell would move them
PARSE_PATHS |= {
    # as JSON, [1,2] is one value and the rows two of one width
    "array-in-unread-cell": ("note,n,x,r\n0,1,2.0,3.0\n[1,2],2,3.0,4.0\n",
                             "note,t,x_inst\n0,1,2.0\n[1,2],2,3.0\n", True),
    # as JSON, rows of 4, 3 and 5 cells with the null of the last on a marker's place
    "null-cell-where-a-marker-falls": ("n,x,r,note\n1,2.0,3.0,0\n2,3.0,4.0\nnull,3,4.0,5.0,0\n",
                                       "t,x_inst,note\n1,2.0,0\n2,3.0\nnull,3,4.0,0\n", True),
    # orjson's ints in a float column, near and past 2**53 and 2**64 (a float to orjson)
    "integer-x": ("n,x,r\n1,12,0.5\n2,9007199254740993,0.25\n3,18446744073709551615,0.125\n4,"
                  + str(10 ** 30) + ",1e-40\n",
                  "t,x_inst\n0.5,12\n1.5,9007199254740993\n2.5,18446744073709551615\n3.5," + str(10 ** 30) + "\n",
                  False),
    "whole-second-t": ("n,x,r\n1,1.5,1\n2,2.5,2\n3,3.5,3\n", "t,x_inst\n0,1.5\n1,2.5\n2,3.5\n3,4.5\n",
                       False),
    "negative-zero-among-integer-x": ("n,x,r\n1,2,0.1\n2,-0,0.2\n3,4,0.3\n", "t,x_inst\n0,1\n1,-0\n2,3\n",
                                      False),
}


@pytest.mark.parametrize("block", [["1,2.5", "2,3.5,4.5"], ["1,2.5,0", "2,3.5"]],
                         ids=["wider-last-row", "narrower-last-row"])
def test_one_orjson_call_reads_only_rows_of_one_width(block):
    assert ingest._json_columns(block, (0, 1), (int, float)) is None
    assert ingest._json_columns(block[:1], (0, 1), (int, float)) == [[1], [2.5]]


@pytest.mark.parametrize("block_lines", [4096, 2], ids=["one-block", "blocks-of-two"])
@pytest.mark.parametrize("kind", ["series", "trace"])
@pytest.mark.parametrize("name", sorted(PARSE_PATHS))
def test_each_parse_path_matches_the_row_loop(monkeypatch, name, kind, block_lines):
    series_text, trace_text, bad_row = PARSE_PATHS[name]
    parse, reference, text = ((parse_series, reference_parse_series, series_text) if kind == "series"
                              else (parse_trace, reference_parse_trace, trace_text))
    calls = []
    refused = ingest._refused

    def spy(*args):
        calls.append(args)
        return refused(*args)

    monkeypatch.setattr(ingest, "_refused", spy)
    monkeypatch.setattr(ingest, "_BULK_LINES", block_lines)
    assert _outcome(parse, text) == _outcome(reference, text)
    assert len(calls) == (bad_row if isinstance(bad_row, bool) else bad_row[kind == "trace"])


@pytest.mark.parametrize("block_lines", [4096, 2], ids=["one-block", "blocks-of-two"])
@pytest.mark.parametrize("parse", [parse_series, parse_trace])
@pytest.mark.parametrize("name", sorted(CSV_PROBES))
def test_a_cell_past_the_csv_field_limit_is_refused_on_its_line(monkeypatch, name, parse, block_lines):
    monkeypatch.setattr(ingest, "_BULK_LINES", block_lines)
    text, message = CSV_PROBES[name]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("block_lines", [4096, 2], ids=["one-block", "blocks-of-two"])
@pytest.mark.parametrize("parse, message", [
    (parse_series, "line 2: x must be finite and >= 0, got -1.0"),
    (parse_trace, "line 2: sample must be finite with x_inst >= 0: '1,-1,0.1,0,-1'")], ids=["series", "trace"])
def test_a_bad_row_before_a_cell_past_the_field_limit_is_the_one_refused(monkeypatch, parse, message,
                                                                         block_lines):
    monkeypatch.setattr(ingest, "_BULK_LINES", block_lines)
    with pytest.raises(ParseError) as exc:
        parse('n,x,r,t,x_inst\n1,-1,0.1,0,-1\n2,1,0.1,1,"' + "a" * 200_000 + '"\n')
    assert str(exc.value) == message


def _sweep_csv(rows: int) -> str:
    return "n,x,r_ms\n" + "".join(f"{n},{n * 0.0987654321!r},{10.5 + n * 1e-3!r}\n"
                                    for n in range(1, rows + 1))


def _trace_csv(samples: int) -> str:
    return "t,x_inst\n" + "".join(f"{t * 0.731!r},{100 + t % 17 * 0.37!r}\n" for t in range(samples))


def _quoted(text: str) -> str:
    """``text`` with every cell quoted, as some spreadsheet exports write it."""
    return "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines())


def _with_line(text: str, line: str, end: str = "\n") -> str:
    """``text`` with ``line`` put halfway through it, and every line ended by ``end``."""
    lines = text.splitlines()
    return end.join(lines[:len(lines) // 2] + [line] + lines[len(lines) // 2:]) + end


@pytest.mark.parametrize("parse, text", [(parse_series, _sweep_csv(5000)),
                                         (parse_series, _quoted(_sweep_csv(5000))),
                                         (parse_series, _with_line(_sweep_csv(5000), "# pause", "\r\n")),
                                         (parse_trace, _trace_csv(5000))],
                         ids=["series", "quoted-series", "commented-crlf-series", "trace"])
def test_parsing_keeps_no_container_per_row(parse, text):
    """A container kept alive per row costs gen-0 collections on every file."""
    assert parse(text).x.size == 5000
    assert gen0_collections(lambda: parse(text)) == 0


def _spied_cutters(monkeypatch) -> list:
    """The list that each call of the per-line cutter and of the row loop,
    spied from now on, appends its (name, args) to."""
    calls = []

    def spy(real):
        def call(*args):
            calls.append((real.__name__, args))
            return real(*args)
        return call

    for name in ("_cells", "_refused"):
        monkeypatch.setattr(ingest, name, spy(getattr(ingest, name)))
    return calls


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("line", [None, "# pause", ""], ids=["plain", "comment-line", "blank-line"])
@pytest.mark.parametrize("parse, text", [(parse_series, _sweep_csv(5000)), (parse_trace, _trace_csv(5000)),
                                         (parse_trace, "t,x_inst\n" + "".join(f"{t},{100 + t % 17}\n"
                                                                               for t in range(5000))),
                                         # integer t beside a "-" that is no -0
                                         (parse_trace, "t,x_inst\n" + "".join(f"{t},{(t % 17 + 1) * 1e-5!r}\n"
                                                                               for t in range(5000)))],
                         ids=["series", "trace", "integer-trace", "negative-exponent-trace"])
def test_unquoted_bodies_of_one_width_are_cut_without_a_row_loop(monkeypatch, parse, text, line, end):
    """Only the header is cut by the per-line cutter; no body line meets it or the row loop."""
    text = _with_line(text, line, end) if line is not None else text.replace("\n", end)
    calls = _spied_cutters(monkeypatch)
    assert parse(text).x.size == 5000
    assert calls == [("_cells", (text.splitlines()[0],))]


@pytest.mark.parametrize("cell", ["true", "false", "{}", " true "])
def test_a_json_word_or_object_in_an_unread_column_sends_the_block_to_the_line_cutter(monkeypatch, cell):
    """true, false and objects are the JSON values left that are not numbers:
    a block holding one, read or not, is cut line by line, to the same series."""
    assert ingest._json_columns(["1,2.5,0", f"2,3.5,{cell}"], (0, 1), (int, float)) is None
    expected, text = parse_series("n,x,r\n1,1.5,0.1\n2,2.5,0.2\n"), f"n,x,r,note\n1,1.5,0.1,0\n2,2.5,0.2,{cell}\n"
    calls = _spied_cutters(monkeypatch)
    assert parse_series(text) == expected
    assert calls == [("_cells", (line,)) for line in text.splitlines()]


@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
           st.lists(st.lists(st.text(max_size=3), min_size=width, max_size=width), min_size=1, max_size=20),
           st.lists(st.text(max_size=3), min_size=width, max_size=width))),
       st.sampled_from(["\n", "\r\n"]))
def test_interleave_is_the_rows_laid_out_one_by_one(table, end):
    """Each cell followed by its column's separator, row after row; _csv_lines
    is that with commas and the line end, joined."""
    rows, separators = table
    columns = [list(column) for column in zip(*rows)]
    assert ingest._interleave(columns, separators) == [piece for row in rows
                                                       for cell, separator in zip(row, separators)
                                                       for piece in (cell, separator)]
    assert ingest._csv_lines(columns, end) == "".join(",".join(row) + end for row in rows)


def test_every_benchmark_input_is_cut_only_at_its_header(monkeypatch, tmp_path):
    """Each CSV the benchmark's generator writes, for every workload, is read
    by one orjson call per block: no body line meets the per-line cutter."""
    # perfbench/gen.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for workload in gen.WORKLOADS:
        gen.generate(workload, 1, str(tmp_path / workload))
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert paths
    calls = _spied_cutters(monkeypatch)
    for path in paths:
        text = path.read_text()
        header = text.splitlines()[0]
        calls.clear()
        (parse_trace if header == "t,x_inst" else parse_series)(text)
        assert calls == [("_cells", (header,))], path


def _edge_floats() -> list[float]:
    """Zeros, subnormals, the extremes, NaN, the infinities, and the
    nextafter neighbours of +-1e-4 and +-1e16, where repr turns to and
    from exponent form."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]
    for edge in (1e-4, -1e-4, 1e16, -1e16):
        values.append(edge)
        below = above = edge
        for _ in range(3):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            values += [float(below), float(above)]
    return values


EDGE_BITS = np.array(_edge_floats()).view(np.uint64).tolist()


def _assert_float_texts(column):
    assert ingest._float_texts(column) == list(map(float.__repr__, column.tolist()))
    assert ingest._float_texts(column, _json_float) == list(map(_json_float, column.tolist()))


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1) | st.sampled_from(EDGE_BITS), max_size=60),
       st.integers(1, 4))
def test_float_texts_are_repr_for_every_bit_pattern(bits, step):
    column = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_float_texts(column)
    _assert_float_texts(column[::step])  # a strided view, not contiguous for step > 1


def test_float_texts_of_the_edge_values():
    _assert_float_texts(np.array(_edge_floats()))


def _bits_of(value: float) -> int:
    return np.float64(value).view(np.uint64).item()


def _integer_text(value: float) -> str:
    """``value`` as an integer literal (``-0`` for -0.0) when it is integral and below 1e20, else its repr."""
    if not (value.is_integer() and abs(value) < 1e20):
        return repr(value)
    return ("-" if math.copysign(1.0, value) < 0 else "") + str(abs(int(value)))


# the ways an exporter writes a float; integer literals past 2**64 are JSON floats to orjson
CELL_WRITERS = {"repr": repr, "%.17g": "%.17g".__mod__, "%.25e": "%.25e".__mod__, "integer": _integer_text}


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1) | st.sampled_from(EDGE_BITS)
                | st.integers(-10 ** 20, 10 ** 20).map(lambda i: _bits_of(float(i))), min_size=1, max_size=60))
def test_float_cells_read_as_float_reads_them_for_every_bit_pattern(bits):
    """The reader's mirror of test_float_texts_are_repr_for_every_bit_pattern."""
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
    reader, accepted = ingest._json_columns, []

    def spy(block, indices, kinds):
        read = reader(block, indices, kinds)
        accepted.append(read is not None)
        return read

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_json_columns", spy)
        for name, write in CELL_WRITERS.items():
            accepted.clear()
            # one cell a line, any sign, NaN and the infinities, against float() itself
            texts = list(map(write, values))
            column = np.empty(len(texts))
            ingest._convert(texts, (0,), (float,), [column], 0)
            assert column.view(np.uint64).tolist() == [_bits_of(float(text)) for text in texts]
            # the magnitudes (and -0.0, which the value checks pass) as files, against the row loops
            texts = [write(v if v == 0 else abs(v)) for v in values]
            series = "n,x,r_ms\n" + "".join(f"{n},{text},{text}\n" for n, text in enumerate(texts, 1))
            trace = "t,x_inst\n" + "".join(f"{t}.5,{text}\n" for t, text in enumerate(texts))
            assert _outcome(parse_series, series) == _outcome(reference_parse_series, series)
            assert _outcome(parse_trace, trace) == _outcome(reference_parse_trace, trace)
            if name == "repr" and all(map(math.isfinite, values)):
                assert accepted and all(accepted)  # orjson, not float(), read every block


@pytest.mark.parametrize("cell", ["-0", " -0", "-0 ", "-0\t"],
                         ids=["bare", "space-before", "space-after", "tab-after"])
def test_integer_negative_zero_in_a_float_column_reads_as_float_does(cell):
    """``-0`` is the one integer text whose orjson int (0) and float() (-0.0)
    differ, so a block holding it, wherever and however it ends, is not read as ints."""
    for block in (["1", cell, "2"], ["1", "2", cell]):
        column = np.empty(3)
        ingest._convert(block, (0,), (float,), [column], 0)
        assert column.view(np.uint64).tolist() == [_bits_of(float(text)) for text in block]


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e16])
def test_float_texts_fix_up_values_among_many_ordinary_ones(scale):
    column = np.random.default_rng(3).uniform(0.5, 2.0, 3000) * scale
    column[[0, 1234, 2999]] = _edge_floats()[:3]
    _assert_float_texts(column)
    table = np.stack([column, -column], axis=1)  # its columns are strided, as a curve's q columns
    _assert_float_texts(table[:, 1])


@pytest.mark.parametrize("column", [np.array([], dtype=np.float64), [], np.empty((0, 3))[:, 1]],
                         ids=["array", "list", "strided"])
def test_float_texts_of_an_empty_column(column):
    assert ingest._float_texts(column) == []
    assert ingest._float_texts(column, _json_float) == []


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=60), st.integers(1, 3))
def test_int_texts_are_repr_of_int64_columns(values, step):
    column = np.array(values, dtype=np.int64)
    assert ingest._int_texts(column) == list(map(int.__repr__, values))
    assert ingest._int_texts(column[::step]) == list(map(int.__repr__, values[::step]))


@given(st.lists(st.integers(-2 ** 53, 2 ** 53), max_size=60))
def test_int_texts_are_repr_of_int_sequences(values):
    assert ingest._int_texts(tuple(values)) == list(map(int.__repr__, values))
    assert ingest._int_texts(values) == list(map(int.__repr__, values))


@pytest.mark.parametrize("values", [(), [], np.array([], dtype=np.int64)], ids=["tuple", "list", "array"])
def test_int_texts_of_no_values(values):
    assert ingest._int_texts(values) == []
