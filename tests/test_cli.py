import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

import loadlaw.cli
from loadlaw import (DetectorConfig, ParseError, Report, diagnose_series, parse_profile,
                     parse_series, parse_trace, plot_rows, solve_reference)
from loadlaw.cli import build_parser, main

from .conftest import CAPPED_POOL_ROWS, CSV_PROBES, PROFILE_PROBES, three_stage_profile

PROFILE_JSON = """{
  "stages": [
    {"label": "parse", "service_time": 3.5},
    {"label": "lookup", "service_time": 5.0},
    {"label": "commit", "service_time": 2.0}
  ],
  "think_time": 10000,
  "time_unit": "ms"
}
"""


@pytest.fixture
def profile_path(tmp_path):
    p = tmp_path / "profile.json"
    p.write_text(PROFILE_JSON)
    return str(p)


@pytest.fixture
def capped_csv(tmp_path):
    lines = ["n,x,r_ms"] + [f"{n},{x:g},{r * 1000:g}" for n, x, r in CAPPED_POOL_ROWS]
    p = tmp_path / "capped.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture
def reference_csv(tmp_path):
    curves = solve_reference(three_stage_profile(), 40)
    series = curves.as_series(ns=[1, 2, 5, 10, 20, 30, 40])
    lines = ["n,x,r"] + [f"{p.n},{p.x!r},{p.r!r}" for p in series.points]
    path = tmp_path / "reference.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBounds:
    def test_text_output(self, capsys, profile_path):
        assert main(["bounds", profile_path]) == 0
        out = capsys.readouterr().out
        assert "200" in out
        assert "0.0105" in out
        assert "2002.1" in out
        assert "lookup" in out

    def test_json_output(self, capsys, profile_path):
        assert main(["bounds", profile_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["x_max"] == 200.0
        assert doc["bounds"]["n_opt"] == pytest.approx(2002.1, abs=0.05)
        assert doc["verdict"] == "clean"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        path = str(tmp_path / "nope.json")
        assert main(["bounds", path]) == 2
        assert capsys.readouterr().err == (f"loadlaw: cannot read input: [Errno 2] "
                                           f"No such file or directory: {path!r}\n")

    def test_malformed_profile_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["bounds", str(bad)]) == 2

    def test_single_stage(self, capsys, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"stages":[{"label":"only","service_time":1.0}],"think_time":0,"time_unit":"s"}')
        assert main(["bounds", str(p)]) == 0
        out = capsys.readouterr().out
        assert "1 TPS" in out
        assert "1 s" in out


class TestSimulate:
    def test_writes_curve_csv(self, tmp_path, profile_path):
        out = tmp_path / "curve.csv"
        assert main(["simulate", profile_path, "--n-max", "4000", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,x,r,q_parse,q_lookup,q_commit"
        assert len(lines) == 4001
        final_x = float(lines[-1].split(",")[1])
        assert final_x == pytest.approx(200.0, rel=0.01)

    def test_n_max_one(self, tmp_path, profile_path):
        out = tmp_path / "one.csv"
        assert main(["simulate", profile_path, "--n-max", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(0.0105)

    def test_n_max_zero_usage_error(self, capsys, profile_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", profile_path, "--n-max", "0", "--out", "x.csv"])
        assert exc.value.code == 1

    def test_unwritable_output_exit_3(self, capsys, tmp_path, profile_path):
        dest = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["simulate", profile_path, "--n-max", "2", "--out", str(dest)]) == 3
        assert capsys.readouterr().err == (f"loadlaw: cannot write output: [Errno 2] "
                                           f"No such file or directory: {str(dest)!r}\n")

    def test_stdout(self, capsys, profile_path):
        assert main(["simulate", profile_path, "--n-max", "2", "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("n,x,r,")

    # 10**17 populations take 800 PB per column, past any 64-bit address space;
    # from 2**60 on numpy refuses the size itself, with a ValueError of its own
    @pytest.mark.parametrize("n_max", [10 ** 17, 2 ** 60, 2 ** 63, 10 ** 19])
    @pytest.mark.parametrize("stages", [3, 50])
    def test_n_max_past_memory_is_a_usage_error(self, capsys, tmp_path, stages, n_max):
        doc = json.loads(PROFILE_JSON)
        doc["stages"] = [doc["stages"][k % 3] | {"label": f"s{k}"} for k in range(stages)]
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["simulate", str(profile), "--n-max", str(n_max), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"loadlaw: error: --n-max {n_max}: the curves do not fit in memory (")
        assert err.count("\n") == 1
        assert not out.exists()


class TestAudit:
    def test_capped_pool_fails_with_4(self, capsys, capped_csv):
        assert main(["audit", capped_csv]) == 4
        out = capsys.readouterr().out
        assert "116.75" in out
        assert "123.94" in out
        assert "THREAD_THROTTLING" in out
        assert "verdict: broken" in out

    def test_no_fail_flag(self, capsys, capped_csv):
        assert main(["audit", capped_csv, "--no-fail"]) == 0

    def test_json_format(self, capsys, capped_csv):
        assert main(["audit", capped_csv, "--format", "json", "--no-fail"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "broken"
        rows = {row["n_was"]: row for row in doc["audit"]}
        assert rows[400]["n_run"] == pytest.approx(123.94, abs=0.005)
        detectors = {f["detector"] for f in doc["findings"] if f["severity"] == "critical"}
        assert detectors == {"THREAD_THROTTLING"}

    def test_reference_series_clean(self, capsys, reference_csv):
        assert main(["audit", reference_csv, "--z", "10"]) == 0
        assert "verdict: clean" in capsys.readouterr().out

    def test_empty_csv_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["audit", str(empty)]) == 2

    def test_overflowing_n_run_exit_2(self, capsys, tmp_path):
        # n_run = x * r past float64 would be written as Infinity, which strict JSON refuses
        series = tmp_path / "overflow.csv"
        series.write_text("n,x,r\n1,1e300,1e10\n")
        assert main(["audit", str(series), "--format", "json", "--no-fail"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "loadlaw: parse error: line 2: x * r must be finite, got 1e+300 * 10000000000.0\n"


class TestDiagnose:
    def test_overclaimed_throughput(self, capsys, tmp_path, profile_path):
        series = tmp_path / "claim.csv"
        series.write_text("n,x,r\n1000,150,0.05\n2000,250,0.08\n3000,300,0.1\n4000,300,0.12\n")
        rc = main(["diagnose", str(series), "--profile", profile_path, "--z", "10"])
        assert rc == 4
        doc = json.loads(capsys.readouterr().out)
        by_detector = {f["detector"]: f for f in doc["findings"] if f["severity"] == "critical"}
        bound = by_detector["BOUND_VIOLATION"]
        assert bound["evidence"]["x_errors_estimate"] == pytest.approx(100.0, abs=0.5)
        assert doc["verdict"] == "broken"
        assert doc["bounds"]["x_max"] == 200.0

    def test_reference_series_clean_exit_0(self, capsys, reference_csv, profile_path):
        rc = main(["diagnose", reference_csv, "--profile", profile_path, "--z", "10"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "clean"

    def test_without_profile_uses_data_knee(self, capsys, capped_csv):
        rc = main(["diagnose", capped_csv, "--no-fail"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"] is None
        assert doc["knee"]["basis"] == "data"
        detectors = {f["detector"] for f in doc["findings"] if f["severity"] == "critical"}
        assert "RESPONSE_FLATTENING" in detectors
        assert "THREAD_THROTTLING" in detectors

    def test_report_written_to_file(self, capsys, tmp_path, reference_csv, profile_path):
        out = tmp_path / "report.json"
        rc = main(["diagnose", reference_csv, "--profile", profile_path, "--z", "10",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert list(doc.keys()) == ["version", "inputs", "bounds", "knee", "audit",
                                    "findings", "verdict"]
        assert out.read_text() == capsys.readouterr().out

    def test_text_format_writes_json_report_to_file(self, capsys, tmp_path, capped_csv,
                                                     profile_path):
        out = tmp_path / "report.json"
        argv = ["diagnose", capped_csv, "--profile", profile_path, "--no-fail"]
        assert main(argv + ["--format", "text", "--out", str(out)]) == 0
        assert "verdict: broken" in capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_serialized_once(self, monkeypatch, capsys, tmp_path, capped_csv, fmt):
        calls = []
        to_json = Report.to_json

        def counting_to_json(self, *args, **kwargs):
            calls.append(args)
            return to_json(self, *args, **kwargs)

        monkeypatch.setattr(Report, "to_json", counting_to_json)
        main(["diagnose", capped_csv, "--no-fail", "--format", fmt,
              "--out", str(tmp_path / "report.json")])
        assert len(calls) == 1

    def test_plot_and_combined_csv(self, capsys, tmp_path, capped_csv, profile_path):
        plot = tmp_path / "plot.csv"
        combined = tmp_path / "combined.csv"
        main(["diagnose", capped_csv, "--profile", profile_path, "--no-fail",
              "--plot-csv", str(plot), "--combined-csv", str(combined)])
        plot_lines = plot.read_text().strip().splitlines()
        assert plot_lines[0] == "n,x_measured,r_measured,x_upper_bound,r_lower_bound"
        assert len(plot_lines) == len(CAPPED_POOL_ROWS) + 1
        last = plot_lines[-1].split(",")
        # n=400 is far below the knee: the uncontended branch 400/10.0105 applies
        assert float(last[3]) == pytest.approx(400 / 10.0105, rel=1e-9)
        assert float(last[4]) == pytest.approx(0.0105, rel=1e-9)
        combined_lines = combined.read_text().strip().splitlines()
        assert combined_lines[0].startswith("#")
        assert "cannot" in combined_lines[0]
        assert combined_lines[1] == "x,r,n"

    # r = 5e-5 s, x from 1e16 up, and with Z = 1e6 s bound lines below 1e-4:
    # numbers repr writes in exponent form
    EXPONENT_SERIES = "n,x,r\n1,1.0,5e-05\n2,1.5,3e-05\n3,1e16,0.001\n4,2e16,1.0\n5,2.5e-07,0.0\n"
    EXPONENT_PROFILE = PROFILE_JSON.replace('"think_time": 10000', '"think_time": 1e9')

    @pytest.mark.parametrize("case", ["capped", "exponent-forms"])
    def test_plot_and_combined_csv_match_the_row_writers(self, capsys, tmp_path, capped_csv,
                                                         profile_path, case):
        series_path, profile = capped_csv, profile_path
        if case == "exponent-forms":
            series_path, profile = tmp_path / "tiny.csv", tmp_path / "far.json"
            series_path.write_text(self.EXPONENT_SERIES)
            profile.write_text(self.EXPONENT_PROFILE)
        plot, combined = tmp_path / "plot.csv", tmp_path / "combined.csv"
        main(["diagnose", str(series_path), "--profile", str(profile), "--no-fail",
              "--plot-csv", str(plot), "--combined-csv", str(combined)])
        series = parse_series(Path(series_path).read_bytes())
        report = diagnose_series(series, parse_profile(Path(profile).read_bytes()))
        assert plot.read_text() == reference_plot_csv(series, report)
        assert combined.read_text() == reference_combined_csv(series)
        if case == "exponent-forms":
            assert "e-05" in plot.read_text() and "e+16" in combined.read_text()
            assert "e-07" in plot.read_text().splitlines()[1].split(",")[3]

    def test_json_deterministic(self, capsys, capped_csv, profile_path):
        main(["diagnose", capped_csv, "--profile", profile_path, "--no-fail"])
        first = capsys.readouterr().out
        main(["diagnose", capped_csv, "--profile", profile_path, "--no-fail"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("flag, name", [("--out", "r.json"), ("--plot-csv", "p.csv")])
    def test_unwritable_output_exit_3(self, capsys, tmp_path, capped_csv, flag, name):
        dest = tmp_path / "nodir" / name
        assert main(["diagnose", capped_csv, "--no-fail", flag, str(dest)]) == 3
        assert capsys.readouterr().err == (f"loadlaw: cannot write output: [Errno 2] "
                                           f"No such file or directory: {str(dest)!r}\n")

    def test_parse_failure_exit_2(self, tmp_path, profile_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,x,r\n5,1,0.1\n5,1,0.1\n")
        assert main(["diagnose", str(bad), "--profile", profile_path]) == 2

    @pytest.mark.parametrize("rows", ["1,2,0.1\n", "1,0,0.1\n2,0,0.2\n"],
                             ids=["one-row", "zero-throughput"])
    def test_plot_csv_without_knee_is_usage_error(self, capsys, tmp_path, rows):
        series = tmp_path / "series.csv"
        series.write_text("n,x,r\n" + rows)
        plot = tmp_path / "plot.csv"
        assert main(["diagnose", str(series), "--plot-csv", str(plot)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--plot-csv" in err and "knee estimate unavailable" in err
        assert not plot.exists()

    @pytest.mark.parametrize("first, second, spell", [
        ("--out", "--plot-csv", lambda path: path),
        ("--out", "--combined-csv", lambda path: os.path.join(os.path.dirname(path), ".", "F")),
        ("--plot-csv", "--combined-csv", lambda path: os.path.join(os.path.dirname(path), "link")),
    ], ids=["same-path", "dot-path", "symlink"])
    def test_two_outputs_naming_one_file_are_a_usage_error(self, capsys, tmp_path, capped_csv,
                                                           profile_path, first, second, spell):
        target = str(tmp_path / "F")
        os.symlink(target, tmp_path / "link")
        argv = ["diagnose", capped_csv, "--profile", profile_path, "--no-fail"]
        assert main(argv + [first, target, second, spell(target)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not os.path.exists(target)
        assert err.startswith("loadlaw: error: ") and first in err and second in err

    def test_every_output_flag_may_name_stdout(self, capsys, tmp_path, capped_csv, profile_path):
        argv = ["diagnose", capped_csv, "--profile", profile_path, "--no-fail", "--format", "text"]
        assert main(argv + ["--out", "-", "--plot-csv", "-", "--combined-csv", "-"]) == 0
        out = capsys.readouterr().out
        assert '"verdict": "broken"' in out and "n,x_measured," in out and "x,r,n" in out

    @pytest.mark.parametrize("argv, text, message", [
        (["audit"], "n,x,r,x\n1,2,0.1\n", "line 1: duplicate column 'x'"),
        (["diagnose"], "n,x,r,R\n1,2,0.1,0.2\n", "line 1: duplicate column 'r'"),
        (["steady", "--warmup", "0"], "t,x_inst,t\n0,1,5\n1,2,6\n2,3,7\n", "line 1: duplicate column 't'"),
    ], ids=["audit", "diagnose", "steady"])
    def test_a_repeated_read_column_exits_2(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"loadlaw: parse error: {message}\n")

    @pytest.mark.parametrize("argv, header, name", [
        (["audit"], "n,x,r", "t"),
        (["steady", "--warmup", "0"], "t,x_inst", "n"),
    ], ids=["audit", "steady"])
    def test_a_repeated_column_the_command_does_not_read_exits_0(self, capsys, tmp_path, argv, header, name):
        """A name only the other parser reads may repeat: the output is the file's without the repeat."""
        body = "".join(f"{i},{i + 1},{i + 2},{i + 3},{i + 4}\n" for i in range(1, 4))
        outputs = []
        for repeat in ("", f",{name}"):
            path = tmp_path / f"input{len(outputs)}.csv"
            path.write_text(f"{header},{name}{repeat}\n{body}")
            assert main([argv[0], str(path), *argv[1:]]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""


def reference_plot_csv(series, report) -> str:
    """The --plot-csv text as the row-by-row writer wrote it: one repr per value."""
    lines = ["n,x_measured,r_measured,x_upper_bound,r_lower_bound\n"]
    for n, x, r, xb, rb in plot_rows(series, report.knee):
        lines.append(f"{n},{x!r},{r!r},{xb!r},{rb!r}\n")
    return "".join(lines)


def reference_combined_csv(series) -> str:
    """The --combined-csv text as the row-by-row writer wrote it."""
    lines = [f"# {loadlaw.cli.COMBINED_PLOT_CAVEAT}\n", "x,r,n\n"]
    for n, x, r in zip(series.n.tolist(), series.x.tolist(), series.r.tolist()):
        lines.append(f"{x!r},{r!r},{n}\n")
    return "".join(lines)


class TestSteady:
    def test_constant_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n" + "".join(f"{t},200\n" for t in range(0, 101)))
        assert main(["steady", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "200" in out
        assert "(25, 100)" in out

    def test_ramp_then_plateau(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = [(t, 2 * t if t < 50 else 100) for t in range(0, 101)]
        trace.write_text("t,x_inst\n" + "".join(f"{t},{x}\n" for t, x in rows))
        assert main(["steady", str(trace), "--warmup", "0.5"]) == 0
        assert "100" in capsys.readouterr().out

    def test_insufficient_samples_exit_4(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n0,5\n10,5\n")
        assert main(["steady", str(trace), "--warmup", "0.9"]) == 4

    def test_bad_warmup_usage_error(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n0,5\n10,5\n")
        with pytest.raises(SystemExit) as exc:
            main(["steady", str(trace), "--warmup", "1.5"])
        assert exc.value.code == 1

    def test_json_format(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n" + "".join(f"{t},42\n" for t in range(0, 11)))
        assert main(["steady", str(trace), "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"x_bar": 42.0, "window": [3.0, 10.0]}\n'


    # traces whose average is no finite number: the span overflows float64
    NON_FINITE = {
        "span": ("t,x_inst\n-1e308,1\n1e308,2\n", ["--warmup", "0"],
                 "trace span from t=-1e+308 to t=1e+308 overflows float64"),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_average_exit_4(self, capsys, tmp_path, name, fmt):
        raw, flags, message = self.NON_FINITE[name]
        trace = tmp_path / "trace.csv"
        trace.write_text(raw)
        assert main(["steady", str(trace), "--format", fmt, *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"loadlaw: {message}; cannot form a steady-state average\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_overflowing_area_averages_finite(self, capsys, tmp_path, fmt):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n0,1.7e308\n1,1.7e308\n2,1.7e308\n")
        assert main(["steady", str(trace), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out, parse_constant=_refuse_constant) == {"x_bar": 1.7e308,
                                                                                 "window": [1.0, 2.0]}
        else:
            assert captured.out == "x_bar:  1.7e+308\nwindow: (1, 2)\n"


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
                          | st.just(-0.0)),
                min_size=1, max_size=6),
       st.floats(0, 1, exclude_max=True))
def test_steady_prints_strict_json_or_exits_4(tmp_path_factory, rows, warmup):
    """For any trace parse_trace accepts: strict JSON on stdout, or exit 4 and no stdout."""
    text = "t,x_inst\n" + "".join(f"{t!r},{x!r}\n" for t, x in rows)
    try:
        parse_trace(text)
    except ParseError:
        reject()  # timestamps not strictly increasing
    path = tmp_path_factory.mktemp("steady") / "trace.csv"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["steady", str(path), "--format", "json", "--warmup", repr(warmup)])
    if code == 4:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        doc = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert set(doc) == {"x_bar", "window"}


class TestParserReuse:
    def test_flags_do_not_leak_into_the_next_call(self, monkeypatch, capsys, capped_csv,
                                                  profile_path):
        configs = []
        diagnose = loadlaw.cli.diagnose_series

        def recording(*args, config, **kwargs):
            configs.append(config)
            return diagnose(*args, config=config, **kwargs)

        monkeypatch.setattr(loadlaw.cli, "diagnose_series", recording)
        argv = ["diagnose", capped_csv, "--profile", profile_path, "--no-fail"]
        assert main(argv + ["--bound-tol", "0.5", "--min-growth-points", "9"]) == 0
        assert main(argv) == 0
        assert build_parser() is build_parser()
        assert configs[0].bound_rel_tol == 0.5 and configs[0].min_growth_points == 9
        assert configs[1] == DetectorConfig()


# argv lists that the dispatch in main must parse as the top-level parser does;
# {series}, {profile} and {trace} name files that need not exist
_DISPATCH_ARGVS = {
    "bounds": ["bounds", "{profile}", "--format", "json"],
    "simulate": ["simulate", "{profile}", "--n-max", "3", "--out", "-"],
    "audit": ["audit", "{series}", "--r-unit", "ms", "--z", "1", "--format", "json", "--no-fail",
              "--plateau-tol", "0.1", "--span-factor", "2", "--think-tol", "0.3"],
    "diagnose": ["diagnose", "{series}", "--profile", "{profile}", "--z=1", "--format", "text",
                 "--out", "o.json", "--plot-csv", "p.csv", "--combined-csv", "c.csv", "--no-fail",
                 "--bound-tol", "0.1", "--retro-tol", "0.1", "--plateau-tol", "0.1", "--span-factor", "2",
                 "--think-tol", "0.3", "--slope-fraction", "0.4", "--min-growth-points", "5"],
    "diagnose-defaults": ["diagnose", "{series}"],
    "steady": ["steady", "{trace}", "--warmup", "0.1", "--format", "json"],
    "abbreviated-flag": ["diagnose", "{series}", "--prof", "{profile}"],
    "help-after-command": ["diagnose", "-h"],
    "help-after-path": ["steady", "{trace}", "--help"],
    "help": ["-h"],
    "version": ["--version"],
    "version-after-command": ["audit", "{series}", "--version"],
    "empty": [],
    "double-dash": ["--"],
    "double-dash-after-command": ["diagnose", "--", "{series}"],
    "unknown-command": ["frobnicate", "{series}"],
    "command-as-path": ["{series}", "diagnose"],
    "leftover-argument": ["bounds", "{profile}", "extra", "more"],
    "unknown-flag": ["diagnose", "{series}", "--bogus", "1"],
    "missing-path": ["diagnose"],
    "missing-required-flag": ["simulate", "{profile}"],
    "bad-flag-value": ["diagnose", "{series}", "--bound-tol", "abc"],
    "bad-choice": ["audit", "{series}", "--r-unit", "h"],
    "negative-number": ["diagnose", "{series}", "--z", "-1e-3"],
    "negative-zero": ["diagnose", "{series}", "--bound-tol", "-0"],
}


def _parse_outcome(parse, argv, capsys):
    """vars() of the Namespace ``parse`` gives, or its exit code; and what it wrote."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(_DISPATCH_ARGVS))
def test_dispatch_parses_as_the_top_level_parser(capsys, name):
    argv = [a.format(series="s.csv", profile="p.json", trace="t.csv") for a in _DISPATCH_ARGVS[name]]
    dispatched = _parse_outcome(loadlaw.cli._parse_args, argv, capsys)
    assert dispatched == _parse_outcome(build_parser().parse_args, argv, capsys)
    assert isinstance(dispatched[0], dict) == (name in {"bounds", "simulate", "audit", "diagnose",
                                                        "diagnose-defaults", "steady", "abbreviated-flag",
                                                        "double-dash-after-command", "negative-zero"})


def test_a_command_argv_never_reaches_the_top_level_parse(monkeypatch, capsys, capped_csv):
    parser, calls = build_parser(), []
    top_level = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", lambda *args: calls.append(args) or top_level(*args))
    assert main(["diagnose", capped_csv, "--no-fail"]) == 0
    assert calls == []
    with pytest.raises(SystemExit):
        main(["--version"])
    assert len(calls) == 1  # the spy is on the path an argv without a command takes


class TestUsage:
    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_no_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("z", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["audit", "diagnose"])
    def test_bad_think_time_exit_1(self, capsys, capped_csv, command, z):
        with pytest.raises(SystemExit) as exc:
            main([command, capped_csv, "--z", z])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --z: think time must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-3", "nan", "inf", "abc"])
    @pytest.mark.parametrize("flag", ["bound-tol", "retro-tol", "plateau-tol", "span-factor",
                                      "think-tol", "slope-fraction"])
    def test_bad_tolerance_exit_1(self, capsys, capped_csv, profile_path, flag, value):
        self._assert_usage_error(capsys, ["diagnose", capped_csv, "--profile", profile_path,
                                          f"--{flag}", value], flag)

    @pytest.mark.parametrize("value", ["0", "1", "-3", "nan", "inf", "2.5"])
    def test_bad_min_growth_points_exit_1(self, capsys, capped_csv, profile_path, value):
        self._assert_usage_error(capsys, ["diagnose", capped_csv, "--profile", profile_path,
                                          "--min-growth-points", value], "min-growth-points")

    # a value that starts with "-" but not as -1 or -.5 does: argparse would take it for an option
    @pytest.mark.parametrize("command, flag, value, message", [
        ("diagnose", "bound-tol", "-inf", "tolerance must be finite, got -inf"),
        ("diagnose", "bound-tol", "-1e-3", "tolerance must be >= 0.0, got -0.001"),
        ("diagnose", "slope-fraction", "-Infinity", "tolerance must be finite, got -inf"),
        ("diagnose", "z", "-inf", "think time must be finite, got -inf"),
        ("diagnose", "z", "-NaN", "think time must be finite, got nan"),
        ("audit", "z", "-2.5E+3", "think time must be >= 0.0, got -2500.0"),
        ("audit", "plateau-tol", "-1x", "could not convert string to float: '-1x'"),
        ("diagnose", "min-growth-points", "-1e3", "must be an integer, got '-1e3'"),
        ("diagnose", "min-growth-points", "-x", "expected one argument"),
    ])
    def test_negative_number_forms_reach_the_flag_check(self, capsys, capped_csv, command, flag,
                                                        value, message):
        error = self._assert_usage_error(capsys, [command, capped_csv, f"--{flag}", value], flag,
                                         command)
        assert error == f"loadlaw {command}: error: argument --{flag}: {message}"

    @pytest.mark.parametrize("value", ["-1e-3", "-inf", "-0.5"])
    def test_negative_warmup_reaches_the_range_check(self, capsys, tmp_path, value):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n0,5\n10,5\n")
        error = self._assert_usage_error(capsys, ["steady", str(trace), "--warmup", value], "warmup",
                                         "steady")
        assert error == f"loadlaw steady: error: argument --warmup: must be in [0, 1), got {float(value)!r}"

    @pytest.mark.parametrize("value, message", [
        ("1", "must be in [0, 1), got 1.0"),
        ("1.5", "must be in [0, 1), got 1.5"),
        ("nan", "must be in [0, 1), got nan"),
        ("inf", "must be in [0, 1), got inf"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_warmup_exit_1(self, capsys, tmp_path, value, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x_inst\n0,5\n10,5\n")
        error = self._assert_usage_error(capsys, ["steady", str(trace), "--warmup", value], "warmup",
                                         "steady")
        assert error == f"loadlaw steady: error: argument --warmup: {message}"

    @pytest.mark.parametrize("value, message", [
        ("0", "must be >= 1, got 0"),
        ("-3", "must be >= 1, got -3"),
        ("2.5", "must be an integer, got '2.5'"),
        ("1e3", "must be an integer, got '1e3'"),
    ])
    def test_bad_n_max_exit_1(self, capsys, profile_path, value, message):
        error = self._assert_usage_error(capsys, ["simulate", profile_path, "--n-max", value, "--out", "-"],
                                         "n-max", "simulate")
        assert error == f"loadlaw simulate: error: argument --n-max: {message}"

    @staticmethod
    def _assert_usage_error(capsys, argv, flag, command="diagnose"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        *usage, error = captured.err.splitlines()
        assert captured.out == "" and usage[0].startswith(f"usage: loadlaw {command}")
        assert all(line.startswith(" ") for line in usage[1:])
        assert error.startswith(f"loadlaw {command}: error: argument --{flag}: ")
        return error

    @pytest.mark.parametrize("rows", [
        [(10, 0.99, 0.011), (20, 1.98, 0.011)],  # no point beyond the knee at 2002 users
        [(10, 0.99, 0.011), (3000, 199.0, 5.0)],  # one point beyond it
    ], ids=["none-past-knee", "one-past-knee"])
    @pytest.mark.parametrize("extra", [[], ["--bound-tol", "0", "--slope-fraction", "0"]])
    def test_smallest_valid_tolerances_run_without_warnings(self, capsys, tmp_path, profile_path,
                                                            rows, extra):
        series = tmp_path / "s.csv"
        series.write_text("n,x,r\n" + "".join(f"{n},{x},{r}\n" for n, x, r in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["diagnose", str(series), "--profile", profile_path, "--z", "10",
                  "--min-growth-points", "2", *extra])
        assert json.loads(capsys.readouterr().out)["findings"]


class TestNonUtf8Input:
    """A file in another encoding is a parse error (exit 2), not a crash."""

    CASES = {  # name -> (argv before the path, file bytes, stderr line)
        "series": (["audit"], b"# caf\xe9\nn,x,r\n1,2,0.1\n",
                   "line 1: not UTF-8: byte 0xe9 at offset 5"),
        "trace": (["steady"], b"t,x_inst\n0,10\n1,1\xb22\n",
                  "line 3: not UTF-8: byte 0xb2 at offset 17"),
        "profile": (["bounds"],
                    '{"stages":[{"label":"café","service_time":1}],"think_time":0,'
                    '"time_unit":"s"}'.encode("latin-1"),
                    "line 1: not UTF-8: byte 0xe9 at offset 24"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_2_with_one_line(self, capsys, tmp_path, name):
        argv, raw, message = self.CASES[name]
        path = tmp_path / "latin1.input"
        path.write_bytes(raw)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"loadlaw: parse error: {message}\n"


def run_cli(argv, cwd, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m loadlaw argv`` in a fresh interpreter, stdout block-buffered
    as it is in a pipeline: PYTHONUNBUFFERED is taken out of the environment,
    or set to 1 when ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "loadlaw", *argv], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


# each probe through each command that reads its kind of file: (kind, probe, argv with {path})
_PROBE_RUNS = ([("profile", name, argv) for name in sorted(PROFILE_PROBES)
                for argv in (["bounds", "{path}"], ["simulate", "{path}", "--n-max", "3", "--out", "-"],
                             ["diagnose", "{series}", "--profile", "{path}"])]
               + [("csv", name, [command, "{path}"]) for name in sorted(CSV_PROBES)
                  for command in ("diagnose", "audit", "steady")])


@pytest.mark.parametrize("kind, name, argv", _PROBE_RUNS,
                         ids=[f"{name}-{argv[0]}" for _, name, argv in _PROBE_RUNS])
def test_crash_probes_exit_2_with_one_parse_error_line(tmp_path, capped_csv, kind, name, argv):
    raw, message = (PROFILE_PROBES if kind == "profile" else CSV_PROBES)[name]
    path = tmp_path / "probe.input"
    path.write_text(raw)
    proc = run_cli([a.format(path=path, series=capped_csv) for a in argv], tmp_path)
    stderr = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert "Traceback" not in stderr and stderr.count("\n") == 1
    assert stderr.startswith(f"loadlaw: parse error: {message}")


class TestOutputToStdout:
    """A failed write to stdout is an output error: exit 3 with one stderr
    line, and nothing more when the interpreter exits."""

    COMMANDS = {  # name -> argv, with {series} and {profile} filled in
        "diagnose": ["diagnose", "{series}"],
        "audit-json": ["audit", "{series}", "--format", "json"],
        "bounds": ["bounds", "{profile}"],
        # 2,000 rows overflow stdout's buffer, so the write fails inside the command
        "simulate": ["simulate", "{profile}", "--n-max", "2000", "--out", "-"],
        # argparse writes these itself, then exits
        "help": ["--help"],
        "version": ["--version"],
        "diagnose-help": ["diagnose", "--help"],
    }

    @staticmethod
    def run_into(sink, argv, cwd, unbuffered=False):
        """(process, expected errno text) of ``argv`` with stdout on ``sink``."""
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                return run_cli(argv, cwd, stdout=full, unbuffered=unbuffered), "[Errno 28] No space left on device"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return run_cli(argv, cwd, stdout=write_end, unbuffered=unbuffered), "[Errno 32] Broken pipe"
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_failed_stdout_exit_3(self, tmp_path, capped_csv, profile_path, name, sink):
        argv = [a.format(series=capped_csv, profile=profile_path) for a in self.COMMANDS[name]]
        proc, errno = self.run_into(sink, argv, tmp_path)
        assert (proc.returncode, proc.stderr.decode()) == (3, f"loadlaw: cannot write output: {errno}\n")

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize("name", ["help", "version", "diagnose-help"])
    def test_failed_unbuffered_argparse_write_exit_3(self, tmp_path, name, sink):
        # unbuffered, argparse's own write fails, not the flush after it
        proc, errno = self.run_into(sink, self.COMMANDS[name], tmp_path, unbuffered=True)
        assert (proc.returncode, proc.stderr.decode()) == (3, f"loadlaw: cannot write output: {errno}\n")

    def test_dash_out_writes_the_report_to_stdout(self, tmp_path, capped_csv):
        argv = ["diagnose", capped_csv, "--no-fail", "--format", "text"]
        to_stdout = run_cli(argv + ["--out", "-"], tmp_path)
        to_file = run_cli(argv + ["--out", "report.json"], tmp_path)
        assert to_stdout.returncode == to_file.returncode == 0
        assert to_stdout.stdout == to_file.stdout + (tmp_path / "report.json").read_bytes()
        assert not (tmp_path / "-").exists()


def test_importing_the_cli_leaves_statistics_unloaded():
    """The think-time median takes its bits from one np.sort, so the CLI's
    start-up imports no statistics module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, loadlaw.cli; print('statistics' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("outputs", [["--out", "{d}/r.json"], ["--out", "-", "--plot-csv", "{d}/p.csv"],
                                     []], ids=["out", "out-stdout-and-plot", "none"])
def test_one_output_file_resolves_no_path(monkeypatch, capsys, tmp_path, capped_csv, profile_path, outputs):
    """Output paths are resolved only to tell two named files apart."""
    resolved = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", lambda path, **kw: resolved.append(path) or realpath(path, **kw))
    argv = ["diagnose", capped_csv, "--profile", profile_path, "--no-fail"]
    assert main(argv + [a.format(d=tmp_path) for a in outputs]) == 0
    assert resolved == []
