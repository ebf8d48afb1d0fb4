"""Command-line front end.

Subcommands: bounds, simulate, audit, diagnose, steady. Exit codes are a
stable contract, mapped only in ``main``: 0 clean, 1 usage, 2 input parse
or read, 3 output I/O (stdout included), 4 diagnostic failure (suppressible
with --no-fail where diagnosis is the point of the command). Every output flag
takes ``-`` for stdout; diagnose writes format output, --out, --plot-csv, --combined-csv in order,
and refuses two of them that name one file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from ._version import __version__
from .curves import solve_reference
from .ingest import (
    InsufficientSteadyStateError,
    ParseError,
    _csv_lines,
    _float_texts,
    _int_texts,
    parse_profile,
    parse_series,
    parse_trace,
    steady_state_average,
)
from .diagnostics import _MIN_LINE_POINTS, RESPONSE_FLATTENING
from .model import _check_finite_number, bounds_summary
from .report import (VERDICT_BROKEN, VERDICT_CLEAN, DetectorConfig, Report, _report, audit_series,
                     diagnose_series, plot_rows)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_OUTPUT = 3
EXIT_DIAGNOSTIC = 4

COMBINED_PLOT_CAVEAT = ("combined throughput-delay view: the optimal-load knee cannot be "
                        "located in this projection; use the separate X(N) and R(N) plots")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value that starts with "-" as a number only in the
        # forms -1 and -.5, so "-inf" or "-1e-3" would be taken for an option
        # and the flag before it would lack its value: anything that starts
        # like a number is a value, left to the flag's own type check
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    # argparse exits 2 on bad usage by default; our contract reserves 2
    # for input parse failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse drops an OSError from any write it makes; one to stdout (--help,
    # --version) is the output's, so it reaches main as exit 3
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs more than a small job."""
    parser = _Parser(prog="loadlaw",
                     description="Operational-law diagnostics for closed-loop load tests.")
    parser.add_argument("--version", action="version", version=f"loadlaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("bounds",
                       help="throughput ceiling, response floor and optimal load for a profile")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate",
                       help="write the lawful reference curves for a profile as CSV")
    p.add_argument("profile", help="profile JSON path")
    p.add_argument("--n-max", type=_integer_at_least(1), required=True,
                   help="largest client count to solve")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit",
                       help="Little's-law audit of a measured series")
    p.add_argument("series", help="series CSV path")
    _series_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-fail", action="store_true",
                   help="exit 0 even when critical findings are present")
    _tolerance_flags(p, ("plateau-tol", "span-factor", "think-tol"))
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("diagnose",
                       help="run the full detector suite against a measured series")
    p.add_argument("series", help="series CSV path")
    p.add_argument("--profile", help="profile JSON path (enables exact bounds and the ceiling check)")
    _series_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.add_argument("--plot-csv", help="write measured points with bounding lines to this CSV")
    p.add_argument("--combined-csv",
                   help="write the combined throughput-delay projection to this CSV "
                        "(cannot locate the optimal-load knee; noted in the file)")
    p.add_argument("--no-fail", action="store_true",
                   help="exit 0 even when the verdict is suspect or broken")
    _tolerance_flags(p, ("bound-tol", "retro-tol", "plateau-tol", "span-factor",
                         "think-tol", "slope-fraction", "min-growth-points"))
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("steady",
                       help="steady-state time-averaged throughput of an instantaneous trace")
    p.add_argument("trace", help="trace CSV path (t,x_inst)")
    p.add_argument("--warmup", type=_warmup, default=0.25,
                   help="fraction of the trace span to discard as warm-up (default 0.25)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_steady)
    # command name -> its parser, and -> the option table _parse_args reads its argv by
    parser.commands = sub.choices
    parser.tables = {name: _option_table(command) for name, command in sub.choices.items()}
    return parser


def _option_table(command: argparse.ArgumentParser):
    """Each option string of the command's store and store_true actions, its
    positionals, its required options and its defaults. No string default
    has a type, so argparse would convert none of them."""
    actions = command._actions
    positionals = [a for a in actions if not a.option_strings]
    options = {text: a for a in actions if type(a) in (argparse._StoreAction, argparse._StoreTrueAction)
               and a.nargs in (None, 0) for text in a.option_strings}
    defaults = {a.dest: a.default for a in actions
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    required = {a for a in actions if a.required and a.option_strings}
    return options, positionals, required, {**command._defaults, **defaults}


def _series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-unit", choices=("s", "ms"), default="s",
                   help="unit of a bare 'r' column (suffixed r_s/r_ms headers declare themselves)")
    p.add_argument("--z", type=_think_time, default=None, metavar="SECONDS",
                   help="think time the harness was configured with")


def _nonnegative(name: str):
    """An argparse type for a finite number >= 0, named ``name`` when refused."""
    def parse(text: str) -> float:
        try:
            return _check_finite_number(float(text), name, 0.0, strict=False)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_think_time = _nonnegative("think time")
_tolerance = _nonnegative("tolerance")


def _warmup(text: str) -> float:
    """An argparse type for a warm-up fraction: finite and in [0, 1)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value!r}")
    return value


def _integer_at_least(minimum: int):
    """An argparse type for an integer >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _tolerance_flags(p: argparse.ArgumentParser, names) -> None:
    defaults = DetectorConfig()
    flags = {
        "bound-tol": ("bound_rel_tol", _tolerance, "relative tolerance for the throughput ceiling check"),
        "retro-tol": ("retrograde_rel_tol", _tolerance, "relative drop that counts as retrograde"),
        "plateau-tol": ("plateau_tol", _tolerance, "relative n_run spread that still counts as a plateau"),
        "span-factor": ("span_factor", _tolerance, "minimum load growth across a plateau"),
        "think-tol": ("think_time_rel_tol", _tolerance, "relative deviation allowed for implied think time"),
        "slope-fraction": ("slope_fraction", _tolerance,
                           "fraction of the bottleneck slope below which response is flat"),
        "min-growth-points": ("min_growth_points", _integer_at_least(_MIN_LINE_POINTS),
                              "post-knee points needed to classify growth"),
    }
    for name in names:
        dest, typ, help_text = flags[name]
        p.add_argument(f"--{name}", dest=dest, type=typ, default=getattr(defaults, dest),
                       help=f"{help_text} (default {getattr(defaults, dest)})")


def _config_from(args: argparse.Namespace) -> DetectorConfig:
    config = DetectorConfig()
    for field_name in vars(config):
        if hasattr(args, field_name):
            setattr(config, field_name, getattr(args, field_name))
    return config


def _read_file(path: str) -> bytes:
    """The bytes of an input file; an OSError here is the input's, not the output's."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _UnreadableInput(exc) from None


def _open_output(path: str):
    """A context manager for the text file ``path``, or for stdout, left open, when ``path`` is ``-``."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")


def _load_series(args: argparse.Namespace):
    return parse_series(_read_file(args.series), r_unit=args.r_unit, configured_think_time=args.z)


def cmd_bounds(args: argparse.Namespace) -> int:
    summary = bounds_summary(parse_profile(_read_file(args.profile)))
    if args.format == "json":
        print(_report({"profile": args.profile}, summary, None, None, []).to_json())
    else:
        tie = f" (tied with: {', '.join(summary.tied_labels)})" if summary.tied_labels else ""
        print(f"bottleneck:  {summary.bottleneck_label}{tie}")
        print(f"x_max:       {summary.x_max:g} TPS")
        print(f"r_min:       {summary.r_min:g} s")
        print(f"n_opt:       {summary.n_opt:g} VUsers")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    profile = parse_profile(_read_file(args.profile))
    try:
        curves = solve_reference(profile, args.n_max)
    except MemoryError as exc:
        raise _UsageError(f"--n-max {args.n_max}: the curves do not fit in memory ({exc})") from None
    with _open_output(args.out) as fh:
        curves.write_csv(fh)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    series = _load_series(args)
    report = audit_series(series, config=_config_from(args), inputs={"series": args.series})
    if args.format == "json":
        print(report.to_json())
    else:
        _print_audit_text(report)
    if report.verdict == VERDICT_BROKEN and not args.no_fail:
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _print_audit_text(report: Report) -> None:
    print(f"{'n_was':>8} {'x_was':>10} {'r_was':>10} {'n_run':>10} {'n_idle':>10}")
    for row in report.audit:
        print(f"{row.n_was:>8d} {row.x_was:>10.3f} {row.r_was:>10.4f} "
              f"{row.n_run:>10.2f} {row.n_idle:>10.2f}")
    _print_findings(report)


def _print_findings(report: Report) -> None:
    for f in report.findings:
        points = f" (points: {', '.join(map(str, f.affected_points))})" if f.affected_points else ""
        print(f"[{f.severity}] {f.detector}: {f.message}{points}")
    print(f"verdict: {report.verdict}")


def _distinct_outputs(args: argparse.Namespace) -> None:
    """Refuse two output flags that name one file: the later write would replace the earlier.
    Paths are resolved only when two or more files are named."""
    named = [(flag, path) for flag in ("--out", "--plot-csv", "--combined-csv")
             if (path := getattr(args, flag[2:].replace("-", "_"))) and path != "-"]
    if len(named) < 2:
        return
    flags = {}
    for flag, path in named:
        other = flags.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise _UsageError(f"{other} and {flag} name the same file {path!r}")


def cmd_diagnose(args: argparse.Namespace) -> int:
    _distinct_outputs(args)
    series = _load_series(args)
    profile = parse_profile(_read_file(args.profile)) if args.profile else None
    inputs = {"series": args.series}
    if args.profile:
        inputs["profile"] = args.profile
    report = diagnose_series(series, profile, config=_config_from(args), inputs=inputs)
    if args.plot_csv and report.knee is None:
        note = next(f.message for f in report.findings if f.detector == RESPONSE_FLATTENING)
        raise _UsageError(f"--plot-csv: no bounding lines to write, {note}")

    # serialized once: stdout and --out carry the same bytes
    report_json = report.to_json() if args.format == "json" or args.out else None
    if args.format == "json":
        print(report_json)
    else:
        _print_diagnose_text(report)
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(report_json)
            fh.write("\n")
    if args.plot_csv:
        _write_plot_csv(args.plot_csv, series, report)
    if args.combined_csv:
        _write_combined_csv(args.combined_csv, series)
    if report.verdict != VERDICT_CLEAN and not args.no_fail:
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _print_diagnose_text(report: Report) -> None:
    if report.bounds is not None:
        b = report.bounds
        print(f"bounds: x_max {b.x_max:g} TPS, r_min {b.r_min:g} s, "
              f"n_opt {b.n_opt:g} VUsers, bottleneck {b.bottleneck_label}")
    if report.knee is not None:
        k = report.knee
        print(f"knee ({k.basis}): s_max {k.s_max_hat:g} s, r_min {k.r_min_hat:g} s, "
              f"n_opt {k.n_opt_hat:g} VUsers")
    _print_findings(report)


def _write_plot_csv(path: str, series, report: Report) -> None:
    rows = plot_rows(series, report.knee)
    with _open_output(path) as fh:
        fh.write("n,x_measured,r_measured,x_upper_bound,r_lower_bound\n")
        fh.write(_csv_lines([_int_texts([row[0] for row in rows]), _float_texts([row[1:] for row in rows])]))


def _write_combined_csv(path: str, series) -> None:
    with _open_output(path) as fh:
        fh.write(f"# {COMBINED_PLOT_CAVEAT}\n")
        fh.write("x,r,n\n")
        fh.write(_csv_lines([_float_texts(series.x), _float_texts(series.r), _int_texts(series.n)]))


def cmd_steady(args: argparse.Namespace) -> int:
    x_bar, window = steady_state_average(parse_trace(_read_file(args.trace)), warmup_fraction=args.warmup)
    if args.format == "json":
        print(json.dumps({"x_bar": x_bar, "window": list(window)}))
    else:
        print(f"x_bar:  {x_bar:g}")
        print(f"window: ({window[0]:g}, {window[1]:g})")
    return EXIT_OK


def _plain(text: str) -> bool:
    """Whether argparse takes ``text`` for a value whatever the options are."""
    return text[:1] != "-" or text == "-"


def _read_by_table(table, argv: list) -> argparse.Namespace | None:
    """``argv`` read in one pass over its command's option table, each value
    checked by its action's type and choices as argparse checks it; None when
    it holds more than exact option strings, their plain values and the
    positionals, or argparse would refuse it."""
    options, positionals, required, defaults = table
    values, seen, texts, pending = {"command": argv[0], **defaults}, set(), [], []
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if not _plain(token):
                return None
            texts.append(token)
            continue
        seen.add(action)
        if action.nargs is None:
            value = next(tokens, None)
            if value is None or not _plain(value):
                return None
            pending.append((action, value))
        else:
            values[action.dest] = action.const
    if len(texts) != len(positionals) or not required <= seen:
        return None
    pending += zip(positionals, texts)
    for action, text in pending:
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, to the same Namespace or exit: an
    argv that starts with a command is read by that command's option table,
    and every argv the table does not read by argparse's own ``parse_args``."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = parser.tables.get(argv[0]) if argv else None
    args = None if table is None else _read_by_table(table, argv)
    return parser.parse_args(argv) if args is None else args


class _UsageError(Exception):
    pass


class _UnreadableInput(Exception):
    """An OSError that ``_read_file`` met, carried past main's output handler."""


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit:
            # argparse has buffered --help or --version and is exiting: a failed write is exit 3 here
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except ParseError as exc:
        code, message = EXIT_PARSE, f"parse error: {exc}"
    except _UnreadableInput as exc:
        code, message = EXIT_PARSE, f"cannot read input: {exc}"
    except InsufficientSteadyStateError as exc:
        code, message = EXIT_DIAGNOSTIC, str(exc)
    except OSError as exc:
        code, message = EXIT_OUTPUT, f"cannot write output: {exc}"
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself failed: point it at devnull (the signal docs' EPIPE recipe) or exit fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    print(f"loadlaw: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
