"""Parsers for load-test artifacts and steady-state trace averaging.

Three inputs are understood:

* series CSV: header ``n,x`` plus one of ``r`` / ``r_ms`` / ``r_s``,
  one row per load point, ``#`` comment lines ignored;
* profile JSON: ``{"stages": [{"label", "service_time"}, ...],
  "think_time": number, "time_unit": "s"|"ms"}``;
* trace CSV: header ``t,x_inst`` with instantaneous throughput samples.

Response-time units are never guessed. A suffixed header (``r_ms``,
``r_s``) declares its own unit; a bare ``r`` takes the unit from the
format descriptor, which defaults to seconds. Everything is converted to
seconds on the way in, because mixed-unit arithmetic is precisely the
kind of mistake this toolkit exists to catch.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import ServiceProfile, Stage

_R_COLUMN_UNITS = {"r": None, "r_s": "s", "r_ms": "ms"}
_UNIT_DIVISOR = {"s": 1.0, "ms": 1000.0}


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientSteadyStateError(ValueError):
    """The trace yields no finite steady-state average: too little of it
    survives the warm-up cut, or its span or area overflows float64."""


# the largest load a series holds: past 2**53 float arithmetic on n
# (n / x, n - x*r, comparisons with the knee) no longer tells counts apart
MAX_N = 2 ** 53


@dataclass(frozen=True)
class LoadPoint:
    """One measured (N, X, R) triple, R in seconds."""

    n: int
    x: float
    r: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_N:
            raise ValueError(f"n must be <= 2**53, got {self.n}")
        for name in ("x", "r"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be a number, got {v!r}")
            v = float(v)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


class _Rows(Sequence):
    """Rows of equal-length columns, each built by ``row`` only when indexed or iterated."""

    __slots__ = ("_row", "_columns")

    def __init__(self, row, *columns: np.ndarray):
        self._row = row
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._row(*(column[i].item() for column in self._columns))

    def __iter__(self):
        return map(self._row, *(column.tolist() for column in self._columns))

    def __eq__(self, other):
        if isinstance(other, (tuple, _Rows)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _first_bad_row(bad: np.ndarray, key: np.ndarray) -> int:
    """Index of the first row, in row order, that fails its own value check
    (``bad``, updated in place) or whose key does not exceed the row before's;
    -1 when every row passes."""
    bad[1:] |= key[1:] <= key[:-1]
    return int(bad.argmax()) if bad.any() else -1


class _RowError(ValueError):
    """A column check refused row ``row`` (0-based) with its own message."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, init=False, eq=False)
class LoadSeries:
    """A measured load sweep: points strictly increasing in n.

    Stored as read-only columns: ``n`` (int64), ``x`` and ``r`` (float64,
    r in seconds). ``points`` views them as LoadPoints for code that
    wants one object per point. ``configured_think_time`` is the pacing
    the harness claims to apply, if any; detectors compare it against
    what the data implies.
    """

    n: np.ndarray
    x: np.ndarray
    r: np.ndarray
    configured_think_time: float | None
    source_label: str

    def __init__(self, points, configured_think_time: float | None = None,
                 source_label: str = ""):
        points = tuple(points)
        self._set_columns(np.array([p.n for p in points], dtype=np.int64),
                          np.array([p.x for p in points], dtype=np.float64),
                          np.array([p.r for p in points], dtype=np.float64),
                          configured_think_time, source_label)

    @classmethod
    def from_arrays(cls, n, x, r, configured_think_time: float | None = None,
                    source_label: str = "") -> "LoadSeries":
        """A series from columns, checked as LoadPoint and LoadSeries check points.

        ``n`` must hold integers; the columns are copied. The first bad
        row, in row order, raises LoadPoint's own message or the order
        check's.
        """
        n = np.array(n)
        if n.size and n.dtype.kind not in "iu":
            raise ValueError(f"n must hold integers, got dtype {n.dtype}")
        n = n.astype(np.int64)
        x = np.array(x, dtype=np.float64)
        r = np.array(r, dtype=np.float64)
        if not n.shape == x.shape == r.shape or n.ndim != 1:
            raise ValueError(f"n, x and r must be 1-d and of one length, got shapes "
                             f"{n.shape}, {x.shape}, {r.shape}")
        series = cls.__new__(cls)
        series._set_columns(n, x, r, configured_think_time, source_label)
        return series

    def _set_columns(self, n, x, r, configured_think_time, source_label) -> None:
        if not len(n):
            raise ValueError("series needs at least one point")
        _check_points(n, x, r)
        z = configured_think_time
        if z is not None:
            if isinstance(z, bool) or not isinstance(z, (int, float)) or not math.isfinite(float(z)) or z < 0:
                raise ValueError(f"configured_think_time must be finite and >= 0, got {z!r}")
            z = float(z)
        for column in (n, x, r):
            column.flags.writeable = False
        for name, value in (("n", n), ("x", x), ("r", r), ("configured_think_time", z),
                            ("source_label", source_label)):
            object.__setattr__(self, name, value)

    @property
    def points(self) -> Sequence[LoadPoint]:
        return _Rows(LoadPoint, self.n, self.x, self.r)

    def __eq__(self, other):
        if not isinstance(other, LoadSeries):
            return NotImplemented
        return (np.array_equal(self.n, other.n) and np.array_equal(self.x, other.x)
                and np.array_equal(self.r, other.r)
                and self.configured_think_time == other.configured_think_time
                and self.source_label == other.source_label)

    def __hash__(self):
        # over Python floats, not the columns' bytes: -0.0 == 0.0 must hash alike
        return hash((tuple(self.n.tolist()), tuple(self.x.tolist()), tuple(self.r.tolist()),
                     self.configured_think_time, self.source_label))

    def __repr__(self) -> str:
        return (f"LoadSeries(points={self.points!r}, configured_think_time="
                f"{self.configured_think_time!r}, source_label={self.source_label!r})")


def _order_error(n: int, prev: int) -> str:
    if n == prev:
        return f"duplicate load point n={n}"
    return f"load points must be strictly increasing in n (n={n} after n={prev})"


def _check_points(n: np.ndarray, x: np.ndarray, r: np.ndarray) -> None:
    """Raise _RowError for the first row that LoadPoint's value check
    refuses or whose n does not exceed the row before's."""
    i = _first_bad_row((n < 1) | (n > MAX_N) | ~(np.isfinite(x) & (x >= 0))
                       | ~(np.isfinite(r) & (r >= 0)), n)
    if i < 0:
        return
    try:
        LoadPoint(int(n[i]), float(x[i]), float(r[i]))
    except ValueError as exc:
        raise _RowError(str(exc), i) from None
    raise _RowError(_order_error(int(n[i]), int(n[i - 1])), i)


def _check_samples(t: np.ndarray, x: np.ndarray) -> None:
    """Raise _RowError for the first sample whose t does not exceed the one
    before's or that is not finite with x >= 0, checked in that order."""
    i = _first_bad_row(~(np.isfinite(t) & np.isfinite(x) & (x >= 0)), t)
    if i < 0:
        return
    if i and t[i] <= t[i - 1]:
        raise _RowError("trace timestamps must be strictly increasing", i)
    raise _RowError(f"trace sample ({t[i].item()!r}, {x[i].item()!r}) must be finite with x_inst >= 0", i)


def _sample(t: float, x: float) -> tuple[float, float]:
    return t, x


@dataclass(frozen=True, init=False, eq=False)
class ThroughputTrace:
    """Instantaneous throughput samples from one load level.

    Stored as read-only float64 columns: ``t`` (strictly increasing) and
    ``x`` (the x_inst samples, finite and >= 0). ``samples`` views them
    as (t, x_inst) pairs for code that wants one tuple per sample.
    """

    t: np.ndarray
    x: np.ndarray

    def __init__(self, samples):
        pairs = np.array([(float(t), float(x)) for t, x in samples],
                         dtype=np.float64).reshape(-1, 2)
        self._set_columns(pairs[:, 0].copy(), pairs[:, 1].copy())

    @classmethod
    def from_arrays(cls, t, x) -> "ThroughputTrace":
        """A trace from columns, checked as the samples constructor checks them.

        The columns are copied.
        """
        t = np.array(t, dtype=np.float64)
        x = np.array(x, dtype=np.float64)
        if t.shape != x.shape or t.ndim != 1:
            raise ValueError(f"t and x must be 1-d and of one length, got shapes {t.shape}, {x.shape}")
        trace = cls.__new__(cls)
        trace._set_columns(t, x)
        return trace

    def _set_columns(self, t, x) -> None:
        if not len(t):
            raise ValueError("trace needs at least one sample")
        _check_samples(t, x)
        for column in (t, x):
            column.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def samples(self) -> Sequence[tuple[float, float]]:
        return _Rows(_sample, self.t, self.x)

    def __eq__(self, other):
        if not isinstance(other, ThroughputTrace):
            return NotImplemented
        return np.array_equal(self.t, other.t) and np.array_equal(self.x, other.x)

    def __hash__(self):
        # over Python floats, not the columns' bytes: -0.0 == 0.0 must hash alike
        return hash((tuple(self.t.tolist()), tuple(self.x.tolist())))

    def __repr__(self) -> str:
        return f"ThroughputTrace(samples={self.samples!r})"


@dataclass(frozen=True)
class SeriesFormat:
    """Unit declaration for series CSVs.

    ``r_unit`` applies when the response column is a bare ``r``;
    suffixed headers declare themselves.
    """

    r_unit: str = "s"

    def __post_init__(self):
        if self.r_unit not in _UNIT_DIVISOR:
            raise ValueError(f"unknown response-time unit {self.r_unit!r}; use one of {sorted(_UNIT_DIVISOR)}")


def _as_text(raw) -> str:
    # a text-mode file decodes inside read(), so both steps share the handler
    try:
        if not isinstance(raw, (bytes, str)):
            raw = raw.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        data, start = exc.object, exc.start
        raise ParseError(f"not UTF-8: byte 0x{data[start]:02x} at offset {start}",
                         line=data.count(b"\n", 0, start) + 1) from None
    # drop the byte-order mark that Excel and PowerShell exports start with
    return raw.removeprefix("\ufeff")


def _rows(text: str):
    """(line number, cells) of each non-comment, non-blank line; cells unstripped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            # csv.reader splits a line without quotes exactly where str.split does
            yield lineno, next(csv.reader([line])) if '"' in line else line.split(",")


def _header(rows, required: tuple[str, ...]) -> tuple[int, dict[str, int]]:
    """Line number of the first row and its lowercased column names -> index;
    every ``required`` name must be among them."""
    for header_line, cells in rows:
        columns = {name.strip().lower(): i for i, name in enumerate(cells)}
        for name in required:
            if name not in columns:
                raise ParseError(f"missing required column {name!r}", line=header_line)
        return header_line, columns
    raise ParseError("empty file: expected a header row")


def _joined(cells: list[str]) -> str:
    return ",".join(c.strip() for c in cells)


def _row_error(lineno: int, cells: list[str], width: int) -> ParseError:
    """The error for a row too short for the columns read or with a cell that does not convert."""
    if len(cells) <= width:
        return ParseError(f"expected at least {width + 1} columns, got {len(cells)}", line=lineno)
    return ParseError(f"malformed row: {_joined(cells)!r}", line=lineno)


def _data_row(text: str, i: int) -> tuple[int, list[str]]:
    """(line number, cells) of the ``i``-th row after the header, 0-based."""
    return next(itertools.islice(_rows(text), i + 1, None))


def parse_series(raw, fmt: SeriesFormat | None = None, *,
                 configured_think_time: float | None = None,
                 source_label: str = "") -> LoadSeries:
    """Parse a load-series CSV into a validated LoadSeries in seconds.

    Raises ParseError with the offending line number for malformed rows,
    duplicate or out-of-order load points, and unit/header problems. The
    first bad row in the file is the one reported.
    """
    if fmt is None:
        fmt = SeriesFormat()
    text = _as_text(raw)
    rows = _rows(text)
    header_line, columns = _header(rows, ("n", "x"))
    present = [name for name in _R_COLUMN_UNITS if name in columns]
    if not present:
        raise ParseError("missing response-time column: expected one of r, r_s, r_ms",
                         line=header_line)
    if len(present) > 1:
        raise ParseError(f"ambiguous response-time columns {sorted(present)}", line=header_line)
    n_idx, x_idx, r_idx = columns["n"], columns["x"], columns[present[0]]
    divisor = _UNIT_DIVISOR[_R_COLUMN_UNITS[present[0]] or fmt.r_unit]

    # convert up to the first row too short or with a cell that does not convert;
    # the value and order checks then run once, on the columns
    width = max(n_idx, x_idx, r_idx)
    ns: list[int] = []
    xs: list[float] = []
    rs: list[float] = []
    failure = None
    for lineno, cells in rows:
        try:
            n, x, r = int(cells[n_idx].strip()), float(cells[x_idx].strip()), float(cells[r_idx].strip())
        except (IndexError, ValueError):
            failure = _row_error(lineno, cells, width)
            break
        ns.append(n)
        xs.append(x)
        rs.append(r)
    try:
        n = np.array(ns, dtype=np.int64)
    except OverflowError:
        # an n past int64 has no column to go into; the first n out of LoadPoint's
        # range ends the rows, as a conversion failure would, after the rows before it
        i = next(i for i, v in enumerate(ns) if not 1 <= v <= MAX_N)
        try:
            LoadPoint(ns[i], xs[i], rs[i])
        except ValueError as exc:
            failure = ParseError(str(exc), line=_data_row(text, i)[0])
        n, xs, rs = np.array(ns[:i], dtype=np.int64), xs[:i], rs[:i]
    x, r = np.array(xs, dtype=np.float64), np.array(rs, dtype=np.float64) / divisor
    try:
        if failure is None:
            if not len(n):
                raise ParseError("no data rows")
            return LoadSeries.from_arrays(n, x, r, configured_think_time=configured_think_time,
                                          source_label=source_label)
        _check_points(n, x, r)
        raise failure
    except _RowError as exc:
        raise ParseError(str(exc), line=_data_row(text, exc.row)[0]) from None


def serialize_series(series: LoadSeries) -> str:
    """Series back to CSV (seconds); parse_series inverts this exactly."""
    lines = ["n,x,r"]
    for n, x, r in zip(series.n.tolist(), series.x.tolist(), series.r.tolist()):
        lines.append(f"{n},{x!r},{r!r}")
    return "\n".join(lines) + "\n"


def parse_trace(raw) -> ThroughputTrace:
    """Parse a t,x_inst trace CSV.

    Raises ParseError with the line number of the first bad row in the
    file: too short, malformed, out of order, or not finite with
    x_inst >= 0.
    """
    text = _as_text(raw)
    rows = _rows(text)
    _, columns = _header(rows, ("t", "x_inst"))
    t_idx, x_idx = columns["t"], columns["x_inst"]

    # convert up to the first row too short or with a cell that does not convert;
    # the order and value checks then run once, on the columns
    width = max(t_idx, x_idx)
    ts: list[float] = []
    xs: list[float] = []
    failure = None
    for lineno, cells in rows:
        try:
            t, x = float(cells[t_idx].strip()), float(cells[x_idx].strip())
        except (IndexError, ValueError):
            failure = _row_error(lineno, cells, width)
            break
        ts.append(t)
        xs.append(x)
    try:
        if failure is None:
            if not ts:
                raise ParseError("no data rows")
            return ThroughputTrace.from_arrays(ts, xs)
        _check_samples(np.array(ts, dtype=np.float64), np.array(xs, dtype=np.float64))
        raise failure
    except _RowError as exc:
        i = exc.row
        lineno, cells = _data_row(text, i)
        if i and ts[i] <= ts[i - 1]:
            raise ParseError(f"timestamps must be strictly increasing (t={ts[i]!r})", line=lineno) from None
        raise ParseError(f"sample must be finite with x_inst >= 0: {_joined(cells)!r}", line=lineno) from None


def parse_profile(raw) -> ServiceProfile:
    """Parse a profile JSON object into a ServiceProfile in seconds."""
    try:
        doc = json.loads(_as_text(raw))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("profile must be a JSON object")

    unit = doc.get("time_unit")
    if unit not in _UNIT_DIVISOR:
        raise ParseError(f"profile time_unit must be one of {sorted(_UNIT_DIVISOR)}, got {unit!r}")
    divisor = _UNIT_DIVISOR[unit]

    raw_stages = doc.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ParseError("profile needs a nonempty 'stages' array")
    if "think_time" not in doc:
        raise ParseError("profile is missing 'think_time'")
    think_time = doc["think_time"]
    if isinstance(think_time, bool) or not isinstance(think_time, (int, float)):
        raise ParseError(f"think_time must be a number, got {think_time!r}")

    stages = []
    for i, entry in enumerate(raw_stages):
        if not isinstance(entry, dict) or "label" not in entry or "service_time" not in entry:
            raise ParseError(f"stage #{i + 1} must be an object with 'label' and 'service_time'")
        st = entry["service_time"]
        if isinstance(st, bool) or not isinstance(st, (int, float)):
            raise ParseError(f"stage #{i + 1}: service_time must be a number, got {st!r}")
        try:
            stages.append(Stage(label=entry["label"], service_time=float(st) / divisor))
        except ValueError as exc:
            raise ParseError(f"stage #{i + 1}: {exc}") from None
    try:
        return ServiceProfile(stages=tuple(stages), think_time=float(think_time) / divisor)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def steady_state_average(trace: ThroughputTrace,
                         warmup_fraction: float = 0.25) -> tuple[float, tuple[float, float]]:
    """Time-averaged throughput over the steady part of a trace.

    Drops everything before ``warmup_fraction`` of the trace span has
    elapsed, then takes the trapezoidal time-weighted mean of the
    remaining samples (traces need not be evenly sampled). The returned
    window is (first kept timestamp, last timestamp); the averaged value
    is what becomes a LoadPoint's x. The sum runs left to right, as a
    loop over the samples would add it, so the result is the same to
    the bit.

    Raises InsufficientSteadyStateError when fewer than two samples are
    kept, or when the span or the area overflows float64.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")
    t, x = trace.t, trace.x
    t_start, t_end = t[0].item(), t[-1].item()
    if not math.isfinite(t_end - t_start):
        raise InsufficientSteadyStateError(
            f"trace span from t={t_start:g} to t={t_end:g} overflows float64; "
            "cannot form a steady-state average")
    cut = t_start + warmup_fraction * (t_end - t_start)
    first = int(np.searchsorted(t, cut, "left"))
    kept = len(t) - first
    if kept < 2:
        raise InsufficientSteadyStateError(
            f"only {kept} sample(s) at or after the warm-up cut t={cut:g}; "
            "cannot form a steady-state average")
    kt, kx = t[first:], x[first:]
    with np.errstate(over="ignore"):
        terms = 0.5 * (kx[:-1] + kx[1:]) * (kt[1:] - kt[:-1])
    # cumsum adds left to right (np.sum pairs); 0.0 + turns an all -0.0 sum into 0.0
    area = 0.0 + np.cumsum(terms)[-1].item()
    if not math.isfinite(area):
        raise InsufficientSteadyStateError(
            f"trace area from t={kt[0].item():g} to t={t_end:g} overflows float64; "
            "cannot form a steady-state average")
    return area / (t_end - kt[0].item()), (kt[0].item(), t_end)
