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
    """Too little of the trace survives the warm-up cut to average."""


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


class _Points(Sequence):
    """A series' points as LoadPoints, built only when indexed or iterated."""

    __slots__ = ("_series",)

    def __init__(self, series: "LoadSeries"):
        self._series = series

    def __len__(self) -> int:
        return len(self._series.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        s = self._series
        return LoadPoint(int(s.n[i]), float(s.x[i]), float(s.r[i]))

    def __iter__(self):
        s = self._series
        return map(LoadPoint, s.n.tolist(), s.x.tolist(), s.r.tolist())

    def __eq__(self, other):
        if isinstance(other, (tuple, _Points)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


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

        ``n`` must hold integers; the columns are copied.
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
        bad = (n < 1) | (n > MAX_N) | ~(np.isfinite(x) & (x >= 0)) | ~(np.isfinite(r) & (r >= 0))
        if bad.any():
            i = int(bad.argmax())
            LoadPoint(int(n[i]), float(x[i]), float(r[i]))  # raises the point's own message
        series = cls.__new__(cls)
        series._set_columns(n, x, r, configured_think_time, source_label)
        return series

    def _set_columns(self, n, x, r, configured_think_time, source_label) -> None:
        if not len(n):
            raise ValueError("series needs at least one point")
        steps = np.diff(n)
        if (steps <= 0).any():
            i = int((steps <= 0).argmax())
            raise ValueError(_order_error(int(n[i + 1]), int(n[i])))
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
        return _Points(self)

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


@dataclass(frozen=True)
class ThroughputTrace:
    """Instantaneous throughput samples (t, x_inst) from one load level."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        samples = tuple((float(t), float(x)) for t, x in self.samples)
        if not samples:
            raise ValueError("trace needs at least one sample")
        for (t, x) in samples:
            if not (math.isfinite(t) and math.isfinite(x)) or x < 0:
                raise ValueError(f"trace sample ({t!r}, {x!r}) must be finite with x_inst >= 0")
        for (t0, _), (t1, _) in zip(samples, samples[1:]):
            if t1 <= t0:
                raise ValueError("trace timestamps must be strictly increasing")
        object.__setattr__(self, "samples", samples)


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


def _cells(line: str) -> list[str]:
    # csv.reader splits a line without quotes exactly where str.split does
    return next(csv.reader([line])) if '"' in line else line.split(",")


def _rows(text: str):
    """(line number, cells) of each non-comment, non-blank line; cells unstripped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, _cells(line)


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


def parse_series(raw, fmt: SeriesFormat | None = None, *,
                 configured_think_time: float | None = None,
                 source_label: str = "") -> LoadSeries:
    """Parse a load-series CSV into a validated LoadSeries in seconds.

    Raises ParseError with the offending line number for malformed rows,
    duplicate or out-of-order load points, and unit/header problems.
    """
    if fmt is None:
        fmt = SeriesFormat()
    rows = _rows(_as_text(raw))
    header_line, columns = _header(rows, ("n", "x"))
    present = [name for name in _R_COLUMN_UNITS if name in columns]
    if not present:
        raise ParseError("missing response-time column: expected one of r, r_s, r_ms",
                         line=header_line)
    if len(present) > 1:
        raise ParseError(f"ambiguous response-time columns {sorted(present)}", line=header_line)
    n_idx, x_idx, r_idx = columns["n"], columns["x"], columns[present[0]]
    divisor = _UNIT_DIVISOR[_R_COLUMN_UNITS[present[0]] or fmt.r_unit]

    # one pass, checks in LoadPoint's order and then against the previous point
    width = max(n_idx, x_idx, r_idx)
    ns: list[int] = []
    xs: list[float] = []
    rs: list[float] = []
    prev = 0
    for lineno, cells in rows:
        if len(cells) <= width:
            raise ParseError(f"expected at least {width + 1} columns, got {len(cells)}", line=lineno)
        try:
            n = int(cells[n_idx].strip())
            x = float(cells[x_idx].strip())
            r = float(cells[r_idx].strip()) / divisor
        except ValueError:
            raise ParseError(f"malformed row: {_joined(cells)!r}", line=lineno) from None
        if not (1 <= n <= MAX_N and 0.0 <= x < math.inf and 0.0 <= r < math.inf):
            try:
                LoadPoint(n=n, x=x, r=r)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
        if n <= prev:
            raise ParseError(_order_error(n, prev), line=lineno)
        prev = n
        ns.append(n)
        xs.append(x)
        rs.append(r)
    if not ns:
        raise ParseError("no data rows")
    return LoadSeries.from_arrays(ns, xs, rs, configured_think_time=configured_think_time,
                                  source_label=source_label)


def serialize_series(series: LoadSeries) -> str:
    """Series back to CSV (seconds); parse_series inverts this exactly."""
    lines = ["n,x,r"]
    for n, x, r in zip(series.n.tolist(), series.x.tolist(), series.r.tolist()):
        lines.append(f"{n},{x!r},{r!r}")
    return "\n".join(lines) + "\n"


def parse_trace(raw) -> ThroughputTrace:
    """Parse a t,x_inst trace CSV."""
    rows = _rows(_as_text(raw))
    _, columns = _header(rows, ("t", "x_inst"))
    t_idx, x_idx = columns["t"], columns["x_inst"]

    samples: list[tuple[float, float]] = []
    for lineno, cells in rows:
        if len(cells) <= max(t_idx, x_idx):
            raise ParseError(f"expected at least {max(t_idx, x_idx) + 1} columns, got {len(cells)}",
                             line=lineno)
        try:
            t = float(cells[t_idx].strip())
            x = float(cells[x_idx].strip())
        except ValueError:
            raise ParseError(f"malformed row: {_joined(cells)!r}", line=lineno) from None
        if samples and t <= samples[-1][0]:
            raise ParseError(f"timestamps must be strictly increasing (t={t!r})", line=lineno)
        if not (math.isfinite(t) and math.isfinite(x)) or x < 0:
            raise ParseError(f"sample must be finite with x_inst >= 0: {_joined(cells)!r}", line=lineno)
        samples.append((t, x))
    if not samples:
        raise ParseError("no data rows")
    return ThroughputTrace(samples=tuple(samples))


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
    is what becomes a LoadPoint's x.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")
    samples = trace.samples
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
    return area / span, (kept[0][0], kept[-1][0])
