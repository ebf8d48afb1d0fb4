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
from dataclasses import dataclass

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
        for name in ("x", "r"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be a number, got {v!r}")
            v = float(v)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class LoadSeries:
    """A measured load sweep: points strictly increasing in n.

    ``configured_think_time`` is the pacing the harness claims to apply,
    if any; detectors compare it against what the data implies.
    """

    points: tuple[LoadPoint, ...]
    configured_think_time: float | None = None
    source_label: str = ""

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("series needs at least one point")
        for prev, cur in zip(points, points[1:]):
            if cur.n == prev.n:
                raise ValueError(f"duplicate load point n={cur.n}")
            if cur.n < prev.n:
                raise ValueError("load points must be strictly increasing in n")
        object.__setattr__(self, "points", points)
        z = self.configured_think_time
        if z is not None:
            if isinstance(z, bool) or not isinstance(z, (int, float)) or not math.isfinite(float(z)) or z < 0:
                raise ValueError(f"configured_think_time must be finite and >= 0, got {z!r}")
            object.__setattr__(self, "configured_think_time", float(z))

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(p.x for p in self.points)

    @property
    def rs(self) -> tuple[float, ...]:
        return tuple(p.r for p in self.points)


@dataclass(frozen=True)
class ThroughputTrace:
    """Instantaneous throughput samples (t, x_inst) from one load level."""

    samples: tuple[tuple[float, float], ...]
    load_n: int | None = None

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
    """Column mapping and unit declaration for series CSVs.

    ``r_unit`` applies when the response column is a bare ``r`` (or an
    explicit ``r_col`` override); suffixed headers declare themselves.
    """

    n_col: str = "n"
    x_col: str = "x"
    r_col: str | None = None
    r_unit: str = "s"

    def __post_init__(self):
        if self.r_unit not in _UNIT_DIVISOR:
            raise ValueError(f"unknown response-time unit {self.r_unit!r}; use one of {sorted(_UNIT_DIVISOR)}")


def _as_text(raw) -> str:
    if not isinstance(raw, (bytes, str)):
        raw = raw.read()
    if isinstance(raw, bytes):
        # utf-8-sig drops the byte-order mark that Excel and PowerShell exports start with
        return raw.decode("utf-8-sig")
    return raw


def _csv_rows(text: str) -> list[tuple[int, list[str]]]:
    """Non-comment, non-blank CSV rows with their original line numbers."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = next(csv.reader([line]))
        rows.append((lineno, [c.strip() for c in cells]))
    return rows


def parse_series(raw, fmt: SeriesFormat | None = None, *,
                 configured_think_time: float | None = None,
                 source_label: str = "") -> LoadSeries:
    """Parse a load-series CSV into a validated LoadSeries in seconds.

    Raises ParseError with the offending line number for malformed rows,
    duplicate or out-of-order load points, and unit/header problems.
    """
    if fmt is None:
        fmt = SeriesFormat()
    rows = _csv_rows(_as_text(raw))
    if not rows:
        raise ParseError("empty file: expected a header row")

    header_line, header = rows[0]
    columns = {name.lower(): i for i, name in enumerate(header)}

    def col_index(name: str) -> int:
        if name.lower() not in columns:
            raise ParseError(f"missing required column {name!r}", line=header_line)
        return columns[name.lower()]

    n_idx = col_index(fmt.n_col)
    x_idx = col_index(fmt.x_col)
    if fmt.r_col is not None:
        r_idx = col_index(fmt.r_col)
        unit = _R_COLUMN_UNITS.get(fmt.r_col.lower()) or fmt.r_unit
    else:
        present = [name for name in _R_COLUMN_UNITS if name in columns]
        if not present:
            raise ParseError("missing response-time column: expected one of r, r_s, r_ms",
                             line=header_line)
        if len(present) > 1:
            raise ParseError(f"ambiguous response-time columns {sorted(present)}", line=header_line)
        r_idx = columns[present[0]]
        unit = _R_COLUMN_UNITS[present[0]] or fmt.r_unit
    divisor = _UNIT_DIVISOR[unit]

    points: list[LoadPoint] = []
    for lineno, cells in rows[1:]:
        width = max(n_idx, x_idx, r_idx)
        if len(cells) <= width:
            raise ParseError(f"expected at least {width + 1} columns, got {len(cells)}", line=lineno)
        try:
            n = int(cells[n_idx])
            x = float(cells[x_idx])
            r = float(cells[r_idx])
        except ValueError:
            raise ParseError(f"malformed row: {','.join(cells)!r}", line=lineno) from None
        try:
            point = LoadPoint(n=n, x=x, r=r / divisor)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if points:
            if point.n == points[-1].n:
                raise ParseError(f"duplicate load point n={point.n}", line=lineno)
            if point.n < points[-1].n:
                raise ParseError(f"load points must be strictly increasing in n "
                                 f"(n={point.n} after n={points[-1].n})", line=lineno)
        points.append(point)
    if not points:
        raise ParseError("no data rows")
    return LoadSeries(points=tuple(points), configured_think_time=configured_think_time,
                      source_label=source_label)


def serialize_series(series: LoadSeries) -> str:
    """Series back to CSV (seconds); parse_series inverts this exactly."""
    lines = ["n,x,r"]
    for p in series.points:
        lines.append(f"{p.n},{p.x!r},{p.r!r}")
    return "\n".join(lines) + "\n"


def parse_trace(raw, load_n: int | None = None) -> ThroughputTrace:
    """Parse a t,x_inst trace CSV."""
    rows = _csv_rows(_as_text(raw))
    if not rows:
        raise ParseError("empty file: expected a header row")
    header_line, header = rows[0]
    columns = {name.lower(): i for i, name in enumerate(header)}
    for name in ("t", "x_inst"):
        if name not in columns:
            raise ParseError(f"missing required column {name!r}", line=header_line)
    t_idx, x_idx = columns["t"], columns["x_inst"]

    samples: list[tuple[float, float]] = []
    for lineno, cells in rows[1:]:
        if len(cells) <= max(t_idx, x_idx):
            raise ParseError(f"expected at least {max(t_idx, x_idx) + 1} columns, got {len(cells)}",
                             line=lineno)
        try:
            t = float(cells[t_idx])
            x = float(cells[x_idx])
        except ValueError:
            raise ParseError(f"malformed row: {','.join(cells)!r}", line=lineno) from None
        if samples and t <= samples[-1][0]:
            raise ParseError(f"timestamps must be strictly increasing (t={t!r})", line=lineno)
        if not (math.isfinite(t) and math.isfinite(x)) or x < 0:
            raise ParseError(f"sample must be finite with x_inst >= 0: {','.join(cells)!r}", line=lineno)
        samples.append((t, x))
    if not samples:
        raise ParseError("no data rows")
    return ThroughputTrace(samples=tuple(samples), load_n=load_n)


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
