"""Parsers for load-test artifacts and steady-state trace averaging.

Three inputs are understood:

* series CSV: header ``n,x`` plus one of ``r`` / ``r_ms`` / ``r_s``,
  one row per load point, ``#`` comment lines ignored;
* profile JSON: ``{"stages": [{"label", "service_time"}, ...],
  "think_time": number, "time_unit": "s"|"ms"}``;
* trace CSV: header ``t,x_inst`` with instantaneous throughput samples.

Response-time units are never guessed. A suffixed header (``r_ms``,
``r_s``) declares its own unit; a bare ``r`` takes the unit from
parse_series' ``r_unit`` argument, which defaults to seconds. Everything
is converted to seconds on the way in, because mixed-unit arithmetic is
precisely the kind of mistake this toolkit exists to catch.

Number cells read as ``float()`` and ``int()`` read them, to the bit, by
one of two readers. A block of CSV lines whose rows are all of one width
and whose cells are all JSON numbers, the read ones of their column's
type, is read by one ``orjson.loads`` of its lines joined by a row
marker (see _json_columns). Any other block goes to a row loop that cuts
each line once and reads each wanted cell by ``float()`` or ``int()``,
up to the first row that does not read (see _read_rows).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import orjson

from .model import ServiceProfile, Stage, _echo, _float, _number

_R_COLUMN_UNITS = {"r": None, "r_s": "s", "r_ms": "ms"}
_UNIT_DIVISOR = {"s": 1.0, "ms": 1000.0}

# body lines the CSV parsers join and split at a time when they convert by
# columns: only one block's cells are alive at once, not the whole file's
_BULK_LINES = 4096


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientSteadyStateError(ValueError):
    """The trace yields no finite steady-state average: too little of it
    survives the warm-up cut, or its span overflows float64."""


# the largest load a series holds: past 2**53 float arithmetic on n
# (n / x, n - x*r, comparisons with the knee) no longer tells counts apart
MAX_N = 2 ** 53


def _n_error(n: int) -> str:
    """Why ``n``, outside 1..MAX_N, is not a load."""
    return f"n must be >= 1, got {_echo(n)}" if n < 1 else f"n must be <= 2**53, got {_echo(n)}"


@dataclass(frozen=True)
class LoadPoint:
    """One measured (N, X, R) triple, R in seconds."""

    n: int
    x: float
    r: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(_n_error(self.n))
        for name in ("x", "r"):
            v = _number(getattr(self, name), name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


class _Rows(Sequence):
    """Rows of equal-length ``columns``, each built by ``row`` only when indexed or iterated."""

    __slots__ = ("_row", "columns")

    def __init__(self, row, *columns: np.ndarray):
        self._row = row
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._row(*(column[i].item() for column in self.columns))

    def __iter__(self):
        return map(self._row, *(column.tolist() for column in self.columns))

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


class _FrozenColumns:
    """Base of a frozen dataclass whose fields are read-only numpy columns
    and scalars: equal when every column is np.array_equal and every scalar
    ==, hashed over Python values."""

    @classmethod
    def _from_columns(cls, columns: tuple[np.ndarray, ...], *scalars):
        """An instance set by _set_columns, once ``columns`` (the first
        fields) are 1-d and of one length."""
        shapes = [column.shape for column in columns]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != len(shapes):
            *names, last = list(cls.__dataclass_fields__)[:len(columns)]
            raise ValueError(f"{', '.join(names)} and {last} must be 1-d and of one length, "
                             f"got shapes {', '.join(map(str, shapes))}")
        self = cls.__new__(cls)
        self._set_columns(*columns, *scalars)
        return self

    # names from the class's field mapping: dataclasses.fields() builds a tuple per call
    def _freeze(self, *values) -> None:
        for name, value in zip(self.__dataclass_fields__, values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _values(self) -> list:
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        # over Python floats, not the columns' bytes: -0.0 == 0.0 must hash alike
        return hash(tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in self._values()))


@dataclass(frozen=True, init=False, eq=False)
class LoadSeries(_FrozenColumns):
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

    def __init__(self, points, configured_think_time: float | None = None):
        points = tuple(points)
        self._set_columns(np.array([p.n for p in points], dtype=np.int64),
                          np.array([p.x for p in points], dtype=np.float64),
                          np.array([p.r for p in points], dtype=np.float64),
                          configured_think_time)

    @classmethod
    def from_arrays(cls, n, x, r, configured_think_time: float | None = None) -> "LoadSeries":
        """A series from columns, checked as LoadPoint and LoadSeries check points.

        ``n`` must hold integers; the columns are copied, an int past
        float64 in ``x`` or ``r`` read as +-inf. The first bad row, in row
        order, raises _check_points' message, as it does for every way a
        series is built, an ``n`` past int64 included.
        """
        column = np.array(n)
        if column.size and column.dtype.kind not in "iu":
            # ints past int64, or int64 ones beside uint64 ones, make an object or a float64 column
            column, dtype = np.array(n, dtype=object), column.dtype
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in column.flat):
                raise ValueError(f"n must hold integers, got dtype {dtype}")
        # an n past int64 goes in clipped to 0 or MAX_N + 1, refused on its
        # row, and the refusal is worded from the n given
        loads = (column if column.dtype.kind == "i" else np.clip(column, 0, MAX_N + 1)).astype(np.int64)
        try:
            return cls._from_columns((loads, _float_column(x), _float_column(r)), configured_think_time)
        except _RowError as exc:
            given = int(column[exc.row])
            if not 1 <= given <= MAX_N:
                raise _RowError(_n_error(given), exc.row) from None
            raise

    def _set_columns(self, n, x, r, configured_think_time) -> None:
        if not len(n):
            raise ValueError("series needs at least one point")
        z = configured_think_time
        if z is not None:
            if (isinstance(z, bool) or not isinstance(z, (int, float))
                    or not 0 <= _number(z, "configured_think_time") < math.inf):
                raise ValueError(f"configured_think_time must be finite and >= 0, got {_echo(z)}")
            z = float(z)
        # the think time before the rows: a parser builds the rows before a
        # malformed one, and where that row is must not decide which error wins
        _check_points(n, x, r)
        self._freeze(n, x, r, z)

    @property
    def points(self) -> Sequence[LoadPoint]:
        return _Rows(LoadPoint, self.n, self.x, self.r)

    def __repr__(self) -> str:
        return f"LoadSeries(points={self.points!r}, configured_think_time={self.configured_think_time!r})"


def _float_column(values) -> np.ndarray:
    """``np.array(values, dtype=np.float64)``, with an int past float64 read as +-inf."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        objects = np.array(values, dtype=object)
        return np.array(list(map(_float, objects.flat)), dtype=np.float64).reshape(objects.shape)


def _order_error(n: int, prev: int) -> str:
    if n == prev:
        return f"duplicate load point n={n}"
    return f"load points must be strictly increasing in n (n={n} after n={prev})"


def _check_points(n: np.ndarray, x: np.ndarray, r: np.ndarray) -> None:
    """Raise _RowError for the first row that LoadPoint's value check refuses,
    whose n does not exceed the row before's, or whose x * r (the audit's
    n_run) is not finite, checked in that order."""
    # x * r is finite only where x and r are (inf * 0 is NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~((n >= 1) & (n <= MAX_N) & (x >= 0) & (r >= 0) & np.isfinite(x * r))
    i = _first_bad_row(bad, n)
    if i < 0:
        return
    try:
        LoadPoint(int(n[i]), float(x[i]), float(r[i]))
    except ValueError as exc:
        raise _RowError(str(exc), i) from None
    if i and n[i] <= n[i - 1]:
        raise _RowError(_order_error(int(n[i]), int(n[i - 1])), i)
    raise _RowError(f"x * r must be finite, got {x[i].item()!r} * {r[i].item()!r}", i)


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
class ThroughputTrace(_FrozenColumns):
    """Instantaneous throughput samples from one load level.

    Stored as read-only float64 columns: ``t`` (strictly increasing) and
    ``x`` (the x_inst samples, finite and >= 0). ``samples`` views them
    as (t, x_inst) pairs for code that wants one tuple per sample.
    """

    t: np.ndarray
    x: np.ndarray

    def __init__(self, samples):
        pairs = np.array([(_float(t), _float(x)) for t, x in samples],
                         dtype=np.float64).reshape(-1, 2)
        self._set_columns(pairs[:, 0].copy(), pairs[:, 1].copy())

    @classmethod
    def from_arrays(cls, t, x) -> "ThroughputTrace":
        """A trace from columns, checked as the samples constructor checks them.

        The columns are copied, an int past float64 read as +-inf.
        """
        return cls._from_columns((_float_column(t), _float_column(x)))

    def _set_columns(self, t, x) -> None:
        if not len(t):
            raise ValueError("trace needs at least one sample")
        _check_samples(t, x)
        self._freeze(t, x)

    @property
    def samples(self) -> Sequence[tuple[float, float]]:
        return _Rows(_sample, self.t, self.x)

    def __repr__(self) -> str:
        return f"ThroughputTrace(samples={self.samples!r})"


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
    """The cells of one line, unstripped; csv.Error for a quoted cell past csv.field_size_limit()."""
    # csv.reader splits a line without quotes exactly where str.split does
    return next(csv.reader([line])) if '"' in line else line.split(",")


def _rows(lines: list[str]):
    """(line number, cells) of each non-comment, non-blank line; cells unstripped.
    A line _cells cannot cut raises ParseError on its number in ``lines``."""
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                cells = _cells(line)
            except csv.Error as exc:
                raise ParseError(f"malformed row: {exc}", line=lineno) from None
            yield lineno, cells


def _header(rows, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> tuple[int, dict[str, int]]:
    """Line number of the first row and its lowercased column names -> index;
    every ``required`` name must be among them, and no name the parser reads
    (``required`` or ``optional``) twice."""
    for header_line, cells in rows:
        names = [name.strip().lower() for name in cells]
        for name in required + optional:
            if names.count(name) > 1:
                raise ParseError(f"duplicate column {name!r}", line=header_line)
        columns = {name: i for i, name in enumerate(names)}
        for name in required:
            if name not in columns:
                raise ParseError(f"missing required column {name!r}", line=header_line)
        return header_line, columns
    raise ParseError("empty file: expected a header row")


def _joined(cells: list[str]) -> str:
    """The row as an error message quotes it: its stripped cells joined by commas, as _echo quotes text."""
    return _echo(",".join(c.strip() for c in cells))


def _json_columns(block: list[str], indices: tuple[int, ...], kinds: tuple[type, ...]) -> list[list] | None:
    """The values at ``indices`` of the lines ``block``, each list of its
    ``kinds`` type, read by one ``orjson.loads`` of the lines joined by the
    row marker ``",null,"`` (empty for no lines); None when the block is
    not read that way.

    Without ``"`` or ``[`` each JSON value is one cell, and with ``null``
    only in the markers, the markers land on every (w + 1)-th of
    ``len(block) * (w + 1) - 1`` values only when every row is w cells
    wide. Without ``t``, ``f`` or ``{`` too, no cell is ``true``, ``false``
    or an object, so every other value is a JSON number with at most JSON's
    whitespace (a subset of what str.strip drops) around it, and for such a
    cell orjson's float or int is ``kind(cell.strip())`` to the bit. Every
    cell on which the two grammars part fails the parse or the type check:
    ``+1``, ``.5``, ``1.``, ``007``, ``nan``, ``inf``, ``1e400`` (refused),
    non-ASCII digits; in an int column a float text or an integer past
    2**64 (which orjson reads as a float). In a float column an int is
    read too, unless the block holds ``-0`` followed by ``,``, ``]``, a
    space or a tab (lines hold no other JSON whitespace): ``-0`` is the one
    integer text whose orjson int (0) and ``float()`` (-0.0) differ, while
    ``-0.`` and ``-0e`` begin floats and ``-0`` before a digit is not JSON.
    So types are checked per value only in int columns, and in float
    columns when the block holds ``-0``.
    """
    if not block:
        return [[] for _ in indices]
    width = block[0].count(",") + 1
    text = "[" + ",null,".join(block) + "]"
    # null is JSON's one word with an "n": the markers must be the only nulls;
    # t, f and { are in true, false and objects, the other values that are not numbers
    if (width <= max(indices) or '"' in text or text.find("[", 1) > 0 or "t" in text or "f" in text
            or "{" in text or text.count("n") != len(block) - 1):
        return None
    try:
        values = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    stride = width + 1
    if len(values) != len(block) * stride - 1 or values[width::stride].count(None) != len(block) - 1:
        return None
    read = [values[i::stride] for i in indices]
    # one scan settles the common block, which holds no "-"
    negative_zero = "-" in text and any(zero in text for zero in ("-0,", "-0]", "-0 ", "-0\t"))
    for column, kind in zip(read, kinds):
        if (kind is int or negative_zero) and set(map(type, column)) != {kind}:
            return None
    return read


def _convert(block: list[str], indices: tuple[int, ...], kinds: tuple[type, ...],
             columns: list[np.ndarray], start: int) -> tuple[int, tuple[int, str] | None]:
    """Write the cells at ``indices`` of the data rows among the lines
    ``block``, converted by ``kinds``, into ``columns`` from row ``start``,
    each column by one np.fromiter; return how many rows that is and the
    (line number in ``block``, error) of the row that stopped the block, or None.

    A block is read by _json_columns; failing that, so are its lines other
    than comment and blank ones, when it has such lines. Any other block
    (quoted or text cells, ragged rows, a bad row, an n orjson reads past
    int64) is read by _read_rows. Both give the bits ``float()``/``int()`` give.
    """
    read = _json_columns(block, indices, kinds)
    if read is None:
        kept = [line for line in block if (stripped := line.strip()) and stripped[0] != "#"]
        read = _json_columns(kept, indices, kinds) if len(kept) < len(block) else None
    if read is not None:
        try:
            for column, values in zip(columns, read):
                column[start:start + len(values)] = np.fromiter(values, column.dtype, len(values))
            return len(read[0]), None
        except OverflowError:  # an n of 2**63 to 2**64 - 1, which orjson reads as an int
            pass
    return _read_rows(block, indices, kinds, columns, start)


def _read(kind: type, text: str) -> int | float:
    """``kind(text)`` refusing ``_`` separators; an int too long for int()
    reads as +-10**sys.get_int_max_str_digits(), also too long for str()."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    try:
        return kind(text)
    except ValueError:
        if kind is int and (text[1:] if text[:1] in "+-" else text).isdecimal():
            return (-1 if text[0] == "-" else 1) * 10 ** sys.get_int_max_str_digits()
        raise


def _read_rows(block: list[str], indices: tuple[int, ...], kinds: tuple[type, ...],
               columns: list[np.ndarray], start: int) -> tuple[int, tuple[int, str] | None]:
    """_convert's row loop: cut each data row among the lines ``block``
    once and read each cell at ``indices`` by _read, up to the first row
    that cannot be cut, is too short, has a cell that does not convert or
    an n past int64; write and return the rows before it as _convert does."""
    width, read = max(indices), [[] for _ in kinds]
    cells_read = tuple(zip(indices, kinds, [values.append for values in read]))
    # n is the one column read as int (a trace's stand-in n is 0); past int64 it has no cell to go into
    loads, failure = read[0] if kinds[0] is int else [0], None
    try:
        for lineno, cells in _rows(block):
            if len(cells) <= width:
                raise ParseError(f"expected at least {width + 1} columns, got {len(cells)}", lineno)
            try:
                for i, kind, append in cells_read:
                    append(_read(kind, cells[i].strip()))
            except ValueError:
                raise ParseError(f"malformed row: {_joined(cells)}", lineno) from None
            if not -2 ** 63 <= loads[-1] < 2 ** 63:
                raise ParseError(_n_error(loads.pop()), lineno)
    except ParseError as exc:
        failure = exc.line, str(exc).removeprefix(f"line {exc.line}: ")
    # a bad row leaves some of its values, never all, on the lists
    rows = min(map(len, read))
    for column, values in zip(columns, read):
        column[start:start + rows] = np.fromiter(values, column.dtype, rows)
    return rows, failure


def _read_columns(lines: list[str], header_line: int, indices: tuple[int, ...],
                  kinds: tuple[type, ...], build, refuse=None):
    """``build(*columns)`` of the body after ``header_line``: the columns at
    ``indices``, converted by ``kinds`` (int to int64, float to float64).

    The body is converted ``_BULK_LINES`` lines at a time by _convert,
    up to the first row that cannot be cut, is too short, has a cell that
    does not convert or an n past int64. The rows before it are built (the
    result is dropped), and that row's error is raised only if they pass.
    A ``_RowError`` from ``build`` is raised as a ParseError on the row's
    line, worded by ``refuse(error, cells, *columns)`` when given. The
    columns are new arrays that ``build`` may keep without a copy.
    """
    columns = [np.empty(len(lines) - header_line, np.int64 if kind is int else np.float64) for kind in kinds]
    rows, failure = 0, None
    for start in range(header_line, len(lines), _BULK_LINES):
        converted, failure = _convert(lines[start:start + _BULK_LINES], indices, kinds, columns, rows)
        rows += converted
        if failure:
            break
    if not rows and failure is None:
        raise ParseError("no data rows")
    # each column owns its data, as a copy would: no writable buffer outlives the build
    columns = [column if len(column) == rows else column[:rows].copy() for column in columns]
    try:
        if failure is None:
            return build(*columns)
        if rows:
            build(*columns)
    except _RowError as exc:
        # the header is the first row _rows yields
        lineno, cells = next(itertools.islice(_rows(lines), exc.row + 1, None))
        message = refuse(exc, cells, *columns) if refuse else str(exc)
        raise ParseError(message, line=lineno) from None
    raise ParseError(failure[1], line=start + failure[0])


def parse_series(raw, *, r_unit: str = "s", configured_think_time: float | None = None) -> LoadSeries:
    """Parse a load-series CSV into a validated LoadSeries in seconds.

    ``r_unit`` ("s" or "ms") is the unit of a bare ``r`` column; suffixed
    ``r_s`` and ``r_ms`` headers declare themselves. The body is converted
    by columns and checked once, on the columns, as every LoadSeries is.

    Raises ParseError with the offending line number for malformed rows,
    rows whose x * r is not finite, duplicate or out-of-order load points,
    and unit/header problems. The first bad row in the file is the one
    reported.
    """
    if r_unit not in _UNIT_DIVISOR:
        raise ValueError(f"unknown response-time unit {r_unit!r}; use one of {sorted(_UNIT_DIVISOR)}")
    lines = _as_text(raw).splitlines()
    header_line, columns = _header(_rows(lines), ("n", "x"), tuple(_R_COLUMN_UNITS))
    present = [name for name in _R_COLUMN_UNITS if name in columns]
    if not present:
        raise ParseError("missing response-time column: expected one of r, r_s, r_ms",
                         line=header_line)
    if len(present) > 1:
        raise ParseError(f"ambiguous response-time columns {sorted(present)}", line=header_line)
    divisor = _UNIT_DIVISOR[_R_COLUMN_UNITS[present[0]] or r_unit]

    def build(n, x, r):
        return LoadSeries._from_columns((n, x, r / divisor), configured_think_time)

    return _read_columns(lines, header_line, (columns["n"], columns["x"], columns[present[0]]),
                         (int, float, float), build)


def _not_repr(values: np.ndarray) -> np.ndarray | None:
    """Mask of the float64 ``values`` whose orjson (Ryu) text is not ``repr``'s,
    or None when min and max alone show there are none. The two agree exactly
    when ``v == 0`` or ``1e-4 <= |v| < 1e16``; orjson writes ``1e-05`` as
    ``0.00001``, ``1e+16`` as ``1e16``, and NaN and the infinities as ``null``."""
    magnitude = np.abs(values)
    # min and max settle the common array whole; NaN fails both comparisons
    if magnitude.min() >= 1e-4 and magnitude.max() < 1e16:
        return None
    return ((magnitude < 1e-4) & (magnitude != 0)) | ~(magnitude < 1e16)


def _float_texts(values, nonfinite=float.__repr__) -> list[str]:
    """``float.__repr__`` of each value of a float64 column, or of each row
    of a 2-d table as its values joined by commas, written by one call of
    orjson's Ryu kernel: the same shortest round-trip digits, about 7x
    faster than ``repr`` per value.

    A value whose Ryu text is not ``repr``'s (see _not_repr) is rewritten
    by ``nonfinite``, with the rest of its row in a table: ``float.__repr__``
    for CSV (``nan``, ``inf``) or report's ``_json_float`` for JSON
    (``NaN``, ``Infinity``). The two differ only on the non-finite values.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not len(values):
        return []
    # orjson writes a column as [v,v] and a table as [[v,v],[v,v]]: strip the outer brackets, split at the rest
    cut, separator = (2, "],[") if values.ndim == 2 else (1, ",")
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[cut:-cut].decode().split(separator)
    odd = _not_repr(values)
    if odd is not None:
        rows = values.reshape(len(values), -1)  # a column's rows are its values
        odd = odd.reshape(rows.shape).any(axis=1)
        for i, row in zip(np.flatnonzero(odd).tolist(), rows[odd].tolist()):
            texts[i] = ",".join(map(nonfinite, row))
    return texts


def _int_texts(values) -> list[str]:
    """``int.__repr__`` of each value in an integer column or sequence."""
    if isinstance(values, np.ndarray):
        values = np.ascontiguousarray(values)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    return text.split(",") if text else []


def _point_list_json(values) -> str:
    """An integer sequence as ``json.dumps(..., indent=2)`` writes a report
    finding's ``affected_points``: one value per line at 8 spaces, then
    ``]`` at 6, or ``[]``; one orjson call writes it all. Three outer
    lists put the values at that depth, and the cut drops those lists and
    their indents: 18 bytes before the list, 12 after it."""
    if isinstance(values, np.ndarray):
        values = np.ascontiguousarray(values)
    return orjson.dumps([[[values]]], option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)[18:-12].decode()


def _interleave(columns, separators) -> list[str]:
    """The rows of ``columns`` (equal-length lists of texts, at least one row)
    as one list of pieces, each cell followed by its column's separator: one
    row template repeated, then each column set by one slice assignment."""
    stride = 2 * len(columns)
    row = [""] * stride
    row[1::2] = separators
    pieces = row * len(columns[0])
    for i, column in enumerate(columns):
        pieces[2 * i::stride] = column
    return pieces


def _csv_lines(columns, end: str = "\n") -> str:
    """The rows of ``columns`` joined by commas, each line ended by ``end``."""
    return "".join(_interleave(columns, [","] * (len(columns) - 1) + [end]))


def serialize_series(series: LoadSeries) -> str:
    """Series back to CSV (seconds); parse_series inverts this exactly."""
    return "n,x,r\n" + _csv_lines([_int_texts(series.n), _float_texts(series.x), _float_texts(series.r)])


def parse_trace(raw) -> ThroughputTrace:
    """Parse a t,x_inst trace CSV.

    Converted and checked as parse_series converts and checks a series.

    Raises ParseError with the line number of the first bad row in the
    file: too short, malformed, out of order, or not finite with
    x_inst >= 0.
    """
    lines = _as_text(raw).splitlines()
    header_line, columns = _header(_rows(lines), ("t", "x_inst"))
    return _read_columns(lines, header_line, (columns["t"], columns["x_inst"]), (float, float),
                         lambda t, x: ThroughputTrace._from_columns((t, x)), _sample_refusal)


def _sample_refusal(exc: _RowError, cells: list[str], t: np.ndarray, x: np.ndarray) -> str:
    """parse_trace's wording of a sample the trace checks refused."""
    i = exc.row
    if i and t[i] <= t[i - 1]:
        return f"timestamps must be strictly increasing (t={t[i].item()!r})"
    return f"sample must be finite with x_inst >= 0: {_joined(cells)}"


def parse_profile(raw) -> ServiceProfile:
    """Parse a profile JSON object into a ServiceProfile in seconds."""
    text = _as_text(raw)
    try:
        doc = json.loads(text)
    # a JSONDecodeError, an integer literal past int()'s digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("profile must be a JSON object")

    unit = doc.get("time_unit")
    if not isinstance(unit, str) or unit not in _UNIT_DIVISOR:
        raise ParseError(f"profile time_unit must be one of {sorted(_UNIT_DIVISOR)}, got {unit!r}")
    divisor = _UNIT_DIVISOR[unit]

    raw_stages = doc.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ParseError("profile needs a nonempty 'stages' array")
    if "think_time" not in doc:
        raise ParseError("profile is missing 'think_time'")
    # every value refusal below is a ValueError, worded by the value's checker
    where = ""
    try:
        think_time = _number(doc["think_time"], "think_time") / divisor
        stages = []
        for i, entry in enumerate(raw_stages, 1):
            if not isinstance(entry, dict) or "label" not in entry or "service_time" not in entry:
                raise ParseError(f"stage #{i} must be an object with 'label' and 'service_time'")
            where = f"stage #{i}: "
            stages.append(Stage(entry["label"], _number(entry["service_time"], "service_time") / divisor))
        where = ""
        return ServiceProfile(stages=tuple(stages), think_time=think_time)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}{exc}") from None


def steady_state_average(trace: ThroughputTrace,
                         warmup_fraction: float = 0.25) -> tuple[float, tuple[float, float]]:
    """Time-averaged throughput over the steady part of a trace.

    Drops everything before ``warmup_fraction`` of the trace span has
    elapsed, then takes the trapezoidal time-weighted mean of the
    remaining samples (traces need not be evenly sampled). The returned
    window is (first kept timestamp, last timestamp); the averaged value
    is what becomes a LoadPoint's x. The sum runs left to right, as a
    loop over the samples would add it, so the result is the same to
    the bit. When that area overflows float64, the mean is summed instead
    from span-weighted terms ``(0.5*x0 + 0.5*x1) * (dt / span)``, left to
    right, and kept at most the largest kept sample.

    Raises InsufficientSteadyStateError when fewer than two samples are
    kept, or when the span overflows float64.
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
    window = (kt[0].item(), t_end)
    span, dt = t_end - window[0], kt[1:] - kt[:-1]
    with np.errstate(over="ignore"):
        # cumsum adds left to right (np.sum pairs); 0.0 + turns an all -0.0 sum into 0.0
        area = 0.0 + np.cumsum(0.5 * (kx[:-1] + kx[1:]) * dt)[-1].item()
        if area < math.inf:
            return area / span, window
        # an area past float64 is summed span-weighted, the mean kept among the samples
        mean = np.cumsum((0.5 * kx[:-1] + 0.5 * kx[1:]) * (dt / span))[-1].item()
        return min(mean, kx.max().item()), window
