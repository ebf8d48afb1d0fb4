"""Exact steady-state reference curves for a closed chain of stages.

``solve_reference`` produces the lawful X(N) and R(N) characteristics a
closed workload must follow when its stages behave: throughput rises
along the uncontended line, bends at the knee, and saturates at the
ceiling, while response time sits on its floor and then climbs the
hockey-stick handle with slope S_max. Measured data can be compared
against these curves point by point.

The computation is the standard exact population recursion for a
separable closed network: with all queues empty at population 0, the
residence time a newcomer sees at stage k is ``S_k * (1 + Q_k(n-1))``;
summing stages and adding the think delay gives the cycle time, so
``X(n) = n / (R(n) + Z)`` and the queues update to
``Q_k(n) = X(n) * R_k(n)``. Think time is a pure delay: users thinking
do not queue. Stage sums always accumulate in stage order so repeated
solves are bit-for-bit reproducible.

Stages with the same service time run the same operations on the same
inputs at every step, so their queues are equal to the last bit. The
recursion therefore groups stages by exact service time (groups in order
of first appearance) and updates one residence time per group. The
cycle time still adds one residence time per stage, in stage order,
with plain float additions (not ``sum()``, which compensates from
Python 3.12, and not a multiplicity-weighted product, which rounds
differently), so every bit matches the stage-by-stage recursion. The
recursion runs as straight-line code, built once per stage grouping
and cached (``_recursion``): each group's residence time is a local,
the cycle time is one left-to-right sum of the locals in stage order,
each population's record (x, r and the residence times it was solved
with) goes out in one call, and each group's next residence time
follows in one assignment. The generated source holds the grouping's
integers only; service times, think time and residence times are
arguments. The records of ``_CSV_BLOCK_ROWS`` populations gather in
one list, which one ``struct.pack`` unboxes into a table of a row per
population. x and r are stored from its first two columns; a group's
queue, ``x * g``, is numpy's product of the same two floats the loop
multiplies, so its bits are the loop's, and each group's column is
spread to its stages in the same store.

``write_csv`` writes the same blocks, each block's x, r and queue values
as one table through ``ingest._float_texts``, the float encoder of every
table loadlaw writes (``repr``'s text, to the byte).

``solve_oracle`` recomputes the same stationary quantities for small
instances by brute force: it enumerates every split of the population
across the stages and the think pool and accumulates the product-form
weights directly. It shares no code path with the recursion and exists
to cross-check it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .ingest import LoadSeries, _csv_lines, _float_texts, _int_texts
from .model import ServiceProfile, _echo

# solve_oracle enumerates every population split; beyond these caps the
# state space explodes combinatorially.
ORACLE_MAX_N = 12
ORACLE_MAX_STAGES = 4

# populations per block in solve_reference's stores and write_csv's writes:
# one block's records or text at a time, so memory does not grow with the curve
_CSV_BLOCK_ROWS = 256

# terms per statement of the generated cycle-time sum: CPython's compiler
# recurses once per operator, and 3,000 in one expression raise RecursionError
_SUM_TERMS = 256

_PROFILE_Z = object()  # sentinel: as_series defaults to the profile's think time


@dataclass(frozen=True)
class CurveRow:
    """One population point: load, throughput, response, per-stage queues."""

    n: int
    x: float
    r: float
    queue_lengths: tuple[float, ...]


@dataclass(eq=False)
class CanonicalCurves:
    """Reference curves for n = 1..n_max, stored as parallel arrays.

    ``q[i, k]`` is the mean queue length (waiting plus in service) at
    stage k with population ``n[i]``. Every row satisfies
    ``x * (r + think_time) == n`` to float roundoff.
    """

    profile: ServiceProfile
    n: np.ndarray
    x: np.ndarray
    r: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def _index(self, n) -> int:
        """The 0-based row of population n, which must be an int or a numpy
        integer (not a bool) in the solved range."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"population must be an integer, got {_echo(n)}")
        i = int(n) - 1
        if not 0 <= i < len(self.n):
            raise IndexError(f"population {_echo(i + 1)} outside solved range 1..{len(self.n)}")
        return i

    def row(self, n: int) -> CurveRow:
        """Row for population n (1-based, same as the load itself)."""
        i = self._index(n)
        return CurveRow(int(self.n[i]), float(self.x[i]), float(self.r[i]), tuple(float(v) for v in self.q[i]))

    def write_csv(self, dest) -> None:
        """Write n,x,r plus one q_<label> column per stage.

        ``dest`` is a path or an open text file. The rows go out
        ``_CSV_BLOCK_ROWS`` at a time, each block's floats written as one
        table by ``ingest._float_texts``.
        """
        with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", newline="") as fh:
            # the header goes through csv.writer for its quoting of labels; no
            # body cell needs quoting, so the body is joined by hand, by rows
            csv.writer(fh).writerow(["n", "x", "r"] + [f"q_{s.label}" for s in self.profile.stages])
            for start in range(0, len(self.n), _CSV_BLOCK_ROWS):
                block = slice(start, start + _CSV_BLOCK_ROWS)
                rows = _float_texts(np.column_stack((self.x[block], self.r[block], self.q[block])))
                fh.write(_csv_lines([_int_texts(self.n[block]), rows], "\r\n"))

    def as_series(self, ns=None, configured_think_time=_PROFILE_Z):
        """Sample the curves into a LoadSeries, e.g. to feed the detectors.

        ``ns`` selects populations, each an int or a numpy integer in the
        solved range (default: every solved row).
        ``configured_think_time`` defaults to the profile's think time;
        pass something else to mimic a harness whose declared pacing does
        not match what it actually did, or None for no declared pacing.
        """
        if configured_think_time is _PROFILE_Z:
            configured_think_time = self.profile.think_time
        if ns is None:
            rows = slice(None)
        elif (rows := np.asarray(ns)).ndim == 1 and rows.dtype.kind in "iu" and (
                rows is ns or not {bool, np.bool_} & set(map(type, ns))):  # numpy reads a bool beside ints as 1
            # integers are range-checked at once; the first bad one is worded by _index
            bad = (rows < 1) | (rows > len(self.n))
            if bad.any():
                self._index(rows[bad.argmax()])
            rows = rows - 1
        else:
            rows = np.array([self._index(n) for n in ns], dtype=np.int64)
        return LoadSeries.from_arrays(self.n[rows], self.x[rows], self.r[rows],
                                      configured_think_time=configured_think_time)


@functools.lru_cache
def _recursion(group: tuple[int, ...]):
    """The recursion over a block of populations, as straight-line code for
    the stage grouping ``group`` (stage k is in group ``group[k]``).

    Built from the grouping's integers alone, as ``dataclasses`` builds
    ``__init__``: the service times ``s``, think time ``z`` and residence
    times ``g`` are arguments, and the call returns the residence times
    for the population after the block. Group j's residence time is the
    local ``g<j>``; the cycle time adds them in stage order, ``_SUM_TERMS``
    terms per statement. Each population passes one record to ``extend``:
    x, r, then the residence times it was solved with, so that group j's
    queue is ``x * g<j>`` of its record. The residence times then update
    in one statement per group, ``g<j> = s<j> * (1.0 + x * g<j>)``.
    """
    d = max(group) + 1
    g_list, s_list = ("".join(f"{c}{j}, " for j in range(d)) for c in "gs")  # "g0, g1, ..., "
    terms = [f"g{j}" for j in group]
    lines = ["def block(ns, z, s, g, extend):",
             f"    {s_list}= s", f"    {g_list}= g", "    for n in ns:", "        r = 0.0"]
    lines += [f"        r = r + {' + '.join(terms[i:i + _SUM_TERMS])}" for i in range(0, len(terms), _SUM_TERMS)]
    lines += ["        x = n / (r + z)", f"        extend((x, r, {g_list}))"]
    lines += [f"        g{j} = s{j} * (1.0 + x * g{j})" for j in range(d)]
    lines.append(f"    return {g_list}")
    namespace = {}
    exec(compile("\n".join(lines), f"<loadlaw recursion: {len(group)} stages>", "exec"), namespace)
    return namespace["block"]


def solve_reference(profile: ServiceProfile, n_max: int) -> CanonicalCurves:
    """Solve the closed model exactly for every population 1..n_max.

    Raises MemoryError when the curves do not fit in memory, numpy's
    "array is too big" and "Maximum allowed size" refusals included.
    """
    if isinstance(n_max, np.integer):  # np.bool_ is not one
        n_max = int(n_max)
    if isinstance(n_max, bool) or not isinstance(n_max, int):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    # one residence time and queue per distinct service time (see the module docstring)
    first: dict[float, int] = {}
    group = tuple(first.setdefault(s.service_time, len(first)) for s in profile.stages)
    service = tuple(first)
    d = len(service)
    block = _recursion(group)

    try:
        ns = np.arange(1, n_max + 1, dtype=np.int64)
        xs = np.empty(n_max, dtype=np.float64)
        rs = np.empty(n_max, dtype=np.float64)
        qs = np.empty((n_max, len(group)), dtype=np.float64)
    except ValueError as exc:  # numpy refuses a size past its index range before it tries to allocate
        raise MemoryError(str(exc)) from None

    # residence times for population 1: every queue is empty
    resid = tuple(s * (1.0 + 0.0) for s in service)
    for start in range(0, n_max, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n_max)
        # a block's records gather in one list, unboxed into a (rows, d + 2) table at once
        values = []
        resid = block(range(start + 1, stop + 1), profile.think_time, service, resid, values.extend)
        table = np.frombuffer(struct.pack(f"{len(values)}d", *values)).reshape(stop - start, d + 2)
        xs[start:stop] = x = table[:, 0]
        rs[start:stop] = table[:, 1]
        # group j's queue is the loop's own product x * g<j>, stored to each of its
        # stages; where R overflowed, x is 0 and g<j> may be inf, and the loop's
        # 0 * inf is NaN without a warning
        with np.errstate(invalid="ignore"):
            qs[start:stop] = (x[:, None] * table[:, 2:])[:, group]
    return CanonicalCurves(profile=profile, n=ns, x=xs, r=rs, q=qs)


def _state_weights(service, z, n):
    """Sum product-form weights over all splits of n across think pool and stages.

    Returns (G, per-stage weighted occupancy sums): G is the normalization
    constant, and dividing the k-th occupancy sum by G gives the mean
    queue length at stage k.
    """
    m = len(service)
    g = 0.0
    occupancy = [0.0] * m

    def visit(part, remaining, weight, counts):
        nonlocal g
        if part == m:
            # whatever remains sits in the think pool
            w = weight * z ** remaining / math.factorial(remaining)
            g += w
            for k in range(m):
                occupancy[k] += counts[k] * w
            return
        for here in range(remaining + 1):
            counts[part] = here
            visit(part + 1, remaining - here, weight * service[part] ** here, counts)
        counts[part] = 0

    visit(0, n, 1.0, [0] * m)
    return g, occupancy


def solve_oracle(profile: ServiceProfile, n: int) -> tuple[float, float]:
    """Brute-force steady-state (x, r) at population n for small instances.

    Independent cross-check for solve_reference: enumerates the whole
    population state space instead of recursing, computes throughput as
    the ratio of consecutive normalization constants, and recovers the
    response time from the mean stage occupancies.
    """
    if isinstance(n, np.integer):  # np.bool_ is not one
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > ORACLE_MAX_N:
        raise ValueError(f"n={n} exceeds the oracle size cap ({ORACLE_MAX_N})")
    if len(profile.stages) > ORACLE_MAX_STAGES:
        raise ValueError(
            f"{len(profile.stages)} stages exceed the oracle size cap ({ORACLE_MAX_STAGES})")

    service = [s.service_time for s in profile.stages]
    z = profile.think_time
    g_n, occupancy = _state_weights(service, z, n)
    g_prev, _ = _state_weights(service, z, n - 1)
    x = g_prev / g_n
    # mean residence per stage via the stage's mean occupancy at rate x
    r = 0.0
    for occ in occupancy:
        r += (occ / g_n) / x
    return x, r
