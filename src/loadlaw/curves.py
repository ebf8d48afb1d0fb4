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
of first appearance), updates one residence time and one queue per
group, and copies each group's queue column out to its stages at the
end. The cycle time still adds one residence time per stage, in stage
order, with plain float additions (not ``sum()``, which compensates
from Python 3.12, and not a multiplicity-weighted product, which rounds
differently), so every bit matches the stage-by-stage recursion. One
pass over the groups per population computes each queue and, from it,
the residence time for the next population. The values of
``_CSV_BLOCK_ROWS`` populations gather in plain lists and go into the
returned arrays with one slice store per block.

``write_csv`` writes the same blocks: one orjson call turns a block's
x, r and queue values into text, whose shortest round-trip digits are
``repr``'s; a row holding a value that orjson writes in another form
(exponents, NaN, infinities) is written by ``repr`` instead.

``solve_oracle`` recomputes the same stationary quantities for small
instances by brute force: it enumerates every split of the population
across the stages and the think pool and accumulates the product-form
weights directly. It shares no code path with the recursion and exists
to cross-check it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .ingest import LoadSeries, _csv_lines, _int_texts, _not_repr
from .model import ServiceProfile

# solve_oracle enumerates every population split; beyond these caps the
# state space explodes combinatorially.
ORACLE_MAX_N = 12
ORACLE_MAX_STAGES = 4

# populations per block in solve_reference's stores and write_csv's writes:
# one block's lists or text at a time, so memory does not grow with the curve
_CSV_BLOCK_ROWS = 256

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

    def row(self, n: int) -> CurveRow:
        """Row for population n (1-based, same as the load itself)."""
        if not 1 <= n <= len(self.n):
            raise IndexError(f"population {n} outside solved range 1..{len(self.n)}")
        i = n - 1
        return CurveRow(int(self.n[i]), float(self.x[i]), float(self.r[i]), tuple(float(v) for v in self.q[i]))

    def write_csv(self, dest) -> None:
        """Write n,x,r plus one q_<label> column per stage.

        ``dest`` is a path or an open text file. The rows go out
        ``_CSV_BLOCK_ROWS`` at a time, each block's numbers written by
        one orjson call, the bytes ``repr`` would write; a row with a
        value on which the two differ is written by ``repr`` itself
        (see ``ingest._not_repr``).
        """
        if hasattr(dest, "write"):
            self._write_csv(dest)
        else:
            with open(dest, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        # the header goes through csv.writer for its quoting of labels; no
        # body cell needs quoting, so the body is joined by hand, by rows
        csv.writer(fh).writerow(["n", "x", "r"] + [f"q_{s.label}" for s in self.profile.stages])
        for start in range(0, len(self.n), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            values = np.column_stack((self.x[block], self.r[block], self.q[block])).astype(float, copy=False)
            rows = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
            # a row with a value whose Ryu text is not repr's is written by repr
            odd = _not_repr(values)
            if odd is not None:
                for i in np.flatnonzero(odd.any(axis=1)).tolist():
                    rows[i] = ",".join(map(float.__repr__, values[i].tolist()))
            fh.write(_csv_lines([_int_texts(self.n[block]), rows], "\r\n"))

    def as_series(self, ns=None, configured_think_time=_PROFILE_Z):
        """Sample the curves into a LoadSeries, e.g. to feed the detectors.

        ``ns`` selects populations (default: every solved row).
        ``configured_think_time`` defaults to the profile's think time;
        pass something else to mimic a harness whose declared pacing does
        not match what it actually did, or None for no declared pacing.
        """
        if configured_think_time is _PROFILE_Z:
            configured_think_time = self.profile.think_time
        if ns is None:
            rows = slice(None)
        else:
            rows = np.array([int(n) for n in ns], dtype=np.int64)
            outside = (rows < 1) | (rows > len(self.n))
            if outside.any():
                self.row(int(rows[outside.argmax()]))  # raises the out-of-range IndexError
            rows -= 1
        return LoadSeries.from_arrays(self.n[rows], self.x[rows], self.r[rows],
                                      configured_think_time=configured_think_time)


def solve_reference(profile: ServiceProfile, n_max: int) -> CanonicalCurves:
    """Solve the closed model exactly for every population 1..n_max."""
    if isinstance(n_max, bool) or not isinstance(n_max, int):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    # one residence time and queue per distinct service time (see the module docstring)
    first: dict[float, int] = {}
    group = [first.setdefault(s.service_time, len(first)) for s in profile.stages]
    service = list(first)
    z = profile.think_time
    d = len(service)

    ns = np.arange(1, n_max + 1, dtype=np.int64)
    xs = np.empty(n_max, dtype=np.float64)
    rs = np.empty(n_max, dtype=np.float64)
    qs = np.empty((n_max, len(group)), dtype=np.float64)
    solved = qs[:, :d]  # one queue column per group, spread to the stages at the end

    # residence times for population 1: every queue is empty
    resid = [s * (1.0 + 0.0) for s in service]
    by_group = list(enumerate(service))
    for start in range(0, n_max, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n_max)
        # a block's values gather in lists, stored with one slice each
        x_block, r_block, q_block = [], [], []
        q_append = q_block.append
        for n in range(start + 1, stop + 1):
            r_total = 0.0
            for j in group:  # stage order, not sum(): the bits stay the per-stage ones
                r_total += resid[j]
            x = n / (r_total + z)
            for j, s in by_group:  # this population's queues, then the next one's residence times
                q = x * resid[j]
                q_append(q)
                resid[j] = s * (1.0 + q)
            x_block.append(x)
            r_block.append(r_total)
        xs[start:stop] = x_block
        rs[start:stop] = r_block
        solved[start:stop] = np.reshape(q_block, (stop - start, d))
    # right to left: group[k] <= k, so each group column is read before it is overwritten
    for k in reversed(range(len(group))):
        qs[:, k] = qs[:, group[k]]
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
