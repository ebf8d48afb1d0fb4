"""Operational bounds for closed-loop load tests.

A system driven by a closed workload (each virtual user submits a
request, waits for the response, thinks for Z seconds, repeats) obeys
two bounds no matter what happens inside:

* throughput can never exceed ``1 / S_max``, where S_max is the largest
  per-stage service time (the bottleneck), and
* response time can never drop below the sum of the stage service times,
  and once the bottleneck saturates it climbs at least linearly with
  slope S_max.

The load where the uncontended-throughput line ``n / (R_min + Z)`` meets
the ceiling, ``N_opt = (R_min + Z) / S_max``, is the first-order optimal
user count: below it adding users buys throughput, above it adding users
buys only queueing delay.

All times are seconds. Everything here is a pure function of immutable
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_finite_number(value, name: str, minimum: float, strict: bool) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < minimum or (strict and value == minimum):
        op = ">" if strict else ">="
        raise ValueError(f"{name} must be {op} {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class Stage:
    """One serial processing stage and its mean service time in seconds."""

    label: str
    service_time: float

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"stage label must be a nonempty string, got {self.label!r}")
        st = _check_finite_number(self.service_time, f"stage {self.label!r} service_time", 0.0, strict=True)
        object.__setattr__(self, "service_time", st)


@dataclass(frozen=True)
class ServiceProfile:
    """Per-stage service times plus the think time of the closed workload.

    A zero think time means batch mode: every virtual user resubmits the
    instant a response arrives, which is the most aggressive request
    intensity a closed workload can produce.
    """

    stages: tuple[Stage, ...]
    think_time: float = 0.0

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("profile needs at least one stage")
        for s in stages:
            if not isinstance(s, Stage):
                raise TypeError(f"stages must be Stage instances, got {s!r}")
        object.__setattr__(self, "stages", stages)
        z = _check_finite_number(self.think_time, "think_time", 0.0, strict=False)
        object.__setattr__(self, "think_time", z)

    @classmethod
    def from_service_times(cls, service_times, think_time: float = 0.0, labels=None) -> "ServiceProfile":
        """Build a profile from bare service times in seconds.

        Labels default to stage1, stage2, ... in the given order.
        """
        times = list(service_times)
        if labels is None:
            labels = [f"stage{i}" for i in range(1, len(times) + 1)]
        else:
            labels = list(labels)
            if len(labels) != len(times):
                raise ValueError("labels and service_times must have the same length")
        stages = tuple(Stage(lbl, st) for lbl, st in zip(labels, times))
        return cls(stages=stages, think_time=think_time)

    @property
    def s_max(self) -> float:
        """Largest stage service time: the bottleneck's."""
        return max(s.service_time for s in self.stages)

    @property
    def r_min(self) -> float:
        # summed in stage order so the result is reproducible bit for bit
        total = 0.0
        for s in self.stages:
            total += s.service_time
        return total

    @property
    def bottleneck_label(self) -> str:
        """Label of the bottleneck stage; first in stage order on a tie."""
        return self.bottleneck_ties[0]

    @property
    def bottleneck_ties(self) -> tuple[str, ...]:
        """Labels of every stage whose service time equals the maximum."""
        s_max = self.s_max
        return tuple(s.label for s in self.stages if s.service_time == s_max)


@dataclass(frozen=True)
class Bounds:
    """The simple model of a closed system: ceiling, floor and knee.

    ``basis`` is "profile" when exact from a ServiceProfile, with the
    bottleneck's label and, when it is not unique, every tied label in
    stage order; "data" when back-estimated from measurements. The sloping
    response bound ``n * S_max - Z`` is the saturation asymptote: a lower
    bound the measured curve approaches once the bottleneck saturates.
    """

    s_max: float
    r_min: float
    z: float
    basis: str
    bottleneck_label: str = ""
    tied_labels: tuple[str, ...] = ()

    @property
    def x_max(self) -> float:
        """Throughput ceiling 1 / S_max."""
        return 1.0 / self.s_max

    @property
    def n_opt(self) -> float:
        """Optimal load (R_min + Z) / S_max, where the two bound lines cross."""
        return (self.r_min + self.z) / self.s_max

    # the knee's names, which the JSON report's knee block uses
    s_max_hat = property(lambda self: self.s_max)
    r_min_hat = property(lambda self: self.r_min)
    n_opt_hat = property(lambda self: self.n_opt)

    def x_upper(self, n):
        """min(n / (R_min + Z), X_max) at each load in ``n`` (a number or an array)."""
        # inf on overflow, as Python floats give, and where a data-basis R_min and Z are 0
        with np.errstate(divide="ignore", over="ignore"):
            return np.minimum(n / (self.r_min + self.z), self.x_max)

    def r_lower(self, n):
        """max(R_min, n * S_max - Z) at each load in ``n`` (a number or an array)."""
        with np.errstate(over="ignore"):
            return np.maximum(self.r_min, n * self.s_max - self.z)


def compute_x_max(profile: ServiceProfile) -> float:
    """Throughput ceiling 1 / S_max in transactions per second."""
    return 1.0 / profile.s_max


def compute_r_min(profile: ServiceProfile) -> float:
    """Response-time floor: the contention-free trip through all stages."""
    return profile.r_min


def compute_n_opt(profile: ServiceProfile) -> float:
    """Optimal client count (R_min + Z) / S_max, reported unrounded."""
    return (profile.r_min + profile.think_time) / profile.s_max


def throughput_upper_bound(profile: ServiceProfile, n: float) -> float:
    """Best achievable throughput at load n.

    min(n / (R_min + Z), X_max); the two branches cross exactly at
    N_opt. The linear branch is what n users would get if they never
    queued behind each other.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return float(bounds_summary(profile).x_upper(n))


def response_lower_bound(profile: ServiceProfile, n: float) -> float:
    """Best achievable response time at load n.

    max(R_min, n * S_max - Z); the sloping branch is the saturation
    asymptote whose slope is exactly the bottleneck service time.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return float(bounds_summary(profile).r_lower(n))


def bounds_summary(profile: ServiceProfile) -> Bounds:
    """The exact bounds of a profile, with its bottleneck identity."""
    ties = profile.bottleneck_ties
    return Bounds(s_max=profile.s_max, r_min=profile.r_min, z=profile.think_time,
                  basis="profile", bottleneck_label=profile.bottleneck_label,
                  tied_labels=ties if len(ties) > 1 else ())
