import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadlaw import (
    Bounds,
    ServiceProfile,
    Stage,
    bounds_summary,
    compute_n_opt,
    compute_x_max,
)

from .conftest import profiles, three_stage_profile


class TestProfileValidation:
    def test_rejects_empty_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ServiceProfile(stages=())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_service_time(self, bad):
        with pytest.raises(ValueError):
            Stage("a", bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_think_time(self, bad):
        with pytest.raises(ValueError):
            ServiceProfile.from_service_times([1.0], think_time=bad)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Stage("", 1.0), ValueError, "stage label must be a nonempty string, got ''"),
        (lambda: Stage(None, 1.0), ValueError, "stage label must be a nonempty string, got None"),
        (lambda: ServiceProfile(stages=(Stage("a", 1.0), 1.0)), TypeError,
         "stages must be Stage instances, got 1.0"),
        (lambda: ServiceProfile.from_service_times([1.0, 2.0], labels=["a"]), ValueError,
         "labels and service_times must have the same length"),
    ], ids=["empty-label", "no-label", "non-stage", "labels-length"])
    def test_refusal_messages(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_labels_default_to_stage_order(self):
        p = ServiceProfile.from_service_times([0.1, 0.2])
        assert [s.label for s in p.stages] == ["stage1", "stage2"]


class TestXMax:
    def test_three_stage_example(self):
        assert compute_x_max(three_stage_profile()) == 200.0

    def test_single_stage_identity(self):
        assert compute_x_max(ServiceProfile.from_service_times([1.0])) == 1.0

    def test_tied_bottleneck(self):
        p = ServiceProfile.from_service_times([0.010, 0.010])
        assert compute_x_max(p) == pytest.approx(100.0, rel=1e-12)


class TestRMin:
    def test_three_stage_example(self):
        assert bounds_summary(three_stage_profile()).r_min == pytest.approx(0.0105, rel=1e-12)

    def test_single_stage(self):
        assert bounds_summary(ServiceProfile.from_service_times([1.0])).r_min == 1.0

    def test_think_time_excluded(self):
        p = ServiceProfile.from_service_times([0.002], think_time=10.0)
        assert bounds_summary(p).r_min == 0.002


class TestNOpt:
    def test_three_stage_example(self):
        assert compute_n_opt(three_stage_profile()) == pytest.approx(2002.1, abs=0.05)

    def test_single_user_saturates_single_stage(self):
        assert compute_n_opt(ServiceProfile.from_service_times([0.7])) == pytest.approx(1.0)

    def test_constructed_knee_at_21(self):
        # (r_min + z) / s_max = (0.05 + 1.0) / 0.05 = 21
        p = ServiceProfile.from_service_times([0.05], think_time=1.0)
        assert compute_n_opt(p) == pytest.approx(21.0, rel=1e-12)


class TestThroughputUpperBound:
    def test_branches_meet_at_n_opt(self):
        p = three_stage_profile()
        assert float(bounds_summary(p).x_upper(compute_n_opt(p))) == pytest.approx(200.0, rel=1e-12)

    def test_zero_load(self):
        assert float(bounds_summary(three_stage_profile()).x_upper(0)) == 0.0

    def test_ceiling_branch(self):
        assert float(bounds_summary(three_stage_profile()).x_upper(4000)) == 200.0


class TestResponseLowerBound:
    def test_floor_below_knee(self):
        assert float(bounds_summary(three_stage_profile()).r_lower(1)) == pytest.approx(0.0105, rel=1e-12)

    def test_asymptote_branch(self):
        # 4000 * 0.005 - 10 = 10.0
        assert float(bounds_summary(three_stage_profile()).r_lower(4000)) == pytest.approx(10.0, rel=1e-12)

    def test_batch_single_stage(self):
        p = ServiceProfile.from_service_times([1.0])
        assert float(bounds_summary(p).r_lower(5)) == pytest.approx(5.0)


class TestBoundsSummary:
    def test_three_stage_summary(self):
        s = bounds_summary(three_stage_profile())
        assert s.x_max == 200.0
        assert s.r_min == pytest.approx(0.0105, rel=1e-12)
        assert s.n_opt == pytest.approx(2002.1, abs=0.05)
        assert s.bottleneck_label == "lookup"
        assert s.tied_labels == ()

    def test_tie_reported_first_by_stage_order(self):
        p = ServiceProfile.from_service_times([0.01, 0.01, 0.002], labels=["a", "b", "c"])
        s = bounds_summary(p)
        assert s.bottleneck_label == "a"
        assert s.tied_labels == ("a", "b")


class TestBounds:
    def test_derived_values_and_knee_names(self):
        b = Bounds(s_max=0.05, r_min=0.05, z=1.0, basis="data")
        assert (b.x_max, b.n_opt) == (20.0, 21.0)
        assert (b.s_max_hat, b.r_min_hat, b.n_opt_hat) == (0.05, 0.05, 21.0)
        assert (b.bottleneck_label, b.tied_labels) == ("", ())

    def test_zero_floor_and_think_time_give_the_ceiling(self):
        b = Bounds(s_max=0.5, r_min=0.0, z=0.0, basis="data")
        assert b.x_upper(np.array([1, 2])).tolist() == [2.0, 2.0]


@given(profiles(), st.lists(st.integers(min_value=0, max_value=2**53), min_size=1, max_size=40))
def test_vectorized_bounds_match_the_scalar_bounds_bit_for_bit(p, loads):
    b = bounds_summary(p)
    n = np.array(loads, dtype=np.int64)
    for k, x_vec, r_vec in zip(loads, b.x_upper(n).tolist(), b.r_lower(n).tolist()):
        x, r = float(b.x_upper(k)), float(b.r_lower(k))
        # the scalar formulas as they were written before Bounds held them
        x_ref = min(k / (p.r_min + p.think_time), 1.0 / p.s_max)
        r_ref = max(p.r_min, k * p.s_max - p.think_time)
        assert x.hex() == x_vec.hex() == x_ref.hex()
        assert r.hex() == r_vec.hex() == r_ref.hex()


@given(profiles())
def test_x_max_inverts_bottleneck(p):
    assert abs(compute_x_max(p) * p.s_max - 1.0) < 1e-12


@given(profiles())
def test_bound_branches_cross_exactly_at_n_opt(p):
    n_opt = compute_n_opt(p)
    assert abs(n_opt / (p.r_min + p.think_time) - compute_x_max(p)) < 1e-12


@given(profiles(), st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
def test_bounds_nondecreasing_in_load(p, n1, n2):
    lo, hi = min(n1, n2), max(n1, n2)
    b = bounds_summary(p)
    assert float(b.x_upper(lo)) <= float(b.x_upper(hi)) + 1e-12
    assert float(b.r_lower(lo)) <= float(b.r_lower(hi)) + 1e-12


@given(profiles(), st.floats(min_value=1e-3, max_value=1e3))
def test_time_rescaling(p, c):
    scaled = ServiceProfile.from_service_times(
        [s.service_time * c for s in p.stages], think_time=p.think_time * c)
    assert compute_x_max(scaled) == pytest.approx(compute_x_max(p) / c, rel=1e-9)
    assert bounds_summary(scaled).r_min == pytest.approx(bounds_summary(p).r_min * c, rel=1e-9)
    assert compute_n_opt(scaled) == pytest.approx(compute_n_opt(p), rel=1e-9)


@given(profiles())
def test_n_opt_at_least_one(p):
    assert compute_n_opt(p) >= 1.0 - 1e-12
