import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tokenize
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadlaw import (
    ORACLE_MAX_N,
    ORACLE_MAX_STAGES,
    CanonicalCurves,
    ServiceProfile,
    bounds_summary,
    compute_n_opt,
    compute_x_max,
    solve_oracle,
    solve_reference,
)
from loadlaw import curves as curves_module
from loadlaw.cli import main
from loadlaw.curves import _state_weights

from .conftest import profiles, service_times, think_times, three_stage_profile


class TestSolveReference:
    def test_single_user_sees_no_queueing(self):
        c = solve_reference(three_stage_profile(), 1)
        assert c.row(1).x == pytest.approx(1.0 / 10.0105, rel=1e-12)
        assert c.row(1).r == pytest.approx(0.0105, rel=1e-12)

    def test_saturated_single_queue(self):
        # one 1 s stage in batch mode: X pegs at 1, R grows one second per user
        c = solve_reference(ServiceProfile.from_service_times([1.0]), 7)
        for row in map(c.row, range(1, len(c) + 1)):
            assert row.x == pytest.approx(1.0, rel=1e-12)
            assert row.r == pytest.approx(float(row.n), rel=1e-12)

    def test_asymptote_reaches_ceiling(self):
        c = solve_reference(three_stage_profile(), 4000)
        assert c.row(4000).x == pytest.approx(200.0, rel=0.01)

    @pytest.mark.parametrize("bad, message", [
        (0, "n_max must be >= 1, got 0"),
        (-3, "n_max must be >= 1, got -3"),
        (np.int64(0), "n_max must be >= 1, got 0"),
        (True, "n_max must be an integer >= 1, got True"),
        (np.True_, f"n_max must be an integer >= 1, got {np.True_!r}"),
        (1.5, "n_max must be an integer >= 1, got 1.5"),
        (2.0, "n_max must be an integer >= 1, got 2.0"),
        (np.float64(2.0), f"n_max must be an integer >= 1, got {np.float64(2.0)!r}"),
        ("4", "n_max must be an integer >= 1, got '4'"),
    ])
    def test_rejects_bad_n_max(self, bad, message):
        with pytest.raises(ValueError) as exc:
            solve_reference(three_stage_profile(), bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n_max", [np.int64(5), np.int32(5), np.uint8(5)], ids=repr)
    def test_accepts_a_numpy_integer_n_max(self, n_max):
        p = three_stage_profile()
        assert_matches_per_stage_recursion(solve_reference(p, n_max), p, 5)

    def test_rows_are_contiguous_from_one(self):
        c = solve_reference(three_stage_profile(), 10)
        assert list(c.n) == list(range(1, 11))


class TestSolveOracle:
    def test_matches_reference_at_n_1(self):
        p = three_stage_profile()
        x, r = solve_oracle(p, 1)
        row = solve_reference(p, 1).row(1)
        assert x == pytest.approx(row.x, rel=1e-12)
        assert r == pytest.approx(row.r, rel=1e-12)

    def test_matches_reference_at_n_5(self):
        p = three_stage_profile()
        x, r = solve_oracle(p, 5)
        row = solve_reference(p, 5).row(5)
        assert x == pytest.approx(row.x, rel=1e-9)
        assert r == pytest.approx(row.r, rel=1e-9)

    def test_equal_stages_have_symmetric_queues(self):
        p = ServiceProfile.from_service_times([0.3, 0.3])
        g, occupancy = _state_weights([0.3, 0.3], 0.0, 2)
        assert occupancy[0] == pytest.approx(occupancy[1], rel=1e-12)
        row = solve_reference(p, 2).row(2)
        assert row.queue_lengths[0] == pytest.approx(row.queue_lengths[1], rel=1e-12)

    def test_size_caps(self):
        p = three_stage_profile()
        with pytest.raises(ValueError, match="size cap"):
            solve_oracle(p, ORACLE_MAX_N + 1)
        wide = ServiceProfile.from_service_times([0.1] * (ORACLE_MAX_STAGES + 1))
        with pytest.raises(ValueError, match="size cap"):
            solve_oracle(wide, 2)

    @pytest.mark.parametrize("bad", [0, -1, True, np.True_, 2.0, np.float64(2.0)])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError) as exc:
            solve_oracle(three_stage_profile(), bad)
        assert str(exc.value) == f"n must be an integer >= 1, got {bad!r}"

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)], ids=repr)
    def test_accepts_a_numpy_integer_n(self, n):
        p = three_stage_profile()
        assert solve_oracle(p, n) == solve_oracle(p, 5)

    def test_agrees_at_exact_caps(self):
        p = ServiceProfile.from_service_times([0.004, 0.011, 0.007, 0.011], think_time=0.5)
        x, r = solve_oracle(p, ORACLE_MAX_N)
        row = solve_reference(p, ORACLE_MAX_N).row(ORACLE_MAX_N)
        assert x == pytest.approx(row.x, rel=1e-9)
        assert r == pytest.approx(row.r, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(profiles(), st.integers(min_value=1, max_value=60))
def test_littles_law_identity_every_row(p, n_max):
    c = solve_reference(p, n_max)
    lhs = c.x * (c.r + p.think_time)
    assert np.max(np.abs(lhs - c.n)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(profiles(), st.integers(min_value=2, max_value=60))
def test_curves_monotone(p, n_max):
    c = solve_reference(p, n_max)
    assert np.all(np.diff(c.x) >= -1e-12 * c.x[:-1])
    assert np.all(np.diff(c.r) >= -1e-12 * np.maximum(c.r[:-1], 1e-300))


@settings(max_examples=60, deadline=None)
@given(profiles(), st.integers(min_value=1, max_value=60))
def test_curves_respect_bounds(p, n_max):
    c = solve_reference(p, n_max)
    b = bounds_summary(p)
    for row in map(c.row, range(1, len(c) + 1)):
        assert row.x <= float(b.x_upper(row.n)) * (1 + 1e-12) + 1e-15
        assert row.r >= float(b.r_lower(row.n)) * (1 - 1e-12) - 1e-15


@settings(max_examples=40, deadline=None)
@given(profiles(max_stages=3), st.integers(min_value=1, max_value=8))
def test_oracle_agrees_with_recursion(p, n):
    x_ref = solve_reference(p, n).row(n)
    x, r = solve_oracle(p, n)
    assert x == pytest.approx(x_ref.x, rel=1e-9)
    assert r == pytest.approx(x_ref.r, rel=1e-9)


@pytest.mark.parametrize("times,z", [
    ([0.0035, 0.005, 0.002], 10.0),
    ([0.05], 1.0),
    ([0.2, 0.01], 3.0),
])
def test_handle_slope_converges_to_bottleneck(times, z):
    p = ServiceProfile.from_service_times(times, think_time=z)
    n_far = max(2, math.ceil(10 * compute_n_opt(p)))
    c = solve_reference(p, n_far)
    slope = c.r[-1] - c.r[-2]
    assert slope == pytest.approx(p.s_max, rel=0.01)
    assert c.x[-1] == pytest.approx(compute_x_max(p), rel=0.01)


def csv_text(curves):
    """What write_csv writes to an open text file."""
    buf = io.StringIO()
    curves.write_csv(buf)
    return buf.getvalue()


class TestCsvExport:
    def test_header_and_shape(self):
        c = solve_reference(three_stage_profile(), 3)
        text = csv_text(c)
        lines = text.strip().splitlines()
        assert lines[0] == "n,x,r,q_parse,q_lookup,q_commit"
        assert len(lines) == 4

    def test_values_round_trip(self):
        c = solve_reference(three_stage_profile(), 2)
        lines = csv_text(c).strip().splitlines()
        cells = lines[1].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == c.row(1).x
        assert float(cells[2]) == c.row(1).r

    def test_write_to_path(self, tmp_path):
        out = tmp_path / "curve.csv"
        solve_reference(three_stage_profile(), 5).write_csv(out)
        assert len(out.read_text().strip().splitlines()) == 6


class TestAsSeries:
    def test_defaults_to_profile_think_time(self):
        c = solve_reference(three_stage_profile(), 4)
        s = c.as_series()
        assert s.configured_think_time == 10.0
        assert s.n.tolist() == [1, 2, 3, 4]

    def test_subset_and_override(self):
        c = solve_reference(three_stage_profile(think_time=0.0), 10)
        s = c.as_series(ns=[2, 5, 10], configured_think_time=10.0)
        assert s.n.tolist() == [2, 5, 10]
        assert s.configured_think_time == 10.0
        assert s.points[1].x == pytest.approx(c.row(5).x)

    def test_none_means_undeclared(self):
        c = solve_reference(three_stage_profile(), 2)
        assert c.as_series(configured_think_time=None).configured_think_time is None

    @pytest.mark.parametrize("select, message", [
        (lambda c: c.as_series(ns=[0]), "population 0 outside solved range 1..4"),
        (lambda c: c.as_series(ns=[2, 5, 9]), "population 5 outside solved range 1..4"),
        (lambda c: c.row(5), "population 5 outside solved range 1..4"),
        (lambda c: c.row(0), "population 0 outside solved range 1..4"),
        (lambda c: c.as_series(ns=[3, 2 ** 70]), f"population {2 ** 70} outside solved range 1..4"),
        (lambda c: c.as_series(ns=[-2 ** 64]), f"population {-2 ** 64} outside solved range 1..4"),
        (lambda c: c.row(np.uint64(2 ** 64 - 1)), f"population {2 ** 64 - 1} outside solved range 1..4"),
    ], ids=["as-series-zero", "as-series-past-n-max", "row-past-n-max", "row-zero",
            "as-series-past-int64", "as-series-below-int64", "row-past-int64"])
    def test_populations_outside_the_solved_range(self, select, message):
        with pytest.raises(IndexError) as exc:
            select(solve_reference(three_stage_profile(), 4))
        assert str(exc.value) == message

    @pytest.mark.parametrize("population, echo", [
        (2.7, "2.7"), (2.0, "2.0"), (np.float64(5.9), repr(np.float64(5.9))), (True, "True"),
        (np.bool_(True), repr(np.bool_(True))), ("4", "'4'"), (None, "None"),
    ], ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "string", "none"])
    @pytest.mark.parametrize("select", [lambda c, n: c.as_series(ns=[n]), lambda c, n: c.as_series(ns=[3, n]),
                                        lambda c, n: c.row(n)], ids=["as-series", "as-series-second", "row"])
    def test_a_population_that_is_not_an_integer_is_refused(self, select, population, echo):
        """Not truncated (2.7 -> 2), not read as 1 (True) or parsed ('4')."""
        with pytest.raises(ValueError) as exc:
            select(solve_reference(three_stage_profile(), 8), population)
        assert str(exc.value) == f"population must be an integer, got {echo}"

    @pytest.mark.parametrize("population", [3, np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_numpy_integer_populations_are_read(self, population):
        c = solve_reference(three_stage_profile(), 4)
        assert c.as_series(ns=[1, population]).n.tolist() == [1, 3]
        assert c.row(population) == c.row(3)
        assert type(c.row(population).n) is int

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
    def test_an_integer_array_selects_as_its_list_does(self, dtype):
        c = solve_reference(three_stage_profile(), 6)
        ns = np.array([1, 2, 3, 5, 6], dtype=dtype)[::2]  # a strided view
        assert c.as_series(ns=ns) == c.as_series(ns=[1, 3, 6])
        assert c.as_series(ns=ns).n.tolist() == [1, 3, 6]

    @pytest.mark.parametrize("ns, message", [
        (np.array([2, 0, 9]), "population 0 outside solved range 1..4"),
        (np.array([2, 9, 0]), "population 9 outside solved range 1..4"),
        (np.array([-2 ** 63]), f"population {-2 ** 63} outside solved range 1..4"),
        (np.array([3, 2 ** 64 - 1], dtype=np.uint64), f"population {2 ** 64 - 1} outside solved range 1..4"),
    ], ids=["zero", "past-n-max", "int64-min", "uint64-max"])
    def test_an_integer_array_names_its_first_population_outside_the_range(self, ns, message):
        with pytest.raises(IndexError) as exc:
            solve_reference(three_stage_profile(), 4).as_series(ns=ns)
        assert str(exc.value) == message


def _tied_profile_50():
    """50 stages whose times are quantized to 0.1 ms, so several are equal."""
    rng = np.random.default_rng(20040405)
    return {"stages": [{"label": f"s{i:02d}", "service_time": int(k) / 10}
                       for i, k in enumerate(rng.integers(5, 50, size=50))],
            "think_time": 0.25, "time_unit": "ms"}


SIMULATE_PROFILES = {  # case -> (profile JSON document, --n-max)
    "three-stage": ({"stages": [{"label": "parse", "service_time": 3.5},
                                {"label": "lookup", "service_time": 5.0},
                                {"label": "commit", "service_time": 2.0}],
                     "think_time": 10000, "time_unit": "ms"}, 2000),
    "fifty-tied": (_tied_profile_50(), 200),
    "odd-labels": ({"stages": [{"label": "a,b", "service_time": 0.004},
                               {"label": 'q"x', "service_time": 0.006},
                               {"label": "é", "service_time": 0.004},
                               {"label": "t", "service_time": 0.001}],
                    "think_time": 0, "time_unit": "s"}, 300),
}


class TestCsvBytes:
    """``simulate`` writes the same bytes to a file and to stdout.

    ``GOLDEN`` holds the exit code and the sha256 of the profile, of
    ``--out f.csv`` and of ``--out -`` as the per-stage recursion and the
    row-by-row ``csv.writer`` produced them at commit 8dce7ad.
    """

    GOLDEN = {  # case -> (profile sha256, exit code, file sha256, stdout sha256)
        "fifty-tied": ("dccc20d66c7aa1992a9894e37ae7c25cb07747687682d5326e1f743abfb9c19a", 0,
                       "79e26bc7ee4cc6a2ca086f79c28528c2fc6faf42090ef3250a65e54649fff98c",
                       "79e26bc7ee4cc6a2ca086f79c28528c2fc6faf42090ef3250a65e54649fff98c"),
        "odd-labels": ("fe3a71e821b78edda8bdd1bb9740ff6d71524ee256179467eae6be5990ba15e1", 0,
                       "1fa9f09f03d376fc96b0aba223e66fac4d1e1330c7ba4beb06abc58857f46ba6",
                       "1fa9f09f03d376fc96b0aba223e66fac4d1e1330c7ba4beb06abc58857f46ba6"),
        "three-stage": ("387440250bcdef8f7ffba1f3b09f295c3d4c35449480a49c2408a1c3a224b8e2", 0,
                        "d69615623679076cc1e5ef82130e26dbe8ec391cfb1b2c630a4ab4def2eec5d3",
                        "d69615623679076cc1e5ef82130e26dbe8ec391cfb1b2c630a4ab4def2eec5d3"),
    }

    @staticmethod
    def run_simulate(d, case):
        doc, n_max = SIMULATE_PROFILES[case]
        profile = d / f"{case}.json"
        profile.write_text(json.dumps(doc), encoding="utf-8", newline="")
        out = d / f"{case}.csv"
        rc_file = main(["simulate", str(profile), "--n-max", str(n_max), "--out", str(out)])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_stdout = main(["simulate", str(profile), "--n-max", str(n_max), "--out", "-"])
        assert rc_file == rc_stdout
        return (hashlib.sha256(profile.read_bytes()).hexdigest(), rc_file,
                hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())

    @pytest.mark.parametrize("case", sorted(SIMULATE_PROFILES))
    def test_output_matches_recorded_digests(self, tmp_path, case):
        assert self.run_simulate(tmp_path, case) == self.GOLDEN[case]


def reference_solve(profile, n_max):
    """The per-stage recursion solve_reference ran before equal stages were merged."""
    service = [s.service_time for s in profile.stages]
    z = profile.think_time
    m = len(service)
    xs = np.empty(n_max, dtype=np.float64)
    rs = np.empty(n_max, dtype=np.float64)
    qs = np.empty((n_max, m), dtype=np.float64)
    queue = [0.0] * m
    resid = [0.0] * m
    for n in range(1, n_max + 1):
        r_total = 0.0
        for k in range(m):
            v = service[k] * (1.0 + queue[k])
            resid[k] = v
            r_total += v
        x = n / (r_total + z)
        for k in range(m):
            queue[k] = x * resid[k]
        xs[n - 1] = x
        rs[n - 1] = r_total
        qs[n - 1] = queue
    return np.arange(1, n_max + 1, dtype=np.int64), xs, rs, qs


def reference_csv_text(curves):
    """The row-by-row csv.writer export write_csv ran before it wrote by columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "x", "r"] + [f"q_{s.label}" for s in curves.profile.stages])
    for i in range(len(curves.n)):
        writer.writerow([int(curves.n[i]), repr(float(curves.x[i])), repr(float(curves.r[i]))]
                        + [repr(float(v)) for v in curves.q[i]])
    return buf.getvalue()


@st.composite
def tied_profiles(draw):
    """1-60 stages drawn from 1-4 service times, so equal stages are common."""
    pool = draw(st.lists(service_times, min_size=1, max_size=4))
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    z = draw(st.one_of(st.just(0.0), think_times))
    return ServiceProfile.from_service_times(times, think_time=z)


def assert_matches_per_stage_recursion(c, p, n_max):
    for got, want in zip((c.n, c.x, c.r, c.q), reference_solve(p, n_max)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert csv_text(c) == reference_csv_text(c)


@settings(max_examples=80, deadline=None)
@given(tied_profiles(), st.integers(min_value=1, max_value=300))
def test_merged_stages_match_per_stage_recursion_bit_for_bit(p, n_max):
    assert_matches_per_stage_recursion(solve_reference(p, n_max), p, n_max)


@settings(max_examples=40, deadline=None)
@given(tied_profiles(), st.sampled_from([1, 6, 7, 8, 14, 15, 16]))
def test_blocks_of_seven_match_per_stage_recursion_bit_for_bit(p, n_max):
    # populations on both sides of a block boundary, solved and written in blocks of 7
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves_module, "_CSV_BLOCK_ROWS", 7)
        assert_matches_per_stage_recursion(solve_reference(p, n_max), p, n_max)


@pytest.mark.parametrize("times", [
    [0.001 + k * 1e-6 for k in range(3000)],  # one group per stage
    [(0.002, 0.0035, 0.001)[k % 3] for k in range(5000)],  # a 5,000-term cycle time
], ids=["3000-distinct", "5000-of-3"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_long_profiles_match_per_stage_recursion_bit_for_bit(times, n_max):
    p = ServiceProfile.from_service_times(times, think_time=0.5)
    assert_matches_per_stage_recursion(solve_reference(p, n_max), p, n_max)


@st.composite
def wide_profiles(draw):
    """1-300 stages drawn from 1-60 service times."""
    pool = draw(st.lists(service_times, min_size=1, max_size=60))
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    return ServiceProfile.from_service_times(times, think_time=draw(st.one_of(st.just(0.0), think_times)))


@settings(max_examples=40, deadline=None)
@given(wide_profiles(), st.integers(min_value=1, max_value=40))
def test_wide_profiles_match_per_stage_recursion_bit_for_bit(p, n_max):
    assert_matches_per_stage_recursion(solve_reference(p, n_max), p, n_max)


@pytest.mark.parametrize("times, n_max", [
    ([1e308], 50),  # R overflows at n = 2, whose queue is 0 * inf; every later value is NaN
    ([1e308, 1e308, 5e307], 50),  # R overflows at n = 1 though no residence time does
    ([1.7e308, 1e-300], 600),
    ([5e-324, 1e-3], 600),
], ids=["1e308", "1e308-tied", "1.7e308-1e-300", "5e-324-1e-3"])
def test_overflowing_residence_times_match_per_stage_recursion_bit_for_bit(times, n_max):
    # NaN queues included, and no RuntimeWarning, which pytest turns into an error
    p = ServiceProfile.from_service_times(times, think_time=0.0)
    assert_matches_per_stage_recursion(solve_reference(p, n_max), p, n_max)


def test_one_grouping_is_built_once_for_any_service_and_think_times():
    a = ServiceProfile.from_service_times([0.2, 0.1, 0.2, 0.3], think_time=1.0)
    b = ServiceProfile.from_service_times([0.004, 0.5, 0.004, 0.02], think_time=0.0)
    curves_module._recursion.cache_clear()
    for p in (a, b, a, b):
        assert_matches_per_stage_recursion(solve_reference(p, 20), p, 20)
    assert curves_module._recursion.cache_info().misses == 1


def test_generated_recursion_holds_no_label_and_no_float_text(monkeypatch):
    labels = ["__import__('os').getcwd()", 'g0 + 1', "'\"; raise SystemExit  #", "s0\nq0"]
    times = [0.0012345678901234567, 0.30000000000000004, 0.0030000000000000005, 0.0012345678901234567]
    p = ServiceProfile.from_service_times(times, think_time=0.0034999999999999996, labels=labels)
    sources = []

    def spy(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    curves_module._recursion.cache_clear()
    monkeypatch.setattr(curves_module, "compile", spy, raising=False)
    assert_matches_per_stage_recursion(solve_reference(p, 30), p, 30)
    [source] = sources
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    assert {t.string for t in tokens if t.type == tokenize.NUMBER} == {"0.0", "1.0"}
    assert not [t for t in tokens if t.type == tokenize.STRING]
    for text in labels + [repr(v) for v in times + [p.think_time]]:
        assert text not in source


def test_hand_built_curves_write_their_own_columns():
    # four stages share a service time but not their queue columns: b is a
    # sign bit from a (equal under ==), c and d hold NaN
    p = ServiceProfile.from_service_times([0.01, 0.01, 0.01, 0.01], labels=["a", "b", "c", "d"])
    q = np.array([[0.0, -0.0, np.nan, np.nan],
                  [1.5, 1.5, 1.5, np.inf]])
    c = CanonicalCurves(profile=p, n=np.array([1, 2], dtype=np.int64),
                        x=np.array([1.0, -0.0]), r=np.array([np.nan, 2.0]), q=q)
    text = csv_text(c)
    assert text == reference_csv_text(c)
    assert text == "n,x,r,q_a,q_b,q_c,q_d\r\n1,1.0,nan,0.0,-0.0,nan,nan\r\n2,-0.0,2.0,1.5,1.5,1.5,inf\r\n"


@pytest.mark.parametrize("times, z, exponent", [
    ([0.0035, 0.005, 0.002], 1e6, "e-"),  # x = n / (R + Z) below 1e-4 for n < 100
    ([1e-17, 2e-17, 1e-17], 0.0, "e+"),  # x = 1 / S_max from 5e16 up
], ids=["x-below-1e-4", "x-from-1e16"])
def test_exponent_forms_are_written_as_the_row_writer_wrote_them(monkeypatch, times, z, exponent):
    monkeypatch.setattr(curves_module, "_CSV_BLOCK_ROWS", 64)
    c = solve_reference(ServiceProfile.from_service_times(times, think_time=z), 150)
    text = csv_text(c)
    assert text == reference_csv_text(c)
    assert exponent in text.splitlines()[1].split(",")[1]


def test_csv_is_written_in_blocks(monkeypatch):
    # a curve longer than one block gives the same text as the row-by-row writer
    monkeypatch.setattr(curves_module, "_CSV_BLOCK_ROWS", 7)
    c = solve_reference(ServiceProfile.from_service_times([0.2, 0.1, 0.2], think_time=1.0), 30)
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    sink = Sink()
    c.write_csv(sink)
    assert sink.getvalue() == reference_csv_text(c)
    assert len(writes) == 1 + 5  # header, then ceil(30 / 7) blocks


# float64 values whose shortest text is not Ryu's, or sits next to the
# boundary where the two part, beside any bit pattern at all
_EDGE_VALUES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 9.999999999999999e-05, 1e-4, 0.00010000000000000002,
                -9.999999999999999e-05, 9999999999999998.0, 1e16, 1.0000000000000002e16,
                -1e16, 1.7976931348623157e308]
_any_bits = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@st.composite
def hand_built_curves(draw):
    """Curves of 1-60 stages and 1-600 rows of plain values, with edge values
    and arbitrary bit patterns put anywhere in x, r and q."""
    m = draw(st.integers(1, 60))
    rows = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), (rows, m + 2)))
    for _ in range(draw(st.integers(0, 30))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, m + 1))
        values[i, j] = draw(st.sampled_from(_EDGE_VALUES) | _any_bits)
    p = ServiceProfile.from_service_times([0.01] * m)
    return CanonicalCurves(profile=p, n=np.arange(1, rows + 1, dtype=np.int64), x=values[:, 0].copy(),
                           r=values[:, 1].copy(), q=np.ascontiguousarray(values[:, 2:]))


@settings(max_examples=60, deadline=None)
@given(hand_built_curves(), st.integers(1, 40))
def test_rows_with_edge_values_are_written_as_the_row_writer_wrote_them(c, block_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves_module, "_CSV_BLOCK_ROWS", block_rows)
        assert csv_text(c) == reference_csv_text(c)


_MEMORY_PROFILES = {  # case -> (service times, think time), in seconds
    "fifty-tied": ([s["service_time"] / 1000 for s in _tied_profile_50()["stages"]],
                   _tied_profile_50()["think_time"] / 1000),
    # no two stages equal, so a block's queue product is as wide as the profile
    "fifty-distinct": ([0.0005 * 1.047 ** k for k in range(50)], 0.25e-3),
    "three-stage": ([0.0035, 0.005, 0.002], 10.0),
}


@pytest.mark.parametrize("case", list(_MEMORY_PROFILES))
def test_solve_and_write_hold_about_one_curve_in_memory(case):
    # a list of the whole curve's floats would hold about 3x the returned
    # arrays, a whole-curve residence table 2x, and a whole-curve
    # column_stack in write_csv 8.5 MB more
    times, z = _MEMORY_PROFILES[case]
    p = ServiceProfile.from_service_times(times, think_time=z)
    tracemalloc.start()
    try:
        c = solve_reference(p, 20_000)
        _, solve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        with open(os.devnull, "w", newline="") as fh:
            c.write_csv(fh)
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (c.n, c.x, c.r, c.q))
    assert solve_peak <= 1.25 * returned
    assert write_peak - before < 3 * 2 ** 20


@pytest.mark.parametrize("case", list(_MEMORY_PROFILES))
def test_solve_and_write_hold_about_one_curve_in_memory_with_a_cold_cache(case):
    # the build of the grouping's recursion counts against the same bound
    curves_module._recursion.cache_clear()
    test_solve_and_write_hold_about_one_curve_in_memory(case)
