import gc

import numpy as np
from hypothesis import strategies as st

from loadlaw import LoadPoint, LoadSeries, ServiceProfile

# Load sweep against a generator whose thread pool was capped near 120
# running clients: the audit's canonical worked example (r in seconds).
CAPPED_POOL_ROWS = [
    (1, 24.0, 0.040),
    (5, 48.0, 0.102),
    (10, 99.0, 0.100),
    (120, 423.0, 0.276),
    (200, 428.0, 0.279),
    (300, 420.0, 0.285),
    (400, 423.0, 0.293),
]

CAPPED_POOL_EXPECTED = {  # n -> (n_run, n_idle) as printed at 2 decimals
    1: (0.96, 0.04),
    5: (4.90, 0.10),
    10: (9.90, 0.10),
    120: (116.75, 3.25),
    200: (119.41, 80.59),
    300: (119.70, 180.30),
    400: (123.94, 276.06),
}


def three_stage_profile(think_time=10.0):
    """3.5/5.0/2.0 ms stages; the bounds worked example."""
    return ServiceProfile.from_service_times([0.0035, 0.005, 0.002],
                                             think_time=think_time,
                                             labels=["parse", "lookup", "commit"])


def capped_pool_series(**kwargs):
    points = tuple(LoadPoint(n=n, x=x, r=r) for n, x, r in CAPPED_POOL_ROWS)
    return LoadSeries(points=points, **kwargs)


def random_profile(rng, max_stages=4, s_lo=1e-3, s_hi=1.0, z_hi=30.0):
    """Log-uniform service times, uniform think time; shared by tests."""
    m = int(rng.integers(1, max_stages + 1))
    times = list(np.exp(rng.uniform(np.log(s_lo), np.log(s_hi), m)))
    z = float(rng.uniform(0.0, z_hi))
    return ServiceProfile.from_service_times(times, think_time=z)


service_times = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False)
think_times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw, max_stages=4):
    times = draw(st.lists(service_times, min_size=1, max_size=max_stages))
    z = draw(think_times)
    return ServiceProfile.from_service_times(times, think_time=z)


@st.composite
def load_series(draw, max_points=8):
    ns = draw(st.lists(st.integers(min_value=1, max_value=100_000),
                       min_size=1, max_size=max_points, unique=True))
    ns.sort()
    points = []
    for n in ns:
        x = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
        r = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False))
        points.append(LoadPoint(n=n, x=x, r=r))
    z = draw(st.one_of(st.none(), think_times))
    return LoadSeries(points=tuple(points), configured_think_time=z)


def gen0_collections(call, threshold: int = 100) -> int:
    """Gen-0 collections during ``call()`` with the gen-0 threshold at
    ``threshold``, counted from a fresh collection: nonzero once the
    objects the collector tracks (lists, tuples, dicts, ...) net of those
    freed rise by more than ``threshold`` at any point in the call."""
    enabled, old = gc.isenabled(), gc.get_threshold()
    gc.collect()
    gc.set_threshold(threshold, *old[1:])
    gc.enable()
    try:
        before = gc.get_stats()[0]["collections"]
        call()
        return gc.get_stats()[0]["collections"] - before
    finally:
        gc.set_threshold(*old)
        if not enabled:
            gc.disable()


_PROFILE = '{"stages":[{"label":"a","service_time":%s}],"think_time":%s,"time_unit":%s}'
# profiles that once crashed parse_profile: name -> (text, start of the ParseError's message)
PROFILE_PROBES = {
    "think-time-past-float64": (_PROFILE % ("1", "1" + "0" * 400, '"s"'),
                                "think_time must be finite, got inf"),
    "service-time-past-float64": (_PROFILE % ("1" + "0" * 400, "0", '"s"'),
                                  "stage #1: stage 'a' service_time must be finite, got inf"),
    "list-time-unit": (_PROFILE % ("1", "0", "[]"), "profile time_unit must be one of ['ms', 's'], got []"),
    "object-time-unit": (_PROFILE % ("1", "0", "{}"), "profile time_unit must be one of ['ms', 's'], got {}"),
    "integer-past-digit-limit": (_PROFILE % ("1", "1" * 4301, '"s"'), "invalid JSON: "),
    "nested-100000-deep": ("[" * 100_000 + "]" * 100_000, "invalid JSON: "),
    # a refused value is quoted by its first 80 characters and its length, not whole
    "million-character-think-time": (_PROFILE % ("1", '"' + "9" * 1_000_000 + '"', '"s"'),
                                     f"think_time must be a number, got {'9' * 80!r}... (1000000 characters)"),
}

_HUGE_CELL = '"' + "9" * 200_000 + '"'  # past csv.field_size_limit(), 131,072 by default
_FIELD_LIMIT = "malformed row: field larger than field limit (131072)"
# CSVs that once crashed parse_series and parse_trace, read by both (columns n,x,r and t,x_inst):
# name -> (text, the ParseError's message); a comment line makes line numbers differ from row numbers
CSV_PROBES = {
    "header": (f"n,x,r,t,x_inst,{_HUGE_CELL}\n1,1,0.1,0,1\n", f"line 1: {_FIELD_LIMIT}"),
    "series-body": (f"n,x,r,t,x_inst\n1,1,0.1,0,1\n# pause\n2,1,0.1,1,1\n3,{_HUGE_CELL},0.1,2,1\n",
                    f"line 5: {_FIELD_LIMIT}"),
    "trace-body": (f"n,x,r,t,x_inst\n1,1,0.1,0,1\n# pause\n2,1,0.1,1,1\n3,1,0.1,2,{_HUGE_CELL}\n",
                   f"line 5: {_FIELD_LIMIT}"),
}
