"""Seeded input generator for the loadlaw benchmark.

``generate(workload, seed, out_dir)`` writes profiles, series CSVs and
traces into ``out_dir`` plus ``jobs.json``: the workload's warm-up job
and job cycle, each job with its argv (or library call) and its label
(expected exit code, verdict and set of non-info ``(detector,
severity)`` pairs). The same seed gives byte-identical files.

The lawful curves come from this file's own exact MVA recursion, not
from loadlaw, so a change to the program never changes its inputs.
Injected defects are gross on purpose (a 1.5x throughput overclaim, a
pool capped 8x below the top load, pacing at a quarter of the declared
think time, 10-30 % throughput drops, a response slope at 0.2 S_max), so
the labels hold under the default DetectorConfig with wide margins.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("diagnose-2k", "reference-curves", "many-small")

TT = "THREAD_THROTTLING"
THINK = "THINK_TIME_VIOLATION"
FLAT = "RESPONSE_FLATTENING"
BOUND = "BOUND_VIOLATION"
RETRO = "RETROGRADE_THROUGHPUT"
CRIT = "critical"
WARN = "warning"

NOISE = 0.002  # relative measurement noise on lawful points
P3_MS = (("parse", 3.5), ("lookup", 5.0), ("commit", 2.0))
P3_Z_S = 10.0
# diagnose-2k's think time: it puts the knee near n = 200, so a 2,000-row
# sweep runs to ten times the knee
DIAG_Z_S = 1.0


def mva(service_s, z, n_max):
    """Exact closed-network X(n), R(n) for n = 1..n_max (index 0 is n=1)."""
    queue = [0.0] * len(service_s)
    xs, rs = [], []
    for n in range(1, n_max + 1):
        resid = [s * (1.0 + q) for s, q in zip(service_s, queue)]
        r = sum(resid)
        x = n / (r + z)
        queue = [x * v for v in resid]
        xs.append(x)
        rs.append(r)
    return xs, rs


def read_profile(path):
    """(labels, service times in s, think time in s) of a profile JSON file."""
    with open(path) as fh:
        doc = json.load(fh)
    scale = 1000.0 if doc["time_unit"] == "ms" else 1.0
    return ([s["label"] for s in doc["stages"]], [s["service_time"] / scale for s in doc["stages"]],
            doc["think_time"] / scale)


RECORDS = "records.jsonl"  # worker.py appends one JSON line per job run


def read_records(run_dir):
    """The job records worker.py wrote to ``RECORDS``, in run order."""
    with open(os.path.join(run_dir, RECORDS)) as fh:
        return [json.loads(line) for line in fh]


def _profile_doc(stages_ms, z_s):
    return {"stages": [{"label": lbl, "service_time": st} for lbl, st in stages_ms],
            "think_time": z_s * 1000.0, "time_unit": "ms"}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_series(path, header, rows, r_scale):
    with open(path, "w") as fh:
        fh.write(f"n,x,{header}\n")
        for n, x, r in rows:
            fh.write(f"{n},{x!r},{r * r_scale!r}\n")


def _noisy(rng, v):
    return v * (1.0 + rng.uniform(-NOISE, NOISE))


def _label(exit_code, verdict=None, pairs=()):
    return {"exit": exit_code, "verdict": verdict, "pairs": sorted([list(p) for p in set(pairs)])}


def _cli_job(kind, argv, rows_in, label, **check):
    return {"kind": kind, "argv": argv, "rows_in": rows_in, "rows_out": 0,
            "label": label, "check": check}


# --- diagnose-2k ---------------------------------------------------------

def _gen_diagnose(rng, d, size):
    p3 = "p3.json"
    _write_json(os.path.join(d, p3), _profile_doc(P3_MS, DIAG_Z_S))
    service = [st / 1000.0 for _, st in P3_MS]
    xs, rs = mva(service, DIAG_Z_S, size)

    clean = [(n, _noisy(rng, xs[n - 1]), _noisy(rng, rs[n - 1])) for n in range(1, size + 1)]
    _write_series(os.path.join(d, "clean.csv"), "r_ms", clean, 1000.0)

    # generator pool capped at `cap` clients: beyond it the system only ever
    # sees `cap` users, whatever load the harness reports
    # (the cap varies by only 1 % between seeds, so the work per job does not)
    cap = rng.randint(3 * size // 10 - size // 200, 3 * size // 10 + size // 200)
    broken = [(n, _noisy(rng, xs[min(n, cap) - 1]), _noisy(rng, rs[min(n, cap) - 1]))
              for n in range(1, size + 1)]
    _write_series(os.path.join(d, "broken.csv"), "r", broken, 1.0)

    def job(name, rows, label):
        return _cli_job("report", ["diagnose", name, "--profile", p3, "--z", repr(DIAG_Z_S),
                                   "--out", "{out}.report.json"],
                        rows, label, series=name, profile=p3, out_copy=True)

    # the warm-up is the clean job, run once before the timed cycles
    return job("clean.csv", size, _label(0, "clean")), [
        job("clean.csv", size, _label(0, "clean")),
        job("broken.csv", size, _label(4, "broken", [(TT, CRIT), (THINK, CRIT), (FLAT, CRIT)]))]


# --- reference-curves ----------------------------------------------------

def _gen_reference_curves(rng, d, size):
    p3, p50 = "p3.json", "p50.json"
    _write_json(os.path.join(d, p3), _profile_doc(P3_MS, P3_Z_S))
    # monitoring exports quantize to 0.1 ms, so equal stages occur naturally
    stages50 = [(f"s{i:02d}", round(math.exp(rng.uniform(math.log(0.5), math.log(5.0))), 1))
                for i in range(1, 51)]
    _write_json(os.path.join(d, p50), _profile_doc(stages50, P3_Z_S))
    small = max(2, size // 10)

    def simulate(profile, n_max, oracle):
        return {"kind": "curve_csv",
                "argv": ["simulate", profile, "--n-max", str(n_max), "--out", "{out}.csv"],
                "rows_in": 0, "rows_out": n_max, "label": _label(0),
                "check": {"profile": profile, "n_max": n_max, "oracle": oracle}}

    jobs = [
        simulate(p3, size, True),
        simulate(p50, small, False),
        {"kind": "lib_solve", "profile": p50, "n_max": size, "rows_in": 0, "rows_out": size,
         "label": _label(None), "check": {"profile": p50, "n_max": size, "oracle": False}},
        {"kind": "lib_chain", "profile": p3, "n_max": size, "rows_in": size, "rows_out": size,
         "label": _label(None, "clean"), "check": {"profile": p3, "n_max": size}},
    ]
    return dict(jobs[0]), jobs


# --- many-small ----------------------------------------------------------

# (defect, share of the sweep pool). The labels per command follow from
# how each defect is built in _small_sweep.
DEFECTS = (("lawful", 4), ("overclaim", 2), ("capped", 2), ("pacing", 2),
           ("retrograde", 2), ("flattened", 2))

# defect -> (labels for diagnose with profile, without profile, audit)
SMALL_LABELS = {
    "lawful": ((0, "clean", ()), (0, "clean", ()), (0, "clean", ())),
    # no profile means no independent ceiling: the overclaim is invisible
    "overclaim": ((4, "broken", [(BOUND, CRIT)]), (0, "clean", ()), (0, "clean", ())),
    "capped": ((4, "broken", [(TT, CRIT), (THINK, CRIT), (FLAT, CRIT)]),
               (4, "broken", [(TT, CRIT), (THINK, CRIT), (FLAT, CRIT)]),
               (4, "broken", [(TT, CRIT), (THINK, CRIT)])),
    "pacing": ((4, "broken", [(THINK, CRIT)]), (4, "broken", [(THINK, CRIT)]),
               (4, "broken", [(THINK, CRIT)])),
    # audit runs no retrograde check, and warnings never fail an audit
    "retrograde": ((4, "suspect", [(RETRO, WARN)]), (4, "suspect", [(RETRO, WARN)]),
                   (0, "clean", ())),
    "flattened": ((4, "broken", [(FLAT, CRIT)]), (4, "broken", [(FLAT, CRIT)]), (0, "clean", ())),
}


def _small_profile(rng):
    """2-5 stages with one clear bottleneck, think time 0.5-2 s."""
    m = rng.randint(2, 5)
    s_max = round(rng.uniform(4.0, 8.0), 2)
    stages = [round(rng.uniform(0.1, 0.6) * s_max, 2) for _ in range(m - 1)]
    stages.insert(rng.randrange(m), s_max)
    return [(f"st{i}", st) for i, st in enumerate(stages, 1)], rng.choice((0.5, 1.0, 2.0))


def _sweep_ns(n_lo, n_hi, k):
    ratio = (n_hi / n_lo) ** (1.0 / (k - 1))
    ns = []
    for i in range(k):
        n = max(1, round(n_lo * ratio ** i))
        if ns and n <= ns[-1]:
            n = ns[-1] + 1
        ns.append(n)
    return ns


def _small_sweep(rng, defect, service, z, k):
    """Rows (n, x, r in seconds) of a k-point sweep and the think time to declare."""
    r_min, s_max = sum(service), max(service)
    n_opt = (r_min + z) / s_max
    lo, hi = (1 / 8, 2.0) if defect == "flattened" else (1 / 4, 4.0)
    ns = _sweep_ns(max(2.0, n_opt * lo), n_opt * hi, k)
    z_act = z / 4 if defect == "pacing" else z
    xs, rs = mva(service, z_act, ns[-1])
    rows = [(n, _noisy(rng, xs[n - 1]), _noisy(rng, rs[n - 1])) for n in ns]

    if defect == "overclaim":
        # errors counted as completed work in the top third: 1.5x the ceiling
        for i in range(k - k // 3, k):
            n, x, r = rows[i]
            rows[i] = (n, 1.5 * x, r)
    elif defect == "capped":
        # pool capped at the point a quarter of the way up; later points
        # replay the capped population's behaviour
        c = (k - 1) // 4
        cap = ns[c]
        rows = rows[:c + 1] + [(n, _noisy(rng, xs[cap - 1]), _noisy(rng, rs[cap - 1]))
                               for n in ns[c + 1:]]
    elif defect == "retrograde":
        # thrashing over the top 30 %: throughput falls 10-30 % below its
        # best while Little's law still holds, so response climbs faster
        start = k - max(2, round(0.3 * k))
        best = max(x for _, x, _ in rows[:start])
        for j, i in enumerate(range(start, k)):
            n = rows[i][0]
            x = best * (0.9 - 0.2 * j / max(1, k - 1 - start))
            rows[i] = (n, x, n / x - z)
    elif defect == "flattened":
        # past the knee response climbs at a fifth of the bottleneck slope
        first = next(i for i, n in enumerate(ns) if n > n_opt)
        base_n, base_r = ns[first - 1], rows[first - 1][2]
        for i in range(first, k):
            n, x, _ = rows[i]
            rows[i] = (n, x, _noisy(rng, base_r + 0.2 * s_max * (n - base_n)))
    return rows, z


def _small_trace(rng, path, m):
    level = rng.uniform(50.0, 500.0)
    t = rng.uniform(0.0, 100.0)
    t0, tau = t, rng.uniform(5.0, 50.0)
    with open(path, "w") as fh:
        fh.write("t,x_inst\n")
        for _ in range(m):
            x = level * (1.0 - math.exp(-(t - t0) / tau)) * (1.0 + rng.uniform(-0.05, 0.05))
            fh.write(f"{t!r},{x!r}\n")
            t += rng.uniform(0.5, 1.5)
    return m


def _spread(lo, hi, count, rng):
    """``count`` whole numbers spread evenly over [lo, hi], in seeded order."""
    values = [lo + round(i * (hi - lo) / max(1, count - 1)) for i in range(count)]
    rng.shuffle(values)
    return values


def _gen_many_small(rng, d, size):
    n_sweeps, n_traces = max(1, size // 4), max(1, size // 8)
    # sweep lengths 8-40 points and trace lengths 300-2,000 samples, spread
    # evenly and dealt out by the seed: every seed has the same job sizes
    ks = _spread(8, 40, n_sweeps, rng)
    ms = _spread(300, 2000, n_traces, rng)
    profiles = []
    for i in range(6):
        stages, z = _small_profile(rng)
        path = f"profile{i}.json"
        _write_json(os.path.join(d, path), _profile_doc(stages, z))
        profiles.append((path, [st / 1000.0 for _, st in stages], z))
    # fixed shares of each defect, so the work per cycle hardly varies by seed
    mix = [name for name, weight in DEFECTS for _ in range(weight)]
    jobs = []
    for i in range(n_sweeps):
        defect = mix[i % len(mix)]
        ppath, service, z = rng.choice(profiles)
        rows, z_decl = _small_sweep(rng, defect, service, z, ks[i])
        header = rng.choice(("r", "r_s", "r_ms"))
        spath = f"sweep{i:03d}.csv"
        _write_series(os.path.join(d, spath), header, rows, 1000.0 if header == "r_ms" else 1.0)
        z_arg = ["--z", repr(z_decl)]
        with_p, without_p, audit = SMALL_LABELS[defect]
        common = {"series": spath, "defect": defect}
        jobs.append(_cli_job("report", ["diagnose", spath, "--profile", ppath] + z_arg
                             + ["--plot-csv", "{out}.plot.csv"],
                             len(rows), _label(*with_p), profile=ppath, plot=True, **common))
        jobs.append(_cli_job("report", ["diagnose", spath] + z_arg,
                             len(rows), _label(*without_p), **common))
        jobs.append(_cli_job("report", ["audit", spath] + z_arg + ["--format", "json"],
                             len(rows), _label(*audit), **common))
    for i in range(n_traces):
        tpath = f"trace{i:03d}.csv"
        m = _small_trace(rng, os.path.join(d, tpath), ms[i])
        jobs.append({"kind": "steady", "argv": ["steady", tpath, "--format", "json",
                                                "--warmup", "0.25"],
                     "rows_in": m, "rows_out": 0, "label": _label(0),
                     "check": {"trace": tpath, "warmup": 0.25}})
        jobs.append({"kind": "steady", "argv": ["steady", tpath, "--format", "json"],
                     "rows_in": m, "rows_out": 0, "label": _label(0),
                     "check": {"trace": tpath, "warmup": None}})
    rng.shuffle(jobs)
    return dict(jobs[0]), jobs


_GENERATORS = {"diagnose-2k": (_gen_diagnose, 2_000),
               "reference-curves": (_gen_reference_curves, 2_000),
               "many-small": (_gen_many_small, 192)}


def generate(workload: str, seed: int, out_dir: str, size: int | None = None) -> list[dict]:
    """Write the workload's inputs and ``jobs.json`` into ``out_dir``.

    ``size`` overrides the workload's scale (rows per sweep, population,
    or sweep-pool size times four); the benchmark always uses the default
    and only its self-tests shrink it.
    """
    fn, default_size = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    warmup, jobs = fn(rng, out_dir, size or default_size)
    warmup["id"] = -1
    for i, job in enumerate(jobs):
        job["id"] = i
    _write_json(os.path.join(out_dir, "jobs.json"), {"workload": workload, "seed": seed,
                                                     "warmup": warmup, "jobs": jobs})
    return jobs
