"""loadlaw benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a loadlaw checkout; loadlaw is imported from its
``src`` directory, never from an installed copy. The run:

1. writes the seeded inputs (gen.py) under ``.perfbench_tmp/`` in the
   checkout;
2. times set-up: fresh interpreters that import ``loadlaw.cli``
   (half of SETUP_PROBES before the worker, the worker itself, the
   other half after it), median reported;
3. runs the jobs in one worker process (worker.py), one at a time;
4. checks every job's output in a separate process (check.py);
5. prints a human summary, then one JSON line: with ``--trace 0`` the
   end-to-end metrics, with ``--trace 1`` the per-layer metrics and the
   tracing overhead.

Job times are summarized per job as the median over the run's cycles,
then over the job list, and scaled to a reference host speed: the
worker times a fixed calibration loop after each cycle, and every job
time is multiplied by CALIBRATION_REF_MS over the loop's median time in
the same run. The host's speed drifts by tens of percent from minute to
minute; the scaling cancels that drift, not the program's speed.

Exits 2 without a result when the checkout has no loadlaw sources, a
step fails or overruns, or the worker ran more than one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 10
# what worker.calibrate() takes on the reference host; scaled job times
# read as milliseconds on a host where the calibration loop takes this long
CALIBRATION_REF_MS = 5.0
DEADLINE_S = 170  # every run must end within 180 s
# one process and one thread: keep numpy's BLAS pool from starting threads
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
# the same string hashes, so the same dict and set layouts, in every run
FIXED_HASH_ENV = {"PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def _env():
    env = dict(os.environ, PYTHONPATH=SRC, **SINGLE_THREAD_ENV, **FIXED_HASH_ENV)
    env.pop("PYTHONHOME", None)
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("run exceeded its time limit")
    return left


def _start(args):
    """Start a worker and wait for its ``ready`` line; returns (proc, setup s, import ns)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            stdout=subprocess.PIPE, text=True, env=_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not line.startswith("ready "):
            raise RunFailed(f"worker did not start: {line!r}")
        return proc, setup, int(line.split()[1])
    except BaseException:
        _stop(proc)
        raise


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, deadline):
    try:
        proc.wait(timeout=_remaining(deadline))
    finally:
        _stop(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")


def _remove_if_empty(path):
    try:
        os.rmdir(path)
    except OSError:  # still in use by another run, or already gone
        pass


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _probe(count, setups, import_ns, deadline):
    """Time ``count`` fresh interpreters that only import loadlaw.cli."""
    for _ in range(count):
        proc, setup, ns = _start(["--probe"])
        _finish(proc, deadline)
        setups.append(setup)
        import_ns.append(ns)


def _scaled_ms(records, calibration):
    """Each job's median time among ``records``, in reference-speed ms, by job id.

    Also returns the speed factor: CALIBRATION_REF_MS over the median
    calibration time of the cycles that ``records`` come from.
    """
    cycles = {r["cycle"] for r in records}
    factor = CALIBRATION_REF_MS / (statistics.median(ns for c, ns in calibration if c in cycles) / 1e6)
    times = defaultdict(list)
    for r in records:
        times[r["id"]].append(r["ns"])
    return {job_id: statistics.median(ns) / 1e6 * factor for job_id, ns in times.items()}, factor


def run(workload, seed, seconds, trace, deadline):
    run_dir = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        jobs = gen.generate(workload, seed, run_dir)
        setups, import_ns = [], []
        _probe(SETUP_PROBES // 2, setups, import_ns, deadline)
        proc, setup, ns = _start([run_dir, str(seconds), str(trace)])
        setups.append(setup)
        import_ns.append(ns)
        _finish(proc, deadline)
        _probe(SETUP_PROBES - SETUP_PROBES // 2, setups, import_ns, deadline)
        subprocess.run([sys.executable, os.path.join(HERE, "check.py"), run_dir], env=_env(),
                       check=True, timeout=_remaining(deadline))
        with open(os.path.join(run_dir, "results.json")) as fh:
            results = json.load(fh)
        if results["threads"] != 1:
            raise RunFailed(f"worker ran {results['threads']} threads, not 1")
        records = gen.read_records(run_dir)
        with open(os.path.join(run_dir, "check.json")) as fh:
            checked = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _remove_if_empty(os.path.dirname(run_dir))
    return summarize(jobs, records, results, checked, setups, import_ns, trace)


def summarize(jobs, records, results, checked, setups, import_ns, trace):
    failed = checked["failed"]
    attempted = checked["attempted"]
    by_id = {job["id"]: job for job in jobs}
    untraced = [r for r in records if r["cycle"] >= 0 and not r["traced"]]
    scaled, factor = _scaled_ms(untraced, results["calibration_ns"])
    p50 = statistics.median(scaled.values())
    info = {"workload_jobs_per_cycle": len(jobs), "attempted": attempted, "failed": len(failed),
            "error_rate": len(failed) / attempted, "timed_jobs": len(untraced),
            "timed_cycles": len({r["cycle"] for r in untraced}),
            "unscaled_job_p50_ms": statistics.median(r["ns"] for r in untraced) / 1e6,
            "speed_factor": factor}
    for seq, reason in list(failed.items())[:5]:
        print(f"check failed: job {seq}: {reason}", file=sys.stderr)

    if not trace:
        rows = sum(by_id[job_id]["rows_in"] + by_id[job_id]["rows_out"] for job_id in scaled)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "job_p50_ms": (p50, "ms"),
            "job_p99_ms": (_quantile(scaled.values(), 99), "ms"),
            "rows_per_s": (rows / (sum(scaled.values()) / 1e3), "rows/s"),
            "peak_rss_mb": (results["maxrss_kb"] / 1024, "MB"),
            "success_ratio": (1 - len(failed) / attempted, "ratio"),
        }
        info.update({"setup_samples": len(setups),
                     "peak_rss_end_mb": results["maxrss_end_kb"] / 1024})
    else:
        traced = [r for r in records if r["cycle"] >= 0 and r["traced"]]
        cycle_of = {r["seq"]: r["cycle"] for r in traced}
        layer = tracing.per_cycle_metrics(results["spans"], results["counts"], cycle_of)
        missing = results["missing_spans"]
        metrics = {name: (layer.get(name, 0.0), _unit(name))
                   for name in tracing.expected_metrics(missing)}
        metrics["setup.import_loadlaw_ms"] = (statistics.median(import_ns) / 1e6, "ms")
        # what the wrappers add to one cycle: measured cost of one span times spans per cycle
        metrics["trace.overhead_ms"] = (layer["trace.spans"] * results["span_cost_ns"] / 1e6, "ms")
        traced_p50 = statistics.median(_scaled_ms(traced, results["calibration_ns"])[0].values())
        info.update({"untraced_job_p50_ms": p50, "traced_job_p50_ms": traced_p50,
                     "traced_jobs": len(traced), "traced_cycles": len(set(cycle_of.values())),
                     "spans_per_cycle": layer["trace.spans"],
                     "span_cost_ns": results["span_cost_ns"], "missing_metrics": missing})
    print("summary " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:45s} {value:14.6g} {unit}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def _unit(name):
    if name.endswith("ms"):
        return "ms"
    return "bytes" if name.endswith("bytes") else "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(2))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "loadlaw", "__init__.py")):
        print(f"perfbench: no loadlaw sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RunFailed, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
