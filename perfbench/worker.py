"""The timed process of the loadlaw benchmark: runs one workload's jobs.

    python3 worker.py --probe
    python3 worker.py RUN_DIR SECONDS TRACE

Started in a fresh interpreter with loadlaw's ``src`` on PYTHONPATH. It
imports ``loadlaw.cli`` and prints ``ready <import ns>`` at once, so
the launcher can time set-up. ``--probe`` stops there. Otherwise it
runs from RUN_DIR (made by gen.py): the untimed warm-up job, then whole
cycles of the job list until SECONDS have passed, one job at a time on
this one thread. With TRACE=1 the first half runs untraced and the
second half traced, so the difference gives the tracing overhead.

A job's timer covers only the loadlaw call (and flushing its stdout).
Results are handed over after the timer stops: library results as
``.npy`` arrays and a small JSON, everything else as the files the CLI
wrote. Outputs identical to one already kept are replaced by their
digest, so disk use stays at one copy of each distinct output. Each
job's record goes to ``records.jsonl`` as soon as the job ends, so the
harness's memory does not grow with the number of jobs a run completes.
The peak resident set is read after the first timed cycle, so it
covers a fixed amount of work: loadlaw's own heap grows a little with
every cycle, and a faster program completes more of them. After each
cycle the worker times ``calibrate()``, a fixed piece of Python and
numpy work that does not touch loadlaw; run.py uses it to scale job
times to a reference host speed. Nothing is checked here; check.py does
that in its own process.
"""

import sys
import time

_t0 = time.perf_counter_ns()
import loadlaw.cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _t0
print(f"ready {IMPORT_NS}", flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import loadlaw  # noqa: E402
import numpy as np  # noqa: E402

from gen import RECORDS, read_profile  # noqa: E402
from tracing import Tracer, span_cost_ns  # noqa: E402


# input of calibrate()'s JSON step: small records, as in a report's rows
CALIBRATION_DOC = [{"n": i, "x": i * 0.37, "r": i / 7.0, "ok": True} for i in range(400)]


def calibrate():
    """Time a fixed mix of Python, numpy and JSON work, in ns."""
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(30_000):
        total += i * i
    np.sort(np.random.default_rng(0).random(25_000))
    json.dumps(CALIBRATION_DOC, indent=2)
    return time.perf_counter_ns() - t0


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, jobs, profiles, records):
        self.jobs = jobs
        self.profiles = profiles
        self.records = records  # file the job records are appended to
        self.seq = 0
        self.first_cycle_maxrss_kb = None
        self.calibration = []  # [cycle, ns] after each timed cycle
        self.kept = {}  # digest -> path of the one copy kept
        self.tracer = None

    def _keep(self, path):
        digest = _digest(path)
        if digest in self.kept:
            os.remove(path)
            return [None, digest]
        self.kept[digest] = path
        return [path, digest]

    def run(self, job, cycle):
        seq = self.seq
        self.seq += 1
        base = os.path.join("out", str(seq))
        if self.tracer is not None:
            self.tracer.job = seq
        outputs, error, result = {}, None, None
        real_stdout = sys.stdout
        with open(base + ".stdout", "w") as fh:
            sys.stdout = fh
            try:
                t0 = time.perf_counter_ns()
                try:
                    if job["kind"] in ("lib_solve", "lib_chain"):
                        result = self._library(job)
                        rc = None
                    else:
                        rc = loadlaw.cli.main([a.replace("{out}", base) for a in job["argv"]])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a crash is a failed job, not a failed run
                    rc, error = "crash", f"{type(exc).__name__}: {exc}"
                fh.flush()
                elapsed = time.perf_counter_ns() - t0
            finally:
                sys.stdout = real_stdout
        try:
            if result is not None:
                self._hand_over(job, result, base)
            for role, suffix in (("stdout", ".stdout"), ("report", ".report.json"),
                                 ("plot", ".plot.csv"), ("csv", ".csv"), ("npy", ".npy"),
                                 ("json", ".json")):
                if os.path.exists(base + suffix):
                    outputs[role] = self._keep(base + suffix)
        except Exception as exc:  # a result that cannot be handed over fails its job
            error = error or f"handover {type(exc).__name__}: {exc}"
        json.dump({"seq": seq, "id": job["id"], "cycle": cycle, "traced": self.tracer is not None,
                   "rc": rc, "ns": elapsed, "outputs": outputs, "error": error}, self.records)
        self.records.write("\n")

    def _library(self, job):
        profile = self.profiles[job["profile"]]
        if job["kind"] == "lib_solve":
            return loadlaw.solve_reference(profile, job["n_max"])
        return loadlaw.diagnose_series(loadlaw.solve_reference(profile, job["n_max"]).as_series(),
                                       profile)

    @staticmethod
    def _hand_over(job, result, base):
        if job["kind"] == "lib_solve":
            np.save(base + ".npy", np.stack([result.n, result.x, result.r, result.q.sum(axis=1)]))
            return
        audit = result.audit
        np.save(base + ".npy", np.array([[row.n_was for row in audit], [row.x_was for row in audit],
                                         [row.r_was for row in audit], [row.n_run for row in audit]],
                                        dtype=np.float64))
        with open(base + ".json", "w") as fh:
            json.dump({"verdict": result.verdict,
                       "findings": [[f.detector, f.severity] for f in result.findings],
                       "x_max": result.bounds.x_max if result.bounds is not None else None}, fh)

    def phase(self, seconds, first_cycle):
        """Whole cycles of the job list until ``seconds`` have passed."""
        start = time.perf_counter()
        cycle = first_cycle
        while True:
            for job in self.jobs:
                self.run(job, cycle)
            self.calibration.append([cycle, calibrate()])
            cycle += 1
            if self.first_cycle_maxrss_kb is None:
                self.first_cycle_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.perf_counter() - start >= seconds:
                return cycle


def _profiles(jobs):
    """ServiceProfile objects for the library jobs, built before any timer."""
    profiles = {}
    for job in jobs:
        if job["kind"] in ("lib_solve", "lib_chain") and job["profile"] not in profiles:
            labels, service, z = read_profile(job["profile"])
            profiles[job["profile"]] = loadlaw.ServiceProfile.from_service_times(
                service, think_time=z, labels=labels)
    return profiles


def main(argv):
    run_dir, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    os.chdir(run_dir)
    os.makedirs("out", exist_ok=True)
    with open("jobs.json") as fh:
        doc = json.load(fh)
    jobs = doc["jobs"]
    missing = []
    with open(RECORDS, "w") as records:
        runner = Runner(jobs, _profiles(jobs), records)
        runner.run(doc["warmup"], -1)
        calibrate()
        if trace:
            cycle = runner.phase(seconds / 2, 0)
            runner.tracer = Tracer()
            missing = runner.tracer.install()
            runner.phase(seconds / 2, cycle)
            runner.tracer.uninstall()
        else:
            runner.phase(seconds, 0)
    result = {"import_ns": IMPORT_NS,
              "maxrss_kb": runner.first_cycle_maxrss_kb,
              "maxrss_end_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "threads": len(os.listdir("/proc/self/task")), "missing_spans": missing,
              "calibration_ns": runner.calibration}
    if trace:
        result["spans"] = runner.tracer.spans
        result["counts"] = runner.tracer.counts
        result["span_cost_ns"] = span_cost_ns()
    with open("results.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--probe"]:
        sys.exit(main(sys.argv[1:]))
