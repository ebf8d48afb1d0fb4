"""Output checks for one benchmark run, in a process of their own.

    python3 check.py RUN_DIR

Reads ``jobs.json`` (inputs and labels, from gen.py) and
``records.jsonl`` (what worker.py recorded), checks every job and writes
``check.json``: ``{"attempted": n, "failed": {seq: reason}}``. A job
whose output is identical to another's is checked against its own label
using the one kept copy.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
from gen import read_profile, read_records
from loadlaw import ServiceProfile, solve_oracle

LITTLE_REL = 1e-12  # n_run == x*r in a report
CURVE_REL = 1e-9  # x*(r+Z) == n and sum(q) + x*Z == n on a curve
ORDER_REL = 1e-12  # roundoff allowed in monotonicity and bound checks


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _reject_constant(name):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def _rel_close(a, b, rel):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b))))


def _series_ns(path):
    with open(path) as fh:
        next(fh)
        return [int(line.split(",", 1)[0]) for line in fh if line.strip()]


def _pairs(findings):
    return sorted([d, s] for d, s in {(d, s) for d, s in findings if s != "info"})


class Checker:
    def __init__(self, jobs):
        self.jobs = {job["id"]: job for job in jobs}
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def profile(self, path):
        return self._memo(("profile", path), lambda: read_profile(path)[1:])

    def series_ns(self, path):
        return self._memo(("series", path), lambda: _series_ns(path))

    def check(self, record, files):
        """Raise CheckFailed on the first check the job's output breaks.

        ``files`` maps each output role (stdout, report, plot, csv, npy,
        json) to the kept copy of that output.
        """
        job = self.jobs[record["id"]]
        _require(record["error"] is None, f"job error: {record['error']}")
        label = job["label"]
        _require(record["rc"] == label["exit"],
                 f"exit code {record['rc']!r}, expected {label['exit']!r}")
        if job["check"].get("out_copy"):
            outputs = record["outputs"]
            _require("report" in outputs, "no --out report written")
            _require(outputs["report"][1] == outputs["stdout"][1], "--out report differs from stdout")
        kind = job["kind"]
        if kind == "report":
            self._report(job, files)
        elif kind == "steady":
            self._steady(job, files)
        elif kind == "curve_csv":
            _require("csv" in files, "no CSV written")
            data = np.loadtxt(files["csv"], delimiter=",", skiprows=1, ndmin=2)
            self._curve(job, data[:, 0], data[:, 1], data[:, 2], data[:, 3:].sum(axis=1))
        elif kind == "lib_solve":
            n, x, r, qsum = np.load(files["npy"])
            self._curve(job, n, x, r, qsum)
        elif kind == "lib_chain":
            self._chain(job, files)
        else:
            raise CheckFailed(f"unknown job kind {kind!r}")

    def _report(self, job, files):
        with open(files["stdout"]) as fh:
            report = strict_json(fh.read())
        label, check = job["label"], job["check"]
        _require(report.get("verdict") == label["verdict"],
                 f"verdict {report.get('verdict')!r}, expected {label['verdict']!r}")
        pairs = _pairs((f["detector"], f["severity"]) for f in report["findings"])
        _require(pairs == label["pairs"], f"fired {pairs}, expected {label['pairs']}")
        ns = self.series_ns(check["series"])
        audit = report["audit"]
        _require(len(audit) == len(ns), f"{len(audit)} audit rows for {len(ns)} input rows")
        _require([row["n_was"] for row in audit] == ns, "audit rows do not follow the input rows")
        n_run = [row["n_run"] for row in audit]
        xr = [row["x_was"] * row["r_was"] for row in audit]
        _require(_rel_close(n_run, xr, LITTLE_REL), "an audit row breaks n_run == x*r")
        if "profile" in check:
            service, _ = self.profile(check["profile"])
            _require(_rel_close(report["bounds"]["x_max"], 1.0 / max(service), LITTLE_REL),
                     "bounds.x_max != 1/S_max")
        if check.get("plot"):
            self._plot(check, files, audit)

    def _plot(self, check, files, audit):
        """--plot-csv: each measured point next to the profile's two bounding lines."""
        _require("plot" in files, "no --plot-csv written")
        n, x, r, x_up, r_low = np.loadtxt(files["plot"], delimiter=",", skiprows=1, ndmin=2).T
        _require(n.tolist() == [row["n_was"] for row in audit], "plot rows do not follow the input")
        _require(_rel_close(x, [row["x_was"] for row in audit], LITTLE_REL)
                 and _rel_close(r, [row["r_was"] for row in audit], LITTLE_REL),
                 "plot points differ from the audited points")
        service, z = self.profile(check["profile"])
        r_min, s_max = sum(service), max(service)
        _require(_rel_close(x_up, np.minimum(n / (r_min + z), 1.0 / s_max), LITTLE_REL),
                 "plot x bound != min(n/(R_min+Z), X_max)")
        _require(_rel_close(r_low, np.maximum(r_min, n * s_max - z), LITTLE_REL),
                 "plot r bound != max(R_min, n*S_max - Z)")

    def _steady(self, job, files):
        with open(files["stdout"]) as fh:
            out = strict_json(fh.read())
        x_bar, (w0, w1) = out["x_bar"], out["window"]
        trace = self._memo(("trace", job["check"]["trace"]),
                           lambda: np.loadtxt(job["check"]["trace"], delimiter=",", skiprows=1))
        t, x = trace[:, 0], trace[:, 1]
        warmup = job["check"]["warmup"]
        if warmup is None:
            _require(x.min() <= x_bar <= x.max(), "x_bar outside the trace's range")
            _require(t[0] <= w0 <= w1 <= t[-1], "window outside the trace's span")
            return
        cut = t[0] + warmup * (t[-1] - t[0])
        kt, kx = t[t >= cut], x[t >= cut]
        expected = float(np.sum(0.5 * (kx[1:] + kx[:-1]) * np.diff(kt)) / (kt[-1] - kt[0]))
        _require(_rel_close(x_bar, expected, CURVE_REL), f"x_bar {x_bar!r}, trapezoid {expected!r}")
        _require((w0, w1) == (kt[0], kt[-1]), "window is not the kept samples' span")

    def _curve(self, job, n, x, r, qsum):
        check = job["check"]
        service, z = self.profile(check["profile"])
        n_max = check["n_max"]
        _require(len(n) == n_max and np.array_equal(n, np.arange(1, n_max + 1)),
                 f"curve rows are not n = 1..{n_max}")
        _require(_rel_close(x * (r + z), n, CURVE_REL), "a curve row breaks x*(r+Z) == n")
        _require(_rel_close(qsum + x * z, n, CURVE_REL), "a curve row breaks sum(q) + x*Z == n")
        _require(bool(np.all(np.diff(x) >= -ORDER_REL * x[1:])), "x decreases along the curve")
        _require(bool(np.all(x <= (1 + ORDER_REL) / max(service))), "x exceeds X_max")
        _require(bool(np.all(r >= (1 - ORDER_REL) * sum(service))), "r falls below R_min")
        if check["oracle"]:
            profile = ServiceProfile.from_service_times(service, think_time=z)
            for i in range(min(12, n_max)):
                xo, ro = solve_oracle(profile, i + 1)
                _require(_rel_close([x[i], r[i]], [xo, ro], CURVE_REL),
                         f"curve disagrees with solve_oracle at n={i + 1}")

    def _chain(self, job, files):
        with open(files["json"]) as fh:
            out = strict_json(fh.read())
        label, check = job["label"], job["check"]
        _require(out["verdict"] == label["verdict"],
                 f"verdict {out['verdict']!r}, expected {label['verdict']!r}")
        pairs = _pairs(out["findings"])
        _require(pairs == label["pairs"], f"fired {pairs}, expected {label['pairs']}")
        n_was, x_was, r_was, n_run = np.load(files["npy"])
        _require(np.array_equal(n_was, np.arange(1, check["n_max"] + 1)),
                 "audit rows do not follow the curve rows")
        _require(_rel_close(n_run, x_was * r_was, LITTLE_REL), "an audit row breaks n_run == x*r")
        service, _ = self.profile(check["profile"])
        _require(_rel_close(out["x_max"], 1.0 / max(service), LITTLE_REL), "bounds.x_max != 1/S_max")


def check_run(run_dir):
    with open(os.path.join(run_dir, "jobs.json")) as fh:
        doc = json.load(fh)
    jobs = doc["jobs"] + [doc["warmup"]]
    records = read_records(run_dir)
    kept = {digest: path for rec in records for path, digest in rec["outputs"].values() if path}
    checker = Checker(jobs)
    verdicts = {}  # (job id, output digests) -> failure reason or None
    failed = {}
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        for rec in records:
            key = (rec["id"], rec["rc"], rec["error"],
                   tuple(sorted((role, digest) for role, (_, digest) in rec["outputs"].items())))
            if key not in verdicts:
                try:
                    files = {role: kept[digest] for role, (_, digest) in rec["outputs"].items()}
                    checker.check(rec, files)
                    verdicts[key] = None
                except CheckFailed as exc:
                    verdicts[key] = str(exc)
                except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                    verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failed[rec["seq"]] = verdicts[key]
    finally:
        os.chdir(cwd)
    return {"attempted": len(records), "failed": failed}


if __name__ == "__main__":
    result = check_run(sys.argv[1])
    with open(os.path.join(sys.argv[1], "check.json"), "w") as fh:
        json.dump(result, fh)
