"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the root of a loadlaw checkout. They check that the generator
is deterministic, that the seed code passes every check, that each check
rejects a deliberately corrupted output and counts it as an error, that
every timed cycle is followed by a calibration sample, and that a traced
run reports every per-layer metric.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from run import _env, _remove_if_empty, _scaled_ms  # noqa: E402

# scales at which every label still holds, yet each run takes about a second
TINY = {"diagnose-2k": 2_000, "reference-curves": 2_000, "many-small": 48}
_RUNS: dict = {}


_SCRATCH: list = []


def _scratch():
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    _SCRATCH.append(tempfile.mkdtemp(prefix="selftest-", dir=base))
    return _SCRATCH[-1]


def _tiny_run(workload, trace=0):
    """Generate tiny inputs and run the worker once; cached per (workload, trace)."""
    key = (workload, trace)
    if key not in _RUNS:
        run_dir = _scratch()
        gen.generate(workload, 7, run_dir, size=TINY[workload])
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), run_dir, "0.2", str(trace)],
                       env=_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
        _RUNS[key] = run_dir
    return _RUNS[key]


def _corrupted_copy(workload):
    run_dir = _scratch()
    shutil.rmtree(run_dir)
    shutil.copytree(_tiny_run(workload), run_dir)
    return run_dir


def _load(run_dir, name):
    with open(os.path.join(run_dir, name)) as fh:
        return json.load(fh)


def _first_report(run_dir):
    """(record, kept stdout path) of the first report job."""
    doc = _load(run_dir, "jobs.json")
    jobs = {job["id"]: job for job in doc["jobs"] + [doc["warmup"]]}
    for rec in gen.read_records(run_dir):
        path = rec["outputs"].get("stdout", [None])[0]
        if path and jobs[rec["id"]]["kind"] == "report":
            return rec, os.path.join(run_dir, path)
    raise AssertionError("no matching report job")


def _edit_report(path, edit):
    with open(path) as fh:
        report = json.load(fh)
    text = edit(report)
    with open(path, "w") as fh:
        fh.write(text if isinstance(text, str) else json.dumps(report, indent=2) + "\n")


def _failures(run_dir, seq):
    result = check.check_run(run_dir)
    assert seq in result["failed"], "corruption was not detected"
    assert 0 < len(result["failed"]) / result["attempted"] <= 1  # the error rate
    return result["failed"][seq]


def test_generator_is_deterministic():
    for workload, size in TINY.items():
        a, b, c = _scratch(), _scratch(), _scratch()
        gen.generate(workload, 3, a, size=size)
        gen.generate(workload, 3, b, size=size)
        gen.generate(workload, 4, c, size=size)
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors, (workload, mismatch, errors)
        assert any(not filecmp.cmp(os.path.join(a, n), os.path.join(c, n), shallow=False)
                   for n in names if os.path.exists(os.path.join(c, n))), workload


def test_seed_code_passes_every_check():
    for workload in TINY:
        result = check.check_run(_tiny_run(workload))
        assert result["attempted"] > 0
        assert result["failed"] == {}, (workload, result["failed"])


def test_wrong_verdict_is_rejected():
    run_dir = _corrupted_copy("many-small")
    rec, path = _first_report(run_dir)

    def flip(report):
        report["verdict"] = "suspect" if report["verdict"] != "suspect" else "clean"
    _edit_report(path, flip)
    assert "verdict" in _failures(run_dir, rec["seq"])


def test_row_breaking_littles_law_is_rejected():
    run_dir = _corrupted_copy("many-small")
    rec, path = _first_report(run_dir)

    def bend(report):
        report["audit"][-1]["n_run"] *= 1.001
    _edit_report(path, bend)
    assert "n_run == x*r" in _failures(run_dir, rec["seq"])


def test_nan_in_json_is_rejected():
    run_dir = _corrupted_copy("diagnose-2k")
    rec, path = _first_report(run_dir)

    def poison(report):
        report["bounds"]["n_opt"] = float("nan")
        return json.dumps(report, indent=2) + "\n"
    _edit_report(path, poison)
    assert "NaN" in _failures(run_dir, rec["seq"])


def test_wrong_exit_code_is_rejected():
    run_dir = _corrupted_copy("many-small")
    records = gen.read_records(run_dir)
    rec = records[1]
    rec["rc"] = 3
    with open(os.path.join(run_dir, gen.RECORDS), "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    assert "exit code" in _failures(run_dir, rec["seq"])


def test_every_timed_cycle_is_calibrated():
    run_dir = _tiny_run("reference-curves")
    calibration = _load(run_dir, "results.json")["calibration_ns"]
    timed = [r for r in gen.read_records(run_dir) if r["cycle"] >= 0]
    assert sorted(c for c, _ in calibration) == sorted({r["cycle"] for r in timed})
    assert all(ns > 0 for _, ns in calibration)
    # a host twice as slow for the calibration loop halves every scaled job time
    scaled, factor = _scaled_ms(timed, calibration)
    slower, slower_factor = _scaled_ms(timed, [[c, 2 * ns] for c, ns in calibration])
    assert abs(slower_factor * 2 - factor) <= 1e-12 * factor
    assert all(abs(slower[i] * 2 - scaled[i]) <= 1e-9 * scaled[i] for i in scaled)


def test_traced_run_reports_every_per_layer_metric():
    reported = {}
    for workload in TINY:
        run_dir = _tiny_run(workload, trace=1)
        results = _load(run_dir, "results.json")
        assert results["missing_spans"] == []
        assert results["threads"] == 1 and results["span_cost_ns"] > 0, workload
        cycle_of = {r["seq"]: r["cycle"] for r in gen.read_records(run_dir) if r["traced"]}
        assert cycle_of, workload
        layer = tracing.per_cycle_metrics(results["spans"], results["counts"], cycle_of)
        reported[workload] = {name for name, value in layer.items() if value > 0}
    called = {
        "diagnose-2k": {"ingest.parse_series.ms", "ingest.rows_parsed", "report.to_json.ms",
                        "report.json_bytes", "diagnostics.detect_thread_throttling.ms",
                        "diagnostics.findings", "cli.main.self_ms"},
        "reference-curves": {"curves.solve_reference.ms", "curves.stage_steps",
                             "curves.write_csv.ms", "curves.as_series.ms",
                             "diagnostics.audit_littles_law.ms"},
        "many-small": {"cli.build_parser.ms", "ingest.parse_profile.ms", "ingest.parse_trace.ms",
                       "ingest.steady_state_average.ms", "report.audit_series.self_ms",
                       "report.diagnose_series.self_ms", "model.bounds_summary.ms",
                       "report.plot_rows.ms", "report.to_json.calls"},
    }
    for workload, names in called.items():
        assert names <= reported[workload], (workload, names - reported[workload])
    union = set().union(*reported.values())
    assert set(tracing.expected_metrics()) <= union, set(tracing.expected_metrics()) - union
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        extra = {"setup.import_loadlaw_ms", "trace.overhead_ms"}
        assert declared == set(tracing.expected_metrics()) | extra


def teardown_module(module=None):
    for path in _SCRATCH:
        shutil.rmtree(path, ignore_errors=True)
    _SCRATCH.clear()
    _RUNS.clear()
    _remove_if_empty(os.path.join(ROOT, ".perfbench_tmp"))


if __name__ == "__main__":
    failed = 0
    try:
        for name, fn in sorted(globals().items()):
            if name.startswith("test_") and callable(fn):
                try:
                    fn()
                    print(f"PASS {name}")
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc}")
    finally:
        teardown_module()
    sys.exit(1 if failed else 0)
