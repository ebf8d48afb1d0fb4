"""The demo scripts under ``scripts/`` run and print the same bytes.

Each script runs in a fresh interpreter inside a scratch directory, with
a relative ``--out-prefix`` where it takes one, so nothing it prints
depends on where it ran. ``GOLDEN`` holds the exit code and the sha256
of stdout and of every CSV written, as the scripts produced them at
commit d661c66, before the bounds types were merged.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "overclaimed_throughput_demo": [],
    "reference_curves_demo": ["--out-prefix", "demo"],
    "thread_pool_audit_demo": [],
}

GOLDEN = {  # script -> (exit code, {"stdout" or file name: sha256})
    "overclaimed_throughput_demo": (0, {
        "stdout": "dcfef6b97af96bea27dcfd6c4f2bbbf6c6ed535d2f1274c761d75241025ceb44",
    }),
    "reference_curves_demo": (0, {
        "demo_bounds.csv": "9572012fe2fa631d64ac11efe75ab5a1651f6a328d6f8cf2e17d3349029b7d65",
        "demo_curves.csv": "762213fc3fab6720445e0023620418ac1d64005d71348a8750977c6f10507be6",
        "stdout": "63c046d46b7efb9fa35da2c130ec901a0b936a5706484fd0c0e150f6a0d86911",
    }),
    "thread_pool_audit_demo": (0, {
        "stdout": "96a84ea7852ca686ee04d6529fd7d644a3a87682964a6cf05f810792f4b3f848",
    }),
}


def run_script(d: Path, name: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *SCRIPTS[name]],
                          cwd=d, env=env, capture_output=True, timeout=120)
    digests = {"stdout": hashlib.sha256(proc.stdout).hexdigest()}
    for written in sorted(d.iterdir()):
        digests[written.name] = hashlib.sha256(written.read_bytes()).hexdigest()
    return proc.returncode, digests


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_output_matches_recorded_digests(tmp_path, name):
    assert run_script(tmp_path, name) == GOLDEN[name]
