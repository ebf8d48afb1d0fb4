"""Byte identity of the CLI's outputs on fixed inputs.

Each case runs one command in a scratch directory with relative paths
(reports record their input paths) and hashes what it produced: the
exit code, stdout and every file it wrote. ``GOLDEN`` holds the digests
the row-by-row implementation produced at commit 36d1d8a, so any change
to the bytes of a report, a plot file or a printed table shows here.

Eight JSON digests were re-recorded once since, on purpose, when the
post-knee line moved from a LAPACK least-squares solve (polyfit's bits)
to the closed-form centered fit: diagnose-capped-2k-data-knee,
-capped-2k-profile, -capped-2k-text, -capped-data-knee, -capped-profile,
-capped-text, -lawful-data-knee and -lawful-profile. Only their fit
evidence moved, in its last digits (linear_slope, linear_ss, exp_rate
and exp_ss of GROWTH_CLASS, observed_slope and slope_ratio of
RESPONSE_FLATTENING), and 12 of their 14 fitted slopes moved nearer the
exact rational slope (one tie, one 0.99 -> 1.01 ulps). Verdicts,
findings, affected points, the CSV files and the text output did not
move.

The inputs are the conftest fixtures plus two 2,000-row sweeps built
from ``solve_reference`` with seeded noise: a lawful one and one whose
load generator capped its pool at 600 running clients. Their own
digests are pinned too, so a failure says whether the inputs or the
outputs moved.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from loadlaw import solve_reference
from loadlaw.cli import main

from .conftest import CAPPED_POOL_ROWS, three_stage_profile

PROFILE = {"stages": [{"label": "parse", "service_time": 3.5},
                      {"label": "lookup", "service_time": 5.0},
                      {"label": "commit", "service_time": 2.0}],
           "think_time": 1000, "time_unit": "ms"}
# non-ASCII and quoted stage labels, two tied bottlenecks
ODD_PROFILE = {"stages": [{"label": "décodage \"in\"", "service_time": 0.004},
                          {"label": "查询", "service_time": 0.006},
                          {"label": "commit", "service_time": 0.006}],
               "think_time": 0.5, "time_unit": "s"}
SWEEP_SIZE = 2000
POOL_CAP = 600
ODD_NAME = 'série "7".csv'


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv(header, rows):
    return header + "\n" + "".join(f"{n},{x!r},{r!r}\n" for n, x, r in rows)


def write_inputs(d):
    """Write every input file into directory ``d``."""
    curves = solve_reference(three_stage_profile(think_time=1.0), SWEEP_SIZE)
    rng = np.random.default_rng(20040412)
    noise = (1.0 + rng.uniform(-0.01, 0.01, size=(4, SWEEP_SIZE))).tolist()
    x, r = curves.x.tolist(), curves.r.tolist()
    lawful = [(n, x[n - 1] * noise[0][n - 1], 1000.0 * r[n - 1] * noise[1][n - 1])
              for n in range(1, SWEEP_SIZE + 1)]
    capped = [(n, x[min(n, POOL_CAP) - 1] * noise[2][n - 1], r[min(n, POOL_CAP) - 1] * noise[3][n - 1])
              for n in range(1, SWEEP_SIZE + 1)]
    reference = solve_reference(three_stage_profile(), 40).as_series(ns=[1, 2, 5, 10, 20, 30, 40])
    files = {
        "profile.json": json.dumps(PROFILE),
        "odd.json": json.dumps(ODD_PROFILE),
        "lawful.csv": _csv("n,x,r_ms", lawful),
        "capped-2k.csv": _csv("n,x,r", capped),
        "capped.csv": "n,x,r_ms\n" + "".join(f"{n},{x:g},{r * 1000:g}\n"
                                            for n, x, r in CAPPED_POOL_ROWS),
        "reference.csv": _csv("n,x,r", [(p.n, p.x, p.r) for p in reference.points]),
        ODD_NAME: "# quoted cells and CRLF line ends\r\nn,x,r\r\n"
                  '1,"24.0",0.04\r\n5,48,"0.102"\r\n10,99,0.1\r\n120,423,0.276\r\n',
        "trace.csv": "t,x_inst\n" + "".join(f"{t * 0.5!r},{200.0 * (1 - 0.9 ** t)!r}\n"
                                            for t in range(300)),
        "bad.csv": "n,x,r\n5,1,0.1\n5,1,0.1\n",
    }
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8", newline="")
    return sorted(files)


# case id -> argv; "{out}" names the files a case writes
CASES = {
    "bounds-text": ["bounds", "profile.json"],
    "bounds-json": ["bounds", "profile.json", "--format", "json"],
    "bounds-odd-json": ["bounds", "odd.json", "--format", "json"],
    "bounds-odd-text": ["bounds", "odd.json"],
    "audit-capped-text": ["audit", "capped.csv"],
    "audit-capped-json": ["audit", "capped.csv", "--format", "json", "--no-fail"],
    "audit-reference-z": ["audit", "reference.csv", "--z", "10", "--format", "json"],
    "audit-lawful-text": ["audit", "lawful.csv", "--z", "1"],
    "audit-lawful-json": ["audit", "lawful.csv", "--z", "1", "--format", "json"],
    "audit-capped-2k-json": ["audit", "capped-2k.csv", "--z", "1", "--format", "json"],
    "audit-odd-json": ["audit", ODD_NAME, "--format", "json", "--plateau-tol", "0.1"],
    "diagnose-capped-profile": ["diagnose", "capped.csv", "--profile", "profile.json", "--z", "1",
                                "--out", "{out}.json", "--plot-csv", "{out}.plot.csv",
                                "--combined-csv", "{out}.combined.csv"],
    "diagnose-capped-data-knee": ["diagnose", "capped.csv", "--out", "{out}.json",
                                  "--plot-csv", "{out}.plot.csv"],
    "diagnose-capped-text": ["diagnose", "capped.csv", "--profile", "profile.json",
                             "--format", "text", "--out", "{out}.json"],
    "diagnose-reference": ["diagnose", "reference.csv", "--profile", "profile.json", "--z", "10"],
    "diagnose-lawful-profile": ["diagnose", "lawful.csv", "--profile", "profile.json", "--z", "1",
                                "--out", "{out}.json", "--plot-csv", "{out}.plot.csv",
                                "--combined-csv", "{out}.combined.csv"],
    "diagnose-lawful-data-knee": ["diagnose", "lawful.csv", "--z", "1", "--out", "{out}.json",
                                  "--plot-csv", "{out}.plot.csv"],
    "diagnose-lawful-text": ["diagnose", "lawful.csv", "--profile", "profile.json",
                             "--format", "text"],
    "diagnose-capped-2k-profile": ["diagnose", "capped-2k.csv", "--profile", "profile.json",
                                   "--z", "1", "--out", "{out}.json",
                                   "--plot-csv", "{out}.plot.csv",
                                   "--combined-csv", "{out}.combined.csv"],
    "diagnose-capped-2k-data-knee": ["diagnose", "capped-2k.csv", "--z", "1",
                                     "--out", "{out}.json", "--plot-csv", "{out}.plot.csv"],
    "diagnose-capped-2k-text": ["diagnose", "capped-2k.csv", "--profile", "odd.json",
                                "--format", "text", "--out", "{out}.json"],
    "diagnose-odd": ["diagnose", ODD_NAME, "--profile", "odd.json", "--z", "0.5",
                     "--bound-tol", "0.5", "--out", "{out}.json"],
    "diagnose-bad": ["diagnose", "bad.csv", "--profile", "profile.json"],
    "steady-json": ["steady", "trace.csv", "--format", "json"],
    "steady-warmup-json": ["steady", "trace.csv", "--format", "json", "--warmup", "0.6"],
}

INPUT_DIGESTS = {
    "bad.csv": "48175f41477051f5486c1b37a41e0987bc25ff4e87ebb449b2ab96e4870a0947",
    "capped-2k.csv": "0537feab626fe518342e306e9ed620fd3641b41681d2853e5db5712b7813f98a",
    "capped.csv": "43e1f3ad50ac32ef87542a89bb30518e1c8771225a0381f834a59476082740b1",
    "lawful.csv": "4365c680fb7a2bea8999ed6aad97327fd14f08ac51055257cad6aec1fbca88cf",
    "odd.json": "0b96d72e8a55a8e3736fa3dbbae17a89352f9fa779e7822e469f0cfb8818a448",
    "profile.json": "86fb027743fd5afe3b9fbdf7bc387ae3b31679a9f842afa918f6d6fe22d44615",
    "reference.csv": "0914e37eaea48182f5f55bf28295dfe25b7cdc002812c4ad8914fdc66e90a60b",
    ODD_NAME: "27ea31e541e1761621f6f89e6834e241eae2d8b89e7e5a8f5d1202107bc74cff",
    "trace.csv": "8f03237aff7229d08edc5bbdf98cfeb0dd866c5819ceb2e07b342f6831a6e0b3",
}

GOLDEN = {  # case -> (exit code, {"stdout" or file suffix: sha256})
    "audit-capped-2k-json": (4, {
        "stdout": "a3896410fcf5d385d377a975a7c461c7bd9252ca558a365529e3de67626c65b8",
    }),
    "audit-capped-json": (0, {
        "stdout": "7b7e05b426411f2e77d9d70a1dfbb804a4908d945c5abc457b94815051c1240e",
    }),
    "audit-capped-text": (4, {
        "stdout": "1c109f0874e40566e387fbf08fac01224fb6845550d98e1cba04c69c72f133fc",
    }),
    "audit-lawful-json": (0, {
        "stdout": "edab1ad22c4082f8fdf72f30e96a11e044f2c3c4ba610889e3e006c4f8f88f74",
    }),
    "audit-lawful-text": (0, {
        "stdout": "f72a9f722936e91ab7fbd61a8a89e3a17a0298f7c3d390db06d47faa0b856de5",
    }),
    "audit-odd-json": (0, {
        "stdout": "e4827313364561d914c80de4113017260ee88e70d0f87fa0dde2adce18b22a86",
    }),
    "audit-reference-z": (0, {
        "stdout": "0650de90e9a2889bb6eb79db71fcba8896bd4aac8222832ad934a79252938cc9",
    }),
    "bounds-json": (0, {
        "stdout": "4f35a6e71c1ade8486c71dfa4721b8fea93d8d8686173a8d33e118d83dbac62a",
    }),
    "bounds-odd-json": (0, {
        "stdout": "d01ca6f750f2c279939989fe4c159c3cc328f946c364e4818544ad4e0dcd1c39",
    }),
    "bounds-odd-text": (0, {
        "stdout": "98fd76d283cbc5fc44d8b6f5965f71955f0cc0c40d58d1bb3b4c1efa47ceee3d",
    }),
    "bounds-text": (0, {
        "stdout": "e0ba184b492af34b01f72a759e736a6fa8aa9f0fe23540f04d291beebf53b255",
    }),
    "diagnose-bad": (2, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "diagnose-capped-2k-data-knee": (4, {
        ".json": "5e1ca6dfb2876e16c7a1727bfc49c81a0cdb054a1f140eb51011129fcf1d858a",
        ".plot.csv": "262642293e75f9f9f1e6887eda4979781734149f0b663b00f3d41d7ab60b5b28",
        "stdout": "5e1ca6dfb2876e16c7a1727bfc49c81a0cdb054a1f140eb51011129fcf1d858a",
    }),
    "diagnose-capped-2k-profile": (4, {
        ".combined.csv": "87f4dbfc15ad8520693e02c30da737e165812e2e9cd5a462b80ca400d3636e62",
        ".json": "68d0275b7db58e8b053589ad8283813f18fc552340a3f2040b61d9aa42392fac",
        ".plot.csv": "ff3829c491ecc4693e454af62697a1892ae654136d10f978f4229caf4bb2a7fe",
        "stdout": "68d0275b7db58e8b053589ad8283813f18fc552340a3f2040b61d9aa42392fac",
    }),
    "diagnose-capped-2k-text": (4, {
        ".json": "650b1a2d9dd252a08f6c43e3406b3263e8cdcfe1f001492aa0c912929bda597e",
        "stdout": "559ba201a6f480edddbfc60378f68173c336c887a69d13358f0ef3e665ba32ce",
    }),
    "diagnose-capped-data-knee": (4, {
        ".json": "c638beceded123929cb21ac4e7e49a1247c67b24bc8c0604fd0ce1d5e816e02e",
        ".plot.csv": "232baa6faf096054025b7d6a4126219e796bf8d15fb363690a86e6cb99e6a444",
        "stdout": "c638beceded123929cb21ac4e7e49a1247c67b24bc8c0604fd0ce1d5e816e02e",
    }),
    "diagnose-capped-profile": (4, {
        ".combined.csv": "59ab63b48f4a244f16a8d3fdd6e0e4038ac56f2ae2cc0a9d95d724ffeeac41f9",
        ".json": "09021324a05b78483d4a6c2ffd47822da834394fe8ffd5bd6f64f3c17a4b4733",
        ".plot.csv": "5ba378fd9a62bf10ca217311255f45f5de5859d3fa568973bbe255ce295a62c1",
        "stdout": "09021324a05b78483d4a6c2ffd47822da834394fe8ffd5bd6f64f3c17a4b4733",
    }),
    "diagnose-capped-text": (4, {
        ".json": "78e56c997c56354754056aeea74ad3d9ead9c908c087747efe93c668c6f13fac",
        "stdout": "9da432e823fe10038cadecf92c002d9dcaa98b563d834b3b11ea6091c01282f8",
    }),
    "diagnose-lawful-data-knee": (0, {
        ".json": "d1a9dcbeb8bcd7639e3fcb2233e06c62cc82430045b19965c036acae14c52a42",
        ".plot.csv": "a7dba63e8d26b9c50206a2fc533b36561e39558ed39e13a007a84d9a59106477",
        "stdout": "d1a9dcbeb8bcd7639e3fcb2233e06c62cc82430045b19965c036acae14c52a42",
    }),
    "diagnose-lawful-profile": (0, {
        ".combined.csv": "03e598f5ddd55b9e63b9e8debad9481bed2b8990ab4b3bd3bac73d5cea487484",
        ".json": "950c2aae09a55b8755a9586478b856467f518310e24f65c981bb3b8219a5c037",
        ".plot.csv": "381266bc5a14a2839915bcec73c1010e9143c11b2b23721a6e1f672404051c09",
        "stdout": "950c2aae09a55b8755a9586478b856467f518310e24f65c981bb3b8219a5c037",
    }),
    "diagnose-lawful-text": (0, {
        "stdout": "7410d8000f4e67d304944bde202ef6d1932e75da70ceeb33cff956e6266474fb",
    }),
    "diagnose-odd": (4, {
        ".json": "400994fe4fed289f97f8a899a42d2e6ccf05b5589422af240c3388a68fb58204",
        "stdout": "400994fe4fed289f97f8a899a42d2e6ccf05b5589422af240c3388a68fb58204",
    }),
    "diagnose-reference": (0, {
        "stdout": "c62d8741ee80de398e0b7956b58bacbd04966ca1a44b209e78bf053ccdd1fbbd",
    }),
    "steady-json": (0, {
        "stdout": "dd0d9514a8a955a3c46b9ff03c71b40dd52f2a98971041118c995304b75c6610",
    }),
    "steady-warmup-json": (0, {
        "stdout": "37a6b5bedd838c8898ad4a438d32d9062cbab4f122118ff8dd2613d9f72fec86",
    }),
}


def run_case(d, case):
    """(exit code, {"stdout" or file suffix: sha256}) of one case run in ``d``."""
    argv = [a.replace("{out}", case) for a in CASES[case]]
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(d)
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    digests = {"stdout": _sha(buf.getvalue().encode("utf-8"))}
    for written in sorted(d.glob(case + ".*")):
        digests[written.name[len(case):]] = _sha(written.read_bytes())
    return rc, digests


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_inputs(d)
    return d


def test_inputs_are_the_recorded_ones(inputs_dir):
    assert {name: _sha((inputs_dir / name).read_bytes())
            for name in INPUT_DIGESTS} == INPUT_DIGESTS


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(inputs_dir, case):
    assert run_case(inputs_dir, case) == GOLDEN[case]
