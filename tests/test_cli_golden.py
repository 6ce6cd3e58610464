"""CLI output bytes pinned by sha256 digest at fixed seeds.

Every case runs one subcommand in-process and hashes its exit code,
stdout, stderr and ``--output`` file together, so any change to any
output byte of any subcommand changes a digest.  The digests pin the
bytes produced with this repository's numpy/scipy builds; an intended
output change re-pins them by running this file as a script, which
prints the current digest of every case::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from gausswinner.cli import main
from gausswinner.synthetic import write_synthetic_stations

FIXTURE = "stations.csv"
OUTPUT = "out.txt"

_SIM = ["simulate", "--sigma", "1.5,2.0", "--c", "0.5,2.0", "--n2", "100:10000:3",
        "--trials", "2000", "--seed", "9", "--exact"]
_EMP = ["empirical", "--input", FIXTURE, "--b", "200", "--c", "0.1,0.6", "--n2", "5,30",
        "--seed", "5"]

# name -> argv; a case that passes --output OUTPUT has that file hashed too
CASES = {
    "limit_two_group_text": ["limit", "--two-group", "--c", "1", "--sigma", "1.5"],
    "limit_two_group_json": ["limit", "--two-group", "--c", "1", "--sigma", "1.5", "--format", "json"],
    "limit_c0_text": ["limit", "--two-group", "--c", "0", "--sigma", "2", "--output", OUTPUT],
    "limit_c0_json": ["limit", "--two-group", "--c", "0", "--sigma", "2", "--format", "json"],
    "limit_cinf_text": ["limit", "--two-group", "--c", "inf", "--sigma", "2"],
    "limit_cinf_json": ["limit", "--two-group", "--c", "inf", "--sigma", "2", "--format", "json",
                        "--output", OUTPUT],
    "limit_multi_text": ["limit", "--multi", "--group", "1:1", "--group", "1:1.5", "--group", "2:2"],
    "limit_multi_json": ["limit", "--multi", "--group", "1:1", "--group", "0.7:1.4", "--format", "json"],
    "limit_bad_sigma": ["limit", "--two-group", "--c", "1", "--sigma", "0.8"],
    "scale_text": ["scale", "--n2", "100", "--sigma", "1.41421356", "--c", "1"],
    "scale_json": ["scale", "--n2", "100", "--sigma", "1.41421356", "--c", "1", "--format", "json"],
    "scale_overflow_text": ["scale", "--n2", "1000000", "--sigma", "2", "--c", "5", "--output", OUTPUT],
    "scale_overflow_json": ["scale", "--n2", "1000000", "--sigma", "2", "--c", "5", "--format", "json"],
    "simulate_csv_w1": _SIM + ["--workers", "1", "--output", OUTPUT],
    "simulate_csv_w2": _SIM + ["--workers", "2", "--output", OUTPUT],
    "simulate_csv_w3": _SIM + ["--workers", "3", "--output", OUTPUT],
    "simulate_json_w1": _SIM + ["--workers", "1", "--format", "json"],
    "simulate_json_w2": _SIM + ["--workers", "2", "--format", "json"],
    "empirical_csv": _EMP + ["--output", OUTPUT],
    "empirical_json": _EMP + ["--format", "json"],
    "selftest_text": ["selftest"],
    "selftest_json": ["selftest", "--json"],
}

DIGESTS = {
    "empirical_csv": "41a5c327f1453cdad671c3bea6181b9a8a1d9f2262c44159652e7064a51f1cf3",
    "empirical_json": "b16edec0beea2b49b8268633fa8e02012576a6db8e955936645c93600af1bfbe",
    "limit_bad_sigma": "183ceae064922f615d55b63fed9c3998e64edcf13c5ccdb6d9c954f79350a2a8",
    "limit_c0_json": "74fbdc8e748e3493fea4666de8f2887e28a4991ddf18e0151cc45d9571f1c705",
    "limit_c0_text": "b4ee0ed6aef3f5d0b613f981852ec5547a50e50d370008c1101b99379cc23bea",
    "limit_cinf_json": "c39f585e8929fea1fa4ec522e36f13a197984a5ad9eacb9c78dcade4d04de406",
    "limit_cinf_text": "88ef940c1da53ca46e05116324d01feee48905895c3a6e834ceb7be2187ddbc0",
    "limit_multi_json": "e3bd2e90f7c1d20121736c9dfe854cc9cc5a7c5fdbf5f3ea286b2d3dc8312e23",
    "limit_multi_text": "6e34b3d7df10e3dba8264c16edd4ef5f9cda845dc958221195fc9ca23757aa5c",
    "limit_two_group_json": "f1e70ac2ad60453dc5470872082e197f20b26c2e6ef067f51c5c2b8d62fb5eb2",
    "limit_two_group_text": "2d72a71d789a31cfb211dc9b8b7bc454c94568e63272ced43988bfeb2ed7b022",
    "scale_json": "509404e9d2215b5064d197bff60d41a0176d446766d9edeff502258f7021b460",
    "scale_overflow_json": "0453f0d41890e1d0822b28395ce7331ad061214c2ae586f63605596d109c3658",
    "scale_overflow_text": "0efb4f0a9a2c4d991f0bf77803188217aec34361a4f2958026fdec75c0fecbff",
    "scale_text": "d9b9e4d5aca84e4833550ed3508dda542a743462462948c2f7377d97d2ec71b8",
    "selftest_json": "5534a6023a1bd46f5e089f5844cfb9006579aa3bdeee880dab1aa345b2678431",
    "selftest_text": "c9d0192b72f4501817e98e551c746fb45c6b180aacb1f242b0bc58a52ca47eb3",
    "simulate_csv_w1": "43a3b9eb28807b7a07f0a8ed7f84a0923f0ca1a1ce404e55fee5a947b5c71078",
    "simulate_csv_w2": "43a3b9eb28807b7a07f0a8ed7f84a0923f0ca1a1ce404e55fee5a947b5c71078",
    "simulate_csv_w3": "43a3b9eb28807b7a07f0a8ed7f84a0923f0ca1a1ce404e55fee5a947b5c71078",
    "simulate_json_w1": "dfc7fc6a4411e3c6a6964422087657c1c7b331f9ad1f21f5e5f60f9e4a8fbcfc",
    "simulate_json_w2": "dfc7fc6a4411e3c6a6964422087657c1c7b331f9ad1f21f5e5f60f9e4a8fbcfc",
}


def case_digest(name) -> str:
    """Run one case in the current directory and hash everything it wrote."""
    argv = CASES[name]
    if FIXTURE in argv:
        write_synthetic_stations(FIXTURE, n_low=10, n_high=6, seed=42, missing_rate=0.02)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    h = hashlib.sha256()
    h.update(f"exit={code}\n".encode())
    for part in (out.getvalue(), err.getvalue()):
        h.update(f"{len(part)}\n{part}".encode())
    if OUTPUT in argv:
        with open(OUTPUT, "rb") as fh:
            data = fh.read()
        h.update(f"{len(data)}\n".encode() + data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert case_digest(name) == DIGESTS[name]


def test_simulate_digest_independent_of_workers():
    for fmt in ("csv", "json"):
        assert DIGESTS[f"simulate_{fmt}_w1"] == DIGESTS[f"simulate_{fmt}_w2"]
    assert DIGESTS["simulate_csv_w1"] == DIGESTS["simulate_csv_w3"]


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            print(f'    "{case}": "{case_digest(case)}",')
