"""CLI output bytes pinned by sha256 digest at fixed seeds.

Every case runs one subcommand in-process and hashes its exit code,
stdout, stderr and ``--output`` file together, so any change to any
output byte of any subcommand changes a digest.  The digests pin the
bytes produced with this repository's numpy/scipy builds; an intended
output change re-pins them by running this file as a script, which
prints the current digest of every case::

    PYTHONPATH=src python tests/test_cli_golden.py

With ``--dump DIR`` the script writes each case's exit code, stdout,
stderr and output file as text to ``DIR/<case>.txt`` instead, so a
re-pin can be reviewed as ``diff -r`` of two such directories.
"""

import contextlib
import hashlib
import io
import os
import sys
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
    "limit_multi_json": "5e6af7c5508240875642bc1dca0acc3381ef92fa592b3db10cfe9470361b6e28",
    "limit_multi_text": "93ff0315b6b04ba0883b201427ffc030177bb03a7f1ee7a02dc869c932552054",
    "limit_two_group_json": "b42eb4782b0f5961b543746d04fea49dbf2440cf551717055522228529136470",
    "limit_two_group_text": "74b9d23763492583cdd733e1f5ff885ec62d8b0ededba33880f25c32c9f4991e",
    "scale_json": "509404e9d2215b5064d197bff60d41a0176d446766d9edeff502258f7021b460",
    "scale_overflow_json": "0453f0d41890e1d0822b28395ce7331ad061214c2ae586f63605596d109c3658",
    "scale_overflow_text": "0efb4f0a9a2c4d991f0bf77803188217aec34361a4f2958026fdec75c0fecbff",
    "scale_text": "d9b9e4d5aca84e4833550ed3508dda542a743462462948c2f7377d97d2ec71b8",
    "selftest_json": "92d8e624b9b7a92dfc0152cf117c79a7ab947730b6a9037af6d88dbbca043aca",
    "selftest_text": "06222afe79ecb7c2911e8d052dd7d009a386dc31d8df0342a5e07c2367d9aefc",
    "simulate_csv_w1": "7d7d8a56b1923bc920fbfff4de8fb3d31ef83c5fe711d69407dfce0bdfc42df7",
    "simulate_csv_w2": "7d7d8a56b1923bc920fbfff4de8fb3d31ef83c5fe711d69407dfce0bdfc42df7",
    "simulate_csv_w3": "7d7d8a56b1923bc920fbfff4de8fb3d31ef83c5fe711d69407dfce0bdfc42df7",
    "simulate_json_w1": "84aefd6d2969f013cdfb832c81b3cf7af6e05cb6faa68f86aa727446fb65b0db",
    "simulate_json_w2": "84aefd6d2969f013cdfb832c81b3cf7af6e05cb6faa68f86aa727446fb65b0db",
}


def case_outputs(name) -> tuple[int, str, str, bytes | None]:
    """Run one case in the current directory: exit code, stdout, stderr and ``--output`` bytes."""
    argv = CASES[name]
    if FIXTURE in argv:
        write_synthetic_stations(FIXTURE, n_low=10, n_high=6, seed=42, missing_rate=0.02)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    data = None
    if OUTPUT in argv:
        with open(OUTPUT, "rb") as fh:
            data = fh.read()
    return code, out.getvalue(), err.getvalue(), data


def case_digest(name) -> str:
    """Run one case in the current directory and hash everything it wrote."""
    code, stdout, stderr, data = case_outputs(name)
    h = hashlib.sha256()
    h.update(f"exit={code}\n".encode())
    for part in (stdout, stderr):
        h.update(f"{len(part)}\n{part}".encode())
    if data is not None:
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
    dump = os.path.abspath(sys.argv[sys.argv.index("--dump") + 1]) if "--dump" in sys.argv else None
    if dump:
        os.makedirs(dump, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            if not dump:
                print(f'    "{case}": "{case_digest(case)}",')
                continue
            code, stdout, stderr, data = case_outputs(case)
            with open(os.path.join(dump, f"{case}.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"exit={code}\n--- stdout\n{stdout}--- stderr\n{stderr}")
                if data is not None:
                    fh.write("--- output\n" + data.decode("utf-8"))
