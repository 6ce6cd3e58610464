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
import json
import os
import re
import sys
import tempfile
from unittest import mock

import pytest

from gausswinner.cli import main
from gausswinner.synthetic import write_synthetic_stations

FIXTURE = "stations.csv"
OUTPUT = "out.txt"

_SIM = ["simulate", "--sigma", "1.5,2.0", "--c", "0.5,2.0", "--n2", "100:10000:3",
        "--trials", "2000", "--seed", "9", "--exact"]
_EMP = ["empirical", "--input", FIXTURE, "--b", "200", "--c", "0.1,0.6", "--n2", "5,30",
        "--seed", "5"]
# extreme sizes: n2 from 3 to 1e16, so n1 reaches 2.7e138 at sigma 3
_SIM_EXTREME = ["simulate", "--sigma", "1.05,3.0", "--c", "1,5", "--n2", "3:1e16:3",
                "--trials", "20000", "--seed", "3"]

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
    # beta of an n1 past the largest double is C itself
    "scale_beta_past_overflow_json": ["scale", "--n2", "1e100", "--sigma", "3", "--c", "5", "--format", "json"],
    # both terms of log f(n2) overflow, so it is +inf
    "scale_log_f_overflow_text": ["scale", "--n2", "1e300", "--sigma", "1e154", "--c", "1"],
    "simulate_csv_w1": _SIM + ["--workers", "1", "--output", OUTPUT],
    "simulate_csv_w2": _SIM + ["--workers", "2", "--output", OUTPUT],
    "simulate_csv_w3": _SIM + ["--workers", "3", "--output", OUTPUT],
    "simulate_json_w1": _SIM + ["--workers", "1", "--format", "json"],
    "simulate_json_w2": _SIM + ["--workers", "2", "--format", "json"],
    "simulate_extreme_w1": _SIM_EXTREME + ["--workers", "1"],
    "simulate_extreme_w2": _SIM_EXTREME + ["--workers", "2"],
    # no --seed: the run records and uses the default seed 20260101
    "simulate_default_seed": ["simulate", "--sigma", "1.5", "--c", "0.5,2.0", "--n2", "100:10000:3",
                              "--trials", "2000"],
    "simulate_extreme_exact": _SIM_EXTREME[:2] + ["3.0"] + _SIM_EXTREME[3:] + ["--exact", "--workers", "2"],
    "empirical_csv": _EMP + ["--output", OUTPUT],
    "empirical_json": _EMP + ["--format", "json"],
    "selftest_text": ["selftest"],
    "selftest_json": ["selftest", "--json"],
    # help text, at the 80 columns case_outputs sets
    "help": ["-h"],
    "help_limit": ["limit", "-h"],
    "help_scale": ["scale", "-h"],
    "help_simulate": ["simulate", "-h"],
    "help_empirical": ["empirical", "-h"],
    "help_selftest": ["selftest", "-h"],
}

DIGESTS = {
    "empirical_csv": "f4f4f576bd899b8d2a0c0a64da31969a5b788a5e4489b8d924f80df23345dee3",
    "empirical_json": "8c668a8e7bf3951b739fe08719a963591edff6c9e3de4a15efb2f55c3817c9fd",
    "help": "031d4d653edf4ca94111c1dd06306ce5a8992b0b5d8a2d0a35ba5834c53cb870",
    "help_empirical": "464ee043d9393807b555c9fb9088e9940e838d49bd25f92b7c31fbd6937644c4",
    "help_limit": "82b46966f8366a69dac611228a166bda61e29d9a8642a90b52a40f90484de6fe",
    "help_scale": "d54fbfaf072254dfdfe41c2a3fa12f28f867b9dc53dc9a9c694310ca15be219b",
    "help_selftest": "bee9834a06fd127ef4bf560be873d68aede99666586d28d82742ab53cf5a031a",
    "help_simulate": "e95e3da647bdbd4133760d821fb7eda7c44744a905aab6c7a044e5302c68fab7",
    "limit_bad_sigma": "8f0f9c236b49cd48aeb053164077364aa62e2516766238634b499fb2fb2ec01e",
    "limit_c0_json": "74fbdc8e748e3493fea4666de8f2887e28a4991ddf18e0151cc45d9571f1c705",
    "limit_c0_text": "b4ee0ed6aef3f5d0b613f981852ec5547a50e50d370008c1101b99379cc23bea",
    "limit_cinf_json": "4dcd038d4dc5582f24c5ad16359ca81401b969414d0e82372c18ca708b521db0",
    "limit_cinf_text": "88ef940c1da53ca46e05116324d01feee48905895c3a6e834ceb7be2187ddbc0",
    "limit_multi_json": "b490661b7e4589d96f7bf471732551f9d86b8f5d86df23ce58a708ff5c88c52d",
    "limit_multi_text": "66e174654fa8c9d9317380d5769d0650102da7e316b51d70176da1dea84ddfd7",
    "limit_two_group_json": "25d3450f83229a4adca8331572f1bf3876788ac525d33912e527fd20d7dbb785",
    "limit_two_group_text": "2df506249b64aec539b415b790a936db20c67f197ffa657f064980b9bf37b48a",
    "scale_beta_past_overflow_json": "b199caf818ea61da6f24071e864bfc837291ec4ed1676f6d1ae8a70cb5ed3d20",
    "scale_json": "509404e9d2215b5064d197bff60d41a0176d446766d9edeff502258f7021b460",
    "scale_log_f_overflow_text": "e545720c77ce965ad997df96c8e1516c49dea4cfe1598f77c531e8bf2b9a3dc6",
    "scale_overflow_json": "0453f0d41890e1d0822b28395ce7331ad061214c2ae586f63605596d109c3658",
    "scale_overflow_text": "0efb4f0a9a2c4d991f0bf77803188217aec34361a4f2958026fdec75c0fecbff",
    "scale_text": "d9b9e4d5aca84e4833550ed3508dda542a743462462948c2f7377d97d2ec71b8",
    "selftest_json": "fe35bddf15913b55618f947e03295ec88e1ee9696d1fd667a41d1fb57998af07",
    "selftest_text": "7bdfa85912266a6492944fd91a793fec90e41fbc365c2fa8c313307d2effcbe5",
    "simulate_csv_w1": "a483c55fc07316d711a3ef5565336dbc872c56b12c148243a30b74f327208311",
    "simulate_csv_w2": "a483c55fc07316d711a3ef5565336dbc872c56b12c148243a30b74f327208311",
    "simulate_csv_w3": "a483c55fc07316d711a3ef5565336dbc872c56b12c148243a30b74f327208311",
    "simulate_default_seed": "347a093f1f351958cdb9a94ebb18ac0c089ac8a4f44d9b5303e13bbf1f6379ca",
    "simulate_extreme_exact": "5ca8668ed51330ac23e3ee8d79431d19d84e956f1a490c210379cc7176b29058",
    "simulate_extreme_w1": "adb3b200e2b854b28f09040ed53559b842c220721a43078a53935811fee717cc",
    "simulate_extreme_w2": "adb3b200e2b854b28f09040ed53559b842c220721a43078a53935811fee717cc",
    "simulate_json_w1": "239ba1d59940882980942aaee1d6096e55a2824200b57b94d4a945348ddaa894",
    "simulate_json_w2": "239ba1d59940882980942aaee1d6096e55a2824200b57b94d4a945348ddaa894",
}


def case_outputs(argv) -> tuple[int, str, str, bytes | None]:
    """Run one argv in the current directory: exit code, stdout, stderr and ``--output`` bytes.

    argparse exits through ``SystemExit``, whose code is the exit code,
    and wraps help to ``COLUMNS``, which is set to 80 for the call.
    """
    if FIXTURE in argv:
        write_synthetic_stations(FIXTURE, n_low=10, n_high=6, seed=42, missing_rate=0.02)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    data = None
    if OUTPUT in argv:
        with open(OUTPUT, "rb") as fh:
            data = fh.read()
    return code, out.getvalue(), err.getvalue(), data


def case_digest(code, stdout, stderr, data) -> str:
    """Hash everything one case wrote, as :func:`case_outputs` returns it."""
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
    code, stdout, stderr, data = case_outputs(CASES[name])
    # no byte spells a NaN: a number that failed is an error or an empty field, never ``nan``
    for text in (stdout, stderr, (data or b"").decode("utf-8")):
        assert re.search(r"\bnan\b", text, re.IGNORECASE) is None
    assert case_digest(code, stdout, stderr, data) == DIGESTS[name]


# every case that writes a document: selftest takes no --output, limit_bad_sigma exits 3 and -h writes help
DOCUMENT_CASES = sorted(
    name for name in CASES if not name.startswith(("selftest", "help")) and name != "limit_bad_sigma"
)


@pytest.mark.parametrize("name", DOCUMENT_CASES)
def test_output_moves_the_document_and_nothing_else(name, tmp_path, monkeypatch):
    """``--output F`` writes to F exactly the bytes the run writes to stdout without it, and nothing else."""
    monkeypatch.chdir(tmp_path)
    argv = list(CASES[name])
    if OUTPUT in argv:
        del argv[argv.index("--output"):argv.index(OUTPUT) + 1]
    code, stdout, stderr, _ = case_outputs(argv)
    assert (code, stderr) == (0, "")
    code, moved_stdout, moved_stderr, data = case_outputs(argv + ["--output", OUTPUT])
    assert (code, moved_stdout, moved_stderr) == (0, "", "")
    assert data == stdout.encode("utf-8")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("name", [name for name in sorted(CASES) if {"json", "--json"} & set(CASES[name])])
def test_json_output_is_strict_json(name, tmp_path, monkeypatch):
    """Every JSON case parses with NaN and Infinity refused, as JSON itself refuses them."""
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr, data = case_outputs(CASES[name])
    json.loads(stdout if data is None else data, parse_constant=_not_json)


def test_simulate_digest_independent_of_workers():
    for fmt in ("csv", "json"):
        assert DIGESTS[f"simulate_{fmt}_w1"] == DIGESTS[f"simulate_{fmt}_w2"]
    assert DIGESTS["simulate_csv_w1"] == DIGESTS["simulate_csv_w3"]
    assert DIGESTS["simulate_extreme_w1"] == DIGESTS["simulate_extreme_w2"]


if __name__ == "__main__":
    dump = os.path.abspath(sys.argv[sys.argv.index("--dump") + 1]) if "--dump" in sys.argv else None
    if dump:
        os.makedirs(dump, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            if not dump:
                print(f'    "{case}": "{case_digest(*case_outputs(CASES[case]))}",')
                continue
            code, stdout, stderr, data = case_outputs(CASES[case])
            with open(os.path.join(dump, f"{case}.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"exit={code}\n--- stdout\n{stdout}--- stderr\n{stderr}")
                if data is not None:
                    fh.write("--- output\n" + data.decode("utf-8"))
