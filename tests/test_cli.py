"""Command-line surface: parsing, output schema, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest

import gausswinner.limits
import gausswinner.montecarlo
from gausswinner.cli import EXIT_IO, EXIT_MATH, EXIT_OK, main
from gausswinner.quadrature import QuadratureError
from gausswinner.scaling import kappa as real_kappa
from gausswinner.synthetic import write_synthetic_stations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


class TestLimitCommand:
    def test_two_group(self, capsys):
        code, out, _ = run(capsys, "limit", "--two-group", "--c", "1", "--sigma", "1.5")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert float(kv["p"]) == pytest.approx(0.6090823555956326, abs=1e-9)
        assert float(kv["abs_err"]) <= 1e-10
        assert kv["regime"] == "critical"

    def test_multi_sums_to_one(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--multi", "--group", "1:1", "--group", "1:1.5", "--group", "2:2"
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert float(kv["sum_p"]) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_zero(self, capsys):
        code, out, _ = run(capsys, "limit", "--two-group", "--c", "0", "--sigma", "2")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert float(kv["p"]) == 0.0
        assert kv["regime"] == "degenerate"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--two-group", "--c", "1", "--sigma", "1.5", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.6090823555956326, abs=1e-9)

    def test_invalid_sigma_exit_code(self, capsys):
        code, _, err = run(capsys, "limit", "--two-group", "--c", "1", "--sigma", "0.8")
        assert code == EXIT_MATH
        assert "sigma" in err


class TestScaleCommand:
    def test_floor_example(self, capsys):
        code, out, _ = run(capsys, "scale", "--n2", "100", "--sigma", "1.41421356", "--c", "1")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["n1_floor"] == "4659"
        assert float(kv["beta"]) == pytest.approx(4659.0 / float(kv["f_n2"]), rel=1e-9)

    def test_sigma_collapse(self, capsys):
        code, out, _ = run(capsys, "scale", "--n2", "100", "--sigma", "1.0000001", "--c", "2")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert float(kv["n1_real"]) == pytest.approx(200.0, rel=1e-4)

    def test_overflow_prints_log_only(self, capsys):
        code, out, _ = run(capsys, "scale", "--n2", "1000000", "--sigma", "2", "--c", "5")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["n1_floor"] == ""
        assert float(kv["log_n1"]) == pytest.approx(
            math.log(5.0) + 4.0 * math.log(1e6) - 1.5 * math.log(math.log(1e6)), rel=1e-12
        )

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "scale", "--n2", "1", "--sigma", "2", "--c", "1")
        assert code == EXIT_MATH


class TestSimulateCommand:
    def test_csv_schema(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--sigma", "1.5",
            "--c", "1.0",
            "--n2", "100,1000",
            "--trials", "2000",
            "--seed", "9",
            "--output", str(out_file),
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("seed=9" in l for l in meta)
        assert body[0] == "n2,n1,sigma,c,p_hat,std_err,p_limit,p_exact"
        assert len(body) == 3
        assert body[1].endswith(",")  # p_exact empty without --exact

    def test_exact_column_populated(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--sigma", "1.5", "--c", "1.0", "--n2", "100",
            "--trials", "500", "--seed", "9", "--exact",
            "--output", str(out_file),
        )
        assert code == EXIT_OK
        row = [l for l in out_file.read_text().splitlines() if not l.startswith("#")][1]
        assert row.split(",")[-1] != ""

    def test_single_trial_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--sigma", "1.5", "--c", "1.0", "--n2", "100",
            "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_OK
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[4]) in (0.0, 1.0)

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--sigma", "1.2,1.5", "--c", "0.5,2.0", "--n2", "100:10000:3",
                "--trials", "3000", "--seed", "31"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_workers_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--sigma", "1.5", "--c", "1.0", "--n2", "100:100000:3",
                "--trials", "20000", "--seed", "77"]
        assert main(args + ["--workers", "1", "--output", str(a)]) == EXIT_OK
        assert main(args + ["--workers", "8", "--output", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSSWINNER_SEED", "4242")
        code, out, _ = run(
            capsys, "simulate", "--sigma", "1.5", "--c", "1.0", "--n2", "100", "--trials", "100"
        )
        assert code == EXIT_OK
        assert "# seed=4242" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--sigma", "1.5", "--c", "1.0", "--n2", "100",
            "--trials", "200", "--seed", "2", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["seed"] == 2
        assert len(payload["rows"]) == 1
        assert set(payload["rows"][0]) >= {"n2", "n1", "p_hat", "p_limit"}

    def test_quadrature_error_in_pool_exit_3(self, capsys, monkeypatch):
        real = gausswinner.montecarlo.finite_n_winner

        def stalls(g1, g2):
            if g2.size == 1000.0:
                raise QuadratureError("refinement stalled")
            return real(g1, g2)

        monkeypatch.setattr(gausswinner.montecarlo, "finite_n_winner", stalls)
        before = threading.active_count()
        for workers in ("1", "2"):
            code, out, err = run(
                capsys, "simulate", "--sigma", "1.5", "--c", "0.5,2", "--n2", "100,1000",
                "--trials", "20000", "--exact", "--workers", workers,
            )
            assert (code, out, err) == (EXIT_MATH, "", "error: refinement stalled\n")
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "flag, spec, message",
        [
            ("--n2", "inf", "grid 'inf' has a non-finite entry"),
            ("--n2", "5,1e400", "grid '5,1e400' has a non-finite entry"),
            ("--n2", "nan", "grid 'nan' has a non-finite entry"),
            ("--c", "1,-inf", "grid '1,-inf' has a non-finite entry"),
            ("--n2", "10:inf", "log-spaced range needs finite positive lo, hi and count >= 1, got '10:inf'"),
            ("--sigma", "nan:2:3", "log-spaced range needs finite positive lo, hi and count >= 1, got 'nan:2:3'"),
        ],
    )
    def test_non_finite_grid_exit_3(self, capsys, flag, spec, message):
        code, out, err = run(capsys, "simulate", "--sigma", "1.5", "--c", "1", "--n2", "100", "--trials", "10", flag, spec)
        assert (code, out, err) == (EXIT_MATH, "", f"error: {message}\n")

    def test_usage_error_exit_2(self, capsys):
        for argv in (
            ["simulate", "--format", "yaml"],
            ["simulate", "--workers", "0"],
            ["simulate", "--workers", "-3"],
            ["simulate", "--trials", "0"],
            ["simulate", "--trials", "-3"],
            ["empirical", "--input", "stations.csv", "--workers", "0"],
            ["empirical", "--input", "stations.csv", "--workers", "-3"],
            ["empirical", "--input", "stations.csv", "--b", "0"],
            ["empirical", "--input", "stations.csv", "--b", "1.5"],
            ["empirical", "--input", "stations.csv", "--min-months", "-5"],
            ["empirical", "--input", "stations.csv", "--min-months", "2.5"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert argv[-2] in capsys.readouterr().err, argv


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("emp") / "stations.csv"
    write_synthetic_stations(path, n_low=14, n_high=8, seed=42, missing_rate=0.02)
    return path


class TestEmpiricalCommand:
    def test_missing_input_exit_4_no_output(self, capsys, tmp_path):
        out_file = tmp_path / "never.csv"
        code, _, err = run(
            capsys, "empirical", "--input", str(tmp_path / "absent.csv"),
            "--output", str(out_file),
        )
        assert code == EXIT_IO
        assert not out_file.exists()

    def test_full_run(self, capsys, fixture_csv, tmp_path):
        out_file = tmp_path / "study.csv"
        code, out, _ = run(
            capsys,
            "empirical",
            "--input", str(fixture_csv),
            "--b", "400",
            "--c", "0.6",
            "--n2", "10,30",
            "--seed", "5",
            "--output", str(out_file),
        )
        assert code == EXIT_OK
        assert "sigma_ratio=" in out  # diagnostics on stdout
        lines = out_file.read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "n2,n1,sigma,c,p_hat,std_err,p_limit,p_exact"
        assert len(body) == 3
        sigma_ratio = float(
            next(l for l in lines if l.startswith("# sigma_ratio=")).split("=")[1]
        )
        assert abs(sigma_ratio - 1.5) / 1.5 < 0.10

    def test_json_run(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys,
            "empirical",
            "--input", str(fixture_csv),
            "--b", "200", "--c", "0.6", "--n2", "10", "--seed", "5",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["split"]["low_count"] == 14
        assert len(payload["stations"]) == 22
        assert len(payload["rows"]) == 1

    def test_min_months_zero_is_a_valid_count(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "empirical", "--input", str(fixture_csv), "--min-months", "0",
            "--b", "200", "--c", "0.6", "--n2", "10", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["min_months"] == 0
        assert len(payload["stations"]) == 23  # the sparse station the default 240 drops

    def test_non_finite_value_exit_3(self, capsys, fixture_csv, tmp_path):
        lines = fixture_csv.read_text().splitlines()
        sid, lat, lon, year, month, _ = lines[5].split(",")
        lines[5] = ",".join([sid, lat, lon, year, month, "nan"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "empirical", "--input", str(bad))
        assert code == EXIT_MATH
        assert "line 6: non-finite tavg_c" in err

    @pytest.mark.parametrize("field, raw", [(1, "nan"), (2, "-inf")])
    def test_non_finite_coordinate_exit_3(self, capsys, fixture_csv, tmp_path, field, raw):
        lines = fixture_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[field] = raw
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "empirical", "--input", str(bad))
        assert code == EXIT_MATH
        assert out == ""
        name = "latitude" if field == 1 else "longitude"
        assert f"line 6: non-finite {name} '{raw}'" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("inf", "grid 'inf' has a non-finite entry"),
            ("5,1e400", "grid '5,1e400' has a non-finite entry"),
            ("nan", "grid 'nan' has a non-finite entry"),
            ("5:inf:3", "log-spaced range needs finite positive lo, hi and count >= 1, got '5:inf:3'"),
        ],
    )
    def test_non_finite_n2_exit_3(self, capsys, fixture_csv, spec, message):
        # the integer grid used to raise OverflowError (exit 1) at inf, and
        # "cannot convert float NaN to integer" at nan
        code, out, err = run(capsys, "empirical", "--input", str(fixture_csv), "--b", "10", "--n2", spec)
        assert (code, out, err) == (EXIT_MATH, "", f"error: {message}\n")

    def test_field_above_csv_limit_exit_3(self, capsys, tmp_path):
        # csv.Error used to escape as a traceback with exit 1
        bad = tmp_path / "bad.csv"
        bad.write_text("station_id,latitude,longitude,year,month,tavg_c\nA,35." + "0" * 140_000 + ",-80,1990,1,5.0\n")
        code, out, err = run(capsys, "empirical", "--input", str(bad))
        assert (code, out) == (EXIT_MATH, "")
        assert err.startswith("error: line 2: field larger than field limit")

    @pytest.mark.parametrize("grid", [["--n2", "inf"], ["--c", "nan"]])
    @pytest.mark.parametrize("input_file", ["bad", "absent"])
    def test_bad_grid_wins_over_bad_file(self, capsys, fixture_csv, tmp_path, grid, input_file):
        # the grids are parsed before the file is opened, so a bad grid fails
        # fast and its error is the one reported
        lines = fixture_csv.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:5] + ["nan"])
        path = tmp_path / f"{input_file}.csv"
        if input_file == "bad":
            path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "empirical", "--input", str(path), *grid)
        assert (code, out, err) == (EXIT_MATH, "", f"error: grid '{grid[1]}' has a non-finite entry\n")

    def test_empty_selection_exit_3(self, capsys, fixture_csv):
        code, _, err = run(
            capsys, "empirical", "--input", str(fixture_csv), "--lat", "50:60",
        )
        assert code == EXIT_MATH
        assert "no stations" in err


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_mutated_kappa_detected(self, capsys, monkeypatch):
        # shift the constant used by the limit law: closed-form checks must trip
        monkeypatch.setattr(
            gausswinner.limits, "kappa", lambda c, s: real_kappa(c, s) + 0.1
        )
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_MATH
        assert "FAIL" in out


def test_import_skips_scipy_signal(tmp_path):
    """No part of the package needs scipy.signal: not the CLI, the top level or the fixture writer."""
    src = os.path.dirname(os.path.dirname(gausswinner.limits.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, gausswinner, gausswinner.cli\n"
        f"gausswinner.write_synthetic_stations({str(tmp_path / 'f.csv')!r}, n_low=2, n_high=1, missing_rate=0.1)\n"
        "sys.exit('scipy.signal' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    assert (tmp_path / "f.csv").stat().st_size > 0
