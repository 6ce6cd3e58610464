"""Command-line surface: parsing, output schema, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import threading

import pytest

import gausswinner.limits
import gausswinner.montecarlo
import gausswinner.pipeline
from gausswinner.cli import EXIT_IO, EXIT_MATH, EXIT_OK, _build_parser, main
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

    def test_multi_lost_mass_exit_3(self, capsys):
        # the two-group value here is 0.7542; the K-group quadrature loses both rows' mass
        code, out, err = run(capsys, "limit", "--multi", "--group", "1:1", "--group", "1:1e10")
        assert (code, out) == (EXIT_MATH, "")
        assert err == "error: the 2 group probabilities sum to 9.651513469979327e-16, not 1\n"

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_multi_rejects_non_finite_c(self, capsys, c):
        code, out, err = run(capsys, "limit", "--multi", "--group", "1:1", "--group", f"{c}:1.5")
        assert (code, out, err) == (EXIT_MATH, "", f"error: group 1: c must be a finite real > 0, got {c}\n")

    @pytest.mark.parametrize("token", ["x:2", "2", "1:", ":2", "1:2:3"])
    def test_multi_bad_group_exit_3(self, capsys, token):
        # argparse reads --group, so a malformed entry is a usage error (exit 2), as scale's numbers are
        with pytest.raises(SystemExit) as excinfo:
            main(["limit", "--multi", "--group", "1:1", "--group", token])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.endswith(f"\ngausswinner limit: error: argument --group: expected C:SIGMA, got '{token}'\n")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--two-group", "--c", "1", "--sigma", "1e200"], "sigma must be a real > 1 with a finite square"),
            (["--multi", "--group", "1:1", "--group", "1:1e200"], "group 1: sigma must be a real > 1 with a finite square"),
        ],
    )
    def test_sigma_with_an_infinite_square_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, "limit", *argv)
        assert (code, out, err) == (EXIT_MATH, "", f"error: {message}, got 1e+200\n")

    def test_negative_c_exit_code(self, capsys):
        code, out, err = run(capsys, "limit", "--two-group", "--c", "-1", "--sigma", "1.5")
        assert (code, out, err) == (EXIT_MATH, "", "error: c must lie in [0, +inf], got -1.0\n")

    @pytest.mark.parametrize(
        "argv, option, token",
        [
            (["--c", "abc", "--sigma", "1.5"], "--c", "abc"),
            (["--c", "1", "--sigma", "1,5"], "--sigma", "1,5"),
            (["--c", "", "--sigma", "1.5"], "--c", ""),
        ],
    )
    def test_non_numeric_value_names_the_option_exit_3(self, capsys, argv, option, token):
        # argparse reads --c and --sigma, so a malformed number is a usage error (exit 2), as in scale
        with pytest.raises(SystemExit) as excinfo:
            main(["limit", "--two-group", *argv])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.endswith(f"\ngausswinner limit: error: argument {option}: invalid float value: {token!r}\n")

    def test_infinite_c_is_accepted(self, capsys):
        code, out, _ = run(capsys, "limit", "--two-group", "--c", "inf", "--sigma", "2")
        assert code == EXIT_OK
        assert float(parse_kv(out)["p"]) == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--multi", "--group", "1:1", "--group", "1:1.5", "--c", "1"],
            ["--multi", "--group", "1:1", "--group", "1:1.5", "--sigma", "2"],
            ["--two-group", "--c", "1", "--sigma", "1.5", "--group", "1:1"],
        ],
    )
    def test_option_the_mode_ignores_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "limit", *argv)
        message = (
            "--multi takes its groups from --group C:SIGMA, not --c or --sigma"
            if argv[0] == "--multi"
            else "--two-group takes --c and --sigma, not --group"
        )
        assert (code, out, err) == (EXIT_MATH, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--multi"], "--multi requires at least two --group C:SIGMA entries"),
            (["--two-group", "--c", "1"], "--two-group requires --c and --sigma"),
        ],
    )
    def test_missing_option_of_the_mode_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, "limit", *argv)
        assert (code, out, err) == (EXIT_MATH, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sigma_with_an_infinite_square_exit_3(self, capsys, fmt):
        # sigma^2 overflows: log f(n2) would be inf - inf, printed as nan (NaN in JSON)
        code, out, err = run(capsys, "scale", "--n2", "100", "--sigma", "1e200", "--c", "1", "--format", fmt)
        assert (code, out, err) == (EXIT_MATH, "", "error: sigma must be a real > 1 with a finite square, got 1e+200\n")


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

    def test_environment_does_not_reach_the_seed(self, capsys, monkeypatch):
        args = ("simulate", "--sigma", "1.5", "--c", "1.0", "--n2", "100", "--trials", "100")
        monkeypatch.delenv("GAUSSWINNER_SEED", raising=False)
        unset = run(capsys, *args)
        monkeypatch.setenv("GAUSSWINNER_SEED", "4242")
        code, out, err = run(capsys, *args)
        assert code == EXIT_OK
        assert "# seed=20260101" in out
        assert (code, out, err) == unset

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

    def test_quadrature_error_exit_3(self, capsys, monkeypatch):
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
            ("--c", "abc", "grid 'abc' has a non-numeric entry"),
            ("--n2", "5:150:x", "bad range '5:150:x', expected lo:hi[:count]"),
            ("--c", ",", "empty grid ','"),
            ("--sigma", "40", "critical size C*f(n2) overflows a float at sigma=40.0, c=1.0, n2=100"),
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
        assert out == ""  # the document went to --output, and nothing else is written
        lines = out_file.read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "n2,n1,sigma,c,p_hat,std_err,p_limit,p_exact"
        assert len(body) == 3
        sigma_ratio = float(
            next(l for l in lines if l.startswith("# sigma_ratio=")).split("=")[1]
        )
        assert abs(sigma_ratio - 1.5) / 1.5 < 0.10
        # the metadata's sigma is every row's, bit for bit
        sigma_column = body[0].split(",").index("sigma")
        assert [float(row.split(",")[sigma_column]).hex() for row in body[1:]] == [sigma_ratio.hex()] * 2

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
        result = gausswinner.pipeline.run_pipeline(gausswinner.pipeline.load_stations(str(fixture_csv)))
        assert payload["split"]["pool_sd"] == [result.pool_low.sd, result.pool_high.sd]
        # one sigma, bit for bit, in the config, the split and every row
        sigma = result.pool_high.sd / result.pool_low.sd
        assert [payload["config"]["sigma_ratio"], payload["split"]["sigma_ratio"]] == [sigma, sigma]
        assert [row["sigma"] for row in payload["rows"]] == [sigma]
        assert len(payload["stations"]) == 22
        assert len(payload["rows"]) == 1

    def test_critical_n1_past_2_53(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "empirical", "--input", str(fixture_csv),
            "--b", "200", "--c", "3", "--n2", "100000000", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["n1"] > 2.0**53

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
            ("5:150:x", "bad range '5:150:x', expected lo:hi[:count]"),
            ("5,x", "grid '5,x' has a non-numeric entry"),
            ("1e300", "critical size C*f(n2) overflows a float at sigma=1.5016039735008107, c=0.1, n2=1e+300"),
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

    @pytest.mark.parametrize(
        "grid",
        [
            ["--n2", "inf", "grid 'inf' has a non-finite entry"],
            ["--c", "nan", "grid 'nan' has a non-finite entry"],
            ["--c", "abc", "grid 'abc' has a non-numeric entry"],
        ],
    )
    @pytest.mark.parametrize("input_file", ["bad", "absent"])
    def test_bad_grid_wins_over_bad_file(self, capsys, fixture_csv, tmp_path, grid, input_file):
        # the grids are parsed before the file is opened, so a bad grid fails
        # fast and its error is the one reported
        lines = fixture_csv.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:5] + ["nan"])
        path = tmp_path / f"{input_file}.csv"
        if input_file == "bad":
            path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "empirical", "--input", str(path), *grid[:2])
        assert (code, out, err) == (EXIT_MATH, "", f"error: {grid[2]}\n")

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--lat", "x:y"),
            ("--lat", "40:30"),
            ("--lat", "35:35"),
            ("--lat", "nan:40"),
            ("--lat", "35"),
            ("--lon", "-95:inf"),
            ("--lon", "-95:-85:-75"),
            ("--years", "1980.5:2000"),
            ("--years", "2000:1980"),
            ("--years", "1980:"),
        ],
    )
    @pytest.mark.parametrize("input_file", ["good", "absent"])
    def test_bad_selection_wins_over_bad_file(self, capsys, fixture_csv, tmp_path, flag, spec, input_file):
        # the boxes and the year range are checked before the file is opened,
        # and an empty or inverted one no longer ends in "no stations pass"
        path = fixture_csv if input_file == "good" else tmp_path / "absent.csv"
        code, out, err = run(capsys, "empirical", "--input", str(path), f"{flag}={spec}")
        rule = "integers LO <= HI" if flag == "--years" else "finite LO < HI"
        assert (code, out, err) == (EXIT_MATH, "", f"error: {flag} must be LO:HI with {rule}, got {spec!r}\n")

    def test_equals_form_spells_out_the_default_selection(self, capsys, fixture_csv):
        # a bound that starts with "-" must follow "=", or argparse reads it as an option
        grid = ("--b", "200", "--c", "0.6", "--n2", "10", "--seed", "5")
        default = run(capsys, "empirical", "--input", str(fixture_csv), *grid)
        spelled = run(
            capsys, "empirical", "--input", str(fixture_csv), *grid,
            "--lat=30:40", "--lon=-95:-75", "--years=1980:2025",
        )
        assert default[0] == EXIT_OK
        assert spelled == default

    def test_single_year_is_a_valid_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "empirical", "--input", str(tmp_path / "absent.csv"), "--years", "1990:1990")
        assert code == EXIT_IO
        assert "input file not found" in err

    @pytest.mark.parametrize(
        "months, last, message",
        [
            ((1, 3, 5, 7, 9, 11), [], "fewer than 2 consecutive lag pairs"),
            (tuple(range(1, 12)), [12], "months [12] have fewer than 2 observations"),
        ],
    )
    def test_station_failure_names_the_station_exit_3(self, capsys, fixture_csv, tmp_path, months, last, message):
        # one more station whose fit fails: every other month only, or one December in 46 years
        dates = [(year, month) for year in range(1980, 2026) for month in months] + [(2025, m) for m in last]
        rows = "".join(f"BADST,35.0,-85.0,{year},{month},12.5\n" for year, month in dates)
        bad = tmp_path / "bad.csv"
        bad.write_text(fixture_csv.read_text() + rows)
        code, out, err = run(capsys, "empirical", "--input", str(bad))
        assert (code, out, err) == (EXIT_MATH, "", f"error: station BADST: {message}\n")

    def test_empty_selection_exit_3(self, capsys, fixture_csv):
        code, _, err = run(
            capsys, "empirical", "--input", str(fixture_csv), "--lat", "50:60",
        )
        assert code == EXIT_MATH
        assert "no stations" in err


@pytest.mark.parametrize(
    "argv, resolved",
    [
        (["limit", "--two-group", "--c", "1", "--sigma", "1.5"], set()),
        (["limit", "--multi", "--group", "1:1", "--group", "0.7:1.4"], set()),
        (["scale", "--n2", "100", "--sigma", "1.5", "--c", "1"], set()),
        (["simulate", "--sigma", "1.5", "--c", "1", "--n2", "10", "--trials", "50", "--workers", "2"], {"seed"}),
        (["simulate", "--sigma", "1.5", "--c", "1", "--n2", "10", "--trials", "50", "--seed", "3", "--exact"], set()),
        (["empirical", "--input", "FIXTURE", "--b", "20", "--c", "1", "--n2", "10"], {"seed", "sigma_ratio"}),
        (["selftest", "--json"], set()),
    ],
)
def test_config_records_every_option_with_a_value(capsys, fixture_csv, argv, resolved):
    # the recorded keys are the subcommand's option dests that have a value,
    # less --output and --workers, plus the values the run itself resolved
    argv = [str(fixture_csv) if a == "FIXTURE" else a for a in argv]
    if "--json" not in argv:  # selftest's one format flag
        argv += ["--format", "json"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subcommands.choices[argv[0]]._actions if a.option_strings} - {"help", "output", "workers"}
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert set(json.loads(out)["config"]) == {"command"} | {d for d in dests if getattr(args, d) is not None} | resolved


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert out.startswith("# gausswinner selftest\n# format=text\n")
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

    def test_raising_check_is_a_failed_check(self, capsys, monkeypatch):
        def crash(u):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(gausswinner.montecarlo, "sample_gumbel", crash)
        detail = "raised ZeroDivisionError: float division by zero"
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_MATH
        assert f"FAIL gumbel_round_trip: {detail}" in out.splitlines()
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == EXIT_MATH
        payload = json.loads(out)
        assert payload["passed"] is False
        assert {"name": "gumbel_round_trip", "passed": False, "detail": detail} in payload["checks"]


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
