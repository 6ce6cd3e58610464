"""Command-line surface: reproducible runs with machine-readable output.

Subcommands
-----------
limit      two-group or multi-group limiting winning probabilities
scale      critical scaling law diagnostics at one (n2, sigma, C)
simulate   Monte Carlo convergence study (plot-ready CSV/JSON rows)
empirical  full bootstrap pipeline on a monthly-temperature CSV
selftest   fast oracle checks; nonzero exit on any failure

Every run embeds its fully resolved configuration (seed included) in the
output metadata, and reruns from the same configuration are byte
identical regardless of worker count.  Exit codes: 0 success, 2 usage
error, 3 domain/math error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple

import numpy as np
from scipy.special import erfc, log_ndtr, ndtr

from . import limits, montecarlo, pipeline, scaling
from .normal import LOG_HALF, std_normal_quantile, upper_tail_quantile
from .quadrature import QuadratureError

__all__ = ["main"]

ENV_SEED = "GAUSSWINNER_SEED"
DEFAULT_SEED = 20260101
CSV_COLUMNS = ["n2", "n1", "sigma", "c", "p_hat", "std_err", "p_limit", "p_exact"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_IO = 4


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _count(minimum: int):
    """argparse type for integer counts that must be at least ``minimum``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {raw!r}")
        return value

    return parse


def _parse_grid(spec: str, *, integer: bool = False) -> list[float]:
    """Comma list or log-spaced range lo:hi[:count] (count defaults to 10) of finite entries."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {spec!r}, expected lo:hi[:count]")
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2]) if len(parts) == 3 else 10
        if not (0 < lo < math.inf and 0 < hi < math.inf and count >= 1):
            raise ValueError(f"log-spaced range needs finite positive lo, hi and count >= 1, got {spec!r}")
        values = list(np.geomspace(lo, hi, count)) if count > 1 else [lo]
    else:
        values = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"empty grid {spec!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid {spec!r} has a non-finite entry")
    if integer:  # rounded, duplicates dropped, first-seen order kept
        return list(dict.fromkeys(int(round(v)) for v in values))
    return values


def _metadata_lines(config: dict) -> list[str]:
    lines = [f"# gausswinner {config['command']}"]
    for key in sorted(k for k in config if k != "command"):
        lines.append(f"# {key}={_fmt(config[key])}")
    return lines


def _table(rows) -> tuple[dict, list[str]]:
    """Study rows as records keyed by CSV_COLUMNS: JSON fields and CSV lines (header first)."""
    records = [dict(zip(CSV_COLUMNS, astuple(r))) for r in rows]  # StudyRow fields are in column order
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(rec[c]) for c in CSV_COLUMNS) for rec in records)
    return {"columns": CSV_COLUMNS, "rows": records}, lines


def _emit(args, config: dict, fields: dict, lines: list[str] | None = None) -> None:
    """Write one command's output to --output or stdout.

    JSON is ``{"config": config, **fields}`` with infinite field values
    written as null.  Text is the ``#`` metadata block followed by
    ``lines`` when given, else one ``key=value`` line per field.
    """
    if args.format == "json":
        fields = {k: None if isinstance(v, float) and math.isinf(v) else v for k, v in fields.items()}
        text = json.dumps({"config": config, **fields}, indent=2, sort_keys=True) + "\n"
    else:
        if lines is None:
            lines = [f"{key}={_fmt(val)}" for key, val in fields.items()]
        text = "\n".join(_metadata_lines(config) + lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_limit(args) -> int:
    config = {
        "command": "limit",
        "mode": "multi" if args.multi else "two-group",
        "format": args.format,
    }
    if args.multi:
        if not args.group:
            raise ValueError("--multi requires at least two --group C:SIGMA entries")
        groups = []
        for token in args.group:
            c_str, _, s_str = token.partition(":")
            if not s_str:
                raise ValueError(f"bad --group {token!r}, expected C:SIGMA")
            groups.append((float(c_str), float(s_str)))
        spec = limits.LimitSpecK(groups=tuple(groups))
        results = limits.multi_group_limits(spec)
        kappas = spec.kappas()
        config["groups"] = ";".join(f"{c}:{s}" for c, s in groups)
        records = [
            {"c": c, "sigma": s, "kappa": k, "p": r.value, "abs_err": r.abs_err}
            for (c, s), k, r in zip(groups, kappas, results)
        ]
        sum_p = sum(r.value for r in results)
        lines = [
            f"group {i}: " + " ".join(f"{key}={_fmt(val)}" for key, val in rec.items())
            for i, rec in enumerate(records)
        ]
        _emit(args, config, {"groups": records, "sum_p": sum_p}, lines + [f"sum_p={_fmt(sum_p)}"])
        return EXIT_OK

    if args.c is None or args.sigma is None:
        raise ValueError("--two-group requires --c and --sigma")
    c, sigma = float(args.c), float(args.sigma)
    result = limits.two_group_limit(c, sigma)
    config.update({"c": c, "sigma": sigma})
    fields = {
        "kappa": scaling.kappa(c, sigma),
        "p": result.value,
        "abs_err": result.abs_err,
        "regime": "degenerate" if result.note == "degenerate" else "critical",
    }
    _emit(args, config, fields)
    return EXIT_OK


def cmd_scale(args) -> int:
    n2, sigma, c = float(args.n2), float(args.sigma), float(args.c)
    size = scaling.critical_n1(n2, sigma, c)
    log_f = scaling.log_critical_scale(n2, sigma)
    f_value = scaling.critical_scale(n2, sigma)
    n1 = float(size.floor_value) if size.floor_value is not None else size.real_value
    if math.isfinite(n1):
        b = scaling.beta(n1, n2, sigma)
        gap = scaling.centering_gap(n1, n2, sigma) if n1 >= 2.0 else None
    else:
        b = math.exp(size.log_value - log_f)  # exactly c at the real-valued size
        gap = None
    config = {"command": "scale", "n2": n2, "sigma": sigma, "c": c, "format": args.format}
    fields = {
        "log_f_n2": log_f,
        "f_n2": f_value if math.isfinite(f_value) else None,
        "n1_real": size.real_value if math.isfinite(size.real_value) else None,
        "n1_floor": size.floor_value,
        "log_n1": size.log_value,
        "beta": b,
        "centering_gap": gap,
        "kappa": scaling.kappa(c, sigma),
    }
    _emit(args, config, fields)
    return EXIT_OK


def cmd_simulate(args) -> int:
    sigmas = _parse_grid(args.sigma)
    c_values = _parse_grid(args.c)
    n2_grid = _parse_grid(args.n2)
    seed = args.seed if args.seed is not None else _default_seed()
    config = {
        "command": "simulate",
        "sigma": args.sigma,
        "c": args.c,
        "n2": args.n2,
        "trials": args.trials,
        "seed": seed,
        "exact": args.exact,
        "format": args.format,
    }
    base = montecarlo.RngStream(seed=seed)
    rows = []
    for i, sigma in enumerate(sigmas):
        rows.extend(
            montecarlo.convergence_study(
                sigma,
                c_values,
                n2_grid,
                args.trials,
                base.substream(i),
                exact=args.exact,
                workers=args.workers,
            )
        )
    _emit(args, config, *_table(rows))
    return EXIT_OK


def cmd_empirical(args) -> int:
    c_values = _parse_grid(args.c)
    n2_grid = _parse_grid(args.n2, integer=True)
    if not os.path.exists(args.input):
        raise OSError(f"input file not found: {args.input}")
    lat = tuple(float(v) for v in args.lat.split(":"))
    lon = tuple(float(v) for v in args.lon.split(":"))
    years = tuple(int(v) for v in args.years.split(":"))
    if len(lat) != 2 or len(lon) != 2 or len(years) != 2:
        raise ValueError("--lat, --lon and --years must look like LO:HI")
    seed = args.seed if args.seed is not None else _default_seed()
    stations = pipeline.load_stations(
        args.input,
        lat_range=lat,
        lon_range=lon,
        year_range=years,
        min_months=args.min_months,
    )
    if not stations:
        raise ValueError("no stations pass the location, date and completeness filters")
    result = pipeline.run_pipeline(stations)
    rows = pipeline.empirical_study(
        result.pool_low,
        result.pool_high,
        result.sigma_ratio,
        c_values,
        n2_grid,
        args.b,
        montecarlo.RngStream(seed=seed),
        workers=args.workers,
    )
    config = {
        "command": "empirical",
        "input": args.input,
        "b": args.b,
        "c": args.c,
        "n2": args.n2,
        "seed": seed,
        "min_months": args.min_months,
        "lat": args.lat,
        "lon": args.lon,
        "years": args.years,
        "format": args.format,
        "sigma_ratio": result.sigma_ratio,
    }
    stations_out = [
        {
            "station_id": sid,
            "phi": fit.phi,
            "innovation_sd": float(fit.innovations.std(ddof=1)),
            "n_used": fit.n_used,
        }
        for sid, fit in zip(result.station_ids, result.fits)
    ]
    fields, lines = _table(rows)
    fields["stations"] = stations_out
    fields["split"] = {
        "low_count": len(result.low_indices),
        "high_count": len(result.high_indices),
        "centers": list(result.centers),
        "sigma_ratio": result.sigma_ratio,
    }
    _emit(args, config, fields, lines)
    if args.format != "json" and args.output is not None:
        diag_lines = [
            f"stations={len(stations)} low={len(result.low_indices)} high={len(result.high_indices)}",
            f"variance_centers low={_fmt(result.centers[0])} high={_fmt(result.centers[1])}",
            f"pool_sd low={_fmt(result.pool_low.sd)} high={_fmt(result.pool_high.sd)}",
            f"sigma_ratio={_fmt(result.sigma_ratio)}",
        ] + [
            f"station {st['station_id']}: phi={_fmt(st['phi'])} "
            f"innovation_sd={_fmt(st['innovation_sd'])} n_used={st['n_used']}"
            for st in stations_out
        ]
        sys.stdout.write("\n".join(diag_lines) + "\n")
    return EXIT_OK


def _selftest_checks():
    checks = []

    def check(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn

        return wrap

    @check("quantile_round_trip")
    def _():
        grid = np.geomspace(1e-12, 0.5, 40)
        ps = np.concatenate([grid, 1.0 - grid])
        err = np.max(np.abs(ndtr(std_normal_quantile(ps)) - ps))
        return err <= 1e-12, f"max |Phi(Phi^-1(p)) - p| = {err:.3g}"

    @check("deep_tail_round_trip")
    def _():
        log_q = -np.geomspace(1e5, -LOG_HALF, 40)
        x = upper_tail_quantile(log_q)
        back = log_ndtr(-x)
        err = np.max(np.abs(back - log_q) / np.abs(log_q))
        return err <= 1e-8, f"max rel log-q error = {err:.3g}"

    @check("cdf_symmetry")
    def _():
        xs = np.linspace(-8, 8, 161)
        err = np.max(np.abs(ndtr(xs) + ndtr(-xs) - 1.0))
        return err <= 1e-15, f"max |Phi(x)+Phi(-x)-1| = {err:.3g}"

    @check("exchangeable_finite_n")
    def _():
        worst = 0.0
        for n1, n2 in [(1, 1), (2, 1), (7, 13), (20, 5)]:
            p = limits.finite_n_winner(scaling.GroupSpec(n1, 1.0), scaling.GroupSpec(n2, 1.0))
            worst = max(worst, abs(p.value - n1 / (n1 + n2)))
        return worst <= 1e-10, f"max |p - n1/(n1+n2)| = {worst:.3g}"

    @check("symmetric_boundary_limit")
    def _():
        p = limits.two_group_limit(1.0, 1.0 + 1e-9).value
        return abs(p - 0.5) <= 1e-6, f"p(C=1, sigma->1) = {p:.9f}"

    @check("closed_form_limit")
    def _():
        p = limits.two_group_limit_from_kappa(0.0, math.sqrt(2.0)).value
        exact = 1.0 - math.sqrt(math.pi) / 2.0 * math.exp(0.25) * erfc(0.5)
        return abs(p - exact) <= 1e-9, f"|p - closed form| = {abs(p - exact):.3g}"

    @check("multi_sum_to_one")
    def _():
        spec = limits.LimitSpecK(groups=((1.0, 1.0), (1.0, 1.5), (2.0, 2.0)))
        total = sum(r.value for r in limits.multi_group_limits(spec))
        return abs(total - 1.0) <= 1e-8, f"|sum p - 1| = {abs(total - 1.0):.3g}"

    @check("k2_reduction")
    def _():
        spec = limits.LimitSpecK(groups=((1.0, 1.0), (0.7, 1.4)))
        parts = limits.multi_group_limits(spec)
        tg = limits.two_group_limit(0.7, 1.4)
        err = abs(parts[0].value - tg.value)
        return err <= 1e-9, f"|p1(multi) - p(two-group)| = {err:.3g}"

    @check("kappa_continuity")
    def _():
        worst = max(
            abs(scaling.kappa(c, 1.0 + 1e-6) - math.log(c)) for c in (0.1, 0.5, 1.0, 2.0, 10.0)
        )
        return worst <= 1e-4, f"max |kappa(C, 1+1e-6) - log C| = {worst:.3g}"

    @check("sample_max_cdf_identity")
    def _():
        n, sigma = 1e16, 2.0
        worst = 0.0
        for u in (0.1, math.exp(-1.0), 0.9):
            m = montecarlo.sample_group_max(n, sigma, u)
            worst = max(worst, abs(n * log_ndtr(m / sigma) - math.log(u)) / abs(math.log(u)))
        return worst <= 1e-8, f"max rel CDF identity error = {worst:.3g}"

    @check("gumbel_round_trip")
    def _():
        us = np.linspace(0.02, 0.98, 25)
        err = np.max(np.abs(np.exp(-np.exp(-montecarlo.sample_gumbel(us))) - us))
        return err <= 1e-12, f"max |F(F^-1(u)) - u| = {err:.3g}"

    return checks


def cmd_selftest(args) -> int:
    results = []
    failed = False
    for name, fn in _selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        failed = failed or not ok
    if args.json:
        payload = {"checks": results, "passed": not failed}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for r in results:
            sys.stdout.write(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}\n")
    return EXIT_MATH if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausswinner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_limit = sub.add_parser("limit", help="limiting winning probabilities")
    mode = p_limit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--two-group", action="store_true", dest="two_group")
    mode.add_argument("--multi", action="store_true")
    p_limit.add_argument("--c", type=str, default=None, help="constant C (0 and inf allowed)")
    p_limit.add_argument("--sigma", type=str, default=None, help="sigma > 1")
    p_limit.add_argument("--group", action="append", default=[], help="C:SIGMA, repeatable")
    p_limit.add_argument("--format", choices=["text", "json"], default="text")
    p_limit.add_argument("--output", default=None)
    p_limit.set_defaults(fn=cmd_limit)

    p_scale = sub.add_parser("scale", help="critical scaling diagnostics")
    p_scale.add_argument("--n2", type=float, required=True)
    p_scale.add_argument("--sigma", type=float, required=True)
    p_scale.add_argument("--c", type=float, required=True)
    p_scale.add_argument("--format", choices=["text", "json"], default="text")
    p_scale.add_argument("--output", default=None)
    p_scale.set_defaults(fn=cmd_scale)

    p_sim = sub.add_parser("simulate", help="Monte Carlo convergence study")
    p_sim.add_argument("--sigma", default="1.2,1.5,2.0", help="comma list or lo:hi[:count]")
    p_sim.add_argument("--c", default="0.1,1.0,5.0")
    p_sim.add_argument("--n2", default="100:1000000:5")
    p_sim.add_argument("--trials", type=_count(1), default=100_000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--exact", action="store_true", help="append the finite-n quadrature column")
    p_sim.add_argument("--workers", type=_count(1), default=1)
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_emp = sub.add_parser("empirical", help="bootstrap pipeline on a monthly CSV")
    p_emp.add_argument("--input", required=True)
    p_emp.add_argument("--b", type=_count(1), default=10_000)
    p_emp.add_argument("--c", default="0.1,0.6,3.0")
    p_emp.add_argument("--n2", default="5:150:8")
    p_emp.add_argument("--seed", type=int, default=None)
    p_emp.add_argument("--min-months", type=_count(0), default=pipeline.DEFAULT_MIN_MONTHS)
    p_emp.add_argument("--lat", default="30:40")
    p_emp.add_argument("--lon", default="-95:-75")
    p_emp.add_argument("--years", default="1980:2025")
    p_emp.add_argument("--workers", type=_count(1), default=1)
    p_emp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_emp.add_argument("--output", default=None)
    p_emp.set_defaults(fn=cmd_empirical)

    p_self = sub.add_parser("selftest", help="fast oracle suite")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, QuadratureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MATH
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
