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
import dataclasses
import json
import math
import os
import sys

import numpy as np
from scipy.special import erfc, log_ndtr, ndtr

from . import limits, montecarlo, pipeline, scaling
from .normal import LOG_HALF, std_normal_quantile, upper_tail_quantile
from .quadrature import QuadratureError

__all__ = ["main"]

DEFAULT_SEED = 20260101
CSV_COLUMNS = [f.name for f in dataclasses.fields(montecarlo.StudyRow)]

EXIT_OK = 0
EXIT_MATH = 3
EXIT_IO = 4


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
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2]) if len(parts) == 3 else 10
        except ValueError:
            parts = []
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {spec!r}, expected lo:hi[:count]")
        if not (0 < lo < math.inf and 0 < hi < math.inf and count >= 1):
            raise ValueError(f"log-spaced range needs finite positive lo, hi and count >= 1, got {spec!r}")
        values = list(np.geomspace(lo, hi, count)) if count > 1 else [lo]
    else:
        try:
            values = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
        except ValueError:
            raise ValueError(f"grid {spec!r} has a non-numeric entry") from None
    if not values:
        raise ValueError(f"empty grid {spec!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid {spec!r} has a non-finite entry")
    if integer:  # rounded, duplicates dropped, first-seen order kept
        return list(dict.fromkeys(int(round(v)) for v in values))
    return values


def _bounds(flag: str, spec: str, *, integer: bool = False) -> tuple:
    """``LO:HI`` of a selection flag: finite LO < HI, or integers LO <= HI for ``--years``."""
    try:
        lo, hi = (int(v) if integer else float(v) for v in spec.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (lo <= hi if integer else -math.inf < lo < hi < math.inf):
        rule = "integers LO <= HI" if integer else "finite LO < HI"
        raise ValueError(f"{flag} must be LO:HI with {rule}, got {spec!r}")
    return lo, hi


def _config(args, **resolved) -> dict:
    """The run's configuration: every parsed option that has a value, then ``resolved`` in place.

    ``fn``, ``output`` and ``workers`` change no output byte and are left out.
    """
    config = {k: v for k, v in vars(args).items() if v is not None and k not in ("fn", "output", "workers")}
    return {**config, **resolved}


def _metadata_lines(config: dict) -> list[str]:
    lines = [f"# gausswinner {config['command']}"]
    for key in sorted(k for k in config if k != "command"):
        lines.append(f"# {key}={_fmt(config[key])}")
    return lines


def _table(rows) -> tuple[dict, list[str]]:
    """Study rows as records keyed by CSV_COLUMNS: JSON fields and CSV lines (header first)."""
    records = [dataclasses.asdict(r) for r in rows]
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_fmt(rec[c]) for c in CSV_COLUMNS) for rec in records)
    return {"columns": CSV_COLUMNS, "rows": records}, lines


def _emit(args, config: dict, fields: dict, lines: list[str] | None = None) -> None:
    """Write one command's output to --output or stdout.

    JSON is ``{"config": config, **fields}`` with every non-finite float
    of the config and the fields written as null, as JSON has no other
    spelling for it.  Text is the ``#`` metadata block followed by
    ``lines`` when given, else one ``key=value`` line per field.
    """
    if args.format == "json":

        def finite(record):
            return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in record.items()}

        text = json.dumps({"config": finite(config), **finite(fields)}, indent=2, sort_keys=True) + "\n"
    else:
        if lines is None:
            lines = [f"{key}={_fmt(val)}" for key, val in fields.items()]
        text = "\n".join(_metadata_lines(config) + lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _number(option: str, token: str) -> float:
    """``token`` as a float (inf and nan included), or a ValueError naming the option."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad {option} {token!r}, expected a number") from None


def cmd_limit(args) -> int:
    if args.mode == "multi":
        if args.c is not None or args.sigma is not None:
            raise ValueError("--multi takes its groups from --group C:SIGMA, not --c or --sigma")
        if not args.groups:
            raise ValueError("--multi requires at least two --group C:SIGMA entries")
        groups = []
        for token in args.groups:
            c_str, _, s_str = token.partition(":")
            try:
                groups.append((float(c_str), float(s_str)))
            except ValueError:
                raise ValueError(f"bad --group {token!r}, expected C:SIGMA") from None
        spec = limits.LimitSpecK(groups=tuple(groups))
        results = limits.multi_group_limits(spec)
        kappas = spec.kappas()
        config = _config(args, groups=";".join(f"{c}:{s}" for c, s in groups))
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

    if args.groups is not None:
        raise ValueError("--two-group takes --c and --sigma, not --group")
    if args.c is None or args.sigma is None:
        raise ValueError("--two-group requires --c and --sigma")
    c, sigma = _number("--c", args.c), _number("--sigma", args.sigma)
    result = limits.two_group_limit(c, sigma)
    kappa = scaling.kappa(c, sigma)
    fields = {
        "kappa": kappa,
        "p": result.value,
        "abs_err": result.abs_err,
        "regime": "degenerate" if math.isinf(kappa) else "critical",
    }
    _emit(args, _config(args, c=c, sigma=sigma), fields)
    return EXIT_OK


def cmd_scale(args) -> int:
    n2, sigma, c = args.n2, args.sigma, args.c
    size = scaling.critical_n1(n2, sigma, c)
    log_f = scaling.log_critical_scale(n2, sigma)
    f_value = scaling.critical_scale(n2, sigma)
    n1 = float(size.floor_value) if size.floor_value is not None else size.real_value
    b = scaling.beta(n1, n2, sigma) if math.isfinite(n1) else c  # the real size is C f(n2) by construction
    gap = scaling.centering_gap(n1, n2, sigma) if 2.0 <= n1 < math.inf else None
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
    _emit(args, _config(args), fields)
    return EXIT_OK


def cmd_simulate(args) -> int:
    sigmas = _parse_grid(args.sigma)
    c_values = _parse_grid(args.c)
    n2_grid = _parse_grid(args.n2)
    base = montecarlo.RngStream(seed=args.seed)
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
    _emit(args, _config(args), *_table(rows))
    return EXIT_OK


def cmd_empirical(args) -> int:
    c_values = _parse_grid(args.c)
    n2_grid = _parse_grid(args.n2, integer=True)
    lat = _bounds("--lat", args.lat)
    lon = _bounds("--lon", args.lon)
    years = _bounds("--years", args.years, integer=True)
    if not os.path.exists(args.input):
        raise OSError(f"input file not found: {args.input}")
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
        montecarlo.RngStream(seed=args.seed),
        workers=args.workers,
    )
    stations_out = [
        {
            "station_id": station.station_id,
            "phi": fit.phi,
            "innovation_sd": math.sqrt(fit.variance),  # bitwise np.std(ddof=1)
            "n_used": fit.innovations.size,
        }
        for station, fit in zip(stations, result.fits)
    ]
    fields, lines = _table(rows)
    fields["stations"] = stations_out
    fields["split"] = {
        "low_count": len(result.pool_low.indices),
        "high_count": len(result.pool_high.indices),
        "centers": list(result.centers),
        "sigma_ratio": result.sigma_ratio,
        "pool_sd": [result.pool_low.sd, result.pool_high.sd],
    }
    _emit(args, _config(args, sigma_ratio=result.sigma_ratio), fields, lines)
    return EXIT_OK


def _selftest_checks():
    def quantile_round_trip():
        grid = np.geomspace(1e-12, 0.5, 40)
        ps = np.concatenate([grid, 1.0 - grid])
        err = np.max(np.abs(ndtr(std_normal_quantile(ps)) - ps))
        return err <= 1e-12, f"max |Phi(Phi^-1(p)) - p| = {err:.3g}"

    def deep_tail_round_trip():
        log_q = -np.geomspace(1e5, -LOG_HALF, 40)
        x = upper_tail_quantile(log_q)
        back = log_ndtr(-x)
        err = np.max(np.abs(back - log_q) / np.abs(log_q))
        return err <= 1e-8, f"max rel log-q error = {err:.3g}"

    def cdf_symmetry():
        xs = np.linspace(-8, 8, 161)
        err = np.max(np.abs(ndtr(xs) + ndtr(-xs) - 1.0))
        return err <= 1e-15, f"max |Phi(x)+Phi(-x)-1| = {err:.3g}"

    def exchangeable_finite_n():
        worst = 0.0
        for n1, n2 in [(1, 1), (2, 1), (7, 13), (20, 5)]:
            p = limits.finite_n_winner(scaling.GroupSpec(n1, 1.0), scaling.GroupSpec(n2, 1.0))
            worst = max(worst, abs(p.value - n1 / (n1 + n2)))
        return worst <= 1e-10, f"max |p - n1/(n1+n2)| = {worst:.3g}"

    def symmetric_boundary_limit():
        p = limits.two_group_limit(1.0, 1.0 + 1e-9).value
        return abs(p - 0.5) <= 1e-6, f"p(C=1, sigma->1) = {p:.9f}"

    def closed_form_limit():
        p = limits.two_group_limit_from_kappa(0.0, math.sqrt(2.0)).value
        exact = 1.0 - math.sqrt(math.pi) / 2.0 * math.exp(0.25) * erfc(0.5)
        return abs(p - exact) <= 1e-9, f"|p - closed form| = {abs(p - exact):.3g}"

    def multi_sum_to_one():
        spec = limits.LimitSpecK(groups=((1.0, 1.0), (1.0, 1.5), (2.0, 2.0)))
        total = sum(r.value for r in limits.multi_group_limits(spec))
        return abs(total - 1.0) <= 1e-8, f"|sum p - 1| = {abs(total - 1.0):.3g}"

    def k2_reduction():
        spec = limits.LimitSpecK(groups=((1.0, 1.0), (0.7, 1.4)))
        parts = limits.multi_group_limits(spec)
        tg = limits.two_group_limit(0.7, 1.4)
        err = abs(parts[0].value - tg.value)
        return err <= 1e-9, f"|p1(multi) - p(two-group)| = {err:.3g}"

    def kappa_continuity():
        worst = max(
            abs(scaling.kappa(c, 1.0 + 1e-6) - math.log(c)) for c in (0.1, 0.5, 1.0, 2.0, 10.0)
        )
        return worst <= 1e-4, f"max |kappa(C, 1+1e-6) - log C| = {worst:.3g}"

    def sample_max_cdf_identity():
        n, sigma = 1e16, 2.0
        worst = 0.0
        for u in (0.1, math.exp(-1.0), 0.9):
            m = montecarlo.sample_group_max(n, sigma, u)
            worst = max(worst, abs(n * log_ndtr(m / sigma) - math.log(u)) / abs(math.log(u)))
        return worst <= 1e-8, f"max rel CDF identity error = {worst:.3g}"

    def gumbel_round_trip():
        us = np.linspace(0.02, 0.98, 25)
        err = np.max(np.abs(np.exp(-np.exp(-montecarlo.sample_gumbel(us))) - us))
        return err <= 1e-12, f"max |F(F^-1(u)) - u| = {err:.3g}"

    return [
        quantile_round_trip,
        deep_tail_round_trip,
        cdf_symmetry,
        exchangeable_finite_n,
        symmetric_boundary_limit,
        closed_form_limit,
        multi_sum_to_one,
        k2_reduction,
        kappa_continuity,
        sample_max_cdf_identity,
        gumbel_round_trip,
    ]


def cmd_selftest(args) -> int:
    results = []
    failed = False
    for fn in _selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": fn.__name__, "passed": bool(ok), "detail": detail})
        failed = failed or not ok
    lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
    _emit(args, _config(args), {"checks": results, "passed": not failed}, lines)
    return EXIT_MATH if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausswinner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_limit = sub.add_parser("limit", help="limiting winning probabilities")
    mode = p_limit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--two-group", action="store_const", const="two-group", dest="mode")
    mode.add_argument("--multi", action="store_const", const="multi", dest="mode")
    p_limit.add_argument("--c", type=str, default=None, help="constant C (0 and inf allowed)")
    p_limit.add_argument("--sigma", type=str, default=None, help="sigma > 1")
    p_limit.add_argument("--group", action="append", dest="groups", metavar="GROUP", help="C:SIGMA, repeatable")
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
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    p_emp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_emp.add_argument("--min-months", type=_count(0), default=pipeline.DEFAULT_MIN_MONTHS)
    box_help = "box LO:HI; a negative LO needs the = form, --%s"
    p_emp.add_argument("--lat", default="%g:%g" % pipeline.DEFAULT_LAT_RANGE, help=box_help % "lat=-10:10")
    p_emp.add_argument("--lon", default="%g:%g" % pipeline.DEFAULT_LON_RANGE, help=box_help % "lon=-95:-75")
    p_emp.add_argument("--years", default="%g:%g" % pipeline.DEFAULT_YEAR_RANGE)
    p_emp.add_argument("--workers", type=_count(1), default=1)
    p_emp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_emp.add_argument("--output", default=None)
    p_emp.set_defaults(fn=cmd_empirical)

    p_self = sub.add_parser("selftest", help="fast oracle suite")
    p_self.add_argument("--json", action="store_const", const="json", default="text", dest="format")
    p_self.set_defaults(fn=cmd_selftest, output=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, QuadratureError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO if isinstance(exc, OSError) else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
