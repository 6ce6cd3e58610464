"""The benchmark's three workloads: inputs from a seed, one timed call, checks.

Each workload object is used once per fresh interpreter (see worker.py):
``setup(seed)`` builds the inputs in the current directory, ``run()`` is
the timed call into the package, ``gauge()`` times a frozen numpy copy
of the same kind of work (the unit of ``wall_rel``), ``output()``
returns the bytes whose sha256 is the run's output digest, and
``check(output)`` returns one ``(label, ok, detail)`` triple per result
row.  Checks never drop or reshape a grid point: a row that fails is
reported, and worker.py reports rows missing against ``rows_expected``.

Every call into the package goes through a module attribute
(``limits.two_group_limit``, ``cli.main``) so that the traced run sees it.
Each workload imports in ``setup`` only the package modules its own call
path needs, so the harness adds nothing to the set-up a user pays for.
See README.md for why each workload exists and what it isolates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

from oracle import ideal_bootstrap_winner

Z_LIMIT = 5.0  # |p_hat - reference| <= 5 std_err


def _in_unit(*values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def _csv_rows(text: str) -> tuple[dict, list[dict]]:
    """Metadata (``# key=value`` lines) and data rows of a CLI CSV."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            lines.append(line)
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return meta, rows


class _CliWorkload:
    """A workload that is one ``gausswinner.cli.main(argv)`` call writing OUTPUT."""

    OUTPUT: str
    argv: list[str]

    def setup(self, seed: int) -> None:
        from gausswinner import cli

        self.cli = cli
        self.argv = self.arguments(seed)

    def run(self) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"gausswinner {self.argv[0]} exited with code {code}")
        self.stdout = buf.getvalue()

    def output(self) -> bytes:
        with open(self.OUTPUT, "rb") as fh:
            return fh.read() + self.stdout.encode()

    def rows(self) -> tuple[dict, list[dict]]:
        with open(self.OUTPUT, encoding="utf-8") as fh:
            return _csv_rows(fh.read())


class SimGrid(_CliWorkload):
    """`gausswinner simulate --exact --workers 2` on the default grid."""

    SIGMA, C, N2 = "1.2,1.5,2.0", "0.1,1.0,5.0", "100:1000000:5"
    TRIALS = 100_000
    WORKERS = 2  # both cores of the 2-core machine, as a user there runs it
    rows_expected = 3 * 3 * 5
    OUTPUT = "simgrid.csv"

    def arguments(self, seed: int) -> list[str]:
        return [
            "simulate", "--sigma", self.SIGMA, "--c", self.C, "--n2", self.N2,
            "--trials", str(self.TRIALS), "--seed", str(seed), "--exact",
            "--workers", str(self.WORKERS), "--output", self.OUTPUT,
        ]

    @staticmethod
    def gauge() -> float:
        """Seconds for a frozen numpy copy of one Monte Carlo row's hot loop."""
        from scipy.special import log_ndtr, ndtri_exp

        u = np.random.Generator(np.random.Philox(key=7)).random((1 << 16, 2))
        start = time.perf_counter()
        for n in (1e2, 1e4, 1e6, 1e8, 1e10):
            log_q = np.log(-np.expm1(np.log(u) / n))
            x = -ndtri_exp(log_q)
            for _ in range(2):
                log_tail = log_ndtr(-x)
                x = x + (log_tail - log_q) * np.exp(log_tail + 0.5 * x * x + 0.9189385332046727)  # log sqrt(2 pi)
            np.count_nonzero(x[:, 0] > 1.5 * x[:, 1])
        return time.perf_counter() - start

    def check(self, output: bytes) -> list[tuple[str, bool, str]]:
        out = []
        for r in self.rows()[1]:
            p_hat, se = float(r["p_hat"]), float(r["std_err"])
            p_limit, p_exact = float(r["p_limit"]), float(r["p_exact"] or "nan")
            z = abs(p_hat - p_exact) / se if se > 0 else math.inf
            ok = _in_unit(p_hat, p_limit, p_exact) and abs(p_hat - p_exact) <= Z_LIMIT * se
            label = f"sigma={r['sigma']} c={r['c']} n2={r['n2']}"
            out.append((label, ok, f"p_hat={p_hat} p_exact={p_exact} z={z:.2f}"))
        return out


class Bootstrap(_CliWorkload):
    """`gausswinner empirical` on a synthetic 95-station fixture."""

    B = 500
    WORKERS = 1
    C, N2 = "0.1,0.6,3.0", "5:150:8"
    rows_expected = 3 * 8
    SIGMA_TOL = 0.05  # recovered sigma ratio within 5% of the fixture's
    # The fixture keeps one seed (the demo's): n1 grows like n2^(sigma^2), so
    # the ~1% seed-to-seed wobble of the recovered sigma moves the work by up to 18%
    # and would show as run-to-run spread.  The bootstrap draws use --seed.
    FIXTURE_SEED = 11
    INPUT, OUTPUT = "stations.csv", "bootstrap.csv"

    def setup(self, seed: int) -> None:
        from gausswinner import synthetic

        self.truth = synthetic.write_synthetic_stations(
            self.INPUT, n_low=60, n_high=35, missing_rate=0.02, seed=self.FIXTURE_SEED
        )
        super().setup(seed)

    def arguments(self, seed: int) -> list[str]:
        return [
            "empirical", "--input", self.INPUT, "--b", str(self.B), "--c", self.C,
            "--n2", self.N2, "--seed", str(seed), "--workers", str(self.WORKERS), "--output", self.OUTPUT,
        ]

    @staticmethod
    def gauge() -> float:
        """Seconds for a frozen numpy copy of the resampling gather."""
        g = np.random.Generator(np.random.Philox(key=7))
        pool = g.standard_normal(1 << 15)
        u = g.random((24, 20_000))  # small beside the call's peak memory
        start = time.perf_counter()
        for _ in range(24):
            i = np.minimum((u * pool.size).astype(np.int64), pool.size - 1)
            np.count_nonzero(pool[i].max(axis=1) > 3.0)
        return time.perf_counter() - start

    def check(self, output: bytes) -> list[tuple[str, bool, str]]:
        from gausswinner import pipeline

        meta, rows = self.rows()
        ratio = float(meta.get("sigma_ratio", "nan"))
        ratio_ok = abs(ratio / self.truth.sigma_ratio - 1.0) <= self.SIGMA_TOL
        fit = pipeline.run_pipeline(pipeline.load_stations(self.INPUT))
        pool1, pool2 = fit.pool_low.values, fit.pool_high.values
        out = []
        for r in rows:
            n1, n2 = float(r["n1"]), float(r["n2"])
            p_hat, se, p_limit = float(r["p_hat"]), float(r["std_err"]), float(r["p_limit"])
            ideal = ideal_bootstrap_winner(pool1, pool2, n1, n2)
            z = abs(p_hat - ideal) / se if se > 0 else math.inf
            ok = ratio_ok and _in_unit(p_hat, p_limit, ideal) and abs(p_hat - ideal) <= Z_LIMIT * se
            detail = f"p_hat={p_hat} ideal={ideal:.6f} z={z:.2f} sigma_ratio={ratio:.4f}"
            out.append((f"c={r['c']} n2={r['n2']}", ok, detail))
        return out


class QuadTable:
    """Tables and curves from the library API alone; no Monte Carlo."""

    OUTPUT = "quadtable.json"
    WORKERS = 1  # the library calls are single-threaded
    TABLE_SIGMA = tuple(np.geomspace(1.1, 3.0, 12))
    TABLE_C = tuple(np.geomspace(0.05, 20.0, 16))
    CURVE_SIGMA, CURVE_C = (1.2, 1.5, 2.0), (0.1, 1.0, 5.0)
    CURVE_N2 = tuple(np.geomspace(10.0, 1e6, 25))
    MULTI_K, MULTI_PER_K = (3, 4, 5), 20
    SOLVES = 40
    EXCHANGEABLE = 8
    QUERY_SEED = 0
    rows_expected = (
        len(TABLE_SIGMA) * len(TABLE_C) + 1  # the table and its anchor
        + 1  # the closed form
        + len(CURVE_SIGMA) * len(CURVE_C) * len(CURVE_N2)
        + EXCHANGEABLE + len(MULTI_K) * MULTI_PER_K + SOLVES
    )
    CLOSED_FORM = 1.0 - math.sqrt(math.pi) / 2.0 * math.exp(0.25) * math.erfc(0.5)

    def setup(self, seed: int) -> None:
        from gausswinner import limits, scaling

        self.limits, self.scaling = limits, scaling
        # Quadrature cost depends on the parameters, so the query set is fixed
        # (drawn once from QUERY_SEED) and the workload seed only shuffles the
        # order of each family: every seed does the same work with a different
        # output.  Jitter widths keep every table row strictly increasing in C.
        rng = np.random.default_rng(self.QUERY_SEED)
        order = np.random.default_rng(seed).permutation

        def jitter(values, width):
            return [float(v * math.exp(rng.uniform(-width, width))) for v in values]

        def shuffled(items):
            return [items[i] for i in order(len(items))]

        table = [(s, jitter(self.TABLE_C, 0.05)) for s in jitter(self.TABLE_SIGMA, 0.02)]
        table.append((1.5, [1.0]))  # the anchor two_group_limit(1, 1.5)
        curve = []
        for s in self.CURVE_SIGMA:
            for c in self.CURVE_C:
                for n2 in jitter(self.CURVE_N2, 0.1):
                    size = scaling.critical_n1(round(n2), s, c)
                    n1 = float(size.floor_value) if size.floor_value is not None else size.real_value
                    curve.append((float(round(n2)), n1, s, c))
        exchangeable = [tuple(int(v) for v in rng.integers(1, 10_000, 2)) for _ in range(self.EXCHANGEABLE)]
        multi = []
        for k in self.MULTI_K:
            for _ in range(self.MULTI_PER_K):
                sigmas = np.sort(rng.uniform(1.1, 2.5, k - 1))
                cs = np.exp(rng.uniform(math.log(0.2), math.log(5.0), k - 1))
                multi.append(((1.0, 1.0),) + tuple((float(c), float(s)) for c, s in zip(cs, sigmas)))
        solves = [(float(rng.uniform(0.1, 0.9)), float(rng.choice(self.CURVE_SIGMA))) for _ in range(self.SOLVES)]
        self.table, self.curve, self.exchangeable = shuffled(table), shuffled(curve), shuffled(exchangeable)
        self.multi, self.solves = shuffled(multi), shuffled(solves)

    def run(self) -> None:
        limits, GroupSpec = self.limits, self.scaling.GroupSpec
        result = {"table": [], "closed_form": None, "curve": [], "exchangeable": [], "multi": [], "solve": []}
        for s, cs in self.table:
            result["table"].append([s, [[c, limits.two_group_limit(c, s).value] for c in cs]])
        result["closed_form"] = limits.two_group_limit_from_kappa(0.0, math.sqrt(2.0)).value
        for n2, n1, s, c in self.curve:
            q = limits.finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, s))
            result["curve"].append([n2, n1, s, c, q.value, q.abs_err])
        for n1, n2 in self.exchangeable:
            q = limits.finite_n_winner(GroupSpec(n1, 1.0), GroupSpec(n2, 1.0))
            result["exchangeable"].append([n1, n2, q.value])
        for groups in self.multi:
            parts = limits.multi_group_limits(limits.LimitSpecK(groups=groups))
            result["multi"].append([[list(g) for g in groups], [q.value for q in parts]])
        for p, s in self.solves:
            result["solve"].append([p, s, limits.solve_c_for_target(p, s)])
        with open(self.OUTPUT, "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def gauge() -> float:
        """Seconds for a frozen numpy trapezoid loop like one quadrature's refinement."""
        from scipy.special import log_ndtr

        start = time.perf_counter()
        for _ in range(400):
            for n in (129, 257, 513, 1025, 2049):
                xs = np.linspace(-9.0, 12.0, n)
                ys = 40.0 * log_ndtr(xs / 1.5) - 0.5 * xs * xs
                m = float(np.max(ys))
                scaled = np.exp(ys - m)
                float((np.sum(scaled) - 0.5 * (scaled[0] + scaled[-1])) * (xs[1] - xs[0]) * np.exp(m))
        return time.perf_counter() - start

    def output(self) -> bytes:
        with open(self.OUTPUT, "rb") as fh:
            return fh.read()

    def check(self, output: bytes) -> list[tuple[str, bool, str]]:
        res = json.loads(output)
        out = []
        for s, points in res["table"]:
            prev = -math.inf
            for c, p in points:
                ok = _in_unit(p) and p > prev
                out.append((f"limit sigma={s:.4f} c={c:.4f}", ok, f"p={p} previous={prev}"))
                prev = p
        err = abs(res["closed_form"] - self.CLOSED_FORM)
        out.append(("closed form kappa=0 sigma=sqrt2", err <= 1e-9, f"err={err:.3g}"))
        for n2, n1, s, c, p, abs_err in res["curve"]:
            out.append((f"finite-n sigma={s} c={c} n2={n2:g}", _in_unit(p), f"p={p} abs_err={abs_err:.3g}"))
        for n1, n2, p in res["exchangeable"]:
            err = abs(p - n1 / (n1 + n2))
            out.append((f"exchangeable n1={n1} n2={n2}", err <= 1e-10, f"err={err:.3g}"))
        for groups, parts in res["multi"]:
            err = abs(sum(parts) - 1.0)
            ok = err <= 1e-8 and _in_unit(*parts)
            out.append((f"multi K={len(groups)} {groups}", ok, f"|sum-1|={err:.3g}"))
        for p, s, c in res["solve"]:
            back = self.limits.two_group_limit(c, s).value if math.isfinite(c) and c > 0 else math.nan
            err = abs(back - p)
            out.append((f"solve p={p:.4f} sigma={s}", err <= 1e-8, f"c={c} |p(c)-p|={err:.3g}"))
        return out


WORKLOADS = {"simgrid": SimGrid, "bootstrap": Bootstrap, "quadtable": QuadTable}
