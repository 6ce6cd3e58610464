"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --result FILE --src DIR

run.py starts this with ``PYTHONPATH`` set to the checkout's ``src`` and
the sample's scratch directory as working directory.  The worker imports
the package and builds the workload's inputs (the parent times that as
set-up, from process start to the ``ready`` timestamp), makes one timed
call between two timings of the workload's gauge kernel, checks the
output and writes a JSON result.  With ``--trace 1`` the call runs under
tracing.Recorder; afterwards, for every layer the workload never
reached, a small fixed probe of that layer runs in a phase of its own,
so each traced run reports every layer metric.  Spans go to
``spans.jsonl`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

PROBE_SEED = 0  # probes are fixed measurements: their counts repeat whatever the workload seed


def _probe_normal():
    from gausswinner import montecarlo

    u = montecarlo.RngStream(seed=PROBE_SEED).generator().random(1 << 18)
    u[u == 0.0] = 0.5**53
    # n = 1 sends half the draws to each quantile kernel
    montecarlo.sample_group_max(1.0, 1.0, u)


def _probe_montecarlo():
    from gausswinner import montecarlo, scaling

    g = scaling.GroupSpec
    montecarlo.mc_two_group(g(1e4, 1.0), g(100.0, 1.5), 1 << 18, montecarlo.RngStream(seed=PROBE_SEED), workers=2)


def _probe_pipeline():
    from gausswinner import montecarlo, pipeline, synthetic

    synthetic.write_synthetic_stations("probe_stations.csv", n_low=8, n_high=5, seed=PROBE_SEED)
    fit = pipeline.run_pipeline(pipeline.load_stations("probe_stations.csv"))
    pipeline.bootstrap_winner(fit.pool_low, fit.pool_high, 2000, 50, 200, montecarlo.RngStream(seed=PROBE_SEED))


def _probe_limits():
    from gausswinner import limits, scaling

    g = scaling.GroupSpec
    limits.two_group_limit(1.0, 1.5)
    limits.finite_n_winner(g(1e6, 1.0), g(100.0, 1.5))
    limits.multi_group_limits(limits.LimitSpecK(groups=((1.0, 1.0), (1.0, 1.5), (2.0, 2.0))))
    limits.solve_c_for_target(0.5, 1.5)


def _probe_cli():
    from gausswinner import cli

    cli.main(["limit", "--two-group", "--c", "1", "--sigma", "1.5", "--output", "probe_limit.txt"])


PROBES = {
    "normal": _probe_normal,
    "montecarlo": _probe_montecarlo,
    "pipeline": _probe_pipeline,
    "limits": _probe_limits,
    "cli": _probe_cli,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="directory the package must be imported from")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS  # numpy and the oracle only, not the package

    kind = WORKLOADS[args.workload]
    result = {"ok": False}
    try:
        import gausswinner

        src = os.path.realpath(args.src)
        if not os.path.realpath(gausswinner.__file__).startswith(src + os.sep):
            raise RuntimeError(f"gausswinner imported from {gausswinner.__file__}, not from {src}")
        workload = kind()
        result["workers"] = workload.WORKERS
        workload.setup(args.seed)
        result["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)

        gauge_before = workload.gauge()
        recorder = None
        if args.trace:
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        start = time.perf_counter()
        try:
            workload.run()
        finally:
            result["wall_s"] = time.perf_counter() - start
        result["gauge_s"] = (gauge_before + workload.gauge()) / 2.0
        if recorder is not None:
            from layers import probes_needed

            for name in probes_needed({s["name"] for s in recorder.spans}):
                recorder.phase = f"probe:{name}"
                PROBES[name]()
            recorder.uninstall()
            recorder.write("spans.jsonl")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        output = workload.output()
        result["digest"] = hashlib.sha256(output).hexdigest()
        rows = [list(r) for r in workload.check(output)]
        if len(rows) != kind.rows_expected:  # a missing row fails; so does an unexpected one
            mismatch = f"{len(rows)} result rows, expected {kind.rows_expected}"
            rows += [["row count", False, mismatch]] * max(1, kind.rows_expected - len(rows))
        result["rows"] = rows
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc()
        # an exception fails every row it prevents
        result["rows"] = [["exception", False, result["error"].strip().splitlines()[-1]]] * kind.rows_expected
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
