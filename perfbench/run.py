"""gausswinner benchmark.

    python3 perfbench/run.py --workload simgrid|bootstrap|quadtable \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(worker.py) that imports the package from ``src/``, builds the
workload's inputs from the seed, makes one timed call and checks the
output, the way a user pays for a CLI call.  Samples repeat until
``--seconds`` have passed and at least MIN_SAMPLES were taken; medians
are reported.  Other tenants of a shared host slow all work for
stretches of seconds to minutes (README.md), so both times are taken
against a gauge of the same kind of work.  The call's wall time is
reported as ``wall_rel``, its ratio to the workload's gauge kernel (a
frozen numpy copy of the same kind of work, timed right before and
after the call in the same process).  ``setup_s`` is the median set-up
time divided by the median time of the set-up gauge (a fresh
interpreter importing a frozen set of numpy and scipy modules, timed
before the first sample and after each one), times SETUP_GAUGE_REF_S,
so it reads as seconds on the reference host.  The absolute times are
printed and recorded next to both.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, wall_rel, peak_rss_mb).  With ``--trace 1`` traced and untraced
samples alternate and it carries the per-layer metrics (layers.py,
``python -X importtime`` and the tracing overhead).  Either way it also
carries ``attempted`` and ``failed`` result rows; ``correct`` is true
when no row failed, every sample finished, and every sample (traced or
not) produced the same output digest.  Scratch files, span logs and a
run record (machine, digests, samples) go to ``.perfbench/`` in the
checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("simgrid", "bootstrap", "quadtable")
MIN_SAMPLES = 5  # per series; fewer gives unsteady medians on a shared 2-core host
MIN_TRACED = 3  # per series in a traced run
IMPORTTIME_RUNS = 3
DEADLINE_S = 110  # start no sample after this; the whole run must end within 180 s
SAMPLE_TIMEOUT_S = 30
GAUGE_TIMEOUT_S = 10
SETUP_GAUGE = "import numpy, scipy.special, scipy.optimize"
SETUP_GAUGE_REF_S = 0.6  # about the set-up gauge's time on the quiet reference host (README.md)

END_TO_END = {"wall_rel": "ratio", "peak_rss_mb": "MB"}  # and setup_s, from two medians


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GAUSSWINNER_SEED", None)
    return env


def _setup_gauge(run_dir: Path) -> float:
    """Seconds for a fresh interpreter to import SETUP_GAUGE, the unit of setup_s."""
    code = SETUP_GAUGE + "\nimport time\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=run_dir, env=_env(), capture_output=True, text=True,
        timeout=GAUGE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1]) - spawned


def _sample(run_dir: Path, index: int, workload: str, seed: int, trace: int) -> dict:
    """Run one worker to completion; returns its result plus its raw set-up time."""
    cwd = run_dir / f"s{index:02d}"
    cwd.mkdir()
    result_path = cwd / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--result", str(result_path), "--src", str(SRC),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        stderr = f"timed out after {SAMPLE_TIMEOUT_S} s\n{exc.stderr or ''}"
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):  # the worker died: it fails every row it should have given
        from workloads import WORKLOADS

        result = {"ok": False, "rows": [["sample", False, "no result"]] * WORKLOADS[workload].rows_expected}
    if not result.get("ok"):
        result["error"] = result.get("error", "") + stderr
        sys.stderr.write(f"sample {index} failed:\n{result['error']}\n")
    if "ready" in result:
        result["setup_raw_s"] = result["ready"] - spawned
    if "gauge_s" in result:
        result["wall_rel"] = result["wall_s"] / result["gauge_s"]
    result["trace"] = trace
    result["dir"] = cwd
    return result


def _import_times(run_dir: Path) -> dict[str, float]:
    """Cumulative import times (ms) of the package and of scipy.signal, medians of fresh runs."""
    found = {"import.gausswinner_ms": [], "import.scipy_signal_ms": []}
    modules = {"gausswinner": "import.gausswinner_ms", "scipy.signal": "import.scipy_signal_ms"}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gausswinner"],
            cwd=run_dir, env=_env(), capture_output=True, text=True, timeout=15,
        )
        seen = dict.fromkeys(modules.values(), 0.0)  # a module not imported costs nothing
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in modules:
                seen[modules[parts[2].strip()]] = int(parts[1]) / 1000.0
        for name, ms in seen.items():
            found[name].append(ms)
    return {name: statistics.median(values) for name, values in found.items()}


def _collect(workload: str, seed: int, seconds: float, trace: int, run_dir: Path) -> tuple[list[dict], list[float]]:
    """Samples until the run is long enough, and the set-up gauge timings around them."""
    start = time.monotonic()
    samples: list[dict] = []

    floors = {0: MIN_TRACED, 1: MIN_TRACED} if trace else {0: MIN_SAMPLES}

    def enough():
        elapsed = time.monotonic() - start
        if elapsed > DEADLINE_S:
            return True
        return elapsed >= seconds and all(sum(s["trace"] == t for s in samples) >= n for t, n in floors.items())

    gauges = [_setup_gauge(run_dir)]
    while not enough():
        mode = len(samples) % 2 if trace else 0
        samples.append(_sample(run_dir, len(samples), workload, seed, mode))
        gauges.append(_setup_gauge(run_dir))
    return samples, gauges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gausswinner" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'gausswinner'}; run from a checkout\n")
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    samples, setup_gauges = _collect(args.workload, args.seed, args.seconds, args.trace, run_dir)

    rows = [row for s in samples for row in s.get("rows", [])]
    failed_rows = [row for row in rows if not row[1]]
    digests = sorted({s.get("digest") for s in samples})
    all_ok = all(s.get("ok") for s in samples)
    correct = all_ok and not failed_rows and len(digests) == 1

    def values(key, trace=0):
        return [s[key] for s in samples if s["trace"] == trace and s.get("ok") and key in s]

    def median(key, trace=0):
        found = values(key, trace)
        return statistics.median(found) if found else None

    from_probe: list[str] = []
    if args.trace:
        import layers

        per_sample = []
        for s in samples:
            if s["trace"] == 1 and s.get("ok"):
                with open(s["dir"] / "spans.jsonl", encoding="utf-8") as fh:
                    spans = [json.loads(line) for line in fh]
                layer_values, from_probe = layers.layer_metrics(spans)
                per_sample.append(layer_values)
        metrics = {
            name: {"value": statistics.median(v[name] for v in per_sample), "unit": unit}
            for name, (unit, *_rest) in layers.METRICS.items()
            if per_sample and all(name in v for v in per_sample)
        }
        for name, value in _import_times(run_dir).items():
            metrics[name] = {"value": value, "unit": "ms"}
        untraced, traced = median("wall_rel", 0), median("wall_rel", 1)
        if untraced and traced:
            metrics["trace.wall_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    else:
        metrics = {
            name: {"value": median(name), "unit": unit}
            for name, unit in END_TO_END.items()
            if values(name)
        }
        if values("setup_raw_s"):
            setup_s = median("setup_raw_s") / statistics.median(setup_gauges) * SETUP_GAUGE_REF_S
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": next((s["workers"] for s in samples if "workers" in s), None),
        "machine": _machine(),
        "digests": digests,
        "samples": [
            {k: v for k, v in s.items() if k in (
                "trace", "setup_raw_s", "wall_s", "gauge_s", "wall_rel",
                "peak_rss_mb", "digest", "ok",
            )}
            for s in samples
        ],
        "setup_gauges_s": setup_gauges,
        "failed_rows": failed_rows,
        "metrics_from_probe": from_probe,
        "metrics": metrics,
    }
    with open(run_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    for s in samples:  # keep results and span logs, drop inputs and outputs
        for path in s["dir"].iterdir():
            if path.name not in ("result.json", "spans.jsonl"):
                path.unlink()

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    print(f"workload={args.workload} seed={args.seed} workers={record['workers']} trace={args.trace} samples={len(samples)}")
    for digest in digests:
        print(f"output sha256={digest}")
    for row in failed_rows[:20]:
        print(f"FAILED {row[0]}: {row[2]}")
    if from_probe:
        print("from probes: " + " ".join(from_probe))
    setups = values("setup_raw_s", args.trace)
    if setups:
        print(
            f"setup over {len(setups)} samples: raw median {statistics.median(setups)!r} s, "
            f"setup gauge median {statistics.median(setup_gauges)!r} s"
        )
    walls = values("wall_s", args.trace)
    if walls:
        print(
            f"wall_s over {len(walls)} samples: min {min(walls)!r} median {statistics.median(walls)!r} "
            f"max {max(walls)!r}; gauge_s median {median('gauge_s', args.trace)!r}"
        )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"record: {run_dir / 'record.json'}")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed_rows), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
