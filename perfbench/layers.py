"""Per-layer metrics computed from the spans of one traced worker.

Each metric names the span it is built on and the probe that supplies
it when the workload never calls that span (see worker.py): on
``simgrid`` the ``limits.solve_c_for_target`` metrics come from the
``limits`` probe, on ``bootstrap`` the ``normal`` and ``montecarlo``
ones from theirs, and so on.  The metrics of one layer always come from
one phase, so their ratios are consistent.

Self time follows the usual rule: a span's duration minus the part of
its interval that its children cover (children in other threads may
overlap, so the covered part is the union of their intervals).
"""

from __future__ import annotations

from collections import defaultdict


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class View:
    """Spans of one phase, indexed by name and by parent."""

    def __init__(self, spans):
        self.by_name = {}
        self.children = defaultdict(list)
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
            self.children[s["parent"]].append(s)

    @staticmethod
    def dur(span) -> int:
        return span["end"] - span["start"]

    def total_ns(self, name) -> int:
        return sum(self.dur(s) for s in self.by_name[name])

    def count(self, name, key) -> int:
        return sum(s["counts"].get(key, 0) for s in self.by_name[name])

    def self_ns(self, name, child=None) -> int:
        """Summed self time of ``name`` spans, minus all children or only ``child`` ones."""
        total = 0
        for s in self.by_name[name]:
            kids = [c for c in self.children[s["id"]] if child is None or c["name"] == child]
            total += self.dur(s) - _union_ns((c["start"], c["end"]) for c in kids)
        return total

    def descendants(self, span, name) -> int:
        found, todo = 0, [span]
        while todo:
            for c in self.children[todo.pop()["id"]]:
                found += c["name"] == name
                todo.append(c)
        return found

    def per_call(self, name, scale) -> float:
        return self.total_ns(name) / len(self.by_name[name]) / scale


UTQ, SNQ = "normal.upper_tail_quantile", "normal.std_normal_quantile"
SGM, MC2, UNI = "montecarlo.sample_group_max", "montecarlo.mc_two_group", "montecarlo._uniforms"
LOAD, PIPE, BOOT = "pipeline.load_stations", "pipeline.run_pipeline", "pipeline.bootstrap_winner"
QUAD, SOLVE, MAIN = "quadrature.concave_log_quad", "limits.solve_c_for_target", "cli.main"


def _concurrency(v: View) -> float:
    busy = sum(
        v.dur(c) for s in v.by_name[MC2] for c in v.children[s["id"]] if c["name"] in (SGM, UNI)
    )
    return busy / v.total_ns(MC2)


# metric -> (unit, better, span it is built on, probe that supplies it, value from a View)
METRICS = {
    f"{UTQ}.ns_per_elem": ("ns/elem", "lower", UTQ, "normal", lambda v: v.total_ns(UTQ) / v.count(UTQ, "elems")),
    f"{UTQ}.elems": ("count", "lower", UTQ, "normal", lambda v: v.count(UTQ, "elems")),
    f"{SNQ}.ns_per_elem": ("ns/elem", "lower", SNQ, "normal", lambda v: v.total_ns(SNQ) / v.count(SNQ, "elems")),
    f"{SNQ}.elems": ("count", "lower", SNQ, "normal", lambda v: v.count(SNQ, "elems")),
    f"{SGM}.self_ns_per_elem": (
        "ns/elem", "lower", SGM, "montecarlo", lambda v: v.self_ns(SGM) / v.count(SGM, "elems"),
    ),
    f"{MC2}.self_ms": ("ms", "lower", MC2, "montecarlo", lambda v: v.self_ns(MC2, child=SGM) / 1e6),
    f"{MC2}.trials_per_s": (
        "trials/s", "higher", MC2, "montecarlo", lambda v: v.count(MC2, "trials") / (v.total_ns(MC2) / 1e9),
    ),
    "montecarlo.chunks": (
        "count", "higher", MC2, "montecarlo",
        lambda v: sum(v.descendants(s, SGM) for s in v.by_name[MC2]) / 2,
    ),
    "montecarlo.concurrency": ("ratio", "higher", MC2, "montecarlo", _concurrency),
    f"{LOAD}.rows_per_s": (
        "rows/s", "higher", LOAD, "pipeline", lambda v: v.count(LOAD, "rows") / (v.total_ns(LOAD) / 1e9),
    ),
    f"{PIPE}.ms": ("ms", "lower", PIPE, "pipeline", lambda v: v.per_call(PIPE, 1e6)),
    f"{BOOT}.iters_per_s": (
        "iters/s", "higher", BOOT, "pipeline", lambda v: v.count(BOOT, "iters") / (v.total_ns(BOOT) / 1e9),
    ),
    f"{BOOT}.draws": ("count", "lower", BOOT, "pipeline", lambda v: v.count(BOOT, "draws")),
    f"{QUAD}.calls": ("count", "lower", QUAD, "limits", lambda v: len(v.by_name[QUAD])),
    f"{QUAD}.evals_per_call": (
        "evals/call", "lower", QUAD, "limits", lambda v: v.count(QUAD, "evals") / len(v.by_name[QUAD]),
    ),
    f"{QUAD}.ns_per_eval": ("ns/eval", "lower", QUAD, "limits", lambda v: v.total_ns(QUAD) / v.count(QUAD, "evals")),
    f"{QUAD}.abs_err_max": (
        "abs", "lower", QUAD, "limits", lambda v: max(s["counts"]["abs_err"] for s in v.by_name[QUAD]),
    ),
    "limits.two_group_limit.us_per_call": (
        "us", "lower", "limits.two_group_limit", "limits", lambda v: v.per_call("limits.two_group_limit", 1e3),
    ),
    "limits.finite_n_winner.us_per_call": (
        "us", "lower", "limits.finite_n_winner", "limits", lambda v: v.per_call("limits.finite_n_winner", 1e3),
    ),
    "limits.multi_group_limits.us_per_call": (
        "us", "lower", "limits.multi_group_limits", "limits",
        lambda v: v.per_call("limits.multi_group_limits", 1e3),
    ),
    f"{SOLVE}.ms_per_call": ("ms", "lower", SOLVE, "limits", lambda v: v.per_call(SOLVE, 1e6)),
    f"{SOLVE}.quad_calls": (
        "count", "lower", SOLVE, "limits",
        lambda v: sum(v.descendants(s, QUAD) for s in v.by_name[SOLVE]) / len(v.by_name[SOLVE]),
    ),
    f"{MAIN}.self_ms": ("ms", "lower", MAIN, "cli", lambda v: v.self_ns(MAIN) / 1e6),
}


def probes_needed(reached) -> list[str]:
    """Probes to run after a workload whose spans have the names in ``reached``."""
    needed = []
    for _, _, key, probe, _ in METRICS.values():
        if key not in reached and probe not in needed:
            needed.append(probe)
    return needed


def layer_metrics(spans) -> tuple[dict[str, float], list[str]]:
    """Every span-based metric, and the names of those taken from a probe."""
    phases = defaultdict(list)
    for s in spans:
        phases[s["phase"]].append(s)
    views = {phase: View(items) for phase, items in phases.items()}
    workload = views.get("workload", View([]))
    out, from_probe = {}, []
    for name, (_, _, key, probe, fn) in METRICS.items():
        view = workload
        if key not in workload.by_name:
            view = views.get(f"probe:{probe}", View([]))
            from_probe.append(name)
        if key in view.by_name:
            out[name] = float(fn(view))
    return out, from_probe
