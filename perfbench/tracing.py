"""Spans around the package's public functions, recorded from outside it.

The package has no tracing of its own, so the benchmark replaces the
module attributes that callers resolve at call time (for example
``montecarlo.mc_two_group``, which ``convergence_study`` looks up in its
module globals on every call) with a wrapper that records one span per
call.  Every module of the package that holds the same function object,
including names imported with ``from .limits import ...``, gets the same
wrapper, and :meth:`Recorder.uninstall` puts the originals back.

A span is ``{id, parent, name, thread, phase, start, end, counts}`` with
nanosecond ``perf_counter`` times.  Spans stay in memory until
:meth:`Recorder.write`.  Counts are computed after ``end`` is taken, so
counting never inflates a span.  Worker threads started inside the
package (the Monte Carlo chunk pool) have no open span of their own;
their spans take the innermost open span of the installing thread as
parent, which is the call that started them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np


def _size(result, bound):
    return {"elems": int(np.size(result))}


def _quad(result, bound):
    return {"evals": int(result.evaluations), "abs_err": float(result.abs_err)}


def _trials(result, bound):
    return {"trials": int(result.trials)}


def _draws(result, bound):
    args = bound()
    return {"iters": int(result.trials), "draws": int(result.trials) * (int(args["n1"]) + int(args["n2"]))}


def _rows(result, bound):
    with open(bound()["path"], "rb") as fh:
        return {"rows": sum(1 for _ in fh) - 1}  # minus the header


PACKAGE = "gausswinner"

# function home (module.attribute) -> counter(result, bound_arguments) or None
TARGETS = {
    "cli.main": None,
    "montecarlo.convergence_study": None,
    "montecarlo.mc_two_group": _trials,
    "montecarlo._uniforms": None,
    "montecarlo.sample_group_max": _size,
    "normal.upper_tail_quantile": _size,
    "normal.std_normal_quantile": _size,
    "pipeline.load_stations": _rows,
    "pipeline.run_pipeline": None,
    "pipeline.empirical_study": None,
    "pipeline.bootstrap_winner": _draws,
    "quadrature.concave_log_quad": _quad,
    "limits.two_group_limit": None,
    "limits.finite_n_winner": None,
    "limits.multi_group_limits": None,
    "limits.solve_c_for_target": None,
}


class Recorder:
    """In-memory span log plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "workload"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # the owner's span stays open until its pool threads have finished
            opener = stack or self._owner_stack
            parent = opener[-1] if opener else None
            span_id = next(self._ids)
            stack.append(span_id)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "thread": threading.get_ident(),
                    "phase": self.phase,
                    "start": start,
                    "end": end,
                    "counts": {},
                }
                if error is not None:
                    span["error"] = error
                self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(result, lambda: sig.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every package module attribute that holds a target function."""
        self._owner_stack = self._stack()
        wrappers = {}
        for home, counter in TARGETS.items():
            module_name, attr = home.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(home, fn, counter))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
