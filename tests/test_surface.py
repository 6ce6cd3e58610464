"""The exported names are the ones users reach.

The top-level names are exactly those the README quick start and the
demos import, every name a submodule exports is used by the package,
the README, the demos or the benchmark, not by the tests alone, and every
function the benchmark traces still exists.
"""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import re

import gausswinner

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported_from_package(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "gausswinner":
            names.update(alias.name for alias in node.names)
    return names


def test_top_level_names_are_what_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S)
    assert quick_start, "README has no python quick-start block"
    names = _imported_from_package(quick_start.group(1))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        names |= _imported_from_package(demo.read_text(encoding="utf-8"))
    assert names == set(gausswinner.__all__)
    assert len(gausswinner.__all__) == len(set(gausswinner.__all__))
    for name in gausswinner.__all__:
        assert getattr(gausswinner, name) is not None


def _loaded_names(source):
    """Names and attributes the code reads; definitions and ``__all__`` strings are not reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_submodule_exports_have_a_user_outside_the_tests():
    used = set()
    for path in (ROOT / "src" / "gausswinner").glob("*.py"):
        used |= _loaded_names(path.read_text(encoding="utf-8"))
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    for folder in ("demos", "perfbench"):
        texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / folder).glob("*.py"))]
    unused = []
    for info in pkgutil.iter_modules(gausswinner.__path__):
        module = importlib.import_module(f"gausswinner.{info.name}")
        for name in module.__all__:
            if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts):
                unused.append(f"{info.name}.{name}")
    assert unused == []


def test_benchmark_trace_targets_resolve():
    # the tracer skips a target it cannot find, so a renamed function would
    # silently leave its layer metric without spans
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PACKAGE == "gausswinner"
    missing = []
    for home in tracing.TARGETS:
        module_name, attr = home.split(".")
        module = importlib.import_module(f"gausswinner.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(home)
    assert missing == []
