"""The exported names are the ones users reach.

The top-level names are exactly those the README quick start and the
demos import.  Every name a submodule exports, and every field and
property of a result type, is used by the package, the README, the demos
or the benchmark, not by the tests alone.  Every function the benchmark
traces still exists.
"""

import ast
import dataclasses
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


def _attributes_read(source):
    """Attribute names the code reads, as in ``obj.name``; an assignment is not a read."""
    return {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _package_sources():
    return [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "gausswinner").glob("*.py")]


def _texts_outside_the_package():
    """README, the demos and the benchmark: the users outside the package and the tests."""
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    for folder in ("demos", "perfbench"):
        texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / folder).glob("*.py"))]
    return texts


def test_submodule_exports_have_a_user_outside_the_tests():
    used = set()
    for source in _package_sources():
        used |= _loaded_names(source)
    texts = _texts_outside_the_package()
    unused = []
    for info in pkgutil.iter_modules(gausswinner.__path__):
        module = importlib.import_module(f"gausswinner.{info.name}")
        for name in module.__all__:
            if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts):
                unused.append(f"{info.name}.{name}")
    assert unused == []


def test_result_fields_have_a_reader_outside_the_tests():
    # a field or property that only the tests read is state the library
    # carries for them.  StationSeries is an input record, not a result;
    # StudyRow is the output record, which cli._table writes out whole
    # through dataclasses.asdict, so no field of it is read by name.
    exempt = {"StationSeries", "StudyRow"}
    read = set()
    for source in _package_sources():
        read |= _attributes_read(source)
    texts = _texts_outside_the_package()
    unread = []
    for info in pkgutil.iter_modules(gausswinner.__path__):
        module = importlib.import_module(f"gausswinner.{info.name}")
        for cls in vars(module).values():
            if not dataclasses.is_dataclass(cls) or cls.__module__ != module.__name__ or cls.__name__ in exempt:
                continue
            names = [f.name for f in dataclasses.fields(cls)]
            names += [name for name, value in vars(cls).items() if isinstance(value, property)]
            for name in names:
                if name not in read and not any(re.search(rf"\.{name}\b", t) for t in texts):
                    unread.append(f"{info.name}.{cls.__name__}.{name}")
    assert unread == []


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


def test_no_module_reads_the_environment():
    # a run's bytes are a function of its arguments and its input file alone
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted((ROOT / "src" / "gausswinner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    assert reads == []


def _outermost_functions(tree, module):
    """Each node inside a function of ``tree``, mapped to its outermost function as ``module[.Class].name``."""
    enclosing = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                enclosing.update(dict.fromkeys(ast.walk(child), f"{prefix}.{child.name}"))
            else:
                visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    visit(tree, module)
    return enclosing


def test_one_writer_per_run():
    # every byte of a run's document goes through cli._emit, and only cli.main writes the error line
    owners = {"stdout": "cli._emit", "stderr": "cli.main"}
    strays = []
    for path in sorted((ROOT / "src" / "gausswinner").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = _outermost_functions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sys":
                if node.attr in owners and enclosing.get(node) != owners[node.attr]:
                    strays.append(f"{path.name}:{node.lineno} sys.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                strays += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in owners]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                strays.append(f"{path.name}:{node.lineno} print")
    assert strays == []


def test_one_stream_constructor():
    # (seed, stream_id) keys every draw and RngStream.generator positions it,
    # so no other code may name a Philox, a Generator or a default_rng
    names = {"Philox", "Generator", "default_rng"}
    strays = []
    for path in sorted((ROOT / "src" / "gausswinner").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = _outermost_functions(tree, path.stem)
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            if name in names and enclosing.get(node) != "montecarlo.RngStream.generator":
                strays.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom):
                strays += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    assert strays == []
