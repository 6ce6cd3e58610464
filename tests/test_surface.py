"""The top-level names are exactly those the README quick start and the demos import."""

import ast
import pathlib
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
