"""Demo output bytes pinned by sha256 digest.

Each script in ``demos/`` runs in-process through ``runpy`` with
``tempfile`` pointed at a fresh directory, and the sha256 of everything
it prints is compared with the pinned digest.  The demos fix their own
seeds, so any change to a printed byte changes a digest.  An intended
output change re-pins them by running this file as a script, which
prints the current digest of every demo::

    PYTHONPATH=src python tests/test_demos.py
"""

import contextlib
import hashlib
import io
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "critical_scaling.py": "cf1049198d3cafedd9c7cb5d0d926c70581725ff35dfb8a21f258c93ccb8aa90",
    "empirical_bootstrap.py": "0348f85ff8afefa786c9427be235aac39db15319854f7d4fa4e8cee990df3d32",
    "simulation_study.py": "f98c4ef3b788743513c08baf19f2174d3804218a8c7787f6ff75ecd34d3f39bc",
    "two_group_limit_law.py": "ecb6a9630f2843f580a6489c67f27c95065f8c89f9aaf6c8553e48822cd3dea4",
}


def demo_digest(name) -> str:
    """Run one demo and hash its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert demo_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for demo in sorted(DIGESTS):
        with tempfile.TemporaryDirectory() as tmp:
            tempfile.tempdir = tmp
            digest = demo_digest(demo)
            tempfile.tempdir = None
        print(f'    "{demo}": "{digest}",')
