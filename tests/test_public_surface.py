"""The public surface holds together: every re-export resolves, every example runs,
and the documentation names only what exists.

A stale ``__all__`` entry breaks only ``from repro.x import *`` (a plain
import does not read ``__all__``), nothing else in the suite runs the
scripts under ``examples/``, and a doc that still names a removed ``repro.``
symbol or repo path reads fine, so a deletion could break any of them
unnoticed.
"""

import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []


@pytest.mark.parametrize("script", EXAMPLES, ids=[script.name for script in EXAMPLES])
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=REPO, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_docs_name_only_what_exists():
    docs = ["README.md", "docs/ARCHITECTURE.md"]
    completed = subprocess.run(
        [sys.executable, "tools/check_docs_links.py", *docs],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
