"""The mutation catalogue of ``tests/mutants.py`` against the source tree.

Every run checks that each mutant's snippet occurs exactly once in its
file.  ``TERMBRIDGE_MUTANTS=1`` also runs each mutant: ``src/`` is copied
to a temporary directory, the mutant is applied to the copy, and its
tests, run in a pytest subprocess with the copy first on the path, must
all fail.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "termbridge" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1


@pytest.mark.skipif(
    os.environ.get("TERMBRIDGE_MUTANTS") != "1",
    reason="the mutation catalogue is opt-in: set TERMBRIDGE_MUTANTS=1 (about a minute)",
)
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_caught(mutant, tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = copy / "termbridge" / mutant.file
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    # The ini's ``pythonpath = ["src"]`` would put this checkout first: point it at the copy.
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    argv = ["-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-o", f"pythonpath={copy}", *mutant.tests]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(mutant.tests) <= failed, proc.stdout[-2000:]
