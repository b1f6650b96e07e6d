"""The package's exports: every name in ``jspkdm.__all__`` exists, and
README's examples run."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import jspkdm

from .conftest import build_fixture_webapp

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def test_every_exported_name_resolves():
    missing = [name for name in jspkdm.__all__ if not hasattr(jspkdm, name)]
    assert missing == []
    assert len(set(jspkdm.__all__)) == len(jspkdm.__all__)


def test_star_import_works_in_a_fresh_interpreter():
    # A stale name in __all__ makes "from jspkdm import *" raise
    # AttributeError, which a test that imports names one by one never sees.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("from jspkdm import *\n"
             "import jspkdm\n"
             "print(sorted(set(jspkdm.__all__) - set(globals())))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout.strip()) == (0, "", "[]")


def test_readme_python_blocks_run_in_order(tmp_path):
    # README's Python blocks, both in "Library", one after another in a
    # fresh interpreter, inside the fixture webapp, which has the files they
    # open.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    webapp = build_fixture_webapp(tmp_path / "webapp")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "".join(blocks)], cwd=webapp, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (webapp / "model.json").read_bytes().startswith(b"{")
