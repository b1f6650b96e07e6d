"""The package's exports: every name in ``jspkdm.__all__`` exists."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import jspkdm

SRC = Path(__file__).resolve().parents[1] / "src"


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
