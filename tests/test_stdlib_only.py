"""The runtime stays standard-library only."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "jspkdm"


def imported_top_level_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"jspkdm"}
    foreign = {path.name: sorted(imported_top_level_modules(path) - allowed)
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(foreign) >= 9
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_pyproject_declares_no_dependencies():
    lines = (REPO / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines


# Modules no run needs, and what loading them costs each run's start-up:
# ``xml.sax.saxutils`` pulls in ``urllib.request`` and ``ssl``, a third of
# it; ``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
# ``tokenize``) and generates each record's methods with ``exec``; and
# ``xml.etree.ElementTree`` is needed only to parse a web.xml.
UNNEEDED_AT_START = ["dataclasses", "inspect", "ssl", "urllib.request",
                     "xml.etree.ElementTree"]


def test_cli_import_loads_no_network_modules():
    # Each import in a fresh interpreter: jspkdm.cli, which every run
    # starts with, and jspkdm.pipeline, which bench/hostile.py imports.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for module in ("jspkdm.cli", "jspkdm.pipeline"):
        probe = (f"import sys; before = set(sys.modules); import {module}; "
                 f"print(sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        added = set(ast.literal_eval(proc.stdout))
        assert module in added
        assert (module, sorted(added & set(UNNEEDED_AT_START))) == (module, [])
