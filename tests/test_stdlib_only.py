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


def test_cli_import_loads_no_network_modules():
    # ``xml.sax.saxutils`` pulls in ``urllib.request`` and ``ssl``, a third of
    # the start-up every run pays; the serializers need neither.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = "import sys, jspkdm.cli; print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
