"""The runtime stays standard-library only."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "jspkdm"


def imported_modules(path: Path) -> set[str]:
    """The dotted names of the modules ``path`` imports, relative ones aside."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"jspkdm"}
    foreign = {path.name: sorted({m.partition(".")[0] for m in imported_modules(path)}
                                 - allowed)
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


def test_cli_import_adds_no_typing():
    # Annotations are never evaluated, so the package needs no ``typing``.
    # Without ``site``, which may load it for its own hooks, and with every
    # stdlib module the package uses already loaded, ``typing`` would show
    # up only through the package itself.
    stdlib = sorted(set().union(*map(imported_modules, PACKAGE.glob("*.py")))
                    - {"__future__", "typing"})
    probe = (f"import sys; sys.path.insert(0, {str(REPO / 'src')!r})\n"
             f"for name in {stdlib!r}: __import__(name)\n"
             f"before = set(sys.modules)\n"
             f"import jspkdm.cli\n"
             f"print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    added = set(ast.literal_eval(proc.stdout))
    assert "jspkdm.cli" in added
    assert sorted(name for name in added if name.partition(".")[0] == "typing") == []
