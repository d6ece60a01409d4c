"""The declared dependencies match what the library imports.

``pyproject.toml`` must declare every third-party package imported under
``src/repro``.  networkx is the one exception: only the export helper
``OverlayGraph.to_networkx`` imports it, lazily, so it is a test extra and
no experiment run may load it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"

#: stdlib from 3.11; 3.10 takes a fallback path when the import fails
_STDLIB = set(sys.stdlib_module_names) | {"tomllib"}

#: (import root, file, enclosing function) of the undeclared, export-only
#: imports the library may make
EXPORT_ONLY = {("networkx", "src/repro/overlay/graph.py", "to_networkx")}


def _requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def _third_party_imports() -> set[tuple[str, str, str]]:
    """(import root, file, enclosing function or "<module>") of every
    absolute third-party import under src/repro."""
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes: dict[ast.AST, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    scopes.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                root = module.split(".")[0]
                if root != "repro" and root not in _STDLIB:
                    relative = path.relative_to(ROOT).as_posix()
                    found.add((root, relative, scopes.get(node, "<module>")))
    return found


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_requirement_name(r) for r in project["dependencies"]}
    imports = _third_party_imports()
    undeclared = {entry for entry in imports if entry[0] not in declared}
    assert undeclared == EXPORT_ONLY
    assert declared == {root for root, _, _ in imports} - {"networkx"}
    extras = {_requirement_name(r) for r in project["optional-dependencies"]["test"]}
    assert {root for root, _, _ in EXPORT_ONLY} <= extras


def test_static_experiments_never_import_networkx():
    script = (
        "import sys\n"
        "from repro import api\n"
        "for experiment in ('fig9', 'fig10'):\n"
        "    api.run(experiment, scale='smoke', seed=0)\n"
        "assert 'networkx' not in sys.modules, 'an experiment run imported networkx'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
