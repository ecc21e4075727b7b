"""Every name a gsdyn module imports is used by that module, and importing
the CLI stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsdyn

MODULES = sorted(p for p in Path(gsdyn.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport json\nfrom os import path, sep\nprint(json, sep)\n") == [
        "math (line 1)", "path (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_scipy_signal_out():
    env = dict(os.environ, PYTHONPATH=str(Path(gsdyn.__file__).resolve().parents[1]))
    code = "import sys, gsdyn.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
