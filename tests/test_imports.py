"""Every name a gsdyn module imports is used by that module, every private
name it defines is read in it, and importing the CLI stays light."""

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


def private_names(source: str) -> dict:
    """Module-level private names (``_x``) that the source defines or
    assigns, each with the line it is bound on."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name: line for name, line in bound.items() if name.startswith("_") and not name.startswith("__")}


def is_read(source: str, name: str) -> bool:
    return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
               for n in ast.walk(ast.parse(source)))


def test_detects_an_unread_private_name():
    source = "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\nprint(_f)\n"
    assert private_names(source) == {"_A": 1, "_B": 2, "_f": 3, "_C": 5}
    assert [name for name in private_names(source) if not is_read(source, name)] == ["_B", "_C"]


PRIVATE = [(path, name) for path in MODULES for name in private_names(path.read_text())]


@pytest.mark.parametrize("path, name", PRIVATE, ids=[f"{p.stem}.{n}" for p, n in PRIVATE])
def test_private_name_is_read_in_its_module(path, name):
    # a private helper that nothing reads is dead code left behind by a deletion
    assert is_read(path.read_text(), name), f"{path.name}: {name} is defined but never read"


def test_cli_import_leaves_scipy_signal_out():
    env = dict(os.environ, PYTHONPATH=str(Path(gsdyn.__file__).resolve().parents[1]))
    code = "import sys, gsdyn.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
