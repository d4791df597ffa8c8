"""The package is exact and stdlib-only: every import of a module of
``superw`` is relative or from the standard library, and no float appears;
importing it loads no standard-library machinery that no command uses."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superw"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_every_module_is_found():
    assert {"cli.py", "darboux.py", "supercore.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            tops = []
        for top in tops:
            assert top in sys.stdlib_module_names, (path.name, node.lineno, top)
        if isinstance(node, ast.Name):
            assert node.id != "float", (path.name, node.lineno)
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (path.name, node.lineno)


def test_import_loads_no_dataclasses_inspect_or_resources():
    # -S keeps site .pth files from importing these before superw does
    code = ("import sys, superw.cli; print([m for m in ('dataclasses', 'inspect', "
            "'importlib.resources') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
