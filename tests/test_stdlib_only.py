"""The package is exact and stdlib-only: every import of a module of
``superw`` is relative or from the standard library, and no float appears;
importing the command line loads no standard-library machinery that no
command uses, and none of the package's code that only one command or no
command runs."""
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


# the modules that the four commands import; the property suite and the
# Clifford certificate are compiled only when they run
COMMAND_MODULES = ["superw.algebras", "superw.cli", "superw.darboux", "superw.linalg",
                   "superw.poisson", "superw.starprod", "superw.supercore",
                   "superw.wslice"]


def test_import_loads_no_dataclasses_inspect_or_resources():
    # -S keeps site .pth files from importing these before superw does
    code = ("import sys, superw.cli\n"
            "mods = [m for n, m in sys.modules.items() if n.startswith('superw.')]\n"
            "print([m for m in ('dataclasses', 'inspect', 'importlib.resources', 'random') "
            "if m in sys.modules])\n"
            "print(sorted(m.__name__ for m in mods))\n"
            "print(sorted(m.__name__ for m in mods for name in ('_suite_checks', "
            "'clifford_factorization') if name in vars(m)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", repr(COMMAND_MODULES), "[]"]
