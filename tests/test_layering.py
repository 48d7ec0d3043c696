"""Tests for the module layering: which package modules import which."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import jumpvol

PACKAGE = Path(jumpvol.__file__).parent


def package_imports(module: str) -> set[str]:
    """Package modules that `module` imports by relative import, e.g. {"errors"}."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def imports_scipy(module: str) -> bool:
    """Whether `module` has an `import scipy...` or `from scipy... import` statement."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            return True
    return False


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_only_cli_and_package_import_stable():
    importers = {m for m in MODULES if "stable" in package_imports(m)}
    assert importers == {"cli", "__init__"}


def test_levy_imports_only_errors():
    assert package_imports("levy") == {"errors"}


def test_the_scan_sees_relative_imports():
    assert {"errors", "estimators", "levy", "stable"} <= package_imports("__init__")


def test_no_module_imports_scipy():
    assert {m for m in MODULES if imports_scipy(m)} == set()


def test_cli_import_loads_no_scipy():
    """Nothing jumpvol imports pulls scipy in indirectly either."""
    code = (
        "import sys, jumpvol.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", code]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
