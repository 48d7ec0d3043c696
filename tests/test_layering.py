"""Tests for the module layering: which package modules import which."""

import ast
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


def test_only_levy_and_stable_import_scipy():
    """levy for the tempered constants, stable for the density and d(zeta)."""
    assert {m for m in MODULES if imports_scipy(m)} == {"levy", "stable"}
