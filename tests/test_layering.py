"""Tests for the module layering: which package modules import which, and
that package code uses every public definition."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpvol
from jumpvol.workers import usable_cpus

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


def test_estimators_imports_no_simulation_loop():
    """The estimators see blocks; drawing and spreading them is harness's."""
    assert package_imports("estimators") == {"errors", "kernels", "levy"}


def test_only_harness_and_stable_import_workers():
    importers = {m for m in MODULES if "workers" in package_imports(m)}
    assert importers == {"harness", "stable"}


def test_only_levy_and_harness_know_the_block_layout():
    """`levy` defines `block_rows`, and `harness` (its `replicate_map`) is
    the one module that uses it."""
    users = set()
    for m in MODULES:
        tree = ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8"))
        if "block_rows" in referenced_names(tree):
            users.add(m)
    assert users == {"harness"}


def module_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_only_levy_makes_generators():
    """`levy` is the one module that references `default_rng`, so every
    stream the package draws from is made by it."""
    names = {m: referenced_names(module_tree(m)) for m in MODULES}
    users = {m for m, used in names.items() if "default_rng" in used}
    assert users == {"levy"}


def test_harness_draws_a_block_only_through_draw_parts():
    """Of `levy`'s functions and classes, `harness` uses the law and model
    types, the block layout, `form_increments` and the one routine that
    draws a block, and no other draw routine."""
    defined = {
        stmt.name
        for stmt in module_tree("levy").body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    used = referenced_names(module_tree("harness")) & defined
    pipeline = {"block_rows", "draw_parts", "form_increments"}
    assert used == {"JumpLaw", "ModelSpec"} | pipeline


def test_the_scan_sees_relative_imports():
    assert {"errors", "estimators", "levy", "stable"} <= package_imports("__init__")


def test_no_module_imports_scipy():
    assert {m for m in MODULES if imports_scipy(m)} == set()


def run_in_fresh_interpreter(code: str) -> str:
    """The standard output of `code`, run by a fresh interpreter that imports
    jumpvol from this checkout."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", code]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return result.stdout


def modules_loaded_by_cli_import() -> list[str]:
    """The modules that `import jumpvol.cli` leaves loaded in a fresh interpreter."""
    code = "import sys, jumpvol.cli; print(' '.join(sorted(sys.modules)))"
    return run_in_fresh_interpreter(code).split()


def test_cli_import_loads_no_scipy():
    """Nothing jumpvol imports pulls scipy in indirectly either."""
    loaded = modules_loaded_by_cli_import()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_workers_imports_no_package_module():
    assert package_imports("workers") == set()


def test_cli_import_loads_numpy_random():
    """numpy.random loads with the package, once, before any command forks;
    `levy`'s import of `default_rng` is what loads it."""
    assert "numpy.random" in modules_loaded_by_cli_import()


def test_cli_import_loads_no_harness_or_estimators():
    """`dzeta` starts without compiling `harness` and `estimators`: the
    commands that use them import them.  The modules that every command may
    run still load with the CLI, before any command forks."""
    loaded = {m for m in modules_loaded_by_cli_import() if m.startswith("jumpvol.")}
    eager = {"cli", "errors", "kernels", "levy", "stable", "workers"}
    assert loaded == {f"jumpvol.{m}" for m in eager}


SUBMODULES = ["errors", "estimators", "harness", "kernels", "levy", "stable", "workers"]


def test_package_import_loads_only_errors():
    """`import jumpvol` loads `errors` and no other package module."""
    code = "import sys, jumpvol; print(' '.join(sorted(sys.modules)))"
    loaded = run_in_fresh_interpreter(code).split()
    ours = [m for m in loaded if m.startswith("jumpvol")]
    assert ours == ["jumpvol", "jumpvol.errors"]


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_loads_on_first_use(module):
    """Each submodule is an attribute of the package, imported when it is
    first looked up."""
    name = f"jumpvol.{module}"
    code = f"import sys, jumpvol; print({name} is sys.modules[{name!r}])"
    assert run_in_fresh_interpreter(code).split() == ["True"]


# Whether `dir(jumpvol)` lists every export before any is used, then what
# `from jumpvol import *` binds in a fresh interpreter: each name, its
# module, and whether it is the package's attribute of that name.
EXPORTS_ON_FIRST_USE = """
import jumpvol
print(set(jumpvol.__all__) <= set(dir(jumpvol)))
namespace = {}
exec("from jumpvol import *", namespace)
for name in jumpvol.__all__:
    value = namespace[name]
    print(name, value.__module__, getattr(jumpvol, name) is value)
"""


def test_every_export_resolves_on_first_use():
    listed, *lines = run_in_fresh_interpreter(EXPORTS_ON_FIRST_USE).splitlines()
    assert listed == "True"
    found = {name: (module, same) for name, module, same in map(str.split, lines)}
    assert sorted(found) == sorted(jumpvol.__all__)
    for name, (module, same) in found.items():
        assert module == getattr(jumpvol, name).__module__
        assert same == "True"


def test_harness_is_reached_through_the_package_after_cli_import():
    """`import jumpvol.cli` followed by `jumpvol.harness.load_config`, as
    `perfbench/child.py` runs its set-up."""
    code = "import jumpvol.cli; print(jumpvol.harness.load_config.__module__)"
    assert run_in_fresh_interpreter(code).split() == ["jumpvol.harness"]


def test_cli_import_loads_no_multiprocessing():
    """Work is spread over processes by `workers.fork_map`, which forks
    directly; no command pays for importing multiprocessing."""
    loaded = modules_loaded_by_cli_import()
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Prints whether `import jumpvol.cli` left os.environ as it found it, the
# OpenBLAS thread variable it leaves, and the threads of the process.
THREADS_AFTER_IMPORT = """
import os
before = dict(os.environ)
import jumpvol.cli
print(dict(os.environ) == before, os.environ.get("OPENBLAS_NUM_THREADS"),
      len(os.listdir("/proc/self/task")))
"""


def import_in_fresh_interpreter(**variables) -> list[str]:
    """THREADS_AFTER_IMPORT's output, run with none of THREAD_VARIABLES set
    but `variables`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-c", THREADS_AFTER_IMPORT]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return result.stdout.split()


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc to count threads in"
)


@needs_proc
def test_cli_import_starts_no_thread():
    """numpy is imported with a one-thread OpenBLAS, and the variable that
    asks for it is gone again afterwards."""
    assert import_in_fresh_interpreter() == ["True", "None", "1"]


@needs_proc
@pytest.mark.skipif(usable_cpus() < 2, reason="no second OpenBLAS thread on one CPU")
def test_user_thread_count_is_kept():
    """A thread count the user set is left alone: the pool starts."""
    variables = {"OPENBLAS_NUM_THREADS": "2"}
    assert import_in_fresh_interpreter(**variables) == ["True", "2", "2"]


def referenced_names(node: ast.AST) -> set[str]:
    """Names that `node` uses: bare names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_public_definitions(package: Path) -> set[str]:
    """`module.name` of each public module-level function or class that no
    package code uses outside its own definition.  An import by another
    module counts; the re-exports of `__init__` do not, so exporting a name
    does not keep it alive."""
    statements = []  # (module, statement) for every top-level statement
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path.stem, stmt) for stmt in tree.body]
    uses = [referenced_names(stmt) for _, stmt in statements]
    unused = set()
    for i, (module, stmt) in enumerate(statements):
        definition = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        if not definition or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for j, names in enumerate(uses) if j != i):
            unused.add(f"{module}.{stmt.name}")
    return unused


# Public definitions that no package module calls, kept on purpose.
KEPT_UNREFERENCED = {
    # criterion 8's paired Richardson on a shared path
    "estimators.richardson_paired",
    # the public scalar density: criterion 6, tests/test_stable.py and the
    # perfbench tracer call it
    "stable.stable_density",
}


def test_every_public_definition_is_used_by_the_package():
    """A public function or class that only tests reach is dead code, unless
    it is kept on purpose and listed with its reason."""
    assert unreferenced_public_definitions(PACKAGE) == KEPT_UNREFERENCED
