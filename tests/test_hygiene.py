"""Source hygiene of the package and its tests, read from the syntax tree, and
what importing the command line loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import implbase

#: The package modules,
PACKAGE = sorted(Path(implbase.__file__).parent.glob("*.py"))
#: then the test modules.
MODULES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """Names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level names with one leading underscore that the module binds
    by ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names the module reads, reads as attributes, or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_name_of_the_package_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    used = set().union(*map(referenced_names, trees.values()))
    unused = {
        f"{name}.{private}"
        for name, tree in trees.items()
        for private in private_definitions(tree) - used
    }
    assert not unused, f"private names that nothing in the package uses: {sorted(unused)}"


def test_every_shared_kernel_is_used_by_another_package_module():
    # bits.py holds the kernels the other modules share, so each of its
    # exports must be read somewhere else in the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    exported = exported_names(trees["bits.py"])
    others = [tree for name, tree in trees.items() if name != "bits.py"]
    used = set().union(*map(referenced_names, others))
    assert exported, "bits.py exports nothing"
    assert not exported - used, f"bits.py exports unused kernels: {sorted(exported - used)}"


def test_importing_the_cli_loads_no_process_pool():
    # only ``bench --jobs N`` over several datasets needs a pool, so the
    # pool machinery stays out of every other command's start-up
    probe = (
        "import sys, implbase.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(implbase.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"
