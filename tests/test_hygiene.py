"""Source hygiene of the package and its tests, read from the syntax tree,
what importing the package and running a command load, and the table of
public names."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import implbase
from conftest import EX51_CXT, EX51_IMP

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


def module_definitions(tree: ast.Module) -> set[str]:
    """Names the module binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level names with one leading underscore that the module binds."""
    return {
        name
        for name in module_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    }


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


def global_statements(tree: ast.Module) -> list[tuple[str | None, tuple[str, ...]]]:
    """Each ``global`` statement as the innermost function holding it, or
    ``None`` at module level, and the names it declares."""
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            holders = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            holder = max(holders, key=lambda f: f.lineno, default=None)
            found.append((holder and holder.name, tuple(node.names)))
    return found


def test_the_premise_search_keeps_the_one_hand_rolled_module_slot():
    # module-level memos are functools caches; the premise search's slot is
    # the one exception, as it matches its context by identity
    found = [
        (path.name, *statement)
        for path in PACKAGE
        for statement in global_statements(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("bases.py", "_search", ("_searched",))]


def functools_memos(tree: ast.Module) -> list[tuple[str, bool]]:
    """Each function under an ``lru_cache`` or ``cache`` decorator, and
    whether the memo is bounded: an ``lru_cache`` whose ``maxsize`` is not
    ``None``, or a ``cache`` on a function that takes no arguments."""
    memos = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for decorator in func.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "lru_cache":
                sizes = []
                if call:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                unbounded = any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
                memos.append((func.name, not unbounded))
            elif name == "cache":
                args = func.args
                takes = args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg
                memos.append((func.name, not takes))
    return memos


def test_every_functools_memo_of_the_package_is_bounded():
    # callers may keep bases and contexts alive, and an unbounded memo would
    # keep every argument and result alive for the life of the process
    memos = [
        (path.name, *memo)
        for path in PACKAGE
        for memo in functools_memos(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert memos, "the package has no functools memo"
    unbounded = [f"{name}:{func}" for name, func, bounded in memos if not bounded]
    assert not unbounded, f"unbounded functools memos: {unbounded}"


#: Methods of a dict that change it.
DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def is_cache(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def writes_cache(node: ast.AST) -> bool:
    """Does the node write into some object's ``_cache`` dict: by item
    assignment or deletion, by a method that changes a dict, by an augmented
    assignment, or by binding it to anything but an empty ``{}``?"""
    if isinstance(node, ast.Subscript):
        return is_cache(node.value) and not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Call):
        method = node.func
        return isinstance(method, ast.Attribute) and is_cache(method.value) and (
            method.attr in DICT_WRITES
        )
    if isinstance(node, ast.AugAssign):
        return is_cache(node.target)
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        empty = isinstance(node.value, ast.Dict) and not node.value.keys
        return not empty and any(map(is_cache, targets))
    return False


def cache_writers(tree: ast.Module) -> set[str]:
    """The dotted name, through its classes and functions, of each function
    that writes into some object's ``_cache`` dict."""
    writers = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if writes_cache(child):
                writers.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return writers


def test_only_the_memo_decorator_writes_a_cache():
    # each memo builds its own entry: one that fills another's would give
    # that form a second owner, and the two could disagree
    writers = {
        f"{path.name}:{name}"
        for path in PACKAGE
        for name in cache_writers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writers == {"bits.py:memo.cached"}


def run_probe(code: str) -> str:
    """What a fresh interpreter prints to stdout after running ``code``
    against this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(implbase.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


def test_importing_the_cli_loads_no_process_pool():
    # only ``bench --jobs N`` over several datasets needs a pool, so the
    # pool machinery stays out of every other command's start-up
    probe = (
        "import sys, implbase.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    assert run_probe(probe) == "[]\n"


def loaded_by(*argv: str) -> list[str]:
    """The package modules a fresh interpreter holds after importing the
    package and, given an ``argv``, running that command to success."""
    probe = ["import sys, implbase"]
    if argv:
        probe.append(f"from implbase.cli import main\nassert main({list(argv)!r}) == 0")
    probe.append("print(sorted(m for m in sys.modules if m.split('.')[0] == 'implbase'))")
    return ast.literal_eval(run_probe("\n".join(probe)).splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert loaded_by() == ["implbase"]


def test_a_closure_query_loads_only_the_modules_it_runs():
    argv = ("closure", "--basis", str(EX51_IMP), "--set", "b d", "--algo", "lin")
    assert loaded_by(*argv) == [
        "implbase",
        "implbase.bits",
        "implbase.cli",
        "implbase.closure",
        "implbase.errors",
        "implbase.sets",
    ]


def test_check_loads_no_bench_harness():
    loaded = loaded_by("check", "--in", str(EX51_CXT))
    assert "implbase.bases" in loaded and "implbase.bench" not in loaded


# -- the public table ---------------------------------------------------------------

#: The package's public names in ``__all__`` order, grouped by defining module.
PUBLIC = """
    AttributeSet Basis BasisKind Implication Universe merge_same_lhs parse_basis
    parse_implication read_basis render_basis unit_expand
    Context clarify gen_synthetic is_clarified is_reduced is_standard parse_cxt read_cxt
    reduce render_cxt require_standard
    ClosureResult Metrics binary_closure closure_classic closure_direct implies
    lin_closure lin_closure_direct oracle_closure pass_once wild_closure
    wild_closure_direct
    PseudoClosedWitness build_cdub build_dbasis build_dg check_equiv direct_witness
    enumerate_pseudo_closed
    ALGORITHMS CSV_HEADER METRIC_NAMES TABLE_COMBOS ComboReport RatioBucket WorkloadSpec
    default_combos normalize ranking read_reports_csv run_bench run_workload
    size_ratio_report write_reports_csv
    DegenerateContext EmptyLhs ImplbaseError ImplicationSyntaxError InvalidBasis
    InvalidCombo IoError MalformedCxt MalformedReport NotClarified NotStandardContext
    UniverseMismatch UnknownAttribute UnrenderableName WrongBasisKind
    __version__
""".split()

#: Names that were a second spelling of a public call, and stay out of the
#: package: callers use ``str(impl)``, ``bits.lectic_keys``, ``render_basis``,
#: ``Context.closure_bits``, ``render_cxt``, membership in
#: ``enumerate_pseudo_closed`` and ``direct_witness`` instead.
REMOVED = """
    format_implication lectic_key write_basis context_closure write_cxt is_pseudo_closed
    verify_direct
""".split()


def test_the_public_names_are_pinned_in_order():
    assert implbase.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC[:-1])
def test_each_public_name_is_what_its_module_defines(name):
    home = implbase._HOMES[name]
    module = importlib.import_module(f"implbase.{home}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert name in module_definitions(tree), f"{home}.py does not define {name}"
    assert getattr(implbase, name) is getattr(module, name)
    if hasattr(module, "__all__"):
        assert name in module.__all__, f"{home}.__all__ lacks {name}"


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from implbase import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


@pytest.mark.parametrize("name", ["no_such_name", *REMOVED])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(implbase, name)


def readme_library() -> str:
    """The ``## Library`` section of the README."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_library_section_names_the_whole_public_surface():
    library = readme_library()
    quoted = set(re.findall(r"`([^`\n]+)`", library))
    missing = [name for name in PUBLIC[:-1] if name not in quoted]
    assert not missing, f"the README's Library section does not name {missing}"
    named = [name for name in REMOVED if re.search(rf"\b{name}\b", library)]
    assert not named, f"the README's Library section names removed {named}"


def test_the_bench_harness_runs_the_closure_algorithms_table():
    # perfbench swaps timed wrappers into ``bench.ALGORITHMS`` in place, and
    # the command line must run the same entries
    from implbase import bench, closure

    assert bench.ALGORITHMS is closure.ALGORITHMS


def test_the_pairing_table_is_the_only_pairing_source_of_the_harness():
    from implbase.bench import WorkloadSpec, default_combos

    names = [field.name for field in dataclasses.fields(WorkloadSpec)]
    assert names == ["queries", "repetitions", "seed", "query_density"]
    assert not inspect.signature(default_combos).parameters


def test_the_cli_imports_no_private_name_of_the_closure_layer():
    # which kinds a direct algorithm takes is decided in closure.py alone
    tree = ast.parse((Path(implbase.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "closure"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cli.py imports {private} from closure"


#: What the innermost loop of a timed closure kernel may update in place:
#: the algorithm's own state and the one firing counter.
KERNEL_LOOP_TARGETS = {"deps", "bits", "add", "update", "count[...]"}


def loops(node: ast.AST) -> list[ast.For | ast.While]:
    """The ``for`` and ``while`` loops in ``node``, ``node`` included."""
    return [sub for sub in ast.walk(node) if isinstance(sub, (ast.For, ast.While))]


def called_names(node: ast.AST) -> set[str]:
    """Names that ``node`` calls directly."""
    return {
        sub.func.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
    }


def reads_the_clock(func: ast.FunctionDef) -> bool:
    """Does ``func`` read ``time.perf_counter_ns``?"""
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "perf_counter_ns" for sub in ast.walk(func)
    )


def in_place_target(node: ast.AugAssign) -> str:
    """What an augmented assignment updates: a name, or ``name[...]``."""
    target = node.target
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        return f"{target.value.id}[...]"
    return target.id if isinstance(target, ast.Name) else ast.unparse(target)


def test_timed_closure_kernels_keep_counters_out_of_their_inner_loops():
    # a kernel's innermost loop runs once per scanned implication or
    # attribute, inside the clock; the counters other than deps are closed
    # forms computed after the clock stops.  A loop is innermost when it
    # holds no loop and calls no closure.py function that holds one, so
    # Wild's pass loop, which calls its firing round, counts once per pass.
    tree = ast.parse((Path(implbase.__file__).parent / "closure.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    looping = {name for name, func in funcs.items() if loops(func)}
    kernels = {name: func for name, func in funcs.items() if reads_the_clock(func)}
    assert set(kernels) == {"_classic", "_lin", "_wild", "_sweep", "_lin_once", "_wild_once"}
    checked = set()
    for name, func in kernels.items():
        for loop in loops(func):
            body = ast.Module(body=loop.body, type_ignores=[])
            if loops(body) or called_names(body) & looping:
                continue
            checked.add(name)
            targets = {
                in_place_target(node) for node in ast.walk(body) if isinstance(node, ast.AugAssign)
            }
            assert targets <= KERNEL_LOOP_TARGETS, (
                f"{name} updates {sorted(targets - KERNEL_LOOP_TARGETS)} in its innermost loop"
            )
    assert checked == {"_classic", "_lin", "_sweep", "_lin_once"}
