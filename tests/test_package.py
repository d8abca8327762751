"""The package's exported surface, the names the benchmark probes, its imports
and its definitions."""

import ast
import functools
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import quadlod
from quadlod import lab
from quadlod.characters import Modulus

PACKAGE = Path(quadlod.__file__).parent
PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def test_every_exported_name_resolves_once():
    names = quadlod.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(quadlod, name)] == []


def test_benchmark_probes_find_their_names():
    # installed() getattrs every name it patches and restores each on exit
    spec = importlib.util.spec_from_file_location("probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    sweep = lab._sweep_arrays
    with probes.installed(probes.Tracer("t")):
        assert lab._sweep_arrays is not sweep
    assert lab._sweep_arrays is sweep
    assert list(inspect.signature(sweep).parameters) == ["m", "xs", "ys", "norms", "fv"]
    for name in ("unit_group", "characters"):  # the probes call their .func
        assert isinstance(vars(Modulus)[name], functools.cached_property)


def test_every_module_import_is_read():
    # a name listed in __all__ counts as read
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def _reads(node) -> Counter:
    """Names and attribute names read anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_definition_is_read():
    # a module-level function or class needs a reader outside its own body and
    # __init__.py; arith.unit_fold_check is read by tests alone, but it keeps
    # arith reading element_arrays, which the benchmark probes patch there
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and read[node.name] == _reads(node)[node.name]
    ]
    assert unread == ["arith.unit_fold_check"]
