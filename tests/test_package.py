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


def _imported(tree) -> set[str]:
    """The names that `import` statements bind in a module (math, np, ...)."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }


def _reads(node, modules=frozenset()) -> Counter:
    """Names and attribute names read anywhere under node.

    An attribute of an imported module (math.gcd) reads the module, not a
    definition of that name.
    """
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) or isinstance(n, ast.Attribute) and not (
            isinstance(n.value, ast.Name) and n.value.id in modules
        )
    )


def test_every_library_definition_is_read():
    # a module-level function or class, or a method of a module-level class,
    # needs a reader outside its own body and __init__.py; a method is read
    # by attribute name.  Dunder methods are called by Python, as are
    # cli._Parser.error (argparse calls it on a usage error) and
    # RingDescriptor.element (README's examples call it).
    # arith.unit_fold_check is read by tests alone, but it keeps arith
    # reading element_arrays, which the benchmark probes patch there.
    # arith.ArithFn.values is read by the benchmark probes; rings.gcd by
    # criterion 3 and the oracles' coprimality reference
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    modules = {module: _imported(tree) for module, tree in trees.items()}
    read = sum((_reads(tree, modules[m]) for m, tree in trees.items()), Counter())
    defs = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (f"{name}.{node.name}", node)
        for name, cls in list(defs)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    unread = [
        name for name, node in defs
        if read[node.name] == _reads(node, modules[name.split(".")[0]])[node.name]
    ]
    assert unread == [
        "arith.unit_fold_check", "rings.gcd",
        "arith.ArithFn.values", "cli._Parser.error", "rings.RingDescriptor.element",
    ]
