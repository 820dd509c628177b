"""The package namespace re-exports exactly the library modules' public names."""

import ast
import importlib
import pathlib
import pkgutil

import turbulight

# The command-line front end is run as a program, not re-exported.
_FRONT_ENDS = {"cli"}
_RANDOM_MODULES = ("random", "numpy.random", "np.random")


def test_package_all_is_the_union_of_module_all():
    names = set()
    for info in pkgutil.iter_modules(turbulight.__path__):
        if info.name not in _FRONT_ENDS:
            names |= set(importlib.import_module(f"turbulight.{info.name}").__all__)
    exported = [name for name in turbulight.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    assert set(exported) == names
    for name in exported:
        assert hasattr(turbulight, name), name


def _used_names(node):
    """Dotted module names an import or a ``name.attr`` reference uses."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def test_library_draws_no_random_numbers():
    # Every verdict is a deterministic average over a law; random draws
    # belong to the Monte Carlo oracles of the test suite.
    for path in sorted(pathlib.Path(turbulight.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            for name in _used_names(node):
                random = any(name == m or name.startswith(m + ".") for m in _RANDOM_MODULES)
                assert not random, f"{path.name}:{node.lineno} uses {name}"
