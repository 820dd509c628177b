"""The package namespace re-exports exactly the library modules' public names."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import turbulight
from turbulight import pdt

# The command-line front end is run as a program, not re-exported.
_FRONT_ENDS = {"cli"}
_RANDOM_MODULES = ("random", "numpy.random", "np.random")
_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def _public_callables():
    """Exported functions and the public methods of exported classes."""
    for name in turbulight.__all__:
        obj = getattr(turbulight, name)
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in dir(obj):
                method = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isfunction(method):
                    yield method


def test_only_the_integrators_and_expectation_take_a_quadrature_spec():
    # Tolerances are set where the quadrature runs: every average of the
    # package uses DEFAULT_QUADRATURE except the count distributions, which
    # hand their own tolerance to expectation.
    with_spec = {
        fn.__qualname__ for fn in _public_callables()
        if "spec" in inspect.signature(fn).parameters
    }
    assert with_spec == {"integrate", "integrate2", "TransmittanceDistribution.expectation"}


def test_laws_average_through_atoms_or_their_own_chart():
    # The law interface asks for no density: a continuous law hands the
    # quadrature its own chart, and the base class has none to fall back on.
    for cls in vars(pdt).values():
        if isinstance(cls, type) and cls.__module__ == pdt.__name__:
            assert not {"density", "edges"} & set(vars(cls)), cls.__name__
    for cls in (pdt.Beta, pdt.TruncatedLogNormal, pdt.Scaled):
        assert "chart" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        pdt.TransmittanceDistribution().chart()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
