"""The package namespace re-exports exactly the library modules' public names."""

import importlib
import pkgutil

import turbulight

# The command-line front end is run as a program, not re-exported.
_FRONT_ENDS = {"cli"}


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
