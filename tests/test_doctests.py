"""Docstring examples of every module that has them, and the package exports."""

import doctest
import importlib

import pytest

MODULES = ("polyring", "cyclotomic", "algebraic", "dynamics", "classify")


@pytest.mark.parametrize("module", ["polyring", "cyclotomic", "algebraic", "dynamics"])
def test_module_doctests(module):
    # attempted > 0: a module whose examples disappear fails here
    failures, attempted = doctest.testmod(importlib.import_module(f"parabkit.{module}"))
    assert attempted > 0 and failures == 0


def test_package_reexports_exactly_the_module_exports():
    import parabkit

    modules = [importlib.import_module(f"parabkit.{name}") for name in MODULES]
    exported = set().union(*(module.__all__ for module in modules))
    public = {name for name in vars(parabkit) if not name.startswith("_")} - set(MODULES)
    assert public == exported
    for module in modules:
        for name in module.__all__:
            assert getattr(parabkit, name) is getattr(module, name), name
