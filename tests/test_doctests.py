"""Docstring examples of every module that has them."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("module", ["polyring", "cyclotomic", "algebraic", "dynamics"])
def test_module_doctests(module):
    # attempted > 0: a module whose examples disappear fails here
    failures, attempted = doctest.testmod(importlib.import_module(f"parabkit.{module}"))
    assert attempted > 0 and failures == 0
