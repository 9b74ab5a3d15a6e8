"""Every name the package exports has a caller outside the tests.

Library code that only tests call belongs in the tests.  A name counts as
used when some file reads it: a load of the name or of an attribute by that
name, in the package itself, in a demo, or in a benchmark script (not the
frozen copy of the package under benchmarks/).  Definitions, imports and the
strings of ``__all__`` are not reads.  The rule covers the package's own
``__all__`` and that of each submodule.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import fpselberg

ROOT = Path(__file__).resolve().parents[1]
USERS = (ROOT / "src" / "fpselberg", ROOT / "demos", ROOT / "benchmarks")
SUBMODULES = ("fp_poly", "modp_arith", "selberg_core", "selberg2d_closed", "morris_ct", "sweep", "verify",
              "cli")


def _reads(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


@functools.lru_cache(maxsize=1)
def _read_outside_the_tests() -> frozenset:
    return frozenset().union(*(_reads(path) for folder in USERS for path in sorted(folder.glob("*.py"))))


def test_every_public_name_is_read_outside_the_tests():
    assert sorted(set(fpselberg.__all__) - _read_outside_the_tests()) == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_export_is_read_outside_the_tests(module):
    exported = importlib.import_module(f"fpselberg.{module}").__all__
    assert sorted(set(exported) - _read_outside_the_tests()) == []


def test_lazy_exports_are_the_submodule_objects():
    for name in fpselberg.__all__:
        obj = getattr(fpselberg, name)
        module = importlib.import_module(f"fpselberg.{fpselberg._EXPORTS[name]}")
        assert obj is vars(module)[name], name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from fpselberg import *", namespace)
    assert all(namespace[name] is getattr(fpselberg, name) for name in fpselberg.__all__)
    assert set(fpselberg.__all__) <= set(dir(fpselberg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fpselberg.no_such_name
    assert not hasattr(fpselberg, "no_such_name")
