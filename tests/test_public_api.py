"""Every name the package exports has a caller outside the tests.

Library code that only tests call belongs in the tests.  A name counts as
used when some file reads it: a load of the name or of an attribute by that
name, in the package itself, in a demo, or in a benchmark script (not the
frozen copy of the package under benchmarks/).  Definitions, imports and the
strings of ``__all__`` are not reads.
"""

import ast
from pathlib import Path

import fpselberg

ROOT = Path(__file__).resolve().parents[1]
USERS = (ROOT / "src" / "fpselberg", ROOT / "demos", ROOT / "benchmarks")


def _reads(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_read_outside_the_tests():
    read = set().union(*(_reads(path) for folder in USERS for path in sorted(folder.glob("*.py"))))
    assert sorted(set(fpselberg.__all__) - read) == []
