"""The engine imports nothing outside the standard library.

``numpy`` or ``sympy`` may be installed where the tests run, so a stray
import of either would pass every other test.  The same check keeps the
engine off the brute-force references of ``tests/oracle.py``: neither
``oracle`` nor ``tests`` is a standard-library module.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "highwater"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = sorted({n.split(".")[0] for n in names}
                     - sys.stdlib_module_names)
    assert outside == []

