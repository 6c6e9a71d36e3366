"""Every private helper of the engine is used.

A function, method or class whose name starts with an underscore is
internal to ``highwater``, so some other line of ``src/highwater`` must
name it; one that nothing names is dead code left behind by a refactor.
Dunder methods are called by Python itself and are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "highwater"


def test_private_definitions_are_referenced():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [d for d in defined if d.split()[-1] not in used] == []
