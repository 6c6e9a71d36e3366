"""Every private helper and constant of the engine is used.

A function, method, class or module-level name whose name starts with an
underscore is internal to ``highwater``, so some other line of
``src/highwater`` must read it; one that nothing reads is dead code left
behind by a refactor, such as a table whose last reader went.  Dunder
names are called or read by Python itself and are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "highwater"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_private_definitions_are_referenced():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:  # module-level constants
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [f"{path.name}:{node.lineno} {t.id}" for t in targets
                        if isinstance(t, ast.Name) and _private(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if _private(node.name):
                    defined.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [d for d in defined if d.split()[-1] not in used] == []
