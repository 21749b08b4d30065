"""Every function, method and class in the package has a caller outside the tests.

A definition in ``src/basketproj/`` must be named somewhere in the package
(as a name, an attribute or an import, ``__init__.py``'s re-exports aside) or
in the benchmark's ``perfbench/*.py``.  A helper that only the tests call
belongs in ``tests/support.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "basketproj"


def _trees(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(trees) -> dict[str, str]:
    """Name -> `file:line` of every function, method and class, dunders excepted."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: f"{path.relative_to(ROOT)}:{node.lineno}"
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, kinds) and not node.name.startswith("__")}


def _references(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_every_definition_has_a_non_test_caller():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    callers = _trees([p for p in package if p.name != "__init__.py"]
                     + sorted((ROOT / "perfbench").glob("*.py")))
    used = _references(callers)
    unused = {name: where for name, where in _definitions(package).items() if name not in used}
    assert not unused, f"defined in src/ but named only by the tests: {unused}"
