"""Every function, method, class and dataclass field in the package has a
reader outside the tests.

A definition in ``src/basketproj/`` must be named somewhere in the package
(as a name, an attribute or an import, ``__init__.py``'s re-exports aside) or
in the benchmark's ``perfbench/*.py``.  A helper that only the tests call
belongs in ``tests/support.py``.  A field of a dataclass must be read there
as an attribute or named there as a string (``getattr``, a span's argument
name); a field that only the tests read is a record nobody keeps.  A module's
imports must each be used in that module.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(trees) -> dict[str, str]:
    """`Class.field` -> `file:line` of every annotated field of a dataclass."""
    return {f"{node.name}.{item.target.id}": f"{path.relative_to(ROOT)}:{item.lineno}"
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def _reads(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_dataclass_field_is_read_outside_the_tests():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    readers = _trees([p for p in package if p.name != "__init__.py"]
                     + sorted((ROOT / "perfbench").glob("*.py")))
    read = _reads(readers)
    unread = {name: where for name, where in _fields(package).items()
              if name.split(".")[1] not in read}
    assert not unread, f"dataclass fields in src/ read only by the tests: {unread}"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_every_module_import_is_used():
    unused = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))).items():
        if path.name == "__init__.py":
            continue
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in _bound_names(node) if name not in names]
    assert not unused, f"imported in src/ but never used there: {unused}"
