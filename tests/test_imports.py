"""Every name that a library module imports is used in that module, so a
deletion cannot leave an import behind.  __init__ re-exports its imports
and is not checked.  Every private module-level name that a library module
defines is used by library code, so no helper lives on for tests alone."""

import ast
from pathlib import Path

import pytest

import qcatalan

LIBRARY = sorted(Path(qcatalan.__file__).parent.glob("*.py"))
MODULES = [path for path in LIBRARY if path.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # import a.b binds a; import a.b as c and from a import b as c bind c
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names inside string annotations such as "Poly"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from .cyclotomic import GroupAlgebraElem, _field_sum\n_field_sum(3, ())"
    assert _unused_imports(source) == ["GroupAlgebraElem"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []
    assert _unused_imports("from typing import List\nx: 'List[int]' = []\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text("utf-8")) == [], path.name


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """'<module>.<name>' for each private module-level function, class or
    assignment that no other top-level statement of any source references
    as a Name, an Attribute or an imported name; a self-reference (a
    recursive call) does not count."""
    statements = []  # (module, statement, the names it references)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            statements.append((module, stmt, refs))
    unused = []
    for module, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_") or name.startswith("__"):
                continue
            users = [refs for _, other, refs in statements if other is not stmt]
            if not any(name in refs for refs in users):
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_the_check_sees_an_unused_private_name():
    a = "def _used(): pass\ndef _loop(n): return _loop(n - 1)\n_LIMIT = 3\n"
    b = "from .a import _used\n_used()\ndef f(): return _Helper\nclass _Helper: pass\n"
    assert _unused_private_names({"a": a, "b": b}) == ["a._LIMIT", "a._loop"]
    # without b, _used is referenced by no other module
    assert _unused_private_names({"a": a + "_loop(_LIMIT)\n"}) == ["a._used"]


def test_every_private_name_is_used_by_library_code():
    sources = {path.stem: path.read_text("utf-8") for path in LIBRARY}
    assert _unused_private_names(sources) == []
