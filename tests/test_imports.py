"""Every name that a library module imports is used in that module, so a
deletion cannot leave an import behind.  __init__ re-exports its imports
and is not checked."""

import ast
from pathlib import Path

import pytest

import qcatalan

MODULES = sorted(
    path
    for path in Path(qcatalan.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


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
