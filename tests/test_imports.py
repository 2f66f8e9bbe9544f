"""Every name that a library module imports is used in that module, so a
deletion cannot leave an import behind.  __init__ re-exports its imports
and is not checked.  Every private module-level name that a library module
defines is used by library code, so no helper lives on for tests alone;
a public function or class that no library code uses must be listed with
the reason it stays."""

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


def _unreferenced(sources: dict[str, str]) -> list[tuple[str, str, ast.stmt]]:
    """(module, name, statement) for each module-level function, class or
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
            users = [refs for _, other, refs in statements if other is not stmt]
            if not any(name in refs for refs in users):
                unused.append((module, name, stmt))
    return unused


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """'<module>.<name>' for each unreferenced private name."""
    return sorted(
        f"{module}.{name}"
        for module, name, _ in _unreferenced(sources)
        if name.startswith("_") and not name.startswith("__")
    )


def _unused_public_names(sources: dict[str, str]) -> list[str]:
    """'<module>.<name>' for each unreferenced public function or class."""
    return sorted(
        f"{module}.{name}"
        for module, name, stmt in _unreferenced(sources)
        if not name.startswith("_") and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    )


def test_the_check_sees_an_unused_private_name():
    a = "def _used(): pass\ndef _loop(n): return _loop(n - 1)\n_LIMIT = 3\n"
    b = "from .a import _used\n_used()\ndef f(): return _Helper\nclass _Helper: pass\n"
    assert _unused_private_names({"a": a, "b": b}) == ["a._LIMIT", "a._loop"]
    # without b, _used is referenced by no other module
    assert _unused_private_names({"a": a + "_loop(_LIMIT)\n"}) == ["a._used"]


def test_every_private_name_is_used_by_library_code():
    sources = {path.stem: path.read_text("utf-8") for path in LIBRARY}
    assert _unused_private_names(sources) == []


# Public functions and classes that no library code uses, and why each stays.
# __init__ is left out of the sources: re-exporting a name is not using it.
UNUSED_PUBLIC = {
    "congruence.verify_reduction_chain": "becomes a suite in the benchmark refresh (ROADMAP item 3)",
    "cyclotomic.CycloField": "bench/tracer.py OPERATORS wraps its methods; part of __all__",
    "cyclotomic.poly_xgcd": "wrapped by bench/tracer.py SPANS; the oracle for CycloElem.inv",
    "qcomb.central_sum": "wrapped by bench/tracer.py SPANS",
    "qcomb.chain_info": "the walk's counters, for the library counters of ROADMAP item 7",
    "rootid.compute_auxiliaries": "wrapped by bench/tracer.py SPANS",
}


def test_the_check_sees_an_unused_public_name():
    a = "def used(): pass\ndef loop(n): return loop(n - 1)\nclass Orphan: pass\nLIMIT = 3\n"
    b = "from .a import used\ndef f(): return used() + _g()\ndef _g(): pass\n"
    # f is used by nothing either; LIMIT is an assignment, and _g is private
    assert _unused_public_names({"a": a, "b": b}) == ["a.Orphan", "a.loop", "b.f"]
    assert _unused_public_names({"a": a + "Orphan(loop(LIMIT))\n"}) == ["a.used"]


def test_every_public_name_is_used_by_library_code_or_listed():
    sources = {path.stem: path.read_text("utf-8") for path in MODULES}
    assert _unused_public_names(sources) == sorted(UNUSED_PUBLIC)
