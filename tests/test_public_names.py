"""``ringcodes.__all__`` lists every name that ``__init__.py`` imports,
each once, and nothing else, and every entry resolves: a name deleted
from a module cannot linger in ``__all__``.  A stdlib ``ast`` check, so
it needs no linter."""

import ast
from pathlib import Path

import ringcodes

INIT = Path(__file__).resolve().parent.parent / "src" / "ringcodes" / "__init__.py"
TREE = ast.parse(INIT.read_text(), str(INIT))


def _all_entries() -> list:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py assigns no __all__")


def _imported() -> list:
    return [
        alias.asname or alias.name
        for node in TREE.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


def test_all_has_no_duplicates():
    entries = _all_entries()
    assert sorted({e for e in entries if entries.count(e) > 1}) == []


def test_every_all_entry_resolves():
    assert [e for e in _all_entries() if not hasattr(ringcodes, e)] == []


def test_all_is_exactly_the_imported_names():
    entries, imported = set(_all_entries()), set(_imported())
    assert sorted(entries - imported) == []
    assert sorted(imported - entries) == []
