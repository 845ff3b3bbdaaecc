"""The package's exports: ``latentlab.__all__`` and the names that
``latentlab/__init__.py`` imports must agree, so that removing a function
from a module also removes it from both."""

import ast
from pathlib import Path

import latentlab


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(latentlab.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    assert [name for name in latentlab.__all__ if not hasattr(latentlab, name)] == []


def test_every_imported_public_name_is_exported():
    assert sorted(imported_public_names() - set(latentlab.__all__)) == []
    assert len(set(latentlab.__all__)) == len(latentlab.__all__)
