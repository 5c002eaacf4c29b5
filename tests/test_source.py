"""Checks on the library's source text: no private module-level function or
class of src/safnet is left that nothing in src/ uses."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "safnet"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import,
    outside the top-level definition of that name itself. Docstrings are
    string constants, so the names they mention do not count."""
    names = set()
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
        if isinstance(stmt, DEFS):
            refs.discard(stmt.name)
        names |= refs
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, DEFS) and stmt.name.startswith("_")
            and not stmt.name.startswith("__")]


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_dead_private_definitions(module):
    used = set().union(*(referenced_names(tree) for tree in TREES.values()))
    dead = [name for name in private_definitions(TREES[module]) if name not in used]
    assert dead == [], f"{module} defines {dead}, which nothing in src/ uses"
