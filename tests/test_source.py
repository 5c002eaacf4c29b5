"""Checks on the library's source text: no private module-level function,
class or assigned name of src/safnet is left that nothing in src/ reads."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "safnet"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute, an import or
    a `global` declaration, outside the top-level definition of that name
    itself. Assigning a name does not read it. Docstrings are string
    constants, so the names they mention do not count."""
    names = set()
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Global):
                refs.update(node.names)
        if isinstance(stmt, DEFS):
            refs.discard(stmt.name)
        names |= refs
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module defines at top level: its functions and
    classes, and the names its assignments bind."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_dead_private_definitions(module):
    used = set().union(*(referenced_names(tree) for tree in TREES.values()))
    dead = [name for name in private_definitions(TREES[module]) if name not in used]
    assert dead == [], f"{module} defines {dead}, which nothing in src/ uses"


def test_assigned_name_is_read_by_a_load_or_a_global():
    tree = ast.parse("_stored = 1\n_loaded: int = 2\n_declared = 3\n"
                     "def f():\n    global _declared\n    _stored = _loaded\n")
    assert private_definitions(tree) == ["_stored", "_loaded", "_declared"]
    assert {"_loaded", "_declared"} <= referenced_names(tree)
    assert "_stored" not in referenced_names(tree)
