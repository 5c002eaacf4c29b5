"""Checks on the library's source text: no private module-level function,
class or assigned name of src/safnet is left that nothing in src/ reads, no
public top-level function or class either unless UNREAD_PUBLIC names it
with its reason, no method or property of a class either unless it is a
dunder, and every file is written by one function and every container
opened by one reader."""

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


def method_definitions(tree: ast.Module) -> list[str]:
    """Class.name of every method and property that a class of a module
    defines, a nested class's too, leaving out the dunders, which Python
    itself calls."""
    return [f"{cls.name}.{stmt.name}" for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def public_definitions(tree: ast.Module) -> list[str]:
    """The public functions and classes a module defines at top level."""
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, DEFS) and not stmt.name.startswith("_")]


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
USED = set().union(*(referenced_names(tree) for tree in TREES.values()))

# public names that nothing in src/ reads, each kept for a reason outside it
STANDALONE_OP = ("a standalone encoder op: the autodiff gradient checks and "
                 "the benchmark's per-op timings run it, the fused stages "
                 "replace it in training")
UNREAD_PUBLIC = {
    "temporal_conv": STANDALONE_OP,
    "depthwise_spatial_conv": STANDALONE_OP,
    "pointwise_conv": STANDALONE_OP,
    "batch_norm": STANDALONE_OP,
    "avg_pool_time": STANDALONE_OP,
    "dropout": STANDALONE_OP,
    "write_recording": "the SAFR writer that read_recording pairs with",
    "preprocess_pipeline": "the benchmark's preprocessing entry point",
}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_dead_private_definitions(module):
    dead = [name for name in private_definitions(TREES[module]) if name not in USED]
    assert dead == [], f"{module} defines {dead}, which nothing in src/ uses"


@pytest.mark.parametrize("module", sorted(TREES))
def test_public_definitions_are_read_in_src(module):
    dead = [name for name in public_definitions(TREES[module])
            if name not in USED and name not in UNREAD_PUBLIC]
    assert dead == [], (f"{module} defines {dead}, which nothing in src/ uses; "
                        f"delete them or name them in UNREAD_PUBLIC")


@pytest.mark.parametrize("module", sorted(TREES))
def test_methods_are_read_in_src(module):
    dead = [name for name in method_definitions(TREES[module])
            if name.rpartition(".")[2] not in USED]
    assert dead == [], (f"{module} defines {dead}, which nothing in src/ "
                        f"reads; delete them")


def test_method_definitions_skip_dunders_and_reach_nested_classes():
    tree = ast.parse("class A:\n    def __init__(self): pass\n"
                     "    @property\n    def size(self): pass\n"
                     "    def _step(self): pass\n"
                     "    class B:\n        async def run(self): pass\n"
                     "def f(): pass\n")
    assert method_definitions(tree) == ["A.size", "A._step", "B.run"]


def test_unread_public_names_are_defined_and_unread():
    defined = {name for tree in TREES.values() for name in public_definitions(tree)}
    assert set(UNREAD_PUBLIC) <= defined - USED


def test_assigned_name_is_read_by_a_load_or_a_global():
    tree = ast.parse("_stored = 1\n_loaded: int = 2\n_declared = 3\n"
                     "def f():\n    global _declared\n    _stored = _loaded\n")
    assert private_definitions(tree) == ["_stored", "_loaded", "_declared"]
    assert {"_loaded", "_declared"} <= referenced_names(tree)
    assert "_stored" not in referenced_names(tree)


# methods that write a whole file without an open() in sight
WRITE_METHODS = {"write_bytes", "write_text", "tofile"}


def file_calls(tree: ast.Module) -> list[tuple[str, str, str | None]]:
    """(qualified name of the enclosing function or class, callee, mode) of
    every call in a module that opens or writes a file: open() and io.open()
    with their mode ("r" when left out, None when it is not a string
    constant), os.open() and the WRITE_METHODS, which have no mode (None)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, DEFS):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                owner = (func.value.id if isinstance(func, ast.Attribute)
                         and isinstance(func.value, ast.Name) else None)
                if ((isinstance(func, ast.Name) and func.id == "open")
                        or (owner == "io" and func.attr == "open")):
                    given = (child.args[1:2]
                             + [k.value for k in child.keywords if k.arg == "mode"])
                    mode = given[0] if given else ast.Constant("r")
                    found.append((scope, "open", mode.value if isinstance(
                        mode, ast.Constant) and isinstance(mode.value, str) else None))
                elif owner == "os" and func.attr == "open":
                    found.append((scope, "os.open", None))
                elif isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
                    found.append((scope, func.attr, None))
            visit(child, inner)

    visit(tree, "")
    return found


def writes(mode: str | None) -> bool:
    return mode is None or any(ch in mode for ch in "wax+")


def test_datamodel_write_file_is_the_only_file_writer():
    writers = [(module, scope, callee) for module, tree in TREES.items()
               for scope, callee, mode in file_calls(tree) if writes(mode)]
    assert writers == [("datamodel.py", "write_file", "os.open")]


def test_container_reader_is_the_only_binary_reader():
    readers = [(module, scope) for module, tree in TREES.items()
               for scope, callee, mode in file_calls(tree)
               if callee == "open" and (mode is None or "b" in mode)]
    assert readers == [("datamodel.py", "ContainerReader.__init__")]


def test_file_calls_find_modes_and_scopes():
    tree = ast.parse(
        "import io, os\n"
        "def f(p, m):\n    open(p)\n    open(p, 'rb')\n    io.open(p, mode='a')\n"
        "    open(p, m)\n    os.open(p, 0)\n"
        "class R:\n    def g(self, p, a):\n        p.write_bytes(b'')\n"
        "        a.tofile(p)\n")
    assert file_calls(tree) == [
        ("f", "open", "r"), ("f", "open", "rb"), ("f", "open", "a"),
        ("f", "open", None), ("f", "os.open", None),
        ("R.g", "write_bytes", None), ("R.g", "tofile", None)]
    assert [writes(mode) for *_, mode in file_calls(tree)] == [
        False, False, True, True, True, True, True]
