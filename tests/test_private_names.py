"""Every private module-level name in fsrkit is read somewhere in fsrkit.

A private name starts with one underscore. It counts as read when some
module of src/fsrkit/ loads it, by its bare name or as a module attribute
(`_expr._fold`). A helper that only its own tests read is dead code here.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fsrkit").glob("*.py"))


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assignments whose name is private."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_finds_an_unread_helper():
    tree = ast.parse("import m\n_A = 1\n_B: int = 2\n__v__ = 3\n"
                     "def _f(): return _A + m._g()\ndef _h(): pass\nclass _K: pass\n")
    assert private_definitions(tree) - reads(tree) == {"_B", "_f", "_h", "_K"}


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    read = set().union(*map(reads, trees.values()))
    unread = {f"{name}: {n}" for name, tree in trees.items()
              for n in private_definitions(tree) - read}
    assert not unread, f"private names nothing in fsrkit reads: {sorted(unread)}"
