"""Bad input to fsrkit is refused with a ValueError, in the library and the CLI.

`expr.ParseError` is a ValueError that also carries the position in the
text, so a caller catches any refusal with one `except ValueError`, and
`cli.main` turns each into `error: ...` and exit code 2. A few raises are
invariants or type checks, not refusals of input; they are listed by the
function that raises them.
"""

import ast
import builtins
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fsrkit").glob("*.py"))

REFUSALS = {"ValueError", "ParseError"}
#: (module, function, exception) -> how many raises of it that function holds
NOT_REFUSALS = {
    ("gal2fib", "min_stage_fibonacci", "AssertionError"): 2,
    ("expr", "_fold", "TypeError"): 1,
    ("expr", "render", "TypeError"): 1,
    # the value classes' base refuses assignment and deletion (its __delattr__)
    ("expr", "__setattr__", "AttributeError"): 1,
}


def raise_sites(tree: ast.Module) -> list[tuple[str, str]]:
    """(innermost enclosing function, name of what is raised) per raise."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            sites.append((function, "<re-raise>" if exc is None else ast.unparse(exc)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sites


def class_bases(tree: ast.Module) -> dict[str, list[str]]:
    """The names of each class's bases, as written."""
    return {node.name: [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def builtin_exception_roots(name: str, classes: dict[str, list[str]]) -> set[type]:
    """The builtin exception classes that the class called name derives from."""
    if name in classes:
        return set().union(*(builtin_exception_roots(b, classes) for b in classes[name]))
    obj = getattr(builtins, name, None)
    return {obj} if isinstance(obj, type) and issubclass(obj, BaseException) else set()


def handled(function: ast.FunctionDef) -> list[list[str]]:
    """The exception names of each `except` clause in function."""
    clauses = []
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            clauses.append([ast.unparse(t) for t in types if t is not None])
    return clauses


def test_helpers_on_a_known_snippet():
    tree = ast.parse(
        "class E(KeyError): pass\nclass F(E): pass\nclass G(m.ParseError): pass\n"
        "class H(ValueError): pass\nclass K: pass\n"
        "def f(x):\n"
        "    def g():\n        raise TypeError('t')\n"
        "    try:\n        raise ValueError\n"
        "    except (ValueError, OSError):\n        raise\n"
        "raise E('e') from None\n"
    )
    assert raise_sites(tree) == [
        ("g", "TypeError"), ("f", "ValueError"), ("f", "<re-raise>"), ("<module>", "E")]
    classes = class_bases(tree)
    assert classes["G"] == ["ParseError"]
    assert builtin_exception_roots("F", classes) == {KeyError}
    assert builtin_exception_roots("H", classes) == {ValueError}
    assert builtin_exception_roots("K", classes) == set()
    function = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
    assert handled(function) == [["ValueError", "OSError"]]


def test_every_raise_is_a_refusal_or_listed():
    others = collections.Counter()
    for path in SOURCES:
        for function, name in raise_sites(ast.parse(path.read_text())):
            if name not in REFUSALS:
                others[path.stem, function, name] += 1
    assert dict(others) == NOT_REFUSALS


def test_every_exception_class_is_a_value_error():
    classes = {}
    for path in SOURCES:
        classes.update(class_bases(ast.parse(path.read_text())))
    roots = {name: builtin_exception_roots(name, classes) for name in classes}
    exceptions = {name: r for name, r in roots.items() if r}
    assert "ParseError" in exceptions
    bad = {name for name, r in exceptions.items() if not all(issubclass(c, ValueError) for c in r)}
    assert not bad, f"exception classes outside ValueError: {sorted(bad)}"


def test_main_catches_value_and_os_errors():
    tree = ast.parse((ROOT / "src" / "fsrkit" / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert handled(main) == [["ValueError", "OSError"]]
