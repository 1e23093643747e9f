"""No fsrkit module, test or demo imports a name it does not use, the
CLI's start-up imports none of the heavy standard modules, and no fsrkit
module but expr names the gate table.

A name counts as used when the module reads it.
The package's `__init__.py` imports only to re-export, so it is not checked.
Names that bench/tracing.py declares bound in a module stay exempt there:
the benchmark's traced run wraps them at that binding even where the module
never calls them.
"""

import ast
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [
    *sorted(p for p in (ROOT / "src" / "fsrkit").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]
TRACING = ROOT / "bench" / "tracing.py"


def traced_bindings() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("fsrkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        (b, name.split(".")[1])
        for name, bindings in module.TRACED.items()
        for b in bindings
    }


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_finds_one():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, re as regex\nfrom a.b import c, d\nprint(c, regex)\n")
    assert unused_imports(tree) == ["d", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    exempt = {name for module, name in traced_bindings() if module == path.stem}
    unused = set(unused_imports(ast.parse(path.read_text()))) - exempt
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_cli_start_up_skips_heavy_modules():
    # dataclasses, with the inspect it loads, and typing took about a third
    # of a fresh `fsrkit gal2fib` on a 3-stage file, and random 1.5-1.8 ms
    # that only a sampled fib2gal search needs; -S keeps the site module's
    # .pth imports out of the check
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fsrkit.cli; "
            "print(sorted({'dataclasses', 'inspect', 'random', 'typing'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


def test_only_expr_names_the_gate_table():
    # the gate model has one home: every other module costs through expr's
    # functions, so its units and gates change in one place
    for path in (ROOT / "src" / "fsrkit").glob("*.py"):
        if path.name == "expr.py":
            continue
        named = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if "GATES" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None), getattr(node, "asname", None))]
        assert not named, f"{path.name} names GATES at lines {named}"
