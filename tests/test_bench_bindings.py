"""The benchmark's traced run wraps fsrkit functions at the modules that call them.

bench/tracing.py names each traced function and every module binding its
callers look up. A refactor that drops or rebinds one of those names would
make the traced run fail; this test fails first. Some bindings outlive their
calls: fib2gal reduces from ANF masks, so the tree stages it still binds for
the traced run are never reached.
"""

import importlib
import importlib.util
import pathlib

from fsrkit import cli, expr, fib2gal, stp

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("cli", "expr", "fib", "fib2gal", "gal2fib", "stp")


def load_tracing():
    spec = importlib.util.spec_from_file_location("fsrkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_install_and_record(capsys):
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"fsrkit.{name}") for name in MODULES}
    originals = {
        (b, name): getattr(modules[b], name.split(".")[1], None)
        for name, bindings in tracing.TRACED.items()
        for b in bindings
    }
    tracer = tracing.Tracer()
    patches = []
    try:
        patches = tracer.install(modules)
        rc = cli.main(["fib2gal", str(FIXTURES / "fib4_debruijn.fsr"),
                       "--budget", "2", "--seed", "1", "--minimize", "--emit", "all"])
    finally:
        tracing.Tracer.uninstall(patches)
    capsys.readouterr()
    assert rc == 0
    calls, _, _ = tracer.summary()
    # the pipeline reaches every stage it still has through its traced binding
    for name in ("cli.main", "cli.parse_fsr_file", "fib.fib_transition",
                 "fib2gal.enumerate_equivalents", "fib2gal.conjugate",
                 "fib2gal.select_minimal", "fib2gal.reduce_candidate", "expr.render"):
        assert calls[name] > 0, name
    for (b, name), original in originals.items():
        assert getattr(modules[b], name.split(".")[1]) is original


def test_minimize_never_reaches_the_tree_path(monkeypatch, capsys):
    """The winner's costs come from its ANF masks and its logic from the
    tree builder, so the golden holds with the old tree stages disabled."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the tree path was reached")

    tree_stages = {expr: ("substitute", "gate_cost"),
                   stp: ("coordinate_structure", "restrict_support", "synthesize_expr")}
    for module, names in tree_stages.items():
        for name in names:
            monkeypatch.setattr(module, name, unreachable)
            monkeypatch.setattr(fib2gal, name, unreachable)
    rc = cli.main(["fib2gal", str(FIXTURES / "fib4_debruijn.fsr"),
                   "--budget", "100", "--seed", "1", "--minimize", "--emit", "all"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out == (GOLDEN / "fib4_budget100_seed1_minimize.out").read_text()


def test_galois_file_reaches_galois_transition(capsys):
    """cli calls galois_transition on a Galois file, so its binding is traced
    for a call, not only for its import."""
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"fsrkit.{name}") for name in MODULES}
    tracer = tracing.Tracer()
    patches = []
    try:
        patches = tracer.install(modules)
        rc = cli.main(["to-matrix", str(FIXTURES / "gal3_two_attractors.fsr")])
    finally:
        tracing.Tracer.uninstall(patches)
    assert (rc, capsys.readouterr().out) == (0, "d8[5 3 7 6 4 1 8 7]\n")
    calls, _, _ = tracer.summary()
    assert calls["stp.galois_transition"] > 0
