"""The benchmark's traced run wraps fsrkit functions at the modules that call them.

bench/tracing.py names each traced function and every module binding its
callers look up. A refactor that drops or rebinds one of those names would
make the traced run fail; this test fails first.
"""

import importlib
import importlib.util
import pathlib

from fsrkit import cli

from conftest import FIXTURES

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
                       "--budget", "2", "--seed", "1", "--minimize"])
    finally:
        tracing.Tracer.uninstall(patches)
    capsys.readouterr()
    assert rc == 0
    calls, _, _ = tracer.summary()
    # the reduction pipeline reaches every stage through its traced binding
    for name in ("fib2gal.reduce_candidate", "stp.coordinate_structure",
                 "stp.restrict_support", "stp.synthesize_expr", "expr.anf_to_expr",
                 "expr.substitute", "expr.gate_cost"):
        assert calls[name] > 0, name
    for (b, name), original in originals.items():
        assert getattr(modules[b], name.split(".")[1]) is original
