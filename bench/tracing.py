"""Spans around fsrkit's public functions, for the benchmark's traced run.

Each traced function is replaced, at every fsrkit module that binds it, by a
wrapper that records a span (name, start, end, parent) in memory. A
function's self time is its span minus the time covered by its child spans,
so the self times of one command add up to its `cli.main` span. Hot leaf
helpers (encode_state, decode_state, depends_on, output_bit) stay unwrapped.
A call of a traced function from inside its own span (render and substitute
recurse) runs unwrapped, so recursion makes one span, not one per node.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class TraceError(Exception):
    """A traced function or one of its caller bindings is missing."""


# traced function -> the fsrkit modules whose binding its callers look up
# (cli reaches parse and render through the expr module itself)
TRACED = {
    "cli.main": ("cli",),
    "cli.parse_fsr_file": ("cli",),
    "expr.parse": ("expr",),
    "expr.render": ("expr",),
    "expr.substitute": ("fib2gal",),
    "expr.anf_to_expr": ("stp",),
    "expr.gate_cost": ("fib2gal",),
    "stp.structure_matrix": ("cli", "stp"),
    "stp.galois_transition": ("cli",),
    "stp.coordinate_structure": ("fib2gal",),
    "stp.restrict_support": ("fib2gal",),
    "stp.synthesize_expr": ("fib2gal",),
    "stp.format_delta": ("cli", "stp"),
    "stp.transition_from_delta": ("cli",),
    "fib.fib_transition": ("cli",),
    "fib2gal.conjugate": ("cli", "fib2gal"),
    "fib2gal.enumerate_equivalents": ("cli",),
    "fib2gal.reduce_candidate": ("cli", "fib2gal"),
    "fib2gal.select_minimal": ("cli",),
    "gal2fib.all_output_sequences": ("gal2fib",),
    "gal2fib.derived_digraph": ("gal2fib",),
    "gal2fib.min_stage_fibonacci": ("cli",),
    "gal2fib.equivalent": ("cli",),
    "gal2fib.simulate": ("cli", "gal2fib"),
}

# generators: their span covers each next() call, not the call that builds them
GENERATORS = {"fib2gal.enumerate_equivalents"}


class Tracer:
    """Spans of one traced pass, plus counters read at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.yielded = 0  # candidates enumerate_equivalents handed out
        self.distinct = 0  # distinct L_g among them, per command
        self.fixed_ratios: list[float] = []  # fixed columns of P / 2^l

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            if self.stack and self.names[self.stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "gal2fib.min_stage_fibonacci":
                cols = result.partial.cols
                self.fixed_ratios.append(sum(c is not None for c in cols) / len(cols))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                seen = set()
                try:
                    while True:
                        idx = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        self.yielded += 1
                        seen.add(item.matrix.cols)
                        yield item
                finally:
                    self.distinct += len(seen)

            return spans()

        return traced

    def install(self, modules: dict) -> list:
        """Patch the caller bindings of each traced function; returns the undo list.

        A traced function that no longer exists, or a declared binding that
        no longer holds it, raises TraceError: its metrics would silently
        read 0, so the layer list here must follow the code on purpose.
        """
        patches = []
        for name, bindings in TRACED.items():
            defining, fname = name.split(".")
            original = getattr(modules[defining], fname, None)
            if original is None:
                raise TraceError(f"fsrkit.{name} is gone")
            wrapper = self.wrap(name, original)
            for b in bindings:
                if getattr(modules[b], fname, None) is not original:
                    raise TraceError(f"fsrkit.{b}.{fname} is not fsrkit.{name}")
                patches.append((modules[b], fname, original))
                setattr(modules[b], fname, wrapper)
        return patches

    @staticmethod
    def uninstall(patches: list) -> None:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    def summary(self) -> tuple[Counter, dict[str, float], float]:
        """Calls and self time per function, and the summed root spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        roots = 0.0
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if self.parent[i] < 0:
                roots += dur
        return calls, self_s, roots
