"""Recover minimal-stage Fibonacci registers from Galois ones.

Two 3-stage Galois systems: one whose output behavior fits in a 2-stage
shift register, and one that genuinely needs all 3 stages. The tool is the
derived digraph over output windows; the register is realizable at window
length l exactly when every window has a unique successor. Next to l stands
q, the fewest stages of any register with the same output sequences: a
Fibonacci register is one of those, so l >= q.
"""

from itertools import islice

from fsrkit import (
    FsrSpec,
    derived_digraph,
    feedback_of,
    format_delta,
    galois_transition,
    min_stage_fibonacci,
    min_stage_galois,
    parse,
    realizable,
    render,
    synthesize_expr,
    transition_to_delta,
)


def show(title, updates):
    print(f"== {title} ==")
    spec = FsrSpec.galois(3, [parse(u, 3) for u in updates])
    L_g = galois_transition(spec)
    print("L_g =", transition_to_delta(L_g))

    result = min_stage_fibonacci(L_g)
    print(f"  l = {result.l}, q = {min_stage_galois(L_g)[0].n}")
    for seq in result.sequences:
        pre, per = ("".join(map(str, bits)) for bits in (seq.preperiod, seq.period))
        print(f"  pre={pre} per={per}")

    # Window lengths below the answer fail the out-degree test.
    for l in range(1, result.l + 1):
        G = derived_digraph(result.sequences, l)
        print(f"  l={l}: realizable={realizable(G)}")

    print("  partial matrix:", format_delta(1 << result.l, result.partial.fixed))
    print(f"  {result.total_completions} completions, e.g.")
    for L_c in islice(result.completions(), 3):
        fb = feedback_of(L_c)
        print(f"    {transition_to_delta(L_c)}  feedback: {render(synthesize_expr(fb))}")
    print()


# Shrinks: the three update functions conspire so that only three distinct
# output sequences appear, all realizable by a 2-stage register.
show("shrinkable system", [
    "z1 | !z2",
    "(z1 & !z2 & z3) | (!z1 & z2)",
    "z1 & (z2 <-> z3)",
])

# Does not shrink: two attractors force window length 3.
show("two-attractor system", [
    "(z1 & !(z2 -> z3)) | (!z1 & z2)",
    "(z1 & (z2 <-> z3)) | !(z1 | (z2 -> z3))",
    "(z1 & (z2 | z3)) | !(z1 | z3)",
])
