"""Walk a 4-stage Fibonacci FSR through the Galois construction.

We start from a single feedback function, lift it to the delta-notation
state space, classify the state/successor pairs by their output transition,
and conjugate by a partition-preserving permutation to obtain an equivalent
Galois register. Everything stays exact: matrices are index sequences.
"""

from fsrkit import (
    PermutationTransform,
    classify_pairs,
    conjugate,
    fib_transition,
    format_delta,
    parse,
    simulate,
    structure_matrix,
    transition_to_delta,
)

N = 4
FEEDBACK = "(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3)) | (!x1 & !x2 & !x3 & !x4)"

print("feedback:", FEEDBACK)

# The structure matrix is the truth table in canonical-vector form; the
# transition matrix then follows from the shift law.
M = structure_matrix(parse(FEEDBACK, N), N)
print("M_f =", format_delta(2, M.rows))

L_f = fib_transition(M)
print("L_f =", transition_to_delta(L_f))

# Pair classes: how each state's output bit relates to its successor's.
# Each class has exactly 2^(n-2) members, which is what makes the
# half-preserving relabelings below line up.
pc = classify_pairs(L_f)
for name, pairs in [("1->1", pc.s11), ("1->0", pc.s10),
                    ("0->1", pc.s01), ("0->0", pc.s00)]:
    print(f"S_{name}: {list(pairs)}")

# Any permutation mapping the first half of the state indices onto itself
# produces an equivalent Galois register by conjugation. This particular
# one pairs the classes member by member.
PI = (1, 3, 2, 4, 7, 5, 6, 8, 14, 9, 12, 10, 16, 11, 15, 13)
pi = PermutationTransform(N, PI)
L_g = conjugate(L_f, pi)
print("L_g =", transition_to_delta(L_g))

# Same output stream, relabeled start state.
print("L_f from state 1:  ", simulate(L_f, 1, 16))
print(f"L_g from state {pi(1)}:  ", simulate(L_g, pi(1), 16))
