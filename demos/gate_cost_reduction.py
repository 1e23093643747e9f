"""Pick the cheapest equivalent Galois register under the 90nm gate table.

All (2^(n-1))!^2 partition-preserving relabelings of a Fibonacci register
give equivalent Galois registers, but their update logic differs wildly.
We stream the candidates for a 3-stage de Bruijn register, reduce each
coordinate to its true support, and keep the one with the fewest dependent
variables, breaking ties by synthesized gate area (90nm cell library).
"""

from fsrkit import (
    StructureMatrix,
    enumerate_equivalents,
    fib_transition,
    gate_cost,
    render,
    select_minimal,
    transition_to_delta,
)
from fsrkit.fib2gal import reduce_candidate

L_f = fib_transition(StructureMatrix(3, (2, 2, 1, 2, 1, 1, 2, 1)))
print("source L_f =", transition_to_delta(L_f))

# Sample a few candidates to see how spread out the costs are.
costs = []
for cand in enumerate_equivalents(L_f):
    r = reduce_candidate(cand.matrix)
    costs.append((r.support_sum, r.area_um2, r.gate_count))
print(f"{len(costs)} candidates")
print("support sums range:", min(c[0] for c in costs), "..", max(c[0] for c in costs))
print("areas range (um^2):", min(c[1] for c in costs), "..", max(c[1] for c in costs))

best = select_minimal(enumerate_equivalents(L_f))
print("selected L_g =", transition_to_delta(best.candidate.matrix))
r = best.reduction
print(f"support_sum={r.support_sum} area={r.area_um2:g}um^2 "
      f"delay={r.delay_ps:g}ps gates={r.gate_count}")
for k, (e, s) in enumerate(zip(r.updates, r.supports), start=1):
    cost = gate_cost(e)
    print(f"  z{k}' = {render(e)}   support={s} area={cost.area_um2:g}")
