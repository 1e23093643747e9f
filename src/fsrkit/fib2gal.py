"""Fibonacci to Galois: pair classification, conjugation, enumeration, selection.

Every same-stage equivalent Galois FSR arises by relabeling states with a
permutation that fixes the output partition (first half onto first half);
the new matrix satisfies L_g . pi = pi . L as column rewiring.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .expr import BoolExpr, Cost, _Value, _anf_cost, _anf_delay, anf_to_expr
from .fib import is_fibonacci
from .stp import (
    PermutationTransform,
    TransitionMatrix,
    _anf_support,
    _coordinate_tables,
    _moebius,
    _var_masks,
    _weight_masks,
)
# not called here: bench/tracing.py (TRACED) wraps these at this module's
# bindings, and its traced run fails without them
from .expr import gate_cost, substitute
from .stp import coordinate_structure, restrict_support, synthesize_expr


class PairClasses(_Value):
    """(state, successor) index pairs grouped by the output transition."""

    __slots__ = __match_args__ = ("s11", "s10", "s01", "s00")

    def __init__(self, s11: tuple, s10: tuple, s01: tuple, s00: tuple):
        set_s11, set_s10, set_s01, set_s00 = self._setters
        set_s11(self, s11)
        set_s10(self, s10)
        set_s01(self, s01)
        set_s00(self, s00)


def classify_pairs(L: TransitionMatrix) -> PairClasses:
    if L.n < 2:
        raise ValueError("pair classification needs at least 2 registers")
    half = 1 << (L.n - 1)
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {
        (1, 1): [], (1, 0): [], (0, 1): [], (0, 0): []
    }
    for i in range(1, (1 << L.n) + 1):
        j = L.column(i)
        key = (1 if i <= half else 0, 1 if j <= half else 0)
        buckets[key].append((i, j))
    return PairClasses(
        s11=tuple(buckets[(1, 1)]),
        s10=tuple(buckets[(1, 0)]),
        s01=tuple(buckets[(0, 1)]),
        s00=tuple(buckets[(0, 0)]),
    )


def conjugate(L: TransitionMatrix, pi: PermutationTransform) -> TransitionMatrix:
    """Relabel states by pi: new column pi(i) is pi(old column i)."""
    if pi.n != L.n:
        raise ValueError("permutation and matrix sizes differ")
    if not pi.is_partition_preserving():
        raise ValueError("permutation does not preserve the output partition")
    perm = pi.perm
    cols = [0] * len(perm)
    for p, c in zip(perm, L.cols):
        cols[p - 1] = perm[c - 1]
    return TransitionMatrix(L.n, tuple(cols))


class GaloisCandidate(_Value):
    __slots__ = __match_args__ = ("matrix", "transform")

    def __init__(self, matrix: TransitionMatrix, transform: PermutationTransform):
        set_matrix, set_transform = self._setters
        set_matrix(self, matrix)
        set_transform(self, transform)


def partition_permutations(n: int) -> Iterator[PermutationTransform]:
    """All partition-preserving permutations, (top half) x (bottom half) lexicographic."""
    half = 1 << (n - 1)
    for top in itertools.permutations(range(1, half + 1)):
        for bottom in itertools.permutations(range(half + 1, 2 * half + 1)):
            yield PermutationTransform._trusted(n, top + bottom)


def sampled_permutations(n: int, count: int, seed: int) -> Iterator[PermutationTransform]:
    """`count` uniform partition-preserving permutations, drawn with replacement."""
    import random  # here, so that the commands that draw nothing do not load it

    half = 1 << (n - 1)
    rng = random.Random(seed)
    for _ in range(count):
        top = list(range(1, half + 1))
        bottom = list(range(half + 1, 2 * half + 1))
        rng.shuffle(top)
        rng.shuffle(bottom)
        yield PermutationTransform._trusted(n, tuple(top + bottom))


def search_plan(n: int, budget: int | None) -> tuple[bool, int]:
    """Whether a search of budget permutations (None: no limit) is exhaustive,
    and how many permutations it examines.

    The count (2^(n-1))!^2 is multiplied out only until it passes the budget,
    so a sampled search never builds it in full.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    total = 1
    for k in range(1, (1 << (n - 1)) + 1):
        total *= k * k
        if budget is not None and total > budget:
            return False, budget
    return True, total


def enumerate_equivalents(
    L_f: TransitionMatrix,
    budget: int | None = None,
    seed: int | None = None,
) -> Iterator[GaloisCandidate]:
    """Conjugates of L_f by partition-preserving permutations, skipping L_f itself.

    Exhaustive when the permutation count fits in the budget; otherwise a
    deterministic seeded sample of `budget` permutations. budget=None searches
    all of them, which is refused for n > 3: at n = 4 there are 1,625,702,400.
    """
    if not is_fibonacci(L_f):
        raise ValueError("source matrix is not Fibonacci")
    if budget is None and L_f.n > 3:
        raise ValueError(f"(2^{L_f.n - 1})!^2 permutations are too many to search "
                         "without a limit: give a budget and a seed")
    if search_plan(L_f.n, budget)[0]:
        source = partition_permutations(L_f.n)
    elif seed is None:
        raise ValueError(f"(2^{L_f.n - 1})!^2 permutations exceed budget {budget}: "
                         "a seed is required")
    else:
        source = sampled_permutations(L_f.n, budget, seed)
    for pi in source:
        L_g = conjugate(L_f, pi)
        if L_g.cols != L_f.cols:
            yield GaloisCandidate(L_g, pi)


class CountAudit(_Value):
    """Exhaustive count of conjugates."""

    __slots__ = __match_args__ = ("permutations", "distinct_galois")

    def __init__(self, permutations: int, distinct_galois: int):
        set_permutations, set_distinct_galois = self._setters
        set_permutations(self, permutations)
        set_distinct_galois(self, distinct_galois)  # but the source


def count_distinct_equivalents(L_f: TransitionMatrix) -> CountAudit:
    """Audit the (2^(n-1))!^2 - 1 count by exhaustion, which
    enumerate_equivalents refuses for n > 3.

    The count holds for every Fibonacci L_f: p and q give one conjugate
    exactly when pi = q^-1 p commutes with L_f. Such a pi preserves the
    output partition, so it keeps each state's output sequence, and a
    Fibonacci state is its next n output bits: pi fixes every state."""
    galois = {c.matrix.cols for c in enumerate_equivalents(L_f)}
    return CountAudit(
        permutations=search_plan(L_f.n, None)[1],
        distinct_galois=len(galois),
    )


class Reduction(_Value):
    """A candidate's update functions as ANF masks, with their cost totals.

    anfs[k - 1] is coordinate k's ANF over x1..xn: bit u is the monomial of
    the variables that are 1 on state u + 1 (see stp._moebius). Its support
    is the variables that occur in it. The costs are those of `updates`, in
    Cost's units: area in 0.1 um^2, delay in ps.
    """

    __slots__ = __match_args__ = ("n", "anfs", "support_sum", "area", "gate_count")

    def __init__(self, n: int, anfs: tuple, support_sum: int, area: int, gate_count: int):
        set_n, set_anfs, set_support_sum, set_area, set_gate_count = self._setters
        set_n(self, n)
        set_anfs(self, anfs)
        set_support_sum(self, support_sum)
        set_area(self, area)
        set_gate_count(self, gate_count)

    area_um2 = Cost.area_um2

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Each coordinate's support, in increasing index order."""
        return tuple(_anf_support(anf, self.n) for anf in self.anfs)

    @property
    def delay_ps(self) -> int:
        """The coordinates' delays, summed."""
        weights = _weight_masks(self.n)
        return sum([_anf_delay(anf, weights) for anf in self.anfs])

    @property
    def updates(self) -> tuple[BoolExpr, ...]:
        """Each coordinate as an XOR of AND chains over the original variable
        indices, monomials ordered by (degree, indices); computed when read."""
        return tuple(anf_to_expr(anf, self.n) for anf in self.anfs)


class SelectedCandidate(_Value):
    __slots__ = __match_args__ = ("candidate", "reduction")

    def __init__(self, candidate: GaloisCandidate, reduction: Reduction):
        set_candidate, set_reduction = self._setters
        set_candidate(self, candidate)
        set_reduction(self, reduction)


def reduce_candidate(L_g: TransitionMatrix) -> Reduction:
    """Each coordinate's ANF and the gate cost totals, read off its truth
    table; supports, delay and expressions are computed when read."""
    n = L_g.n
    # from a list, not a generator: tuple() of a generator leaves the cyclic
    # GC's allocation count about two higher a call (CPython 3.11), and
    # select_minimal reduces every candidate
    anfs = tuple([_moebius(table, n) for table in _coordinate_tables(L_g)])
    return Reduction(n, anfs, *_anf_cost(anfs, _var_masks(n)))


def select_minimal(candidates: Iterable[GaloisCandidate]) -> SelectedCandidate:
    """Pick the candidate with the fewest dependent variables overall.

    Primary key is the summed support size over coordinates, then total gate
    area, then the column sequence (so parallel folds agree with sequential).
    Each candidate is ranked by its reduction, which builds no expression.
    """
    best: SelectedCandidate | None = None
    best_key: tuple | None = None
    for cand in candidates:
        r = reduce_candidate(cand.matrix)
        key = (r.support_sum, r.area, cand.matrix.cols)
        if best_key is None or key < best_key:
            best_key = key
            best = SelectedCandidate(cand, r)
    if best is None:
        raise ValueError("no candidates to select from")
    return best
