"""Fibonacci to Galois: pair classification, conjugation, enumeration, selection.

Every same-stage equivalent Galois FSR arises by relabeling states with a
permutation that fixes the output partition (first half onto first half);
the new matrix satisfies L_g . pi = pi . L as column rewiring.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .expr import GATES, And, BoolExpr, Xor, anf_to_expr
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


@dataclass(frozen=True)
class PairClasses:
    """(state, successor) index pairs grouped by the output transition."""

    s11: tuple[tuple[int, int], ...]
    s10: tuple[tuple[int, int], ...]
    s01: tuple[tuple[int, int], ...]
    s00: tuple[tuple[int, int], ...]


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


@dataclass(frozen=True)
class GaloisCandidate:
    matrix: TransitionMatrix
    transform: PermutationTransform


def partition_permutations(n: int) -> Iterator[PermutationTransform]:
    """All partition-preserving permutations, (top half) x (bottom half) lexicographic."""
    half = 1 << (n - 1)
    for top in itertools.permutations(range(1, half + 1)):
        for bottom in itertools.permutations(range(half + 1, 2 * half + 1)):
            yield PermutationTransform(n, top + bottom)


def sampled_permutations(n: int, count: int, seed: int) -> Iterator[PermutationTransform]:
    """`count` uniform partition-preserving permutations, drawn with replacement."""
    half = 1 << (n - 1)
    rng = random.Random(seed)
    for _ in range(count):
        top = list(range(1, half + 1))
        bottom = list(range(half + 1, 2 * half + 1))
        rng.shuffle(top)
        rng.shuffle(bottom)
        yield PermutationTransform(n, tuple(top + bottom))


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


@dataclass(frozen=True)
class CountAudit:
    """Exhaustive count of conjugates."""

    permutations: int
    distinct_galois: int  # distinct conjugates different from the source


def count_distinct_equivalents(L_f: TransitionMatrix) -> CountAudit:
    """Audit the (2^(n-1))!^2 - 1 count by exhaustion, which
    enumerate_equivalents refuses for n > 3."""
    galois = {c.matrix.cols for c in enumerate_equivalents(L_f)}
    return CountAudit(
        permutations=search_plan(L_f.n, None)[1],
        distinct_galois=len(galois),
    )


@dataclass(frozen=True)
class Reduction:
    """A candidate's update functions as ANF masks, with their cost totals.

    anfs[k - 1] is coordinate k's ANF over x1..xn: bit u is the monomial of
    the variables that are 1 on state u + 1 (see stp._moebius). Its support
    is the variables that occur in it. The costs are those of `updates`.
    """

    n: int
    anfs: tuple[int, ...]
    support_sum: int
    area_um2: float
    gate_count: int

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Each coordinate's support, in increasing index order."""
        return tuple(_anf_support(anf, self.n) for anf in self.anfs)

    @cached_property
    def delay_ps(self) -> float:
        """The coordinates' delays, summed."""
        weights = _weight_masks(self.n)
        return sum((_anf_delay(anf, weights) for anf in self.anfs), 0.0)

    @cached_property
    def updates(self) -> tuple[BoolExpr, ...]:
        """Each coordinate as an XOR of AND chains over the original variable
        indices, monomials ordered by (degree, indices); built when first read."""
        return tuple(anf_to_expr(anf, self.n) for anf in self.anfs)


@dataclass(frozen=True)
class SelectedCandidate:
    candidate: GaloisCandidate
    reduction: Reduction


# The gate model of synthesized logic, stated once for the reduction.
# A coordinate is written as a left-deep XOR2 chain of its k monomials, in
# increasing degree, and a monomial m as a left-deep chain of |m| - 1 AND2
# gates; the constants are free. The areas and delays are whole numbers, so
# every float sum below is exact and does not depend on its order.

def _anf_gates(anf: int, masks: Sequence[int]) -> tuple[list[int], int, int]:
    """How many monomials each variable occurs in, and the AND2 and XOR2
    counts, of ANF mask anf over len(masks) variables."""
    occurs = [(anf & mask).bit_count() for mask in masks]
    k = anf.bit_count()
    if not k:
        return occurs, 0, 0
    # the constant monomial is the top bit, the all-zeros state
    return occurs, sum(occurs) - k + (anf >> ((1 << len(masks)) - 1)), k - 1


def _area(ands: int, xors: int) -> float:
    return GATES[And][0] * ands + GATES[Xor][0] * xors


def _anf_delay(anf: int, weights: Sequence[int]) -> float:
    """Delay of ANF mask anf's XOR chain, its terms in increasing degree:
    acc = max(acc, term) + XOR2 for each term after the first, where a term
    of degree d is a chain of d - 1 AND2s. Once a degree's first term is
    folded in, acc exceeds that degree's term, so each further monomial of
    the degree adds one XOR2. weights is stp._weight_masks(n)."""
    and_delay, xor_delay = GATES[And][1], GATES[Xor][1]
    n = len(weights) - 1
    acc = None
    for degree in range(n + 1):
        count = (anf & weights[n - degree]).bit_count()
        if not count:
            continue
        term = and_delay * max(degree - 1, 0)
        if acc is None:
            acc = term + xor_delay * (count - 1)
        else:
            acc = max(acc, term) + xor_delay * count
    return 0.0 if acc is None else acc


def reduce_candidate(L_g: TransitionMatrix) -> Reduction:
    """Each coordinate's ANF and the gate cost totals, read off its truth
    table; supports, delay and expressions are built when first read."""
    n = L_g.n
    masks = _var_masks(n)
    # from a list, not a generator: tuple() of a generator leaves the cyclic
    # GC's allocation count about two higher a call (CPython 3.11), and
    # select_minimal reduces every candidate
    anfs = tuple([_moebius(table, n) for table in _coordinate_tables(L_g)])
    support_sum = ands = xors = 0
    for anf in anfs:
        occurs, a, x = _anf_gates(anf, masks)
        support_sum += n - occurs.count(0)
        ands += a
        xors += x
    return Reduction(n, anfs, support_sum, _area(ands, xors), ands + xors)


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
        key = (r.support_sum, r.area_um2, cand.matrix.cols)
        if best_key is None or key < best_key:
            best_key = key
            best = SelectedCandidate(cand, r)
    if best is None:
        raise ValueError("no candidates to select from")
    return best
