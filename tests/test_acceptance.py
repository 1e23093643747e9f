"""Acceptance suite. Each criterion prints exactly one PASS/FAIL line."""

import itertools
import random

import pytest

from fsrkit import (
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    classify_pairs,
    conjugate,
    coordinate_structure,
    count_distinct_equivalents,
    derived_digraph,
    enumerate_equivalents,
    equivalent,
    feedback_of,
    fib_transition,
    min_stage_fibonacci,
    output_sequence,
    parse,
    realizable,
    select_minimal,
    simulate,
    structure_matrix,
)
from fsrkit.fib2gal import reduce_candidate

from conftest import (
    LF4_COLS,
    LG3_SHRINKABLE_COLS,
    LG3_TWO_ATTRACTORS_COLS,
    LG4_COLS,
    MF4_ROWS,
    PI4,
    debruijn3,
)

REFERENCE_FEEDBACK = "(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3))"
PRINTED_T15 = (1, 3, 2, 4, 7, 5, 6, 8, 14, 9, 12, 10, 16, 11, 15)
PRINTED_WORD = (1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1)


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def all_feedbacks(n):
    for mask in range(1 << (1 << n)):
        yield StructureMatrix(
            n, tuple(1 if (mask >> k) & 1 else 2 for k in range(1 << n))
        )


def random_feedback(rng, n):
    return StructureMatrix(n, tuple(rng.choice((1, 2)) for _ in range(1 << n)))


class TestCriterion1:
    def test_1a_structure_matrix(self):
        M = structure_matrix(parse(REFERENCE_FEEDBACK, 4), 4)
        report("1a (structure matrix)", M.rows == MF4_ROWS)

    @pytest.mark.xfail(
        strict=True,
        reason="the two quoted reference values are mutually inconsistent "
               "under the shift law; the transition of this structure matrix "
               "necessarily ends in 16, not 15",
    )
    def test_1a_transition_of_structure_matrix(self):
        L = fib_transition(StructureMatrix(4, MF4_ROWS))
        report("1a (transition)", L.cols == LF4_COLS)

    def test_1b_pair_classes(self):
        pc = classify_pairs(TransitionMatrix(4, LF4_COLS))
        ok = (
            set(pc.s11) == {(3, 6), (1, 2), (2, 4), (4, 8)}
            and set(pc.s10) == {(5, 10), (6, 12), (7, 13), (8, 16)}
            and set(pc.s01) == {(11, 5), (10, 3), (12, 7), (9, 1)}
            and set(pc.s00) == {(15, 14), (14, 11), (13, 9), (16, 15)}
        )
        report("1b", ok)

    def test_1c_conjugation(self):
        pi = PermutationTransform(4, PI4)
        L_g = conjugate(TransitionMatrix(4, LF4_COLS), pi)
        ok = L_g.cols == LG4_COLS and pi.perm[:15] == PRINTED_T15
        report("1c", ok)

    def test_1d_output_word(self):
        seq = output_sequence(TransitionMatrix(4, LF4_COLS), 1)
        rotations = {
            PRINTED_WORD[k:] + PRINTED_WORD[:k] for k in range(16)
        }
        ok = (
            seq.preperiod == ()
            and len(seq.period) == 16
            and seq.period in rotations
        )
        report("1d", ok)

    def test_1e_shrinkable_system(self):
        L_g = TransitionMatrix(3, LG3_SHRINKABLE_COLS)
        r = min_stage_fibonacci(L_g)
        target = fib_transition(structure_matrix(parse("x1 | x2", 2), 2))
        ok = (
            r.l == 2
            and r.window_map == (1, 1, 1, 1, 4, 4, 3, 3)
            and target.cols in {c.cols for c in r.completions()}
        )
        report("1e", ok)

    def test_1f_two_attractor_system(self):
        L_g = TransitionMatrix(3, LG3_TWO_ATTRACTORS_COLS)
        r = min_stage_fibonacci(L_g)
        chosen = TransitionMatrix(3, (1, 4, 6, 8, 2, 3, 5, 8))
        target = parse("(x1 & x2 & x3) | (!x1 & (x2 ^ x3))", 3)
        ok = (
            r.l == 3
            and r.partial.cols == (None, 4, 6, 8, None, 3, None, 8)
            and r.window_map == (3, 2, 4, 3, 6, 6, 8, 8)
            and r.total_completions == 8
            and chosen.cols in {c.cols for c in r.completions()}
            and feedback_of(chosen).rows == structure_matrix(target, 3).rows
        )
        report("1f", ok)


class TestCriterion2:
    def test_conjugation_soundness(self):
        ok = True
        for n in (2, 3):
            perms = list(
                itertools.permutations(range(1, (1 << (n - 1)) + 1))
            )
            half = 1 << (n - 1)
            for M in all_feedbacks(n):
                L_f = fib_transition(M)
                for top in perms:
                    for bottom in perms:
                        pi = PermutationTransform(
                            n, top + tuple(b + half for b in bottom)
                        )
                        if not equivalent(L_f, conjugate(L_f, pi)):
                            ok = False
        rng = random.Random(424)
        for _ in range(50):
            L_f = fib_transition(random_feedback(rng, 4))
            for _ in range(20):
                top = list(range(1, 9))
                bottom = list(range(9, 17))
                rng.shuffle(top)
                rng.shuffle(bottom)
                pi = PermutationTransform(4, tuple(top + bottom))
                if not equivalent(L_f, conjugate(L_f, pi)):
                    ok = False
        report("2", ok)


class TestCriterion3:
    def test_no_two_stage_equivalent(self):
        L3 = debruijn3()
        seqs = {output_sequence(L3, x0) for x0 in range(1, 9)}
        ok = len(seqs) == 8
        for cols in itertools.product(range(1, 5), repeat=4):
            if equivalent(L3, TransitionMatrix(2, cols)):
                ok = False
        report("3", ok)


class TestCriterion4:
    def test_count_audit(self):
        audit = count_distinct_equivalents(debruijn3())
        claimed = 575
        print(
            f"count audit: permutations={audit.permutations} "
            f"distinct_galois={audit.distinct_galois} claimed={claimed}"
        )
        report("4", audit.permutations == 576 and audit.distinct_galois == claimed)


class TestCriterion5:
    def test_class_cardinality(self):
        ok = True
        for n in (2, 3):
            quarter = 1 << (n - 2)
            for M in all_feedbacks(n):
                pc = classify_pairs(fib_transition(M))
                if not (
                    len(pc.s11) == len(pc.s10) == len(pc.s01) == len(pc.s00) == quarter
                ):
                    ok = False
        rng = random.Random(525)
        for _ in range(10_000):
            pc = classify_pairs(fib_transition(random_feedback(rng, 4)))
            if not (len(pc.s11) == len(pc.s10) == len(pc.s01) == len(pc.s00) == 4):
                ok = False
        report("5", ok)


class TestCriterion6:
    def test_minimality_and_reproduction(self):
        rng = random.Random(626)
        ok = True
        for _ in range(100):
            L_g = TransitionMatrix(3, tuple(rng.randint(1, 8) for _ in range(8)))
            r = min_stage_fibonacci(L_g)
            for smaller in range(1, r.l):
                if realizable(derived_digraph(r.sequences, smaller)):
                    ok = False
            for z in range(1, 9):
                seq = output_sequence(L_g, z)
                steps = len(seq.preperiod) + 2 * len(seq.period)
                want = seq.bits(steps)
                # every completion while there are at most 2^20, else the least
                checked = None if r.total_completions <= 1 << 20 else 1
                for L_c in itertools.islice(r.completions(), checked):
                    if simulate(L_c, r.window_map[z - 1], steps) != want:
                        ok = False
        report("6", ok)


class TestCriterion7:
    def test_reduction_soundness(self):
        ok = True
        runs = [
            (debruijn3(), dict(budget=None, seed=None)),
            (TransitionMatrix(4, LF4_COLS), dict(budget=150, seed=77)),
        ]
        for L_f, kwargs in runs:
            best = select_minimal(enumerate_equivalents(L_f, **kwargs))
            n = best.candidate.matrix.n
            for k, e in enumerate(best.reduction.updates, start=1):
                if structure_matrix(e, n).rows != coordinate_structure(
                    best.candidate.matrix, k
                ).rows:
                    ok = False
            stream_min = min(
                reduce_candidate(c.matrix).support_sum
                for c in enumerate_equivalents(L_f, **kwargs)
            )
            if best.reduction.support_sum != stream_min:
                ok = False
        report("7", ok)


class TestCriterion8:
    def test_scale_limits(self):
        # exhaustive certification stops at n = 3; n >= 4 rests on seeded
        # sampling, and unseeded truncation is refused rather than silent
        ok = True
        try:
            count_distinct_equivalents(TransitionMatrix(4, LF4_COLS))
            ok = False
        except ValueError:
            pass
        import math
        if math.factorial(8) ** 2 != 1_625_702_400:
            ok = False
        try:
            list(enumerate_equivalents(TransitionMatrix(4, LF4_COLS), budget=10))
            ok = False
        except ValueError:
            pass
        report("8", ok)
