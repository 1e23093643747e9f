import itertools
import random

import pytest

from fsrkit import (
    FsrSpec,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    decode_state,
    encode_state,
    feedback_of,
    fib_transition,
    galois_transition,
    is_fibonacci,
    parse,
    structure_matrix,
    synthesize_expr,
)

from fsrkit.fib import _least_columns, _shift_bases

from conftest import (
    LF4_COLS, LG4_COLS, MF4_ROWS, ref_check_rows, ref_feedback_of, ref_fib_columns,
    ref_is_fibonacci, ref_is_partition_preserving,
)


def all_structure_matrices(n):
    for mask in range(1 << (1 << n)):
        yield StructureMatrix(
            n, tuple(1 if (mask >> k) & 1 else 2 for k in range(1 << n))
        )


class TestFibTransition:
    def test_reference_4stage(self):
        assert fib_transition(StructureMatrix(4, MF4_ROWS)).cols == (
            2, 4, 6, 8, 10, 12, 13, 16, 1, 3, 5, 7, 9, 11, 14, 16
        )

    def test_one_stage_identity_feedback(self):
        assert fib_transition(StructureMatrix(1, (1, 2))).cols == (1, 2)

    def test_cross_check_against_full_spec(self):
        fb = parse("x2 ^ x3", 3)
        L = fib_transition(structure_matrix(fb, 3))
        spec = FsrSpec.fibonacci(3, fb)
        assert L.cols == galois_transition(spec).cols


class TestIsFibonacci:
    def test_constructed_matrix_is_recognized(self):
        assert is_fibonacci(TransitionMatrix(4, LF4_COLS))

    def test_galois_matrix_is_rejected(self):
        assert not is_fibonacci(TransitionMatrix(4, LG4_COLS))

    def test_one_stage_negation(self):
        assert is_fibonacci(TransitionMatrix(1, (2, 1)))


    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_shift_oracle(self, n):
        # a Fibonacci successor is the state shifted by one register
        def shifts(L):
            return all(
                decode_state(L.column(k), n)[:-1] == decode_state(k, n)[1:]
                for k in range(1, (1 << n) + 1)
            )

        rng = random.Random(n)
        size = 1 << n
        seen = set()
        for _ in range(200):
            rows = tuple(rng.choice((1, 2)) for _ in range(size))
            cols = list(fib_transition(StructureMatrix(n, rows)).cols)
            # uniform matrices are almost never Fibonacci; perturb a few
            # columns of one instead, sometimes none
            for _ in range(rng.choice((0, 0, 1, 2, size))):
                cols[rng.randrange(size)] = rng.randint(1, size)
            L = TransitionMatrix(n, tuple(cols))
            seen.add(is_fibonacci(L))
            assert is_fibonacci(L) == shifts(L)
        if n > 1:  # at n = 1 every matrix is a shift
            assert seen == {True, False}


class TestFeedbackOf:
    def test_reference_round_trip(self):
        L = TransitionMatrix(4, LF4_COLS)
        assert fib_transition(feedback_of(L)).cols == LF4_COLS

    def test_reference_recovers_structure(self):
        # the quoted structure row for this matrix disagrees in the final
        # entry; the shift law forces a 1 there
        L = TransitionMatrix(4, LF4_COLS)
        assert feedback_of(L).rows == MF4_ROWS[:15] + (1,)

    def test_one_stage(self):
        assert feedback_of(TransitionMatrix(1, (1, 2))).rows == (1, 2)

    def test_3stage_example_feedback(self):
        L = TransitionMatrix(3, (1, 4, 6, 8, 2, 3, 5, 8))
        M = feedback_of(L)
        target = parse("(x1 & x2 & x3) | (!x1 & (x2 ^ x3))", 3)
        assert M.rows == structure_matrix(target, 3).rows

    def test_rejects_non_fibonacci(self):
        with pytest.raises(ValueError):
            feedback_of(TransitionMatrix(3, (5, 3, 7, 6, 4, 1, 8, 7)))


class TestRoundTripProperty:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        for M in all_structure_matrices(n):
            L = fib_transition(M)
            assert is_fibonacci(L)
            assert feedback_of(L).rows == M.rows

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_randomized_large(self, n):
        rng = random.Random(n)
        for _ in range(50):
            rows = tuple(rng.choice((1, 2)) for _ in range(1 << n))
            M = StructureMatrix(n, rows)
            assert feedback_of(fib_transition(M)).rows == rows


class TestAgreement:
    """Two independent routes to the transition matrix must coincide."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        for M in all_structure_matrices(n):
            fb = synthesize_expr(M)
            spec = FsrSpec.fibonacci(n, fb)
            assert galois_transition(spec).cols == fib_transition(M).cols

    def test_exhaustive_4stage(self):
        for M in all_structure_matrices(4):
            fb = synthesize_expr(M)
            spec = FsrSpec.fibonacci(4, fb)
            assert galois_transition(spec).cols == fib_transition(M).cols


class TestShiftProperty:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_successor_shifts_state(self, n):
        rng = random.Random(n)
        for _ in range(30):
            rows = tuple(rng.choice((1, 2)) for _ in range(1 << n))
            M = StructureMatrix(n, rows)
            L = fib_transition(M)
            for bits in itertools.product((0, 1), repeat=n):
                k = encode_state(bits)
                succ = decode_state(L.column(k), n)
                fb_bit = 1 if M.rows[k - 1] == 1 else 0
                assert succ == bits[1:] + (fb_bit,)


class TestLeastColumns:
    @pytest.mark.parametrize("l", range(1, 17))
    def test_is_base_plus_one(self, l):
        assert _least_columns(l) == [b + 1 for b in _shift_bases(l)]


def outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return ValueError, str(err)


class TestShiftLawAgainstOracles:
    """The shift law's C-level passes against the per-entry bodies they
    replaced, on Fibonacci matrices, near misses, uniform maps, and rows
    outside {1, 2}."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random(self, n):
        rng = random.Random(900 + n)
        size = 1 << n
        for _ in range(30):
            rows = [rng.choice((1, 2)) for _ in range(size)]
            for _ in range(rng.choice((0, 0, 1, 3))):
                rows[rng.randrange(size)] = rng.choice((0, 3, -1, 2 ** 70, True, 2.0))
            if rng.random() < 0.1:
                rows = rows[:-1]
            rows = tuple(rows)
            refused = outcome(ref_check_rows, n, rows)
            M = outcome(StructureMatrix, n, rows)
            if refused:
                assert M == refused
                continue
            assert M.rows == rows
            assert fib_transition(M).cols == ref_fib_columns(M)
            # a Fibonacci matrix, a near miss with a few columns one or two
            # off the law, or a uniform map
            cols = list(ref_fib_columns(M))
            kind = rng.randrange(3)
            if kind == 1:
                bases = list(_shift_bases(n))
                for _ in range(rng.randint(1, 3)):
                    j = rng.randrange(size)
                    cols[j] = min(max(bases[j] + rng.choice((-1, 0, 3)), 1), size)
            elif kind == 2:
                cols = [rng.randint(1, size) for _ in range(size)]
            L = TransitionMatrix(n, tuple(cols))
            assert is_fibonacci(L) == ref_is_fibonacci(L)
            assert outcome(lambda: feedback_of(L).rows) == outcome(lambda: ref_feedback_of(L).rows)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_partition_preserving(self, n):
        rng = random.Random(910 + n)
        size, half = 1 << n, 1 << (n - 1)
        seen = set()
        for _ in range(40):
            low, high = list(range(1, half + 1)), list(range(half + 1, size + 1))
            rng.shuffle(low)
            rng.shuffle(high)
            perm = low + high
            # swap a few images across the halves, sometimes none
            for _ in range(rng.choice((0, 0, 1, 2))):
                i, j = rng.randrange(half), half + rng.randrange(half)
                perm[i], perm[j] = perm[j], perm[i]
            T = PermutationTransform(n, tuple(perm))
            seen.add(T.is_partition_preserving())
            assert T.is_partition_preserving() == ref_is_partition_preserving(T)
        assert seen == {True, False}
