import itertools
import math
import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import (
    CountAudit,
    FsrSpec,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    classify_pairs,
    conjugate,
    coordinate_structure,
    count_distinct_equivalents,
    enumerate_equivalents,
    fib_transition,
    galois_transition,
    parse,
    partition_permutations,
    select_minimal,
    render,
    simulate,
    structure_matrix,
)
from fsrkit.expr import Var
from fsrkit import fib2gal
from fsrkit.fib2gal import GaloisCandidate, reduce_candidate, search_plan

from conftest import (
    LG4_COLS, PI4, debruijn3, ref_reduce_candidate, ref_select_minimal, same_tree,
)


class TestClassifyPairs:
    def test_reference_s11(self, lf4):
        assert set(classify_pairs(lf4).s11) == {(3, 6), (1, 2), (2, 4), (4, 8)}

    def test_reference_s00(self, lf4):
        assert set(classify_pairs(lf4).s00) == {(15, 14), (14, 11), (13, 9), (16, 15)}

    def test_reference_s10_s01(self, lf4):
        pc = classify_pairs(lf4)
        assert set(pc.s10) == {(5, 10), (6, 12), (7, 13), (8, 16)}
        assert set(pc.s01) == {(11, 5), (10, 3), (12, 7), (9, 1)}

    def test_two_stage_singletons(self):
        L = TransitionMatrix(2, (1, 3, 1, 4))
        pc = classify_pairs(L)
        assert pc.s11 == ((1, 1),)
        assert pc.s10 == ((2, 3),)
        assert pc.s01 == ((3, 1),)
        assert pc.s00 == ((4, 4),)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cardinality_all_fibonacci(self, n):
        quarter = 1 << (n - 2) if n >= 2 else 0
        size = 1 << n
        tables = range(1 << size) if n <= 3 else None
        if tables is None:
            rng = random.Random(4)
            tables = (rng.getrandbits(size) for _ in range(500))
        for mask in tables:
            M = StructureMatrix(n, tuple(
                1 if (mask >> k) & 1 else 2 for k in range(size)
            ))
            pc = classify_pairs(fib_transition(M))
            assert len(pc.s11) == len(pc.s10) == len(pc.s01) == len(pc.s00) == quarter

    def test_rejects_one_stage(self):
        with pytest.raises(ValueError, match="^pair classification needs at least 2 registers$"):
            classify_pairs(TransitionMatrix(1, (2, 1)))


class TestConjugate:
    def test_identity(self, lf4):
        ident = PermutationTransform(4, tuple(range(1, 17)))
        assert conjugate(lf4, ident).cols == lf4.cols

    def test_reference_permutation(self, lf4):
        assert conjugate(lf4, PermutationTransform(4, PI4)).cols == LG4_COLS

    def test_inverse_round_trip(self, lf4):
        pi = PermutationTransform(4, PI4)
        inverse = PermutationTransform(4, tuple(sorted(range(1, 17), key=pi)))
        assert conjugate(conjugate(lf4, pi), inverse).cols == lf4.cols

    def test_rejects_partition_breaker(self, lf4):
        swap_halves = tuple(range(9, 17)) + tuple(range(1, 9))
        with pytest.raises(ValueError):
            conjugate(lf4, PermutationTransform(4, swap_halves))

    def test_rejects_size_mismatch(self, lf4):
        with pytest.raises(ValueError, match="^permutation and matrix sizes differ$"):
            conjugate(lf4, PermutationTransform(3, tuple(range(1, 9))))

    def test_output_streams_match(self, lf4, lg4):
        pi = PermutationTransform(4, PI4)
        for i in range(1, 17):
            assert simulate(lg4, pi(i), 32) == simulate(lf4, i, 32)


UNLIMITED_AT_4 = re.escape(
    "(2^3)!^2 permutations are too many to search without a limit: give a budget and a seed")


class TestEnumeration:
    def test_n2_exhaustive(self):
        L = fib_transition(StructureMatrix(2, (1, 2, 1, 2)))
        cands = list(enumerate_equivalents(L))
        total = math.factorial(2) ** 2
        assert len({c.transform.perm for c in cands}) == len(cands)
        assert len(cands) <= total
        for c in cands:
            assert c.matrix.cols != L.cols

    def test_n3_permutation_count(self):
        assert sum(1 for _ in partition_permutations(3)) == 576

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_built_permutations_pass_the_checked_constructor(self, n):
        # both builders skip PermutationTransform's check: their ranges are
        # complete by construction
        built = [*itertools.islice(partition_permutations(n), 600),
                 *fib2gal.sampled_permutations(n, 200, n)]
        for p in built:
            assert p == PermutationTransform(n, p.perm)

    def test_zero_budget_like_sampling_is_deterministic(self):
        L = debruijn3()
        a = [c.matrix.cols for c in enumerate_equivalents(L, budget=10, seed=1)]
        b = [c.matrix.cols for c in enumerate_equivalents(L, budget=10, seed=1)]
        assert a == b

    def test_sampling_needs_seed(self):
        with pytest.raises(ValueError):
            list(enumerate_equivalents(debruijn3(), budget=10))

    def test_rejects_non_fibonacci(self):
        with pytest.raises(ValueError):
            list(enumerate_equivalents(TransitionMatrix(3, (5, 3, 7, 6, 4, 1, 8, 7))))

    def test_unlimited_search_refused_above_three_stages(self, lf4):
        # (2^3)!^2 = 1,625,702,400 permutations: refused at the first draw, not searched
        with pytest.raises(ValueError, match=UNLIMITED_AT_4):
            next(enumerate_equivalents(lf4))
        assert next(enumerate_equivalents(lf4, budget=10, seed=1)).matrix.n == 4

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            list(enumerate_equivalents(debruijn3(), budget=-3, seed=1))


class TestSearchPlan:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unlimited_is_exhaustive(self, n):
        assert search_plan(n, None) == (True, math.factorial(1 << (n - 1)) ** 2)

    def test_budget_boundary(self):
        assert search_plan(3, 576) == (True, 576)
        assert search_plan(3, 575) == (False, 575)
        assert search_plan(1, 1) == (True, 1)
        assert search_plan(1, 0) == (False, 0)

    def test_stops_multiplying_past_the_budget(self):
        # (2^19)!^2 has millions of digits; 1 * 2^2 already passes the budget
        assert search_plan(20, 1) == (False, 1)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            search_plan(3, -1)


class TestCountAudit:
    def test_n2_by_exhaustion(self):
        L = fib_transition(StructureMatrix(2, (2, 2, 1, 1)))  # L = d4[2 4 1 3]
        assert L.cols == (2, 4, 1, 3)
        audit = count_distinct_equivalents(L)
        brute = {conjugate(L, pi).cols for pi in partition_permutations(2)}
        assert audit.permutations == 4
        assert audit.distinct_galois == len(brute - {L.cols})

    def test_n2_with_fixed_points(self):
        L = TransitionMatrix(2, (1, 3, 1, 4))
        assert count_distinct_equivalents(L).distinct_galois == len(
            {conjugate(L, pi).cols for pi in partition_permutations(2)} - {L.cols}
        )

    def test_n3_full_cycle_matches_formula(self):
        audit = count_distinct_equivalents(debruijn3())
        assert audit.permutations == 576
        assert audit.distinct_galois == 575

    def test_rejects_large_n(self, lf4):
        with pytest.raises(ValueError, match=UNLIMITED_AT_4):
            count_distinct_equivalents(lf4)

    @pytest.mark.parametrize("n, want", [(2, CountAudit(4, 3)), (3, CountAudit(576, 575))])
    def test_every_feedback_meets_the_count(self, n, want):
        # a partition-preserving pi that commutes with L_f fixes every state
        # (see count_distinct_equivalents), so every feedback meets the count
        for mask in range(1 << (1 << n)):
            rows = tuple(2 - (mask >> k & 1) for k in range(1 << n))
            L_f = fib_transition(StructureMatrix(n, rows))
            assert count_distinct_equivalents(L_f) == want, rows


class TestSelectMinimal:
    def test_shift_like_candidate_wins(self):
        # a pure relabeled shift keeps single-variable coordinates
        L = debruijn3()
        ident = PermutationTransform(3, tuple(range(1, 9)))
        shift = GaloisCandidate(L, ident)
        dense = GaloisCandidate(
            conjugate(L, PermutationTransform(3, (2, 3, 4, 1, 5, 6, 7, 8))), ident
        )
        shift_sum = reduce_candidate(shift.matrix).support_sum
        dense_sum = reduce_candidate(dense.matrix).support_sum
        assert shift_sum <= dense_sum
        best = select_minimal([dense, shift])
        assert best.candidate is shift

    def test_support_counts_via_flip_oracle(self, lf4, lg4):
        # the dense reference candidate has larger support than the source
        lf_sum = reduce_candidate(lf4).support_sum
        lg_sum = reduce_candidate(lg4).support_sum
        assert lf_sum < lg_sum

    def test_area_breaks_ties(self):
        L = debruijn3()
        cands = [
            GaloisCandidate(c.matrix, c.transform)
            for c in enumerate_equivalents(L, budget=576)
        ]
        best = select_minimal(cands)
        sums = []
        for c in cands:
            r = reduce_candidate(c.matrix)
            sums.append((r.support_sum, r.area_um2, c.matrix.cols))
        r = best.reduction
        assert (r.support_sum, r.area_um2, best.candidate.matrix.cols) == min(sums)

    def test_selected_updates_are_function_equal(self):
        L = debruijn3()
        best = select_minimal(enumerate_equivalents(L, budget=576))
        for k, e in enumerate(best.reduction.updates, start=1):
            assert structure_matrix(e, 3).rows == coordinate_structure(
                best.candidate.matrix, k
            ).rows

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            select_minimal([])

    @pytest.mark.parametrize("n, sample_seed",
                             [(3, None)] + [(n, s) for n in range(4, 8) for s in range(1, 6)])
    def test_matches_reference_selection(self, n, sample_seed):
        if sample_seed is None:
            L_f, kwargs = debruijn3(), {}
        else:
            rng = random.Random(sample_seed)
            a, b, c = rng.sample(range(2, n + 1), 3)
            L_f = fib_transition(structure_matrix(parse(f"x1 ^ x{a} ^ x{b} & x{c}", n), n))
            kwargs = {"budget": 20, "seed": sample_seed}
        assert select_minimal(enumerate_equivalents(L_f, **kwargs)) == ref_select_minimal(
            enumerate_equivalents(L_f, **kwargs))


def matrices(max_n: int):
    """Random transition matrices (any map of the states) at n = 1..max_n."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.integers(1, 1 << n), min_size=1 << n, max_size=1 << n,
    ).map(lambda cols: TransitionMatrix(n, tuple(cols))))


def var_nodes(e) -> list:
    todo, found = [e], []
    while todo:
        node = todo.pop()
        if type(node) is Var:
            found.append(node)
        elif hasattr(node, "left"):
            todo += (node.left, node.right)
    return found


class TestReduceCandidate:
    """reduce_candidate reads from the ANF masks every field that the tree
    path (the oracle in conftest) gets by synthesizing, renaming and walking
    expression trees."""

    @staticmethod
    def check(L, equal):
        r = reduce_candidate(L)
        updates, supports, support_sum, area, delay, gates = ref_reduce_candidate(L)
        assert r.n == L.n and len(r.anfs) == L.n
        assert (r.supports, r.support_sum, r.gate_count) == (supports, support_sum, gates)
        # exact ints: the printed values are these
        assert (r.area, r.delay_ps) == (area, delay)
        assert all(map(equal, r.updates, updates))
        assert [render(e) for e in r.updates] == [render(e) for e in updates]
        for e in r.updates:  # one shared node per variable
            nodes = var_nodes(e)
            assert len({id(v) for v in nodes}) == len({v.index for v in nodes})
        return r

    @seed(18)
    @settings(deadline=None, max_examples=150)
    @given(matrices(8))
    def test_matches_tree_path(self, L):
        self.check(L, lambda a, b: a == b)

    def test_matches_tree_path_dense_eleven_stages(self):
        # a random map: every coordinate is a random function with about
        # 2^10 monomials, an XOR chain deeper than == can compare
        rng = random.Random(11)
        L = TransitionMatrix(11, tuple(rng.randint(1, 1 << 11) for _ in range(1 << 11)))
        r = self.check(L, same_tree)
        assert min(anf.bit_count() for anf in r.anfs) > 900

    def test_updates_are_built_when_read(self, monkeypatch):
        def refuse(anf, n):
            raise AssertionError("reduce_candidate built a tree")

        with monkeypatch.context() as m:
            m.setattr(fib2gal, "anf_to_expr", refuse)
            r = reduce_candidate(debruijn3())
            with pytest.raises(AssertionError, match="built a tree"):
                r.updates
        assert r.updates == r.updates and len(r.updates) == 3


class TestRankKey:
    """The ranking key, reduce_candidate's (support_sum, area_um2), on
    coordinates whose costs are known in closed form."""

    @staticmethod
    def key(L):
        r = reduce_candidate(L)
        return r.support_sum, r.area_um2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constant_coordinates(self, n):
        # every successor all zeros: each coordinate is 0; all ones: each is 1
        for state in (1 << n, 1):
            assert self.key(TransitionMatrix(n, (state,) * (1 << n))) == (0, 0.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_monomial_coordinates(self, n):
        # coordinate k is x1 & ... & xk: support k, k - 1 AND2 gates, no XOR2
        L = galois_transition(FsrSpec.galois(n, [
            parse(" & ".join(f"x{i}" for i in range(1, k + 1)), n) for k in range(1, n + 1)
        ]))
        assert self.key(L) == (n * (n + 1) // 2, 5.0 * (n * (n - 1) // 2))

    def test_constant_monomial_is_free(self):
        # 1 ^ x1 & x2 ^ x3: one AND2, two XOR2
        L = galois_transition(FsrSpec.galois(3, [parse("1 ^ x1 & x2 ^ x3", 3)] * 3))
        assert self.key(L) == (9, 3 * (5.0 + 2 * 10.0))
