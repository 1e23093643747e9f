"""The expression layer's loop walks against the recursive oracles.

`substitute`, `render` and `gate_cost` walk a chain of one binary operator
down its left spine in a loop, `anf_to_expr` shares its variable nodes and
`synthesize_expr` visits only the set bits of the ANF mask. Each must give
exactly what the recursive versions in conftest give: equal trees, the same
text byte for byte and the same costs to the last bit of the float.
"""

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import stp
from fsrkit.expr import (
    GATES,
    And,
    Anf,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    anf_to_expr,
    gate_cost,
    render,
    substitute,
    variables,
)
from fsrkit.stp import StructureMatrix, synthesize_expr

from conftest import (
    exprs, ref_anf_to_expr, ref_gate_cost, ref_render, ref_substitute,
    ref_synthesize_scan,
)

BINOPS = (And, Or, Xor, Implies, Iff)

# the oracles take about two frames per nesting level; chains stay well
# inside the default recursion limit of 1000
MAX_OPERANDS = 150


@st.composite
def chains(draw):
    """A left-deep or right-nested chain over a few small expressions: runs
    of one operator, mixing all five, with a negation here and there."""
    pool = draw(st.lists(exprs(3), min_size=1, max_size=6))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(BINOPS), st.integers(1, 40)), min_size=1, max_size=6))
    steps = [op for op, length in runs for _ in range(length)][:MAX_OPERANDS]
    picks = draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=len(steps) + 1, max_size=len(steps) + 1))
    negated = draw(st.sets(st.integers(0, len(steps)), max_size=20))
    left_deep = draw(st.booleans())
    acc = pool[picks[0]]
    for i, op in enumerate(steps, start=1):
        other = pool[picks[i]]
        acc = op(acc, other) if left_deep else op(other, acc)
        if i in negated:
            acc = Not(acc)
    return acc


trees = st.one_of(exprs(6), chains())
mappings = st.dictionaries(st.integers(1, 6), st.integers(1, 9), max_size=6)


@seed(1301)
@settings(max_examples=150, deadline=None)
@given(trees)
def test_render_matches_oracle(e):
    assert render(e) == ref_render(e)


@seed(1302)
@settings(max_examples=150, deadline=None)
@given(trees)
def test_gate_cost_matches_oracle(e):
    # Cost compares its float fields with ==, so the sums agree to the last bit
    assert gate_cost(e) == ref_gate_cost(e)


@seed(1303)
@settings(max_examples=150, deadline=None)
@given(trees, mappings)
def test_substitute_matches_oracle(e, mapping):
    got = substitute(e, mapping)
    if all(k == v for k, v in mapping.items()):
        assert got is e
    else:
        assert got == ref_substitute(e, mapping)


@seed(1304)
@settings(max_examples=50, deadline=None)
@given(trees, st.sets(st.integers(1, 6)))
def test_identity_mapping_returns_the_same_tree(e, keys):
    assert substitute(e, {k: k for k in keys}) is e


def test_substitute_renames_inside_a_chain():
    e = Xor(Xor(And(Var(1), Var(2)), Var(3)), Not(Var(1)))
    got = substitute(e, {1: 4, 3: 3})
    assert got == ref_substitute(e, {1: 4, 3: 3})
    assert render(got) == "x4 & x2 ^ x3 ^ !x4"


monomial_sets = st.sets(st.frozensets(st.integers(1, 6), max_size=6), max_size=40)


@seed(1305)
@settings(max_examples=300, deadline=None)
@given(monomial_sets)
def test_anf_to_expr_matches_oracle(monomials):
    anf = Anf(frozenset(monomials))
    got = anf_to_expr(anf)
    assert got == ref_anf_to_expr(anf)
    assert render(got) == ref_render(got)
    assert gate_cost(got) == ref_gate_cost(got)


def or_spine(first, count):
    e = Var(first)
    for i in range(1, count):
        e = Or(e, Var(first + i))
    return e


class TestSummationOrder:
    def test_or_spines_under_xor(self):
        # each node adds its operands and then its gate: the Or spines sum to
        # (3.7 + 3.7) = 7.4, and 7.4 + 7.4 + 10 is 24.8; adding each gate
        # before its right operand, or the right operand to the gate first,
        # gives 24.799999999999997
        e = Xor(or_spine(1, 3), or_spine(4, 3))
        assert gate_cost(e) == ref_gate_cost(e)
        assert gate_cost(e).area_um2 == 24.8
        nor, xor = GATES[Or][0], GATES[Xor][0]
        gate_first = (0.0 + nor + 0.0 + nor + 0.0) + xor + (0.0 + nor + 0.0 + nor + 0.0)
        assert gate_first == 24.799999999999997

    def test_long_or_spine_under_xor_spine(self):
        e = or_spine(1, 30)
        for i in range(5):
            e = Xor(e, or_spine(10 * i + 1, 7))
        assert gate_cost(e) == ref_gate_cost(e)


def random_structure(rng, n):
    return StructureMatrix(n, tuple(rng.choice((1, 2)) for _ in range(1 << n)))


class TestSynthesisAgainstDigitScan:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_seeded_tables(self, n):
        rng = random.Random(1300 + n)
        for _ in range(20 if n <= 6 else 5):
            M = random_structure(rng, n)
            assert synthesize_expr(M) == ref_synthesize_scan(M)

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("row,want", [(2, Const(0)), (1, Const(1))])
    def test_constant_tables(self, n, row, want):
        M = StructureMatrix(n, (row,) * (1 << n))
        assert synthesize_expr(M) == ref_synthesize_scan(M) == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sparse_tables(self, n):
        # one true state: the ANF is the product of its literals, dense in
        # the top bits; one false state: its complement
        rng = random.Random(1310 + n)
        for row in (1, 2):
            rows = [3 - row] * (1 << n)
            rows[rng.randrange(1 << n)] = row
            M = StructureMatrix(n, tuple(rows))
            assert synthesize_expr(M) == ref_synthesize_scan(M)


class TestDenseSynthesizedTrees:
    """A dense function of 11 or 12 variables synthesizes to an XOR spine of
    about 2^(n-1) monomials, deeper than the recursion limit."""

    @pytest.mark.parametrize("n", [11, 12])
    def test_walks_succeed(self, n):
        M = random_structure(random.Random(n), n)
        e = synthesize_expr(M)
        table = stp._rows_to_mask(M.rows)
        anf = stp._moebius(table, n)
        k = anf.bit_count()
        assert k > 1000

        text = render(e)
        assert stp._read_table(text, n) == table

        cost = gate_cost(e)
        xors = k - 1
        # bit u of the ANF is the monomial of the n - |u| variables that are
        # 0 in state u + 1, written with one AND2 fewer than its degree
        ands = sum(max(n - u.bit_count() - 1, 0) for u in range(1 << n) if anf >> u & 1)
        assert cost.gate_count == xors + ands
        assert cost.area_um2 == 10.0 * xors + 5.0 * ands

        mirror = {i: n + 1 - i for i in range(1, n + 1)}
        renamed = substitute(e, mirror)
        assert renamed is not e
        assert variables(renamed) == variables(e)
        assert gate_cost(renamed) == cost
        assert render(substitute(renamed, mirror)) == text

        shifted = substitute(e, {1: n + 1})
        assert variables(shifted) == (variables(e) - {1}) | {n + 1}

