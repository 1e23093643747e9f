"""The expression layer's walks against the recursive oracles, and on trees
far deeper than the recursion limit.

`variables`, `substitute`, `gate_cost` and `stp._truth_mask` are folds on
an explicit stack (`expr._fold`), and `render` walks its own; `anf_to_expr`
shares its variable nodes and `synthesize_expr` visits only the set bits of
the ANF mask. Each must give exactly what the recursive versions in conftest
give: equal trees, the same text byte for byte and the same integer
costs.
"""

import ast
import pathlib
import random
import sys
from functools import reduce

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import stp
from fsrkit.expr import (
    GATES,
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    _fold,
    anf_to_expr,
    gate_cost,
    render,
    substitute,
    variables,
)
from fsrkit.stp import FsrSpec, StructureMatrix, galois_transition, structure_matrix, synthesize_expr

from conftest import (
    Anf, anf_mask, exprs, ref_anf_to_expr, ref_gate_cost, ref_render, ref_substitute,
    ref_synthesize_scan,
)

BINOPS = (And, Or, Xor, Implies, Iff)

# the oracles take about two frames per nesting level; chains stay well
# inside the default recursion limit of 1000
MAX_OPERANDS = 150


@st.composite
def chains(draw):
    """A left-deep or right-nested chain over a few small expressions: runs
    of one operator, mixing all five, with a negation here and there, or
    over every binary node, so that Not and binary nodes alternate."""
    pool = draw(st.lists(exprs(3), min_size=1, max_size=6))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(BINOPS), st.integers(1, 40)), min_size=1, max_size=6))
    steps = [op for op, length in runs for _ in range(length)][:MAX_OPERANDS]
    if draw(st.booleans()):
        steps = steps[:MAX_OPERANDS // 2]  # two nesting levels each
        negated = set(range(1, len(steps) + 1))
    else:
        negated = draw(st.sets(st.integers(0, len(steps)), max_size=20))
    picks = draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=len(steps) + 1, max_size=len(steps) + 1))
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
    assert gate_cost(e) == ref_gate_cost(e)


def binary_nodes(e) -> list:
    todo, found = [e], []
    while todo:
        node = todo.pop()
        if isinstance(node, Not):
            todo.append(node.child)
        elif not isinstance(node, (Var, Const)):
            found.append(node)
            todo += (node.left, node.right)
    return found


@seed(1307)
@settings(max_examples=150, deadline=None)
@given(trees, trees)
def test_area_is_exact_whatever_the_nesting(a, b):
    # NOR2's 3.7 um^2 is 37 tenths: the area in um^2 is the integer sum / 10,
    # read once, so no order of the additions can round it
    e = Xor(Or(a, b), Implies(b, a))
    area = sum(GATES[type(node)][0] for node in binary_nodes(e))
    assert gate_cost(e).area_um2 == area / 10


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
    got = anf_to_expr(anf_mask(anf, 6), 6)
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
        # the areas are ints in 0.1 um^2, so every order of the additions
        # gives 37 + 37 + 37 + 37 + 100 = 248, read as 24.8 um^2; as floats,
        # adding each gate before its right operand gave 24.799999999999997
        e = Xor(or_spine(1, 3), or_spine(4, 3))
        assert gate_cost(e) == ref_gate_cost(e)
        assert gate_cost(e).area_um2 == 24.8

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



# -- trees of 10^5 nodes -------------------------------------------------------
#
# Each walk runs at the default recursion limit on four trees of about 10^5
# nodes over x1..x6, and is checked against closed forms: the variable set,
# one gate per binary node, the truth table (through a shallow expression of
# the same function) and the text.

N_VARS = 6
DEPTH = 10 ** 5


def var_of(i: int) -> int:
    return i % N_VARS + 1


def odd_parity(indices):
    """The XOR of the variables that occur an odd number of times."""
    odd = sorted(i for i in set(indices) if indices.count(i) % 2)
    return reduce(Xor, map(Var, odd), Const(0))


def right_nested():
    # x1 ^ (x2 ^ (... ^ (x_a ^ x_b)...)): 5 * 10^4 XOR nodes
    leaves = [var_of(i) for i in range(DEPTH // 2 + 1)]
    e = Var(leaves[-1])
    for v in reversed(leaves[:-1]):
        e = Xor(Var(v), e)
    text = "".join(f"x{v} ^ (" for v in leaves[:-2])
    text += f"x{leaves[-2]} ^ x{leaves[-1]}" + ")" * (len(leaves) - 2)
    return e, set(leaves), len(leaves) - 1, odd_parity(leaves), text


def left_deep():
    # x1 & x2 & ...: 5 * 10^4 AND nodes, no parentheses
    leaves = [var_of(i) for i in range(DEPTH // 2 + 1)]
    e = reduce(And, map(Var, leaves))
    shallow = reduce(And, map(Var, sorted(set(leaves))))
    return e, set(leaves), len(leaves) - 1, shallow, " & ".join(f"x{v}" for v in leaves)


def not_run():
    # an odd run of Nots over x1
    e = Var(1)
    for _ in range(DEPTH - 1):
        e = Not(e)
    return e, {1}, 0, Not(Var(1)), "!" * (DEPTH - 1) + "x1"


def alternating():
    # !(x_a ^ !(x_b ^ ... !(x_c ^ x1)...)): each level a Not over an XOR
    # whose right operand is the level below, so !(v ^ e) is v ^ e ^ 1
    levels = [var_of(i) for i in range(DEPTH // 3)]
    e = Var(1)
    for v in reversed(levels):
        e = Not(Xor(Var(v), e))
    shallow = odd_parity(levels + [1])
    if len(levels) % 2:
        shallow = Not(shallow)
    text = "".join(f"!(x{v} ^ " for v in levels) + "x1" + ")" * len(levels)
    return e, set(levels) | {1}, len(levels), shallow, text


@pytest.fixture(scope="module", params=[right_nested, left_deep, not_run, alternating],
                ids=lambda build: build.__name__)
def deep(request):
    """(tree, variables, binary node count, a shallow tree of the same
    function, text), built and walked at the default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield request.param()
    finally:
        sys.setrecursionlimit(limit)


class TestDeepTrees:
    def test_variables(self, deep):
        e, found, _, _, _ = deep
        assert variables(e) == found

    def test_gate_cost(self, deep):
        e, _, binary, _, _ = deep
        assert gate_cost(e).gate_count == binary

    def test_render(self, deep):
        e, _, _, _, text = deep
        got = render(e)
        assert len(got) == len(text)
        assert got[:40] == text[:40] and got[-40:] == text[-40:]
        assert got == text

    def test_substitute(self, deep):
        e, found, _, _, text = deep
        mirror = {i: N_VARS + 1 - i for i in range(1, N_VARS + 1)}
        renamed = substitute(e, mirror)
        assert renamed is not e
        assert variables(renamed) == {mirror[i] for i in found}
        assert gate_cost(renamed) == gate_cost(e)
        assert render(substitute(renamed, mirror)) == text

    def test_structure_matrix(self, deep):
        e, _, _, shallow, _ = deep
        assert structure_matrix(e, N_VARS) == structure_matrix(shallow, N_VARS)

    def test_galois_transition(self, deep):
        e, _, _, shallow, _ = deep
        rest = [Var(i) for i in range(2, N_VARS + 1)]
        assert galois_transition(FsrSpec.galois(N_VARS, [e] + rest)) == galois_transition(
            FsrSpec.galois(N_VARS, [shallow] + rest))


def test_fold_rejects_a_foreign_node():
    with pytest.raises(TypeError, match="not a BoolExpr node: 'x1'"):
        _fold(And(Var(1), "x1"), lambda node: 0, lambda value, k: value, lambda cls, vs: 0)


def test_render_rejects_a_foreign_node():
    with pytest.raises(TypeError, match="not a BoolExpr node: 'x1'"):
        render(Xor(Var(1), "x1"))


# -- no recursion in the package ----------------------------------------------

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "fsrkit").glob("*.py"))


def self_calls(tree: ast.Module) -> list[str]:
    """The functions and methods that call themselves by name, directly."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else (
                    callee.attr if isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")
                    else None)
                if name == fn.name:
                    found.append(fn.name)
                    break
    return sorted(found)


def test_self_calls_finds_them():
    tree = ast.parse("def f(x):\n    return f(x - 1) if x else g(x)\n"
                     "class C:\n    def m(self):\n        return self.m()\n"
                     "    def k(self):\n        return other.k()\n")
    assert self_calls(tree) == ["f", "m"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(ast.parse(path.read_text())) == []
