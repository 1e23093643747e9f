import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import expr as ex
from fsrkit.expr import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    Xor,
    anf_to_expr,
    gate_cost,
    parse,
    render,
)
from fsrkit import stp
from fsrkit.cli import parse_fsr_file
from fsrkit.stp import encode_state, structure_matrix, synthesize_expr

from conftest import (
    FIXTURES, Anf, anf_evaluate, anf_mask, eval_expr, exprs, oracle_parse, to_anf, truth_table,
)


def value(e, bits):
    """fsrkit's own evaluation: the structure matrix entry of the state `bits`."""
    row = structure_matrix(e, len(bits)).rows[encode_state(bits) - 1]
    return 1 if row == 1 else 0


def anf_expr(e, n):
    """fsrkit's ANF of e over x1..xn, as the canonical XOR-of-ANDs expression."""
    return synthesize_expr(structure_matrix(e, n))


def monomials_expr(n, *monos):
    """fsrkit's canonical tree of the monomials monos over x1..xn."""
    return anf_to_expr(anf_mask(Anf(frozenset(frozenset(m) for m in monos)), n), n)


def anf_by_inclusion_exclusion(e, n):
    """Independent ANF oracle: c_S = XOR of f over assignments supported in S."""
    monos = set()
    for sub in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
    ):
        c = 0
        for r in range(len(sub) + 1):
            for t in itertools.combinations(sub, r):
                bits = [1 if i in t else 0 for i in range(1, n + 1)]
                c ^= eval_expr(e, bits)
        if c:
            monos.add(frozenset(sub))
    return Anf(frozenset(monos))


class TestParse:
    def test_single_variable(self):
        assert parse("x2", 4) == Var(2)

    def test_example_feedback_shape(self):
        e = parse("(x1 & !x2 & !x3 & x4) | (!x1 & (x2 & x3))", 4)
        expected = Or(
            And(And(And(Var(1), Not(Var(2))), Not(Var(3))), Var(4)),
            And(Not(Var(1)), And(Var(2), Var(3))),
        )
        assert e == expected

    def test_iff_binds_loosest(self):
        assert parse("x1 & (x2 <-> x3)", 3) == And(Var(1), Iff(Var(2), Var(3)))

    def test_z_alias(self):
        assert parse("z1 | !z2", 2) == Or(Var(1), Not(Var(2)))

    def test_precedence_chain(self):
        # not > and > xor > or > implies > iff
        e = parse("x1 <-> x2 -> x3 | x4 ^ x5 & !x6", 6)
        assert e == Iff(
            Var(1), Implies(Var(2), Or(Var(3), Xor(Var(4), And(Var(5), Not(Var(6))))))
        )

    def test_left_associative(self):
        assert parse("x1 -> x2 -> x3", 3) == Implies(Implies(Var(1), Var(2)), Var(3))

    def test_constants(self):
        assert parse("0 | 1", 1) == Or(Const(0), Const(1))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 & ?", 2)
        assert err.value.position == 5

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse("x5", 4)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 x2", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x1 & x2", 2)


class TestEval:
    def test_not(self):
        assert value(Not(Var(1)), [1]) == 0

    def test_feedback_all_ones(self):
        e = parse("(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3))", 4)
        assert value(e, [1, 1, 1, 1]) == 0

    def test_feedback_1001(self):
        e = parse("(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3))", 4)
        assert value(e, [1, 0, 0, 1]) == 1

    @pytest.mark.parametrize(
        "text,a,b,want",
        [
            ("x1 -> x2", 1, 0, 0),
            ("x1 -> x2", 0, 0, 1),
            ("x1 <-> x2", 1, 1, 1),
            ("x1 <-> x2", 1, 0, 0),
            ("x1 ^ x2", 1, 0, 1),
            ("x1 ^ x2", 1, 1, 0),
        ],
    )
    def test_operators(self, text, a, b, want):
        assert value(parse(text, 2), [a, b]) == want


class TestAnf:
    def test_xor_native(self):
        assert anf_expr(Xor(Var(1), Var(2)), 2) == monomials_expr(2, {1}, {2})

    def test_or(self):
        assert anf_expr(Or(Var(1), Var(2)), 2) == monomials_expr(2, {1}, {2}, {1, 2})

    def test_iff_matches_oracle(self):
        e = Iff(Var(2), Var(3))
        oracle = anf_by_inclusion_exclusion(e, 3)
        assert anf_expr(e, 3) == anf_to_expr(anf_mask(oracle, 3), 3)
        assert oracle.monomials == frozenset(
            {frozenset(), frozenset({2}), frozenset({3})}
        )

    def test_matches_oracle_on_samples(self):
        samples = [
            parse("x1 & (x2 <-> x3)", 3),
            parse("(x1 -> x2) ^ !x3", 3),
            parse("x1 | x2 | x3", 3),
            parse("1", 3),
            parse("0", 3),
        ]
        for e in samples:
            assert anf_expr(e, 3) == anf_to_expr(anf_mask(anf_by_inclusion_exclusion(e, 3), 3), 3)

    def test_function_equality_iff_equal_anf(self):
        e1 = parse("x1 | x2", 2)
        e2 = parse("x1 ^ x2 ^ (x1 & x2)", 2)
        e3 = parse("x1 & x2", 2)
        assert anf_expr(e1, 2) == anf_expr(e2, 2)
        assert anf_expr(e1, 2) != anf_expr(e3, 2)

    def test_anf_expr_round_trip(self):
        e = parse("(x1 & !x2) | (x3 <-> x1)", 3)
        back = anf_expr(e, 3)
        assert truth_table(back, 3) == truth_table(e, 3)

    @seed(2301)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
    def test_mask_round_trip(self, case):
        # the Moebius transform of the tree's truth table is the mask it was built from
        n, anf = case
        rows = structure_matrix(anf_to_expr(anf, n), n).rows
        assert ex._moebius(stp._rows_to_mask(rows), n) == anf

    @pytest.mark.parametrize("anf, n", [(0, -1), (1, -3), (-1, 2), (1 << 16, 4), (2, 0)])
    def test_refuses_bad_input(self, anf, n):
        with pytest.raises(ValueError):
            anf_to_expr(anf, n)

    def test_full_range_is_accepted(self):
        assert anf_to_expr(1, 0) == Const(1)
        assert anf_to_expr(0, 0) == Const(0)
        # every monomial: the product of (1 ^ xi), true only where all are 0
        top = anf_to_expr((1 << 16) - 1, 4)
        assert truth_table(top, 4) == truth_table(parse("!x1 & !x2 & !x3 & !x4", 4), 4)


class TestGateCost:
    def test_bare_variable_is_free(self):
        assert gate_cost(Var(1)) == ex.Cost(0.0, 0.0, 0)

    def test_single_and(self):
        cost = gate_cost(And(Var(1), Var(2)))
        assert (cost.area_um2, cost.delay_ps, cost.gate_count) == (5.0, 87.0, 1)

    def test_xor_over_and(self):
        cost = gate_cost(Xor(Var(1), And(Var(2), Var(3))))
        assert (cost.area_um2, cost.delay_ps, cost.gate_count) == (15.0, 202.0, 2)

    def test_not_is_free(self):
        assert gate_cost(Not(Var(1))).area_um2 == 0.0
        a = gate_cost(And(Not(Var(1)), Var(2)))
        assert (a.area_um2, a.delay_ps, a.gate_count) == (5.0, 87.0, 1)

    def test_or_costed_as_nor(self):
        cost = gate_cost(Or(Var(1), Var(2)))
        assert (cost.area_um2, cost.delay_ps) == (3.7, 57.0)

    def test_implies_and_iff_lowered(self):
        # x1 -> x2 becomes !x1 | x2: one NOR-costed gate
        c = gate_cost(Implies(Var(1), Var(2)))
        assert (c.area_um2, c.gate_count) == (3.7, 1)
        # x1 <-> x2 becomes !(x1 ^ x2): one XOR
        c = gate_cost(Iff(Var(1), Var(2)))
        assert (c.area_um2, c.delay_ps, c.gate_count) == (10.0, 115.0, 1)

    def test_delay_is_critical_path(self):
        # balanced vs chained AND trees share area but not delay
        chain = And(And(And(Var(1), Var(2)), Var(3)), Var(4))
        tree = And(And(Var(1), Var(2)), And(Var(3), Var(4)))
        assert gate_cost(chain).area_um2 == gate_cost(tree).area_um2 == 15.0
        assert gate_cost(chain).delay_ps == 261.0
        assert gate_cost(tree).delay_ps == 174.0

    def test_area_adds_operands_before_the_gate(self):
        # in floats, 3.7 + (3.7 + 5.0) is 12.399999999999999; the area is a
        # tie-break key, and in 0.1 um^2 it is 37 + 37 + 50 = 124 in any order
        e = And(Or(Var(1), Var(2)), Or(Var(3), Var(4)))
        assert gate_cost(e).area_um2 == 12.4

    def test_monotone_under_embedding(self):
        inner = And(Var(1), Var(2))
        outer = Xor(inner, Or(Var(3), Var(1)))
        ci, co = gate_cost(inner), gate_cost(outer)
        assert ci.area_um2 <= co.area_um2
        assert ci.delay_ps <= co.delay_ps
        assert ci.gate_count <= co.gate_count


# -- randomized round trips ---------------------------------------------------

@given(exprs(6))
def test_parse_render_round_trip(e):
    assert truth_table(parse(render(e), 6), 6) == truth_table(e, 6)


def lower(e):
    """Rewrite -> and <-> into {!, &, |, ^}."""
    if isinstance(e, (Var, Const)):
        return e
    if isinstance(e, Not):
        return Not(lower(e.child))
    left, right = lower(e.left), lower(e.right)
    if isinstance(e, Implies):
        return Or(Not(left), right)
    if isinstance(e, Iff):
        return Not(Xor(left, right))
    return type(e)(left, right)


@given(exprs(6))
def test_gate_cost_prices_implies_and_iff_as_lowered(e):
    assert gate_cost(e) == gate_cost(lower(e))


@given(exprs(4))
def test_anf_agrees_with_truth_table(e):
    anf = to_anf(e, 4)
    assert anf_expr(e, 4) == anf_to_expr(anf_mask(anf, 4), 4)
    for m in range(16):
        bits = [(m >> i) & 1 for i in range(4)]
        assert anf_evaluate(anf, bits) == eval_expr(e, bits) == value(e, bits)


# -- the operator-precedence pass against the recursive-descent oracle ---------

# tokens, out-of-range and odd variables, and characters no token starts with;
# the last are rare, since one anywhere in a text decides its error
SOUP_TOKENS = ["x1", "x2", "x7", "z3", "x0", "x01", "x\u0663", "0", "1", "2",
               "!", "&", "|", "^", "->", "<->", "(", ")"]
BAD_CHARACTERS = ["x", "-", "<", "?"]
SEPARATORS = ["", " ", "  ", "\t"]


def outcome(read, text, n):
    try:
        return "value", read(text, n)
    except ParseError as err:
        return "error", str(err), err.position


def check_against_oracle(text, n):
    """parse gives the oracle's AST or its error, and the table read agrees."""
    want = outcome(oracle_parse, text, n)
    assert outcome(parse, text, n) == want
    got = outcome(ex._read_table, text, n)
    if want[0] == "error":
        assert got == want
    else:
        assert got == ("value", ex._table_of(want[1], n))


soup_token = st.sampled_from(SOUP_TOKENS * 5 + BAD_CHARACTERS)
token_soup = st.lists(
    st.tuples(soup_token, st.sampled_from(SEPARATORS)), max_size=12
).map(lambda parts: "".join(tok + sep for tok, sep in parts))


@st.composite
def spliced_renders(draw):
    """A rendered expression with one slice replaced by a soup token or nothing."""
    text = render(draw(exprs(4)))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + draw(st.sampled_from(SOUP_TOKENS + BAD_CHARACTERS + [""])) + text[j:]


@st.composite
def dense_anf_lines(draw):
    """An update line as the benchmark's Galois files hold them: the XOR of
    up to 2^n distinct monomials over n = 6..12 variables, here with each
    variable spelled x or z and the operators spaced or not."""
    n = draw(st.sampled_from(range(6, 13)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = rng.choice((rng.randint(0, 1 << n), 1 << n))  # half of them full

    def op(symbol):
        return rng.choice(("", " ")) + symbol + rng.choice(("", " "))

    terms = []
    for mono in sorted(rng.sample(range(1 << n), count)):
        names = [rng.choice("xz") + str(i) for i in range(1, n + 1) if mono >> (i - 1) & 1]
        terms.append(op("&").join(names) or "1")
    return op("^").join(terms) or "0", n


class TestDenseAnfLines:
    @seed(10)
    @settings(deadline=None, max_examples=40)
    @given(dense_anf_lines())
    def test_table_read_matches_oracle(self, line):
        text, n = line
        want = ex._table_of(oracle_parse(text, n), n)
        assert ex._read_table(text, n) == want


class TestParserAgainstOracle:
    @seed(6)
    @settings(deadline=None, max_examples=300)
    @given(exprs(6), st.integers(1, 6))
    def test_rendered_expressions(self, e, n):
        check_against_oracle(render(e), n)

    @seed(6)
    @settings(deadline=None, max_examples=300)
    @given(token_soup, st.integers(1, 4))
    def test_token_soup(self, text, n):
        check_against_oracle(text, n)

    @seed(6)
    @settings(deadline=None, max_examples=150)
    @given(spliced_renders(), st.integers(1, 4))
    def test_spliced_renders(self, text, n):
        check_against_oracle(text, n)

    @pytest.mark.parametrize(
        "text",
        ["x1 x2", "", "  ", "(x1 & x2", "x1 & x2)", "(x1 x2)", "!", "x1 &", "x1 ? (",
         "(((x1)) ^ !(x2 -> 0)) <-> 1", "!!x1 & !(x1 | !x2)", "x1 -> x2 -> x1",
         "x1 ^ ^ x2", "^ x1", "01", "x0 ^ x1", "x3 & x1", "x1 ^ x1", " z01&x\u0662 ^1 ", "0"],
    )
    def test_edge_cases(self, text):
        check_against_oracle(text, 2)

    def test_bad_character_outranks_grammar_error(self):
        with pytest.raises(ParseError) as err:
            parse("x1 x2 ?", 2)
        assert (str(err.value), err.value.position) == ("unexpected character '?' at position 6", 6)
        with pytest.raises(ParseError) as err:
            parse("x1 x2", 2)
        assert (str(err.value), err.value.position) == ("unexpected token '2' at position 3", 3)


# -- the flat XOR-of-AND reader -------------------------------------------------

ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FLAT_FAULTS = ["out of range", "zero", "empty", "adjacent", "other digits"]


class GeneralPassReached(Exception):
    pass


def general_pass_reached(text, *args):
    raise GeneralPassReached(text)


@st.composite
def flat_lines(draw):
    """XOR-of-AND text over n = 1..12 variables: x and z spellings, leading
    zeros, constants, repeated terms and random spacing. Half of the lines
    carry one fault at a random operand: an index out of range or 0, an
    empty piece ("x1 ^ ^ x2", "x1 &", "^ x1"), two atoms with no operator
    between them, or an index in Arabic-Indic digits, which are not ASCII."""
    n = draw(st.integers(1, 12))
    index = st.integers(1, n)
    atom = st.one_of(
        st.tuples(st.sampled_from("xz"), index).map(lambda p: f"{p[0]}{p[1]}"),
        index.map(lambda i: f"x0{i}"),
        st.sampled_from(["0", "1"]),
    )
    terms = draw(st.lists(st.lists(atom, min_size=1, max_size=5), min_size=1, max_size=12))
    terms = [list(t) for t in terms + draw(st.lists(st.sampled_from(terms), max_size=3))]
    fault = draw(st.sampled_from(FLAT_FAULTS)) if draw(st.booleans()) else None
    if fault is not None:
        term = draw(st.sampled_from(terms))
        term[draw(st.integers(0, len(term) - 1))] = {
            "out of range": f"x{n + draw(st.integers(1, 3))}",
            "zero": draw(st.sampled_from(["x0", "z00"])),
            "empty": "",
            "adjacent": draw(st.sampled_from(["x1 x2", "01", "1 z1"])),
            "other digits": "z" + str(draw(index)).translate(ARABIC_INDIC_DIGITS),
        }[fault]

    def joined(symbol, parts):
        out = parts[0]
        for part in parts[1:]:
            out += draw(st.sampled_from(SEPARATORS)) + symbol + draw(st.sampled_from(SEPARATORS)) + part
        return out

    return joined("^", [joined("&", term) for term in terms]), n, fault


class TestFlatLines:
    @seed(11)
    @settings(deadline=None, max_examples=300)
    @given(flat_lines())
    def test_matches_oracle(self, line):
        text, n, fault = line
        check_against_oracle(text, n)
        if fault is None:  # a fault-free line never reaches the general pass
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ex, "_general_pass", general_pass_reached)
                parse(text, n)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def build_workload(name, seed_, work):
    """The benchmark's input files for one workload and seed, written to work."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
        return workloads.build(name, seed_, work)
    finally:
        sys.path.remove(str(BENCH))
        for module in ("workloads", "model", "check"):
            sys.modules.pop(module, None)


class TestFlatReaderRuns:
    """XOR-of-AND lines never reach the general pass; a line that silently
    fell through would lose the flat reader's speed with every value right."""

    @pytest.fixture
    def no_general_pass(self, monkeypatch):
        monkeypatch.setattr(ex, "_general_pass", general_pass_reached)

    def test_benchmark_galois_files(self, tmp_path, no_general_pass):
        build_workload("gal2fib-reconstruct", 1, tmp_path)
        files = sorted(tmp_path.glob("*.fsr"))
        assert len(files) == 64
        for path in files:
            fsr = parse_fsr_file(path.read_text())
            assert sorted(fsr.tables) == list(range(1, fsr.n + 1))

    @pytest.mark.parametrize("name", ["fib3_debruijn.fsr", "fib6_sparse.fsr", "fib8_sparse.fsr"])
    def test_flat_fixtures(self, name, no_general_pass):
        parse_fsr_file((FIXTURES / name).read_text())

    @pytest.mark.parametrize("text", ["(x1 ^ x2)", "!x1 & x2", "x1 | x2", "x1 -> x2",
                                      "x1 <-> x2", "x1 ^ x3", "x1 ^ ^ x2"])
    def test_other_lines_reach_the_general_pass(self, text, no_general_pass):
        with pytest.raises(GeneralPassReached):
            parse(text, 2)
        with pytest.raises(GeneralPassReached):
            ex._read_table(text, 2)

    def test_parenthesised_fixture_reaches_the_general_pass(self, no_general_pass):
        with pytest.raises(GeneralPassReached):
            parse_fsr_file((FIXTURES / "fib4_debruijn.fsr").read_text())
