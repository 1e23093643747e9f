import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import (
    FsrSpec,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    coordinate_structure,
    decode_state,
    encode_state,
    format_delta,
    galois_transition,
    parse,
    parse_delta,
    render,
    restrict_support,
    structure_matrix,
    synthesize_expr,
    transition_from_delta,
    transition_to_delta,
)
from fsrkit import expr, stp
from fsrkit.expr import ParseError, Var
from fsrkit.fib import _least_columns, fib_transition
from fsrkit.cli import parse_fsr_file
from fsrkit.fib2gal import enumerate_equivalents

from conftest import (
    MF4_ROWS,
    eval_expr,
    exprs,
    ref_coordinate_structure,
    ref_format_partial,
    ref_galois_transition,
    ref_parse_delta,
    ref_restrict_support,
    ref_structure_matrix,
    ref_synthesize_expr,
    ref_transition_of_tables,
    shared_term_lines,
)


def encode_by_kronecker(bits):
    """Oracle: iterated tensor placement of the two basis vectors."""
    vec = [1]
    for b in bits:
        factor = [1, 0] if b == 1 else [0, 1]
        vec = [v * f for v in vec for f in factor]
    return vec.index(1) + 1


class TestEncoding:
    def test_all_ones_is_first(self):
        assert encode_state((1, 1, 1, 1)) == 1

    def test_all_zeros_is_last(self):
        assert encode_state((0, 0, 0, 0)) == 16

    def test_1001(self):
        assert encode_state((1, 0, 0, 1)) == encode_by_kronecker((1, 0, 0, 1)) == 7

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bijection_exhaustive(self, n):
        seen = set()
        for bits in itertools.product((0, 1), repeat=n):
            k = encode_state(bits)
            assert decode_state(k, n) == bits
            seen.add(k)
        assert seen == set(range(1, (1 << n) + 1))

    def test_kronecker_oracle_agrees(self):
        for bits in itertools.product((0, 1), repeat=4):
            assert encode_state(bits) == encode_by_kronecker(bits)

    def test_first_half_iff_leading_one(self):
        for k in range(1, 17):
            assert (decode_state(k, 4)[0] == 1) == (k <= 8)

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_state(0, 3)
        with pytest.raises(ValueError):
            decode_state(9, 3)

    @pytest.mark.parametrize("bits", [[2, 0, 1], [1, -1], [0, 1, 3]])
    def test_encode_rejects_non_bits(self, bits):
        # [2, 0, 1] used to encode to -1, a state that does not exist
        with pytest.raises(ValueError, match="is not 0 or 1"):
            encode_state(bits)


class TestStructureMatrix:
    def test_identity_one_var(self):
        assert structure_matrix(parse("x1", 1), 1).rows == (1, 2)

    def test_reference_feedback(self):
        fb = parse("(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3))", 4)
        assert structure_matrix(fb, 4).rows == MF4_ROWS

    def test_agrees_with_eval(self):
        e = parse("x2 ^ x3", 3)
        M = structure_matrix(e, 3)
        for k in range(1, 9):
            want = 1 if eval_expr(e, decode_state(k, 3)) else 2
            assert M.rows[k - 1] == want

    def test_rejects_oversized_variables(self):
        with pytest.raises(ValueError):
            structure_matrix(parse("x3", 3), 2)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            StructureMatrix(2, (1, 2, 1))


class TestGaloisTransition:
    def test_reference_3stage_a(self):
        spec = FsrSpec.galois(3, [
            parse("z1 | !z2", 3),
            parse("(z1 & !z2 & z3) | (!z1 & z2)", 3),
            parse("z1 & (z2 <-> z3)", 3),
        ])
        assert galois_transition(spec).cols == (3, 4, 2, 3, 6, 6, 4, 4)

    def test_reference_3stage_b(self):
        spec = FsrSpec.galois(3, [
            parse("(z1 & !(z2 -> z3)) | (!z1 & z2)", 3),
            parse("(z1 & (z2 <-> z3)) | !(z1 | (z2 -> z3))", 3),
            parse("(z1 & (z2 | z3)) | !(z1 | z3)", 3),
        ])
        assert galois_transition(spec).cols == (5, 3, 7, 6, 4, 1, 8, 7)

    def test_one_stage_identity(self):
        spec = FsrSpec.galois(1, [parse("z1", 1)])
        assert galois_transition(spec).cols == (1, 2)

    def test_columns_match_per_state_successor(self):
        spec = FsrSpec.galois(2, [parse("z1 ^ z2", 2), parse("!z1", 2)])
        L = galois_transition(spec)
        for k in range(1, 5):
            bits = decode_state(k, 2)
            succ = (bits[0] ^ bits[1], 1 - bits[0])
            assert L.column(k) == encode_state(succ)


class TestDeepExpressions:
    """Truth tables of expressions deeper than the interpreter's recursion limit."""

    @pytest.mark.parametrize(
        "text,rows",
        [(" ^ ".join(["x1"] * 3000), (2, 2)), ("!" * 3001 + "x1", (2, 1))],
        ids=["long-chain", "negations"],
    )
    def test_structure_matrix_and_transition(self, text, rows):
        e = parse(text, 1)
        assert structure_matrix(e, 1).rows == rows
        assert galois_transition(FsrSpec.fibonacci(1, e)).cols == rows


class TestCoordinateStructure:
    def test_identity(self):
        L = TransitionMatrix(1, (1, 2))
        assert coordinate_structure(L, 1).rows == (1, 2)

    def test_first_coordinate_of_3stage(self):
        L = TransitionMatrix(3, (3, 4, 2, 3, 6, 6, 4, 4))
        # column bits read from decoding each successor state
        assert coordinate_structure(L, 1).rows == (1, 1, 1, 1, 2, 2, 1, 1)

    def test_fibonacci_shift_coordinate(self, lf4):
        assert coordinate_structure(lf4, 1).rows == structure_matrix(parse("x2", 4), 4).rows

    def test_reassembly_round_trip(self):
        L = TransitionMatrix(3, (5, 3, 7, 6, 4, 1, 8, 7))
        structures = [coordinate_structure(L, k) for k in range(1, 4)]
        rebuilt = tuple(
            encode_state([1 if m.rows[j - 1] == 1 else 0 for m in structures]) for j in range(1, 9)
        )
        assert rebuilt == L.cols

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_out_of_range_coordinate(self, k):
        L = TransitionMatrix(3, (5, 3, 7, 6, 4, 1, 8, 7))
        with pytest.raises(ValueError, match=rf"^coordinate {k} out of range \[1, 3\]$"):
            coordinate_structure(L, k)


def flips_value_somewhere(e, n, j):
    """Oracle for variable dependence, straight from expression evaluation."""
    for bits in itertools.product((0, 1), repeat=n):
        flipped = list(bits)
        flipped[j - 1] ^= 1
        if eval_expr(e, bits) != eval_expr(e, flipped):
            return True
    return False


class TestDependence:
    def test_matches_flip_oracle(self):
        L = TransitionMatrix(3, (3, 4, 2, 3, 6, 6, 4, 4))
        e = parse("z1 | !z2", 3)
        support = restrict_support(coordinate_structure(L, 1))[0]
        assert support == tuple(j for j in (1, 2, 3) if flips_value_somewhere(e, 3, j))
        assert 3 not in support

    def test_restrict_single_variable(self):
        M = structure_matrix(parse("x2", 4), 4)
        support, reduced = restrict_support(M)
        assert support == (2,)
        assert reduced.rows == (1, 2)

    def test_restrict_constant(self):
        M = structure_matrix(parse("0", 2), 2)
        support, reduced = restrict_support(M)
        assert support == ()
        assert reduced.rows == (2,)

    def test_full_support_coordinate(self):
        L = TransitionMatrix(3, (3, 4, 2, 3, 6, 6, 4, 4))
        support, _ = restrict_support(coordinate_structure(L, 3))
        assert support == (1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduction_reinflates_exhaustively(self, n):
        rng = random.Random(n)
        size = 1 << n
        tables = range(1 << size) if n <= 3 else (
            rng.getrandbits(size) for _ in range(200)
        )
        for mask in tables:
            M = StructureMatrix(n, tuple(
                1 if (mask >> k) & 1 else 2 for k in range(size)
            ))
            support, reduced = restrict_support(M)
            # reinflate: the reduced function of the support variables equals M
            for k in range(1, size + 1):
                bits = decode_state(k, n)
                partial = tuple(bits[j - 1] for j in support)
                assert reduced.rows[encode_state(partial) - 1] == M.rows[k - 1]


class TestSynthesis:
    def test_identity(self):
        assert synthesize_expr(StructureMatrix(1, (1, 2))) == Var(1)

    def test_negation(self):
        e = synthesize_expr(StructureMatrix(1, (2, 1)))
        assert structure_matrix(e, 1).rows == (2, 1)

    def test_reference_feedback_function_equal(self):
        M = StructureMatrix(4, MF4_ROWS)
        e = synthesize_expr(M)
        target = parse("(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3))", 4)
        assert structure_matrix(e, 4).rows == structure_matrix(target, 4).rows

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = tuple(rng.choice((1, 2)) for _ in range(1 << n))
            M = StructureMatrix(n, rows)
            assert structure_matrix(synthesize_expr(M), n).rows == rows


class TestTransitionMatrix:
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_rejects_out_of_range_column(self, n):
        # a 0-stage matrix is refused before its columns are read
        message = "^column index out of range$" if n else "^a 0-stage matrix has no output bit$"
        size = 1 << n
        for at in sorted({0, size // 2, size - 1}):  # first, middle and last column
            for bad in (0, size + 1, None, "1"):  # min() and max() raised TypeError on the last two
                cols = list(range(1, size + 1))
                cols[at] = bad
                with pytest.raises(ValueError, match=message):
                    TransitionMatrix(n, tuple(cols))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_accepts_both_ends_of_the_range(self, n):
        size = 1 << n
        for cols in ((1,) * size, (size,) * size, tuple(range(size, 0, -1))):
            assert TransitionMatrix(n, cols).cols == cols


class TestPermutationTransform:
    # sorted() raised TypeError on the last two
    @pytest.mark.parametrize("perm", [(1, 1, 2, 3), (0, 1, 2, 3), (1, 2, 3, 5), (1, 2, 3),
                                      (1, 2, 3, None), (1, "2", 3, 4)])
    def test_rejects_non_permutation(self, perm):
        with pytest.raises(ValueError, match="^not a permutation of the state indices$"):
            PermutationTransform(2, perm)


class TestDeltaFormat:
    def test_round_trip(self):
        text = "d16[2 4 6 8 10 12 13 16 1 3 5 7 9 11 14 15]"
        L = transition_from_delta(text)
        assert transition_to_delta(L) == text

    def test_partial_entries(self):
        size, entries = parse_delta("d8[* 4 6 8 * 3 * 8]")
        assert size == 8
        assert entries == (None, 4, 6, 8, None, 3, None, 8)
        assert format_delta(8, entries) == "d8[* 4 6 8 * 3 * 8]"
        assert format_delta(8, {8: 8, 2: 4, 3: 6, 6: 3, 4: 8}) == "d8[* 4 6 8 * 3 * 8]"

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_long_rows_against_per_entry_text(self, size):
        rng = random.Random(size)
        entries = [rng.randint(1, size) for _ in range(size)]
        # a few None entries: that row is written as its mapping, the other in one format
        for j in rng.sample(range(size), min(size, 3)):
            entries[j] = None
        for row in (entries, [e or 1 for e in entries]):
            text = " ".join("*" if e is None else str(e) for e in row)
            assert format_delta(size, row) == format_delta(size, tuple(row)) == f"d{size}[{text}]"
        fixed = {j: e for j, e in enumerate(entries, start=1) if e is not None}
        assert format_delta(size, fixed) == format_delta(size, entries)

    def test_full_row_peaks_near_its_text(self):
        # one C-level format holds no str per entry and no second copy of the text
        size = 1 << 16
        rng = random.Random(16)
        entries = tuple(rng.randint(1, size) for _ in range(size))
        text = format_delta(size, entries)
        tracemalloc.start()
        try:
            format_delta(size, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), f"peak {peak} for {len(text)} characters"

    def test_empty_row(self):
        assert format_delta(0, ()) == "d0[]"
        assert format_delta(4, []) == "d4[]"

    def test_rejects_bad_text(self):
        with pytest.raises(ValueError):
            parse_delta("16[1 2]")
        with pytest.raises(ValueError):
            parse_delta("d4[1 9]")
        with pytest.raises(ValueError):
            transition_from_delta("d6[1 2 3 4 5 6]")
        with pytest.raises(ValueError):
            transition_from_delta("d4[* 1 2 3]")



def least_overlaid(l, fixed):
    """The least completion's columns with the fixed ones laid over them."""
    cols = _least_columns(l)
    for j, t in fixed.items():
        cols[j - 1] = t
    return tuple(cols)


def edge_columns(l, rng):
    """Columns at the edges the writer's runs have: values near powers of
    ten and whole thousands, the ends of each half and of power-of-two
    pieces, in both halves; each raised or not, a few to any value."""
    size, half = 1 << l, 1 << (l - 1)
    js = {1, half, half + 1, size}
    for v in (9, 11, 99, 101, 999, 1001, 1999, 2001, 9999, 10001, 99999, 100001):
        js.update({(v + 1) // 2 + d for d in (-1, 0, 1)})
    js.update(p * k + d for p in (2, 8, 64, 1024) for k in range(1, 4) for d in (0, 1))
    js.update(j + half for j in list(js))
    fixed = {}
    for j in sorted(j for j in js if 1 <= j <= size):
        least = 2 * ((j - 1) % half) + 1
        fixed[j] = rng.randint(1, size) if rng.random() < 0.05 else least + rng.randint(0, 1)
    return fixed


class TestDeltaPieces:
    """delta_pieces writes P and the least completion from the fixed map
    alone, against the per-entry texts it replaced."""

    @pytest.mark.parametrize("start", [1, 3, 997, 999, 1001, 9999, 10001, 99999, 4095999, 4096001])
    def test_odd_text_against_per_entry(self, start):
        for a in range(start, start + 40, 2):
            for b in range(a, a + 2100, 37 * 2):
                assert stp._odd_text(a, b) == " ".join(map(str, range(a, b, 2))), (a, b)

    @pytest.mark.parametrize("piece", [1, 2, 8, 64, 1 << 14])
    def test_least_at_digit_and_piece_edges(self, piece, monkeypatch):
        monkeypatch.setattr(stp, "_PIECE", piece)
        rng = random.Random(piece)
        for l in range(1, 15):
            size = 1 << l
            for fixed in ({}, edge_columns(l, rng)):
                want = format_delta(size, least_overlaid(l, fixed))
                assert "".join(stp.delta_pieces(size, fixed, least=True)) == want, (l, piece)
                assert format_delta(size, fixed) == ref_format_partial(size, fixed)

    @pytest.mark.parametrize("piece", [1, 8, 1 << 14])
    def test_dense_pieces(self, piece, monkeypatch):
        # every column fixed, and half of them: pieces written an entry at a time
        monkeypatch.setattr(stp, "_PIECE", piece)
        rng = random.Random(piece)
        for l in (1, 2, 5, 9, 12):
            size, half = 1 << l, 1 << (l - 1)
            every = {j: 2 * ((j - 1) % half) + rng.randint(1, 2) for j in range(1, size + 1)}
            for fixed in (every, dict(rng.sample(sorted(every.items()), half))):
                want = format_delta(size, least_overlaid(l, fixed))
                assert "".join(stp.delta_pieces(size, fixed, least=True)) == want
                assert format_delta(size, fixed) == ref_format_partial(size, fixed)

    @pytest.mark.parametrize("size", [0, 1, 7, 4096, 16384, 16385, 3 * 16384 + 5])
    def test_partial_against_per_entry_text(self, size):
        rng = random.Random(size)
        for k in (0, min(size, 1), size // 100, size // 3, size):
            fixed = {j: rng.randint(1, 10 ** rng.randint(0, 7))
                     for j in rng.sample(range(1, size + 1), k)}
            assert format_delta(size, fixed) == ref_format_partial(size, fixed)

    @pytest.mark.parametrize("fixed", [{0: 1}, {5: 1}, {1: 2, 9: 1}])
    def test_rejects_positions_out_of_range(self, fixed):
        with pytest.raises(ValueError, match="out of range"):
            format_delta(4, fixed)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return ValueError, str(err)


class TestParseDeltaAgainstOracle:
    """One split and one conversion pass, against the per-token loop; the
    first bad token names the error either way."""

    BAD = ["0", "-3", "x", "1.5", "1e3", "--1", "*x", "0x1", "+1", "1_0", "\u0663", "-\u0663"]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_texts(self, n):
        size = 1 << n
        rng = random.Random(n)
        texts = ["d1[]", f"d{size}[]", f"d{size}[*]", f" d{size} [ 1 ] ", f"d{size}[1 2"]
        for _ in range(40):
            toks = [str(rng.randint(1, size)) for _ in range(size)]
            if rng.random() < 0.5:
                for j in rng.sample(range(size), rng.randint(1, size)):
                    toks[j] = "*"
            for _ in range(rng.choice((0, 0, 1, 2))):
                toks[rng.randrange(size)] = rng.choice(self.BAD + [str(size + 1)])
            texts.append(f"d{size}[{' '.join(toks)}]")
        for text in texts:
            assert outcome(parse_delta, text) == outcome(ref_parse_delta, text), text
            want = outcome(ref_parse_delta, text)
            # a d1[...] matrix parses, but as a 0-stage matrix it is refused
            if isinstance(want[1], tuple) and None not in want[1] and len(want[1]) == size and n:
                assert transition_from_delta(text).cols == want[1]
            elif isinstance(want[1], tuple):
                with pytest.raises(ValueError):
                    transition_from_delta(text)

    def test_first_bad_token_names_the_error(self):
        assert outcome(parse_delta, "d4[1 9 x]") == (ValueError, "entry 9 out of range [1, 4]")
        assert outcome(parse_delta, "d4[1 x 9]") == outcome(ref_parse_delta, "d4[1 x 9]")
        assert outcome(parse_delta, "d4[* 0 *]") == (ValueError, "entry 0 out of range [1, 4]")


class TestTransitionOfTables:
    """Successor columns from byte lanes, against one join per state."""

    @pytest.mark.parametrize("n", range(0, 15))
    def test_random_tables(self, n):
        if n == 0:  # no tables: the one-state matrix has no output bit
            with pytest.raises(ValueError, match="^a 0-stage matrix has no output bit$"):
                stp._transition_of_tables(0, [])
            return
        rng = random.Random(n)
        size = 1 << n
        for _ in range(3 if n < 12 else 1):
            tables = [rng.getrandbits(size) for _ in range(n)]
            assert stp._transition_of_tables(n, tables).cols == ref_transition_of_tables(n, tables)
        for t in (0, (1 << size) - 1):  # every state to the last, and to the first
            tables = [t] * n
            assert stp._transition_of_tables(n, tables).cols == ref_transition_of_tables(n, tables)

    @pytest.mark.parametrize("n", [1, 8, 9, 16])
    def test_inverts_coordinate_tables(self, n):
        rng = random.Random(n)
        L = TransitionMatrix(n, tuple(rng.randint(1, 1 << n) for _ in range(1 << n)))
        assert stp._transition_of_tables(n, stp._coordinate_tables(L)) == L


class TestTableReader:
    """A file's term table (expr._table_reader) reads every line as
    expr._read_table does, the oracle."""

    def read(self, n, lines):
        """Each line through one term table, and the lines that reached
        _read_table."""
        per_line = expr._read_table
        reached = []

        def spy(text, n_):
            reached.append(text)
            return per_line(text, n_)

        read = expr._table_reader(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expr, "_read_table", spy)
            return [read(ln) for ln in lines], reached

    @seed(19)
    @settings(deadline=None, max_examples=200)
    @given(shared_term_lines())
    def test_matches_per_line_reader(self, case):
        n, lines = case
        got, reached = self.read(n, lines)
        assert got == [expr._read_table(ln, n) for ln in lines]
        # a line of at most 2n terms is folded as before; a longer one is not
        assert reached == [ln for ln in lines if ln.count("^") < 2 * n]

    def test_spacings_of_one_term(self):
        lines = ["x1&x2 ^ x1 ^ x2 ^ 1 ^ x2", " x1 & x2 ^x1^  z2 ^1^x1&x2 ^ x2&x1"]
        got, reached = self.read(2, lines)
        assert (got, reached) == ([expr._read_table(ln, 2) for ln in lines], [])

    def test_one_monomial_twice_cancels(self):
        got, _ = self.read(2, ["x1 & x2 ^ x2&x1 ^ x1 ^ x2 ^ 1"])
        assert got == [expr._read_table("x1 ^ x2 ^ 1", 2)]

    def test_constant_factors_and_repeats(self):
        lines = ["x3 & x3 ^ 1 & x1 ^ 0 & x2 ^ z1 & z2 ^ x2 & 0 & x3 ^ 1 ^ 0 ^ z3",
                 "z3 ^ x3&x3&1 ^ 0 ^ x1&1 ^ 1 ^ x2 ^ 0&0 ^ z2&z1"]
        got, reached = self.read(3, lines)
        assert (got, reached) == ([expr._read_table(ln, 3) for ln in lines], [])
        assert got[0] == expr._read_table("x3 ^ x1 ^ x1 & x2 ^ 1 ^ x3", 3)

    @pytest.mark.parametrize("other", ["(x1 & x2)", "x1 | x2", "!x1", "x1 -> x2", "x1 <-> x2"])
    def test_other_line_after_a_full_table(self, other):
        full = "x1 ^ x2 ^ x1 & x2 ^ 1 ^ z1"
        lines = [full, f"{other} ^ {full}", full]
        got, reached = self.read(2, lines)
        assert got == [expr._read_table(ln, 2) for ln in lines]
        assert reached == [lines[1]]

    @pytest.mark.parametrize("fault,message", [
        ("x3", "variable index 3 out of range [1, 2] at position 29"),
        ("x0", "variable index 0 out of range [1, 2] at position 29"),
        ("x1 ? x2", "unexpected character '?' at position 32"),
        ("", "unexpected token '^' at position 30"),
        ("x1 x2", "unexpected token '2' at position 32"),
    ])
    def test_faulty_line_after_a_full_table(self, fault, message):
        full = "x1 ^ x2 ^ x1 & x2 ^ 1 ^ z1"
        read = expr._table_reader(2)
        assert read(full) == expr._read_table(full, 2)
        with pytest.raises(ParseError) as err:
            read(f"{full} ^ {fault} ^ x1")
        assert str(err.value) == message


class TestFsrSpec:
    def test_fibonacci_updates_expand_to_shifts(self):
        spec = FsrSpec.fibonacci(3, parse("x1 ^ x3", 3))
        x1, x2, x3 = expr._var_masks(3)
        assert spec.tables == {3: x1 ^ x3}
        # coordinates 1 and 2 shift: their successor bits are x2 and x3
        L = galois_transition(spec)
        assert stp._coordinate_tables(L)[:2] == [x2, x3]

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            FsrSpec.galois(2, [Var(1)])

    def test_rejects_oversized_variable(self):
        with pytest.raises(ValueError):
            FsrSpec.fibonacci(2, parse("x3", 3))

    @pytest.mark.parametrize("kind, tables, message", [
        ("fib", {2: 0}, "unknown configuration 'fib'"),
        ("fibonacci", {1: 0}, "Fibonacci files must define exactly f2"),
        ("fibonacci", {1: 0, 2: 0}, "Fibonacci files must define exactly f2"),
        ("galois", {1: 0}, "missing update functions: [2]"),
        ("galois", {1: 0, 2: 0, 3: 0}, "update functions out of range for n=2: [3]"),
        ("galois", {1: 0, 2: 16}, "truth table of f2 out of range [0, 2^(2^2))"),
        ("fibonacci", {2: -1}, "truth table of f2 out of range [0, 2^(2^2))"),
    ])
    def test_constructor_refusals(self, kind, tables, message):
        with pytest.raises(ValueError) as err:
            FsrSpec(2, kind, tables)
        assert str(err.value) == message

    def test_largest_table_accepted(self):
        assert FsrSpec(2, "galois", {1: 15, 2: 0}).tables == {1: 15, 2: 0}

    @pytest.mark.parametrize("index", [0, 3])
    def test_variable_range_is_named(self, index):
        message = f"variable indices [{index}] out of range [1, 2]"
        for build in (lambda e: structure_matrix(e, 2), lambda e: FsrSpec.galois(2, [Var(1), e]),
                      lambda e: FsrSpec.fibonacci(2, e)):
            with pytest.raises(ValueError) as err:
                build(Var(index))
            assert str(err.value) == message

    @seed(26)
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(exprs(n), min_size=n, max_size=n))))
    def test_trees_equal_their_file(self, case):
        n, updates = case
        galois = "\n".join([f"n={n} type=gal"] + [
            f"f{k} = {render(e)}" for k, e in enumerate(updates, start=1)])
        assert FsrSpec.galois(n, updates) == parse_fsr_file(galois)
        fibonacci = f"n={n} type=fib\nf{n} = {render(updates[0])}"
        assert FsrSpec.fibonacci(n, updates[0]) == parse_fsr_file(fibonacci)


# -- whole-table operations against the per-entry reference implementations ---

def table(n: int, mask: int) -> StructureMatrix:
    return StructureMatrix(n, tuple(1 if (mask >> u) & 1 else 2 for u in range(1 << n)))


tables = st.integers(0, 8).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda mask: table(n, mask))
)


def check_table_ops(M: StructureMatrix) -> None:
    assert restrict_support(M) == ref_restrict_support(M)
    assert synthesize_expr(M) == ref_synthesize_expr(M)


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_variable_masks(self, n):
        # bit u of mask i-1 is variable i on state u + 1
        want = tuple(
            sum(1 << u for u in range(1 << n) if not (u >> (n - i)) & 1)
            for i in range(1, n + 1)
        )
        assert expr._var_masks(n) == want

    @seed(3)
    @settings(deadline=None)
    @given(tables)
    def test_random_tables(self, M):
        check_table_ops(M)
        assert structure_matrix(synthesize_expr(M), M.n) == M

    @seed(3)
    @settings(deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_coordinates_of_random_maps(self, n, rng):
        L = TransitionMatrix(n, tuple(rng.randint(1, 1 << n) for _ in range(1 << n)))
        for k in range(1, n + 1):
            assert coordinate_structure(L, k) == ref_coordinate_structure(L, k)

    @seed(3)
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 11), st.randoms(use_true_random=False))
    def test_coordinate_tables_of_random_maps(self, n, rng):
        # n > 8 reads the successor indices in more than one byte
        L = TransitionMatrix(n, tuple(rng.randint(1, 1 << n) for _ in range(1 << n)))
        assert stp._coordinate_tables(L) == [
            stp._rows_to_mask(ref_coordinate_structure(L, k).rows) for k in range(1, n + 1)]

    @seed(3)
    @settings(deadline=None, max_examples=8)
    @given(st.integers(9, 16), st.randoms(use_true_random=False))
    def test_coordinates_past_one_byte_lane(self, n, rng):
        # coordinate k reads only the byte lane that holds its bit
        L = TransitionMatrix(n, tuple(rng.randint(1, 1 << n) for _ in range(1 << n)))
        tables = stp._coordinate_tables(L)
        for k in range(1, n + 1):
            assert coordinate_structure(L, k).rows == stp._mask_to_rows(tables[k - 1], n)

    @seed(3)
    @settings(deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(exprs(n), min_size=n, max_size=n))
    ))
    def test_galois_transition(self, case):
        n, updates = case
        for e in updates:
            assert structure_matrix(e, n) == ref_structure_matrix(e, n)
        spec = FsrSpec.galois(n, updates)
        assert galois_transition(spec) == ref_galois_transition(n, updates)

    @seed(3)
    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 6), st.randoms(use_true_random=False), st.integers(0, 2**32))
    def test_enumerated_candidates(self, n, rng, sample_seed):
        feedback = table(n, rng.getrandbits(1 << n))
        L_f = fib_transition(feedback)
        for cand in enumerate_equivalents(L_f, budget=3, seed=sample_seed):
            for k in range(1, n + 1):
                C = coordinate_structure(cand.matrix, k)
                assert C == ref_coordinate_structure(cand.matrix, k)
                check_table_ops(C)
                _, reduced = restrict_support(C)
                check_table_ops(reduced)
