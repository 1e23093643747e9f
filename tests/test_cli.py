import contextlib
import hashlib
import importlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import fsrkit
from fsrkit import cli, fib, gal2fib, stp
from fsrkit import (
    And, Const, Iff, Implies, Not, Or, ParseError, TransitionMatrix, Var, Xor, galois_transition,
    min_stage_fibonacci, render, simulate, transition_from_delta, transition_to_delta,
)
from fsrkit.cli import MAX_STAGES, main, parse_fsr_file
from fsrkit.fib2gal import reduce_candidate

from conftest import (
    COUNTER5, LF4_COLS, LG4_COLS, LONG_WINDOW_COLS, SPARSE_GALOIS12, dense_galois_text, exprs,
    leafless_galois_text, record_matrix_builds,
    ref_format_partial, ref_galois_transition, shared_term_lines, sparse_fibonacci_text,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIB4 = str(FIXTURES / "fib4_debruijn.fsr")
GAL3A = str(FIXTURES / "gal3_shrinkable.fsr")
GAL3B = str(FIXTURES / "gal3_two_attractors.fsr")

LF4_DELTA = "d16[2 4 6 8 10 12 13 16 1 3 5 7 9 11 14 15]"
LG4_DELTA = "d16[3 5 4 8 10 16 9 13 2 6 12 7 15 1 11 14]"
PI4_DELTA = "d16[1 3 2 4 7 5 6 8 14 9 12 10 16 11 15 13]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestFsrFileParsing:
    def test_fixture_round_trip(self):
        text = Path(FIB4).read_text()
        fsr = parse_fsr_file(text)
        assert fsr.n == 4 and fsr.kind == "fibonacci"
        assert galois_transition(fsr).cols == LF4_COLS

    def test_galois_fixture(self):
        fsr = parse_fsr_file(Path(GAL3B).read_text())
        assert fsr.kind == "galois"
        assert galois_transition(fsr).cols == (5, 3, 7, 6, 4, 1, 8, 7)

    def test_comments_and_blank_lines(self):
        fsr = parse_fsr_file("# c\nn=2 type=gal\n\nf1 = z2 # trailing\nf2 = z1\n")
        assert fsr.n == 2

    def test_named_matrix_line(self, capsys, tmp_path):
        # a file defines update functions only; a matrix line is not one
        f = tmp_path / "named.fsr"
        f.write_text("n=2 type=gal\nf1 = z2\nf2 = z1\nL = d4[1 2 3 4]\n")
        assert run(capsys, "to-matrix", str(f)) == (
            2, [], "error: unrecognized line: 'L = d4[1 2 3 4]'\n")

    @pytest.mark.parametrize("header", ["n=3 n=2 type=gal", "n=2 type=gal type=fib",
                                        "n=2 type=gal junk", "n=2 type=gal x=1"])
    def test_header_takes_exactly_n_and_type(self, capsys, tmp_path, header):
        # the header used to go into a dict, where the last value of a key
        # won, and a token other than n= and type= was dropped
        f = tmp_path / "header.fsr"
        f.write_text(f"{header}\nf1 = z2\nf2 = z1\n")
        assert run(capsys, "to-matrix", str(f)) == (
            2, [], "error: header must be `n=<int> type=<fib|gal>`\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n=2\nf2 = x1",
            "n=two type=fib\nf2 = x1",
            "n=2 type=fib\nf1 = x1",  # fib must define exactly f_n
            "n=2 type=fib\nf2 = x1\nf2 = x2",
            "n=2 type=gal\nf1 = z1",  # missing f2
            "n=2 type=gal\nf1 = z1\nf3 = z1\nf2 = z2",
            "n=2 type=gal\nf1 = z1\nf2 = z9",
            "n=2 type=gal\nf1 = z1\nf2 = z2\njunk line",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_fsr_file(text)

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)
        with pytest.raises(ValueError) as err:
            parse_fsr_file("n=2 type=fib\nf2 = x1 &\n")
        assert isinstance(err.value, ParseError) and err.value.position == 4

    def test_superscript_register_name_exits_two(self, capsys, tmp_path):
        # str.isdigit accepts '²', which int() refuses
        f = tmp_path / "superscript.fsr"
        f.write_text("n=2 type=fib\nf² = x1\n")
        assert run(capsys, "to-matrix", str(f)) == (
            2, [], "error: unrecognized line: 'f² = x1'\n")

    @pytest.mark.parametrize("sep", ["\r\n", "\r", "\f", "\f\n", "\v", "\x1c", "\x85", "\u2028"])
    def test_line_separators_are_those_of_splitlines(self, sep):
        text = "# c\nn=2 type=gal\n\nf1 = z2 # trailing\nf2 = z1\n"
        assert parse_fsr_file(text.replace("\n", sep)) == parse_fsr_file(text)
        bad = "n=2 type=gal\nf1 = z2\njunk\nf2 = z1\nf9 = z1".replace("\n", sep)
        with pytest.raises(ValueError, match="^unrecognized line: 'junk'$"):
            parse_fsr_file(bad)

    @pytest.mark.parametrize("text", [
        "", "\n", "a", "a\n", "a\r", "\r\n", "a\r\nb", "a\n\rb", "a\r\rb\n", "a\f\nb",
        "a\fb\f", "\f", "\f\n", "a\x85\n\u2029b", "a\x1d\r\n\n", "a\n\n\vb\x1e",
    ])
    def test_lines_are_those_of_splitlines(self, text):
        assert list(cli._lines(text)) == text.splitlines()

    def test_reads_one_line_at_a_time(self):
        # the whole text split into a list of stripped lines first peaked at
        # 2.90x the text here; one line at a time, 1.98x
        text = dense_galois_text(12)
        tracemalloc.start()
        try:
            fsr = parse_fsr_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(fsr.tables) == list(range(1, 13))
        assert peak <= 2.3 * len(text), f"peak {peak / len(text):.2f}x the text"

    def test_register_name_takes_any_decimal_digit(self):
        # int() reads every Unicode decimal digit, as the expression parser does
        assert parse_fsr_file("n=3 type=fib\nf\u0663 = x1 ^ x\u0663\n").tables == (
            parse_fsr_file("n=3 type=fib\nf3 = x1 ^ x3\n").tables)


class TestToMatrix:
    def test_fibonacci_fixture(self, capsys):
        code, out, _ = run(capsys, "to-matrix", FIB4)
        assert code == 0
        assert out == [LF4_DELTA]

    def test_galois_fixtures(self, capsys):
        code, out, _ = run(capsys, "to-matrix", GAL3A)
        assert (code, out) == (0, ["d8[3 4 2 3 6 6 4 4]"])
        code, out, _ = run(capsys, "to-matrix", GAL3B)
        assert (code, out) == (0, ["d8[5 3 7 6 4 1 8 7]"])

    @seed(7)
    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), exprs(n))))
    def test_random_fibonacci_file_matches_reference(self, case):
        n, feedback = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fib.fsr"
            path.write_text(f"n={n} type=fib\nf{n} = {render(feedback)}\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["to-matrix", str(path)]) == 0
        updates = [Var(k) for k in range(2, n + 1)] + [feedback]
        want = transition_to_delta(ref_galois_transition(n, updates))
        assert out.getvalue() == want + "\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "to-matrix", "no_such_file.fsr")
        assert code == 2
        assert err.startswith("error:")


class TestFib2Gal:
    def test_fixed_permutation(self, capsys):
        code, out, _ = run(capsys, "fib2gal", FIB4, "--perm", PI4_DELTA)
        assert code == 0
        assert out == [f"L_g = {LG4_DELTA}", f"T = {PI4_DELTA}"]

    def test_fixed_permutation_logic_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "fib2gal", FIB4, "--perm", PI4_DELTA, "--emit", "all"
        )
        assert code == 0
        assert out[2] == "n=4 type=gal"
        emitted = parse_fsr_file("\n".join(out[2:]))
        assert galois_transition(emitted).cols == LG4_COLS

    def test_dense_twelve_stage_logic(self, capsys, tmp_path):
        # a feedback of about 2^11 monomials synthesizes to an XOR chain
        # deeper than the recursion limit; its logic is still printed
        n = 12
        rng = random.Random(1312)
        monomials = [m for m in range(1 << n) if rng.random() < 0.5]
        terms = (" & ".join(f"x{i + 1}" for i in range(n) if m >> i & 1) or "1"
                 for m in monomials)
        f = tmp_path / "dense12.fsr"
        f.write_text(f"n={n} type=fib\nf{n} = {' ^ '.join(terms)}\n")
        identity = f"d{1 << n}[{' '.join(map(str, range(1, (1 << n) + 1)))}]"
        code, out, err = run(capsys, "fib2gal", str(f), "--perm", identity, "--emit", "logic")
        assert (code, err) == (0, "")
        L_g = transition_from_delta(out[0].removeprefix("L_g = "))
        assert out[2] == f"n={n} type=gal"
        tables = stp._coordinate_tables(L_g)
        for k, line in enumerate(out[3:], start=1):
            name, text = line.split(" = ", 1)
            assert name == f"f{k}"
            assert stp._read_table(text, n) == tables[k - 1]
        assert len(out) == 3 + n

    def test_zero_budget_reports_total(self, capsys):
        code, out, _ = run(capsys, "fib2gal", FIB4, "--budget", "0")
        assert code == 0
        assert out == ["# examined=0 emitted=0 total_permutations=(2^3)!^2"]

    def test_zero_budget_count_at_eleven_stages(self, capsys, tmp_path):
        # (2^10)!^2 has more decimal digits than Python converts to a string
        f = tmp_path / "fib11.fsr"
        f.write_text("n=11 type=fib\nf11 = x1 ^ x2\n")
        assert run(capsys, "fib2gal", str(f), "--budget", "0") == (
            0, ["# examined=0 emitted=0 total_permutations=(2^10)!^2"], "")

    @pytest.mark.parametrize("perm, token", [
        ("d16[1,2 3 4 5 6 7 8 9 10 11 12 13 14 15 16]", "1,2"),
        ("d16[1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 0x10]", "0x10"),
    ])
    def test_non_integer_perm_entry_exits_two(self, capsys, perm, token):
        assert run(capsys, "fib2gal", FIB4, "--perm", perm) == (
            2, [], f"error: entry {token!r} is not an integer\n")

    def test_perm_with_too_few_entries_exits_two(self, capsys):
        # the entry count used to reach PermutationTransform's own check
        assert run(capsys, "fib2gal", FIB4, "--perm", "d16[1 2 3]") == (
            2, [], "error: permutation must be a complete d16[...] sequence\n")

    def test_perm_with_a_repeated_entry_exits_two(self, capsys):
        perm = "d16[1 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"
        assert run(capsys, "fib2gal", FIB4, "--perm", perm) == (
            2, [], "error: not a permutation of the state indices\n")

    def test_budget_without_seed_fails_at_eleven_stages(self, capsys, tmp_path):
        f = tmp_path / "fib11.fsr"
        f.write_text("n=11 type=fib\nf11 = x1 ^ x2\n")
        code, out, err = run(capsys, "fib2gal", str(f), "--budget", "5")
        assert (code, out) == (2, [])
        assert err == "error: (2^10)!^2 permutations exceed budget 5: a seed is required\n"

    def test_sampled_run_is_deterministic(self, capsys):
        args = ("fib2gal", FIB4, "--budget", "5", "--seed", "3")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        code, out, _ = first
        assert code == 0
        matrices = [ln for ln in out if ln.startswith("d16[")]
        assert out[-1] == f"# examined=5 emitted={len(matrices)}"
        assert len(matrices) == len(set(matrices)) <= 5

    def test_sampled_matrices_are_conjugates(self, capsys):
        from fsrkit import all_output_sequences

        code, out, _ = run(capsys, "fib2gal", FIB4, "--budget", "3", "--seed", "1")
        assert code == 0
        L_f = TransitionMatrix(4, LF4_COLS)
        want = set(all_output_sequences(L_f).values())
        for ln in out:
            if ln.startswith("d16["):
                L_g = transition_from_delta(ln)
                assert set(all_output_sequences(L_g).values()) == want

    def test_budget_without_seed_fails(self, capsys):
        code, _, err = run(capsys, "fib2gal", FIB4, "--budget", "5")
        assert code == 2
        assert "seed" in err

    def test_minimize_reports_cost(self, capsys):
        code, out, _ = run(
            capsys, "fib2gal", FIB4, "--budget", "20", "--seed", "1", "--minimize"
        )
        assert code == 0
        fields = dict(
            ln.split(" = ", 1) for ln in out if " = " in ln
        )
        assert set(fields) >= {"L_g", "T", "support_sum", "area_um2"}
        L_g = transition_from_delta(fields["L_g"])
        r = reduce_candidate(L_g)
        assert int(fields["support_sum"]) == r.support_sum
        assert float(fields["area_um2"]) == r.area_um2

    @pytest.mark.parametrize("extra", [(), ("--minimize",)])
    def test_negative_budget_exits_two(self, capsys, extra):
        code, out, err = run(capsys, "fib2gal", FIB4, "--budget", "-3", "--seed", "1", *extra)
        assert (code, out) == (2, [])
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("budget", ["abc", "1.5"])
    def test_non_integer_budget_exits_two(self, capsys, budget):
        assert run(capsys, "fib2gal", FIB4, "--budget", budget) == (
            2, [], f"error: budget must be an integer or 'full', got {budget!r}\n")

    @pytest.mark.parametrize("text, extra", [
        (Path(FIB4).read_text(), ("--budget", "0")),
        (Path(FIB4).read_text(), ("--budget", "0", "--seed", "1")),
        ("n=1 type=fib\nf1 = x1\n", ()),
    ], ids=["zero-budget", "zero-budget-seeded", "one-stage"])
    def test_minimize_with_no_candidates_exits_two(self, capsys, tmp_path, text, extra):
        # a zero budget examines nothing, and a 1-stage register has no
        # conjugate but itself: either way there is nothing to minimize
        f = tmp_path / "in.fsr"
        f.write_text(text)
        assert run(capsys, "fib2gal", str(f), "--minimize", *extra) == (
            2, [], "error: no candidates to select from\n")

    @pytest.mark.parametrize("name, half, extra", [
        ("fib4_debruijn.fsr", 3, ()),
        ("fib4_debruijn.fsr", 3, ("--minimize",)),
        ("fib4_debruijn.fsr", 3, ("--budget", "full", "--minimize", "--emit", "all")),
        ("fib8_sparse.fsr", 7, ()),
        ("fib8_sparse.fsr", 7, ("--minimize",)),
    ])
    def test_unlimited_search_exits_two_above_three_stages(self, capsys, monkeypatch, name, half,
                                                           extra):
        # the default --budget full would draw (2^(n-1))!^2 permutations:
        # refused before the first one, and before anything is printed
        def searched(n):
            raise AssertionError("the unlimited search started")

        monkeypatch.setattr(fsrkit.fib2gal, "partition_permutations", searched)
        assert run(capsys, "fib2gal", str(FIXTURES / name), *extra) == (
            2, [], f"error: (2^{half})!^2 permutations are too many to search without a limit: "
                   "give a budget and a seed\n")

    @pytest.mark.parametrize("extra", [
        ("--minimize",), ("--seed", "4"), ("--budget", "3"), ("--budget", "0"),
        ("--budget", "3", "--seed", "4", "--minimize", "--emit", "all"),
    ])
    def test_perm_with_search_options_exits_two(self, capsys, extra):
        # --perm applies one permutation: there is no search for these to
        # limit, seed or minimize
        assert run(capsys, "fib2gal", FIB4, "--perm", PI4_DELTA, *extra) == (
            2, [], "error: --perm applies one fixed permutation: "
                   "it takes no --minimize, --seed or --budget\n")

    def test_perm_with_the_default_budget_spelled_out(self, capsys):
        assert run(capsys, "fib2gal", FIB4, "--perm", PI4_DELTA, "--budget", "full") == (
            0, [f"L_g = {LG4_DELTA}", f"T = {PI4_DELTA}"], "")

    def test_rejects_galois_input(self, capsys):
        code, _, err = run(capsys, "fib2gal", GAL3A)
        assert code == 2
        assert "Fibonacci" in err


class TestFib2GalLargeN:
    def test_minimize_builds_no_tree(self, capsys, monkeypatch, tmp_path):
        # costs come from the winner's ANF masks and --emit matrix prints no
        # logic, so no expression node is made; the parent, which synthesized
        # and walked the winner's trees, peaked at 14.4 MB here
        path = tmp_path / "sparse12.fsr"
        path.write_text(sparse_fibonacci_text(12))

        def no_tree(node, *args):
            raise AssertionError(f"a {type(node).__name__} node was built")

        for cls in (Var, Const, Not, And, Or, Xor, Implies, Iff):
            monkeypatch.setattr(cls, "__init__", no_tree)
        tracemalloc.start()
        try:
            code = main(["fib2gal", str(path), "--minimize", "--budget", "4", "--seed", "1",
                         "--emit", "matrix"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert [ln.split(" = ")[0] for ln in out.splitlines()] == [
            "L_g", "T", "support_sum", "area_um2", "delay_ps", "gates"]
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_minimize_prints_costs_exactly(self, capsys, tmp_path):
        # the costs are whole numbers of seven digits here, which ':g' rounded
        path = tmp_path / "sparse12.fsr"
        path.write_text(sparse_fibonacci_text(12))
        code, out, err = run(capsys, "fib2gal", str(path), "--minimize", "--budget", "4",
                             "--seed", "1")
        assert (code, err) == (0, "")
        fields = dict(ln.split(" = ", 1) for ln in out)
        assert (fields["area_um2"], fields["delay_ps"]) == ("856380", "2812297")
        r = reduce_candidate(transition_from_delta(fields["L_g"]))
        assert (r.area_um2, r.delay_ps) == (856380, 2812297)


def to_matrix(path, per_line=False):
    """(exit code, stdout, stderr) of `to-matrix path`; with per_line, each
    update line is read by _read_table alone, as before the term table."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if per_line:
            mp.setattr(cli, "_table_reader", lambda n: lambda text: stp._read_table(text, n))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["to-matrix", str(path)])
    return code, out.getvalue(), err.getvalue()


# a term of a later line that takes that line off the term table: errors,
# and other valid grammar
LINE_FAULTS = ["x{n1}", "x0", "x1 ? x1", "", "x1 x1", "(x1 & x1)", "x1 | x1", "!x1"]


class TestGaloisFileReader:
    """A Galois file's lines, read through one term table, give the exit
    code, output and error text of reading each line alone."""

    @seed(19)
    @settings(deadline=None, max_examples=120)
    @given(shared_term_lines(), st.data())
    def test_matches_per_line_reading(self, tmp_path_factory, case, data):
        n, lines = case
        defs = [f"f{k} = {ln}" for k, ln in enumerate(lines, start=1)]
        if n > 1 and data.draw(st.booleans()):
            at = data.draw(st.integers(1, n - 1))
            fault = data.draw(st.sampled_from(LINE_FAULTS)).format(n1=n + 1)
            defs[at] += f" ^ {fault} ^ x1"
        if data.draw(st.booleans()):
            defs.append(data.draw(st.sampled_from(defs)))  # a duplicate definition
        path = tmp_path_factory.mktemp("gal") / "in.fsr"
        path.write_text(f"n={n} type=gal\n" + "\n".join(defs) + "\n")
        got = to_matrix(path)
        assert got == to_matrix(path, per_line=True)
        assert got[0] == 0 or got[2].startswith("error: ")

    def test_first_error_wins_over_a_later_duplicate(self, tmp_path):
        full = "x1 ^ x2 ^ x3 ^ x1 & x2 ^ x2 & x3 ^ x1 & x3 ^ x1 & x2 & x3 ^ 1"
        path = tmp_path / "gal.fsr"
        path.write_text(f"n=3 type=gal\nf1 = {full} ^ x9\nf2 = {full}\nf3 = x1 ^ {full}\n"
                        f"f2 = {full}\n")
        want = (2, "", "error: variable index 9 out of range [1, 3] at position 64\n")
        assert to_matrix(path) == to_matrix(path, per_line=True) == want

    def test_later_error_wins_over_a_later_duplicate(self, tmp_path):
        full = "x1 ^ x2 ^ x3 ^ x1 & x2 ^ x2 & x3 ^ x1 & x3 ^ x1 & x2 & x3 ^ 1"
        path = tmp_path / "gal.fsr"
        path.write_text(f"n=3 type=gal\nf1 = {full}\nf2 = x2 ^ {full} ^ x3 ? x1\n"
                        f"f3 = {full}\nf1 = {full}\n")
        want = (2, "", "error: unexpected character '?' at position 72\n")
        assert to_matrix(path) == to_matrix(path, per_line=True) == want

    def test_dense_fourteen_stage_file(self, monkeypatch):
        # the lines of a conjugated register hold thousands of terms each, so
        # all of them take the term table. It keeps a small int per distinct
        # term: the file reads in 10.1 MB here and 9.4 MB a line at a time,
        # where a truth table per term would take over 25 MB
        n = 14
        text = dense_galois_text(n)
        per_line = stp._read_table

        def refuse(text, n_):
            raise AssertionError("a dense line was read on its own")

        monkeypatch.setattr(stp, "_read_table", refuse)
        tracemalloc.start()
        try:
            fsr = parse_fsr_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        rhs = [ln.split(" = ", 1)[1] for ln in text.splitlines()[1:]]
        assert [fsr.tables[k] for k in range(1, n + 1)] == [per_line(r, n) for r in rhs]
        assert peak < 14 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestGal2Fib:
    def test_two_attractor_fixture(self, capsys):
        code, out, _ = run(capsys, "gal2fib", GAL3B)
        assert code == 0
        assert out == [
            "l = 3",
            "P = d8[* 4 6 8 * 3 * 8]",
            "T' = d8[3 2 4 3 6 6 8 8]",
            "completions = 2^3",
            "d8[1 4 6 8 1 3 5 8]",
        ]

    def test_all_completions(self, capsys):
        code, out, _ = run(capsys, "gal2fib", GAL3B, "--all-completions")
        assert code == 0
        matrices = [ln for ln in out if ln.startswith("d8[")]
        assert len(matrices) == 8
        assert "d8[1 4 6 8 2 3 5 8]" in matrices

    def test_shrinkable_fixture(self, capsys):
        code, out, _ = run(capsys, "gal2fib", GAL3A, "--all-completions")
        assert code == 0
        assert "l = 2" in out
        assert "completions = 2^1" in out
        assert out[-2:] == ["d4[1 3 1 4]", "d4[1 4 1 4]"]

    def test_max_free_truncation(self, capsys):
        code, out, _ = run(
            capsys, "gal2fib", GAL3B, "--all-completions", "--max-free", "1"
        )
        assert code == 0
        assert "completions = 2^3" in out
        assert [ln for ln in out if ln.startswith("d8[")] == ["d8[1 4 6 8 1 3 5 8]"]

    def test_negative_max_free_exits_two(self, capsys):
        code, out, err = run(capsys, "gal2fib", GAL3B, "--max-free", "-1")
        assert (code, out) == (2, [])
        assert err == "error: max_free must be >= 0, got -1\n"
        # the file is read first, so its own refusal comes before this one
        assert run(capsys, "gal2fib", "missing.fsr", "--max-free", "-1")[2].startswith(
            "error: [Errno 2]")

    def test_long_window_prints_completion_count_as_power(self, capsys, tmp_path):
        # z2..z5 count up to 1111 and stay there; z1 is 1 for one step, so
        # 0^13 1 0... needs 14-bit windows and leaves 16356 columns free
        f = tmp_path / "counter.fsr"
        f.write_text(
            "n=5 type=gal\n"
            "f1 = z2 & z3 ^ z2 & z3 & z4 ^ z2 & z3 & z5 ^ z2 & z3 & z4 & z5\n"
            "f2 = z2 ^ z3 & z4 & z5 ^ z2 & z3 & z4 & z5\n"
            "f3 = z3 ^ z4 & z5 ^ z2 & z3 & z4 & z5\n"
            "f4 = z4 ^ z5 ^ z2 & z3 & z4 & z5\n"
            "f5 = 1 ^ z5 ^ z2 & z3 & z4 & z5\n"
        )
        code, out, _ = run(capsys, "gal2fib", str(f))
        assert code == 0
        assert out[0] == "l = 14"
        assert out[3] == "completions = 2^16356"
        assert out[4].startswith("d16384[")

    # the n = 4 map (13 4 15 1 14 5 9 6 1 4 15 10 8 13 9 5) in XOR-of-AND
    # form: l = 5, with 16 of the 32 columns free
    MAP4 = (
        "n=4 type=gal\n"
        "f1 = 1 ^ x2 ^ x3 ^ x4 ^ x1 & x2 ^ x1 & x3 ^ x2 & x4 ^ x1 & x2 & x4\n"
        "f2 = x2 ^ x4 ^ x3 & x4 ^ x1 & x2 & x3 & x4\n"
        "f3 = 1 ^ x2 & x3 ^ x2 & x4 ^ x3 & x4 ^ x1 & x3 & x4 ^ x2 & x3 & x4 ^ x1 & x2 & x3 & x4\n"
        "f4 = 1 ^ x1 ^ x2 ^ x1 & x3 ^ x1 & x4 ^ x2 & x4 ^ x3 & x4 ^ x1 & x3 & x4 ^ x2 & x3 & x4\n"
    )

    def test_builds_only_the_printed_completion(self, capsys, monkeypatch, tmp_path):
        # counts the TransitionMatrix builds after the CLI's window search:
        # the least completion is written from P and the shift law, so none
        # is built, and --all-completions builds each of the 2^k once
        f = tmp_path / "map4.fsr"
        f.write_text(self.MAP4)
        assert galois_transition(parse_fsr_file(self.MAP4)).cols == (
            13, 4, 15, 1, 14, 5, 9, 6, 1, 4, 15, 10, 8, 13, 9, 5)
        built, searched = record_matrix_builds(monkeypatch), []

        def recording(L_g):
            result = min_stage_fibonacci(L_g)
            searched.append(len(built))
            return result

        monkeypatch.setattr(cli, "min_stage_fibonacci", recording)

        def gal2fib_builds(*argv):
            built.clear()
            searched.clear()
            code, out, err = run(capsys, "gal2fib", *argv)
            (start,) = searched
            return code, out, err, len(built) - start

        code, out, err, count = gal2fib_builds(str(f))
        assert (code, err, count) == (0, "", 0)
        assert out == [
            "l = 5",
            "P = d32[* * 5 7 9 * 13 * 18 * 21 * 25 27 * * * 4 5 * 9 * 13 * 18 19 21 * * 27 * *]",
            "T' = d32[9 3 14 5 13 7 11 4 21 19 30 26 18 25 27 23]",
            "completions = 2^16",
            "d32[1 3 5 7 9 11 13 15 18 19 21 23 25 27 29 31"
            " 1 4 5 7 9 11 13 15 18 19 21 23 25 27 29 31]",
        ]
        # past --max-free, --all-completions prints the same one line
        assert gal2fib_builds(str(f), "--all-completions", "--max-free", "15") == (0, out, "", 0)
        # at or under --max-free, it builds and prints each completion once
        for fixture, k in ((GAL3A, 1), (GAL3B, 3)):
            for max_free in (k, k + 4):
                code, out, err, count = gal2fib_builds(
                    fixture, "--all-completions", "--max-free", str(max_free))
                assert (code, err, count) == (0, "", 1 << k)
                assert out[3] == f"completions = 2^{k}"
                assert len(out) == 4 + (1 << k)

    def test_window_past_max_window_exits_two(self, tmp_path):
        # 0^31 1 and 0^30 1 1 on two cycles need 32-bit windows; the least
        # completion alone would be a list of 2^32 columns
        f = tmp_path / "long_window.fsr"
        f.write_text(cli._emit_logic(7, reduce_candidate(TransitionMatrix(7, LONG_WINDOW_COLS)).updates))
        proc = subprocess.run(
            [sys.executable, "-m", "fsrkit.cli", "gal2fib", str(f)],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: window length 32 exceeds the limit MAX_WINDOW = 26\n"



# sha256 of gal2fib's stdout on SPARSE_GALOIS12
SPARSE_GALOIS12_SHA256 = "29470a330552dcc25b2c5d3f6c643258f6650a0e3b8cff555a193e95fffb3cd7"


class HashingSink:
    """A stdout that keeps only the sha256 and the length of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)
        return len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)

    def flush(self):
        pass


class TestGal2FibWritesFromP:
    """Without --all-completions, the least completion is written from P's
    fixed map and the shift law: no list of 2^l columns is built."""

    @pytest.mark.parametrize("text", [
        Path(GAL3A).read_text(), Path(GAL3B).read_text(), TestGal2Fib.MAP4, COUNTER5,
    ], ids=["gal3_shrinkable", "gal3_two_attractors", "map4", "counter5"])
    def test_same_bytes_without_least_columns(self, capsys, monkeypatch, tmp_path, text):
        path = tmp_path / "input.fsr"
        path.write_text(text)
        # the dense texts: completions() builds the least completion as a
        # list of 2^l columns, and P is written an entry at a time
        r = min_stage_fibonacci(galois_transition(parse_fsr_file(text)))
        size, free = 1 << r.l, (1 << r.l) - len(r.partial.fixed)
        want = (f"l = {r.l}\nP = {ref_format_partial(size, r.partial.fixed)}\n"
                f"T' = {stp.format_delta(size, r.window_map)}\n"
                f"completions = 2^{free}\n{transition_to_delta(next(r.completions()))}\n")

        def refused(l):
            raise RuntimeError("a 2^l-column list was built")

        monkeypatch.setattr(gal2fib, "_least_columns", refused)
        monkeypatch.setattr(fib, "_least_columns", refused)
        # past --max-free, --all-completions prints the least completion alone
        for flags in ([], ["--all-completions", "--max-free", "0"]):
            assert main(["gal2fib", str(path), *flags]) == 0
            assert capsys.readouterr() == (want, "")
        # at --max-free, --all-completions lists them all from completions()
        with pytest.raises(RuntimeError, match="2\\^l-column"):
            main(["gal2fib", str(path), "--all-completions", "--max-free", str(free)])

    @pytest.mark.parametrize("flags", [[], ["--all-completions", "--max-free", "0"]])
    def test_long_window_memory(self, monkeypatch, tmp_path, flags):
        # l = 20: P and the completion are 2^20 entries each, 9.4 MB of text;
        # the parent, which built the completion as a list and a tuple,
        # peaked at 46.0 MB here
        path = tmp_path / "sparse12.fsr"
        path.write_text(SPARSE_GALOIS12)
        sink = HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["gal2fib", str(path), *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.size) == (0, 9420857)
        assert sink.digest.hexdigest() == SPARSE_GALOIS12_SHA256
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# sha256 and length of gal2fib --all-completions' stdout on leafless_galois_text(10)
LEAFLESS10_SHA256 = "34fc309403efbe22e70502608d5519cde19b571e12458691150a87ec4b9a8d41"
LEAFLESS10_SIZE = 4129075


def test_all_completions_are_written_one_at_a_time(monkeypatch, tmp_path):
    # l = 10 with 10 free columns: 1024 completions of 1024 columns each, in
    # 4.1 MB of text; a writer that built all of them before writing the
    # first peaked at 8.6 MB here
    path = tmp_path / "leafless10.fsr"
    path.write_text(leafless_galois_text(10))
    r = min_stage_fibonacci(galois_transition(parse_fsr_file(path.read_text())))
    assert (r.l, (1 << r.l) - len(r.partial.fixed)) == (10, 10)
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["gal2fib", str(path), "--all-completions"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size) == (0, LEAFLESS10_SIZE)
    assert sink.digest.hexdigest() == LEAFLESS10_SHA256
    assert peak <= 2 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestVerify:
    def test_equivalent_matrices(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        b = tmp_path / "b.delta"
        a.write_text(LF4_DELTA + "\n")
        b.write_text(LG4_DELTA + "\n")
        code, out, _ = run(capsys, "verify", str(a), str(b))
        assert code == 0
        assert out[0] == "equivalent"
        assert len(out) == 1 + 16 + 16

    def test_fsr_file_against_matrix(self, capsys, tmp_path):
        b = tmp_path / "b.delta"
        b.write_text("d8[3 4 2 3 6 6 4 4]\n")
        code, out, _ = run(capsys, "verify", GAL3A, str(b))
        assert code == 0

    def test_mismatch_exits_one(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        b = tmp_path / "b.delta"
        a.write_text("d2[1 2]\n")
        b.write_text("d2[2 1]\n")
        code, out, _ = run(capsys, "verify", str(a), str(b))
        assert code == 1
        assert out[0] == "not equivalent"

    def test_bad_input_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        a.write_text("d3[1 2 3]\n")  # size not a power of two
        code, _, err = run(capsys, "verify", str(a), str(a))
        assert code == 2
        assert err.startswith("error:")

    def test_zero_size_matrix_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        a.write_text("d0[]\n")
        assert run(capsys, "verify", str(a), str(a)) == (
            2, [], "error: domain size 0 is not a power of two\n")

    def test_zero_stage_matrix_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        a.write_text("d1[1]\n")
        assert run(capsys, "verify", str(a), str(a)) == (
            2, [], "error: a 0-stage matrix has no output bit\n")

    def test_non_integer_entry_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.delta"
        a.write_text("d4[1 2 3x 4]\n")
        assert run(capsys, "verify", str(a), str(a)) == (
            2, [], "error: entry '3x' is not an integer\n")


class TestDeepExpressions:
    @pytest.mark.parametrize(
        "feedback,want",
        [
            ("(" * 2000 + "x1" + ")" * 2000, "d2[1 2]"),
            (" ^ ".join(["x1"] * 3000), "d2[2 2]"),
            ("!" * 3001 + "x1", "d2[2 1]"),
        ],
        ids=["nested", "long-chain", "negations"],
    )
    def test_deep_input_gives_matrix(self, capsys, tmp_path, feedback, want):
        f = tmp_path / "deep.fsr"
        f.write_text(f"n=1 type=fib\nf1 = {feedback}\n")
        assert run(capsys, "to-matrix", str(f)) == (0, [want], "")


class TestSizeLimit:
    def test_largest_register_count_is_read(self):
        n = MAX_STAGES
        masks = stp._var_masks(n)
        fsr = parse_fsr_file(f"n={n} type=fib\nf{n} = x1 ^ x{n}\n")
        assert fsr.tables[n] == masks[0] ^ masks[-1]

    def test_largest_galois_file_is_read(self, monkeypatch):
        # shifts, and two lines of more than 2n terms that share them, which
        # the term table reads
        n = MAX_STAGES
        terms = [f"x{i}" for i in range(1, n + 1)] + [f"x{i} & x{i + 1}" for i in range(1, n)]
        lines = [f"x{k + 1}" for k in range(1, n - 1)]
        lines += [" ^ ".join(terms + ["x1 & x3", "x2 & x4"]),
                  " ^ ".join(["1", "x3&x1"] + terms[::-1])]
        per_line = stp._read_table
        reached = []
        monkeypatch.setattr(stp, "_read_table", lambda text, n_: reached.append(text)
                            or per_line(text, n_))
        fsr = parse_fsr_file(f"n={n} type=gal\n" + "".join(
            f"f{k} = {ln}\n" for k, ln in enumerate(lines, start=1)))
        assert reached == lines[:-2]
        assert [fsr.tables[k] for k in range(1, n + 1)] == [per_line(ln, n) for ln in lines]

    @pytest.mark.parametrize("n", [MAX_STAGES + 1, 1000000])
    def test_larger_count_exits_two_before_allocating(self, capsys, tmp_path, monkeypatch, n):
        def refuse(m):
            raise AssertionError(f"truth tables built for n={m}")

        monkeypatch.setattr(stp, "_var_masks", refuse)
        f = tmp_path / "big.fsr"
        f.write_text(f"n={n} type=fib\nf{n} = x1 ^ x{n}\n")
        assert run(capsys, "to-matrix", str(f)) == (
            2, [], f"error: register count {n} exceeds the limit of {MAX_STAGES}\n")


class TestSimulate:
    def test_index_init(self, capsys):
        code, out, _ = run(capsys, "simulate", GAL3B, "--init", "2", "--steps", "5")
        assert (code, out) == (0, ["11000"])

    def test_bitstring_init(self, capsys):
        code, out, _ = run(capsys, "simulate", GAL3B, "--init", "110", "--steps", "5")
        assert (code, out) == (0, ["11000"])

    def test_agrees_with_library(self, capsys):
        code, out, _ = run(capsys, "simulate", FIB4, "--init", "1", "--steps", "16")
        want = simulate(TransitionMatrix(4, LF4_COLS), 1, 16)
        assert (code, out) == (0, ["".join(map(str, want))])

    def test_bad_init(self, capsys):
        code, _, err = run(capsys, "simulate", GAL3B, "--init", "abc", "--steps", "4")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("init", ["1x", "", "1.5", "0b1"])
    def test_bad_init_names_the_token(self, capsys, init):
        assert run(capsys, "simulate", GAL3B, "--init", init, "--steps", "4") == (
            2, [], f"error: initial state {init!r} is neither a state index nor a string of 3 bits\n")

    def test_out_of_range_init(self, capsys):
        code, _, err = run(capsys, "simulate", GAL3B, "--init", "9", "--steps", "4")
        assert code == 2

    def test_negative_steps_exits_two(self, capsys):
        code, out, err = run(capsys, "simulate", GAL3B, "--init", "2", "--steps", "-4")
        assert (code, out) == (2, [])
        assert err.startswith("error:") and "steps" in err

    def test_bits_are_written_in_one_pass(self, monkeypatch):
        # a str per bit peaked at 13 MB here; the bits' list and tuple take 3.2 MB
        steps = 200000
        sink = HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["simulate", FIB4, "--init", "1", "--steps", str(steps)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = "1111000010110100" * (steps // 16) + "\n"
        assert (code, sink.size) == (0, len(want))
        assert sink.digest.hexdigest() == hashlib.sha256(want.encode()).hexdigest()
        assert peak <= 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_zero_stage_matrix_exits_two(self, capsys, tmp_path):
        f = tmp_path / "d1.delta"
        f.write_text("d1[1]\n")
        assert run(capsys, "simulate", str(f), "--init", "1", "--steps", "3") == (
            2, [], "error: a 0-stage matrix has no output bit\n")


def child_env():
    """The environment for a child that imports the fsrkit under test,
    installed or not."""
    src = str(Path(fsrkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def exit_of(capsys, *argv):
    """Exit code, stdout and stderr of a command line argparse exits on."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserReuse:
    """main builds its parser on its first call in a process and reuses it;
    no call leaves anything on it that a later call sees."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._shared_parser.cache_clear()
        yield
        cli._shared_parser.cache_clear()

    def test_seed_does_not_carry_over(self, capsys):
        assert run(capsys, "fib2gal", FIB4, "--budget", "3", "--seed", "1")[0] == 0
        code, out, err = run(capsys, "fib2gal", FIB4, "--budget", "5")
        assert (code, out) == (2, [])
        assert err.startswith("error:") and "seed" in err

    def test_all_completions_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "gal2fib", GAL3B, "--all-completions")
        assert code == 0 and len([ln for ln in out if ln.startswith("d8[")]) == 8
        code, out, _ = run(capsys, "gal2fib", GAL3B)
        assert code == 0 and [ln for ln in out if ln.startswith("d8[")] == ["d8[1 4 6 8 1 3 5 8]"]

    @pytest.mark.parametrize(
        "argv,code",
        [(("--help",), 0), (("fib2gal", "--help"), 0), (("frobnicate",), 2), (("simulate", GAL3B), 2)],
        ids=["help", "subcommand-help", "unknown-subcommand", "missing-options"])
    def test_exits_repeat_byte_for_byte(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        first = exit_of(capsys, *argv)
        assert first[0] == code and (first[1] + first[2]).startswith("usage: fsrkit")
        assert run(capsys, "gal2fib", GAL3B, "--all-completions")[0] == 0
        assert exit_of(capsys, *argv) == first

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(4):
            assert run(capsys, "simulate", GAL3B, "--init", "2", "--steps", "5") == (0, ["11000"], "")
        assert built == [1]

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import fsrkit.cli\n"
            "at_import = len(built)\n"
            "fsrkit.cli.build_parser()\n"
            "print(at_import, len(built) > at_import)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "0 True\n"), proc.stderr


class TestEntryPoint:
    def test_console_script(self):
        exe = shutil.which("fsrkit")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "to-matrix", FIB4], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == LF4_DELTA

    def test_console_script_target(self):
        # the script an install puts on PATH calls what [project.scripts] names
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["fsrkit"]
        module, _, attr = target.partition(":")
        assert (module, attr) == ("fsrkit.cli", "main")
        assert getattr(importlib.import_module(module), attr) is cli.main

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import fsrkit.cli as c; raise SystemExit(c.main(['to-matrix', %r]))" % GAL3A],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "d8[3 4 2 3 6 6 4 4]"


# lines that break a file in the ways parse_fsr_file checks for, plus a
# comment and a blank line that it skips
MALFORMED = [
    "junk line",
    "n=0 type=fib",
    "n=2 type=xor",
    "n=two type=gal",
    "f0 = x1",
    "f9 = x1",
    "f1 = x7",
    "f1 = (x1",
    "f1 = x1 & ",
    "f1 = x1 <-> <-> x2",
    "= x1",
    "L = d4[1 2",
    "L = d4[1 2 3 9]",
    "L = d3[1 2 3]",
    "L = d4[1 * 3 4]",
    "# a comment",
    "",
]


@st.composite
def fsr_texts(draw):
    """A small FSR file of either kind, with up to two malformed lines
    inserted anywhere, the header's place included."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["fib", "gal"]))
    regs = [n] if kind == "fib" else range(1, n + 1)
    lines = [f"n={n} type={kind}"]
    lines += [f"f{k} = {render(draw(exprs(n)))}" for k in regs]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + "\n"


class TestFuzz:
    """Any file gives exit code 0, 1 or 2, and 2 comes with an error line."""

    @seed(5)
    @settings(deadline=None, max_examples=60)
    @given(fsr_texts())
    def test_commands_exit_cleanly(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "in.fsr")
            Path(path).write_text(text)
            for argv in (
                ["to-matrix", path],
                ["gal2fib", path, "--max-free", "4"],
                ["verify", path, path],
                ["simulate", path, "--init", "1", "--steps", "8"],
                ["fib2gal", path, "--budget", "4", "--seed", "1"],
                ["fib2gal", path, "--budget", "4", "--seed", "1", "--minimize"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main(argv)
                assert rc in (0, 1, 2), argv
                if rc == 2:
                    assert err.getvalue().startswith("error: "), argv
