import contextlib
import io
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import ParseError, TransitionMatrix, render, simulate, transition_from_delta
from fsrkit.cli import FsrFileError, main, parse_fsr_file

from conftest import LF4_COLS, LG4_COLS, PI4, exprs

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
        assert fsr.transition().cols == LF4_COLS

    def test_galois_fixture(self):
        fsr = parse_fsr_file(Path(GAL3B).read_text())
        assert fsr.kind == "galois"
        assert fsr.transition().cols == (5, 3, 7, 6, 4, 1, 8, 7)

    def test_comments_and_blank_lines(self):
        fsr = parse_fsr_file("# c\nn=2 type=gal\n\nf1 = z2 # trailing\nf2 = z1\n")
        assert fsr.n == 2

    def test_named_matrix_line(self):
        fsr = parse_fsr_file("n=2 type=gal\nf1 = z2\nf2 = z1\nL = d4[1 2 3 4]\n")
        assert fsr.matrices["L"].cols == (1, 2, 3, 4)

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
        with pytest.raises((FsrFileError, ValueError, ParseError)):
            parse_fsr_file(text)


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
        assert emitted.transition().cols == LG4_COLS

    def test_zero_budget_reports_total(self, capsys):
        code, out, _ = run(capsys, "fib2gal", FIB4, "--budget", "0")
        assert code == 0
        assert out == ["# examined=0 emitted=0 total_permutations=1625702400"]

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
        from fsrkit.fib2gal import reduce_candidate

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
        assert float(fields["area_um2"]) == pytest.approx(r.area_um2)

    def test_rejects_galois_input(self, capsys):
        code, _, err = run(capsys, "fib2gal", GAL3A)
        assert code == 2
        assert "Fibonacci" in err


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


class TestDeepExpressions:
    @pytest.mark.parametrize(
        "feedback",
        ["(" * 2000 + "x1" + ")" * 2000, " ^ ".join(["x1"] * 3000)],
        ids=["nested", "long-chain"],
    )
    def test_recursion_limit_exits_two(self, capsys, tmp_path, feedback):
        f = tmp_path / "deep.fsr"
        f.write_text(f"n=1 type=fib\nf1 = {feedback}\n")
        code, out, err = run(capsys, "to-matrix", str(f))
        assert code == 2
        assert out == []
        assert err.startswith("error:")


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

    def test_out_of_range_init(self, capsys):
        code, _, err = run(capsys, "simulate", GAL3B, "--init", "9", "--steps", "4")
        assert code == 2


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

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import fsrkit.cli as c; raise SystemExit(c.main(['to-matrix', %r]))" % GAL3A],
            capture_output=True,
            text=True,
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
