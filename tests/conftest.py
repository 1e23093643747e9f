import itertools
import pathlib
import random
import re
import sys
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from fsrkit import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    Var,
    Xor,
    decode_state,
    encode_state,
    fib_transition,
    galois_transition,
    parse,
    structure_matrix,
)
from fsrkit.expr import (
    _LEVEL, _SYMBOL, GATES, Cost, _anf_monomials, gate_cost, substitute, variables,
)
from fsrkit.cli import parse_fsr_file
from fsrkit.fib import _shift_bases
from fsrkit.stp import _coordinate_tables, _moebius, _rows_to_mask, synthesize_expr
from fsrkit.fib2gal import SelectedCandidate, conjugate, reduce_candidate, sampled_permutations

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# 4-stage full-cycle example, reference matrices
MF4_ROWS = (2, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1, 1, 1, 2, 2)
LF4_COLS = (2, 4, 6, 8, 10, 12, 13, 16, 1, 3, 5, 7, 9, 11, 14, 15)
LG4_COLS = (3, 5, 4, 8, 10, 16, 9, 13, 2, 6, 12, 7, 15, 1, 11, 14)
PI4 = (1, 3, 2, 4, 7, 5, 6, 8, 14, 9, 12, 10, 16, 11, 15, 13)

# feedback of the committed 4-stage fixture: full 16-cycle dynamics
FIB4_FEEDBACK = "(x1 & !x2 & !x3 & x4) | (!x1 & (x2 | x3)) | (!x1 & !x2 & !x3 & !x4)"

# 3-stage Galois reference matrices
LG3_SHRINKABLE_COLS = (3, 4, 2, 3, 6, 6, 4, 4)
LG3_TWO_ATTRACTORS_COLS = (5, 3, 7, 6, 4, 1, 8, 7)

# z2..z5 count up to 1111 and stay there; z1 is 1 for one step, so the
# output 0^13 1 0... needs 14-bit windows
COUNTER5 = (
    "n=5 type=gal\n"
    "f1 = z2 & z3 ^ z2 & z3 & z4 ^ z2 & z3 & z5 ^ z2 & z3 & z4 & z5\n"
    "f2 = z2 ^ z3 & z4 & z5 ^ z2 & z3 & z4 & z5\n"
    "f3 = z3 ^ z4 & z5 ^ z2 & z3 & z4 & z5\n"
    "f4 = z4 ^ z5 ^ z2 & z3 & z4 & z5\n"
    "f5 = 1 ^ z5 ^ z2 & z3 & z4 & z5\n"
)



def _long_window_cols() -> tuple[int, ...]:
    """A 7-stage map with window length 32: one cycle outputs 0^31 1, one
    outputs 0^30 1 1, and every other state is a fixed point, so 0^inf and
    0^31 1... share 31 bits."""
    cols = list(range(1, 129))
    for cycle in ([*range(65, 96), 1], [*range(96, 126), 2, 3]):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            cols[a - 1] = b
    return tuple(cols)


LONG_WINDOW_COLS = _long_window_cols()


def sparse_galois_text(rng, n) -> str:
    """An FSR file for a Galois register whose coordinates XOR 2..4 random
    monomials of degree 1..3."""
    lines = [f"n={n} type=gal"]
    for k in range(1, n + 1):
        monomials = (
            " & ".join(f"z{i + 1}" for i in rng.sample(range(n), rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))
        )
        lines.append(f"f{k} = " + " ^ ".join(monomials))
    return "\n".join(lines) + "\n"


def sparse_fibonacci_text(n: int) -> str:
    """An FSR file for a sparse Fibonacci register: f_n is x1 ^ six random
    monomials of degree at most 3 over x2..xn, drawn by the benchmark's
    register model with random.Random(n)."""
    sys.path.insert(0, str(BENCH))
    try:
        import model
        monomials = model.random_anf(random.Random(n), n, 6, 3, first_var=2)
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("model", None)
    terms = (" & ".join(f"x{i}" for i in mono) for mono in monomials)
    return f"n={n} type=fib\nf{n} = x1 ^ {' ^ '.join(terms)}\n"


def shift_galois_text(n: int) -> str:
    """An FSR file for a sparse Galois register: f_k = x_(k+1), plus an AND
    of two of x_k..x_n drawn with random.Random(n) on k = n - 1, n - 3 and
    n // 2, and sparse_fibonacci_text(n)'s feedback as f_n."""
    rng = random.Random(n)
    lines = [f"n={n} type=gal"]
    for k in range(1, n):
        line = f"f{k} = x{k + 1}"
        if k in (n - 1, n - 3, n // 2):
            a, b = sorted(rng.sample(range(k, n + 1), 2))
            line += f" ^ x{a} & x{b}"
        lines.append(line)
    lines.append(sparse_fibonacci_text(n).splitlines()[1])
    return "\n".join(lines) + "\n"


def dense_galois_text(n: int, seed: int = 1) -> str:
    """An FSR file for a dense Galois register: sparse_fibonacci_text(n)'s
    register conjugated by a seeded partition-preserving permutation. Each
    line is written from its coordinate's ANF mask as XOR-of-AND text, as
    `--emit logic` prints it, with no expression tree."""
    fib = galois_transition(parse_fsr_file(sparse_fibonacci_text(n)))
    return galois_text(conjugate(fib, next(sampled_permutations(n, 1, seed))))


def galois_text(L: TransitionMatrix) -> str:
    """An FSR file whose Galois register has transition matrix L, each line
    written from its coordinate's ANF mask as XOR-of-AND text."""
    n = L.n
    lines = [f"n={n} type=gal"]
    for k, table in enumerate(_coordinate_tables(L), start=1):
        monomials = _anf_monomials(_moebius(table, n), n)
        terms = " ^ ".join(" & ".join(f"x{i}" for i in mono) or "1" for mono in monomials)
        lines.append(f"f{k} = {terms or '0'}")
    return "\n".join(lines) + "\n"


def leafless_galois_text(free: int) -> str:
    """An FSR file for an 11-stage Galois register whose output sequences
    are those of a singular 10-stage Fibonacci register, less those of its
    first `free` leaf states: its minimal Fibonacci form has l = 10 and
    `free` free columns.

    The feedback, drawn with random.Random(1), ignores x1, so a state is a
    leaf iff its x10 differs from the feedback of a predecessor whose
    x2..x10 are its x1..x9. The Galois
    state (s, y11) outputs what the 10-stage state s does; a dropped leaf
    outputs what s with x10 flipped does, which is not a leaf.
    """
    rng = random.Random(1)
    half = [rng.choice((1, 2)) for _ in range(512)]
    L_f = fib_transition(StructureMatrix(10, tuple(half + half)))
    reached = set(L_f.cols)
    dropped = set(itertools.islice((s for s in range(1, 1025) if s not in reached), free))
    cols = []
    for y in range(1, 2049):
        s = ((y - 1) >> 1) + 1
        if s in dropped:
            s = ((s - 1) ^ 1) + 1
        cols.append(2 * L_f.column(s))
    return galois_text(TransitionMatrix(11, tuple(cols)))


@st.composite
def shared_term_lines(draw):
    """(n, lines): the update lines of a Galois file over n = 1..10 whose
    terms come from one small pool of monomials, so they recur across lines
    and within one. Each use of a monomial is spelled anew: factor order, x
    or z, a repeated factor, a 1 factor and the spacing vary, and some uses
    carry a 0 factor. About half of the lines hold more than 2n terms."""
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
            for _ in range(rng.randint(1, 2 * n))]

    def joined(symbol, parts):
        return "".join(
            (rng.choice(("", " ", "  ")) + symbol + rng.choice(("", " ")) if i else "") + part
            for i, part in enumerate(parts))

    def spelled(mono):
        factors = [rng.choice("xz") + str(i) for i in mono]
        if factors and rng.random() < 0.2:
            factors.append(rng.choice(factors))
        factors += ["1"] * (rng.random() < 0.2) + ["0"] * (rng.random() < 0.05)
        rng.shuffle(factors)
        return rng.choice(("", " ")) + (joined("&", factors) or "1") + rng.choice(("", " "))

    lines = []
    for _ in range(n):
        count = rng.choice((rng.randint(0, 2 * n), rng.randint(2 * n + 1, 4 * n + 4)))
        lines.append(joined("^", [spelled(rng.choice(pool)) for _ in range(count)]) or "0")
    return n, lines


# a sparse 12-stage Galois register: shift updates, three of them with an
# AND term, and a sparse feedback. Its window length is 20, so P and each
# completion have 2^20 columns while the register has 4096 states
SPARSE_GALOIS12 = (
    "n=12 type=gal\n"
    "f1 = x2\nf2 = x3\nf3 = x4\nf4 = x5\nf5 = x6\n"
    "f6 = x7 ^ x9 & x10\n"
    "f7 = x8\nf8 = x9\n"
    "f9 = x10 ^ x11 & x12\n"
    "f10 = x11\n"
    "f11 = x12 ^ x11 & x12\n"
    "f12 = x1 ^ x7 ^ x12 ^ x6 & x9 ^ x6 & x10 ^ x4 & x7 & x8 ^ x5 & x10 & x11\n"
)


@pytest.fixture
def lf4() -> TransitionMatrix:
    return TransitionMatrix(4, LF4_COLS)


@pytest.fixture
def lg4() -> TransitionMatrix:
    return TransitionMatrix(4, LG4_COLS)


@pytest.fixture
def fib4_transition() -> TransitionMatrix:
    fb = parse(FIB4_FEEDBACK, 4)
    return fib_transition(structure_matrix(fb, 4))


def debruijn3() -> TransitionMatrix:
    """A 3-stage Fibonacci FSR whose state graph is a single 8-cycle."""
    return fib_transition(StructureMatrix(3, (2, 2, 1, 2, 1, 1, 2, 1)))


def exprs(n: int):
    """Random expressions over x1..xn using every node type."""
    leaves = st.one_of(
        st.integers(min_value=1, max_value=n).map(Var),
        st.sampled_from([Const(0), Const(1)]),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Xor(*p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
        ),
        max_leaves=25,
    )


# -- reference implementations ------------------------------------------------
#
# Slow, per-assignment versions of what fsrkit computes on whole truth tables.
# Assignments are bit lists with bits[i-1] the value of variable i; the
# assignment mask m of truth_table and to_anf has variable i at bit i-1.

def eval_expr(expr, bits) -> int:
    """Evaluate on an assignment; bits[i-1] is the value of variable i."""
    if isinstance(expr, Var):
        return bits[expr.index - 1]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.child, bits)
    a = eval_expr(expr.left, bits)
    b = eval_expr(expr.right, bits)
    if isinstance(expr, And):
        return a & b
    if isinstance(expr, Or):
        return a | b
    if isinstance(expr, Xor):
        return a ^ b
    if isinstance(expr, Implies):
        return (1 - a) | b
    if isinstance(expr, Iff):
        return 1 - (a ^ b)
    raise TypeError(f"not a BoolExpr node: {expr!r}")


def truth_table(expr, n: int) -> list[int]:
    """Values indexed by assignment mask m, bit i-1 of m = value of variable i."""
    out = []
    for m in range(1 << n):
        bits = [(m >> i) & 1 for i in range(n)]
        out.append(eval_expr(expr, bits))
    return out


@dataclass(frozen=True)
class Anf:
    """GF(2) polynomial as a set of monomials (sets of variable indices): the
    oracles' own ANF form, kept apart from fsrkit's one int mask."""

    monomials: frozenset[frozenset[int]]


def anf_mask(anf: Anf, n: int) -> int:
    """fsrkit's ANF mask of anf over x1..xn: monomial m is bit u, where bit
    n - i of u is 0 exactly for the variables i in m."""
    full = (1 << n) - 1
    return sum(1 << (full ^ sum(1 << (n - i) for i in m)) for m in anf.monomials)


def to_anf(expr, n: int | None = None) -> Anf:
    """ANF via the Moebius transform of the truth table."""
    if n is None:
        n = max(variables(expr), default=0)
    f = truth_table(expr, n)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                f[m] ^= f[m ^ bit]
    monomials = frozenset(
        frozenset(i + 1 for i in range(n) if (m >> i) & 1)
        for m in range(1 << n)
        if f[m]
    )
    return Anf(monomials)


def anf_evaluate(anf: Anf, bits) -> int:
    acc = 0
    for mono in anf.monomials:
        acc ^= all(bits[i - 1] for i in mono)
    return int(acc)


# -- parser oracle --------------------------------------------------------------
#
# The recursive-descent parser fsrkit used before its single operator-precedence
# pass; parse must give the same AST, or the same ParseError message and
# position, on every text.

DELTA_RE = re.compile(r"^\s*d(\d+)\s*\[([^\]]*)\]\s*$")

ORACLE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>[xz](?P<idx>\d+))|(?P<const>[01])|(?P<op><->|->|[!&|^()]))"
)


def oracle_tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group("var"):
            yield "var", m.group("idx"), m.start("var")
        elif m.group("const"):
            yield "const", m.group("const"), m.start("const")
        else:
            yield m.group("op"), m.group("op"), m.start("op")
        pos = m.end()
    yield "end", "", len(text)


class OracleParser:
    """Recursive descent over: iff < imp < or < xor < and < unary < atom."""

    def __init__(self, text: str, n: int):
        self.tokens = list(oracle_tokenize(text))
        self.n = n
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def parse(self):
        expr = self.iff()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return expr

    def _chain(self, op: str, node: type, sub):
        expr = sub()
        while self.peek()[0] == op:
            self.advance()
            expr = node(expr, sub())
        return expr

    def iff(self):
        return self._chain("<->", Iff, self.imp)

    def imp(self):
        return self._chain("->", Implies, self.or_)

    def or_(self):
        return self._chain("|", Or, self.xor)

    def xor(self):
        return self._chain("^", Xor, self.and_)

    def and_(self):
        return self._chain("&", And, self.unary)

    def unary(self):
        if self.peek()[0] == "!":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "var":
            idx = int(value)
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable index {idx} out of range [1, {self.n}]",
                                 pos)
            return Var(idx)
        if kind == "const":
            return Const(int(value))
        if kind == "(":
            expr = self.iff()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)


def oracle_parse(text: str, n: int):
    return OracleParser(text, n).parse()


def ref_structure_matrix(expr, n: int) -> StructureMatrix:
    return StructureMatrix(n, tuple(
        1 if eval_expr(expr, decode_state(k, n)) else 2 for k in range(1, (1 << n) + 1)
    ))


def ref_galois_transition(n: int, updates) -> TransitionMatrix:
    return TransitionMatrix(n, tuple(
        encode_state([eval_expr(f, decode_state(k, n)) for f in updates])
        for k in range(1, (1 << n) + 1)
    ))


def ref_check_rows(n: int, rows) -> None:
    """StructureMatrix's checks as they were before two counts: one
    membership test per entry."""
    if len(rows) != 1 << n:
        raise ValueError(f"expected {1 << n} entries, got {len(rows)}")
    if any(r not in (1, 2) for r in rows):
        raise ValueError("structure matrix entries must be 1 or 2")


def ref_fib_columns(M_f: StructureMatrix) -> tuple[int, ...]:
    """fib_transition's columns as they were before one map: a sum per column."""
    return tuple(b + r for b, r in zip(_shift_bases(M_f.n), M_f.rows))


def ref_is_fibonacci(L: TransitionMatrix) -> bool:
    """is_fibonacci as it was before one map and a set check: a test per column."""
    return all(c - b in (1, 2) for b, c in zip(_shift_bases(L.n), L.cols))


def ref_feedback_of(L: TransitionMatrix) -> StructureMatrix:
    """feedback_of as it was before one map: ref_is_fibonacci, then a
    difference per column."""
    if not ref_is_fibonacci(L):
        raise ValueError("transition matrix does not satisfy the Fibonacci law")
    return StructureMatrix(L.n, tuple(c - b for b, c in zip(_shift_bases(L.n), L.cols)))


def ref_is_partition_preserving(T: PermutationTransform) -> bool:
    """is_partition_preserving as it was before max: a test per entry."""
    half = 1 << (T.n - 1)
    return all(p <= half for p in T.perm[:half])


def record_matrix_builds(monkeypatch) -> list[int]:
    """Patch both ways a TransitionMatrix is made, the checked constructor
    and `_trusted`, to append each new matrix's n to the list returned."""
    built: list[int] = []
    init = TransitionMatrix.__init__
    trusted = TransitionMatrix._trusted.__func__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.n)

    def unchecked(cls, n, cols):
        built.append(n)
        return trusted(cls, n, cols)

    monkeypatch.setattr(TransitionMatrix, "__init__", checked)
    monkeypatch.setattr(TransitionMatrix, "_trusted", classmethod(unchecked))
    return built


def ref_coordinate_structure(L: TransitionMatrix, k: int) -> StructureMatrix:
    rows = []
    for col in L.cols:
        bit = decode_state(col, L.n)[k - 1]
        rows.append(1 if bit else 2)
    return StructureMatrix(L.n, tuple(rows))


def ref_depends_on(M: StructureMatrix, j: int) -> bool:
    flip = 1 << (M.n - j)  # flipping bit j moves the index by 2^(n-j)
    for k in range(1 << M.n):
        if M.rows[k] != M.rows[k ^ flip]:
            return True
    return False


def ref_restrict_support(M: StructureMatrix):
    support = tuple(j for j in range(1, M.n + 1) if ref_depends_on(M, j))
    m = len(support)
    rows = []
    for kr in range(1, (1 << m) + 1):
        partial = decode_state(kr, m) if m else ()
        bits = [1] * M.n
        for pos, j in enumerate(support):
            bits[j - 1] = partial[pos]
        rows.append(M.rows[encode_state(bits) - 1])
    return support, StructureMatrix(m, tuple(rows))


def ref_synthesize_expr(M: StructureMatrix):
    n = M.n
    if n == 0:
        return Const(1 if M.rows[0] == 1 else 0)
    # truth table indexed by assignment mask, variable i at bit i-1
    f = [0] * (1 << n)
    for m in range(1 << n):
        bits = [(m >> i) & 1 for i in range(n)]
        f[m] = 1 if M.rows[encode_state(bits) - 1] == 1 else 0
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                f[m] ^= f[m ^ bit]
    monomials = frozenset(
        frozenset(i + 1 for i in range(n) if (m >> i) & 1)
        for m in range(1 << n)
        if f[m]
    )
    return ref_anf_to_expr(Anf(monomials))


# -- recursive tree walks -----------------------------------------------------
#
# The expression layer as it was before its walks became loops: one Python
# frame per nesting level or chain operand, so these fail on trees deeper
# than the recursion limit. The fast versions must agree with them exactly:
# equal trees, byte-identical text and float-identical costs.

def ref_substitute(expr, mapping):
    """Rename variable indices according to mapping (identity if absent)."""
    if isinstance(expr, Var):
        return Var(mapping.get(expr.index, expr.index))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return Not(ref_substitute(expr.child, mapping))
    return type(expr)(ref_substitute(expr.left, mapping), ref_substitute(expr.right, mapping))


def ref_render(expr) -> str:
    """Concrete syntax; parse(render(e), n) is function-equal to e."""
    level = _LEVEL[type(expr)]

    def wrap(child, min_level: int) -> str:
        text = ref_render(child)
        if _LEVEL[type(child)] < min_level:
            return f"({text})"
        return text

    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        return "!" + wrap(expr.child, 5)
    # binary, left-associative: right operand needs strictly higher level
    return f"{wrap(expr.left, level)} {_SYMBOL[type(expr)]} {wrap(expr.right, level + 1)}"


def ref_anf_to_expr(anf: Anf):
    """Canonical expression: XOR of AND-chains, deterministic monomial order."""
    if not anf.monomials:
        return Const(0)
    ordered = sorted(anf.monomials, key=lambda mono: (len(mono), sorted(mono)))
    terms = []
    for mono in ordered:
        if not mono:
            terms.append(Const(1))
            continue
        idxs = sorted(mono)
        term = Var(idxs[0])
        for i in idxs[1:]:
            term = And(term, Var(i))
        terms.append(term)
    expr = terms[0]
    for t in terms[1:]:
        expr = Xor(expr, t)
    return expr


def ref_gate_cost(expr) -> Cost:
    """Area sums over all gates, delay along the deepest path.

    Each binary node is its GATES entry; inverters are absorbed (zero cost,
    not counted).
    """
    def walk(node):
        if isinstance(node, (Var, Const)):
            return 0, 0, 0
        if isinstance(node, Not):
            return walk(node.child)
        la, ld, lc = walk(node.left)
        ra, rd, rc = walk(node.right)
        area, delay = GATES[type(node)]
        return la + ra + area, max(ld, rd) + delay, lc + rc + 1

    area, delay, count = walk(expr)
    return Cost(area, delay, count)


def ref_synthesize_scan(M: StructureMatrix):
    """synthesize_expr as it was before it visited only the ANF's set bits:
    every one of the 2^n digits of the mask is read."""
    n = M.n
    f = _moebius(_rows_to_mask(M.rows), n)
    monomials = frozenset(
        frozenset(i for i in range(1, n + 1) if not (u >> (n - i)) & 1)
        for u, d in enumerate(format(f, f"0{1 << n}b")[::-1])
        if d == "1"
    )
    return ref_anf_to_expr(Anf(monomials))


def ref_reduce_candidate(L_g: TransitionMatrix):
    """reduce_candidate as it was before it read its costs off the ANF masks:
    each coordinate's structure matrix is cut to its support, synthesized
    over positions 1..|support|, renamed back to the original indices and
    walked for its gate cost. Returns (updates, supports, support_sum,
    area, delay_ps, gate_count), the area in 0.1 um^2."""
    updates = []
    supports = []
    area = delay = 0
    gates = 0
    for k in range(1, L_g.n + 1):
        support, reduced = ref_restrict_support(ref_coordinate_structure(L_g, k))
        e = substitute(synthesize_expr(reduced), {pos + 1: j for pos, j in enumerate(support)})
        cost = gate_cost(e)
        updates.append(e)
        supports.append(support)
        area += cost.area
        delay += cost.delay_ps
        gates += cost.gate_count
    return (tuple(updates), tuple(supports), sum(len(s) for s in supports),
            area, delay, gates)


def same_tree(a, b) -> bool:
    """a == b, compared on an explicit stack, so trees deeper than the
    recursion limit compare too."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (Var, Const)):
            if x != y:
                return False
        elif isinstance(x, Not):
            todo.append((x.child, y.child))
        else:
            todo += ((x.left, y.left), (x.right, y.right))
    return True


def ref_select_minimal(candidates) -> SelectedCandidate:
    """select_minimal as it was before ranking by ANF cost: every candidate is
    reduced, keyed on (support_sum, area_um2, cols)."""
    best = None
    best_key = None
    for cand in candidates:
        r = reduce_candidate(cand.matrix)
        key = (r.support_sum, r.area_um2, cand.matrix.cols)
        if best_key is None or key < best_key:
            best_key = key
            best = SelectedCandidate(cand, r)
    if best is None:
        raise ValueError("no candidates to select from")
    return best


def ref_format_partial(size: int, fixed) -> str:
    """format_delta of a mapping as it was before it wrote runs: a list of
    size entries, `*` where not fixed."""
    parts = ["*"] * size
    for j, e in fixed.items():
        parts[j - 1] = str(e)
    return f"d{size}[{' '.join(parts)}]"


def ref_parse_delta(text: str):
    """parse_delta as it was before it converted every token in one pass:
    each token is converted and range-checked in order."""
    m = DELTA_RE.match(text)
    if m is None:
        raise ValueError(f"not a delta-format matrix: {text!r}")
    size = int(m.group(1))
    entries = []
    for tok in m.group(2).split():
        if tok == "*":
            entries.append(None)
        else:
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"entry {tok!r} is not an integer") from None
            if not 1 <= v <= size:
                raise ValueError(f"entry {v} out of range [1, {size}]")
            entries.append(v)
    return size, tuple(entries)


def ref_prefix_keys(ids):
    """(bound, keys): gal2fib._prefix_keys(ids, bound) at Fine-Wilf's bound,
    as it was before every caller passed a smaller one. Distinct sequences with
    preperiods <= P and periods <= r differ within P + 2r bits, so keys of
    that many bits are distinct."""
    steps = ids.steps
    on_cycle = {base + k for word, base in ids.cycles.items() for k in range(len(word))}
    depth = []  # preperiod length: the steps from an id to a cycle
    for i in range(len(steps)):
        d, j = 0, i
        while j not in on_cycle:
            d, j = d + 1, steps[j] >> 1
        depth.append(d)
    bound = max(depth) + 2 * max(map(len, ids.cycles))
    # each key read off the steps a bit at a time: step = 2 * successor + bit
    keys = []
    for i in range(len(steps)):
        key, j = 0, i
        for _ in range(bound):
            key = key << 1 | steps[j] & 1
            j = steps[j] >> 1
        keys.append(key)
    return bound, keys


def ref_transition_of_tables(n: int, tables) -> tuple[int, ...]:
    """_transition_of_tables' columns as they were before byte lanes: the
    complemented tables' digits, read down the rows, one join per state."""
    size = 1 << n
    full = (1 << size) - 1
    digits = ["0" * size] + [format(full ^ t, f"0{size}b")[::-1] for t in tables]
    return tuple(int("".join(d), 2) + 1 for d in zip(*digits))
