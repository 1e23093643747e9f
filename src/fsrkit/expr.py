"""Boolean update functions: AST, parser, rendering, ANF expressions and gate costs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from typing import Iterable, Mapping, NoReturn, Sequence


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolExpr:
    """Base class for Boolean expression nodes."""


@dataclass(frozen=True)
class Var(BoolExpr):
    index: int


@dataclass(frozen=True)
class Const(BoolExpr):
    value: int


@dataclass(frozen=True)
class Not(BoolExpr):
    child: BoolExpr


@dataclass(frozen=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Xor(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Implies(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Iff(BoolExpr):
    left: BoolExpr
    right: BoolExpr


# binary node classes, loosest-binding first
_BINOPS = (Iff, Implies, Or, Xor, And)


def variables(expr: BoolExpr) -> set[int]:
    """Free variable indices of an expression."""
    found = set()
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            found.add(node.index)
        elif isinstance(node, Not):
            todo.append(node.child)
        elif not isinstance(node, Const):
            todo += (node.left, node.right)
    return found


def substitute(expr: BoolExpr, mapping: Mapping[int, int]) -> BoolExpr:
    """Rename variable indices according to mapping (identity if absent).

    A mapping that sends every key to itself returns expr itself, since
    trees are immutable.
    """
    if all(k == v for k, v in mapping.items()):
        return expr

    def walk(node: BoolExpr) -> BoolExpr:
        cls = type(node)
        if cls is Var:
            return Var(mapping.get(node.index, node.index))
        if cls is Const:
            return node
        if cls is Not:
            depth = 0
            while type(node) is Not:
                depth += 1
                node = node.child
            out = walk(node)
            for _ in range(depth):
                out = Not(out)
            return out
        # a chain of one operator: down its left spine in a loop, recursing
        # only into the right operands, then rebuilt bottom-up
        rights = []
        while type(node) is cls:
            rights.append(node.right)
            node = node.left
        out = walk(node)
        for right in reversed(rights):
            out = cls(out, walk(right))
        return out

    return walk(expr)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One token per match: a variable, a constant, an operator, or any other
# non-space character, which no token starts with and so is an error.
_TOKEN_RE = re.compile(r"\s*([xz]\d+|[01]|<->|->|[!&|^()]|\S)")
_SYMBOLS = frozenset("01!&|^()")  # the valid one-character tokens
_END = ""  # the token after the last one
# a piece between "^" and "&" that the flat reader takes: one atom token
_FLAT_ATOM_RE = re.compile(r"\s*([xz]\d+|[01])\s*")

# binary operator tokens, loosest first: the index is the precedence and
# indexes _BINOPS; "(" and "!" wait on the operator stack under these codes,
# above a bottom marker
_PRECEDENCE = {"<->": 0, "->": 1, "|": 2, "^": 3, "&": 4}
_BOTTOM, _OPEN, _NOT = -2, -1, len(_BINOPS)


def _is_var(tok: str) -> bool:
    return len(tok) > 1 and tok[0] in "xz"


def _shown(tok: str) -> str:
    """A token as error messages quote it: a variable by its index."""
    return tok[1:] if _is_var(tok) else tok or "end of input"


def _fail(text: str, tokens: list[str], i: int, message: str) -> NoReturn:
    """Raise `message` at token i, unless a character anywhere in the text
    starts no token: the first such character is the error then."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]
    for j, tok in enumerate(tokens):
        if len(tok) == 1 and tok not in _SYMBOLS:
            raise ParseError(f"unexpected character {tok!r}", starts[j])
    raise ParseError(message, starts[i])


def _atom(tok: str, n: int, var, const):
    """The value of an atom token, or None for a variable outside [1, n]."""
    if _is_var(tok):
        idx = int(tok[1:])
        return var(idx) if 1 <= idx <= n else None
    return const(int(tok))


def _flat_atoms(terms: Iterable[Iterable[str]], n: int, var, const) -> dict | None:
    """Each distinct piece of the split text, read as an atom, or None unless
    every piece is one in-range atom with optional spacing.

    Any other operator, a parenthesis, a stray character, an empty operand
    or two adjacent atoms lands in some piece and fails it, so only XOR-of-AND
    text, the form ANF is written in, gets atoms here.
    """
    atoms = {}
    for piece in set(chain.from_iterable(terms)):
        m = _FLAT_ATOM_RE.fullmatch(piece)
        if m is None:
            return None
        value = _atom(m[1], n, var, const)
        if value is None:
            return None
        atoms[piece] = value
    return atoms


def _evaluate(text: str, n: int, var, const, negate, binops):
    """Read text bottom-up from var(index), const(bit), negate(value) and
    binops[p](left, right), the binary operator of precedence p (loosest
    first, as in _BINOPS); parse passes the AST constructors.

    XOR-of-AND text is split on "^" and then on "&" in C and folded
    left-deep, as the general pass would fold it. Any other text, and every
    error, goes to the general pass.
    """
    terms = list(map(str.split, text.split("^"), repeat("&")))
    atoms = _flat_atoms(terms, n, var, const)
    if atoms is None:
        return _general_pass(text, n, var, const, negate, binops)
    return reduce(binops[_PRECEDENCE["^"]], map(
        reduce, repeat(binops[_PRECEDENCE["&"]]), map(map, repeat(atoms.__getitem__), terms)))


def _general_pass(text: str, n: int, var, const, negate, binops):
    """One operator-precedence pass over: iff < imp < or < xor < and < unary < atom.

    Explicit operand and operator stacks stand in for recursion, so nesting
    depth and chain length are bounded by memory alone. Every error passes
    through _fail, so a bad character anywhere outranks a grammar error.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    # each operand spelling is read and range-checked once, then looked up
    atoms: dict = {}
    # left operands waiting on the binary operators in ops; ops holds
    # precedences, _OPEN and _NOT above a _BOTTOM that no loop pops
    values: list = []
    ops = [_BOTTOM]
    i = 0
    while True:
        # operand position: prefixes "!" and "(", then an atom
        tok = tokens[i]
        cur = atoms.get(tok)
        if cur is None:
            if tok == "!" or tok == "(":
                ops.append(_NOT if tok == "!" else _OPEN)
                i += 1
                continue
            if not (tok == "0" or tok == "1" or _is_var(tok)):
                _fail(text, tokens, i, f"unexpected token {_shown(tok)!r}")
            cur = _atom(tok, n, var, const)
            if cur is None:
                _fail(text, tokens, i, f"variable index {int(tok[1:])} out of range [1, {n}]")
            atoms[tok] = cur
        i += 1
        # operator position: close parentheses, negating each finished operand;
        # "!" is applied as soon as its operand is complete, so only binary
        # operators and "(" are ever on top when operators are applied
        while True:
            while ops[-1] == _NOT:
                ops.pop()
                cur = negate(cur)
            tok = tokens[i]
            if tok != ")":
                break
            while ops[-1] >= 0:
                cur = binops[ops.pop()](values.pop(), cur)
            if ops[-1] != _OPEN:
                _fail(text, tokens, i, "unexpected token ')'")
            ops.pop()
            i += 1
        prec = _PRECEDENCE.get(tok)
        if prec is not None:
            while ops[-1] >= prec:  # every operator is left-associative
                cur = binops[ops.pop()](values.pop(), cur)
            values.append(cur)
            ops.append(prec)
            i += 1
            continue
        while ops[-1] >= 0:
            cur = binops[ops.pop()](values.pop(), cur)
        if ops[-1] == _OPEN:
            _fail(text, tokens, i, f"expected ')', found {_shown(tok)!r}")
        if tok != _END:
            _fail(text, tokens, i, f"unexpected token {_shown(tok)!r}")
        return cur


def parse(text: str, n: int) -> BoolExpr:
    """Parse a Boolean expression over variables x1..xn (z1..zn accepted)."""
    return _evaluate(text, n, Var, Const, Not, _BINOPS)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LEVEL = {Iff: 0, Implies: 1, Or: 2, Xor: 3, And: 4, Not: 5, Var: 6, Const: 6}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", Xor: "^", And: "&"}


def render(expr: BoolExpr) -> str:
    """Concrete syntax; parse(render(e), n) is function-equal to e."""
    return _text(expr, 0)


def _text(expr: BoolExpr, min_level: int) -> str:
    """render(expr), in parentheses if it binds looser than min_level."""
    cls = type(expr)
    if cls is Var:
        return f"x{expr.index}"
    if cls is Const:
        return str(expr.value)
    level = _LEVEL[cls]
    if cls is Not:
        depth = 0
        node = expr
        while type(node) is Not:
            depth += 1
            node = node.child
        text = "!" * depth + _text(node, 5)
    else:
        # binary, left-associative: the left spine of one operator needs no
        # parentheses and is walked in a loop; each right operand needs a
        # strictly higher level
        rights = []
        node = expr
        while type(node) is cls:
            rights.append(node.right)
            node = node.left
        parts = [_text(node, level)]
        parts += [_text(right, level + 1) for right in reversed(rights)]
        text = f" {_SYMBOL[cls]} ".join(parts)
    return f"({text})" if level < min_level else text


# ---------------------------------------------------------------------------
# Algebraic normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Anf:
    """GF(2) polynomial as a set of monomials (sets of variable indices)."""

    monomials: frozenset[frozenset[int]]


def anf_to_expr(anf: Anf) -> BoolExpr:
    """Canonical expression: XOR of AND-chains, deterministic monomial order.

    Monomials are ordered by (degree, sorted indices), and every occurrence
    of a variable is one shared node.
    """
    return _xor_of_ands([idxs for _, idxs in sorted((len(m), sorted(m)) for m in anf.monomials)])


def _xor_of_ands(monomials: Sequence[Sequence[int]]) -> BoolExpr:
    """A left-deep XOR of one left-deep AND chain per monomial, in the given
    order; the empty monomial is the constant 1, and no monomial the
    constant 0. Every occurrence of a variable is one shared node."""
    if not monomials:
        return Const(0)
    var = {i: Var(i) for i in set(chain.from_iterable(monomials))}
    return reduce(Xor, [
        reduce(And, map(var.__getitem__, idxs)) if idxs else Const(1) for idxs in monomials
    ])


# ---------------------------------------------------------------------------
# Gate costs
# ---------------------------------------------------------------------------

#: The 90 nm CMOS gate each binary node class is costed as, (area um^2, delay ps):
#: AND2 5/87; NOR2 3.7/57 for | and -> (a -> b is !a | b); XOR2 10/115 for ^
#: and <-> (a <-> b is !(a ^ b)).
GATES = {
    And: (5.0, 87.0),
    Or: (3.7, 57.0),
    Implies: (3.7, 57.0),
    Xor: (10.0, 115.0),
    Iff: (10.0, 115.0),
}


@dataclass(frozen=True)
class Cost:
    area_um2: float
    delay_ps: float
    gate_count: int


def gate_cost(expr: BoolExpr) -> Cost:
    """Area sums over all gates, delay along the deepest path.

    Each binary node is its GATES entry; inverters are absorbed (zero cost,
    not counted). A node's area is (left + right) + its gate, in that order.
    """
    def walk(node: BoolExpr) -> tuple[float, float, int]:
        while type(node) is Not:
            node = node.child
        cls = type(node)
        if cls is Var or cls is Const:
            return 0.0, 0.0, 0
        # a chain of one operator: down its left spine in a loop, recursing
        # only into the right operands, then summed bottom-up
        rights = []
        while type(node) is cls:
            rights.append(node.right)
            node = node.left
        area, delay, count = walk(node)
        gate_area, gate_delay = GATES[cls]
        for right in reversed(rights):
            ra, rd, rc = walk(right)
            area = area + ra + gate_area
            delay = max(delay, rd) + gate_delay
            count = count + rc + 1
        return area, delay, count

    area, delay, count = walk(expr)
    return Cost(area, delay, count)
