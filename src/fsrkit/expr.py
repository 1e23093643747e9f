"""Boolean update functions: AST, parser, rendering, ANF expressions and gate costs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping


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


_BINOPS = (Iff, Implies, Or, Xor, And)


def variables(expr: BoolExpr) -> set[int]:
    """Free variable indices of an expression."""
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return variables(expr.child)
    return variables(expr.left) | variables(expr.right)


def substitute(expr: BoolExpr, mapping: Mapping[int, int]) -> BoolExpr:
    """Rename variable indices according to mapping (identity if absent)."""
    if isinstance(expr, Var):
        return Var(mapping.get(expr.index, expr.index))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return Not(substitute(expr.child, mapping))
    return type(expr)(substitute(expr.left, mapping), substitute(expr.right, mapping))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>[xz](?P<idx>\d+))|(?P<const>[01])|(?P<op><->|->|[!&|^()]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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


class _Parser:
    """Recursive descent over: iff < imp < or < xor < and < unary < atom."""

    def __init__(self, text: str, n: int):
        self.tokens = list(_tokenize(text))
        self.n = n
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def parse(self) -> BoolExpr:
        expr = self.iff()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return expr

    def _chain(self, op: str, node: type, sub) -> BoolExpr:
        expr = sub()
        while self.peek()[0] == op:
            self.advance()
            expr = node(expr, sub())
        return expr

    def iff(self) -> BoolExpr:
        return self._chain("<->", Iff, self.imp)

    def imp(self) -> BoolExpr:
        return self._chain("->", Implies, self.or_)

    def or_(self) -> BoolExpr:
        return self._chain("|", Or, self.xor)

    def xor(self) -> BoolExpr:
        return self._chain("^", Xor, self.and_)

    def and_(self) -> BoolExpr:
        return self._chain("&", And, self.unary)

    def unary(self) -> BoolExpr:
        if self.peek()[0] == "!":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> BoolExpr:
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


def parse(text: str, n: int) -> BoolExpr:
    """Parse a Boolean expression over variables x1..xn (z1..zn accepted)."""
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LEVEL = {Iff: 0, Implies: 1, Or: 2, Xor: 3, And: 4, Not: 5, Var: 6, Const: 6}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", Xor: "^", And: "&"}


def render(expr: BoolExpr) -> str:
    """Concrete syntax; parse(render(e), n) is function-equal to e."""
    level = _LEVEL[type(expr)]

    def wrap(child: BoolExpr, min_level: int) -> str:
        text = render(child)
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


# ---------------------------------------------------------------------------
# Algebraic normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Anf:
    """GF(2) polynomial as a set of monomials (sets of variable indices)."""

    monomials: frozenset[frozenset[int]]


def anf_to_expr(anf: Anf) -> BoolExpr:
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
        term: BoolExpr = Var(idxs[0])
        for i in idxs[1:]:
            term = And(term, Var(i))
        terms.append(term)
    expr = terms[0]
    for t in terms[1:]:
        expr = Xor(expr, t)
    return expr


# ---------------------------------------------------------------------------
# Gate costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    area_um2: float
    area_ge: float
    delay_ps: float

    def __post_init__(self):
        if min(self.area_um2, self.area_ge, self.delay_ps) <= 0:
            raise ValueError("gate parameters must be strictly positive")


@dataclass(frozen=True)
class GateCostModel:
    nand2: GateSpec
    nor2: GateSpec
    and2: GateSpec
    xor2: GateSpec


#: 90nm CMOS figures: NAND 3.7/1/33, NOR 3.7/1/57, AND 5/1.4/87, XOR 10/2.7/115.
CMOS_90NM = GateCostModel(
    nand2=GateSpec(3.7, 1.0, 33.0),
    nor2=GateSpec(3.7, 1.0, 57.0),
    and2=GateSpec(5.0, 1.4, 87.0),
    xor2=GateSpec(10.0, 2.7, 115.0),
)


@dataclass(frozen=True)
class Cost:
    area_um2: float
    delay_ps: float
    gate_count: int


def gate_cost(expr: BoolExpr, model: GateCostModel = CMOS_90NM) -> Cost:
    """Area sums over all gates, delay along the deepest path.

    Inverters are absorbed (zero cost, not counted); OR is costed as a
    2-input NOR with the inverter absorbed downstream.
    """
    def walk(node: BoolExpr) -> tuple[float, float, int]:
        if isinstance(node, (Var, Const)):
            return 0.0, 0.0, 0
        if isinstance(node, Not):
            return walk(node.child)
        la, ld, lc = walk(node.left)
        ra, rd, rc = walk(node.right)
        if isinstance(node, And):
            spec = model.and2
        elif isinstance(node, (Or, Implies)):  # a -> b is !a | b
            spec = model.nor2
        elif isinstance(node, (Xor, Iff)):  # a <-> b is !(a ^ b)
            spec = model.xor2
        else:
            raise TypeError(f"uncosted node {node!r}")
        return la + ra + spec.area_um2, max(ld, rd) + spec.delay_ps, lc + rc + 1

    area, delay, count = walk(expr)
    return Cost(area, delay, count)
