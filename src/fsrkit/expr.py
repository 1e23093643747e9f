"""Boolean functions in every form: expression trees, their text, truth tables
and ANF masks as ints, and the gate costs of trees and masks alike."""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from functools import cache, reduce
from itertools import chain, compress, count, repeat
from operator import and_, attrgetter, or_, xor


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tuple_getter(names: tuple[str, ...]):
    """value -> the tuple of its `names` fields, in C for two or more names.
    An attrgetter of one name returns the bare field, and one of no names
    cannot be made, so those two get a wrapper."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return staticmethod(lambda value: (get(value),))
    return staticmethod(lambda value: ())


class _Value:
    """Immutable values. A subclass names its fields in __match_args__ and holds
    them in slots. Its __init__ writes each field once through its setter, from
    _setters in field order; any later setattr or delattr raises. __eq__,
    __hash__, __repr__ and __reduce__ read every field, so a class with a dict
    field is unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the slot descriptors' own setters skip the refusing __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__match_args__)
        cls._fields_of = _tuple_getter(cls.__match_args__)

    @classmethod
    def _trusted(cls, *fields):
        """An instance from fields already known to pass the constructor's
        checks, such as a completion of a checked partial matrix, without
        running them."""
        value = object.__new__(cls)
        for set_field, field in zip(cls._setters, fields):
            set_field(value, field)
        return value

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields_of = self._fields_of
        return fields_of(self) == fields_of(other)

    def __hash__(self):
        return hash(self._fields_of(self))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields_of(self)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class BoolExpr(_Value):
    """Base class for Boolean expression nodes."""

    __slots__ = ()


class Var(BoolExpr):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        self._setters[0](self, index)


class Const(BoolExpr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        self._setters[0](self, value)


class Not(BoolExpr):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: BoolExpr):
        self._setters[0](self, child)


class _Binary(BoolExpr):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: BoolExpr, right: BoolExpr):
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


# binary node classes and their operator tokens, loosest-binding first: the
# index is the precedence, the one statement of it that parse and render read
_BINOPS = (Iff, Implies, Or, Xor, And)
_OPERATORS = ("<->", "->", "|", "^", "&")


# a marker on _fold's work stack: combine the values of the frame on top
_COMBINE = object()


def _fold(expr: BoolExpr, leaf, negate, chain):
    """Post-order fold of a tree on an explicit stack, so depth is bounded
    by memory alone.

    A Var or Const is leaf(node); a run of k Nots over a value is
    negate(value, k); a left spine of one binary class cls is
    chain(cls, values), its operands' values left to right. Anything that
    is not a BoolExpr node raises TypeError.
    """
    values: list = []
    frames: list = []  # (class, count) of each _COMBINE on todo, innermost last
    todo = [expr]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Var or cls is Const:
            values.append(leaf(node))
        elif node is _COMBINE:
            cls, count = frames.pop()
            if cls is Not:
                values[-1] = negate(values[-1], count)
            else:
                operands = values[-count:]
                del values[-count:]
                values.append(chain(cls, operands))
        elif cls is Not:
            count = 0
            while type(node) is Not:
                count += 1
                node = node.child
            frames.append((Not, count))
            todo += (_COMBINE, node)
        elif cls in _BINOPS:
            operands = []  # right operands top-down, then the spine's bottom
            while type(node) is cls:
                operands.append(node.right)
                node = node.left
            operands.append(node)
            frames.append((cls, len(operands)))
            todo.append(_COMBINE)
            todo += operands
        else:
            raise TypeError(f"not a BoolExpr node: {node!r}")
    return values[0]


def variables(expr: BoolExpr) -> set[int]:
    """Free variable indices of an expression."""
    found = set()

    def leaf(node):
        if type(node) is Var:
            found.add(node.index)

    _fold(expr, leaf, lambda value, k: None, lambda cls, values: None)
    return found


def substitute(expr: BoolExpr, mapping: Mapping[int, int]) -> BoolExpr:
    """Rename variable indices according to mapping (identity if absent).

    A mapping that sends every key to itself returns expr itself, since
    trees are immutable.
    """
    if all(k == v for k, v in mapping.items()):
        return expr

    def leaf(node):
        return Var(mapping.get(node.index, node.index)) if type(node) is Var else node

    def negate(value, k):
        for _ in range(k):
            value = Not(value)
        return value

    return _fold(expr, leaf, negate, reduce)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One token per match: a variable, a constant, an operator, or any other
# non-space character, which no token starts with and so is an error. An
# index is ASCII digits: "\d" would also match other scripts' digits.
_TOKEN_RE = re.compile(r"\s*([xz][0-9]+|[01]|<->|->|[!&|^()]|\S)")
_SYMBOLS = frozenset("01!&|^()")  # the valid one-character tokens
_END = ""  # the token after the last one
# a piece between "^" and "&" that the flat reader takes: one atom token
_FLAT_ATOM_RE = re.compile(r"\s*([xz][0-9]+|[01])\s*")

# binary operator token -> its precedence, which indexes _BINOPS; "(" and
# "!" wait on the operator stack under these codes, above a bottom marker
_PRECEDENCE = {op: p for p, op in enumerate(_OPERATORS)}
_BOTTOM, _OPEN, _NOT = -2, -1, len(_BINOPS)


def _is_var(tok: str) -> bool:
    return len(tok) > 1 and tok[0] in "xz"


def _shown(tok: str) -> str:
    """A token as error messages quote it: a variable by its index."""
    return tok[1:] if _is_var(tok) else tok or "end of input"


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
    depth and chain length are bounded by memory alone. A character that
    starts no token is refused before the grammar is read, so the first one
    anywhere outranks a grammar error.
    """
    tokens, starts = [], []
    for m in _TOKEN_RE.finditer(text):
        tok = m[1]
        if len(tok) == 1 and tok not in _SYMBOLS:
            raise ParseError(f"unexpected character {tok!r}", m.start(1))
        tokens.append(tok)
        starts.append(m.start(1))
    tokens.append(_END)
    starts.append(len(text))
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
                raise ParseError(f"unexpected token {_shown(tok)!r}", starts[i])
            cur = _atom(tok, n, var, const)
            if cur is None:
                raise ParseError(f"variable index {int(tok[1:])} out of range [1, {n}]", starts[i])
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
                raise ParseError("unexpected token ')'", starts[i])
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
            raise ParseError(f"expected ')', found {_shown(tok)!r}", starts[i])
        if tok != _END:
            raise ParseError(f"unexpected token {_shown(tok)!r}", starts[i])
        return cur


def parse(text: str, n: int) -> BoolExpr:
    """Parse a Boolean expression over variables x1..xn (z1..zn accepted)."""
    return _evaluate(text, n, Var, Const, Not, _BINOPS)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# how tightly each operator node binds: its precedence, and "!" above all
_LEVEL = {cls: p for p, cls in enumerate((*_BINOPS, Not))}
_SEPARATOR = {cls: f" {op} " for cls, op in zip(_BINOPS, _OPERATORS)}


def render(expr: BoolExpr) -> str:
    """Concrete syntax; parse(render(e), n) is function-equal to e."""
    pieces = []
    names = {}  # variable index -> its text, formatted once per call
    # the chain being written: its right operands, the next one last, their
    # separator and level, and whether the chain is in parentheses, decided
    # when it opens; the chains around it wait on `outer`
    rights, sep, level, wrapped = [], "", 0, False
    outer = []
    node, min_level = expr, 0
    while True:  # write node, in parentheses if it binds looser than min_level
        cls = type(node)
        if cls is Var:
            name = names.get(node.index)
            if name is None:
                name = names[node.index] = f"x{node.index}"
            pieces.append(name)
        elif cls is Const:
            pieces.append(str(node.value))
        elif cls is Not:
            depth = 0
            while type(node) is Not:
                depth += 1
                node = node.child
            pieces.append("!" * depth)
            min_level = _LEVEL[Not]
            continue
        elif cls in _SEPARATOR:
            # binary, left-associative: the left spine of one operator needs
            # no parentheses, and each right operand a strictly higher level
            outer.append((rights, sep, level, wrapped))
            own = _LEVEL[cls]
            wrapped = own < min_level
            if wrapped:
                pieces.append("(")
            rights, sep, level, min_level = [], _SEPARATOR[cls], own + 1, own
            while type(node) is cls:
                rights.append(node.right)
                node = node.left
            continue
        else:
            raise TypeError(f"not a BoolExpr node: {node!r}")
        # node is written: go on with the next operand, closing finished chains
        while not rights:
            if wrapped:
                pieces.append(")")
            if not outer:
                return "".join(pieces)
            rights, sep, level, wrapped = outer.pop()
        pieces.append(sep)
        node, min_level = rights.pop(), level


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------
#
# A truth table over n variables is one int in state-index order: bit u holds
# the value on state k = u + 1, so variable i is 1 where bit (n - i) of u is 0.

@cache
def _var_masks(n: int) -> tuple[int, ...]:
    """Truth table of each variable: runs of s = 2^(n-i) ones and s zeros."""
    masks = []
    for i in range(1, n + 1):
        width = 2 << (n - i)
        m = (1 << (width >> 1)) - 1
        while width < 1 << n:  # double the pattern until it covers 2^n bits
            m |= m << width
            width <<= 1
        masks.append(m)
    return tuple(masks)


# the one place operator semantics on truth tables live: node class ->
# make(full), the operator on two tables of 2^n bits with full = 2^(2^n) - 1
_TABLE_OPS = {
    And: lambda full: and_,
    Or: lambda full: or_,
    Xor: lambda full: xor,
    Implies: lambda full: lambda a, b: (full ^ a) | b,
    Iff: lambda full: lambda a, b: full ^ a ^ b,
}


def _table_of(f: BoolExpr, n: int) -> int:
    """Truth table of tree f over n variables; refuses a variable outside [1, n]."""
    bad = variables(f) - set(range(1, n + 1))
    if bad:
        raise ValueError(f"variable indices {sorted(bad)} out of range [1, {n}]")
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    return _fold(
        f,
        lambda node: masks[node.index - 1] if type(node) is Var else full if node.value else 0,
        lambda table, k: table ^ full if k & 1 else table,
        lambda cls, tables: reduce(_TABLE_OPS[cls](full), tables),
    )


def _read_table(text: str, n: int) -> int:
    """Truth table of an expression's text, read without building its AST."""
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    return _evaluate(
        text, n, lambda i: masks[i - 1], lambda v: full if v else 0, full.__xor__,
        tuple(_TABLE_OPS[cls](full) for cls in _BINOPS),
    )


def _table_reader(n: int) -> Callable[[str], int]:
    """_read_table for the update lines of one file, reading each distinct
    term text once for the file.

    A flat AND of in-range atoms is kept as its monomial's bit u in an ANF
    mask (see _moebius), as (byte u >> 3, bit u & 7), and a term with a 0
    factor as (0, 0), which toggles nothing. A line is the XOR of its terms'
    bits, and one _moebius call makes that mask its truth table. A line with
    any other new term goes to _read_table, which reports every error, and
    so does a line of at most 2n terms: folding that few costs less than
    _moebius.
    """
    size = 1 << n
    atoms: dict[str, int] = {}  # factor text -> bit n - i for variable i
    bits: dict[str, tuple[int, int]] = {}  # term text -> (byte, bit)

    def var(i: int) -> int:
        return 1 << (n - i)

    def const(v: int) -> int:
        return 0 if v else size

    def read(text: str) -> int:
        terms = text.split("^")
        if len(terms) <= 2 * n:
            return _read_table(text, n)
        new = list(set(terms).difference(bits))
        factors = [t.split("&") for t in new]
        fresh = set(chain.from_iterable(factors)).difference(atoms)
        found = _flat_atoms([fresh], n, var, const)
        if found is None:
            return _read_table(text, n)
        atoms.update(found)
        for t, fs in zip(new, factors):
            u = size - 1 - reduce(or_, map(atoms.__getitem__, fs))
            bits[t] = (u >> 3, 1 << (u & 7)) if u >= 0 else (0, 0)
        mask = bytearray((size + 7) >> 3)
        for i, b in map(bits.__getitem__, terms):
            mask[i] ^= b
        return _moebius(int.from_bytes(mask, "little"), n)

    return read


# ---------------------------------------------------------------------------
# Algebraic normal form
# ---------------------------------------------------------------------------

@cache
def _weight_masks(n: int) -> tuple[int, ...]:
    """The bits u < 2^n with w ones, for w = 0..n. In an ANF mask (see
    _moebius) they are the monomials of degree n - w."""
    masks = [1]
    for m in range(n):  # one more bit m of u: u itself, or u + 2^m
        masks = [a | (b << (1 << m)) for a, b in zip(masks + [0], [0] + masks)]
    return tuple(masks)


def _moebius(f: int, n: int) -> int:
    """ANF of truth table f: bit u becomes the coefficient of the monomial
    over the variables that are 1 on state u + 1."""
    for i, var in enumerate(_var_masks(n), start=1):
        f ^= (f >> (1 << (n - i))) & var
    return f


def _anf_support(anf: int, n: int) -> tuple[int, ...]:
    """The variables that occur in ANF mask anf, in increasing order: a
    function depends on exactly these."""
    return tuple(j for j, mask in enumerate(_var_masks(n), start=1) if anf & mask)


_FLAG_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _anf_monomials(anf: int, n: int) -> list[tuple[int, ...]]:
    """The monomials of an ANF mask over n variables (see _moebius) as
    increasing index tuples, sorted by (degree, indices).

    Bit u is the monomial of the variables i whose bit n - i of u is 0.
    Among monomials of one degree, increasing u is increasing index order,
    so the set bits, read in increasing order, need only bucketing by degree.
    """
    by_degree: list[list[int]] = [[] for _ in range(n + 1)]
    flags = format(anf, "b").encode()[::-1].translate(_FLAG_OF_DIGIT)
    for u in compress(count(), flags):
        by_degree[n - u.bit_count()].append(u)
    full = (1 << n) - 1
    monomials = []
    for u in chain.from_iterable(by_degree):
        rest = full ^ u  # bit n - i is set for each variable i of the monomial
        idxs = []
        while rest:
            top = rest.bit_length()
            idxs.append(n + 1 - top)
            rest ^= 1 << (top - 1)
        monomials.append(tuple(idxs))
    return monomials


def anf_to_expr(anf: int, n: int) -> BoolExpr:
    """Canonical expression of ANF mask anf over x1..xn (see _moebius):
    a left-deep XOR of one left-deep AND chain per monomial, ordered by
    (degree, indices). The empty monomial is the constant 1, and no monomial
    the constant 0. Every occurrence of a variable is one shared node.
    Refuses n < 0 and a mask outside [0, 2^(2^n))."""
    if n < 0:
        raise ValueError(f"variable count {n} is negative")
    if anf < 0 or anf.bit_length() > 1 << n:
        raise ValueError(f"ANF mask out of range [0, 2^(2^{n}))")
    monomials = _anf_monomials(anf, n)
    if not monomials:
        return Const(0)
    var = {i: Var(i) for i in set(chain.from_iterable(monomials))}
    return reduce(Xor, [
        reduce(And, map(var.__getitem__, idxs)) if idxs else Const(1) for idxs in monomials
    ])


# ---------------------------------------------------------------------------
# Gate costs
# ---------------------------------------------------------------------------

#: The 90 nm CMOS gate each binary node class is costed as, (area in 0.1 um^2,
#: delay in ps), so that every cost is an exact int: AND2 50/87; NOR2 37/57 for
#: | and -> (a -> b is !a | b); XOR2 100/115 for ^ and <-> (a <-> b is !(a ^ b)).
#: Cost and fib2gal.Reduction keep these units; their area_um2 reads um^2.
GATES = {
    And: (50, 87),
    Or: (37, 57),
    Implies: (37, 57),
    Xor: (100, 115),
    Iff: (100, 115),
}


class Cost(_Value):
    __slots__ = __match_args__ = ("area", "delay_ps", "gate_count")

    def __init__(self, area: int, delay_ps: int, gate_count: int):
        set_area, set_delay, set_count = self._setters
        set_area(self, area)
        set_delay(self, delay_ps)
        set_count(self, gate_count)

    area_um2 = property(lambda self: self.area / 10)


def gate_cost(expr: BoolExpr) -> Cost:
    """Area sums over all gates, delay along the deepest path.

    Each binary node is its GATES entry; inverters are absorbed (zero cost,
    not counted)."""
    def chain(cls, values):
        gate_area, gate_delay = GATES[cls]
        area, delay, count = values[0]
        for ra, rd, rc in values[1:]:
            area += ra + gate_area
            delay = max(delay, rd) + gate_delay
            count += rc + 1
        return area, delay, count

    return Cost(*_fold(expr, lambda node: (0, 0, 0), lambda value, k: value, chain))


def _anf_cost(anfs: Iterable[int], n: int) -> tuple[int, int, int]:
    """The summed support, area and gate count of ANF masks over n variables
    (see _moebius), each written as anf_to_expr writes it: a left-deep XOR2
    chain of its k monomials, and a monomial m as a chain of |m| - 1 AND2s;
    the constants are free."""
    masks = _var_masks(n)
    support_sum = ands = xors = 0
    for anf in anfs:
        occurs = [(anf & mask).bit_count() for mask in masks]
        support_sum += n - occurs.count(0)
        k = anf.bit_count()
        if k:
            # the constant monomial is the top bit, the all-zeros state
            ands += sum(occurs) - k + (anf >> ((1 << n) - 1))
            xors += k - 1
    return support_sum, GATES[And][0] * ands + GATES[Xor][0] * xors, ands + xors


def _anf_delay(anf: int, n: int) -> int:
    """Delay of ANF mask anf's XOR chain over n variables, its terms in
    increasing degree: acc = max(acc, term) + XOR2 for each term after the
    first, where a term of degree d is a chain of d - 1 AND2s. Once a
    degree's first term is folded in, acc exceeds that degree's term, so
    each further monomial of the degree adds one XOR2."""
    and_delay, xor_delay = GATES[And][1], GATES[Xor][1]
    weights = _weight_masks(n)
    acc = None
    for degree in range(n + 1):
        count = (anf & weights[n - degree]).bit_count()
        if not count:
            continue
        term = and_delay * max(degree - 1, 0)
        if acc is None:
            acc = term + xor_delay * (count - 1)
        else:
            acc = max(acc, term) + xor_delay * count
    return acc or 0
