"""Canonical-vector state encoding and the logical-matrix algebra.

States of an n-register FSR are basis-vector indices in [1, 2^n]; the
all-ones state is index 1 and the all-zeros state is index 2^n.  Logical
matrices are stored as index sequences, never as dense 0/1 arrays.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import re
import sys
from collections.abc import Callable, Iterator, Mapping, Sequence

from .expr import BoolExpr, Var, _Value, anf_to_expr, variables
from . import expr as _expr


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

def encode_state(bits: Sequence[int]) -> int:
    """Index k = 1 + sum (1 - b_i) * 2^(n-i); bit 1 is most significant."""
    k = 1
    n = len(bits)
    for i, b in enumerate(bits, start=1):
        if b not in (0, 1):
            raise ValueError(f"state bit {b!r} is not 0 or 1")
        k += (1 - b) << (n - i)
    return k


def decode_state(k: int, n: int) -> tuple[int, ...]:
    if not 1 <= k <= (1 << n):
        raise ValueError(f"state index {k} out of range [1, {1 << n}]")
    m = k - 1
    return tuple(1 - ((m >> (n - i)) & 1) for i in range(1, n + 1))


def output_bit(k: int, n: int) -> int:
    """First-register bit of state k: 1 on the first half of the index range."""
    return 1 if k <= (1 << (n - 1)) else 0


# ---------------------------------------------------------------------------
# Matrix types
# ---------------------------------------------------------------------------

class StructureMatrix(_Value):
    """2 x 2^n logical matrix of a Boolean function, as row indices in {1, 2}."""

    __slots__ = __match_args__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        set_n, set_rows = self._setters
        set_n(self, n)
        set_rows(self, rows)
        if len(rows) != 1 << n:
            raise ValueError(f"expected {1 << n} entries, got {len(rows)}")
        if rows.count(1) + rows.count(2) != len(rows):
            raise ValueError("structure matrix entries must be 1 or 2")


class TransitionMatrix(_Value):
    """2^n x 2^n logical matrix, stored as the column -> row index sequence."""

    __slots__ = __match_args__ = ("n", "cols")

    def __init__(self, n: int, cols: tuple[int, ...]):
        set_n, set_cols = self._setters
        set_n(self, n)
        set_cols(self, cols)
        if n < 1:
            raise ValueError("a 0-stage matrix has no output bit")
        size = 1 << n
        if len(cols) != size:
            raise ValueError(f"expected {size} columns, got {len(cols)}")
        if min(cols) < 1 or max(cols) > size:
            raise ValueError("column index out of range")

    def column(self, j: int) -> int:
        return self.cols[j - 1]


class PermutationTransform(_Value):
    """State relabeling z = T x; perm[i-1] is the image of index i."""

    __slots__ = __match_args__ = ("n", "perm")

    def __init__(self, n: int, perm: tuple[int, ...]):
        set_n, set_perm = self._setters
        set_n(self, n)
        set_perm(self, perm)
        if sorted(perm) != list(range(1, (1 << n) + 1)):
            raise ValueError("not a permutation of the state indices")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def is_partition_preserving(self) -> bool:
        """True iff the first half of the index range maps onto itself."""
        half = 1 << (self.n - 1)
        return max(self.perm[:half]) <= half


class FsrSpec(_Value):
    """An FSR as the truth table of each update function it defines, plus a
    configuration tag.

    A table is an int in state-index order (see _var_masks). Fibonacci specs
    define only the feedback f_n; the shift updates f_j = x_(j+1) for j < n
    are implicit. A spec is unhashable: its tables are a dict.
    """

    __slots__ = __match_args__ = ("n", "kind", "tables")

    def __init__(self, n: int, kind: str, tables: dict[int, int]):
        set_n, set_kind, set_tables = self._setters
        set_n(self, n)
        set_kind(self, kind)  # "fibonacci" | "galois"
        set_tables(self, tables)  # register -> its update's truth table
        if kind not in ("fibonacci", "galois"):
            raise ValueError(f"unknown configuration {kind!r}")
        registers = set(range(1, n + 1))
        defined = set(tables)
        if kind == "fibonacci" and defined != {n}:
            raise ValueError(f"Fibonacci files must define exactly f{n}")
        if kind == "galois" and defined != registers:
            missing = sorted(registers - defined)
            if missing:
                raise ValueError(f"missing update functions: {missing}")
            raise ValueError(f"update functions out of range for n={n}: "
                             f"{sorted(defined - registers)}")
        for k, table in tables.items():
            if table < 0 or table >> (1 << n):
                raise ValueError(f"truth table of f{k} out of range [0, 2^(2^{n}))")

    @classmethod
    def fibonacci(cls, n: int, feedback: BoolExpr) -> "FsrSpec":
        return cls(n, "fibonacci", {n: _table_of(feedback, n)})

    @classmethod
    def galois(cls, n: int, updates: Sequence[BoolExpr]) -> "FsrSpec":
        return cls(n, "galois", {k: _table_of(f, n) for k, f in enumerate(updates, start=1)})


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------
#
# A truth table over n variables is one int in state-index order: bit u holds
# the value on state k = u + 1, so variable i is 1 where bit (n - i) of u is 0.

_ROWS_TO_DIGITS = bytes.maketrans(b"\x01\x02", b"10")
_DIGITS_TO_ROWS = bytes.maketrans(b"10", b"\x01\x02")


@functools.cache
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


@functools.cache
def _weight_masks(n: int) -> tuple[int, ...]:
    """The bits u < 2^n with w ones, for w = 0..n. In an ANF mask (see
    _moebius) they are the monomials of degree n - w."""
    masks = [1]
    for m in range(n):  # one more bit m of u: u itself, or u + 2^m
        masks = [a | (b << (1 << m)) for a, b in zip(masks + [0], [0] + masks)]
    return tuple(masks)


# the one place operator semantics on truth tables live: node class ->
# make(full), the operator on two tables of 2^n bits with full = 2^(2^n) - 1
_TABLE_OPS = {
    _expr.And: lambda full: operator.and_,
    _expr.Or: lambda full: operator.or_,
    _expr.Xor: lambda full: operator.xor,
    _expr.Implies: lambda full: lambda a, b: (full ^ a) | b,
    _expr.Iff: lambda full: lambda a, b: full ^ a ^ b,
}


def _truth_mask(f: BoolExpr, masks: Sequence[int], full: int) -> int:
    return _expr._fold(
        f,
        lambda node: masks[node.index - 1] if type(node) is Var else full if node.value else 0,
        lambda table, k: table ^ full if k & 1 else table,
        lambda cls, tables: functools.reduce(_TABLE_OPS[cls](full), tables),
    )


def _read_table(text: str, n: int) -> int:
    """Truth table of an expression's text, read without building its AST."""
    masks = _var_masks(n)
    full = (1 << (1 << n)) - 1
    return _expr._evaluate(
        text, n, lambda i: masks[i - 1], lambda v: full if v else 0, full.__xor__,
        tuple(_TABLE_OPS[node](full) for node in _expr._BINOPS),
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
        fresh = set(itertools.chain.from_iterable(factors)).difference(atoms)
        found = _expr._flat_atoms([fresh], n, var, const)
        if found is None:
            return _read_table(text, n)
        atoms.update(found)
        for t, fs in zip(new, factors):
            u = size - 1 - functools.reduce(operator.or_, map(atoms.__getitem__, fs))
            bits[t] = (u >> 3, 1 << (u & 7)) if u >= 0 else (0, 0)
        mask = bytearray((size + 7) >> 3)
        for i, b in map(bits.__getitem__, terms):
            mask[i] ^= b
        return _moebius(int.from_bytes(mask, "little"), n)

    return read


def _rows_to_mask(rows: Sequence[int]) -> int:
    return int(bytes(rows).translate(_ROWS_TO_DIGITS)[::-1], 2)


def _mask_to_rows(mask: int, n: int) -> tuple[int, ...]:
    return tuple(format(mask, f"0{1 << n}b").encode()[::-1].translate(_DIGITS_TO_ROWS))


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


# ---------------------------------------------------------------------------
# Structure and transition matrices
# ---------------------------------------------------------------------------

def _table_of(f: BoolExpr, n: int) -> int:
    """Truth table of tree f over n variables; refuses a variable outside [1, n]."""
    bad = variables(f) - set(range(1, n + 1))
    if bad:
        raise ValueError(f"variable indices {sorted(bad)} out of range [1, {n}]")
    return _truth_mask(f, _var_masks(n), (1 << (1 << n)) - 1)


def structure_matrix(f: BoolExpr, n: int) -> StructureMatrix:
    """Row index per state: 1 where f is true, 2 where false."""
    return StructureMatrix(n, _mask_to_rows(_table_of(f, n), n))


def galois_transition(spec: FsrSpec) -> TransitionMatrix:
    """Transition matrix of the full system: column k encodes the successor."""
    n = spec.n
    if spec.kind == "fibonacci":  # coordinate j < n shifts: f_j = x_(j+1)
        return _transition_of_tables(n, [*_var_masks(n)[1:], spec.tables[n]])
    return _transition_of_tables(n, [spec.tables[k] for k in range(1, n + 1)])


# _LANE_BITS[b] maps a digit 0 to the byte 0 and a digit 1 to the byte 2^b
_LANE_BITS = tuple(bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8))


def _transition_of_tables(n: int, tables: Sequence[int]) -> TransitionMatrix:
    """Transition matrix whose coordinate i updates by truth table tables[i-1].

    Bit n - i of state u + 1's successor index minus one is 1 - f_i on it.
    Those bits are laid out a byte lane at a time, the inverse of
    _coordinate_tables: lane k holds bits 8k .. 8k + 7 of every successor,
    and goes into byte k of each column's native-order word.
    """
    size = 1 << n
    full = (1 << size) - 1
    width = 1 if n <= 8 else 2 if n <= 16 else 4  # bytes per column
    words = bytearray(size * width)
    for low in range(0, n, 8):
        lane = 0
        for b in range(low, min(low + 8, n)):
            # the complement's digits run from state size down to state 1
            digits = format(full ^ tables[n - 1 - b], f"0{size}b").encode()
            lane |= int.from_bytes(digits.translate(_LANE_BITS[b - low]), "big")
        k = low >> 3 if sys.byteorder == "little" else width - 1 - (low >> 3)
        words[k::width] = lane.to_bytes(size, "little")
    cols = memoryview(words).cast({1: "B", 2: "H", 4: "I"}[width])
    return TransitionMatrix(n, tuple(map((1).__add__, cols)))


def coordinate_structure(L: TransitionMatrix, k: int) -> StructureMatrix:
    """Structure matrix of the k-th coordinate of the dynamics."""
    if not 1 <= k <= L.n:
        raise ValueError(f"coordinate {k} out of range [1, {L.n}]")
    b = L.n - k  # only the byte lane that holds bit b is read
    table = int(_lane(L, b & ~7).translate(_BIT_DIGITS[b & 7]), 2)
    return StructureMatrix(L.n, _mask_to_rows(table, L.n))


# _BIT_DIGITS[b] maps a byte to digit 0 where its bit b is set, 1 where clear
_BIT_DIGITS = tuple((b"1" * (1 << b) + b"0" * (1 << b)) * (128 >> b) for b in range(8))


def _lane(L: TransitionMatrix, low: int) -> bytes:
    """Bits low .. low + 7 of each successor's index minus one, state 2^n first."""
    return bytes(((c - 1) >> low) & 255 for c in reversed(L.cols))


def _coordinate_tables(L: TransitionMatrix) -> list[int]:
    """Truth table of every coordinate of the dynamics, coordinate 1 first.

    Coordinate k is true on state u + 1 where bit n - k of its successor's
    index minus one is 0; the successors' bits are read a byte at a time.
    """
    n = L.n
    tables = [0] * n
    for low in range(0, n, 8):
        chunk = _lane(L, low)
        for b in range(low, min(low + 8, n)):
            tables[n - 1 - b] = int(chunk.translate(_BIT_DIGITS[b - low]), 2)
    return tables


# ---------------------------------------------------------------------------
# Variable dependence and reduction
# ---------------------------------------------------------------------------

def restrict_support(M: StructureMatrix) -> tuple[tuple[int, ...], StructureMatrix]:
    """Drop independent variables, fixing each of them to 1.

    Returns the ordered support and the reduced structure matrix over it.
    """
    n = M.n
    support = _anf_support(_moebius(_rows_to_mask(M.rows), n), n)
    # at[v] is the position in M of reduced state v + 1: the variables off
    # the support are fixed to 1, which is bit 0 of the position
    at = [0]
    for j in reversed(support):
        step = 1 << (n - j)
        at += [u + step for u in at]
    return support, StructureMatrix(len(support), tuple(M.rows[u] for u in at))


def synthesize_expr(M: StructureMatrix) -> BoolExpr:
    """Canonical expression (via ANF) whose structure matrix equals M."""
    return anf_to_expr(_moebius(_rows_to_mask(M.rows), M.n), M.n)


# ---------------------------------------------------------------------------
# Delta-notation text format
# ---------------------------------------------------------------------------

_DELTA_RE = re.compile(r"^\s*d(\d+)\s*\[([^\]]*)\]\s*$")


def format_delta(size: int, entries: Sequence[int | None] | Mapping[int, int]) -> str:
    """`d16[2 4 ...]`; None entries print as `*` (partial matrices).

    A mapping gives only the fixed entries, by 1-based position; every other
    entry prints as `*`. A sequence with None is written as its mapping.
    """
    if not isinstance(entries, Mapping) and None in entries:
        entries = {j: e for j, e in enumerate(entries, start=1) if e is not None}
    if isinstance(entries, Mapping):
        return "".join(delta_pieces(size, entries))
    if not entries:
        return f"d{size}[]"
    # one C-level format, which holds no str per entry
    return (f"d{size}[" + "%s " * (len(entries) - 1) + "%s]") % tuple(entries)


#: Most entries in one piece of delta_pieces' text
_PIECE = 1 << 14


@functools.cache
def _odd_thousands() -> tuple[str, tuple[str, ...], tuple[int, ...]]:
    """The text "1 3 ... 999"; the last three digits of the 500 odd numbers
    of any later thousand; and, at d, where the odd number v of d digits
    starts in the text "1 3 5 ...", less (v >> 1) * (d + 1). Built on first
    use: only gal2fib's least completion reads them."""
    starts, at = [0], 0  # at: the text's length below 10^(d - 1)
    for d in range(1, 21):
        lo = 10 ** (d - 1)
        starts.append(at - (lo >> 1) * (d + 1))
        at += (5 * lo - (lo >> 1)) * (d + 1)
    endings = ("%03d " * 500 % tuple(range(1, 1000, 2))).split()
    return " ".join(map(str, range(1, 1000, 2))), tuple(endings), tuple(starts)


def _odd_at(v: int) -> int:
    """Where the odd number v starts in the text "1 3 5 ..."."""
    d = len(str(v))
    return _odd_thousands()[2][d] + (v >> 1) * (d + 1)


def _odd_text(a: int, b: int) -> str:
    """The odd numbers from a (odd) up to b, space-separated. Each whole
    thousand is one join: its digits above the last three, joined with the
    500 endings."""
    lo, hi = -(-(a - 1) // 1000), b // 1000  # whole thousands lo .. hi - 1
    if lo >= hi:
        return " ".join(map(str, range(a, b, 2)))
    first, endings, _ = _odd_thousands()
    parts = [" ".join(map(str, range(a, 1000 * lo, 2)))] if a < 1000 * lo else []
    for q in range(lo, hi):
        s = str(q)
        parts.append(s + (" " + s).join(endings) if q else first)
    if 1000 * hi + 1 < b:
        parts.append(" ".join(map(str, range(1000 * hi + 1, b, 2))))
    return " ".join(parts)


def delta_pieces(size: int, fixed: Mapping[int, int], least: bool = False) -> Iterator[str]:
    """The text `d<size>[...]` of a matrix given by its fixed entries, in
    pieces of at most _PIECE entries, with no list of size entries.

    Entry j is fixed[j] where j is fixed. Every other entry is `*`, as
    format_delta writes a mapping, or with least=True it is 2 * ((j - 1) mod size/2) + 1, the least Fibonacci
    completion's column (`fib._least_columns`): the odd numbers below size,
    twice. A piece is that filling's text, made a run at a time, with the
    fixed entries that differ from it spliced in; a piece where such entries
    are dense is formatted an entry at a time instead.
    """
    keys = sorted(fixed)
    if keys and (keys[0] < 1 or keys[-1] > size):
        bad = keys[0] if keys[0] < 1 else keys[-1]
        raise ValueError(f"entry position {bad} out of range [1, {size}]")
    # with least=True, the filling repeats after half entries, and no piece
    # spans both halves
    half = size >> 1
    step = min(_PIECE, half) if least else _PIECE
    yield f"d{size}["
    i = 0
    for c in range(1, size + 1, step):
        end = min(c + step, size + 1)
        k = bisect.bisect_left(keys, end, i)
        if least:
            v = 2 * ((c - 1) % half) + 1  # entry c's filling
            filling = range(v, v + 2 * (end - c), 2)
        # measured: splicing stops paying near a tenth of the piece fixed
        # for the least completion, a fifth for P
        if (10 if least else 5) * (k - i) > end - c:  # dense: an entry at a time, in one format
            parts = map(fixed.get, range(c, end), filling if least else itertools.repeat("*"))
            text = ("%s " * (end - c) % tuple(parts))[:-1]
        else:  # the filling's text, with (start, end) of each entry to replace
            if least:
                text = _odd_text(v, v + 2 * (end - c))
                over = [j for j in keys[i:k] if fixed[j] != filling[j - c]]
                base = _odd_at(v)
                spans = [(_odd_at(u) - base, _odd_at(u + 2) - base - 1)
                         for u in (filling[j - c] for j in over)]
            else:
                text = "* " * (end - c - 1) + "*"
                over = keys[i:k]
                spans = [(2 * (j - c), 2 * (j - c) + 1) for j in over]
            if over:
                parts, prev = [], 0
                for j, (at, to) in zip(over, spans):
                    parts += (text[prev:at], str(fixed[j]))
                    prev = to
                parts.append(text[prev:])
                text = "".join(parts)
        i = k
        yield text if c == 1 else " " + text
    yield "]"


def parse_delta(text: str) -> tuple[int, tuple[int | None, ...]]:
    m = _DELTA_RE.match(text)
    if m is None:
        raise ValueError(f"not a delta-format matrix: {text!r}")
    size = int(m.group(1))
    tokens = m.group(2).split()
    try:
        if "*" in tokens:
            entries = tuple(None if tok == "*" else int(tok) for tok in tokens)
            values = [e for e in entries if e is not None]
        else:
            entries = values = tuple(map(int, tokens))
    except ValueError:
        values = None
    if values is None or values and (min(values) < 1 or max(values) > size):
        # the first bad token, in order, names the error
        for tok in tokens:
            if tok == "*":
                continue
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"entry {tok!r} is not an integer") from None
            if not 1 <= v <= size:
                raise ValueError(f"entry {v} out of range [1, {size}]")
    return size, entries


def transition_to_delta(L: TransitionMatrix) -> str:
    return format_delta(1 << L.n, L.cols)


def transition_from_delta(text: str) -> TransitionMatrix:
    size, entries = parse_delta(text)
    n = size.bit_length() - 1
    if n < 0 or 1 << n != size:
        raise ValueError(f"domain size {size} is not a power of two")
    if None in entries:
        raise ValueError("transition matrix may not contain free (*) columns")
    return TransitionMatrix(n, entries)  # type: ignore[arg-type]
