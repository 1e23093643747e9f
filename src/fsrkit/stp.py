"""Canonical-vector state encoding and the logical-matrix algebra.

States of an n-register FSR are basis-vector indices in [1, 2^n]; the
all-ones state is index 1 and the all-zeros state is index 2^n.  Logical
matrices are stored as index sequences, never as dense 0/1 arrays.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

from .expr import Anf, BoolExpr, Const, Var, anf_to_expr, variables
from . import expr as _expr


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

def encode_state(bits: Sequence[int]) -> int:
    """Index k = 1 + sum (1 - b_i) * 2^(n-i); bit 1 is most significant."""
    k = 1
    n = len(bits)
    for i, b in enumerate(bits, start=1):
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

@dataclass(frozen=True)
class StructureMatrix:
    """2 x 2^n logical matrix of a Boolean function, as row indices in {1, 2}."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} entries, got {len(self.rows)}")
        if any(r not in (1, 2) for r in self.rows):
            raise ValueError("structure matrix entries must be 1 or 2")

    def value(self, k: int) -> int:
        """Function value (bit) on state k."""
        return 1 if self.rows[k - 1] == 1 else 0


@dataclass(frozen=True)
class TransitionMatrix:
    """2^n x 2^n logical matrix, stored as the column -> row index sequence."""

    n: int
    cols: tuple[int, ...]

    def __post_init__(self):
        size = 1 << self.n
        if len(self.cols) != size:
            raise ValueError(f"expected {size} columns, got {len(self.cols)}")
        if any(not 1 <= c <= size for c in self.cols):
            raise ValueError("column index out of range")

    def column(self, j: int) -> int:
        return self.cols[j - 1]


@dataclass(frozen=True)
class PermutationTransform:
    """State relabeling z = T x; perm[i-1] is the image of index i."""

    n: int
    perm: tuple[int, ...]

    def __post_init__(self):
        size = 1 << self.n
        if sorted(self.perm) != list(range(1, size + 1)):
            raise ValueError("not a permutation of the state indices")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def inverse(self) -> "PermutationTransform":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm, start=1):
            inv[p - 1] = i
        return PermutationTransform(self.n, tuple(inv))

    def is_partition_preserving(self) -> bool:
        """True iff the first half of the index range maps onto itself."""
        half = 1 << (self.n - 1)
        return all(p <= half for p in self.perm[:half])


@dataclass(frozen=True)
class FsrSpec:
    """An FSR as update functions plus a configuration tag.

    Fibonacci specs store only the feedback function; the shift updates
    f_j = x_(j+1) for j < n are implicit.
    """

    n: int
    kind: str  # "fibonacci" | "galois"
    updates: tuple[BoolExpr, ...]

    def __post_init__(self):
        if self.kind not in ("fibonacci", "galois"):
            raise ValueError(f"unknown configuration {self.kind!r}")
        expected = 1 if self.kind == "fibonacci" else self.n
        if len(self.updates) != expected:
            raise ValueError(f"expected {expected} update functions, got {len(self.updates)}")
        for f in self.updates:
            bad = variables(f) - set(range(1, self.n + 1))
            if bad:
                raise ValueError(f"variable indices {sorted(bad)} exceed register count {self.n}")

    @classmethod
    def fibonacci(cls, n: int, feedback: BoolExpr) -> "FsrSpec":
        return cls(n, "fibonacci", (feedback,))

    @classmethod
    def galois(cls, n: int, updates: Sequence[BoolExpr]) -> "FsrSpec":
        return cls(n, "galois", tuple(updates))

    def update_functions(self) -> tuple[BoolExpr, ...]:
        """All n update functions, with Fibonacci shifts made explicit."""
        if self.kind == "galois":
            return self.updates
        return tuple(Var(j + 1) for j in range(1, self.n)) + (self.updates[0],)


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
    full = (1 << (1 << n)) - 1
    return tuple(
        ((1 << s) - 1) * (full // ((1 << 2 * s) - 1))
        for s in (1 << (n - i) for i in range(1, n + 1))
    )


def _truth_mask(f: BoolExpr, masks: Sequence[int], full: int) -> int:
    if isinstance(f, Var):
        return masks[f.index - 1]
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, _expr.Not):
        return full ^ _truth_mask(f.child, masks, full)
    a = _truth_mask(f.left, masks, full)
    b = _truth_mask(f.right, masks, full)
    if isinstance(f, _expr.And):
        return a & b
    if isinstance(f, _expr.Or):
        return a | b
    if isinstance(f, _expr.Xor):
        return a ^ b
    if isinstance(f, _expr.Implies):
        return (full ^ a) | b
    if isinstance(f, _expr.Iff):
        return full ^ a ^ b
    raise TypeError(f"not a BoolExpr node: {f!r}")


def _rows_to_mask(rows: Sequence[int]) -> int:
    return int(bytes(rows).translate(_ROWS_TO_DIGITS)[::-1], 2)


def _mask_to_rows(mask: int, n: int) -> tuple[int, ...]:
    return tuple(format(mask, f"0{1 << n}b").encode()[::-1].translate(_DIGITS_TO_ROWS))


def _depends(f: int, n: int, j: int) -> bool:
    # states u and u + 2^(n-j) differ only in variable j
    return bool((f ^ (f >> (1 << (n - j)))) & _var_masks(n)[j - 1])


# ---------------------------------------------------------------------------
# Structure and transition matrices
# ---------------------------------------------------------------------------

def structure_matrix(f: BoolExpr, n: int) -> StructureMatrix:
    """Row index per state: 1 where f is true, 2 where false."""
    bad = variables(f) - set(range(1, n + 1))
    if bad:
        raise ValueError(f"variable indices {sorted(bad)} exceed register count {n}")
    mask = _truth_mask(f, _var_masks(n), (1 << (1 << n)) - 1)
    return StructureMatrix(n, _mask_to_rows(mask, n))


def galois_transition(spec: FsrSpec) -> TransitionMatrix:
    """Transition matrix of the full system: column k encodes the successor."""
    n = spec.n
    size = 1 << n
    full = (1 << size) - 1
    masks = _var_masks(n)
    # digit u of row i is 1 - f_i on state u + 1, so the digits of state u,
    # read down the rows, are its successor's index minus one (the leading
    # row of zeros keeps n = 0 well formed)
    digits = ["0" * size] + [
        format(full ^ _truth_mask(f, masks, full), f"0{size}b")[::-1]
        for f in spec.update_functions()
    ]
    return TransitionMatrix(n, tuple(int("".join(d), 2) + 1 for d in zip(*digits)))


def coordinate_structure(L: TransitionMatrix, k: int) -> StructureMatrix:
    """Structure matrix of the k-th coordinate of the dynamics."""
    if not 1 <= k <= L.n:
        raise ValueError(f"coordinate {k} out of range [1, {L.n}]")
    shift = L.n - k
    return StructureMatrix(L.n, tuple(1 + (((c - 1) >> shift) & 1) for c in L.cols))


# ---------------------------------------------------------------------------
# Variable dependence and reduction
# ---------------------------------------------------------------------------

def depends_on(M: StructureMatrix, j: int) -> bool:
    """True iff the function value changes when variable j flips somewhere."""
    if not 1 <= j <= M.n:
        raise ValueError(f"variable {j} out of range [1, {M.n}]")
    return _depends(_rows_to_mask(M.rows), M.n, j)


def restrict_support(M: StructureMatrix) -> tuple[tuple[int, ...], StructureMatrix]:
    """Drop independent variables, fixing each of them to 1.

    Returns the ordered support and the reduced structure matrix over it.
    """
    n = M.n
    f = _rows_to_mask(M.rows)
    support = tuple(j for j in range(1, n + 1) if _depends(f, n, j))
    # at[v] is the position in M of reduced state v + 1: the variables off
    # the support are fixed to 1, which is bit 0 of the position
    at = [0]
    for j in reversed(support):
        step = 1 << (n - j)
        at += [u + step for u in at]
    return support, StructureMatrix(len(support), tuple(M.rows[u] for u in at))


def synthesize_expr(M: StructureMatrix) -> BoolExpr:
    """Canonical expression (via ANF) whose structure matrix equals M."""
    n = M.n
    f = _rows_to_mask(M.rows)
    # Moebius transform: afterwards bit u is the coefficient of the monomial
    # over the variables that are 1 on state u + 1
    for i, var in enumerate(_var_masks(n), start=1):
        f ^= (f >> (1 << (n - i))) & var
    monomials = frozenset(
        frozenset(i for i in range(1, n + 1) if not (u >> (n - i)) & 1)
        for u, d in enumerate(format(f, f"0{1 << n}b")[::-1])
        if d == "1"
    )
    return anf_to_expr(Anf(monomials))


# ---------------------------------------------------------------------------
# Delta-notation text format
# ---------------------------------------------------------------------------

_DELTA_RE = re.compile(r"^\s*d(\d+)\s*\[([^\]]*)\]\s*$")


def format_delta(size: int, entries: Sequence[int | None]) -> str:
    """`d16[2 4 ...]`; None entries print as `*` (partial matrices)."""
    # joined in chunks, so a 2^16-entry matrix never holds one str per entry
    chunk = 4096
    body = " ".join(
        " ".join("*" if e is None else str(e) for e in entries[i:i + chunk])
        for i in range(0, len(entries), chunk)
    )
    return f"d{size}[{body}]"


def parse_delta(text: str) -> tuple[int, tuple[int | None, ...]]:
    m = _DELTA_RE.match(text)
    if m is None:
        raise ValueError(f"not a delta-format matrix: {text!r}")
    size = int(m.group(1))
    entries = []
    for tok in m.group(2).split():
        if tok == "*":
            entries.append(None)
        else:
            v = int(tok)
            if not 1 <= v <= size:
                raise ValueError(f"entry {v} out of range [1, {size}]")
            entries.append(v)
    return size, tuple(entries)


def transition_to_delta(L: TransitionMatrix) -> str:
    return format_delta(1 << L.n, L.cols)


def transition_from_delta(text: str) -> TransitionMatrix:
    size, entries = parse_delta(text)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError(f"domain size {size} is not a power of two")
    if any(e is None for e in entries):
        raise ValueError("transition matrix may not contain free (*) columns")
    return TransitionMatrix(n, entries)  # type: ignore[arg-type]


def structure_to_delta(M: StructureMatrix) -> str:
    return format_delta(2, M.rows)
