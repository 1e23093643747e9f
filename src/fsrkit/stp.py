"""Canonical-vector state encoding and the logical-matrix algebra.

States of an n-register FSR are basis-vector indices in [1, 2^n]; the
all-ones state is index 1 and the all-zeros state is index 2^n.  Logical
matrices are stored as index sequences, never as dense 0/1 arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .expr import (
    Anf,
    BoolExpr,
    Const,
    Var,
    anf_to_expr,
    eval_expr,
    variables,
)
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

    @property
    def feedback(self) -> BoolExpr:
        if self.kind != "fibonacci":
            raise ValueError("only Fibonacci specs have a single feedback")
        return self.updates[0]


# ---------------------------------------------------------------------------
# Structure and transition matrices
# ---------------------------------------------------------------------------

def _var_masks(n: int) -> list[int]:
    # bit (k-1) of mask i-1 is the value of variable i on state k
    size = 1 << n
    masks = []
    for i in range(1, n + 1):
        m = 0
        for k in range(size):
            if not (k >> (n - i)) & 1:
                m |= 1 << k
        masks.append(m)
    return masks


def _truth_mask(f: BoolExpr, masks: list[int], full: int) -> int:
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


def structure_matrix(f: BoolExpr, n: int) -> StructureMatrix:
    """Row index per state: 1 where f is true, 2 where false."""
    bad = variables(f) - set(range(1, n + 1))
    if bad:
        raise ValueError(f"variable indices {sorted(bad)} exceed register count {n}")
    size = 1 << n
    full = (1 << size) - 1
    mask = _truth_mask(f, _var_masks(n), full)
    return StructureMatrix(n, tuple(1 if (mask >> k) & 1 else 2 for k in range(size)))


def galois_transition(spec: FsrSpec) -> TransitionMatrix:
    """Transition matrix of the full system: column k encodes the successor."""
    n = spec.n
    size = 1 << n
    structures = [structure_matrix(f, n) for f in spec.update_functions()]
    cols = []
    for k in range(1, size + 1):
        cols.append(encode_state([m.value(k) for m in structures]))
    return TransitionMatrix(n, tuple(cols))


def coordinate_structure(L: TransitionMatrix, k: int) -> StructureMatrix:
    """Structure matrix of the k-th coordinate of the dynamics."""
    if not 1 <= k <= L.n:
        raise ValueError(f"coordinate {k} out of range [1, {L.n}]")
    rows = []
    for col in L.cols:
        bit = decode_state(col, L.n)[k - 1]
        rows.append(1 if bit else 2)
    return StructureMatrix(L.n, tuple(rows))


def swap_matrix(m: int, n: int) -> tuple[int, ...]:
    """Tensor-factor swap W_[m,n] as a column index sequence of length m*n."""
    if m < 1 or n < 1:
        raise ValueError("factors must be >= 1")
    cols = [0] * (m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cols[(i - 1) * n + j - 1] = (j - 1) * m + i
    return tuple(cols)


# ---------------------------------------------------------------------------
# Variable dependence and reduction
# ---------------------------------------------------------------------------

def depends_on(M: StructureMatrix, j: int) -> bool:
    """True iff the function value changes when variable j flips somewhere."""
    if not 1 <= j <= M.n:
        raise ValueError(f"variable {j} out of range [1, {M.n}]")
    flip = 1 << (M.n - j)  # flipping bit j moves the index by 2^(n-j)
    for k in range(1 << M.n):
        if M.rows[k] != M.rows[k ^ flip]:
            return True
    return False


def restrict_support(M: StructureMatrix) -> tuple[tuple[int, ...], StructureMatrix]:
    """Drop independent variables, fixing each of them to 1.

    Returns the ordered support and the reduced structure matrix over it.
    """
    support = tuple(j for j in range(1, M.n + 1) if depends_on(M, j))
    m = len(support)
    rows = []
    for kr in range(1, (1 << m) + 1):
        partial = decode_state(kr, m) if m else ()
        bits = [1] * M.n
        for pos, j in enumerate(support):
            bits[j - 1] = partial[pos]
        rows.append(M.rows[encode_state(bits) - 1])
    return support, StructureMatrix(m, tuple(rows))


def synthesize_expr(M: StructureMatrix) -> BoolExpr:
    """Canonical expression (via ANF) whose structure matrix equals M."""
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
