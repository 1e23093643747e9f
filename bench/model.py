"""The benchmark's own register model: truth tables, transitions, sequences.

Nothing here imports fsrkit. Inputs are generated and outputs are checked
with this code only, so a defect in the program under test cannot make its
own answers look right.

A state of an n-stage register is the natural index u in [0, 2^n), whose
bit n-i holds x_i (x1 is the most significant bit and the output bit).
fsrkit numbers the same state k = 2^n - u, so index 1 is all-ones and the
first half of its index range holds the output-1 states. A transition is
kept as the list nxt with nxt[u] the successor of u; `to_cols`/`from_cols`
convert to fsrkit's column sequences.
"""

from __future__ import annotations

import functools
import random


@functools.cache
def low_mask(n: int, j: int) -> int:
    """Truth table (over u) of "bit j of u is 0"."""
    s = 1 << j
    m = (1 << s) - 1
    w = 2 * s
    while w < (1 << n):
        m |= m << w
        w *= 2
    return m


def var_table(n: int, i: int) -> int:
    """Truth table of x_i over the 2^n natural indices."""
    return ((1 << (1 << n)) - 1) ^ low_mask(n, n - i)


def table_of(monos, n: int) -> int:
    """Truth table of an ANF given as monomials (tuples of variable indices)."""
    full = (1 << (1 << n)) - 1
    acc = 0
    for mono in monos:
        t = full
        for i in mono:
            t &= var_table(n, i)
        acc ^= t
    return acc


def anf_of(table: int, n: int) -> list[tuple[int, ...]]:
    """Monomials of a truth table, by the Moebius transform over u."""
    for j in range(n):
        table ^= (table & low_mask(n, j)) << (1 << j)
    monos = []
    for m in range(1 << n):
        if table >> m & 1:
            monos.append(tuple(i for i in range(1, n + 1) if m >> (n - i) & 1))
    return sorted(monos, key=lambda mono: (len(mono), mono))


def render_anf(monos) -> str:
    """fsrkit concrete syntax: XOR of AND-terms, `1` for the empty monomial."""
    if not monos:
        return "0"
    return " ^ ".join(" & ".join(f"x{i}" for i in mono) or "1" for mono in monos)


def random_anf(rng: random.Random, n: int, nterms: int, maxdeg: int,
               first_var: int = 1) -> list[tuple[int, ...]]:
    """`nterms` distinct random monomials of degree 1..maxdeg over x_first..x_n."""
    pool = range(first_var, n + 1)
    terms: set[tuple[int, ...]] = set()
    while len(terms) < nterms:
        d = rng.randint(1, min(maxdeg, len(pool)))
        terms.add(tuple(sorted(rng.sample(pool, d))))
    return sorted(terms, key=lambda mono: (len(mono), mono))


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

def fib_next(n: int, feedback: int) -> list[int]:
    """Shift x_j <- x_(j+1), x_n <- f(x)."""
    full = (1 << n) - 1
    return [((u << 1) & full) | (feedback >> u & 1) for u in range(1 << n)]


def gal_next(n: int, tables) -> list[int]:
    """x_i <- f_i(x) for every coordinate."""
    out = [0] * (1 << n)
    for i, t in enumerate(tables, start=1):
        bit = 1 << (n - i)
        for u in range(1 << n):
            if t >> u & 1:
                out[u] |= bit
    return out


def coordinate_tables(nxt: list[int], n: int) -> list[int]:
    """Truth table of each coordinate of a transition."""
    tables = []
    for i in range(1, n + 1):
        s = n - i
        tables.append(sum(1 << u for u, v in enumerate(nxt) if v >> s & 1))
    return tables


def to_cols(nxt: list[int]) -> list[int]:
    size = len(nxt)
    return [size - nxt[size - k] for k in range(1, size + 1)]


def from_cols(cols) -> list[int]:
    size = len(cols)
    return [size - cols[size - u - 1] for u in range(size)]


def delta_text(cols) -> str:
    return f"d{len(cols)}[{' '.join(map(str, cols))}]"


def random_partition_perm(rng: random.Random, n: int) -> list[int]:
    """A partition-preserving relabeling of fsrkit indices (top half to top half)."""
    half = 1 << (n - 1)
    top = list(range(1, half + 1))
    bottom = list(range(half + 1, 2 * half + 1))
    rng.shuffle(top)
    rng.shuffle(bottom)
    return top + bottom


def conjugate_cols(cols, perm) -> list[int]:
    """New column perm(i) is perm(old column i)."""
    out = [0] * len(cols)
    for i, c in enumerate(cols):
        out[perm[i] - 1] = perm[c - 1]
    return out


# ---------------------------------------------------------------------------
# Orbits and output sequences
# ---------------------------------------------------------------------------

def output_bits(nxt: list[int], n: int) -> list[int]:
    return [u >> (n - 1) for u in range(len(nxt))]


def cycles(nxt: list[int]) -> list[list[int]]:
    """The cycles of the functional graph, each as its list of states."""
    size = len(nxt)
    color = bytearray(size)  # 0 new, 1 on the current walk, 2 done
    found = []
    for s in range(size):
        if color[s]:
            continue
        walk = []
        u = s
        while not color[u]:
            color[u] = 1
            walk.append(u)
            u = nxt[u]
        if color[u] == 1:
            found.append(walk[walk.index(u):])
        for v in walk:
            color[v] = 2
    return found


def orbits(nxt: list[int]) -> tuple[list[int], list[int]]:
    """Tail length and cycle length of each state's orbit."""
    size = len(nxt)
    tail = [-1] * size
    period = [0] * size
    for cyc in cycles(nxt):
        for u in cyc:
            tail[u] = 0
            period[u] = len(cyc)
    for s in range(size):
        walk = []
        u = s
        while tail[u] < 0:
            walk.append(u)
            u = nxt[u]
        t, p = tail[u], period[u]
        for v in reversed(walk):
            t += 1
            tail[v] = t
            period[v] = p
    return tail, period


def primitive_period(word: str) -> int:
    return (word + word).find(word, 1)


def least_rotation(word: str) -> str:
    """Lexicographically least rotation, in linear time."""
    n = len(word)
    s = word + word
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return s[start:start + n]


def necklaces(nxt: list[int], n: int) -> set[str]:
    """Output sequences of a permutation, one canonical word per cycle class.

    Every state of a permutation lies on a cycle, so its sequences are the
    rotations of the cycles' primitive output words.
    """
    out = output_bits(nxt, n)
    found = set()
    for cyc in cycles(nxt):
        word = "".join("1" if out[u] else "0" for u in cyc)
        found.add(least_rotation(word[:primitive_period(word)]))
    return found


def window_length(nxt: list[int], n: int) -> int:
    """fsrkit's minimal Fibonacci length l for a register.

    The l-bit output windows of the states define a Fibonacci register iff
    each window fixes the next output bit; that property is monotone in l.
    fsrkit starts its search at ceil(log2 r), r the longest primitive
    period, so the answer is the larger of the two.
    """
    out = output_bits(nxt, n)
    r = 1
    for cyc in cycles(nxt):
        word = "".join("1" if out[u] else "0" for u in cyc)
        r = max(r, primitive_period(word))
    start = max(1, (r - 1).bit_length())
    cur = list(range(len(nxt)))
    win = [0] * len(nxt)
    l = 0
    while True:
        win = [(w << 1) | out[c] for w, c in zip(win, cur)]
        cur = [nxt[c] for c in cur]
        l += 1
        nextbit: dict[int, int] = {}
        if all(nextbit.setdefault(w, out[c]) == out[c] for w, c in zip(win, cur)):
            return max(start, l)


def cycle_profile(nxt: list[int]) -> dict:
    """Cycle-length profile recorded with each command."""
    lengths = sorted((len(c) for c in cycles(nxt)), reverse=True)
    return {
        "cycles": len(lengths),
        "max_cycle": lengths[0],
        "sum_sq_cycle": sum(c * c for c in lengths),
        "max_tail": max(orbits(nxt)[0]),
    }


# ---------------------------------------------------------------------------
# Register families
# ---------------------------------------------------------------------------

def de_bruijn_feedback(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """ANF of a random full-period feedback x1 ^ g(x2..xn), by cycle joining.

    Starting from the pure cycling register (f = x1), flipping g at pattern
    p swaps the successors of the companion states (0,p) and (1,p); when
    they lie on different cycles that joins the two cycles into one. Joining
    along a random spanning tree of the cycles leaves a single cycle of 2^n.
    """
    size = 1 << n
    half = size >> 1
    pcr = [((u << 1) & (size - 1)) | (u >> (n - 1)) for u in range(size)]
    cycle_id = [0] * size
    for cid, cyc in enumerate(cycles(pcr)):
        for u in cyc:
            cycle_id[u] = cid
    parent = list(range(max(cycle_id) + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    g = 0  # truth table over u; depends on x2..xn only
    patterns = list(range(half))
    rng.shuffle(patterns)
    for p in patterns:
        a, b = find(cycle_id[p]), find(cycle_id[p | half])
        if a != b:
            parent[a] = b
            g |= (1 << p) | (1 << (p | half))
    feedback = table_of([(1,)], n) ^ g
    if len(cycles(fib_next(n, feedback))[0]) != size:
        raise RuntimeError("cycle joining did not reach full period")
    return anf_of(feedback, n)
