"""Checks of fsrkit's printed output against the benchmark's own model.

Each check takes the exit code and captured output of one command, raises
WrongOutput when the output is wrong, and returns the figures the benchmark
reads from it. An exit code of 2 is a clean error: it is counted as a failed
command, and whatever was printed before it must still be right.
"""

from __future__ import annotations

import re

from model import conjugate_cols, gal_next, orbits, to_cols, var_table


class WrongOutput(Exception):
    pass


_DELTA_RE = re.compile(r"^d(\d+)\[([^\]]*)\]$")
_TOKEN_RE = re.compile(r"\s*(?:[xz](\d+)|([01])|(<->|->|[!&|^()]))")
_LEVEL = {"<->": 0, "->": 1, "|": 2, "^": 3, "&": 4}


def parse_delta(text: str, rows: int, cols: int) -> list[int | None]:
    """Entries of `d<rows>[...]`, which must hold `cols` entries."""
    m = _DELTA_RE.match(text.strip())
    if m is None:
        raise WrongOutput(f"not a delta matrix: {text[:60]!r}")
    entries = [None if tok == "*" else int(tok) for tok in m.group(2).split()]
    if int(m.group(1)) != rows or len(entries) != cols:
        raise WrongOutput(f"d{m.group(1)}[...] with {len(entries)} entries, "
                          f"expected d{rows}[...] with {cols}")
    return entries


def expr_table(text: str, n: int) -> tuple[int, set[int]]:
    """Truth table (over the natural index) and variables of an expression.

    Precedence and left associativity follow fsrkit's documented grammar:
    <-> below -> below | below ^ below &, with prefix !.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise WrongOutput(f"bad expression {text[pos:pos + 20]!r}")
            break
        tokens.append(m.groups())
        pos = m.end()
    full = (1 << (1 << n)) - 1
    used: set[int] = set()
    i = 0

    def atom() -> int:
        nonlocal i
        neg = 0
        while i < len(tokens) and tokens[i][2] == "!":
            neg ^= full
            i += 1
        if i == len(tokens):
            raise WrongOutput(f"truncated expression {text[:40]!r}")
        var, const, op = tokens[i]
        i += 1
        if var is not None:
            k = int(var)
            if not 1 <= k <= n:
                raise WrongOutput(f"variable x{k} out of range")
            used.add(k)
            value = var_table(n, k)
        elif const is not None:
            value = full if const == "1" else 0
        elif op == "(":
            value = binary(0)
            if i == len(tokens) or tokens[i][2] != ")":
                raise WrongOutput(f"unbalanced parentheses in {text[:40]!r}")
            i += 1
        else:
            raise WrongOutput(f"unexpected {op!r} in {text[:40]!r}")
        return value ^ neg

    def binary(min_level: int) -> int:
        nonlocal i
        lhs = atom()
        while i < len(tokens) and _LEVEL.get(tokens[i][2], -1) >= min_level:
            op = tokens[i][2]
            i += 1
            rhs = binary(_LEVEL[op] + 1)
            if op == "&":
                lhs &= rhs
            elif op == "|":
                lhs |= rhs
            elif op == "^":
                lhs ^= rhs
            elif op == "->":
                lhs = (full ^ lhs) | rhs
            else:
                lhs = full ^ lhs ^ rhs
        return lhs

    value = binary(0)
    if i != len(tokens):
        raise WrongOutput(f"trailing tokens in {text[:40]!r}")
    return value, used


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _shift_ok(j: int, value: int, l: int) -> bool:
    j0 = (j - 1) % (1 << (l - 1))
    return value in (2 * j0 + 1, 2 * j0 + 2)


def check_fib2gal(rc: int, out: str, n: int, lf_cols: list[int]) -> dict:
    """`fib2gal --minimize --emit all`: T, L_g, the emitted logic, support_sum."""
    if rc == 2:
        return {}
    if rc != 0:
        raise WrongOutput(f"exit code {rc}")
    f = _fields(out)
    size = 1 << n
    half = size >> 1
    try:
        L_g = parse_delta(f["L_g"], size, size)
        T = parse_delta(f["T"], size, size)
        support_sum = int(f["support_sum"])
        area = float(f["area_um2"])
    except KeyError as err:
        raise WrongOutput(f"missing output line {err}") from None
    if sorted(T) != list(range(1, size + 1)) or max(T[:half]) > half:
        raise WrongOutput("T is not a partition-preserving permutation")
    if L_g != conjugate_cols(lf_cols, T):
        raise WrongOutput("L_g is not the conjugate of L_f by T")
    if L_g == lf_cols:
        raise WrongOutput("the selected candidate is L_f itself")
    tables = []
    variables = 0
    for k in range(1, n + 1):
        if f"f{k}" not in f:
            raise WrongOutput(f"emitted logic lacks f{k}")
        table, used = expr_table(f[f"f{k}"], n)
        tables.append(table)
        variables += len(used)
    if to_cols(gal_next(n, tables)) != L_g:
        raise WrongOutput("emitted logic does not reproduce L_g")
    if variables != support_sum:
        raise WrongOutput(f"support_sum {support_sum} but the logic uses {variables}")
    return {"support_sum": support_sum, "area_um2": area}


def check_gal2fib(rc: int, out: str, n: int, nxt: list[int], l: int,
                  max_l: int | None) -> dict:
    """`gal2fib`: l, the partial matrix P, the first completion and T'."""
    f = _fields(out)
    if rc == 0 and "l" not in f:
        raise WrongOutput("no `l = ...` line")
    if "l" in f and int(f["l"]) != l:
        raise WrongOutput(f"l = {f['l']}, expected {l}")
    if max_l is not None and l > max_l:
        raise WrongOutput(f"round-trip register got l = {l} > n = {max_l}")
    if rc != 0 and rc != 2:
        raise WrongOutput(f"exit code {rc}")
    size = 1 << l
    P = parse_delta(f["P"], size, size) if "P" in f else None
    if P is not None:
        for j, v in enumerate(P, start=1):
            if v is not None and not _shift_ok(j, v, l):
                raise WrongOutput(f"P column {j} breaks the shift law")
    # T' maps the 2^n Galois states to window states: d<2^l>[...], 2^n entries
    window = parse_delta(f["T'"], size, 1 << n) if "T'" in f else None
    if window is not None and any(w is None or not 1 <= w <= size for w in window):
        raise WrongOutput("T' is not a map into the window states")
    if rc == 2:
        return {"l": l}
    if P is None or window is None:
        raise WrongOutput("missing P or T'")
    lines = out.splitlines()
    first = next((i for i, ln in enumerate(lines) if ln.startswith("completions")), None)
    if first is None or first + 1 >= len(lines):
        raise WrongOutput("no completion printed")
    C = parse_delta(lines[first + 1], size, size)
    if any(v is None for v in C):
        raise WrongOutput("the first completion is not a full matrix")
    for j, v in enumerate(C, start=1):
        if not _shift_ok(j, v, l) or (P[j - 1] is not None and P[j - 1] != v):
            raise WrongOutput(f"completion column {j} disagrees with P or the shift law")
    # outputs from Galois state z and from window T'(z) agree over the
    # preperiod, the period and one more window
    top = 1 << (n - 1)
    whalf = size >> 1
    tail, period = orbits(nxt)
    for u in range(1 << n):
        z = u
        w = window[(1 << n) - u - 1]
        for _ in range(tail[u] + period[u] + l):
            if (z >= top) != (w <= whalf):
                raise WrongOutput(f"Galois state {(1 << n) - u} and window {w} diverge")
            z = nxt[z]
            w = C[w - 1]
    return {"l": l}


def check_verify(rc: int, out: str, n: int, equivalent: bool) -> dict:
    """`verify`: verdict line, exit code and one map line per state."""
    if rc == 2:
        return {}
    lines = out.splitlines()
    verdict = lines[0] if lines else ""
    if verdict != ("equivalent" if equivalent else "not equivalent"):
        raise WrongOutput(f"verdict {verdict!r}, expected equivalent={equivalent}")
    if rc != (0 if equivalent else 1):
        raise WrongOutput(f"exit code {rc} with verdict {verdict!r}")
    if len(lines) != 1 + 2 * (1 << n):
        raise WrongOutput(f"{len(lines) - 1} map lines for {2 * (1 << n)} states")
    return {}
