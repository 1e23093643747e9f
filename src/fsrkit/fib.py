"""Fibonacci-specific transition-matrix law: construction, recognition, inversion.

For a shift-with-feedback system the transition matrix is forced by the
feedback's structure matrix. `_shift_bases` states that law once, for both
directions of the transformation.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

from .stp import StructureMatrix, TransitionMatrix


def _shift_bases(n: int) -> Iterator[int]:
    """Per-column base of the shift law, in column order: column j of an
    n-stage Fibonacci matrix is base_j + 1 where the feedback is 1 and
    base_j + 2 where it is 0, with base_j = 2 * ((j - 1) mod 2^(n-1)).

    The shift drops the first register, so states j and 2^(n-1) + j share
    their successors.
    """
    bases = range(0, 2 << (n - 1), 2)
    return itertools.chain(bases, bases)


def _least_columns(n: int) -> list[int]:
    """Columns of the least n-stage Fibonacci matrix, the one whose feedback
    is 1 everywhere: base_j + 1 of `_shift_bases`, built in one C-level pass
    as the odd numbers below 2^n, twice."""
    return list(range(1, 1 << n, 2)) * 2


def fib_transition(M_f: StructureMatrix) -> TransitionMatrix:
    """Transition matrix of the Fibonacci FSR with feedback structure M_f."""
    return TransitionMatrix(M_f.n, tuple(map(operator.add, _shift_bases(M_f.n), M_f.rows)))


def is_fibonacci(L: TransitionMatrix) -> bool:
    """True iff every column obeys the shift law."""
    return {1, 2}.issuperset(map(operator.sub, L.cols, _shift_bases(L.n)))


def feedback_of(L: TransitionMatrix) -> StructureMatrix:
    """Recover the feedback structure matrix; rejects non-Fibonacci input."""
    rows = tuple(map(operator.sub, L.cols, _shift_bases(L.n)))
    if not {1, 2}.issuperset(rows):
        raise ValueError("transition matrix does not satisfy the Fibonacci law")
    return StructureMatrix(L.n, rows)
