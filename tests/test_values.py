"""The value semantics of fsrkit's immutable result and node classes.

Every class compares by value within its own class, hashes, shows and
pickles all of its fields, prints as `Name(field=value, ...)`, refuses
assignment and deletion, takes its fields by keyword, holds them in slots
with no `__dict__`, and survives copy, deepcopy and pickle. A class with a
dict field, or a field that holds one, is unhashable: `FsrSpec`,
`PartialTransition`, `EquivalenceResult` and `MinStageResult`.
"""

import copy
import pickle

import pytest

from fsrkit.expr import And, BoolExpr, Const, Cost, Iff, Implies, Not, Or, Var, Xor
from fsrkit.fib2gal import (
    CountAudit,
    GaloisCandidate,
    PairClasses,
    Reduction,
    SelectedCandidate,
    count_distinct_equivalents,
)
from fsrkit.gal2fib import (
    EquivalenceResult,
    MinStageResult,
    OutputSeq,
    PartialTransition,
    equivalent,
    min_stage_fibonacci,
)
from fsrkit.stp import FsrSpec, PermutationTransform, StructureMatrix, TransitionMatrix

A, B = Var(1), Const(0)
L2 = TransitionMatrix(1, (2, 1))
T2 = PermutationTransform(1, (1, 2))
RED = Reduction(1, (1,), 1, 0, 0)
CAND = GaloisCandidate(L2, T2)
P = PartialTransition(2, {1: 1, 3: 2})

# class -> (its fields by keyword, other values for the same fields, repr)
CASES = {
    BoolExpr: ({}, None, "BoolExpr()"),
    Var: ({"index": 1}, {"index": 2}, "Var(index=1)"),
    Const: ({"value": 1}, {"value": 0}, "Const(value=1)"),
    Not: ({"child": A}, {"child": B}, "Not(child=Var(index=1))"),
    **{cls: ({"left": A, "right": B}, {"left": B, "right": A},
             f"{cls.__name__}(left=Var(index=1), right=Const(value=0))")
       for cls in (And, Or, Xor, Implies, Iff)},
    Cost: ({"area": 50, "delay_ps": 87, "gate_count": 1},
           {"area": 50, "delay_ps": 87, "gate_count": 2},
           "Cost(area=50, delay_ps=87, gate_count=1)"),
    StructureMatrix: ({"n": 1, "rows": (1, 2)}, {"n": 1, "rows": (2, 2)},
                      "StructureMatrix(n=1, rows=(1, 2))"),
    TransitionMatrix: ({"n": 1, "cols": (1, 2)}, {"n": 1, "cols": (2, 1)},
                       "TransitionMatrix(n=1, cols=(1, 2))"),
    PermutationTransform: ({"n": 1, "perm": (1, 2)}, {"n": 1, "perm": (2, 1)},
                           "PermutationTransform(n=1, perm=(1, 2))"),
    FsrSpec: ({"n": 1, "kind": "galois", "tables": {1: 1}},
              {"n": 1, "kind": "galois", "tables": {1: 2}},
              "FsrSpec(n=1, kind='galois', tables={1: 1})"),
    PairClasses: ({"s11": ((1, 1),), "s10": (), "s01": (), "s00": ((2, 2),)},
                  {"s11": (), "s10": ((1, 2),), "s01": ((2, 1),), "s00": ()},
                  "PairClasses(s11=((1, 1),), s10=(), s01=(), s00=((2, 2),))"),
    GaloisCandidate: ({"matrix": L2, "transform": T2},
                      {"matrix": TransitionMatrix(1, (1, 1)), "transform": T2},
                      "GaloisCandidate(matrix=TransitionMatrix(n=1, cols=(2, 1)), "
                      "transform=PermutationTransform(n=1, perm=(1, 2)))"),
    CountAudit: ({"permutations": 4, "distinct_galois": 3},
                 {"permutations": 4, "distinct_galois": 2},
                 "CountAudit(permutations=4, distinct_galois=3)"),
    Reduction: ({"n": 1, "anfs": (1,), "support_sum": 1, "area": 0, "gate_count": 0},
                {"n": 1, "anfs": (2,), "support_sum": 1, "area": 0, "gate_count": 0},
                "Reduction(n=1, anfs=(1,), support_sum=1, area=0, gate_count=0)"),
    SelectedCandidate: ({"candidate": CAND, "reduction": RED},
                        {"candidate": CAND, "reduction": Reduction(1, (2,), 1, 0, 0)},
                        "SelectedCandidate(candidate=GaloisCandidate(matrix=TransitionMatrix("
                        "n=1, cols=(2, 1)), transform=PermutationTransform(n=1, perm=(1, 2))), "
                        "reduction=Reduction(n=1, anfs=(1,), support_sum=1, area=0, "
                        "gate_count=0))"),
    OutputSeq: ({"preperiod": (1,), "period": (0,)}, {"preperiod": (), "period": (0,)},
                "OutputSeq(preperiod=(1,), period=(0,))"),
    PartialTransition: ({"n": 2, "fixed": {1: 1, 3: 2}}, {"n": 2, "fixed": {1: 2}},
                        "PartialTransition(n=2, fixed={1: 1, 3: 2})"),
    MinStageResult: ({"l": 2, "partial": P, "window_map": (1, 3), "matrix": L2},
                     {"l": 2, "partial": P, "window_map": (1, 3), "matrix": TransitionMatrix(1, (1, 1))},
                     "MinStageResult(l=2, partial=PartialTransition(n=2, fixed={1: 1, 3: 2}), "
                     "window_map=(1, 3), matrix=TransitionMatrix(n=1, cols=(2, 1)))"),
    EquivalenceResult: ({"equal": True, "forward": {1: 1}, "backward": {1: 1}},
                        {"equal": True, "forward": {1: None}, "backward": {1: 1}},
                        "EquivalenceResult(equal=True, forward={1: 1}, backward={1: 1})"),
}
# classes whose instances share field values with another class's
TWINS = {
    Var: Const, Const: Var,
    **{cls: next(o for o in (Xor, And) if o is not cls) for cls in (And, Or, Xor, Implies, Iff)},
    StructureMatrix: TransitionMatrix, TransitionMatrix: PermutationTransform,
    PermutationTransform: StructureMatrix,
}
UNHASHABLE = {FsrSpec, PartialTransition, EquivalenceResult, MinStageResult}


def test_every_value_class_is_covered():
    assert len(CASES) == 23


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_semantics(cls):
    kwargs, other, text = CASES[cls]
    a = cls(**kwargs)
    b = cls(*kwargs.values())
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    if other is not None:
        c = cls(**other)
        assert a != c and not a == c
    assert a != object()
    assert not hasattr(a, "__dict__")
    if cls in TWINS:
        twin = TWINS[cls](*kwargs.values())
        assert a != twin and twin != a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in [*kwargs, "other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == text
    for made in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(made) is cls and made == a and repr(made) == text


def test_field_options():
    # no field is left out of the hash: a dict field, or a field that
    # holds one, makes the value unhashable
    L = TransitionMatrix(2, (1, 3, 2, 4))
    result = min_stage_fibonacci(L)
    for value in (FsrSpec(1, "galois", {1: 1}), result, result.partial, equivalent(L, L)):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)


def test_trusted_constructors_make_equal_values():
    cols = (3, 1, 4, 2)
    assert TransitionMatrix._trusted(2, cols) == TransitionMatrix(2, cols)
    assert hash(TransitionMatrix._trusted(2, cols)) == hash(TransitionMatrix(2, cols))
    assert repr(TransitionMatrix._trusted(2, cols)) == "TransitionMatrix(n=2, cols=(3, 1, 4, 2))"
    assert OutputSeq._trusted((1,), (0,)) == OutputSeq((1,), (0,))


def test_views_survive_a_copy():
    audit = count_distinct_equivalents(TransitionMatrix(2, (1, 3, 2, 4)))
    assert copy.deepcopy(audit) == audit
    red = copy.deepcopy(RED)
    assert red.supports == ((1,),) and red == RED
    assert copy.copy(P).free_columns == (2, 4)
