"""fsrkit: equivalence-preserving transformation of feedback shift registers
between Fibonacci and Galois configurations, with gate-cost minimization."""

from .expr import (
    And,
    BoolExpr,
    Const,
    Cost,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    Xor,
    anf_to_expr,
    gate_cost,
    parse,
    render,
)
from .stp import (
    FsrSpec,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    coordinate_structure,
    decode_state,
    encode_state,
    format_delta,
    galois_transition,
    output_bit,
    parse_delta,
    restrict_support,
    structure_matrix,
    synthesize_expr,
    transition_from_delta,
    transition_to_delta,
)
from .fib import feedback_of, fib_transition, is_fibonacci
from .fib2gal import (
    CountAudit,
    GaloisCandidate,
    PairClasses,
    SelectedCandidate,
    classify_pairs,
    conjugate,
    count_distinct_equivalents,
    enumerate_equivalents,
    partition_permutations,
    select_minimal,
)
from .gal2fib import (
    EquivalenceResult,
    MinStageResult,
    OutputSeq,
    PartialTransition,
    all_output_sequences,
    derived_digraph,
    equivalent,
    min_stage_fibonacci,
    min_stage_galois,
    normalize_sequence,
    output_sequence,
    realizable,
    simulate,
)

__version__ = "0.1.0"
