"""Exact graded-isomorphism decisions for upper block triangular matrix algebras.

The objects: a finite group G, a graded division algebra D = K^sigma[H] for a
subgroup H <= G and a 2-cocycle sigma with root-of-unity values, and a graded
flag presented by block sizes and a degree tuple.  The algebra of flag
endomorphisms is G-graded upper block triangular; this package builds those
algebras exactly and decides graded isomorphism and equivalence, emitting
machine-checkable witnesses for YES and certificates for NO.
"""

from .algebras import (
    BasisElem,
    GradedAlgebra,
    GradedInvariants,
    GradingReport,
    check_grading,
    invariants,
    realize,
)
from .cocycles import (
    Cocycle,
    Corrector,
    cohomologous,
    is_corrector,
    transport,
    trivial_cocycle,
    validate_cocycle,
)
from .division import (
    GradedDivisionAlgebra,
    equiv_division,
    iso_division,
    pauli,
    shift_conjugate,
    trivial_division,
)
from .errors import (
    BudgetExceeded,
    FlagisoError,
    GroupMismatch,
    InvalidInput,
    UnsupportedInput,
)
from .groups import (
    Group,
    GroupElem,
    Subgroup,
    build_abelian,
    find_isomorphisms,
    left_coset,
    subgroup_closure,
    validate_table,
)
from .iso import (
    EQUIVALENT,
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_EQUIVALENT,
    NOT_ISOMORPHIC,
    Classification,
    EquivWitness,
    InvariantMismatch,
    IsoWitness,
    SearchExhausted,
    Verdict,
    WitnessReport,
    build_witness,
    canonical_form,
    classify,
    compose_witness,
    equiv_check,
    equiv_elementary,
    invert_witness,
    iso_algebras,
    iso_pairs,
    verify_equiv_witness,
    verify_witness,
)
from .modlinalg import solve_congruences
from .presentations import (
    BlockShape,
    FlagPresentation,
    make_presentation,
    shift_presentation,
)
from .tables import enumerate_classes

__version__ = "0.1.0"

__all__ = [
    "BasisElem",
    "BlockShape",
    "BudgetExceeded",
    "Classification",
    "Cocycle",
    "Corrector",
    "EQUIVALENT",
    "EquivWitness",
    "FlagPresentation",
    "FlagisoError",
    "GradedAlgebra",
    "GradedDivisionAlgebra",
    "GradedInvariants",
    "GradingReport",
    "Group",
    "GroupElem",
    "GroupMismatch",
    "INCONCLUSIVE",
    "ISOMORPHIC",
    "InvalidInput",
    "InvariantMismatch",
    "IsoWitness",
    "NOT_EQUIVALENT",
    "NOT_ISOMORPHIC",
    "SearchExhausted",
    "Subgroup",
    "UnsupportedInput",
    "Verdict",
    "WitnessReport",
    "build_abelian",
    "build_witness",
    "canonical_form",
    "check_grading",
    "classify",
    "cohomologous",
    "compose_witness",
    "enumerate_classes",
    "equiv_check",
    "equiv_division",
    "equiv_elementary",
    "find_isomorphisms",
    "invariants",
    "invert_witness",
    "is_corrector",
    "iso_algebras",
    "iso_division",
    "iso_pairs",
    "left_coset",
    "make_presentation",
    "pauli",
    "realize",
    "shift_conjugate",
    "shift_presentation",
    "solve_congruences",
    "subgroup_closure",
    "transport",
    "trivial_cocycle",
    "trivial_division",
    "validate_cocycle",
    "validate_table",
    "verify_equiv_witness",
    "verify_witness",
]
