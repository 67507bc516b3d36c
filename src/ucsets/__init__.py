"""Union-closed set family analysis and verification toolkit.

Families live over universes of at most 64 elements, one machine word per
member set.  The package provides the core predicates and transforms
(closure, separation, frequency labeling), the witness constructions used
to certify member-count bounds (chains, minimal transversals, pattern
families, the counting audit), the threshold calculus, and deterministic
corpus generation with a full verification battery.
"""

from .bounds import (
    VERDICT_LEMMA,
    VERDICT_NOT_COVERED,
    VERDICT_SMALL_M,
    VERDICT_THEOREM,
    BoundReport,
    applicability,
    bound_report,
    closed_form_threshold,
    f_m,
    k_prime,
    verdict_for,
)
from .errors import (
    CapacityError,
    ContradictionError,
    DomainError,
    FamilyParseError,
    PreconditionError,
)
from .family import (
    MAX_UNIVERSE,
    SetFamily,
    drop_unused_elements,
    elements_of,
    family_from_masks,
    family_label,
    find_union_gap,
    find_unseparated_pair,
    frankl_witnesses,
    is_separating,
    is_union_closed,
    make_family,
    mask_of,
    separating_quotient,
    union_closure,
)
from .formats import (
    family_from_json_dict,
    family_to_json_dict,
    family_to_text,
    parse_family_json,
    parse_family_text,
    to_json,
)
from .search import (
    CorpusReport,
    corpus_verify,
    enumerate_union_closed,
    random_family,
    splitmix64,
)
from .witnesses import (
    ChainWitness,
    CountingAudit,
    TransversalReport,
    counting_audit,
    falgas_ravry_chain,
    minimal_transversal,
    verify_chain_witness,
    verify_transversal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityError",
    "ChainWitness",
    "ContradictionError",
    "CorpusReport",
    "CountingAudit",
    "DomainError",
    "FamilyParseError",
    "MAX_UNIVERSE",
    "PreconditionError",
    "SetFamily",
    "TransversalReport",
    "VERDICT_LEMMA",
    "VERDICT_NOT_COVERED",
    "VERDICT_SMALL_M",
    "VERDICT_THEOREM",
    "applicability",
    "bound_report",
    "closed_form_threshold",
    "corpus_verify",
    "counting_audit",
    "drop_unused_elements",
    "elements_of",
    "enumerate_union_closed",
    "f_m",
    "falgas_ravry_chain",
    "family_from_json_dict",
    "family_from_masks",
    "family_label",
    "family_to_json_dict",
    "family_to_text",
    "find_union_gap",
    "find_unseparated_pair",
    "frankl_witnesses",
    "is_separating",
    "is_union_closed",
    "k_prime",
    "make_family",
    "mask_of",
    "minimal_transversal",
    "parse_family_json",
    "parse_family_text",
    "random_family",
    "separating_quotient",
    "splitmix64",
    "to_json",
    "union_closure",
    "verdict_for",
    "verify_chain_witness",
    "verify_transversal",
]
