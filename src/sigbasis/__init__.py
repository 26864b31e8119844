"""Signature Groebner bases over monomial modules.

Library layout: ``monomials`` (orders, monoid action, common multiples),
``algebra`` (exact fields, sparse elements, bounded span oracles),
``sigcore`` (sigpairs, prebases, regular reduction), ``critical`` (critical
signatures and the pending queue), ``engine`` (the strategy loop, sigtrees,
certificate, exports), ``verify`` (Buchberger oracle and bounded checks),
``systems`` (builtin benchmarks), ``cli`` (problem files and flags).
"""

from .algebra import (
    Context,
    Element,
    PrimeField,
    RationalField,
    bounded_span_pivots,
)
from .critical import CriticalQueue, critical_pair_signatures, critical_set, queue_update
from .engine import (
    RunResult,
    SigTree,
    Strategy,
    export_dot,
    faugere_certificate,
    rewrite_basis_at,
    run,
    validate_sigtree,
)
from .errors import (
    CertificateError,
    ContractError,
    LimitExceeded,
    ParseError,
    SigbasisError,
    StructureError,
)
from .monomials import (
    Monomial,
    MonoidSpec,
    ModuleOrder,
    ScalarOrder,
    ZERO,
    divide,
    minimal_common_multiples,
)
from .sigcore import (
    SigPair,
    SigSet,
    classify_signature,
    dominates,
    find_regular_reducer,
    make_prebasis_shifted,
    make_prebasis_sum,
    make_prebasis_unshifted,
    syzygy_signatures,
)
from .verify import (
    GroebnerBasis,
    bounded_signature_basis_check,
    bounded_syzygy_check,
    buchberger,
    is_groebner_basis,
    lm_ideal_equal,
)

__version__ = "0.1.0"
