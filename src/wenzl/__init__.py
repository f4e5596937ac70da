"""Exact-arithmetic Temperley-Lieb engine at loop value -2.

Computes Jones-Wenzl projectors and their prime-indexed refinements over the
rationals and over prime fields, verifies the algebra they satisfy, and
cross-checks the construction against Kazhdan-Lusztig combinatorics of the
infinite dihedral group.
"""

from .padic import (
    AdmissibleExpansion,
    PAdicExpansion,
    PSupportData,
    admissible_expansion,
    father_chain,
    is_prime,
    lucas_jw_defined,
    p_adic_expansion,
    p_support,
    support_via_admissible,
)
from .rings import (
    FpElement,
    LaurentPoly,
    NonInvertible,
    NotPIntegral,
    PrimeFieldRing,
    QQ,
    RationalRing,
    p_valuation,
    reduce_mod_p,
    ring_by_name,
)
from .tl import (
    CrossinglessMatching,
    TLMorphism,
    catalan,
    compose,
    enumerate_basis,
    e_matching,
    identity_matching,
    markov_trace,
    matching,
    partial_close_right,
)
from .jw import (
    JWCache,
    GLOBAL_JW_CACHE,
    apply_jw,
    close_jw,
    jones_wenzl,
    lambda_closure_scalar,
    sandwich_test,
)
from .pjw import (
    Caches,
    GLOBAL_CACHES,
    PJWDecomposition,
    PJWIntegrityError,
    markov_closure,
    rational_pjw,
    reduce_pjw,
    verify_battery,
)
from .hecke import (
    HeckeElement,
    lemma_positivity_check,
    mul_b1_power,
    mul_by_generator,
    p_canonical,
)

__version__ = "0.1.0"
