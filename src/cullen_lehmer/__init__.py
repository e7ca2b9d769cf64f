"""Verifiable proof machinery for the fact that no Cullen number
n*2^n + 1 is composite with phi dividing its predecessor, plus scan tools
for the neighboring open questions (Carmichael Cullen numbers and the
totient ratio phi(C(n)) / gcd(C(n)-1, phi(C(n)))).
"""

from .cullen import CullenNumber, cullen, odd_divisors, v2
from .errors import BudgetError, FalsificationError, PrecisionError
from .factoring import (
    COMPLETE,
    DEFAULT_BUDGET,
    PARTIAL,
    VERDICT_PRIME,
    VERDICT_SQUAREFREE,
    VERDICT_STRUCTURAL,
    VERDICT_TOTIENT,
    CacheEntry,
    FactorBudget,
    FactorCache,
    Factorization,
    LehmerSearchResult,
    WorkCounter,
    euler_phi,
    extend_factorization,
    general_factor,
    lehmer_constrained_factor,
)
from .predicates import RatioReport, is_carmichael, is_lehmer, lehmer_ratio
from .primality import (
    COMPOSITE,
    NOT_PRIME,
    PRIME,
    PROBABLE_PRIME,
    FermatStatus,
    PrimalityVerdict,
    StructuredPrime,
    fermat_status,
    is_prime,
    proth_test,
)
from .verifier import (
    AExpression,
    BoundCascade,
    CascadeStage,
    KUpper,
    PigeonholePair,
    TwoThreeProductBound,
    a_expression,
    cascade_verify,
    divisibility_check,
    fermat_binary_obstruction,
    k_lower,
    k_upper,
    pigeonhole_pair,
    two_three_product_bound,
)

__version__ = "0.1.0"
