"""Verifiable proof machinery for the fact that no Cullen number
n*2^n + 1 is composite with phi dividing its predecessor, plus scan tools
for the neighboring open questions (Carmichael Cullen numbers and the
totient ratio phi(C(n)) / gcd(C(n)-1, phi(C(n)))).

The row path (cullen, primality, factoring, predicates) is imported here.
The verifier's names are lazy: k_upper, k_lower, pigeonhole_pair,
a_expression, divisibility_check, fermat_binary_obstruction,
two_three_product_bound and cascade_verify, with their records KUpper,
PigeonholePair, AExpression, TwoThreeProductBound, CascadeStage and
BoundCascade.  The first access to one imports verifier, and with it
certified and mpmath, so a row command never loads the proof layer.
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

_VERIFIER_NAMES = frozenset({
    "AExpression", "BoundCascade", "CascadeStage", "KUpper", "PigeonholePair",
    "TwoThreeProductBound", "a_expression", "cascade_verify", "divisibility_check",
    "fermat_binary_obstruction", "k_lower", "k_upper", "pigeonhole_pair",
    "two_three_product_bound",
})


def __getattr__(name: str):
    """Serve a verifier name, importing the proof layer on first use."""
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_VERIFIER_NAMES})


__version__ = "0.1.0"
