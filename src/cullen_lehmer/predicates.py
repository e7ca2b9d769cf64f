"""Arithmetical predicates over factored values: the Lehmer property,
Korselt's criterion, and the exact totient ratio.

Every predicate takes an explicit factorization rather than factoring
internally, so effort budgets stay in the factoring engine and cached
factorizations are reused for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cullen import cullen
from .factoring import COMPLETE, Factorization, euler_phi


@dataclass(frozen=True)
class RatioReport:
    """phi(C(n)) / gcd(C(n)-1, phi(C(n))) held exactly; 1 iff phi | C(n)-1."""

    n: int
    phi: int
    gcd_value: int
    ratio: Fraction

    def __post_init__(self):
        if self.ratio < 1:
            raise ValueError("ratio below 1 is arithmetically impossible")


def _require_complete(f: Factorization, N: int) -> None:
    if f.status != COMPLETE:
        raise ValueError("predicate needs a complete factorization")
    if f.value != N:
        raise ValueError(f"factorization is of {f.value}, not {N}")


def _composite_from_complete(f: Factorization) -> bool:
    return not (len(f.factors) == 1 and f.factors[0][1] == 1)


def is_lehmer(N: int, f: Factorization) -> bool:
    """True iff N is composite and phi(N) divides N-1.  No such N is known."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    _require_complete(f, N)
    if not _composite_from_complete(f):
        return False
    return (N - 1) % euler_phi(f) == 0


def is_carmichael(N: int, f: Factorization) -> bool:
    """Korselt's criterion: composite, squarefree, and p-1 | N-1 for every
    prime p dividing N."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    _require_complete(f, N)
    if not _composite_from_complete(f):
        return False
    if any(k > 1 for _, k in f.factors):
        return False
    return all((N - 1) % (p - 1) == 0 for p, _ in f.factors)


def lehmer_ratio(n: int, f: Factorization) -> RatioReport:
    """Exact phi(C(n)) / gcd(C(n)-1, phi(C(n))).

    Equals 1 exactly when phi | C(n)-1, which for a Cullen number means
    C(n) is prime; for composite C(n) the ratio is strictly above 1.
    """
    c = cullen(n)
    _require_complete(f, c.value)
    phi = euler_phi(f)
    g = gcd(c.value - 1, phi)
    return RatioReport(n=n, phi=phi, gcd_value=g, ratio=Fraction(phi, g))
