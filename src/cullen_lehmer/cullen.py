"""Cullen numbers and the elementary divisor utilities built on them.

A Cullen number is C(n) = n*2^n + 1.  Writing n = 2^alpha * n1 with n1 odd
gives the second normal form C(n) = n1 * 2^n2 + 1 with n2 = n + alpha; that
is the shape the Proth certificate and the structured factor search use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def v2(x: int) -> int:
    """2-adic valuation of a positive integer."""
    if x < 1:
        raise ValueError(f"v2 needs a positive integer, got {x}")
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class CullenNumber:
    """C(n) = n*2^n + 1, held as its index n alone: the 2-adic
    decomposition is read off n, and the value is built on first use."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"index must be positive, got {self.n}")

    @property
    def alpha(self) -> int:
        return v2(self.n)

    @property
    def n1(self) -> int:
        """Odd part of n."""
        return self.n >> self.alpha

    @property
    def n2(self) -> int:
        """n + alpha, so value = n1 * 2^n2 + 1."""
        return self.n + self.alpha

    @cached_property
    def value(self) -> int:
        return self.n * (1 << self.n) + 1


def cullen(n: int) -> CullenNumber:
    """C(n) = n*2^n + 1 for an index n >= 1."""
    return CullenNumber(n)


def odd_divisors(n: int) -> list[int]:
    """All odd divisors of n, ascending and duplicate-free.

    Enumerates from the factorization of the odd part of n instead of
    scanning every candidate; n here is always an index (at most
    factoring.MAX_INDEX = 10^7 from the row commands), never a Cullen
    value, so trial division by the odd d <= sqrt(n) is cheap.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n >> v2(n)
    divs = [1]
    d = 3
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            divs = [q * d**k for q in divs for k in range(e + 1)]
        d += 2
    if m > 1:
        divs = divs + [q * m for q in divs]
    return sorted(divs)

