"""Cullen numbers and the elementary divisor utilities built on them.

A Cullen number is C(n) = n*2^n + 1.  Writing n = 2^alpha * n1 with n1 odd
gives the second normal form C(n) = n1 * 2^n2 + 1 with n2 = n + alpha; that
is the shape the Proth certificate and the structured factor search use.
"""

from __future__ import annotations

from dataclasses import dataclass


def v2(x: int) -> int:
    """2-adic valuation of a positive integer."""
    if x < 1:
        raise ValueError(f"v2 needs a positive integer, got {x}")
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class CullenNumber:
    """Index n together with its 2-adic decomposition and value."""

    n: int
    alpha: int  # v2(n)
    n1: int     # odd part of n
    n2: int     # n + alpha, so value = n1 * 2^n2 + 1
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"index must be positive, got {self.n}")
        if self.n1 % 2 == 0 or (self.n1 << self.alpha) != self.n:
            raise ValueError("broken 2-adic decomposition of the index")
        if self.n2 != self.n + self.alpha:
            raise ValueError("n2 must equal n + alpha")
        if self.value != self.n * (1 << self.n) + 1:
            raise ValueError("value does not equal n*2^n + 1")


def cullen(n: int) -> CullenNumber:
    """Build C(n) = n*2^n + 1 together with its index decomposition."""
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    alpha = v2(n)
    return CullenNumber(
        n=n,
        alpha=alpha,
        n1=n >> alpha,
        n2=n + alpha,
        value=n * (1 << n) + 1,
    )


def odd_divisors(n: int) -> list[int]:
    """All odd divisors of n, ascending and duplicate-free.

    Enumerates from the factorization of the odd part of n instead of
    scanning every candidate; n here is always an index (at most around
    10^6), never a Cullen value, so factoring it is cheap.
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

