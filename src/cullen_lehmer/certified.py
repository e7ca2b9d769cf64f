"""Directed-rounding arithmetic for the bound verifier.

Real-valued claims ("this quantity is strictly below that one") are decided
on interval enclosures from mpmath's interval context, never on bare
floats; exact rationals are enclosed before any comparison so no conversion
can round across a boundary.  Series tails are bounded with exact Fraction
arithmetic.  A comparison that stays ambiguous after precision escalation
raises instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import iv
from mpmath.libmp import to_int

from .errors import PrecisionError

iv.dps = 60
_ESCALATION_DPS = (60, 120, 240)
_MID_DIGITS = 12  # fmt's significant digits
_BOUND_DIGITS = 17  # bounds_str's significant digits per endpoint
_EXP_TERMS = 40  # Taylor terms exp_upper sums before its tail bound

Exact = int | Fraction


def enclose(x):
    """Interval enclosure of an int, Fraction, or existing interval."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    if isinstance(x, int):
        return iv.mpf(x)
    return x  # already an interval


def ln_i(x):
    return iv.log(enclose(x))


def sqrt_i(x):
    return iv.sqrt(enclose(x))


def surely_lt(x, y) -> bool:
    """True only when every point of x is below every point of y."""
    return enclose(x).b < enclose(y).a


def surely_gt(x, y) -> bool:
    return enclose(y).b < enclose(x).a


def surely_le(x, y) -> bool:
    return enclose(x).b <= enclose(y).a


def within(x, target: Exact, tol: Exact) -> bool:
    """Certified |x - target| <= tol (slightly conservative: the whole
    enclosure of x must sit strictly inside the enclosed tolerance band)."""
    lo = enclose(Fraction(target) - Fraction(tol))
    hi = enclose(Fraction(target) + Fraction(tol))
    ex = enclose(x)
    return lo.b < ex.a and ex.b < hi.a


def int_endpoints(x, rounding: str) -> tuple[int, int]:
    """Both endpoints of the enclosure x rounded to integers, down ("f") or
    up ("c"), exactly: no float and no rounding to a context's precision."""
    lo, hi = x._mpi_
    return to_int(lo, rounding), to_int(hi, rounding)


def _round_certified(builder: Callable[[], object], rounding: str) -> tuple[int, object]:
    """Evaluate builder at escalating precision until both endpoints of its
    enclosure round (int_endpoints) to the same integer.  Returns that
    integer and the enclosure it was read from."""
    saved = iv.dps
    try:
        for dps in _ESCALATION_DPS:
            iv.dps = dps
            x = builder()
            lo, hi = int_endpoints(x, rounding)
            if lo == hi:
                return lo, x
    finally:
        iv.dps = saved
    raise PrecisionError("enclosure still ambiguous at maximum precision")


def floor_certified(builder: Callable[[], object]) -> tuple[int, object]:
    """floor of the real number enclosed by builder(), certified by the
    two endpoints flooring identically, and the enclosure that certified it."""
    return _round_certified(builder, "f")


def ceil_certified(builder: Callable[[], object]) -> tuple[int, object]:
    """ceil of the real number enclosed by builder(), and the enclosure that
    certified it."""
    return _round_certified(builder, "c")


def fmt(x) -> str:
    """Deterministic human-readable form of an enclosure's midpoint."""
    return mpmath.nstr(mpmath.mpf(x.mid), _MID_DIGITS)


def bounds_str(x) -> list[str]:
    """Deterministic [lower, upper] decimal strings of an enclosure."""
    return [mpmath.nstr(mpmath.mpf(end), _BOUND_DIGITS) for end in (x.a, x.b)]


def exp_upper(t: Fraction) -> Fraction:
    """Exact rational upper bound on e^t for 0 <= t < 1.

    Taylor series to _EXP_TERMS terms plus the geometric tail bound
    t^terms/terms! * 1/(1-t), valid as successive term ratios are <= t < 1.
    """
    if not 0 <= t < 1:
        raise ValueError("exp_upper needs 0 <= t < 1")
    total, term = Fraction(0), Fraction(1)
    for k in range(_EXP_TERMS):
        total += term
        term = term * t / (k + 1)
    return total + term / (1 - t)
