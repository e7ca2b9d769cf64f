"""Primality testing and generators for the special prime shapes.

Verdicts are deterministic wherever the pipeline needs them to be: a fixed
Miller-Rabin witness set decides everything below DETERMINISTIC_LIMIT
(comfortably above 2^64), and Proth certificates decide the k*2^e + 1 forms
of any size.  Above the limit the general test is Baillie-PSW (Miller-Rabin
to base 2, then a strong Lucas test); only it can return "probable_prime",
and nothing in the theorem pipeline depends on that verdict.

From SPECIAL_FORM_BITS on, exponentiations modulo a divisor of some
k*2^s + 1 with small k (a Cullen number and its cofactors) reduce modulo
that special form instead of dividing, and a value that no prime below
2000 divides is screened by the primes below 10^5 with one more gcd before
any exponentiation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .cullen import v2
from .errors import BudgetError, FalsificationError

PRIME = "prime"
COMPOSITE = "composite"
PROBABLE_PRIME = "probable_prime"
NOT_PRIME = "not_prime"  # 0 and 1: neither prime nor composite

# The 13-base Miller-Rabin test is a proven deterministic primality test
# below this bound (Sorenson & Webster), which is well above 2^64.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PROTH_BASE_CAP = 64

# Bit length of the modulus from which the special-form reduction beats the
# builtin pow on a Proth exponentiation (0.88x at 409 bits, 1.05x at 509,
# 1.2x at 610, 1.6x at 1010, 4.5x at 5013; 2 vCPUs, CPython 3.11.7, no
# gmpy2), and from which a second gcd, with the primes below 10^5, screens a
# value before any exponentiation.
SPECIAL_FORM_BITS = 600


@lru_cache(maxsize=4)
def _sieve(limit: int) -> tuple[int, ...]:
    """Primes up to and including limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(compress(range(limit + 1), flags))


SMALL_PRIMES = _sieve(2000)  # 303 primes: the Proth bases, and _small_factor's below 600 bits


def _pairwise_product(values: Iterable[int]) -> int:
    """Product of values, multiplied pairwise, so that each product joins
    operands of about equal size and Karatsuba applies, where one value at
    a time onto a growing product costs time quadratic in its length."""
    level = list(values)
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return prod(level)


@lru_cache(maxsize=4)
def _prime_product(bound: int) -> int:
    """Product of the primes up to bound, built on first use: 2.8 kbit for
    2000, 14 kbit for 10^4, 141 kbit for 10^5.  Pairwise, it takes 7 ms
    against 22 ms one prime at a time for 10^5 (2 vCPUs, CPython 3.11.7,
    no gmpy2)."""
    return _pairwise_product(_sieve(bound))


def _small_prime_divisors(N: int, bound: int) -> Iterator[int]:
    """The primes up to bound that divide N > 0, ascending.

    One gcd with _prime_product(bound) finds them all (about 0.3 ms at 600
    bits and 2 ms at 7000 bits for bound 10^5); they are then read off the
    squarefree gcd alone, and the scan stops once it is used up."""
    g = gcd(N, _prime_product(bound))
    for p in _sieve(bound):
        if g == 1:
            return
        if g % p == 0:
            g //= p
            yield p


def _small_factor(N: int) -> int | None:
    """The least prime p < N dividing N >= 2 among the primes up to 2000
    or, from SPECIAL_FORM_BITS on, up to 10^5; None if there is none.
    is_prime, and the search before a Proth test on C(n), screen by it
    before any exponentiation.  The 2.8-kbit product of the primes up to
    2000 is tried first, so a value with such a factor never pays the
    141-kbit gcd."""
    p = next(_small_prime_divisors(N, 2000), N)
    if p == N and N.bit_length() >= SPECIAL_FORM_BITS:
        p = next(_small_prime_divisors(N, 100_000), N)
    return p if p < N else None


def _proth_pow(a: int, e: int, k: int, s: int) -> int:
    """a^e mod M for M = k*2^s + 1 (k, s >= 1, e >= 0), with no division by M.

    A product x <= (M-1)^2 splits as x = h*2^s + l with l < 2^s and
    h = q*k + t with t < k.  Since k*2^s = -1 (mod M), x = t*2^s + l - q
    (mod M), and that residue lies in [-(M-1), M-2] because q <= M-1, so
    one addition of M corrects a negative one.  Each step costs a product
    and a division by the small k; the builtin pow divides by M instead.
    This is the special-form reduction of Crandall & Pomerance, Prime
    Numbers: A Computational Perspective, section 9.2.3.
    """
    M = (k << s) + 1
    mask = (1 << s) - 1

    def reduce(x: int) -> int:
        q, t = divmod(x >> s, k)
        r = (x & mask) + (t << s) - q
        return r + M if r < 0 else r

    a %= M
    x = 1
    for bit in bin(e)[2:]:
        x = reduce(x * x)
        if bit == "1":
            x = reduce(x * a)
    return x


def _power(a: int, e: int, N: int, within: tuple[int, int] | None) -> int:
    """a^e mod N: by _proth_pow modulo M = k*2^s + 1 when within = (k, s),
    N divides M and N has SPECIAL_FORM_BITS or more, by pow otherwise.
    The one place that chooses the power routine."""
    if within is None or N.bit_length() < SPECIAL_FORM_BITS:
        return pow(a, e, N)
    return _proth_pow(a, e, *within) % N


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test with the evidence that produced it.

    method records the regime ("trial", "deterministic-mr", "proth",
    "probabilistic-mr", the last being Baillie-PSW); witness is a Proth
    certificate base or the Miller-Rabin base that exposed compositeness
    (None when the strong Lucas test did); factor is a nontrivial divisor
    when one was found.
    """

    value: int
    status: str
    method: str
    witness: int | None = None
    factor: int | None = None

    def __post_init__(self):
        if self.status not in (PRIME, COMPOSITE, PROBABLE_PRIME, NOT_PRIME):
            raise ValueError(f"unknown status {self.status!r}")
        if self.factor is not None:
            if not (1 < self.factor < self.value) or self.value % self.factor:
                raise ValueError(f"{self.factor} is not a nontrivial divisor of {self.value}")

    @property
    def is_prime(self) -> bool:
        return self.status == PRIME

    @property
    def is_composite(self) -> bool:
        return self.status == COMPOSITE

    @property
    def probably_prime(self) -> bool:
        return self.status in (PRIME, PROBABLE_PRIME)


def _mr_composite_witness(
    a: int, d: int, s: int, n: int, within: tuple[int, int] | None = None
) -> bool:
    """True when base a proves n composite (n odd, n-1 = d*2^s, d odd).

    With within = (k, t), n divides M = k*2^t + 1 and _power may take each
    power modulo M, reducing it modulo n for the comparisons with 1 and
    n-1; the squarings stay correct modulo n since n divides M."""
    x = _power(a, d, n, within)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = _power(x, 2, n, within)
        if x == n - 1:
            return False
    return True


def is_prime(N: int, *, within: tuple[int, int] | None = None) -> PrimalityVerdict:
    """Primality verdict for N >= 0.

    Deterministic below DETERMINISTIC_LIMIT via the fixed witness set;
    above it, Baillie-PSW, reported as method "probabilistic-mr":
    Miller-Rabin to base 2 (witness 2 when it finds N composite), then
    _strong_lucas_prp (witness None), and probable_prime at best.  No
    composite is known to pass both.
    From SPECIAL_FORM_BITS on, the primes below 10^5 are screened by one
    gcd first; a hit is a "trial" verdict with that prime as the factor.

    within = (k, s) states that N divides M = k*2^s + 1, and a ValueError
    is raised when it does not.  It changes no verdict, only the cost: from
    SPECIAL_FORM_BITS on, Miller-Rabin exponentiates modulo M in special
    form; the Lucas test reduces modulo N.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if within is not None:
        k, t = within
        M = (k << t) + 1
        if k < 1 or t < 1 or N == 0 or M % N:
            raise ValueError(f"N ({N.bit_length()} bits) does not divide {k}*2^{t}+1")
    if N < 2:
        return PrimalityVerdict(N, NOT_PRIME, "trial")
    p = _small_factor(N)
    if p is not None:
        return PrimalityVerdict(N, COMPOSITE, "trial", factor=p)
    if N < SMALL_PRIMES[-1] ** 2:
        return PrimalityVerdict(N, PRIME, "trial")

    d, s = N - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if N < DETERMINISTIC_LIMIT:
        for a in _MR_BASES:
            if _mr_composite_witness(a, d, s, N):
                return PrimalityVerdict(N, COMPOSITE, "deterministic-mr", witness=a)
        return PrimalityVerdict(N, PRIME, "deterministic-mr")
    if _mr_composite_witness(2, d, s, N, within):
        return PrimalityVerdict(N, COMPOSITE, "probabilistic-mr", witness=2)
    if not _strong_lucas_prp(N):
        return PrimalityVerdict(N, COMPOSITE, "probabilistic-mr")
    return PrimalityVerdict(N, PROBABLE_PRIME, "probabilistic-mr")


def _strong_lucas_prp(N: int) -> bool:
    """Strong Lucas probable-prime test of odd N > 2 with Selfridge's
    method A: D is the first of 5, -7, 9, -11, ... with (D/N) = -1, P = 1
    and Q = (1-D)/4.  With N+1 = d*2^s, d odd, N passes when U_d = 0 or
    V_(d*2^r) = 0 (mod N) for some 0 <= r < s.  Every odd prime passes;
    False proves N composite.  A perfect square is rejected first, since no
    D has (D/N) = -1 for it, and (D/N) = 0 with N not dividing D exposes a
    factor.  See Baillie & Wagstaff, "Lucas pseudoprimes", Math. Comp. 35
    (1980), and Pomerance, Selfridge & Wagstaff in the same volume.
    """
    if isqrt(N) ** 2 == N:
        return False
    D = 5
    while (symbol := _jacobi(D, N)) != -1:
        if symbol == 0 and D % N:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4

    def half(x: int) -> int:  # x/2 modulo the odd N
        x %= N
        return (x + N if x & 1 else x) >> 1

    s = v2(N + 1)
    # U_k, V_k and Q^k from k = 1 along the bits of d: doubling by
    # U_2k = U_k*V_k, V_2k = V_k^2 - 2Q^k; a step by 2U_(k+1) = U_k + V_k,
    # 2V_(k+1) = D*U_k + V_k (P = 1)
    U, V, Qk = 1, 1, Q % N
    for bit in bin((N + 1) >> s)[3:]:
        U, V, Qk = U * V % N, (V * V - 2 * Qk) % N, Qk * Qk % N
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % N
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % N
        if V == 0:
            return True
        Qk = Qk * Qk % N
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity: for a
    small a and a huge n the only multi-word step is the first n mod a."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def proth_test(n1: int, n2: int) -> PrimalityVerdict:
    """Certificate test for N = n1*2^n2 + 1 with n1 odd and n1 < 2^n2.

    A base a with a^((N-1)/2) = -1 (mod N) proves N prime.  Only bases with
    Jacobi symbol (a/N) = -1 are exponentiated: for a prime N, Euler's
    criterion gives +1 for the others, so the first base with (a/N) = -1 is
    the certificate, and for it any result other than -1 proves N
    composite; so does (a/N) = 0, since then a divides N.  Bases run over
    the first PROTH_BASE_CAP primes; if none of them has (a/N) = -1 the
    verdict falls back to is_prime (probable at best for huge N).  The
    power is taken by _power, in special form from SPECIAL_FORM_BITS on.
    """
    if n1 < 1 or n1 % 2 == 0:
        raise ValueError(f"n1 must be odd and positive, got {n1}")
    if n2 < 1:
        raise ValueError(f"n2 must be positive, got {n2}")
    if n1 >= (1 << n2):
        raise ValueError(f"Proth condition violated: {n1} >= 2^{n2}")
    N = (n1 << n2) + 1
    half = (N - 1) >> 1
    for a in SMALL_PRIMES[:PROTH_BASE_CAP]:
        if a % N == 0:  # only possible for tiny N
            continue
        symbol = _jacobi(a, N)
        if symbol == 1:
            continue
        if symbol == 0:  # a < N shares the prime a with N
            return PrimalityVerdict(N, COMPOSITE, "proth", witness=a)
        x = _power(a, half, N, (n1, n2))
        status = PRIME if x == N - 1 else COMPOSITE
        return PrimalityVerdict(N, status, "proth", witness=a)
    return is_prime(N, within=(n1, n2))


# A known factor of each composite Fermat number F_gamma = 2^2^gamma + 1
# with 2^gamma below 6*10^5, the exponents the bound cascade reaches;
# fermat_status rechecks it by gamma modular squarings on every call.
_FERMAT_FACTORS = {
    5: 641, 6: 274177, 7: 59649589127497217, 8: 1238926361552897, 9: 2424833,
    10: 45592577, 11: 319489, 12: 114689, 13: 2710954639361,
    14: 116928085873074369829035993834596371340386703423373313,
    15: 1214251009, 16: 825753601, 17: 31065037602817, 18: 13631489, 19: 70525124609,
}


@dataclass(frozen=True)
class FermatStatus:
    gamma: int
    status: str
    factor: int | None


def fermat_status(gamma: int) -> FermatStatus:
    """Prime/composite classification of F_gamma = 2^2^gamma + 1 for
    0 <= gamma <= 19, checked live on every call.

    gamma <= 4 is decided prime by the deterministic tester; 5..19 are
    composite from their factor p in _FERMAT_FACTORS, certified by
    1 < p < 2^2^gamma and 2^2^gamma = -1 (mod p).  A failed check raises
    FalsificationError.
    """
    if not 0 <= gamma <= max(_FERMAT_FACTORS):
        raise ValueError(f"gamma must be in 0..{max(_FERMAT_FACTORS)}, got {gamma}")
    if gamma <= 4:
        value = (1 << (1 << gamma)) + 1
        if not is_prime(value).is_prime:
            raise FalsificationError("fermat", f"F_{gamma} = {value} should be prime")
        return FermatStatus(gamma, PRIME, None)
    p = _FERMAT_FACTORS[gamma]
    if not (1 < p and p.bit_length() <= 1 << gamma and pow(2, 1 << gamma, p) == p - 1):
        raise FalsificationError("fermat", f"stored factor {p} does not divide F_{gamma}")
    return FermatStatus(gamma, COMPOSITE, p)


@dataclass(frozen=True)
class StructuredPrime:
    """A prime m*2^e + 1 with m odd: the only shape a prime factor of a
    totient-divides-predecessor Cullen number can have."""

    m: int
    e: int

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"m must be odd and positive, got {self.m}")
        if self.e < 1:
            raise ValueError(f"e must be positive, got {self.e}")

    @property
    def value(self) -> int:
        return (self.m << self.e) + 1


def structured_verdict(m: int, e: int) -> PrimalityVerdict:
    """Decisive verdict for m*2^e + 1 (m odd): Proth when the form
    qualifies, deterministic Miller-Rabin otherwise (m >= 2^e keeps the
    value small for every index this package handles)."""
    if m < (1 << e):
        verdict = proth_test(m, e)
    else:
        verdict = is_prime((m << e) + 1)
    if verdict.status == PROBABLE_PRIME:
        raise BudgetError(f"cannot certify primality of {m}*2^{e}+1")
    return verdict

