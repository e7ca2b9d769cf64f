"""Mechanized verification of the quantitative steps behind the theorem
"no Cullen number C(n) = n*2^n + 1 is composite with phi(C(n)) | C(n)-1".

The argument being replayed, in outline: if some composite C(n) had the
property, C(n) would be squarefree with k distinct prime factors, every
factor of the structured shape m*2^e + 1 (m an odd divisor of n, e <= n).
Counting shapes forces k < 1 + 2.4*ln n.  A pigeonhole pair (u, v) of small
coprime integers with |u*n + v*e| small turns each factor into a divisor of
a nonzero expression of controlled size, so every factor is below
2^(6*sqrt(n ln n)) and hence k > sqrt(n)/(6*sqrt(ln n)).  The two k-bounds
cross below 6*10^5, and a cascade of sharper counts (Fermat-prime
classification, base-3 and base-5 shape counts, a published lower bound of
14 distinct prime factors for any totient-divides-predecessor number)
squeezes n down to the form 2^alpha * 3^beta, where the product of
(1 + 1/(p-1)) over all primes p = 2^a*3^b + 1 is certified below 2,
contradicting the integer ratio (C(n)-1)/phi(C(n)) >= 2.

Everything real-valued runs on interval enclosures (see certified.py);
everything discrete runs on exact integers and rationals.  "log" is the
natural logarithm throughout; the 2.4 constant only works because
1/ln 2 + 1/ln 3 = 2.3529... < 2.4.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .certified import (
    bounds_str,
    ceil_certified,
    enclose,
    exp_upper,
    floor_certified,
    fmt,
    int_endpoints,
    ln_i,
    sqrt_i,
    surely_gt,
    surely_le,
    surely_lt,
    within,
)
from .cullen import cullen
from .errors import FalsificationError
from .primality import DETERMINISTIC_LIMIT, PRIME, StructuredPrime, fermat_status, is_prime

# Published result consumed as an external constant (Cohen & Hagis): any
# composite m with phi(m) | m-1 has at least this many distinct prime factors.
MIN_DISTINCT_FACTORS = 14

# The bound usually quoted for the 2-3-smooth prime product; our certified
# enumeration shows the true value is near 1.93, so the quote is understated.
# The contradiction only ever needs "< 2".
CITED_PRODUCT_BOUND = Fraction(146, 100)

# ---------------------------------------------------------------------------
# k bounds


@dataclass(frozen=True)
class KUpper:
    """Upper bounds on the number of distinct prime factors k of a
    hypothetical counterexample C(n): the exact shape-count form
    1 + ln n/ln 2 + ln n/ln 3 and the simplified 1 + 2.4 ln n."""

    n: int
    exact: object      # interval
    simplified: object # interval


def k_upper(n: int) -> KUpper:
    """Both k upper bounds, with the guarantee exact <= simplified certified."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    log_n = ln_i(n)
    exact = 1 + log_n / ln_i(2) + log_n / ln_i(3)
    simplified = 1 + enclose(Fraction(12, 5)) * log_n
    if not surely_le(exact, simplified):
        raise FalsificationError(
            "k-upper",
            f"exact shape count bound exceeds 1 + 2.4 ln n at n = {n}",
        )
    return KUpper(n, exact, simplified)


def k_lower(n: int):
    """Certified enclosure of sqrt(n) / (6 sqrt(ln n)); its .a endpoint is a
    sound lower bound on k for any counterexample index n >= 30."""
    if n < 30:
        raise ValueError(f"the bound regime assumes n >= 30, got {n}")
    return sqrt_i(n) / (6 * sqrt_i(ln_i(n)))


# ---------------------------------------------------------------------------
# pigeonhole pair


@dataclass(frozen=True)
class PigeonholePair:
    """Coprime (u, v), u >= 0, with |u*n + v*np| small, from grid differences."""

    n: int
    np: int
    u: int
    v: int

    def __post_init__(self):
        if (self.u, self.v) == (0, 0):
            raise ValueError("(u, v) must be nonzero")
        if self.u < 0 or (self.u == 0 and self.v < 0):
            raise ValueError("sign normalization: u >= 0, and v > 0 when u = 0")
        if gcd(abs(self.u), abs(self.v)) != 1:
            raise ValueError("u and v must be coprime")

    @property
    def combo(self) -> int:
        """u*n + v*np."""
        return self.u * self.n + self.v * self.np


def pigeonhole_pair(n: int, np_: int) -> PigeonholePair:
    """Construct the small-combination pair for (n, np).

    The differences of two points of the grid 0..N x 0..N, with
    N = floor(sqrt(n / ln n)), are exactly the vectors with |u|, |v| <= N.
    So the pair is one minimum over that box, taken sign-normalized
    (u >= 0, and v > 0 when u = 0), of the key (|u*n + v*np|, u, |v|, v).
    The minimiser is primitive: dividing (u, v) by a common factor g > 1
    would shrink a nonzero |combo|, and at combo 0 it would shrink u, or |v|
    when u = 0, which the tie-break prefers.

    The minimum is walked over u alone.  For fixed u >= 1, |u*n + v*np| is
    convex in v with its real minimum at -u*n/np, so only v = floor(-u*n/np)
    and that value + 1, clamped to -N..N, can reach it; both are tried, so a
    tie at a half-integer still goes to the smaller (|v|, v).  For u = 0 the
    key is least at v = 1.

    N comes from _pair_limits, which certifies it once per index, so a walk
    over every np of one n builds its enclosures once.  The proof regime is
    n >= 30, where check_pair_bounds certifies both size bounds
    max(|u|, |v|) <= sqrt(n/ln n) and |combo| < 3*sqrt(n ln n); smaller n
    (down to 2) is allowed for worked examples with those checks skipped.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 so ln n > 0, got {n}")
    if not 1 <= np_ <= n:
        raise ValueError(f"np must be in 1..n, got {np_}")
    N, _ = _pair_limits(n)

    def nearest(u):
        # floor(-u*n/np) <= -u, so only the lower end of -N..N can clamp
        v = -u * n // np_
        return (max(v, -N), max(v + 1, -N)) if u else (1,)

    _, u, _, v = min(
        (abs(u * n + v * np_), u, abs(v), v) for u in range(N + 1) for v in nearest(u)
    )
    pair = PigeonholePair(n, np_, u, v)
    if n >= 30:
        check_pair_bounds(pair)
    return pair


# every caller walks one index at a time, so one entry is all that hits
@lru_cache(maxsize=1)
def _pair_limits(n: int) -> tuple[int, int]:
    """The pair's two size bounds at index n as integers (N, cap).

    N = floor(sqrt(n/ln n)) is certified by floor_certified, and cap is the
    exact ceiling of the lower endpoint a of the enclosure of
    3*sqrt(n ln n).  Comparing integers against them gives the same verdict
    as the certified comparisons against those enclosures: for an integer
    k, surely_le(k, box) is k <= box.a, which holds exactly when
    k <= floor(box.a) = N; for an integer c, surely_lt(c, bound) is c < a,
    which holds exactly when c < ceil(a) = cap.  No rounding happens per
    pair.
    """
    N, _ = floor_certified(lambda: sqrt_i(enclose(n) / ln_i(n)))
    bound = 3 * sqrt_i(enclose(n) * ln_i(n))
    return N, int_endpoints(bound, "c")[0]


def check_pair_bounds(pair: PigeonholePair) -> None:
    """Certify the two size bounds of a pair in the n >= 30 regime,
    max(|u|, |v|) <= sqrt(n/ln n) and |combo| < 3*sqrt(n ln n), as integer
    comparisons against _pair_limits(n).  Both checks run for every pair,
    although the walk in pigeonhole_pair already keeps u and |v| <= N."""
    N, cap = _pair_limits(pair.n)
    if max(abs(pair.u), abs(pair.v)) > N:
        raise FalsificationError(
            "pigeonhole",
            f"pair {pair} with combo {pair.combo} exceeds the sqrt(n/ln n) box bound",
        )
    if abs(pair.combo) >= cap:
        raise FalsificationError(
            "pigeonhole",
            f"pair {pair} with combo {pair.combo} violates |combo| < 3*sqrt(n ln n)",
        )


# ---------------------------------------------------------------------------
# the combined congruence expression


@dataclass(frozen=True)
class AExpression:
    """n^u * m_p^v * 2^(n*u + np*v) - (-1)^(u+v), held exactly.

    Any prime m_p*2^np + 1 dividing C(n) divides the numerator: raising
    n*2^n = -1 and m_p*2^np = -1 (mod p) to the powers u and v and
    multiplying gives the congruence directly.  The expression is nonzero
    for every legal input (a vanishing one forces C(n) itself to be the
    prime), and for n >= 30 its numerator stays below 2^(6*sqrt(n ln n)).
    """

    n: int
    m_p: int
    n_p: int
    u: int
    v: int
    value: Fraction
    numerator: int
    numerator_bound: int


def a_expression(n: int, m_p: int, n_p: int, u: int, v: int) -> AExpression:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m_p < 1 or m_p % 2 == 0 or n % m_p:
        raise ValueError(f"m_p must be an odd divisor of n, got {m_p}")
    if n_p < 1:
        raise ValueError(f"n_p must be positive, got {n_p}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if (u, v) == (0, 0):
        raise ValueError("(u, v) must be nonzero")
    sign = 1 if (u + v) % 2 == 0 else -1
    value = (
        Fraction(n) ** u
        * Fraction(m_p) ** v
        * Fraction(2) ** (n * u + n_p * v)
        - sign
    )
    if value == 0:
        raise FalsificationError(
            "a-expression",
            f"expression vanishes for (n, m_p, n_p, u, v) = "
            f"({n}, {m_p}, {n_p}, {u}, {v}); for legal inputs this forces "
            "C(n) to equal the structured prime itself",
        )
    numerator = value.numerator
    bound_exp, exp = ceil_certified(lambda: 6 * sqrt_i(enclose(n) * ln_i(n)))
    if n >= 30:
        _check_numerator_bound(numerator, n, exp)
    return AExpression(n=n, m_p=m_p, n_p=n_p, u=u, v=v, value=value,
                       numerator=numerator, numerator_bound=1 << bound_exp)


def _check_numerator_bound(numerator: int, n: int, exp) -> None:
    """Certify |numerator| < 2^(6*sqrt(n ln n)), exp being the enclosure of
    the exponent, via bit length against its endpoints; the in-between case
    compares exact log2."""
    bits = abs(numerator).bit_length()
    if surely_lt(bits, exp):  # |num| < 2^bits <= 2^exp
        return
    if surely_gt(bits - 1, exp):  # |num| >= 2^(bits-1) >= 2^exp
        raise FalsificationError(
            "a-expression",
            f"numerator with {bits} bits breaks the 2^(6 sqrt(n ln n)) bound at n = {n}",
        )
    log2_num = ln_i(abs(numerator)) / ln_i(2)
    if surely_lt(log2_num, exp):
        return
    raise FalsificationError(
        "a-expression",
        f"numerator bound check failed or stayed ambiguous at n = {n}",
    )


def divisibility_check(n: int, p: StructuredPrime, pair: PigeonholePair) -> bool:
    """Verify that p divides the numerator of the combined expression built
    from the pair.  This must hold whenever p divides C(n); a failure would
    falsify the congruence argument, so it raises rather than returning False.
    """
    c = cullen(n)
    if c.value % p.value:
        raise ValueError(f"{p.value} does not divide C({n})")
    if pair.n != n or pair.np != p.e:
        raise ValueError(f"pair {pair} was not built for (n, np) = ({n}, {p.e})")
    expr = a_expression(n, p.m, p.e, pair.u, pair.v)
    if expr.numerator % p.value:
        raise FalsificationError(
            "a-divisibility",
            f"{p.value} does not divide the numerator {expr.numerator} "
            f"for (n, u, v) = ({n}, {pair.u}, {pair.v})",
        )
    return True


# ---------------------------------------------------------------------------
# Fermat-only factorizations are blocked by binary carrying


def fermat_binary_obstruction(gammas) -> bool:
    """True iff prod(2^2^g + 1) over >= 2 distinct exponents has binary
    weight exactly 2^len(gammas).

    Expanding the product writes it as a sum of 2^(subset sums of distinct
    powers of two), all distinct, so the weight always exceeds the 2 ones a
    number 2^t + 1 has; a Cullen value can therefore never factor into two
    or more distinct Fermat primes.
    """
    gs = sorted(set(gammas))
    if len(gs) < 2:
        raise ValueError("need at least two distinct exponents")
    if gs[0] < 0:
        raise ValueError("exponents must be nonnegative")
    if gs[-1] > 24:
        raise ValueError("exponent above 24 would need a multi-megabyte product")
    product = 1
    for g in gs:
        product *= (1 << (1 << g)) + 1
    return product.bit_count() == 1 << len(gs)


# ---------------------------------------------------------------------------
# the 2-3-smooth prime product


@dataclass(frozen=True)
class TwoThreeProductBound:
    """Certified upper bound on prod(1 + 1/(p-1)) over all primes
    p = 2^a*3^b + 1 other than 2 and 3.

    partial_product is exact over the primes up to cap; tail_bound is an
    exact rational upper bound on the log of everything beyond, from the
    column-wise geometric series sum of 1/(2^a*3^b); total_upper is their
    certified combination.  exceeds_cited_bound flags that the enumeration
    contradicts the 1.46 often quoted for this product; only < 2 matters.
    """

    cap: int
    primes_used: tuple[int, ...]
    partial_product: Fraction
    tail_bound: Fraction
    total_upper: Fraction
    cited_bound = CITED_PRODUCT_BOUND

    @property
    def exceeds_cited_bound(self) -> bool:
        return self.partial_product > self.cited_bound

    @property
    def below_two(self) -> bool:
        return self.total_upper < 2


def two_three_product_bound(cap: int) -> TwoThreeProductBound:
    """Enumerate the product up to cap and bound the rest, in one walk over
    the 3-smooth s = 2^a*3^b, column by column in a.

    The meaningful regime is cap >= 1000 (total_upper drops below 2 there);
    caps down to 5 are accepted for worked examples and report whatever
    the arithmetic gives.
    """
    # below 5 the tail bound is at least 1 (2, 3/2 and 7/6 at caps 2, 3 and
    # 4), outside exp_upper's domain; above DETERMINISTIC_LIMIT is_prime
    # could only call a listed prime probable, and the walk would drop it
    if not 5 <= cap <= DETERMINISTIC_LIMIT:
        raise ValueError(f"need 5 <= cap <= {DETERMINISTIC_LIMIT}, got {cap}")
    # Each s <= cap-1 but 1 and 2 (whose s+1 are the excluded 2 and 3)
    # offers the prime s+1.  ln of the tail is sum of ln(1 + 1/s) <= sum of
    # 1/s over s > cap-1: from its first such s a column is geometric with
    # ratio 1/3, and the columns with 2^a already above cap-1 sum to a
    # geometric series in a.
    top = (cap - 1).bit_length() - 1  # floor(log2(cap-1))
    primes = []
    tail = Fraction(0)
    for a in range(top + 1):
        s = 1 << a
        while s <= cap - 1:
            if s > 2 and is_prime(s + 1).is_prime:
                primes.append(s + 1)
            s *= 3
        tail += Fraction(3, 2) / s
    tail += Fraction(3, 2) / (1 << top)
    primes.sort()
    partial = Fraction(1)
    for p in primes:
        partial *= Fraction(p, p - 1)

    # rounding the exact product up to 12 decimals keeps it a certified
    # upper bound while keeping reports readable
    exact_total = partial * exp_upper(tail)
    total = Fraction(-(-exact_total.numerator * 10**12 // exact_total.denominator), 10**12)
    return TwoThreeProductBound(
        cap=cap,
        primes_used=tuple(primes),
        partial_product=partial,
        tail_bound=tail,
        total_upper=total,
    )


# ---------------------------------------------------------------------------
# the bound cascade


@dataclass(frozen=True)
class CascadeStage:
    name: str
    claim: str
    data: dict
    passed: bool


@dataclass(frozen=True)
class BoundCascade:
    stages: tuple[CascadeStage, ...]
    product: TwoThreeProductBound

    @property
    def passed(self) -> bool:
        return all(stage.passed for stage in self.stages)

    @property
    def final_verdict(self) -> str:
        return "contradiction established" if self.passed else "FALSIFIED"


def _gap_monotone_from(n: int) -> bool:
    """Certify that sqrt(n)/(6 sqrt(ln n)) / (1 + 2.4 ln n) is increasing
    for all arguments >= n.

    The logarithmic derivative of the ratio is
    (1/2 - 1/(2 ln n) - 2.4/(1 + 2.4 ln n)) / n, and both subtracted terms
    shrink as n grows, so positivity of the bracket at n gives positivity
    beyond n.
    """
    L = ln_i(n)
    slope = enclose(Fraction(12, 5))
    bracket = enclose(Fraction(1, 2)) - 1 / (2 * L) - slope / (1 + slope * L)
    return surely_gt(bracket, 0)


def _log_ratio(x: int, base: int, shift: int = 0):
    """The certified floor of shift + ln x/ln base and the enclosure it was
    read from."""
    return floor_certified(lambda: shift + ln_i(x) / ln_i(base))


def _k_lower_push(n: int, k_cap: int) -> CascadeStage:
    """k <= k_cap forces the index below n: k_lower(n) > k_cap, and
    sqrt(n)/(6 sqrt(ln n)) increases wherever ln n > 1."""
    kl = k_lower(n)
    monotone = surely_gt(ln_i(n), 1)
    return CascadeStage(
        name=f"n<{n}",
        claim=f"k_lower({n}) > {k_cap} and k_lower increases, so n < {n}",
        data={f"k_lower_at_{n}": bounds_str(kl), "monotone": monotone},
        passed=surely_gt(kl, k_cap) and monotone,
    )


# product_as_dict fields that only the full product report carries
_PRODUCT_DETAIL = ("primes_used", "tail_bound_decimal", "total_upper")


def cascade_verify(product_cap: int = 10_000_000) -> BoundCascade:
    """Replay every stage of the bound cascade with certified arithmetic.

    Returns the full trace; .passed is False if any stage's checks fail
    (which would falsify the verified chain, not merely degrade it).
    """
    stages: list[CascadeStage] = []

    # Stage 1: the two k-bounds cross below 6*10^5.
    n_star = 600_000
    kl = k_lower(n_star)
    ku = k_upper(n_star)
    crossing = surely_gt(kl, ku.simplified)
    monotone = _gap_monotone_from(n_star)
    stages.append(
        CascadeStage(
            name="k-crossing",
            claim="k > sqrt(n)/(6 sqrt(ln n)) and k < 1 + 2.4 ln n force n < 600000",
            data={
                f"k_lower_at_{n_star}": bounds_str(kl),
                f"k_upper_simplified_at_{n_star}": bounds_str(ku.simplified),
                f"k_upper_exact_at_{n_star}": bounds_str(ku.exact),
                "ratio_increasing_beyond": monotone,
                "shape_constant_1/ln2+1/ln3": fmt(1 / ln_i(2) + 1 / ln_i(3)),
            },
            passed=crossing and monotone,
        )
    )

    # Stage 2: Fermat exponents reachable below n_star.
    gamma_cap = (n_star - 1).bit_length() - 1  # 2^19 <= 599999 < 2^20
    stages.append(
        CascadeStage(
            name="fermat-exponent-cap",
            claim="a Fermat prime factor 2^2^g + 1 needs 2^g <= n, so g <= 19",
            data={
                "computed_cap": gamma_cap,
                "cited_cap": 18,
                "cap_note": (
                    "the usual quote says 18, but 2^19 = 524288 <= 599999; the "
                    "extra exponent 19 is composite, certified from its factor"
                ),
            },
            passed=gamma_cap == 19,
        )
    )

    # Stage 3: exactly five Fermat primes are available, each verdict
    # checked live by fermat_status.
    statuses = [fermat_status(g) for g in range(gamma_cap + 1)]
    prime_gammas = [st.gamma for st in statuses if st.status == PRIME]
    stages.append(
        CascadeStage(
            name="fermat-prime-count",
            claim="among exponents 0..19 only 0..4 give Fermat primes",
            data={
                "prime_gammas": prime_gammas,
                "verified_factors": {st.gamma: st.factor for st in statuses if st.factor},
            },
            passed=prime_gammas == [0, 1, 2, 3, 4],
        )
    )
    fermat_count = len(prime_gammas)

    # Stages 4-7: recount k as the Fermat primes plus at most ln n/ln 3
    # factors with m_p > 1, the printed decimal checked to 5e-5, then push
    # n down with k_lower; each push starts the next recount.
    n_bound = n_star
    for name, claim, printed, expected_floor, pushed in (
        ("k<=17", "at most ln n/ln 3 factors have m_p > 1, so k <= 5 + 12 = 17",
         "12.1104", 12, 122_000),
        ("k<=15", "ln(122000)/ln 3 floors to 10, so k <= 5 + 10 = 15", "10.6605", 10, 93_000),
    ):
        floor, ratio = _log_ratio(n_bound, 3)
        close = within(ratio, Fraction(printed), Fraction(5, 100_000))
        k_cap = fermat_count + floor
        data = {
            f"ln({n_bound})/ln(3)": bounds_str(ratio),
            "printed_decimal": printed,
            "printed_decimal_within_5e-5": close,
            "floor": floor,
            "k_cap": k_cap,
        }
        stages += [
            CascadeStage(name, claim, data, passed=floor == expected_floor and close),
            _k_lower_push(pushed, k_cap),
        ]
        n_bound = pushed

    # Stage 8: 3 must divide n.  Otherwise odd shape factors m_p > 1 are
    # products of primes >= 5, so at most ln n/ln 5 of them fit into n.
    floor5_n, ratio5_n = _log_ratio(n_bound, 5)
    floor5_100k, ratio5_100k = _log_ratio(100_000, 5)
    count8 = floor5_n + fermat_count
    stages.append(
        CascadeStage(
            name="3-divides-n",
            claim=(
                "if 3 did not divide n then k <= 7 + 5 = 12 < 14, against the "
                "Cohen-Hagis floor of 14 distinct prime factors"
            ),
            data={
                f"ln({n_bound})/ln(5)": bounds_str(ratio5_n),
                "ln(100000)/ln(5)": bounds_str(ratio5_100k),
                "quoted_operand_note": (
                    "the quoted decimal 7.15338 matches the evaluation at "
                    "100000, not 93000 (which gives 7.1083); both floor to 7"
                ),
                "quoted_decimal_matches_100000": within(
                    ratio5_100k, Fraction("7.15338"), Fraction(5, 100_000)
                ),
                "floors": [floor5_n, floor5_100k],
                "k_cap_if_3_absent": count8,
                "min_distinct_factors": MIN_DISTINCT_FACTORS,
                "min_distinct_factors_source": "external (Cohen & Hagis)",
            },
            passed=floor5_n == 7 and floor5_100k == 7 and count8 < MIN_DISTINCT_FACTORS,
        )
    )

    # Stage 9: no prime q > 3 divides n.  With 3 | n the Fermat prime
    # F_0 = 3 is unavailable (C(n) = n*2^n + 1 = 1 mod 3), and a q > 3
    # would leave at most 1 + ln(n/5)/ln 3 shape factors plus the other
    # Fermat primes.
    q_bound = -(-n_bound // 5)
    floor_q, ratio_q = _log_ratio(q_bound, 3, shift=1)
    dec3 = within(ratio_q, Fraction("9.94849"), Fraction(5, 100_000))
    available = sum(g > 0 for g in prime_gammas)
    count9 = floor_q + available
    stages.append(
        CascadeStage(
            name="n-is-2a3b",
            claim=(
                "a prime q > 3 dividing n would give k <= 9 + 4 = 13 < 14, "
                "so n = 2^alpha * 3^beta"
            ),
            data={
                f"1+ln({q_bound})/ln(3)": bounds_str(ratio_q),
                "printed_decimal": "9.94849",
                "printed_decimal_within_5e-5": dec3,
                "floor": floor_q,
                "fermat_primes_available": available,
                "three_divides_cullen_note": "3 | n makes C(n) = 1 mod 3",
                "k_cap_if_q_present": count9,
            },
            passed=floor_q == 9 and dec3 and count9 < MIN_DISTINCT_FACTORS,
        )
    )

    # Stage 10: with n = 2^alpha * 3^beta every prime factor of C(n) is
    # 2^a*3^b + 1, and the full product of (1 + 1/(p-1)) stays below 2,
    # contradicting (C(n)-1)/phi(C(n)) being an integer >= 2.
    product = two_three_product_bound(product_cap)
    summary = {k: v for k, v in product_as_dict(product).items() if k not in _PRODUCT_DETAIL}
    stages.append(
        CascadeStage(
            name="product-contradiction",
            claim=(
                "(C(n)-1)/phi(C(n)) is an integer >= 2 for a composite "
                "counterexample, yet it equals a product certified below 2"
            ),
            data={
                **summary,
                "cited_bound_note": (
                    "the quoted 1.46 is below even the two smallest factors' "
                    "product 35/24; the certified value is near 1.93, still < 2"
                ),
            },
            passed=product.below_two,
        )
    )

    return BoundCascade(stages=tuple(stages), product=product)


# ---------------------------------------------------------------------------
# serialization helpers for reports


def cascade_as_dict(cascade: BoundCascade) -> dict:
    return {
        "stages": [asdict(s) for s in cascade.stages],
        "passed": cascade.passed,
        "final_verdict": cascade.final_verdict,
    }


def product_as_dict(product: TwoThreeProductBound) -> dict:
    return {
        "cap": product.cap,
        "primes_used": list(product.primes_used),
        "partial_product": str(product.partial_product),
        "partial_product_decimal": f"{float(product.partial_product):.6f}",
        "tail_bound": str(product.tail_bound),
        "tail_bound_decimal": f"{float(product.tail_bound):.6f}",
        "total_upper": str(product.total_upper),
        "total_upper_decimal": f"{float(product.total_upper):.6f}",
        "below_two": product.below_two,
        "cited_bound": str(product.cited_bound),
        "exceeds_cited_bound": product.exceeds_cited_bound,
    }
