"""Factorization engines for Cullen values, totient computation, and the
persistent factor cache.

Two factoring routes exist on purpose.  The structured search is complete
for the totient-divisibility question: a prime p with p-1 dividing
C(n)-1 = n1*2^n2 must equal m*2^e + 1 with m an odd divisor of n and
e <= n2, so dividing every such prime out of C(n) decides the verdict.
The general engine (trial division plus Brent's variant of Pollard rho)
only describes the rest: extend_factorization runs it on what the search
leaves, for the open-problem scans where any factorization will do and a
partial result is acceptable, unless a trusted cached entry stands in: a
complete one, or a partial one whose rho budget is at least the row's.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, isqrt, prod
from pathlib import Path
from threading import Lock

from .cullen import CullenNumber, cullen, odd_divisors, v2
from .errors import BudgetError, FalsificationError
from .primality import (
    COMPOSITE,
    DETERMINISTIC_LIMIT,
    PRIME,
    PrimalityVerdict,
    StructuredPrime,
    _pairwise_product,
    _sieve,
    _small_factor,
    _small_prime_divisors,
    is_prime,
    proth_test,
    structured_verdict,
)

logger = logging.getLogger(__name__)

COMPLETE = "complete"
PARTIAL = "partial"

VERDICT_PRIME = "prime"
VERDICT_STRUCTURAL = "structurally_refuted"
VERDICT_SQUAREFREE = "squarefree_refuted"
VERDICT_TOTIENT = "totient_refuted"

# general_factor divides out the primes up to this bound before rho
TRIAL_BOUND = 10_000

# the largest index a row or a cache line may name: C(MAX_INDEX) takes
# 1.25 MB, and a larger or corrupt index would build a far larger C(n)
MAX_INDEX = 10_000_000


@dataclass(frozen=True)
class Factorization:
    """A value with its known prime factors and the unfactored remainder.

    status is complete exactly when cofactor is 1; when partial, cofactor
    holds the remainder, which may be composite or simply undecided.  How
    each factor was found to be prime is not stored: general_factor states
    which of its factors are only probable primes.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self):
        if self.cofactor < 1:
            raise ValueError("cofactor must be positive")
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be strictly ascending")
        for p, k in self.factors:
            if p < 2 or k < 1:
                raise ValueError(f"bad factor entry ({p}, {k})")
        if _pairwise_product([self.cofactor, *(p**k for p, k in self.factors)]) != self.value:
            raise ValueError("factor product does not reproduce the value")

    @property
    def is_complete(self) -> bool:
        return self.cofactor == 1

    @property
    def status(self) -> str:
        return COMPLETE if self.is_complete else PARTIAL

    def summary(self) -> str:
        toks = [f"{p}^{k}" if k > 1 else str(p) for p, k in self.factors]
        return " ".join(toks)


def euler_phi(f: Factorization) -> int:
    """Euler totient from a complete factorization."""
    if not f.is_complete:
        raise ValueError("euler_phi needs a complete factorization")
    return prod(p ** (k - 1) * (p - 1) for p, k in f.factors)


@dataclass(frozen=True)
class FactorBudget:
    """Effort descriptor for the general engine, in deterministic units."""

    rho_iterations: int = 262_144

    def __post_init__(self):
        if self.rho_iterations < 0:
            raise ValueError("nonsensical budget")


DEFAULT_BUDGET = FactorBudget()


@dataclass
class WorkCounter:
    """Deterministic effort accounting (reported instead of wall time)."""

    trial_divisions: int = 0
    rho_iterations: int = 0


def _brent_rho(n: int, c: int, max_iters: int, counter: WorkCounter) -> int | None:
    """One Brent cycle-finding round on x -> x^2 + c (mod n), x0 = 2.

    Returns a nontrivial factor or None (failure for this c, or budget
    exhausted).  Fully deterministic given (n, c, max_iters).
    """
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1 and used < max_iters:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1 and used < max_iters:
            ys = y
            steps = min(128, r - k, max_iters - used)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += steps
            g = gcd(q, n)
            k += steps
        r *= 2
    counter.rho_iterations += used
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    if 1 < g < n:
        return g
    return None


def general_factor(
    N: int,
    budget: FactorBudget = DEFAULT_BUDGET,
    counter: WorkCounter | None = None,
    *,
    within: tuple[int, int] | None = None,
    verdict: PrimalityVerdict | None = None,
) -> Factorization:
    """Trial division by the primes up to TRIAL_BOUND, then Pollard rho
    rounds until budget.rho_iterations is spent.  Deterministic given
    (N, budget): rho uses x0 = 2 and the polynomial constants c = 1, 2, 3,
    ... in order.  counter.trial_divisions counts the primes tried in
    ascending order until p^2 exceeds what is left of N; the primes that
    divide N come from one gcd, the count from the sieve between them.

    within = (k, s), when N divides k*2^s + 1, is passed to every is_prime
    call, since each value tested divides N.  verdict, a primality verdict
    on N already computed by the caller, stands in for testing N again when
    trial division leaves N unchanged.

    A listed factor below DETERMINISTIC_LIMIT is a proven prime, and one at
    or above it only a probable prime, which Baillie-PSW passed.
    """
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    if verdict is not None and verdict.value != N:
        raise ValueError("verdict is not about N")
    if counter is None:
        counter = WorkCounter()
    found: dict[int, int] = {}
    leftovers: list[int] = []

    m = N
    primes = _sieve(TRIAL_BOUND)
    tried = 0  # index of the first prime not yet tried
    for p in _small_prime_divisors(N, TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
        tried = bisect_left(primes, p, tried) + 1
    counter.trial_divisions += bisect_right(primes, isqrt(m), tried)

    def settle(x: int, known: PrimalityVerdict | None = None) -> None:
        """Classify x as prime (record) or composite (queue for rho)."""
        if (known or is_prime(x, within=within)).probably_prime:
            found[x] = found.get(x, 0) + 1
        else:
            stack.append(x)

    stack: list[int] = []
    if m > 1:
        settle(m, verdict if m == N else None)
    while stack:
        comp = stack.pop()
        d = None
        c = 1
        while d is None and counter.rho_iterations < budget.rho_iterations:
            d = _brent_rho(comp, c, budget.rho_iterations - counter.rho_iterations, counter)
            c += 1
        if d is None:
            leftovers.append(comp)
        else:
            settle(d)
            settle(comp // d)

    return Factorization(
        value=N,
        factors=tuple(sorted(found.items())),
        cofactor=prod(leftovers),
    )


@dataclass(frozen=True)
class LehmerSearchResult:
    """Outcome of the structured factor search for C(n); later steps read
    the CullenNumber c it built instead of building C(n) again."""

    c: CullenNumber
    structured_divisors: tuple[StructuredPrime, ...]
    verdict: str
    witness: str  # why C(n) is not a Lehmer number, or its Proth certificate
    factorization: Factorization  # search state; complete iff the cofactor reached 1
    # primality of factorization.cofactor when the search decided it (a
    # cofactor equal to C(n) is composite), for extend_factorization to reuse
    cofactor_verdict: PrimalityVerdict | None = None


def _divides_cullen(n: int, m: int, e: int) -> bool:
    """Whether p = m*2^e + 1 divides C(n) = n*2^n + 1, without reducing the
    n-bit C(n).  With n = q*e + r, 2^e = -1/m (mod p) gives
    m^q * C(n) = n*(-1)^q*2^r + m^q (mod p), and gcd(m, p) = 1."""
    p = (m << e) + 1
    q, r = divmod(n, e)
    t = n << r
    if q & 1:
        t = -t
    return (t + pow(m, q, p)) % p == 0


def _structured_hits(c: CullenNumber) -> list[tuple[int, int, int]]:
    """(value, m, e) for every form p = m*2^e + 1 that divides C(n), with
    m | n odd and 1 <= e <= (bits(C(n)) - bits(m)) // 2, ascending by value;
    primality is checked later, and only for these.

    The bound contains every proper divisor m*2^e + 1 of C(n) with m | n
    odd and e <= n2, hence every prime proper divisor p with p-1 | C(n)-1.
    For such a divisor p, 2^e divides both C(n)-1 and p-1, so
    lam = C(n)/p = 1 (mod 2^e), and lam > 1 since p < C(n); so
    lam >= 2^e + 1 and C(n) >= (m*2^e + 1)(2^e + 1) > 2^(2e + bits(m) - 1),
    that is, 2e + bits(m) <= bits(C(n)).  As bits(C(n)) = bits(n1) + n2
    and bits(n1) <= n <= n2, the bound lies below n2, so C(n) =
    n1*2^n2 + 1 itself is never a form.

    Most forms are decided by size, without an exponentiation.  With
    n = q*e + r, m^q * C(n) = n*(-1)^q*2^r + m^q (mod p) (_divides_cullen).
    If n*2^(r+1) <= m*2^e and m^(q-1) <= 2^(e-1), both terms lie below
    p/2, so their sum lies in (-p/2, p) and p | C(n) exactly when the sum
    is 0: q odd and n*2^r = m^q, which as m^q is odd means r = 0 and
    n = m^q (C(27) has the hit 3*2^9 + 1, C(729) the hit 9*2^243 + 1).
    For fixed q, e runs over the window (n/(q+1), n/q], where r = n - q*e
    falls as e rises: so once one e of a window is decided, every larger
    e of it is, and only its zero case at e = n/q is left to check.  The
    first condition reads (q+1)*e >= n + 1 + ceil(log2(n/m)), as n/m is an
    odd integer; the second fails, with no power computed, when
    (q-1)*(bits(m)-1) > e-1.  Only the undecided forms go to
    _divides_cullen."""
    n = c.n
    bits = c.value.bit_length()
    hits = []
    for m in odd_divisors(n):
        k0 = n + 1 + (n // m - 1).bit_length()  # (q+1)*e >= k0 iff n*2^(r+1) <= m*2^e
        low = m.bit_length() - 1  # 2^low <= m
        e, top = 1, (bits - m.bit_length()) // 2
        while e <= top:
            q = n // e
            if (q + 1) * e < k0 or (q - 1) * low >= e or m ** (q - 1) > 1 << (e - 1):
                if _divides_cullen(n, m, e):
                    hits.append(((m << e) + 1, m, e))
                e += 1
                continue
            last = n // q  # the window's top, where r = 0 if q | n
            if n % q == 0 and last <= top and m**q == n:  # then q | n odd, so q is odd
                hits.append(((m << last) + 1, m, last))
            e = last + 1
    return sorted(hits)


def _cullen_verdict(c: CullenNumber, hits: list[tuple[int, int, int]]) -> PrimalityVerdict:
    """Primality of C(n), from the cheapest evidence first: a structured
    hit, then primality._small_factor, and only then the Proth test.  A hit
    divides C(n) but need not be prime, so that verdict names no factor."""
    if hits:
        return PrimalityVerdict(c.value, COMPOSITE, "trial")
    p = _small_factor(c.value)
    if p is not None:
        return PrimalityVerdict(c.value, COMPOSITE, "trial", factor=p)
    return proth_test(c.n1, c.n2)


def lehmer_constrained_factor(n: int) -> LehmerSearchResult:
    """Decide how C(n) escapes the property "composite with phi | value-1".

    Every structured form m*2^e + 1 in the bound that divides C(n) is found
    first, by _structured_hits, which decides most forms by their size and
    exponentiates only for the rest.  Such a divisor, or a prime below 10^5
    that divides C(n) (below 2000 for C(n) under SPECIAL_FORM_BITS),
    proves C(n) composite; without either, a Proth certificate decides it
    (prime is one legal outcome).  Any prime whose predecessor divides
    C(n)-1 is among the forms, so for a composite C(n) the three remaining
    outcomes are exhaustive: a repeated hit (not squarefree), a leftover
    cofactor (some factor has the wrong shape), or a full structured
    factorization whose totient fails the divisibility.  A fourth outcome
    would be a counterexample to the verified theorem and raises.
    """
    c = cullen(n)
    hits = _structured_hits(c)
    head = _cullen_verdict(c, hits)
    if head.status == PRIME:
        fact = Factorization(c.value, ((c.value, 1),))
        witness = f"C({n}) is prime (Proth base {head.witness})"
        return LehmerSearchResult(c, (), VERDICT_PRIME, witness, fact)
    if head.status != COMPOSITE:
        raise BudgetError(f"could not certify C({n}) prime or composite")

    remaining = c.value
    divisors: list[StructuredPrime] = []
    factors: list[tuple[int, int]] = []  # ascending, as the hits are
    repeated = None
    for value, m, e in hits:
        if remaining == 1:
            break
        if remaining % value:
            continue
        if not structured_verdict(m, e).is_prime:
            continue
        mult = 0
        while remaining % value == 0:
            remaining //= value
            mult += 1
        factors.append((value, mult))
        divisors.append(StructuredPrime(m, e))
        if mult >= 2:
            repeated = value
            break

    fact = Factorization(c.value, tuple(factors), cofactor=remaining)
    if repeated is not None:
        witness = f"{repeated}^2 divides C({n}), so C({n}) is not squarefree"
        return LehmerSearchResult(c, tuple(divisors), VERDICT_SQUAREFREE, witness, fact)
    if remaining > 1:
        # a cofactor equal to C(n) is proven composite by head already
        verdict = head if remaining == c.value else is_prime(remaining, within=(c.n1, c.n2))
        witness = _cofactor_witness(c, remaining, verdict)
        return LehmerSearchResult(
            c, tuple(divisors), VERDICT_STRUCTURAL, witness, fact, verdict
        )

    phi = euler_phi(fact)
    if (c.value - 1) % phi:
        witness = (f"C({n}) factors into structured primes only, but "
                   f"phi = {phi} does not divide C({n})-1")
        return LehmerSearchResult(c, tuple(divisors), VERDICT_TOTIENT, witness, fact)

    raise FalsificationError(
        "lehmer-search",
        f"C({n}) is composite, squarefree, and phi(C({n})) divides C({n})-1: "
        "this contradicts the verified theorem",
    )


def _trusted(search: LehmerSearchResult, cached: Factorization) -> bool:
    """Whether a cached factorization of C(n) may stand in for factoring; a
    refusal is logged.  The cache load certifies listed factors only below
    DETERMINISTIC_LIMIT, so each one at or above it is tested here, within
    C(n)'s special form; and every structured divisor the search found must
    be listed.  The cofactor of a partial entry must be one general_factor
    leaves: free of the primes up to TRIAL_BOUND, and composite (the
    search's verdict on its own cofactor is reused, not recomputed).  A
    partial entry's budget is taken on trust, since only rerunning rho
    could check it: one that overstates it passes, and the row is less
    factored than its budget would reach, but still correct."""
    within = (search.c.n1, search.c.n2)
    listed = [p for p, _ in cached.factors]
    composite = [p for p in listed if p >= DETERMINISTIC_LIMIT
                 and not is_prime(p, within=within).probably_prime]
    unlisted = [sp.value for sp in search.structured_divisors if sp.value not in listed]
    problems = []
    if composite:
        problems.append(f"composite factors {composite}")
    if unlisted:
        problems.append(f"unlisted structured divisors {unlisted}")
    if not problems and not cached.is_complete:
        cofactor = cached.cofactor
        small = next(_small_prime_divisors(cofactor, TRIAL_BOUND), None)
        known = search.cofactor_verdict
        if small is not None:
            problems.append(f"the cofactor has the prime factor {small}")
        elif (known if known is not None and known.value == cofactor
              else is_prime(cofactor, within=within)).probably_prime:
            problems.append("the cofactor is prime")
    if problems:
        logger.warning("cached factorization of C(%d) not trusted: %s",
                       search.c.n, "; ".join(problems))
        return False
    return True


def extend_factorization(
    result: LehmerSearchResult,
    budget: FactorBudget,
    counter: WorkCounter,
    cached: CacheEntry | None = None,
) -> tuple[Factorization, bool]:
    """The row's factorization of C(n), and whether cached supplied it, by
    the first rule that applies: a prime C(n) keeps the search's
    Proth-certified factorization, and cached is not read; a cached
    factorization that is complete, or partial at a rho budget at least
    budget's, and passes _trusted is returned as it is; a complete search
    state is returned as it is.  Otherwise general_factor runs on the
    cofactor within C(n)'s special form, reusing the search's
    cofactor_verdict so that no value is tested twice, and its primes are
    merged with the structured ones.

    general_factor is deterministic given its input and budget, and every
    row starts a fresh counter, so a partial entry at budget B is what a row
    at budget B computes; at a smaller budget the row prints B's result.
    A larger budget reruns rho from the start.  A partial entry below the
    row's budget, or an untrusted entry, is treated as absent, and no entry
    replaces the search, which is what gives the verdict."""
    fact = result.factorization
    if result.verdict == VERDICT_PRIME:
        return fact, False
    if (cached is not None
            and (cached.fact.is_complete or budget.rho_iterations <= cached.budget)
            and _trusted(result, cached.fact)):
        return cached.fact, True
    if fact.is_complete:
        return fact, False
    c = result.c
    sub = general_factor(fact.cofactor, budget, counter, within=(c.n1, c.n2),
                         verdict=result.cofactor_verdict)
    merged = dict(fact.factors)
    for p, k in sub.factors:
        merged[p] = merged.get(p, 0) + k
    return Factorization(fact.value, tuple(sorted(merged.items())), sub.cofactor), False


def _cofactor_witness(c: CullenNumber, cofactor: int, verdict: PrimalityVerdict) -> str:
    """Explain, from its primality verdict, why the leftover cofactor
    certifies refutation: no prime inside it can have predecessor dividing
    C(n)-1."""
    if verdict.probably_prime:
        m = (cofactor - 1) >> v2(cofactor - 1)
        e = v2(cofactor - 1)
        reasons = []
        if c.n % m:
            reasons.append(f"{m} does not divide {c.n}")
        if e > c.n2:
            reasons.append(f"2-adic part 2^{e} exceeds 2^{c.n2}")
        if not reasons:
            raise FalsificationError(
                "lehmer-search",
                f"prime cofactor {cofactor} has admissible shape yet was never "
                "enumerated; the candidate set cannot be exhaustive",
            )
        return (f"cofactor {cofactor} = {m}*2^{e} + 1 is prime but outside the "
                f"admissible shape: " + "; ".join(reasons))
    return (f"cofactor {cofactor} > 1 remains after removing every admissible "
            "structured prime, so some factor of C(n) has the wrong shape")


@dataclass(frozen=True)
class CacheEntry:
    """A factor cache record for C(n).  budget is the rho budget that left
    a partial factorization partial, and None for a complete one.  It is
    taken on trust, as only rerunning rho could check it: an overstated
    budget lets the entry stand in for rows up to it, which then print a
    correct factorization that is less complete than their budget reaches."""

    fact: Factorization
    budget: int | None = None

    def __post_init__(self):
        if self.fact.is_complete != (self.budget is None) or (self.budget or 0) < 0:
            raise ValueError("a partial entry needs its rho budget, at least 0, "
                             "and a complete one has none")

    def rank(self) -> tuple[bool, int]:
        """Complete above partial, then the larger budget: the order in which
        entries for one n say more."""
        return self.fact.is_complete, self.budget or 0


def _decimal(token: str, field: str) -> int:
    """The value of a cache number field, which must be in the form put
    writes, str(int): ASCII digits alone, with no leading zero.  int() by
    itself would also take a sign, underscores, spaces, leading zeros and
    the digits of other scripts."""
    if not (token.isascii() and token.isdigit()) or (len(token) > 1 and token[0] == "0"):
        raise ValueError(f"{field} {token[:24]!r} is not canonical ASCII decimal")
    return int(token)


class FactorCache:
    """Persistent line-oriented map from index n to the factorization of C(n).

    One record per line: ``n<TAB>status<TAB>p1^e1 p2 ...<TAB>cofactor``
    (exponent suffix omitted when 1); lines starting with ``#`` are
    comments.  status is ``complete``, or ``partial@B`` for a partial
    factorization left by rho budget B.  The line holds no primality
    verdicts: a row derives which factors are only probable primes.
    Malformed or arithmetically inconsistent lines, including a line that
    is not UTF-8, a number field (index, budget, factor, exponent or
    cofactor) that is not canonical ASCII decimal, an explicit ``^1``, an
    index above MAX_INDEX, a bare ``partial`` with no budget, a budget of
    more than 20 digits, listed factors whose bit lengths less one, times
    their exponents, sum to C(n)'s bit length or more, and a listed factor
    below DETERMINISTIC_LIMIT that is not prime, are skipped with a logged
    warning and counted, never silently trusted.  Of several lines for one
    n the one that says most is kept, by CacheEntry.rank, and the later one
    on a tie.  Writers funnel through one lock; readers see the snapshot
    loaded at construction plus this process's own puts.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = Lock()
        self._entries: dict[int, CacheEntry] = {}
        self.skipped_lines = 0
        self._load()

    def _outranked(self, n: int, entry: CacheEntry) -> bool:
        held = self._entries.get(n)
        return held is not None and held.rank() > entry.rank()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    text = raw.decode("utf-8").strip()
                    if not text or text.startswith("#"):
                        continue
                    n, entry = self._parse(text)
                except (ValueError, OverflowError) as exc:  # UnicodeDecodeError is a ValueError
                    self.skipped_lines += 1
                    logger.warning(
                        "factor cache %s line %d skipped: %s", self.path, lineno, exc
                    )
                    continue
                if not self._outranked(n, entry):
                    self._entries[n] = entry

    @staticmethod
    def _parse(text: str) -> tuple[int, CacheEntry]:
        parts = text.split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
        if len(parts[0]) > len(str(MAX_INDEX)):
            raise ValueError("index out of the cacheable range")
        n = _decimal(parts[0], "index")
        if not 1 <= n <= MAX_INDEX:
            raise ValueError(f"index {n} out of the cacheable range")
        status, at, token = parts[1].partition("@")
        budget = None
        if at or status == PARTIAL:
            if status != PARTIAL or not token or len(token) > 20:
                raise ValueError("a partial line needs its rho budget as partial@B, "
                                 "B at most 20 digits")
            budget = _decimal(token, "rho budget")
        c = cullen(n)
        # no number field of a valid line is longer than C(n) in decimal; a
        # longer one is rejected before int(), whose cost is quadratic in it
        digits = c.value.bit_length() * 30103 // 100_000 + 1  # log10(2) < 0.30103
        fields = parts[2].replace("^", " ").split() + [parts[3]]
        if max(map(len, fields)) > digits:
            raise ValueError(f"a number field is longer than C({n}), {digits} digits")
        cofactor = _decimal(parts[3], "cofactor")
        factors = []
        for tok in parts[2].split():
            base, caret, exp = tok.partition("^")
            k = _decimal(exp, "exponent") if caret else 1
            if caret and k < 2:
                raise ValueError(f"factor {tok[:24]!r} is not canonical ASCII decimal: "
                                 "put writes exponents from 2 on")
            factors.append((_decimal(base, "factor"), k))
        # the listed p^k multiply to at least 2^sum((bits(p) - 1)*k), and
        # those of C(n) to less than 2^bits(C(n)); checking this before any
        # power is built bounds the memory and time of Factorization's
        # product check, which rejects a line within the bound that does
        # not reproduce C(n)
        if sum((p.bit_length() - 1) * k for p, k in factors) >= c.value.bit_length():
            raise ValueError(f"the listed factors are too large for C({n})")
        fact = Factorization(c.value, tuple(factors), cofactor)
        if fact.status != status:
            raise ValueError(f"status {parts[1]!r} does not match the cofactor {cofactor}")
        # certify only below the limit, where it is cheap: a listed factor
        # may have thousands of bits, and every command reloads the cache;
        # extend_factorization tests the others before a row uses the entry
        for p, _ in factors:
            if p < DETERMINISTIC_LIMIT and not is_prime(p).is_prime:
                raise ValueError(f"listed factor {p} is not prime")
        return n, CacheEntry(fact, budget)

    def entry(self, n: int) -> CacheEntry | None:
        return self._entries.get(n)

    def put(self, n: int, fact: Factorization, budget: int | None = None) -> None:
        """Offer C(n)'s factorization with budget, the rho budget that left a
        partial one partial (a complete one ignores it).  put alone decides
        what is written: a line that some row reads back.  So it skips a
        prime's factorization (the value as its only factor), a partial one
        at budget 0, where no rho ran, and one that the held entry equals or
        outranks, which no load would keep; all before C(n) is built."""
        if not 1 <= n <= MAX_INDEX:
            raise ValueError(f"index {n} out of the cacheable range")
        entry = CacheEntry(fact, None if fact.is_complete else budget)
        if fact.factors == ((fact.value, 1),) or entry.budget == 0:
            return
        with self._lock:
            if self._entries.get(n) == entry or self._outranked(n, entry):
                return
            if fact.value != cullen(n).value:
                raise ValueError(f"factorization value is not C({n})")
            status = COMPLETE if entry.budget is None else f"{PARTIAL}@{entry.budget}"
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(f"{n}\t{status}\t{fact.summary()}\t{fact.cofactor}\n")
            self._entries[n] = entry

    def __len__(self) -> int:
        return len(self._entries)
