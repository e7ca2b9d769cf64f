"""Differential tests against sympy's independent number theory: full
factorizations of small Cullen values, Euler's totient, primality, and the
primes 2^a*3^b + 1 of the smooth-prime product."""

import random

import pytest

from cullen_lehmer import (
    FactorBudget, cullen, euler_phi, general_factor, is_prime, two_three_product_bound,
)
from cullen_lehmer.primality import DETERMINISTIC_LIMIT

sympy = pytest.importorskip("sympy")


def test_corpus_matches_factorint(factored_corpus):
    for n, fact in factored_corpus.items():
        assert dict(fact.factors) == sympy.factorint(cullen(n).value), n


def test_euler_phi_matches_totient(factored_corpus):
    for n, fact in factored_corpus.items():
        assert euler_phi(fact) == sympy.totient(cullen(n).value), n
    budget = FactorBudget(rho_iterations=1 << 16)
    rng = random.Random(7)
    for N in [2, 3, 4, 6, 12, 97, 1024, 3**7] + [rng.randrange(2, 10**12) for _ in range(200)]:
        fact = general_factor(N, budget)
        assert fact.is_complete, N
        assert euler_phi(fact) == sympy.totient(N), N


def test_is_prime_matches_isprime():
    rng = random.Random(20260)
    values = []
    for i in range(2000):
        bits = rng.randint(20, 200)
        x = rng.getrandbits(bits) | (1 << (bits - 1))
        if i % 4 == 0:
            x = sympy.nextprime(x)
        elif i % 4 == 1:  # a product of two primes of similar size
            half = bits // 2
            x = sympy.nextprime(rng.getrandbits(half) | (1 << (half - 1))) * sympy.nextprime(
                rng.getrandbits(bits - half) | (1 << (bits - half - 1))
            )
        values.append(x)
    # strong pseudoprimes to many small bases
    values += [3215031751, 3825123056546413051, 318665857834031151167461]
    mismatches = [x for x in values if is_prime(x).probably_prime != sympy.isprime(x)]
    assert mismatches == []
    assert sum(sympy.isprime(x) for x in values) >= 500


def test_strong_lucas_matches_sympy():
    from sympy.ntheory.primetest import is_strong_lucas_prp

    from cullen_lehmer.primality import _strong_lucas_prp

    rng = random.Random(1980)
    values = []
    for i in range(240):
        bits = rng.randint(5, 1500)
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if i % 4 == 0 and bits <= 400:
            x = sympy.nextprime(x)
        values.append(x)
    values += [5459, 5777, 10877, 2**521 - 1, 2**607 - 1, 1093**2, (2**89 - 1) ** 2]
    mismatches = [x for x in values if _strong_lucas_prp(x) != is_strong_lucas_prp(x)]
    assert mismatches == []
    assert sum(_strong_lucas_prp(x) for x in values) >= 30


def test_is_prime_matches_isprime_past_the_deterministic_limit():
    # Baillie-PSW above the limit, on primes and semiprimes of 200-1200 bits
    rng = random.Random(1981)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))

    values = [prime(rng.randint(200, 640)) for _ in range(24)]
    values += [prime(1000), prime(1200), 2**521 - 1, 2**607 - 1]
    for _ in range(24):
        bits = rng.randint(200, 1200)
        values.append(prime(bits // 2) * prime(bits - bits // 2))
    mismatches = [x for x in values if is_prime(x).probably_prime != sympy.isprime(x)]
    assert mismatches == []
    assert sum(is_prime(x).probably_prime for x in values) == 28


def test_two_three_primes_match_isprime_at_the_deterministic_limit():
    # the largest cap the product accepts: sympy tests s+1 for each of the
    # 2,160 3-smooth s <= cap-1 but 1 and 2, whose s+1 the product leaves out
    cap = DETERMINISTIC_LIMIT
    smooth = [2**a * 3**b for a in range(cap.bit_length()) for b in range(cap.bit_length())
              if 2**a * 3**b <= cap - 1]
    assert len(smooth) == 2160
    expected = sorted(s + 1 for s in smooth if s > 2 and sympy.isprime(s + 1))
    assert len(expected) == 193
    assert list(two_three_product_bound(cap).primes_used) == expected
