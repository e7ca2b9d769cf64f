"""Differential tests against sympy's independent number theory: full
factorizations of small Cullen values, Euler's totient, and primality."""

import random

import pytest

from cullen_lehmer import FactorBudget, cullen, euler_phi, general_factor, is_prime

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
