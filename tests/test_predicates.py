from fractions import Fraction

import pytest

from cullen_lehmer import (
    Factorization,
    cullen,
    euler_phi,
    general_factor,
    is_carmichael,
    is_lehmer,
    lehmer_constrained_factor,
    lehmer_ratio,
)
from cullen_lehmer.factoring import PARTIAL, VERDICT_PRIME

PHI_SIEVE_LIMIT = 1_000_000
PREDICATE_RANGE = 100_000


def phi_sieve(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def spf_sieve(limit):
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factorization_from_spf(n, spf):
    factors = {}
    m = n
    while m > 1:
        p = spf[m]
        factors[p] = factors.get(p, 0) + 1
        m //= p
    return Factorization(n, tuple(sorted(factors.items())), "complete")


@pytest.fixture(scope="module")
def phi_table():
    return phi_sieve(PHI_SIEVE_LIMIT)


@pytest.fixture(scope="module")
def spf_table():
    return spf_sieve(PREDICATE_RANGE)


class TestIsLehmer:
    def test_examples(self):
        assert is_lehmer(9, general_factor(9)) is False  # phi=6, 6 does not divide 8
        assert is_lehmer(97, general_factor(97)) is False  # primes never qualify
        assert is_lehmer(561, general_factor(561)) is False

    def test_rejects_partial(self):
        f = Factorization(561, ((3, 1),), PARTIAL, cofactor=187)
        with pytest.raises(ValueError):
            is_lehmer(561, f)

    def test_exhaustive_million_by_sieve(self, phi_table):
        # pure-arithmetic oracle: no composite below 10^6 has phi | n-1
        hits = [
            n
            for n in range(2, PHI_SIEVE_LIMIT + 1)
            if phi_table[n] != n - 1 and (n - 1) % phi_table[n] == 0
        ]
        assert hits == []

    def test_predicate_agrees_with_sieve(self, phi_table, spf_table):
        for n in range(2, PREDICATE_RANGE + 1):
            f = factorization_from_spf(n, spf_table)
            expected = phi_table[n] != n - 1 and (n - 1) % phi_table[n] == 0
            assert is_lehmer(n, f) == expected, n


class TestIsCarmichael:
    def test_examples(self):
        f561 = general_factor(561)
        assert f561.factors == ((3, 1), (11, 1), (17, 1))
        assert all(560 % (p - 1) == 0 for p in (3, 11, 17))
        assert is_carmichael(561, f561) is True
        assert is_carmichael(9, general_factor(9)) is False  # not squarefree
        f385 = general_factor(385)
        assert is_carmichael(385, f385) is False
        # checking each predecessor 4, 6, 10: the first two divide 384,
        # 10 does not, which is the Korselt failure
        assert 384 % 4 == 0 and 384 % 6 == 0 and 384 % 10 != 0
        # brute-force corroboration: some base already fails a^385 = a
        assert any(pow(a, 385, 385) != a % 385 for a in range(2, 385))

    def test_against_korselt_sieve(self, spf_table):
        expected = []
        for n in range(2, PREDICATE_RANGE + 1):
            factors = factorization_from_spf(n, spf_table)
            if len(factors.factors) < 2:
                continue
            if any(k > 1 for _, k in factors.factors):
                continue
            if all((n - 1) % (p - 1) == 0 for p, _ in factors.factors):
                expected.append(n)
        # the classical list below 10^5
        assert expected == [
            561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
            29341, 41041, 46657, 52633, 62745, 63973, 75361,
        ]
        for n in expected:
            assert is_carmichael(n, factorization_from_spf(n, spf_table))

    def test_carmichael_implies_pseudoprime_everywhere(self, spf_table):
        for n in (561, 1105, 1729, 2465, 41041):
            f = factorization_from_spf(n, spf_table)
            assert is_carmichael(n, f)
            assert all(pow(a, n, n) == a for a in range(2, 51))

    def test_lehmer_implies_carmichael_wiring(self, spf_table):
        # vacuous on this range (no Lehmer numbers exist below 10^5), but
        # the implication must hold through the real predicate calls
        for n in range(2, PREDICATE_RANGE + 1):
            f = factorization_from_spf(n, spf_table)
            if is_lehmer(n, f):
                assert is_carmichael(n, f)


class TestLehmerRatio:
    def test_examples(self):
        r1 = lehmer_ratio(1, general_factor(3))
        assert (r1.phi, r1.gcd_value, r1.ratio) == (2, 2, Fraction(1))
        r2 = lehmer_ratio(2, general_factor(9))
        assert (r2.phi, r2.gcd_value, r2.ratio) == (6, 2, Fraction(3))
        r3 = lehmer_ratio(3, general_factor(25))
        assert (r3.phi, r3.gcd_value, r3.ratio) == (20, 4, Fraction(5))

    def test_ratio_is_exact_and_above_one_for_composites(self, factored_corpus):
        for n, f in factored_corpus.items():
            report = lehmer_ratio(n, f)
            assert isinstance(report.ratio, Fraction)
            composite = lehmer_constrained_factor(n).verdict != VERDICT_PRIME
            if composite:
                assert report.ratio > 1
                assert not is_lehmer(cullen(n).value, f)
            else:
                assert report.ratio == 1

    def test_phi_consistency(self, factored_corpus):
        for n, f in factored_corpus.items():
            assert lehmer_ratio(n, f).phi == euler_phi(f)

    def test_rejects_wrong_value(self):
        with pytest.raises(ValueError):
            lehmer_ratio(5, general_factor(385))
