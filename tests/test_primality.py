import pytest

from cullen_lehmer import (
    COMPOSITE,
    NOT_PRIME,
    PRIME,
    cullen,
    fermat_primes,
    fermat_status,
    gen_structured_primes,
    gen_two_three_primes,
    is_prime,
    proth_test,
)
from cullen_lehmer.primality import DETERMINISTIC_LIMIT, PROTH_BASE_CAP, SMALL_PRIMES


def sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


class TestIsPrime:
    def test_examples(self):
        assert is_prime(65537).is_prime
        assert is_prime(1).status == NOT_PRIME
        assert not is_prime(1).is_prime
        v = is_prime(561)
        assert v.is_composite and v.factor == 3

    def test_zero_and_one(self):
        for n in (0, 1):
            v = is_prime(n)
            assert v.status == NOT_PRIME
            assert not v.is_prime and not v.probably_prime

    def test_against_sieve(self):
        flags = sieve_flags(20_000)
        for n in range(2, 20_001):
            assert is_prime(n).is_prime == bool(flags[n]), n

    def test_deterministic_above_64_bits(self):
        # 2^64 + 13 is prime; the verdict must be certified, not probable
        v = is_prime(2**64 + 13)
        assert v.status == PRIME and v.method == "deterministic-mr"
        assert DETERMINISTIC_LIMIT > 2**64

    def test_probable_beyond_threshold(self):
        v = is_prime(2**521 - 1)  # Mersenne prime, far above the threshold
        assert v.status == "probable_prime"
        w = is_prime(2**523 - 1)  # composite
        assert w.is_composite

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-7)


class TestProth:
    def test_worked_examples(self):
        v = proth_test(3, 2)  # N = 13
        assert v.is_prime and v.witness == 2
        assert pow(2, 6, 13) == 12
        w = proth_test(1, 3)  # N = 9
        assert w.is_composite
        assert pow(2, 4, 9) == 7

    def test_cullen_141_certificate(self):
        c = cullen(141)
        v = proth_test(c.n1, c.n2)
        assert v.is_prime and v.method == "proth" and v.witness == 5
        # the certificate is checkable directly
        assert pow(v.witness, (c.value - 1) // 2, c.value) == c.value - 1

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            proth_test(2, 5)  # even n1
        with pytest.raises(ValueError):
            proth_test(5, 2)  # n1 >= 2^n2
        with pytest.raises(ValueError):
            proth_test(3, 0)

    def test_agrees_with_is_prime_exhaustively(self):
        # every N = n1*2^n2 + 1 <= 10^7 with n1 odd, n1 < 2^n2; on primes
        # the certificate base is the one that exponentiating every base in
        # turn finds first, although bases with (a/N) = +1 are now skipped
        bases = SMALL_PRIMES[:PROTH_BASE_CAP]
        limit = 10**7
        checked = 0
        n2 = 1
        while (1 << n2) + 1 <= limit:
            max_n1 = min((1 << n2) - 1, (limit - 1) >> n2)
            for n1 in range(1, max_n1 + 1, 2):
                N = (n1 << n2) + 1
                v = proth_test(n1, n2)
                assert v.is_prime == is_prime(N).is_prime, N
                if v.is_prime:
                    first = next(a for a in bases if pow(a, (N - 1) // 2, N) == N - 1)
                    assert v.witness == first, N
                checked += 1
            n2 += 1
        assert checked > 4000


class TestFermat:
    def test_fermat_primes_list(self):
        assert fermat_primes() == ((0, 3), (1, 5), (2, 17), (3, 257), (4, 65537))

    def test_f5_composite_by_trial_division(self):
        f5 = 2**32 + 1
        assert f5 == 4294967297
        assert f5 % 641 == 0 and f5 // 641 == 6700417
        assert is_prime(f5).is_composite

    def test_status_table(self):
        assert fermat_status(4).status == PRIME
        st5 = fermat_status(5)
        assert st5.status == COMPOSITE and st5.factor == 641
        assert st5.source == "verified-factor"
        st6 = fermat_status(6)
        assert st6.factor == 274177 and (2**64 + 1) % 274177 == 0
        st18 = fermat_status(18)
        assert st18.status == COMPOSITE and st18.source == "external-table"
        for g in range(19):
            st = fermat_status(g)
            assert st.status == (PRIME if g <= 4 else COMPOSITE)

    @pytest.mark.parametrize("bad", [-1, 19, 100])
    def test_range_errors(self, bad):
        with pytest.raises(ValueError):
            fermat_status(bad)


class TestStructuredPrimes:
    def test_examples(self):
        assert [sp.value for sp in gen_structured_primes(6, 7)] == [3, 5, 7, 13, 17, 97, 193]
        assert [sp.value for sp in gen_structured_primes(1, 4)] == [3, 5, 17]
        assert [sp.value for sp in gen_structured_primes(1, 1)] == [3]

    def test_shape_invariants(self):
        for n, e_max in ((6, 7), (45, 12), (64, 10), (100, 16)):
            values = []
            for sp in gen_structured_primes(n, e_max):
                assert sp.m % 2 == 1 and n % sp.m == 0
                assert 1 <= sp.e <= e_max
                assert sp.value == sp.m * 2**sp.e + 1
                assert is_prime(sp.value).is_prime
                values.append(sp.value)
            assert values == sorted(set(values))

    def test_predecessor_divides_budget(self):
        n, e_max = 12, 9
        for sp in gen_structured_primes(n, e_max):
            assert (n * 2**e_max) % (sp.value - 1) == 0


class TestTwoThreePrimes:
    def test_examples(self):
        assert [tp.value for tp in gen_two_three_primes(20)] == [2, 3, 5, 7, 13, 17, 19]
        assert [tp.value for tp in gen_two_three_primes(2)] == [2]
        big = {tp.value for tp in gen_two_three_primes(1300)}
        assert {433, 487, 577, 769, 1153, 1297} <= big

    def test_exponent_fields(self):
        for tp in gen_two_three_primes(2000):
            assert tp.value == 2**tp.a * 3**tp.b + 1

    def test_against_smooth_filter_oracle(self):
        # independent oracle: sieve primes, keep p with p-1 having no prime
        # factor other than 2 and 3
        limit = 20_000
        flags = sieve_flags(limit)
        expected = []
        for p in range(2, limit + 1):
            if not flags[p]:
                continue
            m = p - 1
            while m % 2 == 0:
                m //= 2
            while m % 3 == 0:
                m //= 3
            if m == 1:
                expected.append(p)
        assert [tp.value for tp in gen_two_three_primes(limit)] == expected
