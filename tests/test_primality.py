from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullen_lehmer import (
    COMPOSITE,
    NOT_PRIME,
    PRIME,
    PROBABLE_PRIME,
    cullen,
    fermat_status,
    is_prime,
    lehmer_constrained_factor,
    odd_divisors,
    proth_test,
    two_three_product_bound,
)
from cullen_lehmer.primality import (
    _MR_BASES,
    DETERMINISTIC_LIMIT,
    PROTH_BASE_CAP,
    SMALL_PRIMES,
    SPECIAL_FORM_BITS,
    _mr_composite_witness,
    _prime_product,
    _proth_pow,
    _sieve,
    _small_factor,
    _small_prime_divisors,
    _strong_lucas_prp,
    structured_verdict,
)


def sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


class TestPrimeTables:
    """The sieve and the prime products that the small-factor screen is
    built on, against plain arithmetic."""

    def test_sieve_equals_trial_division(self):
        def prime(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert _sieve(3000) == tuple(n for n in range(3001) if prime(n))

    @pytest.mark.parametrize("bound, count", [(2000, 303), (10_000, 1229), (100_000, 9592)])
    def test_prime_product_is_the_product(self, bound, count):
        assert len(_sieve(bound)) == count
        assert _prime_product(bound) == prod(_sieve(bound))


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


class TestBailliePSW:
    """Above DETERMINISTIC_LIMIT: Miller-Rabin to base 2, then the strong
    Lucas test with Selfridge's parameters."""

    # the strong Lucas pseudoprimes below 10^5 (OEIS A217255)
    LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                          40309, 58519, 75077, 97439)
    MERSENNE_EXPONENTS = (89, 107, 127, 521, 607, 1279)

    def test_strong_lucas_pseudoprimes_pass(self):
        for x in self.LUCAS_PSEUDOPRIMES:
            assert _strong_lucas_prp(x), x
            assert is_prime(x).is_composite, x

    def test_odd_primes_pass(self):
        flags = sieve_flags(20_000)
        for x in range(3, 20_001, 2):
            if flags[x]:
                assert _strong_lucas_prp(x), x

    def test_composite_mersenne_numbers(self):
        # for prime p, 2 has order p modulo 2^p - 1 and p divides
        # 2^(p-1) - 1, so every composite 2^p - 1 is a strong pseudoprime
        # to base 2; those with no prime factor below the screen bound
        # reach the Lucas test, which alone finds them composite
        reached = 0
        for p in _sieve(1279):
            if p < 89:
                continue
            N = 2**p - 1
            v = is_prime(N)
            if p in self.MERSENNE_EXPONENTS:
                assert v.status == PROBABLE_PRIME and v.method == "probabilistic-mr", p
                continue
            assert not _mr_composite_witness(2, (N - 1) // 2, 1, N), p
            assert v.is_composite, p
            if v.method == "probabilistic-mr":
                assert v.witness is None, p
                reached += 1
        assert reached == 133  # of 178; 45 have a prime factor the screen finds

    def test_base_two_witness(self):
        # a product of two primes above 2000 whose base-2 Miller-Rabin fails
        N = (2**89 - 1) * (2**107 - 1)
        v = is_prime(N)
        assert v.is_composite and v.method == "probabilistic-mr" and v.witness == 2

    @pytest.mark.parametrize("x", [1093**2, 3511**2, (2**89 - 1) ** 2])
    def test_squares_rejected(self, x):
        # no D has (D/x) = -1 for a square, so the search must not start
        assert not _strong_lucas_prp(x)


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

    def test_cullen_4713_certificate_in_special_form(self):
        c = cullen(4713)
        assert c.value.bit_length() >= SPECIAL_FORM_BITS
        v = proth_test(c.n1, c.n2)
        assert v.is_prime and v.method == "proth" and v.witness == 5
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


class TestSpecialForm:
    @given(st.integers(min_value=1, max_value=2000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_proth_pow_equals_pow(self, s, data):
        k = 2 * data.draw(st.integers(min_value=0, max_value=(1 << min(s, 20)) // 2 - 1)) + 1
        M = (k << s) + 1
        a = data.draw(st.one_of(st.sampled_from([0, 1, M - 1]),
                                st.integers(min_value=0, max_value=2 * M)))
        e = data.draw(st.integers(min_value=0, max_value=(1 << (4 * s)) - 1))
        assert _proth_pow(a, e, k, s) == pow(a, e, M)

    def test_proth_pow_edges(self):
        # (M-1)^2 = 1 is the largest product reduced; it leaves r = -q with
        # q = M-1, the most negative residue before the correction
        for k, s in ((1, 1), (1, 64), (3, 5), (2**20 - 1, 40), (13, 700)):
            M = (k << s) + 1
            for a in (0, 1, 2, M - 2, M - 1):
                for e in (0, 1, 2, 3, M - 2, M - 1, 4 * M):
                    assert _proth_pow(a, e, k, s) == pow(a, e, M), (k, s, a, e)

    @staticmethod
    def listed_divisors(n):
        """C(n), its structured divisors and the search's leftover cofactor."""
        r = lehmer_constrained_factor(n)
        listed = {cullen(n).value, r.factorization.cofactor}
        listed |= {sp.value for sp in r.structured_divisors}
        return sorted(listed - {1})

    def test_within_keeps_every_verdict(self):
        # the verdict, witness base included, whatever route it takes
        for n in range(1, 701):
            c = cullen(n)
            for N in self.listed_divisors(n):
                assert is_prime(N, within=(c.n1, c.n2)) == is_prime(N), (n, N)

    def test_special_form_miller_rabin_per_base(self):
        # every listed divisor for which is_prime takes the special form,
        # base by base against pow modulo N itself
        checked = 0
        for n in range(1, 701):
            c = cullen(n)
            for N in self.listed_divisors(n):
                if N.bit_length() < SPECIAL_FORM_BITS:
                    continue
                d, s = N - 1, 0
                while d % 2 == 0:
                    d //= 2
                    s += 1
                for a in _MR_BASES:
                    special = _mr_composite_witness(a, d, s, N, (c.n1, c.n2))
                    assert special == _mr_composite_witness(a, d, s, N), (n, N, a)
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize("n, special", [(141, False), (609, True)])
    def test_within_route(self, n, special, monkeypatch):
        # C(609), 619 bits, has no prime factor below 10^5: from
        # SPECIAL_FORM_BITS on, Miller-Rabin with within runs in special
        # form; below it, and without within, pow modulo N runs instead
        import cullen_lehmer.primality as primality

        used = []

        def counted(*args):
            used.append(args[1:])
            return _proth_pow(*args)

        monkeypatch.setattr(primality, "_proth_pow", counted)
        c = cullen(n)
        assert (c.value.bit_length() >= SPECIAL_FORM_BITS) == special
        plain = is_prime(c.value)
        assert not used
        assert is_prime(c.value, within=(c.n1, c.n2)) == plain
        assert bool(used) == (special and plain.method == "probabilistic-mr")
        assert all(args[1:] == (c.n1, c.n2) for args in used)

    @pytest.mark.parametrize("N, within", [
        (7, (3, 5)),      # 97 = 3*2^5 + 1 is prime
        (0, (3, 5)),
        (97, (0, 5)),
        (97, (3, 0)),
        (cullen(700).value + 2, (cullen(700).n1, cullen(700).n2)),
    ])
    def test_within_must_divide(self, N, within):
        with pytest.raises(ValueError):
            is_prime(N, within=within)

    def test_screen_equals_trial_division(self):
        # the gcd screen against plain division, at both of _small_factor's
        # bounds; C(1) = 3 checks that N itself is no factor
        for bound in (2000, 100_000):
            primes = _sieve(bound)
            for n in range(1, 1501):
                value = cullen(n).value
                plain = [p for p in primes if value % p == 0]
                assert list(_small_prime_divisors(value, bound)) == plain, (n, bound)
                if (value.bit_length() >= SPECIAL_FORM_BITS) == (bound == 100_000):
                    least = next((p for p in plain if p < value), None)
                    assert _small_factor(value) == least, n

    def test_scan_stops_when_the_gcd_is_used_up(self, monkeypatch):
        # each prime divided out of the gcd shrinks it, so for N = 30 the
        # scan draws 2, 3, 5 and then 7, where nothing is left, instead of
        # all 9,592 primes below 10^5
        import cullen_lehmer.primality as primality

        primality._prime_product(100_000)  # built here, not from the counted sieve
        real, drawn = primality._sieve, []

        def counted(limit):
            for p in real(limit):
                drawn.append(p)
                yield p

        monkeypatch.setattr(primality, "_sieve", counted)
        assert list(_small_prime_divisors(30, 100_000)) == [2, 3, 5]
        assert drawn == [2, 3, 5, 7]

    @pytest.mark.parametrize("n, least, bounds", [
        (141, None, [2000]),             # 155 bits, prime: no second stage
        (590, 3, [2000]),                # 600 bits
        (600, 601, [2000]),
        (612, 31, [2000]),
        (609, None, [2000, 100_000]),    # 619 bits, no prime below 10^5
    ])
    def test_screen_stages(self, n, least, bounds, monkeypatch):
        # the product of the primes up to 2000 first; the one up to 10^5
        # only from SPECIAL_FORM_BITS on, when the first finds no prime
        import cullen_lehmer.primality as primality

        asked = []
        real = primality._prime_product

        def recorded(bound):
            asked.append(bound)
            return real(bound)

        monkeypatch.setattr(primality, "_prime_product", recorded)
        assert _small_factor(cullen(n).value) == least
        assert asked == bounds

    def test_screen_hit_factor_is_prime(self):
        # the gcd is N itself when every prime of N lies in the screen
        # range; the verdict names a prime of it, not N
        N = 1
        for p in _sieve(3000)[303:]:
            N *= p
        assert N.bit_length() >= SPECIAL_FORM_BITS
        v = is_prime(N)
        assert v.is_composite and v.method == "trial" and v.factor == 2003


class TestFermat:
    def test_f5_composite_by_trial_division(self):
        f5 = 2**32 + 1
        assert f5 == 4294967297
        assert f5 % 641 == 0 and f5 // 641 == 6700417
        assert is_prime(f5).is_composite

    def test_status_table(self):
        assert fermat_status(4).status == PRIME
        st5 = fermat_status(5)
        assert st5.status == COMPOSITE and st5.factor == 641
        st6 = fermat_status(6)
        assert st6.factor == 274177 and (2**64 + 1) % 274177 == 0
        assert fermat_status(19).factor == 70525124609
        for g in range(20):
            st = fermat_status(g)
            assert st.status == (PRIME if g <= 4 else COMPOSITE)
            if g > 4:  # a nontrivial factor, divided out with plain integers
                assert 1 < st.factor < 2 ** 2**g + 1 and (2 ** 2**g + 1) % st.factor == 0

    @pytest.mark.parametrize("bad", [-1, 20, 100])
    def test_range_errors(self, bad):
        with pytest.raises(ValueError):
            fermat_status(bad)


def structured_primes(n, e_max):
    """The primes m*2^e + 1 with m an odd divisor of n and 1 <= e <= e_max,
    ascending, as structured_verdict decides them."""
    return sorted((m << e) + 1 for m in odd_divisors(n) for e in range(1, e_max + 1)
                  if structured_verdict(m, e).is_prime)


class TestStructuredPrimes:
    def test_examples(self):
        assert structured_primes(6, 7) == [3, 5, 7, 13, 17, 97, 193]
        assert structured_primes(1, 4) == [3, 5, 17]
        assert structured_primes(1, 1) == [3]

    def test_shape_invariants(self):
        # decisive on every form, by Proth (m < 2^e) or Miller-Rabin, and
        # the representation with m odd is unique
        for n, e_max in ((6, 7), (45, 12), (64, 10), (100, 16)):
            values = []
            for m in odd_divisors(n):
                for e in range(1, e_max + 1):
                    verdict = structured_verdict(m, e)
                    assert verdict.value == m * 2**e + 1
                    assert verdict.status in (PRIME, COMPOSITE)
                    assert verdict.is_prime == is_prime(verdict.value).is_prime
                    values.append(verdict.value)
            assert len(values) == len(set(values))

    def test_predecessor_divides_budget(self):
        n, e_max = 12, 9
        for p in structured_primes(n, e_max):
            assert (n * 2**e_max) % (p - 1) == 0


class TestTwoThreePrimes:
    """The primes 2^a*3^b + 1 that the smooth-prime product walks, 2 and 3
    excluded."""

    def test_examples(self):
        assert two_three_product_bound(20).primes_used == (5, 7, 13, 17, 19)
        big = set(two_three_product_bound(1300).primes_used)
        assert {433, 487, 577, 769, 1153, 1297} <= big

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
        # the product leaves out 2 and 3
        assert list(two_three_product_bound(limit).primes_used) == expected[2:]
        assert expected[:2] == [2, 3]
