import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullen_lehmer import CullenNumber, cullen, odd_divisors, v2


def brute_odd_divisors(n):
    """Divisor scan up to sqrt(n), independent of the factorization route."""
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            for q in (d, n // d):
                if q % 2 == 1:
                    out.add(q)
        d += 1
    return sorted(out)


class TestCullen:
    def test_worked_examples(self):
        c1 = cullen(1)
        assert (c1.value, c1.alpha, c1.n1, c1.n2) == (3, 0, 1, 1)
        c6 = cullen(6)
        assert (c6.value, c6.alpha, c6.n1, c6.n2) == (385, 1, 3, 7)
        assert 3 * 2**7 + 1 == 385
        assert cullen(10).value == 10241

    @pytest.mark.parametrize("n", [1, 6, 141, 4713])
    def test_value_built_once_on_first_use(self, n):
        c = cullen(n)
        assert "value" not in vars(c)
        assert c.value == n * 2**n + 1
        assert c.value is c.value
        again = pickle.loads(pickle.dumps(c))
        assert again.value == c.value and again == c

    def test_index_is_the_only_field(self):
        with pytest.raises(TypeError):
            CullenNumber(6, 1, 3, 7, 385)

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            cullen(bad)

    def test_congruence_invariants(self):
        # value = 1 mod 2^n always, and 1 mod n for n > 1
        for n in range(1, 10_001):
            c = cullen(n)
            assert c.value & ((1 << n) - 1) == 1
            if n > 1:
                assert c.value % n == 1

    def test_decomposition_round_trip(self):
        for n in range(1, 10_001):
            c = cullen(n)
            assert c.n1 << c.alpha == n
            assert c.n1 % 2 == 1
            assert c.value == c.n1 * 2**c.n2 + 1

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200)
    def test_decomposition_property(self, n):
        c = cullen(n)
        assert c.n1 << c.alpha == n
        assert c.value == n * 2**n + 1 == c.n1 * 2**c.n2 + 1


class TestOddDivisors:
    def test_examples(self):
        assert odd_divisors(1) == [1]
        assert odd_divisors(6) == [1, 3]
        assert odd_divisors(45) == [1, 3, 5, 9, 15, 45]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            odd_divisors(0)

    def test_brute_force_cross_check(self):
        for n in range(1, 10_001):
            assert odd_divisors(n) == brute_odd_divisors(n), n

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150)
    def test_matches_brute_force_property(self, n):
        assert odd_divisors(n) == brute_odd_divisors(n)


def test_v2():
    assert v2(1) == 0
    assert v2(40) == 3
    assert v2(1 << 31) == 31
    with pytest.raises(ValueError):
        v2(0)
