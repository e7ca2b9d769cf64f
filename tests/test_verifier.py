import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cullen_lehmer import (
    PRIME,
    FalsificationError,
    FermatStatus,
    PigeonholePair,
    StructuredPrime,
    a_expression,
    cascade_verify,
    cullen,
    divisibility_check,
    fermat_binary_obstruction,
    k_lower,
    k_upper,
    lehmer_constrained_factor,
    pigeonhole_pair,
    two_three_product_bound,
)
import cullen_lehmer.verifier as verifier
from cullen_lehmer.certified import (
    ceil_certified, enclose, floor_certified, ln_i, sqrt_i, surely_le, surely_lt,
)
from cullen_lehmer.factoring import VERDICT_PRIME
from cullen_lehmer.primality import DETERMINISTIC_LIMIT
from cullen_lehmer.verifier import _check_numerator_bound, _pair_limits, check_pair_bounds


def box_of(n):
    """The certified enclosure of sqrt(n/ln n) behind the pair's N."""
    _, box = floor_certified(lambda: sqrt_i(enclose(n) / ln_i(n)))
    return box


def combo_bound_of(n):
    """The enclosure of 3*sqrt(n ln n) behind the pair's combo bound."""
    return 3 * sqrt_i(enclose(n) * ln_i(n))


def exact(endpoint):
    """An interval endpoint as the exact rational it stores."""
    sign, man, exp, _ = endpoint._mpi_[0]
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def exponent_of(n):
    """The certified enclosure of 6*sqrt(n ln n) behind the numerator bound."""
    _, exp = ceil_certified(lambda: 6 * sqrt_i(enclose(n) * ln_i(n)))
    return exp


def oracle_pair(n, np_):
    """Brute-force closest-pair search over the full grid, written against
    plain floats and itertools rather than the library's enclosure walk."""
    N = math.floor(math.sqrt(n / math.log(n)))
    frac = math.sqrt(n / math.log(n)) % 1.0
    assert min(frac, 1 - frac) > 1e-9, "floor ambiguity; oracle unsound here"
    pts = [(a, b) for a in range(N + 1) for b in range(N + 1)]
    best_score = None
    cands = []
    for p1, p2 in itertools.combinations(pts, 2):
        u, v = p2[0] - p1[0], p2[1] - p1[1]
        score = abs(u * n + v * np_)
        if best_score is None or score < best_score:
            best_score, cands = score, []
        if score == best_score:
            if u < 0 or (u == 0 and v < 0):
                u, v = -u, -v
            g = gcd(abs(u), abs(v))
            cands.append((u // g, v // g))
    u, v = min(cands, key=lambda t: (t[0], abs(t[1]), t[1]))
    return u, v


class TestKBounds:
    def test_constant_is_safe(self):
        # 1/ln 2 + 1/ln 3 = 2.3529... < 2.4 is what makes the simplified
        # bound valid at all
        value = 1 / math.log(2) + 1 / math.log(3)
        assert 2.35 < value < 2.4

    def test_upper_examples(self):
        ku = k_upper(600_000)
        assert float(ku.exact.b) < float(ku.simplified.a) + 1e-9
        # ln(6*10^5)/ln 3 = 12.1104...
        assert abs(math.log(600_000) / math.log(3) - 12.1104) < 5e-5
        assert abs(math.log(122_000) / math.log(3) - 10.6605) < 5e-5

    def test_exact_below_simplified_everywhere(self):
        for n in (2, 3, 10, 30, 1000, 93_000, 600_000, 10**9):
            ku = k_upper(n)
            assert ku.exact.b <= ku.simplified.a

    def test_upper_rejects_small(self):
        with pytest.raises(ValueError):
            k_upper(1)

    def test_lower_examples(self):
        kl = k_lower(93_000)
        assert 15 < float(kl.a) < 15.05
        kl = k_lower(122_000)
        assert 17 < float(kl.a) < 17.02
        kl6 = k_lower(600_000)
        ku6 = k_upper(600_000)
        assert 35.3 < float(kl6.a) < 35.5
        assert kl6.a > ku6.simplified.b  # the crossing itself

    def test_lower_rejects_below_regime(self):
        with pytest.raises(ValueError):
            k_lower(29)


class TestPigeonholePair:
    def test_symmetric_case(self):
        pair = pigeonhole_pair(100, 100)
        assert (pair.u, pair.v, pair.combo) == (1, -1, 0)

    def test_worked_case(self):
        pair = pigeonhole_pair(40, 11)
        assert (pair.u, pair.v, pair.combo) == (1, -3, 7)
        assert abs(pair.combo) < 3 * math.sqrt(40 * math.log(40))
        assert max(abs(pair.u), abs(pair.v)) <= math.sqrt(40 / math.log(40))

    def test_extended_domain_small_case(self):
        # grid {0,1}^2 for n=6: closest distinct points differ by 1 in L,
        # e.g. L(0,0)=0 and L(0,1)=1, giving the reduced pair (0, 1)
        pair = pigeonhole_pair(6, 1)
        assert (pair.u, pair.v, pair.combo) == (0, 1, 1)

    def test_matches_oracle_sample(self):
        for n in range(30, 61):
            for np_ in range(1, n + 1):
                pair = pigeonhole_pair(n, np_)
                assert (pair.u, pair.v) == oracle_pair(n, np_), (n, np_)

    @pytest.mark.parametrize("n, np_, expected", [
        (93000, 46500, (1, -2, 0)),
        (100000, 77777, (7, -9, 7)),
        (599999, 299999, (1, -2, 1)),
        (600000, 1, (0, 1, 1)),
        (2000000, 12345, (1, -162, 110)),
        (100000000, 12345, (0, 1, 12345)),
    ], ids=["93000-46500", "100000-77777", "599999-299999", "600000-1", "2000000-12345",
            "100000000-12345"])
    def test_cascade_regime_pairs(self, n, np_, expected):
        # cascade-regime indices, beyond the reach of the n <= 500 oracle
        pair = pigeonhole_pair(n, np_)
        assert (pair.u, pair.v, pair.combo) == expected

    def test_memory_does_not_grow_with_n(self):
        # the box has about 2*N^2 = 270,000 vectors here; none are held
        pigeonhole_pair(2000000, 12345)  # warm-up: imports and interval caches
        tracemalloc.start()
        try:
            pigeonhole_pair(2000000, 12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @given(
        st.integers(min_value=30, max_value=500),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants_property(self, n, data):
        np_ = data.draw(st.integers(min_value=1, max_value=n))
        pair = pigeonhole_pair(n, np_)
        assert (pair.u, pair.v) != (0, 0)
        assert gcd(abs(pair.u), abs(pair.v)) == 1
        assert pair.combo == pair.u * n + pair.v * np_
        check_pair_bounds(pair)  # raises on a violation

    def test_pairs_golden_digest(self):
        # every pair for 30 <= n <= 210, hashed as taken before the bounds
        # were computed once per index
        digest = hashlib.sha256()
        for n in range(30, 211):
            for np_ in range(1, n + 1):
                pair = pigeonhole_pair(n, np_)
                digest.update(f"{n} {np_} {pair.u} {pair.v} {pair.combo}\n".encode())
        assert digest.hexdigest() == (
            "c4fc01dae6532a607d3f3865f83627ab6c0c4d259a47510904a312dfc0d73102"
        )

    @given(st.integers(min_value=30, max_value=10**6))
    @example(10**8)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_integer_limits_are_the_certified_bounds(self, n):
        # an integer compared against N and cap gets the verdict that the
        # certified comparison against the enclosure gives
        N, cap = _pair_limits(n)
        box, bound = box_of(n), combo_bound_of(n)
        assert N == math.floor(exact(box.a)) == math.floor(exact(box.b))
        assert cap == math.ceil(exact(bound.a))
        for k in (N, N + 1):
            assert (k <= N) == surely_le(k, box)
        for c in (cap - 1, cap):
            assert (c < cap) == surely_lt(c, bound)

    def test_limits_built_once_per_index(self, monkeypatch):
        calls = []

        def counted(enclosure):
            calls.append(enclosure)
            return floor_certified(enclosure)

        monkeypatch.setattr(verifier, "floor_certified", counted)
        _pair_limits.cache_clear()
        for np_ in range(1, 201):
            pigeonhole_pair(200, np_)
        assert len(calls) == 1

    def test_limits_memo_is_bounded(self):
        for n in range(30, 1030):
            pigeonhole_pair(n, 1)
        info = _pair_limits.cache_info()
        assert info.currsize <= info.maxsize

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            pigeonhole_pair(1, 1)
        with pytest.raises(ValueError):
            pigeonhole_pair(50, 0)
        with pytest.raises(ValueError):
            pigeonhole_pair(50, 51)

    def test_pair_type_validation(self):
        with pytest.raises(ValueError):
            PigeonholePair(40, 11, 0, 0)
        with pytest.raises(ValueError):
            PigeonholePair(40, 11, 2, -6)  # not coprime
        with pytest.raises(ValueError):
            PigeonholePair(40, 11, -1, 3)  # sign normalization


class TestCertifiedChecks:
    def test_pair_outside_the_box_raises(self):
        pair = PigeonholePair(40, 11, 5, -18)  # |v| = 18 > sqrt(40/ln 40) = 3.29...
        with pytest.raises(FalsificationError, match="box bound"):
            check_pair_bounds(pair)

    def test_pair_with_large_combo_raises(self):
        pair = PigeonholePair(40, 11, 1, 0)  # 40 > 3*sqrt(40 ln 40) = 36.4...
        with pytest.raises(FalsificationError, match="combo"):
            check_pair_bounds(pair)

    @pytest.mark.parametrize("pair, match", [
        (PigeonholePair(40, 13, 1, -3), None),         # |v| = 3 = N
        (PigeonholePair(40, 10, 1, -4), "box bound"),  # |v| = 4 = N + 1
        (PigeonholePair(40, 4, 1, -1), None),         # 36 < 36.44...
        (PigeonholePair(40, 3, 1, -1), "combo"),      # 37 = cap
    ])
    def test_bounds_at_their_integer_edges(self, pair, match):
        if match is None:
            check_pair_bounds(pair)
        else:
            with pytest.raises(FalsificationError, match=match):
                check_pair_bounds(pair)

    def test_numerator_bound_tiers(self):
        # at n = 40 the exponent 6*sqrt(n ln n) is 72.88...
        exp = exponent_of(40)
        assert 72.88 < float(exp.a) and float(exp.b) < 72.89
        with pytest.raises(FalsificationError, match="1001 bits"):
            _check_numerator_bound(2**1000, 40, exp)  # decided by bit length
        # 73 bits, so only the exact log2 decides: 72.0... and 72.58...
        _check_numerator_bound(2**72 + 1, 40, exp)
        _check_numerator_bound(3 * 2**71, 40, exp)
        for numerator in (2**73 - 1, -(2**73 - 1)):  # log2 is 72.99...
            with pytest.raises(FalsificationError, match="ambiguous"):
                _check_numerator_bound(numerator, 40, exp)

    def test_rounding_returns_the_certifying_enclosure(self):
        # both endpoints of the returned enclosure round to the integer
        N, box = floor_certified(lambda: sqrt_i(enclose(40) / ln_i(40)))
        assert N == 3 == math.floor(box.a) == math.floor(box.b)
        e, exp = ceil_certified(lambda: 6 * sqrt_i(enclose(40) * ln_i(40)))
        assert e == 73 == math.ceil(exp.a) == math.ceil(exp.b)

    @pytest.mark.parametrize("rounding, sign, expected", [
        (floor_certified, -1, 2**60 - 1), (ceil_certified, 1, 2**60 + 1),
    ], ids=["floor", "ceil"])
    def test_rounding_exact_past_double_precision(self, rounding, sign, expected):
        # 2^60 -+ 1/3 lies within 2^-53 of 2^60 relatively, so a read of the
        # endpoints at 53 bits would give 2^60
        from mpmath import iv

        assert rounding(lambda: iv.mpf(2)**60 + sign * iv.mpf(1) / 3)[0] == expected

    @pytest.mark.parametrize("call, expected", [
        (lambda: pigeonhole_pair(40, 11), {"ln_i": 2, "sqrt_i": 2}),
        (lambda: a_expression(40, 5, 3, 1, -3), {"ln_i": 1, "sqrt_i": 1}),
        (lambda: cascade_verify(10_000), {"ln_i": 21, "sqrt_i": 6}),
    ], ids=["pigeonhole_pair", "a_expression", "cascade_verify"])
    def test_each_enclosure_built_once(self, call, expected, monkeypatch):
        # a certified rounding hands back its enclosure, so no call
        # evaluates the same bound a second time
        counts = dict.fromkeys(expected, 0)
        _pair_limits.cache_clear()  # else an earlier call for n = 40 counts 0
        for name in expected:
            def counted(*args, _real=getattr(verifier, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(verifier, name, counted)
        call()
        assert counts == expected


class TestAExpression:
    def test_u1_v0_reproduces_cullen(self):
        for n in (2, 6, 17):
            expr = a_expression(n, 1, 1, 1, 0)
            assert expr.value == cullen(n).value

    def test_worked_examples(self):
        expr = a_expression(6, 3, 1, 1, -1)
        assert expr.value == Fraction(63)
        assert expr.numerator == 63
        assert 63 % 7 == 0  # 7 = 3*2^1 + 1 divides C(6)
        expr2 = a_expression(6, 1, 2, 1, -1)
        assert expr2.value == Fraction(95)
        assert expr2.numerator == 95
        assert 95 % 5 == 0  # 5 = 1*2^2 + 1 divides C(6)

    def test_fractional_values_keep_exact_numerator(self):
        expr = a_expression(6, 3, 7, 0, -1)  # 1/(3*2^7) - (-1) = 385/384
        assert expr.value == Fraction(385, 384)
        assert expr.numerator == 385

    def test_zero_raises(self):
        # the degenerate case where C(n) itself is the structured prime
        with pytest.raises(FalsificationError):
            a_expression(1, 1, 1, 1, -1)

    def test_numerator_bound_field(self):
        expr = a_expression(40, 5, 3, 1, -3)
        assert abs(expr.numerator) < expr.numerator_bound
        bound_exp = 6 * math.sqrt(40 * math.log(40))
        assert expr.numerator_bound == 2 ** math.ceil(bound_exp)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            a_expression(6, 2, 1, 1, -1)  # even m_p
        with pytest.raises(ValueError):
            a_expression(6, 5, 1, 1, -1)  # m_p does not divide n
        with pytest.raises(ValueError):
            a_expression(6, 3, 1, -1, 1)  # negative u
        with pytest.raises(ValueError):
            a_expression(6, 3, 1, 0, 0)


class TestDivisibilityCheck:
    def test_worked_examples(self):
        pair = PigeonholePair(6, 1, 1, -1)
        assert divisibility_check(6, StructuredPrime(3, 1), pair)
        pair2 = PigeonholePair(6, 2, 1, -1)
        assert divisibility_check(6, StructuredPrime(1, 2), pair2)
        pair3 = PigeonholePair(2, 1, 1, 0)
        assert divisibility_check(2, StructuredPrime(1, 1), pair3)

    def test_generated_pairs_for_structured_factors(self):
        for n in range(2, 41):
            result = lehmer_constrained_factor(n)
            if result.verdict == VERDICT_PRIME:
                continue
            for sp in result.structured_divisors:
                pair = pigeonhole_pair(n, sp.e)
                assert divisibility_check(n, sp, pair), (n, sp)

    def test_rejects_non_divisor(self):
        pair = PigeonholePair(6, 1, 1, -1)
        with pytest.raises(ValueError):
            divisibility_check(6, StructuredPrime(3, 1), PigeonholePair(7, 1, 1, -1))
        with pytest.raises(ValueError):
            divisibility_check(6, StructuredPrime(1, 1), pair)  # 3 does not divide 385


class TestBinaryObstruction:
    def test_small_products(self):
        assert fermat_binary_obstruction({0, 1})
        assert (3 * 5) == 15 and bin(15).count("1") == 4
        assert fermat_binary_obstruction({2, 4})
        assert 17 * 65537 == 1114129 and bin(1114129).count("1") == 4

    def test_all_subsets_of_known_fermat_primes(self):
        gammas = [0, 1, 2, 3, 4]
        count = 0
        for size in range(2, 6):
            for subset in itertools.combinations(gammas, size):
                assert fermat_binary_obstruction(subset)
                product = 1
                for g in subset:
                    product *= 2 ** (2**g) + 1
                assert bin(product).count("1") == 2 ** len(subset)
                count += 1
        assert count == 26

    def test_rejects_small_sets(self):
        with pytest.raises(ValueError):
            fermat_binary_obstruction({3})
        with pytest.raises(ValueError):
            fermat_binary_obstruction([2, 2])


class TestTwoThreeProduct:
    def test_partial_products(self):
        pb8 = two_three_product_bound(8)
        assert pb8.partial_product == Fraction(35, 24)
        pb20 = two_three_product_bound(20)
        assert pb20.partial_product == Fraction(146965, 82944)
        assert abs(float(pb20.partial_product) - 1.7719) < 1e-4

    def test_monotone_and_below_two(self):
        previous_partial = Fraction(0)
        previous_total = None
        for cap in (1000, 2000, 10_000, 100_000):
            pb = two_three_product_bound(cap)
            assert pb.partial_product >= previous_partial
            assert pb.total_upper < 2 and pb.below_two
            if previous_total is not None:
                # the certified total can only tighten as the cap grows
                assert pb.total_upper <= previous_total
            previous_partial, previous_total = pb.partial_product, pb.total_upper

    def test_tail_bound_dominates_partial_tail_sums(self):
        # the tail bound must exceed any finite chunk of the true tail
        cap = 1000
        pb = two_three_product_bound(cap)
        chunk = Fraction(0)
        for a in range(0, 30):
            for b in range(0, 20):
                s = 2**a * 3**b
                if cap - 1 < s <= 100 * cap:
                    chunk += Fraction(1, s)
        assert pb.tail_bound > chunk

    def test_discrepancy_flag(self):
        pb = two_three_product_bound(1000)
        assert pb.cited_bound == Fraction(146, 100)
        assert pb.exceeds_cited_bound  # 35/24 * 13/12 alone is above 1.46
        assert Fraction(35, 24) * Fraction(13, 12) > pb.cited_bound

    def test_rejects_tiny_cap(self):
        # below 5 the tail bound is at least 1, outside exp_upper's domain
        for cap in (1, 2, 3, 4):
            with pytest.raises(ValueError):
                two_three_product_bound(cap)

    def test_rejects_cap_past_the_deterministic_limit(self):
        # above the limit a listed prime could only be called probable
        with pytest.raises(ValueError):
            two_three_product_bound(DETERMINISTIC_LIMIT + 1)


@pytest.fixture(scope="module")
def cascade():
    return cascade_verify(100_000)


class TestCascade:
    def test_all_stages_pass(self, cascade):
        assert cascade.passed
        assert cascade.final_verdict == "contradiction established"
        assert [s.name for s in cascade.stages] == [
            "k-crossing",
            "fermat-exponent-cap",
            "fermat-prime-count",
            "k<=17",
            "n<122000",
            "k<=15",
            "n<93000",
            "3-divides-n",
            "n-is-2a3b",
            "product-contradiction",
        ]

    def test_printed_decimals(self, cascade):
        by_name = {s.name: s for s in cascade.stages}
        assert by_name["k<=17"].data["printed_decimal_within_5e-5"]
        assert by_name["k<=17"].data["k_cap"] == 17
        assert by_name["k<=15"].data["printed_decimal_within_5e-5"]
        assert by_name["k<=15"].data["k_cap"] == 15
        assert by_name["n-is-2a3b"].data["printed_decimal_within_5e-5"]
        assert by_name["n-is-2a3b"].data["floor"] == 9

    def test_fermat_stage_details(self, cascade):
        by_name = {s.name: s for s in cascade.stages}
        cap_stage = by_name["fermat-exponent-cap"]
        assert cap_stage.data["computed_cap"] == 19
        count_stage = by_name["fermat-prime-count"]
        assert count_stage.data["prime_gammas"] == [0, 1, 2, 3, 4]
        factors = count_stage.data["verified_factors"]
        assert list(factors) == list(range(5, 20))
        assert factors[5] == 641 and factors[6] == 274177 and factors[19] == 70525124609

    def test_stages_carry_the_fermat_count(self, monkeypatch):
        # one more Fermat prime raises every count that the later stages
        # take from the fermat-prime-count stage, and the chain breaks
        real = verifier.fermat_status

        def five_is_prime(gamma):
            return FermatStatus(5, PRIME, None) if gamma == 5 else real(gamma)

        monkeypatch.setattr(verifier, "fermat_status", five_is_prime)
        broken = cascade_verify(1000)
        by_name = {s.name: s for s in broken.stages}
        assert by_name["fermat-prime-count"].data["prime_gammas"] == [0, 1, 2, 3, 4, 5]
        assert by_name["k<=17"].data["k_cap"] == 18
        assert not by_name["n<122000"].passed  # k_lower(122000) is about 17.02
        assert by_name["k<=15"].data["k_cap"] == 16
        assert by_name["3-divides-n"].data["k_cap_if_3_absent"] == 13
        assert by_name["n-is-2a3b"].data["fermat_primes_available"] == 5
        assert by_name["n-is-2a3b"].data["k_cap_if_q_present"] == 14
        assert not by_name["n-is-2a3b"].passed
        assert not broken.passed and broken.final_verdict == "FALSIFIED"

    def test_branch_counts_stay_below_14(self, cascade):
        by_name = {s.name: s for s in cascade.stages}
        assert by_name["3-divides-n"].data["k_cap_if_3_absent"] == 12 < 14
        assert by_name["n-is-2a3b"].data["k_cap_if_q_present"] == 13 < 14

    def test_report_schema(self, cascade):
        # stage names and data keys, in order: the body of `bounds` is
        # these dicts serialized as they stand
        ln3_recount = ["printed_decimal", "printed_decimal_within_5e-5", "floor", "k_cap"]
        assert [(s.name, list(s.data)) for s in cascade.stages] == [
            ("k-crossing", [
                "k_lower_at_600000", "k_upper_simplified_at_600000",
                "k_upper_exact_at_600000", "ratio_increasing_beyond",
                "shape_constant_1/ln2+1/ln3",
            ]),
            ("fermat-exponent-cap", ["computed_cap", "cited_cap", "cap_note"]),
            ("fermat-prime-count", ["prime_gammas", "verified_factors"]),
            ("k<=17", ["ln(600000)/ln(3)", *ln3_recount]),
            ("n<122000", ["k_lower_at_122000", "monotone"]),
            ("k<=15", ["ln(122000)/ln(3)", *ln3_recount]),
            ("n<93000", ["k_lower_at_93000", "monotone"]),
            ("3-divides-n", [
                "ln(93000)/ln(5)", "ln(100000)/ln(5)", "quoted_operand_note",
                "quoted_decimal_matches_100000", "floors", "k_cap_if_3_absent",
                "min_distinct_factors", "min_distinct_factors_source",
            ]),
            ("n-is-2a3b", [
                "1+ln(18600)/ln(3)", "printed_decimal", "printed_decimal_within_5e-5",
                "floor", "fermat_primes_available", "three_divides_cullen_note",
                "k_cap_if_q_present",
            ]),
            ("product-contradiction", [
                "cap", "partial_product", "partial_product_decimal", "tail_bound",
                "total_upper_decimal", "below_two", "cited_bound", "exceeds_cited_bound",
                "cited_bound_note",
            ]),
        ]
