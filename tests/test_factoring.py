import logging
import time
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cullen_lehmer import (
    FactorBudget,
    FactorCache,
    Factorization,
    WorkCounter,
    cullen,
    euler_phi,
    general_factor,
    lehmer_constrained_factor,
    odd_divisors,
    v2,
)
from cullen_lehmer.factoring import (
    MAX_INDEX,
    PARTIAL,
    TRIAL_BOUND,
    VERDICT_PRIME,
    VERDICT_SQUAREFREE,
    VERDICT_STRUCTURAL,
    VERDICT_TOTIENT,
    CacheEntry,
)
from cullen_lehmer.primality import SPECIAL_FORM_BITS, _sieve

ALL_VERDICTS = {VERDICT_PRIME, VERDICT_SQUAREFREE, VERDICT_STRUCTURAL, VERDICT_TOTIENT}


class TestFactorization:
    # the status is derived from the cofactor, so a status that contradicts
    # it exists only in a cache line, and FactorCache._parse rejects it
    @pytest.mark.parametrize("value, factors, cofactor", [
        pytest.param(385, ((5, 1), (7, 1)), 1,
                     id="385-factors3-complete-1"),  # product misses the value
        pytest.param(385, ((7, 1), (5, 1), (11, 1)), 1,
                     id="385-factors4-complete-1"),  # primes out of order
    ])
    def test_rejects_inconsistent(self, value, factors, cofactor):
        with pytest.raises(ValueError):
            Factorization(value, factors, cofactor)


class TestGeneralFactor:
    def test_examples(self):
        f = general_factor(385)
        assert f.factors == ((5, 1), (7, 1), (11, 1)) and f.is_complete
        assert general_factor(25).factors == ((5, 2),)
        # C(20) = 20971521 = 3^3 * 103 * 7541 (trial division oracle)
        f20 = general_factor(cullen(20).value)
        assert f20.is_complete
        assert f20.factors == ((3, 3), (103, 1), (7541, 1))

    def test_round_trip_identity(self):
        for n in (2, 97, 1009, 2**31 - 1, 3 * 5 * 7 * 11 * 13 * 17 * 19):
            f = general_factor(n)
            value = f.cofactor
            for p, k in f.factors:
                value *= p**k
            assert value == n

    def test_deterministic(self):
        n = (2**61 - 1) * (2**31 - 1) * 12345
        c1, c2 = WorkCounter(), WorkCounter()
        f1 = general_factor(n, counter=c1)
        f2 = general_factor(n, counter=c2)
        assert f1 == f2
        assert c1 == c2

    def test_budget_exhaustion_goes_partial(self):
        # a semiprime of two Mersenne primes is out of reach for 64 rho
        # steps; neither has a prime factor below TRIAL_BOUND
        p, q = 2**61 - 1, 2**89 - 1
        n = p * q
        budget = FactorBudget(rho_iterations=64)
        counter = WorkCounter()
        f = general_factor(n, budget, counter)
        assert f.status == PARTIAL
        assert f.cofactor == n
        assert counter.rho_iterations <= 64

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            general_factor(1)


def trial_division(N):
    """The reference trial stage: each prime below TRIAL_BOUND in turn,
    one % at a time, until p^2 exceeds what is left.  Returns the primes
    found, the remainder and the number of primes tried."""
    found, m, tried = {}, N, 0
    for p in _sieve(TRIAL_BOUND - 1):
        if p * p > m:
            break
        tried += 1
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    return found, m, tried


class TestTrialStage:
    """general_factor's gcd-based trial stage against plain trial division.
    With no rho budget the remainder is either listed as a prime or left as
    the cofactor, so the reference fixes the whole result."""

    @staticmethod
    def assert_matches_reference(N):
        from cullen_lehmer import is_prime

        found, m, tried = trial_division(N)
        if m > 1 and is_prime(m).probably_prime:
            found[m], m = 1, 1
        counter = WorkCounter()
        f = general_factor(N, FactorBudget(rho_iterations=0), counter)
        assert f.factors == tuple(sorted(found.items())), N
        assert f.cofactor == m, N
        assert counter.trial_divisions == tried, N

    def test_search_cofactors(self):
        for n in range(1, 1011):
            cofactor = lehmer_constrained_factor(n).factorization.cofactor
            if cofactor > 1:
                self.assert_matches_reference(cofactor)

    @given(st.one_of(
        st.integers(min_value=2, max_value=(1 << 200) - 1),
        # a product of primes below TRIAL_BOUND times a rest; below 2^200
        st.builds(
            lambda ps, rest: prod(ps) * rest,
            st.lists(st.sampled_from(_sieve(TRIAL_BOUND - 1)), max_size=12),
            st.integers(min_value=2, max_value=1 << 32),
        ),
    ))
    @settings(max_examples=400, deadline=None)
    def test_drawn_values(self, N):
        self.assert_matches_reference(N)

    @pytest.mark.parametrize("N", [
        2, 3, 4, 97, 9967, 9973,                         # primes below 10^4
        2**64, 3**40, 7**3, 9973**2, 9973**5,             # p^k
        2 * 10_007, 9973 * 10_007, 97 * (2**61 - 1),      # p < 10^4 < q
        10_007**2, 10_007 * 10_009,                       # nothing below 10^4
    ] + [
        # the remainder falls below p^2 partway: 2^a * 3^b leaves 9973,
        # a square of it, or 1
        2**a * 3**b * 9973**c
        for a in range(4) for b in range(3) for c in range(3)
        if 2**a * 3**b * 9973**c > 1
    ])
    def test_edges(self, N):
        self.assert_matches_reference(N)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(general_factor(9)) == 6
        assert euler_phi(general_factor(385)) == 240
        assert euler_phi(general_factor(101)) == 100

    def test_brute_force_cross_check(self):
        # phi by counting coprime residues, the definition itself
        from math import gcd

        for n in (9, 385, 101, 360, 1024):
            expected = sum(1 for a in range(1, n) if gcd(a, n) == 1)
            assert euler_phi(general_factor(n)) == expected

    def test_rejects_partial(self):
        f = Factorization(35 * 13, ((13, 1),), cofactor=35)
        with pytest.raises(ValueError):
            euler_phi(f)

    def test_squarefree_phi_identity(self, factored_corpus):
        # for squarefree values phi collapses to prod(p-1), and the
        # divisibility (value-1) % phi reproduces the Lehmer test
        from math import prod

        from cullen_lehmer import is_lehmer

        for n, f in factored_corpus.items():
            if any(k > 1 for _, k in f.factors):
                continue
            phi = euler_phi(f)
            assert phi == prod(p - 1 for p, _ in f.factors)
            composite = len(f.factors) > 1
            assert is_lehmer(f.value, f) == (composite and (f.value - 1) % phi == 0)


class TestLehmerConstrainedFactor:
    def test_prime_case(self):
        r = lehmer_constrained_factor(1)
        assert r.verdict == VERDICT_PRIME
        assert r.factorization.factors == ((3, 1),)
        assert r.witness == "C(1) is prime (Proth base 2)"

    def test_squarefree_case(self):
        r = lehmer_constrained_factor(2)
        assert r.verdict == VERDICT_SQUAREFREE
        assert r.structured_divisors[-1].value == 3
        assert dict(r.factorization.factors)[3] >= 2
        assert r.witness == "3^2 divides C(2), so C(2) is not squarefree"
        assert cullen(2).value == 9

    def test_worked_micro_instance(self):
        r = lehmer_constrained_factor(6)
        assert r.verdict == VERDICT_STRUCTURAL
        assert [sp.value for sp in r.structured_divisors] == [5, 7]
        assert r.witness == ("cofactor 11 = 5*2^1 + 1 is prime but outside the "
                             "admissible shape: 5 does not divide 6")
        assert 6 % 5 != 0  # the shape violation the witness names
        assert r.factorization.cofactor == 11

    def test_composite_cofactor_text(self):
        # C(5) = 161 = 7 * 23, and no structured form divides it
        r = lehmer_constrained_factor(5)
        assert r.verdict == VERDICT_STRUCTURAL and r.factorization.cofactor == 161
        assert r.witness == ("cofactor 161 > 1 remains after removing every admissible "
                             "structured prime, so some factor of C(n) has the wrong shape")

    def test_verdict_facts_against_full_factorization(self, factored_corpus):
        # structured divisors must be exactly the primes p | C(n) with
        # p-1 | n*2^n, read off the independent full factorization
        for n, full in factored_corpus.items():
            r = lehmer_constrained_factor(n)
            assert r.verdict in ALL_VERDICTS
            budget = cullen(n).n * 2 ** cullen(n).n
            expected = [p for p, _ in full.factors if budget % (p - 1) == 0]
            if r.verdict in (VERDICT_PRIME, VERDICT_SQUAREFREE):
                # the search may stop early in these cases
                continue
            assert [sp.value for sp in r.structured_divisors] == expected, n

    def test_squarefree_witnesses_are_genuine(self, factored_corpus):
        for n in factored_corpus:
            r = lehmer_constrained_factor(n)
            if r.verdict == VERDICT_SQUAREFREE:
                p = r.structured_divisors[-1].value
                assert dict(r.factorization.factors)[p] >= 2
                assert cullen(n).value % (p * p) == 0
                assert r.witness == f"{p}^2 divides C({n}), so C({n}) is not squarefree"

    def test_never_lehmer_up_to_300_is_in_acceptance(self):
        # desk-scale sweep of the first sixty indices; the 300 sweep runs
        # in the acceptance module
        for n in range(1, 61):
            assert lehmer_constrained_factor(n).verdict in ALL_VERDICTS

    @pytest.fixture
    def calls(self, monkeypatch):
        """(args, kwargs) of every proth_test, is_prime, Miller-Rabin base,
        strong Lucas and special-form power call, in order, by name; under
        "order", (name, args) of all of them in one sequence."""
        import cullen_lehmer.factoring as factoring
        import cullen_lehmer.primality as primality

        seen = {"proth_test": [], "is_prime": [], "_mr_composite_witness": [],
                "_strong_lucas_prp": [], "_proth_pow": []}
        order = []
        for name, log in seen.items():
            original = getattr(primality, name)

            def counted(*args, _original=original, _log=log, _name=name, **kwargs):
                _log.append((args, kwargs))
                order.append((_name, args))
                return _original(*args, **kwargs)

            monkeypatch.setattr(primality, name, counted)
            if hasattr(factoring, name):
                monkeypatch.setattr(factoring, name, counted)
        seen["order"] = order
        return seen

    @pytest.mark.parametrize("n, proth_calls", [
        (5, 0), (9, 0), (11, 0), (34, 0),  # smallest factors 7, 11, 13, 19
        (53, 1), (233, 1),  # no prime factor below 2000, no structured divisor
    ])
    def test_cullen_value_proth_calls(self, n, proth_calls, calls):
        # a small prime factor proves C(n) composite without Proth; neither
        # route tests C(n) with is_prime
        c = cullen(n)
        r = lehmer_constrained_factor(n)
        assert [args for args, _ in calls["proth_test"]].count((c.n1, c.n2)) == proth_calls
        assert c.value not in [args[0] for args, _ in calls["is_prime"]]
        assert r.verdict == VERDICT_STRUCTURAL and r.structured_divisors == ()
        cofactor = n * 2**n + 1
        assert r.factorization.factors == () and r.factorization.cofactor == cofactor
        assert r.witness.startswith(f"cofactor {cofactor} > 1 remains")

    ROWS = [
        (5, 0, 1, [], 0), (9, 0, 1, [], 0), (11, 0, 1, [], 0), (34, 0, 1, [], 0),
        (53, 1, 1, [2], 0), (141, 1, 0, [], 0),
        # C(233) has no prime factor below 10^4: its verdict is handed over
        (233, 1, 0, [], 0),
        # above SPECIAL_FORM_BITS, no structured hit; the least prime factor
        # of C(634) is 2459 and of C(870) 39869, beyond trial division's 10^4
        (634, 0, 1, [2], 0), (870, 0, 0, [], 0),
        (609, 1, 0, [], 0),  # no prime factor below 10^5
        # a probable-prime cofactor: Baillie-PSW runs once, in special form
        # for the 611-bit cofactor of C(604)
        (101, 0, 1, [2], 1), (604, 0, 1, [2], 1),
    ]

    @pytest.mark.parametrize(
        "n, proth_calls, tested, mr_bases, lucas_calls", ROWS,
        ids=[f"{n}-{p}-{t}" for n, p, t, _, _ in ROWS],
    )
    def test_row_exponentiations(self, n, proth_calls, tested, mr_bases, lucas_calls, calls):
        # the whole row at --budget 0: search, then the general engine on
        # the cofactor with the search's verdict handed over
        from cullen_lehmer.cli import _compute

        c = cullen(n)
        _compute(n, FactorBudget(rho_iterations=0), None)
        assert [args for args, _ in calls["proth_test"]].count((c.n1, c.n2)) == proth_calls
        values = [args[0] for args, _ in calls["is_prime"]]
        assert c.value not in values
        assert len(values) == len(set(values)) == tested
        # each value tested divides C(n) and says so
        assert all(kwargs == {"within": (c.n1, c.n2)} for _, kwargs in calls["is_prime"])
        assert [args[0] for args, _ in calls["_mr_composite_witness"]] == mr_bases
        assert len(calls["_strong_lucas_prp"]) == lucas_calls
        # every Miller-Rabin and Proth power modulo a value of
        # SPECIAL_FORM_BITS or more is taken in special form, modulo C(n),
        # and none below: the call after each test is its first power
        order = calls["order"]
        for (name, args), (after, power) in zip(order, order[1:] + [(None, ())]):
            if name == "_mr_composite_witness":
                N, first = args[3], args[:2]
            elif name == "proth_test":
                N = (args[0] << args[1]) + 1
                first = power[:1] + ((N - 1) >> 1,)
            else:
                continue
            special = N.bit_length() >= SPECIAL_FORM_BITS
            assert (after == "_proth_pow") == special, (name, N.bit_length())
            if special:
                assert power == first + (c.n1, c.n2)

    def test_prime_cullen_value_one_proth_call(self, calls):
        c = cullen(141)
        r = lehmer_constrained_factor(141)
        assert [args for args, _ in calls["proth_test"]].count((c.n1, c.n2)) == 1
        assert c.value not in [args[0] for args, _ in calls["is_prime"]]
        assert r.verdict == VERDICT_PRIME and r.witness.endswith("(Proth base 5)")
        assert r.factorization.factors == ((c.value, 1),)

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=49),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_inverse_free_divisibility(self, n, half_m, data):
        # m need not divide n: the identity holds for any m, and the
        # totient-route test feeds such forms in
        from cullen_lehmer.factoring import _divides_cullen

        m = 2 * half_m + 1
        e = data.draw(st.integers(min_value=1, max_value=cullen(n).n2 + 3))
        assert _divides_cullen(n, m, e) == (cullen(n).value % (m * 2**e + 1) == 0)

    def test_hits_equal_plain_filter(self):
        # the oracle is the unbounded enumeration, every m | n odd and
        # 1 <= e <= n2 but C(n) itself, filtered by plain division
        from cullen_lehmer.factoring import _structured_hits

        for n in range(1, 601):
            c = cullen(n)
            plain = sorted(
                ((m << e) + 1, m, e)
                for m in odd_divisors(n)
                for e in range(1, c.n2 + 1)
                if (m, e) != (c.n1, c.n2) and c.value % ((m << e) + 1) == 0
            )
            assert _structured_hits(c) == plain, n

    @staticmethod
    def _bounded_filter(c):
        # the oracle for the exponent windows: every form in the bound,
        # each tested by _divides_cullen
        from cullen_lehmer.factoring import _divides_cullen

        bits = c.value.bit_length()
        return sorted(
            ((m << e) + 1, m, e)
            for m in odd_divisors(c.n)
            for e in range(1, (bits - m.bit_length()) // 2 + 1)
            if _divides_cullen(c.n, m, e)
        )

    # the fixed examples are the slow cascade rows
    @given(st.integers(min_value=1, max_value=5000))
    @example(26244)
    @example(32768)
    @example(34992)
    @example(46656)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_windows_equal_bounded_filter(self, n):
        from cullen_lehmer.factoring import _structured_hits

        c = cullen(n)
        assert _structured_hits(c) == self._bounded_filter(c)

    def test_zero_case_hits(self):
        # n = m^q with q odd and e = n/q: the size test decides the form,
        # and the residue sum n*(-1)^q + m^q is 0, so the form divides C(n)
        from cullen_lehmer.factoring import _structured_hits

        assert (1537, 3, 9) in _structured_hits(cullen(27))
        assert ((9 << 243) + 1, 9, 243) in _structured_hits(cullen(729))

    def test_forms_tested_by_exponentiation(self, monkeypatch):
        # the bounded filter makes 1,053,450 calls over n <= 1005; the
        # windows hand _divides_cullen only the forms the size test leaves
        import cullen_lehmer.factoring as factoring

        calls = 0
        divides = factoring._divides_cullen

        def counting(n, m, e):
            nonlocal calls
            calls += 1
            return divides(n, m, e)

        monkeypatch.setattr(factoring, "_divides_cullen", counting)
        for n in range(1, 1006):
            factoring._structured_hits(cullen(n))
        assert calls == 197_178

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=300, deadline=None)
    def test_hit_cofactor_is_one_mod_two_to_e(self, n):
        # the candidate bound rests on lam = C(n)/p = 1 (mod 2^e), lam > 1
        from cullen_lehmer.factoring import _structured_hits

        c = cullen(n)
        for p, m, e in _structured_hits(c):
            lam, rest = divmod(c.value, p)
            assert rest == 0 and p < c.value
            assert lam % (1 << e) == 1 and lam >= (1 << e) + 1, (n, m, e)

    def test_cullen_verdict_names_only_prime_factors(self):
        # C(173)'s least structured hit is 5537 = 7^2 * 113: it proves
        # C(173) composite but is no prime factor, so no verdict names it
        from cullen_lehmer.factoring import _cullen_verdict, _structured_hits
        from cullen_lehmer.primality import is_prime

        assert _structured_hits(cullen(173))[0][0] == 5537
        for n in range(1, 301):
            c = cullen(n)
            v = _cullen_verdict(c, _structured_hits(c))
            assert v.factor is None or is_prime(v.factor).is_prime, n
            r = lehmer_constrained_factor(n)
            if r.cofactor_verdict is not None and r.cofactor_verdict.factor is not None:
                assert is_prime(r.cofactor_verdict.factor).is_prime, n

    def test_totient_route(self, monkeypatch):
        # no index below 1500 factors entirely into admissible structured
        # primes, so drive the branch with a widened hit list:
        # C(4) = 65 = 5 * 13 where 13 = 3*2^2 + 1 has m = 3 not dividing 4
        import cullen_lehmer.factoring as factoring

        monkeypatch.setattr(
            factoring, "_structured_hits", lambda c: [(5, 1, 2), (13, 3, 2)]
        )
        r = factoring.lehmer_constrained_factor(4)
        assert r.verdict == VERDICT_TOTIENT
        assert euler_phi(r.factorization) == 48 and 64 % 48 != 0
        assert r.witness == ("C(4) factors into structured primes only, but "
                             "phi = 48 does not divide C(4)-1")
        assert r.factorization.is_complete


class TestNpBoundCheck:
    """v2(p-1) <= n for every proper divisor p > 1 of C(n)."""

    def test_examples(self):
        assert v2(4) == 2
        for n, p in ((6, 5), (6, 11), (2, 3)):
            assert cullen(n).value % p == 0 and v2(p - 1) <= n

    def test_all_proper_factors_in_corpus(self, factored_corpus):
        for n, full in factored_corpus.items():
            for p, _ in full.factors:
                if p < cullen(n).value:
                    assert v2(p - 1) <= n, (n, p)


class TestFactorCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = FactorCache(path)
        f = general_factor(cullen(6).value)
        cache.put(6, f)
        assert cache.entry(6) == CacheEntry(f)
        assert cache.entry(7) is None
        # survives a fresh load
        again = FactorCache(path)
        assert again.entry(6) == CacheEntry(f)

    def test_partial_entries_persist(self, tmp_path):
        # a partial factorization is written only with the rho budget that
        # left it partial
        path = tmp_path / "cache.txt"
        cache = FactorCache(path)
        c = cullen(9)
        f = Factorization(c.value, ((11, 1),), cofactor=c.value // 11)
        with pytest.raises(ValueError):
            cache.put(9, f)
        assert not path.exists()
        cache.put(9, f, 4096)
        assert FactorCache(path).entry(9) == CacheEntry(f, 4096)

    def test_entry_has_a_budget_exactly_when_partial(self):
        c = cullen(9)
        partial = Factorization(c.value, ((11, 1),), cofactor=c.value // 11)
        complete = general_factor(c.value)
        for fact, budget in ((partial, None), (partial, -1), (complete, 0)):
            with pytest.raises(ValueError):
                CacheEntry(fact, budget)
        assert CacheEntry(partial, 0).rank() < CacheEntry(partial, 1).rank() < (
            CacheEntry(complete).rank())

    def test_partial_entry_keeps_its_budget(self, tmp_path):
        path = tmp_path / "cache.txt"
        c = cullen(9)
        f = Factorization(c.value, ((11, 1),), cofactor=c.value // 11)
        f6 = general_factor(cullen(6).value)
        cache = FactorCache(path)
        cache.put(9, f, 4096)
        cache.put(6, f6, 4096)  # complete: no budget
        assert path.read_text(encoding="utf-8") == (
            f"9\tpartial@4096\t11\t{c.value // 11}\n6\tcomplete\t5 7 11\t1\n")
        again = FactorCache(path)
        assert again.entry(9) == CacheEntry(f, 4096)
        assert again.entry(6) == CacheEntry(f6)

    def test_put_writes_only_what_a_row_reads_back(self, tmp_path):
        # one file; each offer in turn, with the exact lines it appends
        path = tmp_path / "cache.txt"
        cache = FactorCache(path)
        c141, c9 = cullen(141).value, cullen(9).value  # C(141) is prime; C(9) = 11 * 419
        prime = Factorization(c141, ((c141, 1),))
        partial = Factorization(c9, ((11, 1),), cofactor=419)
        f6, f9 = general_factor(cullen(6).value), general_factor(c9)
        for n, fact, budget, gained in [
            (141, prime, None, ""),                              # a prime's factorization
            (9, partial, 0, ""),                                 # no rho ran
            (6, f6, None, "6\tcomplete\t5 7 11\t1\n"),
            (6, f6, 4096, ""),                                   # the held complete entry
            (9, partial, 4096, "9\tpartial@4096\t11\t419\n"),
            (9, partial, 4096, ""),                              # the held partial@4096
            (9, partial, 1024, ""),                              # outranked by it
            (9, partial, 8192, "9\tpartial@8192\t11\t419\n"),  # a larger budget
            (9, f9, None, "9\tcomplete\t11 419\t1\n"),         # complete over partial
        ]:
            before = path.read_text(encoding="utf-8") if path.exists() else ""
            cache.put(n, fact, budget)
            after = path.read_text(encoding="utf-8") if path.exists() else ""
            assert after == before + gained, (n, fact, budget)

    # C(38) = 3^2 * 20879 * 55586743: the lines from the most informative
    # down, then a partial line without a budget, which every load skips
    C38_LINES = [
        "38\tcomplete\t3^2 20879 55586743\t1",
        "38\tpartial@262144\t3^2\t1160595607097",
        "38\tpartial@4096\t3^2 20879\t55586743",
        "38\tpartial\t3^2 20879\t55586743",
    ]

    @pytest.mark.parametrize("order", list(permutations(range(4))))
    def test_most_informative_entry_kept(self, order, tmp_path):
        # complete over partial, then the larger budget, whatever the line
        # order (a partial line appended after the complete one by a
        # concurrent writer included); each line is kept once the lines that
        # say more are gone, and the line without a budget, wherever it
        # falls, is skipped and counted
        path = tmp_path / "cache.txt"
        for best, line in enumerate(self.C38_LINES[:3]):
            path.write_text("".join(self.C38_LINES[i] + "\n" for i in order if i >= best),
                            encoding="utf-8")
            cache = FactorCache(path)
            assert cache.skipped_lines == 1
            assert cache.entry(38) == FactorCache._parse(line)[1]

    def test_put_rejects_wrong_value(self, tmp_path):
        cache = FactorCache(tmp_path / "cache.txt")
        with pytest.raises(ValueError):
            cache.put(5, general_factor(385))  # 385 is C(6), not C(5)

    def test_put_checks_the_index_before_building_c(self, tmp_path, monkeypatch):
        import cullen_lehmer.factoring as factoring

        def refuse(n):
            raise AssertionError(f"C({n}) built")

        monkeypatch.setattr(factoring, "cullen", refuse)
        cache = FactorCache(tmp_path / "cache.txt")
        for n in (0, MAX_INDEX + 1):
            with pytest.raises(ValueError, match="cacheable range"):
                cache.put(n, general_factor(385))
        assert not (tmp_path / "cache.txt").exists()

    def test_malformed_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.txt"
        good = "6\tcomplete\t5 7 11\t1\n"
        path.write_text(
            "# comment line\n"
            + good
            + "not a record at all\n"
            + "6\tcomplete\t5 7\t1\n"          # product does not reproduce C(6)
            + "2\tbogus-status\t3^2\t1\n"       # unknown status
            + "6\tcomplete\t11 35\t1\n"         # 35 is not prime
            + "6\tpartial\t5\t77\n"             # partial without its rho budget
            + "6\tcomplete\t5 7\t11\n"          # complete with a cofactor
            + "11\tcomplete\t13 1733\t1\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            cache = FactorCache(path)
        assert cache.skipped_lines == 6
        assert sum("skipped" in rec.message for rec in caplog.records) == 6
        assert cache.entry(6).fact.summary() == "5 7 11"
        assert cache.entry(11).fact.factors == ((13, 1), (1733, 1))
        assert len(cache) == 2

    @pytest.mark.parametrize("line", [
        "6\tcomplete\t5 7 1_1\t1",             # an underscore in a factor
        "+6\tcomplete\t5 7 11\t1",             # a signed index
        "\u0666\tcomplete\t5 7 11\t1",         # an Arabic-Indic index
        "6\tcomplete\t5 7 11\t+1",             # a signed cofactor
        "6\tcomplete\t5^+1 7 11\t1",           # a signed exponent
        "6\tcomplete\t5 7 \u0661\u0661\t1",    # an Arabic-Indic factor
        "6\tcomplete\t5^ 7 11\t1",             # an empty exponent
        "06\tcomplete\t5 7 11\t1",             # a leading zero
        "6\tpartial@04096\t5\t77",             # a budget with a leading zero
        "6\tcomplete\t5^1 7 11\t1",           # an explicit ^1, which put omits
    ])
    def test_number_fields_are_ascii_decimal(self, line, tmp_path, caplog):
        # int() would read each of these numbers; put writes str(int), so
        # a line in any other form is not one it wrote
        path = tmp_path / "cache.txt"
        path.write_text(line + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = FactorCache(path)
        assert cache.skipped_lines == 1 and len(cache) == 0
        assert "is not canonical ASCII decimal" in caplog.records[0].getMessage()


class TestPastTheDigitLimit:
    """C(n) past about 14,300 bits has more than CPython's default 4300
    decimal digits; rows and cache lines hold such numbers in decimal.
    Nothing here exponentiates an n-bit number."""

    N = 14986  # C(14986) has 15,000 bits, 4516 digits

    def split(self):
        value = cullen(self.N).value
        p = next(p for p in range(3, 2000, 2) if value % p == 0)
        return Factorization(value, ((p, 1),), cofactor=value // p)

    def test_cache_round_trip(self, tmp_path, int_digit_limit):
        int_digit_limit(0)
        f = self.split()
        path = tmp_path / "cache.txt"
        FactorCache(path).put(self.N, f, 4096)
        assert len(path.read_text(encoding="utf-8")) > 4300
        again = FactorCache(path)
        assert again.skipped_lines == 0 and again.entry(self.N) == CacheEntry(f, 4096)

    def test_cofactor_witness(self, int_digit_limit):
        from cullen_lehmer.factoring import _cofactor_witness
        from cullen_lehmer.primality import COMPOSITE, PrimalityVerdict

        int_digit_limit(0)
        cofactor = self.split().cofactor
        verdict = PrimalityVerdict(cofactor, COMPOSITE, "trial")
        w = _cofactor_witness(cullen(self.N), cofactor, verdict)
        assert w.startswith(f"cofactor {cofactor} > 1 remains")

    def test_oversized_fields_skipped_unparsed(self, tmp_path, caplog, int_digit_limit):
        int_digit_limit(0)
        digits = len(str(cullen(self.N).value))
        path = tmp_path / "cache.txt"
        path.write_text(
            f"{self.N}\tpartial@4096\t3\t{'9' * (digits + 2)}\n"   # cofactor too long
            f"{self.N}\tpartial@4096\t{'7' * (digits + 2)}\t3\n"   # factor too long
            f"{self.N}\tcomplete\t3^{'1' * 9}\t1\n"           # 3^111111111 > C(n)
            "123456789\tcomplete\t3\t1\n"                       # index too long
            f"{MAX_INDEX + 1}\tcomplete\t3\t1\n",                # index too large
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            cache = FactorCache(path)
        assert cache.skipped_lines == 5 and len(cache) == 0
        reasons = [rec.getMessage() for rec in caplog.records]
        assert sum(f"longer than C({self.N})" in r for r in reasons) == 2
        assert sum(f"too large for C({self.N})" in r for r in reasons) == 1
        assert sum("cacheable range" in r for r in reasons) == 2


class TestManyFactorTokens:
    """The listed factors of a cache line are bounded together, not one at
    a time, and their product is taken pairwise, so a line of many short
    tokens costs time about linear in its length."""

    def test_factor_sizes_are_bounded_per_line(self, tmp_path, caplog):
        # each of 2..200 fits C(1000) on its own; together their bits,
        # less one each, sum past its 1010 bits
        path = tmp_path / "cache.txt"
        tokens = " ".join(map(str, range(2, 201)))
        path.write_text(f"1000\tcomplete\t{tokens}\t1\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = FactorCache(path)
        assert cache.skipped_lines == 1 and len(cache) == 0
        assert "too large for C(1000)" in caplog.records[0].getMessage()

    def test_many_tokens_are_rejected_quickly(self, tmp_path):
        # 2..199,999 is a 1.3 MB line that fits C(10^7)'s bits, so only its
        # product rejects it; one factor at a time onto a growing product
        # took 8.6-12 s (2 vCPUs, CPython 3.11.7)
        path = tmp_path / "cache.txt"
        tokens = " ".join(map(str, range(2, 200_000)))
        path.write_text(f"{MAX_INDEX}\tcomplete\t{tokens}\t1\n", encoding="utf-8")
        start = time.perf_counter()
        cache = FactorCache(path)
        assert time.perf_counter() - start < 4
        assert cache.skipped_lines == 1 and len(cache) == 0
