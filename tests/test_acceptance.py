"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured budget.  These are the exit criteria for the package."""

import itertools
import json
import math
import os
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from cullen_lehmer import (
    a_expression,
    cascade_verify,
    cullen,
    fermat_binary_obstruction,
    divisibility_check,
    lehmer_constrained_factor,
    odd_divisors,
    pigeonhole_pair,
    two_three_product_bound,
)
from cullen_lehmer.factoring import VERDICT_PRIME
from cullen_lehmer.primality import structured_verdict

from conftest import body_of, parse_jsonl, run_cli

REFUTATION_VERDICTS = {"squarefree_refuted", "structurally_refuted", "totient_refuted"}


@pytest.fixture(scope="session")
def scan300(tmp_path_factory):
    """One full theorem scan 1..300 at the default budget, through the CLI."""
    cache = tmp_path_factory.mktemp("scan") / "factors.txt"
    start = time.monotonic()
    code, out, err = run_cli("scan", 1, 300, "--workers", 4, "--cache", cache)
    elapsed = time.monotonic() - start
    assert code == 0, err
    _, rows, _, _ = parse_jsonl(out)
    return {"rows": rows, "elapsed": elapsed, "cache": cache}


def test_c1_theorem_at_desk_scale(scan300):
    rows, elapsed = scan300["rows"], scan300["elapsed"]
    assert elapsed < 600, f"scan took {elapsed:.0f}s, budget is 600s"
    assert [r["n"] for r in rows] == list(range(1, 301))
    lehmer_rows = [r for r in rows if "lehmer" in r["verdict"].lower()]
    assert lehmer_rows == []
    for row in rows:
        if row["status"] == "composite":
            assert row["verdict"] in REFUTATION_VERDICTS, row
        else:
            assert row["verdict"] == "prime"
    primes = [r["n"] for r in rows if r["status"] == "prime"]
    assert primes == [1, 141]  # the only Cullen primes with index <= 300
    print(f"\n[acceptance] C1 PASS: scan 1..300 in {elapsed:.1f}s, "
          f"0 Lehmer verdicts, {len(rows) - 2} composites all refuted")


def test_c2_bound_cascade():
    start = time.monotonic()
    cascade = cascade_verify(10_000_000)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"cascade took {elapsed:.2f}s, budget is 1s"
    assert cascade.passed and cascade.final_verdict == "contradiction established"
    by_name = {s.name: s for s in cascade.stages}
    # the three printed decimals, each certified within 5e-5
    assert by_name["k<=17"].data["printed_decimal_within_5e-5"]
    assert by_name["k<=15"].data["printed_decimal_within_5e-5"]
    assert by_name["n-is-2a3b"].data["printed_decimal_within_5e-5"]
    # the chain n < 6e5 -> k <= 17 -> n < 122000 -> k <= 15 -> n < 93000
    assert by_name["k-crossing"].passed
    assert by_name["k<=17"].data["k_cap"] == 17
    assert by_name["n<122000"].passed
    assert by_name["k<=15"].data["k_cap"] == 15
    assert by_name["n<93000"].passed
    # and the CLI agrees end to end
    code, out, _ = run_cli("bounds", "--cap", 100_000)
    assert code == 0
    _, _, _, reports = parse_jsonl(out)
    assert reports[0]["passed"]
    print(f"\n[acceptance] C2 PASS: cascade certified in {elapsed*1000:.0f}ms, "
          f"decimals 12.1104 / 10.6605 / 9.94849 all within 5e-5")


def test_c3_product_bound():
    start = time.monotonic()
    pb = two_three_product_bound(10_000_000)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"product bound took {elapsed:.1f}s, budget is 30s"
    assert pb.total_upper < 2 and pb.below_two
    assert Fraction("1.9") < pb.total_upper < Fraction("1.95")
    assert pb.exceeds_cited_bound, "the 1.46 discrepancy must be flagged"
    assert pb.cited_bound == Fraction(146, 100)
    print(f"\n[acceptance] C3 PASS: total_upper = {float(pb.total_upper):.6f} < 2 "
          f"in {elapsed:.1f}s (cited 1.46 flagged as understated)")


def _oracle_pair_grid(n, np_, triu_cache):
    """Independent brute-force oracle: full pairwise scan over the grid via
    numpy, then the documented tie-break in plain Python."""
    x = n / math.log(n)
    root = math.sqrt(x)
    assert min(root % 1.0, 1.0 - root % 1.0) > 1e-9, "floor too close to call"
    N = math.floor(root)
    if N not in triu_cache:
        g = (N + 1) * (N + 1)
        triu_cache[N] = np.triu_indices(g, k=1)
    iu, ju = triu_cache[N]
    side = np.arange(N + 1)
    vals = (side[:, None] * n + side[None, :] * np_).ravel()
    diffs = np.abs(vals[iu] - vals[ju])
    dstar = diffs.min()
    best = None
    for idx in np.flatnonzero(diffs == dstar):
        i, j = int(iu[idx]), int(ju[idx])
        u = i // (N + 1) - j // (N + 1)
        v = i % (N + 1) - j % (N + 1)
        if u < 0 or (u == 0 and v < 0):
            u, v = -u, -v
        g = gcd(abs(u), abs(v))
        key = (u // g, abs(v) // g, v // g)
        if best is None or key < best:
            best = key
    return best[0], best[2]


def test_c4_pigeonhole_exhaustive():
    start = time.monotonic()
    triu_cache = {}
    cases = 0
    for n in range(30, 501):
        for np_ in range(1, n + 1):
            pair = pigeonhole_pair(n, np_)  # bound invariants certified inside
            assert (pair.u, pair.v) != (0, 0)
            assert gcd(abs(pair.u), abs(pair.v)) == 1
            expected = _oracle_pair_grid(n, np_, triu_cache)
            assert (pair.u, pair.v) == expected, (n, np_)
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"exhaustive comparison took {elapsed:.0f}s, budget is 120s"
    print(f"\n[acceptance] C4 PASS: {cases} (n, np) cases match the brute-force "
          f"oracle in {elapsed:.0f}s")


def test_c5_a_expression_divisibility():
    start = time.monotonic()
    violations = 0
    checked = 0
    for n in range(2, 101):
        result = lehmer_constrained_factor(n)
        if result.verdict == VERDICT_PRIME:
            continue
        for sp in result.structured_divisors:
            pair = pigeonhole_pair(n, sp.e)
            # divisibility_check raises on any violation (A = 0, p not
            # dividing the numerator, or a broken numerator bound)
            assert divisibility_check(n, sp, pair)
            expr = a_expression(n, sp.m, sp.e, pair.u, pair.v)
            assert expr.value != 0
            if n >= 30:
                assert abs(expr.numerator) < expr.numerator_bound
            checked += 1
    elapsed = time.monotonic() - start
    assert violations == 0 and checked > 50
    print(f"\n[acceptance] C5 PASS: {checked} structured factors across n <= 100, "
          f"0 violations in {elapsed:.1f}s")


def test_c6_worked_micro_instance():
    c = cullen(6)
    assert c.value == 385 == 5 * 7 * 11
    candidates = sorted((m << e) + 1 for m in odd_divisors(6) for e in range(1, c.n2 + 1)
                        if structured_verdict(m, e).is_prime)
    assert candidates == [3, 5, 7, 13, 17, 97, 193]
    r = lehmer_constrained_factor(6)
    assert r.verdict == "structurally_refuted"
    assert [sp.value for sp in r.structured_divisors] == [5, 7]
    assert r.factorization.cofactor == 11
    assert r.witness.startswith("cofactor 11 = 5*2^1 + 1 is prime") and 6 % 5 == 1
    print("\n[acceptance] C6 PASS: C(6) = 385, candidates {3,5,7,13,17,97,193}, "
          "witness cofactor 11 with 5 not dividing 6")


def test_c7_research_scans(scan300):
    # the scan populated the cache, so the research commands mostly reuse it
    cache = scan300["cache"]
    code, out, _ = run_cli("carmichael", 1, 200, "--workers", 4, "--cache", cache)
    assert code == 0
    _, rows, summaries, _ = parse_jsonl(out)
    factored = [r for r in rows if r["factored"]]
    assert len(factored) >= 100
    assert summaries[0]["carmichael_count"] == 0
    assert all(r["carmichael"] is False for r in factored)

    code, out, _ = run_cli("ratio", 1, 200, "--workers", 4, "--cache", cache)
    assert code == 0
    _, rows, summaries, _ = parse_jsonl(out)
    recomputed = 0
    for row in rows:
        if not row["factored"]:
            assert row["ratio"] == "unknown"
            continue
        # independent phi recomputation from the reported factor string
        factors = []
        for tok in row["factors"].split():
            base, _, exp = tok.partition("^")
            factors.append((int(base), int(exp) if exp else 1))
        value = 1
        phi = 1
        for p, k in factors:
            value *= p**k
            phi *= p ** (k - 1) * (p - 1)
        assert value == cullen(row["n"]).value
        expected = Fraction(phi, gcd(value - 1, phi))
        assert Fraction(row["ratio"]) == expected, row["n"]
        if row["status"] == "composite":
            assert expected > 1
        recomputed += 1
    assert recomputed >= 100
    print(f"\n[acceptance] C7 PASS: {recomputed} factored rows <= 200, zero "
          f"Carmichael verdicts, all composite ratios > 1 and exactly recomputed")


def test_c8_binary_obstruction():
    count = 0
    for size in range(2, 6):
        for subset in itertools.combinations(range(5), size):
            assert fermat_binary_obstruction(subset)
            count += 1
    assert count == 26
    print("\n[acceptance] C8 PASS: all 26 subsets of {0..4} of size >= 2 have "
          "product weight 2^k")


def test_c9_worker_determinism(tmp_path):
    # --workers is capped at the CPU count, so the header's effective value
    # is what each run really used
    bodies, used = [], []
    for workers in (1, 4, 16):
        cache = tmp_path / f"cache-{workers}.txt"  # same (empty) cache state
        code, out, _ = run_cli("scan", 1, 40, "--workers", workers, "--cache", cache)
        assert code == 0
        header, _, _, _ = parse_jsonl(out)
        used.append(header["params"]["workers"])
        bodies.append(body_of(out))
    assert bodies[0] == bodies[1] == bodies[2]
    assert len(bodies[0]) > 1000
    if (os.cpu_count() or 1) >= 2:
        assert max(used) > 1, used  # at least one run used a pool
    print("\n[acceptance] C9 PASS: scan bodies byte-identical across "
          f"{', '.join(map(str, used))} workers (requested 1, 4, 16)")
