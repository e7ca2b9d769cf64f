"""Correctness gates, in plain integer arithmetic.

Nothing here imports the package under test.  Each gate recomputes what a
row or a verifier result claims from n alone (C(n) = n*2^n + 1) and the
numbers the result lists, and returns one line per problem found; an empty
list means the result passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, log, prod

# Every n below 18496 (the next Cullen-prime index) with C(n) prime.
KNOWN_CULLEN_PRIMES = frozenset({1, 141, 4713, 5795, 6611})
PRIME_TABLE_LIMIT = 18496

REFUTATION_VERDICTS = frozenset({"structurally_refuted", "squarefree_refuted", "totient_refuted"})

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def cullen_value(n: int) -> int:
    return (n << n) + 1


def probable_prime(x: int) -> bool:
    """Miller-Rabin over the first 13 primes: exact below 3.3*10^24,
    probable beyond."""
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def parse_factors(text: str) -> list[tuple[int, int]]:
    """``"3 5^2 7"`` -> ``[(3, 1), (5, 2), (7, 1)]``."""
    out = []
    for tok in text.split():
        base, _, exp = tok.partition("^")
        out.append((int(base), int(exp) if exp else 1))
    return out


def _product(factors: list[tuple[int, int]]) -> int:
    return prod(p**k for p, k in factors)


def check_coverage(rows: list[dict], expected: list[int]) -> list[str]:
    got = [row.get("n") for row in rows]
    if got == expected:
        return []
    return [f"rows {got[:3]}..{got[-3:]} ({len(got)}) do not cover "
            f"{expected[0]}..{expected[-1]} ({len(expected)}) in ascending order"]


def check_theorem_row(row: dict) -> list[str]:
    """A ``check``/``scan`` row: prime exactly on the known Cullen primes,
    every composite verdict a refutation, every structured divisor dividing
    C(n), and the listed factors reproducing C(n)."""
    n = row["n"]
    if not 1 <= n < PRIME_TABLE_LIMIT:
        return [f"n={n}: outside the range the prime table covers"]
    value = cullen_value(n)
    problems = []
    prime = n in KNOWN_CULLEN_PRIMES
    if (row["status"] == "prime") != prime:
        problems.append(f"n={n}: status {row['status']!r}, C(n) prime is {prime}")
    if prime and row["verdict"] != "prime":
        problems.append(f"n={n}: prime C(n) with verdict {row['verdict']!r}")
    if not prime and row["verdict"] not in REFUTATION_VERDICTS:
        problems.append(f"n={n}: composite C(n) with verdict {row['verdict']!r}")
    for d in row["structured_divisors"]:
        if d < 2 or value % d:
            problems.append(f"n={n}: structured divisor {d} does not divide C(n)")
    problems += _check_factor_fields(n, value, row, row["factor_status"] == "complete")
    return problems


def _check_factor_fields(n: int, value: int, row: dict, complete: bool) -> list[str]:
    cofactor = row["cofactor"]
    if complete != (cofactor == 1):
        return [f"n={n}: complete is {complete} but the cofactor is {cofactor}"]
    if _product(parse_factors(row["factors"])) * cofactor != value:
        return [f"n={n}: factors {row['factors']!r} times cofactor do not give C(n)"]
    return []


def check_research_row(row: dict) -> list[str]:
    """A ``ratio``/``carmichael`` row: for a complete row the factors are
    (probable) primes multiplying to C(n), and phi, the gcd with C(n)-1, the
    ratio and Korselt's criterion recomputed from them match the row."""
    n = row["n"]
    value = cullen_value(n)
    problems = _check_factor_fields(n, value, row, row["factored"])
    if problems:
        return problems
    if not row["factored"]:
        if row["ratio"] != "unknown" or row["carmichael"] != "unknown":
            problems.append(f"n={n}: partial row reports a ratio or Korselt verdict")
        return problems
    factors = parse_factors(row["factors"])
    for p, _ in factors:
        if not probable_prime(p):
            problems.append(f"n={n}: listed factor {p} is composite")
    phi = prod(p ** (k - 1) * (p - 1) for p, k in factors)
    g = gcd(value - 1, phi)
    composite = not (len(factors) == 1 and factors[0][1] == 1)
    korselt = (composite and all(k == 1 for _, k in factors)
               and all((value - 1) % (p - 1) == 0 for p, _ in factors))
    if row["phi"] != str(phi):
        problems.append(f"n={n}: phi {row['phi']} != {phi}")
    if row["gcd"] != str(g):
        problems.append(f"n={n}: gcd {row['gcd']} != {g}")
    if row["ratio"] != str(Fraction(phi, g)):
        problems.append(f"n={n}: ratio {row['ratio']} != {Fraction(phi, g)}")
    if row["carmichael"] is not korselt:
        problems.append(f"n={n}: carmichael {row['carmichael']} != {korselt}")
    return problems


def check_research_summary(summary: dict | None, rows: list[dict]) -> list[str]:
    if summary is None:
        return ["research command printed no summary"]
    factored = [row for row in rows if row["factored"]]
    ratios = [Fraction(row["ratio"]) for row in factored]
    expect = {
        "rows": len(rows),
        "factored": len(factored),
        "unfactored": len(rows) - len(factored),
        "carmichael_count": sum(row["carmichael"] is True for row in factored),
        "ratio_min": str(min(ratios)) if ratios else None,
        "ratio_max": str(max(ratios)) if ratios else None,
    }
    return [f"summary {key} {summary.get(key)!r} != {want!r}"
            for key, want in expect.items() if summary.get(key) != want]


def check_pair(n: int, np_: int, u: int, v: int, combo: int) -> list[str]:
    """Pigeonhole pair: nonzero, coprime, u >= 0, combo = u*n + v*np and
    |combo| < 3*sqrt(n ln n)."""
    problems = []
    if (u, v) == (0, 0) or gcd(u, v) != 1 or u < 0:
        problems.append(f"pair ({n},{np_}): (u, v) = ({u}, {v}) not a normalized coprime pair")
    if combo != u * n + v * np_:
        problems.append(f"pair ({n},{np_}): combo {combo} != u*n + v*np")
    limit = 9 * n * log(n)
    if not combo * combo < limit * (1 - 1e-12):
        problems.append(f"pair ({n},{np_}): |combo| = {abs(combo)} not below 3*sqrt(n ln n)")
    return problems


def check_divisibility(n: int, m: int, e: int, u: int, v: int) -> list[str]:
    """p = m*2^e + 1 divides C(n) and the numerator of
    n^u * m^v * 2^(n*u + e*v) - (-1)^(u+v)."""
    p = (m << e) + 1
    if cullen_value(n) % p:
        return [f"divisor {p} does not divide C({n})"]
    sign = 1 if (u + v) % 2 == 0 else -1
    value = Fraction(n) ** u * Fraction(m) ** v * Fraction(2) ** (n * u + e * v) - sign
    if value == 0 or value.numerator % p:
        return [f"{p} does not divide the combined expression for n={n}, (u, v)=({u}, {v})"]
    return []
