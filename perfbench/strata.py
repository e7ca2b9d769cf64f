"""Frontier strata: which indices each frontier draw may take.

    python3 perfbench/strata.py      # rewrites perfbench/frontier_strata.json

A frontier draw takes one index per stratum. A stratum fixes a 300-wide
window of n, the number of odd divisors of n and two properties of C(n)
that decide which exponentiations the theorem path runs. Fixing them holds
the work per seed within a few percent. The candidate loop costs about
d_odd(n) * n^2 and each exponentiation about n^2.6.

* path "mr": no unstructured prime below 2000 divides C(n), so the
  cofactor witness runs a Miller-Rabin exponentiation; path "trial": one
  does, and trial division settles the cofactor.
* structured True: a structured prime divides C(n).  Without one, the
  candidate loop reaches the candidate equal to C(n) itself and runs its
  Proth test a second time.

Every combination of path, structured and odd-divisor count occurs once.
Each listed index also avoids three rare paths. Each of them would
multiply the cost of a row, and none can be seen without the
exponentiations the benchmark times. (1) A structured prime p < 2^20 with
p^2 | C(n) stops the search early; `sweep` covers that path. (2) A prime
cofactor left after the structured primes and every prime below 10^4 are
removed costs 64 Miller-Rabin rounds in the factoring step. (3) Proth
base 2 failing to expose C(n) costs further bases. Checking (2) and (3)
takes a few exponentiations per index, too slow for set-up, so the table
is computed once with plain integers and committed.
"""

from __future__ import annotations

import json
from pathlib import Path

import gates

WINDOW = 300
# (8, "mr", False) is scarce near 3000 and 6700, so it sits at 4300
STRATA = (
    (3000, 2, "mr", True), (3000, 8, "trial", False),
    (4300, 2, "trial", False), (4300, 8, "mr", False),
    (5600, 2, "mr", False), (5600, 8, "trial", True),
    (6700, 2, "trial", True), (6700, 8, "mr", True),
)
MAX_PER_STRATUM = 6
SMALL_PRIME_BOUND = 2000  # is_prime's trial-division table
TRIAL_BOUND = 10_000      # the factoring step's trial-division bound
STRUCTURED_BOUND = 1 << 20
TABLE = Path(__file__).with_name("frontier_strata.json")


def primes_below(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = primes_below(SMALL_PRIME_BOUND)
TRIAL_PRIMES = primes_below(TRIAL_BOUND)


def odd_part(n: int) -> int:
    return n >> ((n & -n).bit_length() - 1)


def odd_divisor_count(n: int) -> int:
    m, count, d = odd_part(n), 1, 3
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        count *= e + 1
        d += 2
    return count * 2 if m > 1 else count


def odd_divisors(n: int) -> list[int]:
    m = odd_part(n)
    return [d for d in range(1, m + 1, 2) if m % d == 0]


def is_structured(q: int, n: int) -> bool:
    """q - 1 = m*2^e with e >= 1 and m an odd divisor of n."""
    return q % 2 == 1 and n % odd_part(q - 1) == 0


def has_small_unstructured_factor(n: int) -> bool:
    return any((n * pow(2, n, q) + 1) % q == 0 and not is_structured(q, n)
               for q in SMALL_PRIMES)


def small_structured_primes(n: int) -> list[tuple[int, int]]:
    """(p, multiplicity) for every structured prime p < 2^20 dividing C(n)."""
    value = gates.cullen_value(n)
    found = []
    for m in odd_divisors(n):
        e = 1
        while (m << e) + 1 < STRUCTURED_BOUND:
            p = (m << e) + 1
            if (n * pow(2, n, p) + 1) % p == 0 and gates.probable_prime(p):
                k = 0
                while value % p == 0:
                    value //= p
                    k += 1
                found.append((p, k))
            e += 1
    return found


def cheap_properties(n: int) -> tuple[int, str, bool, bool]:
    """(odd-divisor count, path, structured, repeated) from modular
    arithmetic on small moduli only."""
    structured = small_structured_primes(n)
    return (odd_divisor_count(n),
            "trial" if has_small_unstructured_factor(n) else "mr",
            bool(structured),
            any(k > 1 for _, k in structured))


def _composite(x: int) -> bool:
    return x > 1 and pow(3, x - 1, x) != 1


def costly_paths_avoided(n: int) -> bool:
    """The cofactor left by the structured primes, and what trial division
    to 10^4 leaves of it, are both composite, and Proth base 2 exposes C(n)
    as composite."""
    value = gates.cullen_value(n)
    cofactor = value
    for p, k in small_structured_primes(n):
        cofactor //= p**k
    remainder = cofactor
    for q in TRIAL_PRIMES:
        while remainder % q == 0:
            remainder //= q
    half = pow(2, (value - 1) // 2, value)
    return (_composite(cofactor) and _composite(remainder)
            and half not in (1, value - 1))


def build_table() -> dict:
    strata = []
    for lo, d_odd, path, structured in STRATA:
        indices = []
        for n in range(lo, lo + WINDOW):
            if n in gates.KNOWN_CULLEN_PRIMES:
                continue
            if cheap_properties(n) != (d_odd, path, structured, False):
                continue
            if costly_paths_avoided(n):
                indices.append(n)
                if len(indices) == MAX_PER_STRATUM:
                    break
        strata.append({"window": [lo, lo + WINDOW], "odd_divisors": d_odd, "path": path,
                       "structured": structured, "indices": indices})
    return {"strata": strata}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(build_table(), indent=1) + "\n")
