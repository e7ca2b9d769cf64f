"""Batch command-line front end.

Commands stream JSON lines (or CSV with --csv) to stdout: one header line
carrying the timestamp and parameters, then rows in ascending n, then an
optional summary.  Everything after the header is deterministic for a given
command, budget, and cache state, whatever the worker count; wall-clock
never appears in the body, only deterministic work counters do.

Exit codes: 0 success, 2 falsification detected, 3 usage error, 4 I/O or
resource error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .errors import BudgetError, FalsificationError
from .factoring import (
    CacheEntry,
    DEFAULT_BUDGET,
    FactorBudget,
    FactorCache,
    Factorization,
    LehmerSearchResult,
    MAX_INDEX,
    VERDICT_PRIME,
    WorkCounter,
    extend_factorization,
    lehmer_constrained_factor,
)
from .predicates import RatioReport, is_carmichael, lehmer_ratio
from .verifier import (
    cascade_as_dict,
    cascade_verify,
    pigeonhole_pair,
    product_as_dict,
    two_three_product_bound,
)

EXIT_OK = 0
EXIT_FALSIFIED = 2
EXIT_USAGE = 3
EXIT_IO = 4

DEFAULT_CACHE = "./cullen-factors.txt"
ENV_PREFIX = "CULLEN_"

SCAN_FIELDS = [
    "kind", "n", "cullen_bits", "status", "verdict", "structured_divisors",
    "witness", "factors", "factor_status", "cofactor", "probable", "ratio",
    "carmichael", "from_cache", "trial_divisions", "rho_iterations",
]
RESEARCH_FIELDS = [
    "kind", "n", "factored", "status", "factors", "cofactor", "phi", "gcd",
    "ratio", "carmichael", "from_cache", "trial_divisions", "rho_iterations",
]
FACTOR_FIELDS = ["kind", "n", "cullen_bits", "factors", "factor_status",
                 "cofactor", "probable", "from_cache", "trial_divisions",
                 "rho_iterations"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise UsageError(message)


def _setting(flag_value: int | None, name: str, default: int, minimum: int) -> int:
    """One integer setting: the flag, else CULLEN_<name>, else the default."""
    value = flag_value
    if value is None:
        env_value = os.environ.get(ENV_PREFIX + name)
        if env_value is None:
            return default
        try:
            value = int(env_value)
        except ValueError as exc:
            raise UsageError(f"bad {ENV_PREFIX}{name}={env_value!r}") from exc
    if value < minimum:
        raise UsageError(f"--{name.lower()} / {ENV_PREFIX}{name} must be at least "
                         f"{minimum}, got {value}")
    return value


def _resolve(args) -> tuple[FactorBudget, int, FactorCache]:
    """Budget, worker count and cache from flags > environment > defaults.

    Both integers are validated here, before any cache is opened or any
    worker process is started; the worker count is capped at the CPU count."""
    rho = _setting(args.budget, "BUDGET", DEFAULT_BUDGET.rho_iterations, 0)
    workers = min(_setting(args.workers, "WORKERS", 1, 1), os.cpu_count() or 1)
    cache = FactorCache(args.cache or os.environ.get(ENV_PREFIX + "CACHE") or DEFAULT_CACHE)
    return FactorBudget(rho_iterations=rho), workers, cache


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cullen",
        description="Verify that Cullen numbers escape the Lehmer property, "
        "step by step, and scan the related open problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=None,
                        help="worker processes, capped at the CPU count "
                        "(default 1, env CULLEN_WORKERS)")
    common.add_argument("--budget", type=int, default=None,
                        help="Pollard-rho iteration budget per value "
                        f"(default {DEFAULT_BUDGET.rho_iterations}, env CULLEN_BUDGET)")
    common.add_argument("--cache", default=None,
                        help=f"factor cache path (default {DEFAULT_CACHE}, env CULLEN_CACHE)")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV rows")
    fmt.add_argument("--json", action="store_true", help="emit JSON lines (default)")

    p = sub.add_parser("check", parents=[common], help="run the theorem pipeline for one index")
    p.add_argument("n", type=int)

    p = sub.add_parser("scan", parents=[common], help="run the theorem pipeline over a range")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    p = sub.add_parser("bounds", help="replay the bound cascade and the smooth-prime product")
    p.add_argument("--cap", type=int, default=10_000_000,
                   help="enumeration cap for the product bound (default 1e7)")

    p = sub.add_parser("pigeonhole", help="build the small-combination pair")
    p.add_argument("n", type=int)
    p.add_argument("np", type=int)

    p = sub.add_parser("product-bound", help="certified product over primes 2^a*3^b + 1")
    p.add_argument("--cap", type=int, default=10_000_000)

    p = sub.add_parser("carmichael", parents=[common],
                       help="Korselt scan over a range of indices")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    p = sub.add_parser("ratio", parents=[common],
                       help="exact phi/gcd ratio scan over a range of indices")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    p = sub.add_parser("factor", parents=[common],
                       help="factor one Cullen number: check's factor columns")
    p.add_argument("n", type=int)

    return parser


# ---------------------------------------------------------------------------
# row computation (top-level so worker processes can receive it)


@dataclass(frozen=True)
class _Record:
    """Everything computed for one index; every row schema is a projection."""

    search: LehmerSearchResult
    fact: Factorization
    from_cache: bool
    counter: WorkCounter
    ratio: RatioReport | None  # both None unless fact is complete
    carmichael: bool | None

    @property
    def n(self) -> int:
        return self.search.c.n


def _compute(n: int, budget: FactorBudget, cached: CacheEntry | None) -> _Record:
    """Compute index n once: the structured search, then the row's
    factorization from extend_factorization, which decides whether the
    cached factorization stands in for general factoring, then the
    predicates."""
    counter = WorkCounter()
    search = lehmer_constrained_factor(n)
    fact, from_cache = extend_factorization(search, budget, counter, cached)
    ratio = carmichael = None
    if fact.is_complete:
        ratio = lehmer_ratio(n, fact)
        carmichael = is_carmichael(fact.value, fact)
    return _Record(search, fact, from_cache, counter, ratio, carmichael)


def _compute_rows(ns, budget: FactorBudget, cache: FactorCache, workers: int):
    """Yield a _Record per index in ascending n, offering each row's
    factorization to the cache, whose put decides what is written.  A
    process pool computes independent indices with at most 2*workers of
    them in flight, so that a reader that stops early stops the work."""

    def stored(record: _Record) -> _Record:
        cache.put(record.n, record.fact, budget.rho_iterations)
        return record

    if workers <= 1 or len(ns) <= 1:
        for n in ns:
            yield stored(_compute(n, budget, cache.entry(n)))
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_lift_int_digit_limit) as pool:
        window = deque()  # futures in submission order, which is ascending n
        for n in ns:
            window.append(pool.submit(_compute, n, budget, cache.entry(n)))
            if len(window) == 2 * workers:
                yield stored(window.popleft().result())
        while window:
            yield stored(window.popleft().result())


# ---------------------------------------------------------------------------
# emission


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Emitter:
    """Writes the header (timestamped) and the deterministic body.

    In CSV mode the header and any report line are written as ``# `` comments
    around the CSV table."""

    def __init__(self, out, as_csv: bool, fields: list[str] | None = None):
        self.out = out
        self.as_csv = as_csv
        self.fields = fields
        self._csv_writer = None

    def header(self, command: str, params: dict) -> None:
        self.report({"kind": "header", "command": command, "generated_at": _now(),
                     "params": params})
        if self.as_csv:
            self._csv_writer = csv.writer(self.out, lineterminator="\n")
            self._csv_writer.writerow(self.fields)

    def row(self, row: dict) -> None:
        """Write the row's values for self.fields, in that order."""
        values = [row[f] for f in self.fields]
        if self.as_csv:
            self._csv_writer.writerow([_csv_cell(v) for v in values])
        else:
            line = json.dumps(dict(zip(self.fields, values)), separators=(",", ":"))
            self.out.write(line + "\n")

    def report(self, payload: dict) -> None:
        prefix = "# " if self.as_csv else ""
        self.out.write(prefix + json.dumps(payload, separators=(",", ":"), default=str) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# row schemas: each command's Emitter keeps its own fields from these dicts


def _scan_row(record: _Record) -> dict:
    """Every column of the scan schema; factor's are a subset of them."""
    search, fact = record.search, record.fact
    return {
        "kind": "row",
        "n": record.n,
        "cullen_bits": fact.value.bit_length(),
        "status": "prime" if search.verdict == VERDICT_PRIME else "composite",
        "verdict": search.verdict,
        "structured_divisors": [sp.value for sp in search.structured_divisors],
        "witness": search.witness.detail,
        "factors": fact.summary(),
        "factor_status": fact.status,
        "cofactor": fact.cofactor,
        "probable": list(fact.probable),
        "ratio": str(record.ratio.ratio) if record.ratio else None,
        "carmichael": record.carmichael,
        "from_cache": record.from_cache,
        "trial_divisions": record.counter.trial_divisions,
        "rho_iterations": record.counter.rho_iterations,
    }


def _research_row(record: _Record) -> dict:
    row = _scan_row(record)
    report = record.ratio
    row.update(
        factored=report is not None,
        phi=str(report.phi) if report else None,
        gcd=str(report.gcd_value) if report else None,
    )
    if report is None:
        row.update(ratio="unknown", carmichael="unknown")
    return row


# ---------------------------------------------------------------------------
# commands


def _cache_params(cache: FactorCache) -> dict:
    """The cache's header parameters: its path and what its load found."""
    return {"cache": str(cache.path), "cache_entries": len(cache),
            "cache_skipped_lines": cache.skipped_lines}


def _cmd_rows(args, out) -> int:
    """check, scan, factor, ratio and carmichael: one record per index,
    projected to the scan schema, to its factor columns or, with a summary,
    to the research schema."""
    if args.command in ("check", "factor"):
        n_min = n_max = args.n
    else:
        n_min, n_max = args.n_min, args.n_max
    if not 1 <= n_min <= n_max <= MAX_INDEX:
        raise UsageError(f"need 1 <= n_min <= n_max <= {MAX_INDEX}")
    budget, workers, cache = _resolve(args)
    research = args.command in ("ratio", "carmichael")
    fields = {"factor": FACTOR_FIELDS, "ratio": RESEARCH_FIELDS,
              "carmichael": RESEARCH_FIELDS}.get(args.command, SCAN_FIELDS)
    emitter = Emitter(out, args.csv, fields)
    emitter.header(args.command, {"n_min": n_min, "n_max": n_max,
                                  "budget": budget.rho_iterations, "workers": workers,
                                  **_cache_params(cache)})
    ns = range(n_min, n_max + 1)
    ratios: list[Fraction] = []
    carmichael_hits = 0
    for record in _compute_rows(ns, budget, cache, workers):
        emitter.row(_research_row(record) if research else _scan_row(record))
        if record.ratio is not None:
            ratios.append(record.ratio.ratio)
            carmichael_hits += record.carmichael
    if research:
        emitter.report({
            "kind": "summary",
            "rows": len(ns),
            "factored": len(ratios),
            "unfactored": len(ns) - len(ratios),
            "carmichael_count": carmichael_hits,
            "ratio_min": str(min(ratios)) if ratios else None,
            "ratio_mean": str(sum(ratios, Fraction(0)) / len(ratios)) if ratios else None,
            "ratio_max": str(max(ratios)) if ratios else None,
        })
    return EXIT_OK


def _cmd_bounds(args, out) -> int:
    if args.cap < 1000:
        raise UsageError("bounds needs --cap >= 1000 for the product stage")
    emitter = Emitter(out, False)
    emitter.header("bounds", {"cap": args.cap})
    cascade = cascade_verify(args.cap)
    payload = cascade_as_dict(cascade)
    payload["product"] = product_as_dict(cascade.product)
    emitter.report(payload)
    return EXIT_OK if cascade.passed else EXIT_FALSIFIED


def _cmd_pigeonhole(args, out) -> int:
    if args.n < 2 or not 1 <= args.np <= args.n:
        raise UsageError("need n >= 2 and 1 <= np <= n")
    emitter = Emitter(out, False)
    emitter.header("pigeonhole", {"n": args.n, "np": args.np})
    pair = pigeonhole_pair(args.n, args.np)
    emitter.report({"kind": "pair", "n": pair.n, "np": pair.np,
                    "u": pair.u, "v": pair.v, "combo": pair.combo})
    return EXIT_OK


def _cmd_product_bound(args, out) -> int:
    if args.cap < 2:
        raise UsageError("need --cap >= 2")
    emitter = Emitter(out, False)
    emitter.header("product-bound", {"cap": args.cap})
    emitter.report(product_as_dict(two_three_product_bound(args.cap)))
    return EXIT_OK


COMMANDS = {
    "check": _cmd_rows,
    "scan": _cmd_rows,
    "ratio": _cmd_rows,
    "carmichael": _cmd_rows,
    "bounds": _cmd_bounds,
    "pigeonhole": _cmd_pigeonhole,
    "product-bound": _cmd_product_bound,
    "factor": _cmd_rows,
}


def _lift_int_digit_limit() -> None:
    """Let int and str convert into each other at any length.  Rows and
    cache lines hold C(n)'s factors and cofactor in decimal, and CPython
    (3.11, and 3.10 from 3.10.7) refuses more than 4300 digits by default,
    which C(n) passes at about n = 14,270.  A spawned worker process does
    not inherit the setting, so the pool runs this as its initializer."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    _lift_int_digit_limit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FalsificationError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
