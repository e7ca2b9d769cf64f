"""The four workloads: seeded inputs, set-up and one timed iteration each.

The package is driven only through ``cli.main(argv, out=...)`` and the
``verifier`` functions.  Inputs depend on the seed alone; the package
receives only the generated index lists.  Index selection uses plain
integer arithmetic, never the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gates

BUDGET = 262_144  # the CLI's default rho budget, pinned so the environment cannot move it

FRONTIER_PRIMES = (4713, 5795, 6611)
FRONTIER_TABLE = Path(__file__).with_name("frontier_strata.json")

SWEEP_SPAN = 1000
SWEEP_MAX_OFFSET = 10

RESEARCH_WIDTH = 60
RESEARCH_START = 169
RESEARCH_MAX_OFFSET = 8

PAIR_LOW = 30
PAIR_MAX_OFFSET = 8
PAIR_TARGET = sum(range(30, 201))  # every (n, np) with 1 <= np <= n for 30 <= n <= 200
DIVISOR_BAND = 100
DIVISOR_LOW = 60  # with the offset below, the band always holds the Cullen prime 141
CASCADE_CAP = 10**7
ROW_COUNTERS = ("rows", "rho_iterations", "trial_divisions", "rho_rows", "rho_complete", "from_cache")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def frontier_indices(seed: int) -> list[int]:
    """One index per frontier stratum (see strata.py) plus the three
    Cullen-prime indices, ascending."""
    rng = rng_for("frontier", seed)
    table = json.loads(FRONTIER_TABLE.read_text())
    return sorted(list(FRONTIER_PRIMES) + [rng.choice(s["indices"]) for s in table["strata"]])


def sweep_range(seed: int) -> tuple[int, int]:
    """The band always starts at 1, because C(n) is fully factored for every
    n < 38 and a moving start would move the complete share; the seed moves
    its end."""
    return 1, SWEEP_SPAN + rng_for("sweep", seed).randrange(SWEEP_MAX_OFFSET)


def research_range(seed: int) -> tuple[int, int]:
    lo = RESEARCH_START + rng_for("research", seed).randrange(RESEARCH_MAX_OFFSET)
    return lo, lo + RESEARCH_WIDTH - 1


def proof_bands(seed: int) -> tuple[range, range]:
    """(pigeonhole indices, divisibility indices).  The pigeonhole band
    starts at a seeded offset and ends once it holds PAIR_TARGET pairs."""
    rng = rng_for("proof", seed)
    lo = PAIR_LOW + rng.randrange(PAIR_MAX_OFFSET)
    hi, pairs = lo, lo
    while pairs < PAIR_TARGET:
        hi += 1
        pairs += hi
    d_lo = DIVISOR_LOW + rng.randrange(PAIR_MAX_OFFSET)
    return range(lo, hi + 1), range(d_lo, d_lo + DIVISOR_BAND)


# ---------------------------------------------------------------------------
# plans and iterations


@dataclass
class Command:
    argv: list[str]
    expected: list[int]


@dataclass
class Plan:
    """What one iteration runs, fixed at set-up."""

    kind: str  # "theorem" | "research" | "proof"
    commands: list[Command] = field(default_factory=list)
    pairs: list[tuple[int, int]] = field(default_factory=list)
    divisors: list[tuple[int, object]] = field(default_factory=list)  # (n, StructuredPrime)
    band_complete: int = 0
    band_size: int = 0

    def key(self) -> str:
        """Digest of the generated inputs, to compare set-ups."""
        data = [[c.argv for c in self.commands], self.pairs,
                [(n, sp.value) for n, sp in self.divisors]]
        return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def make_plan(workload: str, seed: int, package) -> Plan:
    """Input generation plus the workload's set-up steps."""
    if workload == "frontier":
        commands = [Command(["check", str(n), "--budget", "0"], [n])
                    for n in frontier_indices(seed)]
        return Plan("theorem", commands)
    if workload == "sweep":
        lo, hi = sweep_range(seed)
        argv = ["scan", str(lo), str(hi), "--budget", "0"]
        return Plan("theorem", [Command(argv, list(range(lo, hi + 1)))])
    if workload == "research":
        lo, hi = research_range(seed)
        ns = list(range(lo, hi + 1))
        return Plan("research", [Command([cmd, str(lo), str(hi), "--budget", str(BUDGET)], ns)
                                 for cmd in ("ratio", "carmichael")])
    if workload == "proof":
        pair_band, divisor_band = proof_bands(seed)
        plan = Plan("proof")
        plan.pairs = [(n, np_) for n in pair_band for np_ in range(1, n + 1)]
        for n in divisor_band:
            result = package.factoring.lehmer_constrained_factor(n)
            plan.divisors += [(n, sp) for sp in result.structured_divisors]
            plan.band_complete += result.factorization.is_complete
        plan.band_size = len(divisor_band)
        return plan
    raise ValueError(f"unknown workload {workload!r}")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class RowClock:
    """Text sink for ``cli.main`` that keeps the lines and stamps the time
    each row line is written."""

    def __init__(self):
        self.chunks: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if '"kind":"row"' in text:
            self.stamps.append(perf_counter())
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.chunks).splitlines()


@dataclass
class Iteration:
    """Measurements and gate outcome of one timed iteration."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    gaps: list[float] = field(default_factory=list)  # per-row (or per-call) latency
    row_p50: float = 0.0
    row_tail: float = 0.0
    tail_source: str = ""
    row_samples: int = 0
    counters: dict = field(default_factory=lambda: dict.fromkeys(ROW_COUNTERS, 0))
    row_count: int = 0
    complete: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def tail_percentile(samples: list[float], percent: int = 99, min_beyond: int = 10) -> float | None:
    """Nearest-rank percentile, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    count = len(samples)
    rank = -(-count * percent // 100)
    if rank < 1 or count - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def row_tail(samples: list[float]) -> tuple[float, str]:
    """row_s_p99 where at least ten samples lie beyond it, else the maximum."""
    p99 = tail_percentile(samples)
    if p99 is not None:
        return p99, "p99"
    return max(samples), "max"


def run_iteration(plan: Plan, package, cache_path: Path, workers: int) -> Iteration:
    """One timed iteration, gated.  The latency samples are reduced to their
    median and tail before returning, so memory does not grow with the
    number of iterations a run fits in."""
    if plan.kind == "proof":
        it = _run_proof(plan, package.verifier)
    else:
        it = _run_cli(plan, package.cli, cache_path, workers)
    if it.gaps:
        it.row_p50 = statistics.median(it.gaps)
        it.row_tail, it.tail_source = row_tail(it.gaps)
        it.row_samples = len(it.gaps)
    it.gaps = []
    return it


def _run_cli(plan: Plan, cli, cache_path: Path, workers: int) -> Iteration:
    cache_path.unlink(missing_ok=True)
    it = Iteration()
    outputs = []
    cpu0 = cpu_seconds()
    for command in plan.commands:
        argv = command.argv + ["--workers", str(workers), "--cache", str(cache_path)]
        clock = RowClock()
        start = perf_counter()
        try:
            code = cli.main(argv, out=clock)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        it.wall_s += end - start
        if workers == 1:
            prev = start
            for stamp in clock.stamps:
                it.gaps.append(stamp - prev)
                prev = stamp
        elif clock.stamps:
            # a pool delivers rows in bursts, so the gap between writes is not
            # a row's latency; the command's mean time per row stands in for it
            it.gaps.append((end - start) / len(clock.stamps))
        outputs.append((command, code, clock.lines()))
    it.cpu_s = cpu_seconds() - cpu0
    cache_path.unlink(missing_ok=True)

    digest = hashlib.sha256()
    for command, code, lines in outputs:
        it.attempted += len(command.expected)
        body = lines[1:]  # the header carries the timestamp and the cache path
        digest.update(("\n".join([command.argv[0]] + body) + "\n").encode())
        problems = [] if code == 0 else [f"{' '.join(command.argv)} exited {code}"]
        rows, summary = [], None
        for line in body:
            try:
                record = json.loads(line)
            except ValueError:
                problems.append(f"unparseable line {line[:80]!r}")
                continue
            if record.get("kind") == "row":
                rows.append(record)
            elif record.get("kind") == "summary":
                summary = record
        problems += gates.check_coverage(rows, command.expected)
        bad_rows = 0
        for row in rows:
            check = (gates.check_research_row if plan.kind == "research"
                     else gates.check_theorem_row)
            try:
                row_problems = check(row)
            except (KeyError, TypeError, ValueError) as exc:
                row_problems = [f"malformed row {row.get('n')}: {exc!r}"]
            bad_rows += bool(row_problems)
            problems += row_problems
        if plan.kind == "research":
            try:
                problems += gates.check_research_summary(summary, rows)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"malformed summary: {exc!r}")
        if code != 0:
            failed = len(command.expected)
        else:
            failed = bad_rows + max(0, len(command.expected) - len(rows))
            failed = min(len(command.expected), max(failed, bool(problems)))
        it.failed += failed
        it.problems += problems
        it.row_count += len(rows)
        it.complete += sum(_row_complete(row) for row in rows)
        it.counters["rows"] += len(rows)
        for row in rows:
            rho = row.get("rho_iterations", 0)
            it.counters["rho_iterations"] += rho
            it.counters["trial_divisions"] += row.get("trial_divisions", 0)
            it.counters["rho_rows"] += rho > 0
            it.counters["rho_complete"] += rho > 0 and _row_complete(row)
            it.counters["from_cache"] += row.get("from_cache") is True
    it.digest = digest.hexdigest()
    return it


def _row_complete(row: dict) -> bool:
    return row.get("factor_status") == "complete" or row.get("factored") is True


def _run_proof(plan: Plan, verifier) -> Iteration:
    it = Iteration(attempted=len(plan.pairs) + len(plan.divisors) + 1)
    pairs, checks = [], []
    cascade = None
    cpu0 = cpu_seconds()
    start = perf_counter()
    for n, np_ in plan.pairs:
        t = perf_counter()
        try:
            pair = verifier.pigeonhole_pair(n, np_)
        except Exception as exc:  # counted and reported, never fatal
            pair = exc
        it.gaps.append(perf_counter() - t)
        pairs.append(pair)
    for n, sp in plan.divisors:
        t = perf_counter()
        try:
            pair = verifier.pigeonhole_pair(n, sp.e)
            checks.append((pair, verifier.divisibility_check(n, sp, pair)))
        except Exception as exc:
            checks.append((None, exc))
        it.gaps.append(perf_counter() - t)
    t = perf_counter()
    try:
        cascade = verifier.cascade_verify(CASCADE_CAP)
    except Exception as exc:
        cascade = exc
    it.gaps.append(perf_counter() - t)
    it.wall_s = perf_counter() - start
    it.cpu_s = cpu_seconds() - cpu0

    digest = hashlib.sha256()
    for (n, np_), pair in zip(plan.pairs, pairs):
        if isinstance(pair, Exception):
            it.problems.append(f"pigeonhole_pair({n}, {np_}) raised {pair!r}")
            it.failed += 1
            continue
        digest.update(f"{n} {np_} {pair.u} {pair.v} {pair.combo}\n".encode())
        problems = gates.check_pair(n, np_, pair.u, pair.v, pair.combo)
        if (pair.n, pair.np) != (n, np_):
            problems.append(f"pair for ({pair.n}, {pair.np}) returned for ({n}, {np_})")
        it.failed += bool(problems)
        it.problems += problems
    for (n, sp), (pair, verdict) in zip(plan.divisors, checks):
        if isinstance(verdict, Exception) or verdict is not True:
            it.problems.append(f"divisibility_check({n}, {sp.value}) gave {verdict!r}")
            it.failed += 1
            continue
        digest.update(f"{n} {sp.value} {pair.u} {pair.v}\n".encode())
        problems = (gates.check_pair(n, sp.e, pair.u, pair.v, pair.combo)
                    + gates.check_divisibility(n, sp.m, sp.e, pair.u, pair.v))
        it.failed += bool(problems)
        it.problems += problems
    if isinstance(cascade, Exception) or not cascade.passed:
        it.problems.append(f"cascade_verify({CASCADE_CAP}) did not pass: {cascade!r:.200}")
        it.failed += 1
    else:
        digest.update(json.dumps(verifier.cascade_as_dict(cascade), sort_keys=True,
                                 default=str).encode())
    it.digest = digest.hexdigest()
    it.complete, it.row_count = plan.band_complete, plan.band_size
    return it

