"""Benchmark of the cullen-lehmer package, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: frontier, sweep, research, proof (see workloads.py and
perfbench/README.md).  Each run sets up several times and reports the
median set-up time, then repeats the workload's iteration until the next
one would overrun ``--seconds`` (always at least one), gating every output
for correctness.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-module metrics of
one traced iteration, next to untraced iterations for the overhead.  The
line before it holds the machine facts, sample counts and body digest.

Exit status: 0 when every output passed its gate, 1 when one did not
(the result line is still printed), 2 when the package or the arguments
are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import strata
import workloads

WORKLOADS = ("frontier", "sweep", "research", "proof")
LAYERS = ("cli", "cullen", "primality", "factoring", "predicates", "verifier", "certified")
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "row_s_p50": "s", "row_s_p99": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "factored_share": "ratio", "ok_share": "ratio"}
MAX_RESEARCH_WORKERS = 4  # research uses one worker per core, capped to bound memory


# ---------------------------------------------------------------------------
# environment


def load_package(root: Path) -> SimpleNamespace:
    """Import the package from ``root/src`` or exit 2."""
    src = root / "src"
    if not (src / "cullen_lehmer" / "__init__.py").is_file():
        print(f"perfbench: {src / 'cullen_lehmer'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"cullen_lehmer.{name}") for name in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"perfbench: imported the package from {origin}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(**mods)


def import_seconds(root: Path) -> float:
    """Wall time for a fresh interpreter to start and import the CLI module."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import cullen_lehmer.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
    return perf_counter() - start


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(root: Path, seed: int, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
        "git_rev": git_rev(root),
        "src_sha256": src_digest(root),
        "seed": seed,
        "workers": workers,
    }


def research_workers() -> int:
    return max(1, min(os.cpu_count() or 1, MAX_RESEARCH_WORKERS))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class DigestStore:
    """Body digests of earlier runs in this checkout, keyed by source tree,
    workload and inputs, so a body that changes between runs is caught."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, digest: str) -> bool:
        if self.known.setdefault(key, digest) != digest:
            return False
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return True


# ---------------------------------------------------------------------------
# runs


def set_up(workload: str, seed: int, package, root: Path):
    """Set up SETUP_REPEATS times: a fresh interpreter importing the package,
    then input generation and the workload's set-up steps in this process.
    Returns the per-repeat times, the plan, and whether all plans agreed."""
    samples, keys, plan = [], set(), None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(root)
        start = perf_counter()
        plan = workloads.make_plan(workload, seed, package)
        samples.append(imported + perf_counter() - start)
        keys.add(plan.key())
    return samples, plan, len(keys) == 1


def timed_loop(plan, package, cache: Path, workers: int, seconds: float) -> list:
    """Iterate until the next iteration would end after ``seconds``."""
    iterations = []
    start = perf_counter()
    while True:
        iterations.append(workloads.run_iteration(plan, package, cache, workers))
        typical = statistics.median(it.wall_s for it in iterations)
        if perf_counter() - start + typical > seconds:
            return iterations


def trace_targets(package) -> list[spans.Target]:
    """Public names of every layer, wrapped wherever the caller looks them up."""
    T = spans.Target
    p = package

    def bits_reaching_pow(methods):
        def extra(args, verdict):
            return (verdict.value.bit_length() if verdict.method in methods else 0,)
        return extra

    def candidates(args, result):
        n = args[0]
        count = strata.odd_divisor_count(n) * (n + (n & -n).bit_length() - 1)
        return (count, len(result.structured_divisors))

    def cache_size(args, _result):
        return (len(args[0]), args[0].skipped_lines)

    return [
        T("cli.main", p.cli, "main"),
        T("cullen.cullen", p.cullen, "cullen", index_arg=0),
        T("primality.proth_test", p.primality, "proth_test", extra=bits_reaching_pow({"proth"})),
        T("primality.is_prime", p.primality, "is_prime",
          extra=bits_reaching_pow({"deterministic-mr", "probabilistic-mr"})),
        T("primality.structured_verdict", p.primality, "structured_verdict"),
        T("factoring.lehmer_constrained_factor", p.factoring, "lehmer_constrained_factor",
          index_arg=0, extra=candidates),
        T("factoring.general_factor", p.factoring, "general_factor"),
        T("factoring.FactorCache.load", p.factoring.FactorCache, "__init__", extra=cache_size),
        T("factoring.FactorCache.put", p.factoring.FactorCache, "put", index_arg=1),
        T("predicates.lehmer_ratio", p.predicates, "lehmer_ratio", index_arg=0),
        T("predicates.is_carmichael", p.predicates, "is_carmichael"),
        T("verifier.pigeonhole_pair", p.verifier, "pigeonhole_pair", index_arg=0),
        T("verifier.divisibility_check", p.verifier, "divisibility_check", index_arg=0),
        T("verifier.a_expression", p.verifier, "a_expression", index_arg=0),
        T("verifier.cascade_verify", p.verifier, "cascade_verify"),
        T("verifier.two_three_product_bound", p.verifier, "two_three_product_bound"),
        T("certified.floor_certified", p.certified, "floor_certified"),
        T("certified.ceil_certified", p.certified, "ceil_certified"),
        T("certified.ln_i", p.certified, "ln_i"),
        T("certified.sqrt_i", p.certified, "sqrt_i"),
    ]


# span name -> statistics reported as "<span name>.<statistic>"; "bits" is
# the span's first summed extra
SPAN_STATS = {
    "cullen.cullen": ("calls", "busy_s"),
    "primality.proth_test": ("calls", "busy_s", "bits"),
    "primality.is_prime": ("calls", "busy_s", "bits"),
    "primality.structured_verdict": ("calls", "busy_s"),
    "factoring.lehmer_constrained_factor": ("calls", "busy_s", "self_s"),
    "factoring.general_factor": ("calls", "busy_s", "self_s"),
    "predicates.lehmer_ratio": ("calls", "busy_s"),
    "predicates.is_carmichael": ("calls", "busy_s"),
    "verifier.pigeonhole_pair": ("calls", "busy_s", "self_s"),
    "verifier.divisibility_check": ("calls", "busy_s", "self_s"),
    "verifier.a_expression": ("calls", "busy_s"),
    "verifier.cascade_verify": ("busy_s",),
    "verifier.two_three_product_bound": ("busy_s",),
    "certified.floor_certified": ("calls", "busy_s"),
    "certified.ceil_certified": ("calls", "busy_s"),
    "certified.ln_i": ("calls", "busy_s"),
    "certified.sqrt_i": ("calls", "busy_s"),
}
# metrics named apart from their span: metric -> (span name, statistic)
NAMED_STATS = {
    "factoring.candidates": ("factoring.lehmer_constrained_factor", "extra0"),
    "factoring.FactorCache.load_s": ("factoring.FactorCache.load", "busy_s"),
    "factoring.FactorCache.entries": ("factoring.FactorCache.load", "extra0"),
    "factoring.FactorCache.skipped_lines": ("factoring.FactorCache.load", "extra1"),
    "factoring.FactorCache.put_calls": ("factoring.FactorCache.put", "calls"),
    "factoring.FactorCache.put_s": ("factoring.FactorCache.put", "busy_s"),
}


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_share"):
        return "ratio"
    return "bits" if stat == "bits" else "count"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(summary: dict, traced, overhead_s: float) -> dict[str, float]:
    def stat(span: str, key: str) -> float:
        entry = summary.get(span)
        if entry is None:
            return 0
        if key == "bits":
            key = "extra0"
        if key.startswith("extra"):
            extra = entry["extra"]
            i = int(key[5:])
            return extra[i] if i < len(extra) else 0
        return entry[key]

    values = {f"{span}.{key}": stat(span, key)
              for span, keys in SPAN_STATS.items() for key in keys}
    values.update({metric: stat(*where) for metric, where in NAMED_STATS.items()})
    counters = traced.counters
    rows = counters["rows"]
    values.update({
        "cli.self_s": stat("cli.main", "self_s"),
        "cli.rows": rows,
        "factoring.candidate_hit_share": _share(
            stat("factoring.lehmer_constrained_factor", "extra1"),
            stat("factoring.lehmer_constrained_factor", "extra0")),
        "factoring.rho_iterations": counters["rho_iterations"],
        "factoring.trial_divisions": counters["trial_divisions"],
        "factoring.rho_success_share": _share(counters["rho_complete"], counters["rho_rows"]),
        "factoring.cache_hit_share": _share(counters["from_cache"], rows),
        "trace.overhead_s": overhead_s,
    })
    return values


def traced_pass(plan, package, cache: Path):
    tracer = spans.Tracer()
    modules = [getattr(package, name) for name in LAYERS]
    with spans.patched(tracer, trace_targets(package), modules) as missing:
        iteration = workloads.run_iteration(plan, package, cache, workers=1)
    return iteration, tracer, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    package = load_package(root)
    for key in [k for k in os.environ if k.startswith("CULLEN_")]:
        del os.environ[key]  # flags pin every setting; the environment must not move them
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    cache = work / f"cache-{os.getpid()}.txt"
    workers = research_workers() if args.workload == "research" else 1
    facts = machine_facts(root, args.seed, workers)

    setup_samples, plan, same_plan = set_up(args.workload, args.seed, package, root)
    attempted, failed = 1, int(not same_plan)
    problems = [] if same_plan else ["set-up produced different inputs for one seed"]

    runs = []  # (label, iterations)
    traced = tracer = None
    missing: list[str] = []
    if args.trace:
        runs.append(("untraced_w1", timed_loop(plan, package, cache, 1, args.seconds / 2)))
        if workers != 1:
            runs.append((f"untraced_w{workers}", [workloads.run_iteration(plan, package, cache, workers)]))
        traced, tracer, missing = traced_pass(plan, package, cache)
        runs.append(("traced_w1", [traced]))
    else:
        runs.append((f"untraced_w{workers}", timed_loop(plan, package, cache, workers, args.seconds)))

    iterations = [it for _, its in runs for it in its]
    for it in iterations:
        attempted += it.attempted
        failed += it.failed
        problems += it.problems
    digests = {label: sorted({it.digest for it in its}) for label, its in runs}
    all_digests = {d for ds in digests.values() for d in ds}
    attempted += 2
    stored_ok = DigestStore(work / "digests.json").check(
        f"{facts['src_sha256']}/{args.workload}/{plan.key()}", iterations[0].digest)
    if len(all_digests) != 1:
        failed += 1
        problems.append(f"output bodies differ between iterations: {digests}")
    if not stored_ok:
        failed += 1
        problems.append("output body differs from an earlier run with these inputs and source")

    untraced = runs[0][1]
    info = {
        "workload": args.workload,
        "facts": facts,
        "iterations": {label: len(its) for label, its in runs},
        "iteration_wall_s": {label: [it.wall_s for it in its] for label, its in runs},
        "digests": digests,
        "problems": problems[:20],
    }
    if args.trace:
        overhead = traced.wall_s - statistics.median(it.wall_s for it in untraced)
        values = per_layer_metrics(spans.summarize(tracer.spans), traced, overhead)
        tracer.write(work / f"spans-{args.workload}-{args.seed}.jsonl")
        info["traced_workers"] = 1
        info["trace_note"] = ("the traced pass runs with --workers 1; spans from pool "
                              "children are not collected")
        info["spans"] = len(tracer.spans)
        info["unwrapped"] = missing
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    else:
        info["row_samples_per_iteration"] = [it.row_samples for it in untraced]
        info["row_s_p99_source"] = sorted({it.tail_source for it in untraced})
        info["setup_samples_s"] = setup_samples
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(it.wall_s for it in untraced),
            "row_s_p50": statistics.median(it.row_p50 for it in untraced),
            "row_s_p99": statistics.median(it.row_tail for it in untraced),
            "cpu_s": statistics.median(it.cpu_s for it in untraced),
            "peak_rss_mb": peak_rss_mb(),
            "factored_share": _share(sum(it.complete for it in untraced),
                                     sum(it.row_count for it in untraced)),
            "ok_share": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = work / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, **result}, indent=1, default=str))
    cache.unlink(missing_ok=True)
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
