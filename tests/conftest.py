"""Shared fixtures: a fully factored corpus of small Cullen values, a
subprocess runner for the CLI, and the int/str digit limit restored after
every test."""

import json
import subprocess
import sys

import pytest

from cullen_lehmer import FactorBudget, cullen, general_factor
from cullen_lehmer.primality import DETERMINISTIC_LIMIT

CORPUS_MAX = 60


@pytest.fixture(scope="session")
def factored_corpus():
    """Complete factorization of C(n) for n = 1..60, independently verified
    by product round-trip; every factor is below the deterministic
    primality threshold."""
    corpus = {}
    budget = FactorBudget(rho_iterations=1 << 21)
    for n in range(1, CORPUS_MAX + 1):
        f = general_factor(cullen(n).value, budget)
        assert f.is_complete, f"C({n}) did not factor within the corpus budget"
        assert all(p < DETERMINISTIC_LIMIT for p, _ in f.factors)
        value = 1
        for p, k in f.factors:
            value *= p**k
        assert value == cullen(n).value
        corpus[n] = f
    return corpus


@pytest.fixture(autouse=True)
def int_digit_limit():
    """Restore CPython's int/str digit limit after every test, since main()
    lifts it for the whole process; yields a setter for a test that needs a
    given limit (a no-op where the interpreter has no such limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield lambda limit: None
        return
    previous = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(previous)


def run_cli(*args, env=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cullen_lehmer", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_jsonl(stdout: str):
    """Split CLI output into (header, rows, summaries)."""
    header = None
    rows = []
    summaries = []
    reports = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("kind")
        if kind == "header":
            header = obj
        elif kind == "row":
            rows.append(obj)
        elif kind == "summary":
            summaries.append(obj)
        else:
            reports.append(obj)
    return header, rows, summaries, reports


def body_of(stdout: str) -> str:
    """Everything after the header line: the deterministic report body."""
    lines = stdout.splitlines(keepends=True)
    assert lines, "empty CLI output"
    return "".join(lines[1:])
