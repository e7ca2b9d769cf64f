import hashlib
import io
import json
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from cullen_lehmer import cullen
from cullen_lehmer.cli import (
    EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, FACTOR_FIELDS, _resolve, build_parser, entry, main,
)
from cullen_lehmer.errors import FalsificationError
from cullen_lehmer.factoring import MAX_INDEX, FactorCache
from cullen_lehmer.primality import (
    DETERMINISTIC_LIMIT, PROBABLE_PRIME, PrimalityVerdict, is_prime,
)

from conftest import body_of, parse_jsonl, run_cli


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the CLI's process pool without starting a process: the
    initializer runs on entry and each call at submission.  Returns the
    indices submitted, in order."""
    import concurrent.futures
    from concurrent.futures import Future

    submitted = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            self.initializer = initializer

        def __enter__(self):
            self.initializer()
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, n, *args):
            submitted.append(n)
            future = Future()
            future.set_result(fn(n, *args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return submitted


class TestCheckAndScan:
    def test_check_prime(self, tmp_path):
        code, out, _ = run_cli("check", 1, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        assert rows[0]["status"] == "prime" and rows[0]["verdict"] == "prime"

    def test_check_worked_instance(self, tmp_path):
        code, out, _ = run_cli("check", 6, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        row = rows[0]
        assert row["verdict"] == "structurally_refuted"
        assert row["structured_divisors"] == [5, 7]
        assert "cofactor 11" in row["witness"]
        assert row["factors"] == "5 7 11"

    def test_scan_rows_ascending_and_complete(self, tmp_path):
        code, out, _ = run_cli("scan", 1, 30, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        header, rows, _, _ = parse_jsonl(out)
        assert header["command"] == "scan"
        assert [r["n"] for r in rows] == list(range(1, 31))
        assert all(r["verdict"] != "lehmer" for r in rows)

    def test_scan_env_budget(self, tmp_path):
        env = dict(os.environ, CULLEN_BUDGET="16", CULLEN_CACHE=str(tmp_path / "c.txt"))
        code, out, _ = run_cli("scan", 120, 120, env=env)
        assert code == EXIT_OK
        header, rows, _, _ = parse_jsonl(out)
        assert header["params"]["budget"] == 16
        assert rows[0]["rho_iterations"] <= 16

    def test_flag_overrides_env(self, tmp_path):
        env = dict(os.environ, CULLEN_BUDGET="16")
        code, out, _ = run_cli(
            "scan", 1, 3, "--budget", "4096", "--cache", tmp_path / "c.txt", env=env
        )
        assert code == EXIT_OK
        header, _, _, _ = parse_jsonl(out)
        assert header["params"]["budget"] == 4096

    def test_cache_reuse(self, tmp_path):
        cache = tmp_path / "c.txt"
        run_cli("scan", 1, 10, "--cache", cache)
        code, out, _ = run_cli("scan", 1, 10, "--cache", cache)
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        composite = [r for r in rows if r["status"] == "composite"]
        assert composite and all(r["from_cache"] for r in composite)

    def test_csv_output(self, tmp_path):
        code, out, _ = run_cli("scan", 1, 5, "--csv", "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1].split(",")[:3] == ["kind", "n", "cullen_bits"]
        assert len(lines) == 2 + 5

    def test_usage_errors(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli("scan", 5, 1)
        assert code == EXIT_USAGE
        code, _, _ = run_cli("scan", 0, 4)
        assert code == EXIT_USAGE
        code, _, _ = run_cli("nonsense")
        assert code == EXIT_USAGE
        # a negative budget or fewer than one worker, by flag or environment;
        # CULLEN_WORKERS=2 would start a pool if validation came too late,
        # and with the pool class gone, starting one would raise instead
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        argv = ["scan", "1", "3", "--cache", str(tmp_path / "c.txt")]
        for flag, value in (("--budget", "-1"), ("--workers", "0"), ("--workers", "-2")):
            env_name = "CULLEN_" + flag[2:].upper()
            for extra, env in (([flag, value], {}), ([], {env_name: value})):
                with monkeypatch.context() as m:
                    m.setenv("CULLEN_WORKERS", "2")
                    for name, setting in env.items():
                        m.setenv(name, setting)
                    out = io.StringIO()
                    assert main(argv + extra, out=out) == EXIT_USAGE, (extra, env)
                    assert out.getvalue() == ""
                    assert "must be at least" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_index_above_max_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # refused before any row starts: C(10^11) alone would need 12.5 GB,
        # and a cache line above MAX_INDEX would be skipped on the next load
        import cullen_lehmer.cli as cli_mod

        def refuse(n):
            raise AssertionError(f"row {n} started")

        monkeypatch.setattr(cli_mod, "lehmer_constrained_factor", refuse)
        cache = tmp_path / "c.txt"
        for argv in (["check", str(MAX_INDEX + 1)], ["scan", "1", str(MAX_INDEX + 1)],
                     ["check", "100000000000"]):
            out = io.StringIO()
            assert main([*argv, "--cache", str(cache)], out=out) == EXIT_USAGE, argv
            assert out.getvalue() == ""
            assert f"n_max <= {MAX_INDEX}" in capsys.readouterr().err
        assert not cache.exists()
        with pytest.raises(AssertionError, match=f"row {MAX_INDEX} started"):
            main(["check", str(MAX_INDEX), "--cache", str(cache)], out=io.StringIO())

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        # resolved without starting a pool, so the huge request costs nothing
        parser = build_parser()
        argv = ["scan", "1", "3", "--cache", str(tmp_path / "c.txt")]
        _, workers, _ = _resolve(parser.parse_args(argv + ["--workers", str(10**6)]))
        assert workers == os.cpu_count()
        monkeypatch.setenv("CULLEN_WORKERS", str(10**6))
        _, workers, _ = _resolve(parser.parse_args(argv))
        assert workers == os.cpu_count()
        _, workers, _ = _resolve(parser.parse_args(argv + ["--workers", "1"]))
        assert workers == 1


class TestReports:
    def test_bounds(self, tmp_path):
        code, out, _ = run_cli("bounds", "--cap", 10_000)
        assert code == EXIT_OK
        _, _, _, reports = parse_jsonl(out)
        report = reports[0]
        assert report["passed"] and report["final_verdict"] == "contradiction established"
        assert [s["name"] for s in report["stages"]][-1] == "product-contradiction"
        assert report["product"]["below_two"]
        assert report["product"]["exceeds_cited_bound"]

    def test_bounds_cap_guard(self):
        code, _, _ = run_cli("bounds", "--cap", 10)
        assert code == EXIT_USAGE

    def test_pigeonhole(self):
        code, out, _ = run_cli("pigeonhole", 40, 11)
        assert code == EXIT_OK
        _, _, _, reports = parse_jsonl(out)
        assert reports[0] == {"kind": "pair", "n": 40, "np": 11, "u": 1, "v": -3, "combo": 7}

    def test_pigeonhole_index_bound(self, monkeypatch, capsys):
        # n above MAX_INDEX is refused before any walk starts
        import cullen_lehmer.verifier as verifier

        def no_walk(n, np_):
            raise AssertionError(f"pigeonhole_pair({n}, {np_}) called")

        out = io.StringIO()
        with monkeypatch.context() as m:
            m.setattr(verifier, "pigeonhole_pair", no_walk)
            assert main(["pigeonhole", str(MAX_INDEX + 1), "12345"], out=out) == EXIT_USAGE
        assert out.getvalue() == ""
        assert f"n <= {MAX_INDEX}" in capsys.readouterr().err
        assert main(["pigeonhole", str(MAX_INDEX), "12345"], out=out) == EXIT_OK
        _, _, _, reports = parse_jsonl(out.getvalue())
        assert reports[0]["n"] == MAX_INDEX

    def test_product_bound(self):
        code, out, _ = run_cli("product-bound", "--cap", 1000)
        assert code == EXIT_OK
        _, _, _, reports = parse_jsonl(out)
        assert reports[0]["below_two"] is True
        assert reports[0]["partial_product_decimal"].startswith("1.926")

    def test_product_bound_cap_floor(self):
        # below cap 5 the tail bound is at least 1, outside exp_upper's domain
        for cap in (2, 3, 4):
            code, out, err = run_cli("product-bound", "--cap", cap)
            assert code == EXIT_USAGE, cap
            assert out == "" and "Traceback" not in err
            assert "need 5 <= --cap" in err
        code, out, _ = run_cli("product-bound", "--cap", 5)
        assert code == EXIT_OK
        assert parse_jsonl(out)[3][0]["primes_used"] == [5]

    def test_report_cap_limit(self, monkeypatch, capsys):
        # a cap above DETERMINISTIC_LIMIT is refused before any enumeration
        import cullen_lehmer.verifier as verifier

        def no_walk(cap):
            raise AssertionError(f"enumeration at cap {cap}")

        for command in ("bounds", "product-bound"):
            out = io.StringIO()
            with monkeypatch.context() as m:
                m.setattr(verifier, "two_three_product_bound", no_walk)
                m.setattr(verifier, "cascade_verify", no_walk)
                argv = [command, "--cap", str(DETERMINISTIC_LIMIT + 1)]
                assert main(argv, out=out) == EXIT_USAGE, command
            assert out.getvalue() == ""
            assert f"--cap <= {DETERMINISTIC_LIMIT}" in capsys.readouterr().err
        out = io.StringIO()
        assert main(["product-bound", "--cap", str(DETERMINISTIC_LIMIT)], out=out) == EXIT_OK
        _, _, _, reports = parse_jsonl(out.getvalue())
        assert len(reports[0]["primes_used"]) == 193

    @pytest.mark.parametrize("command", [
        ["bounds"], ["pigeonhole", "40", "11"], ["product-bound", "--cap", "1000"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--csv"], ["--json"], ["--workers", "2"], ["--budget", "0"], ["--cache", "x"],
    ])
    def test_row_flags_are_usage_errors(self, command, flag, tmp_path, monkeypatch, capsys):
        # report commands take only their own arguments
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        assert main(command + flag, out=out) == EXIT_USAGE
        assert out.getvalue() == ""
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_factor_writes_cache(self, tmp_path):
        cache = tmp_path / "c.txt"
        code, out, _ = run_cli("factor", 20, "--cache", cache)
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        assert rows[0]["factors"] == "3^3 103 7541"
        assert cache.read_text().startswith("20\tcomplete\t3^3 103 7541\t1")
        # second run comes from the cache
        code, out, _ = run_cli("factor", 20, "--cache", cache)
        _, rows, _, _ = parse_jsonl(out)
        assert rows[0]["from_cache"] is True


class TestResearchScans:
    def test_ratio_examples(self, tmp_path):
        code, out, _ = run_cli("ratio", 1, 3, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        _, rows, summaries, _ = parse_jsonl(out)
        assert [r["ratio"] for r in rows] == ["1", "3", "5"]
        assert (rows[1]["phi"], rows[1]["gcd"]) == ("6", "2")
        assert (rows[2]["phi"], rows[2]["gcd"]) == ("20", "4")
        assert summaries[0]["unfactored"] == 0
        assert summaries[0]["ratio_min"] == "1"
        assert summaries[0]["ratio_max"] == "5"

    def test_carmichael_scan(self, tmp_path):
        code, out, _ = run_cli("carmichael", 1, 30, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        _, rows, summaries, _ = parse_jsonl(out)
        factored = [r for r in rows if r["factored"]]
        assert factored and all(r["carmichael"] is False for r in factored)
        assert summaries[0]["carmichael_count"] == 0

    def test_unfactored_rows_marked_unknown(self, tmp_path):
        env = dict(os.environ, CULLEN_BUDGET="0")
        code, out, _ = run_cli(
            "ratio", 150, 152, "--cache", tmp_path / "c.txt", env=env
        )
        assert code == EXIT_OK
        _, rows, summaries, _ = parse_jsonl(out)
        unknown = [r for r in rows if not r["factored"]]
        assert unknown
        assert all(r["ratio"] == "unknown" and r["carmichael"] == "unknown" for r in unknown)
        assert summaries[0]["unfactored"] == len(unknown)

    def test_csv_summary_is_a_comment_line(self, tmp_path):
        code, out, _ = run_cli("ratio", 1, 3, "--csv", "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        last = out.splitlines()[-1]
        assert last.startswith('# {"kind":"summary",')
        assert json.loads(last[2:])["rows"] == 3


class TestCacheStatsInHeader:
    @pytest.mark.parametrize("argv", [
        ["check", "6"], ["scan", "5", "6"], ["ratio", "6", "6"], ["carmichael", "6", "6"],
        ["factor", "6"],
    ])
    def test_header_counts_loaded_and_skipped_lines(self, argv, tmp_path):
        cache = tmp_path / "c.txt"
        cache.write_text("6\tcomplete\t5 7 11\t1\nnot a record\n", encoding="utf-8")
        out = io.StringIO()
        assert main([*argv, "--budget", "0", "--cache", str(cache)], out=out) == EXIT_OK
        header, rows, _, _ = parse_jsonl(out.getvalue())
        assert header["params"]["cache"] == str(cache)
        assert header["params"]["cache_entries"] == 1
        assert header["params"]["cache_skipped_lines"] == 1
        assert rows[-1]["n"] == 6 and rows[-1]["from_cache"] is True


class TestDeterminism:
    def test_repeat_run_body_identical(self, tmp_path):
        a = run_cli("scan", 1, 15, "--cache", tmp_path / "a.txt")[1]
        b = run_cli("scan", 1, 15, "--cache", tmp_path / "b.txt")[1]
        assert body_of(a) == body_of(b)
        # headers differ only by timestamp, so strip them before comparing
        assert a.splitlines()[0] != "" and json.loads(a.splitlines()[0])["kind"] == "header"

    def test_malformed_cache_tolerated(self, tmp_path):
        cache = tmp_path / "c.txt"
        cache.write_text("garbage line\n6\tcomplete\t5 7 11\t1\n", encoding="utf-8")
        code, out, _ = run_cli("check", 6, "--cache", cache)
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        assert rows[0]["from_cache"] is True

    def test_cache_line_not_utf8_skipped(self, tmp_path):
        # a line that does not decode is skipped and counted like any other
        # malformed line; the valid line beside it is still loaded
        cache = tmp_path / "c.txt"
        cache.write_bytes(b"6\tcomplete\t5 7 11\t1\n\xff\xfe\n")
        code, out, err = run_cli("check", 5, "--budget", 0, "--cache", cache)
        assert code == EXIT_OK, err
        header = json.loads(out.splitlines()[0])
        assert header["params"]["cache_entries"] == 1
        assert header["params"]["cache_skipped_lines"] == 1
        assert "line 2 skipped" in err
        fresh = run_cli("check", 5, "--budget", 0, "--cache", tmp_path / "fresh.txt")[1]
        assert body_of(out) == body_of(fresh)

    @pytest.mark.parametrize("command", ["check", "factor"])
    def test_partial_cache_entry_does_not_replace_factoring(self, command, tmp_path):
        # a valid partial line at a budget above the row's is kept by the
        # cache but not trusted by a row, as it leaves out the structured
        # divisor 7: the row factors C(6) itself, reports no cached state and
        # stores the complete factorization, which the next run reads back
        cache = tmp_path / "c.txt"
        cache.write_text("6\tpartial@4096\t5\t77\n", encoding="utf-8")
        rows = []
        for _ in range(2):
            out = io.StringIO()
            assert main([command, "6", "--budget", "0", "--cache", str(cache)], out=out) == EXIT_OK
            header, body, _, _ = parse_jsonl(out.getvalue())
            assert header["params"]["cache_entries"] == 1
            rows += body
        for row in rows:
            assert (row["factors"], row["factor_status"], row["cofactor"]) == ("5 7 11", "complete", 1)
        assert [row["from_cache"] for row in rows] == [False, True]
        assert cache.read_text(encoding="utf-8") == (
            "6\tpartial@4096\t5\t77\n6\tcomplete\t5 7 11\t1\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_from_cache_appends_nothing(self, workers, tmp_path):
        # only a factorization a row computed is appended: here C(5)'s, not
        # the entry for 6 that the row for 6 reads back
        cache = tmp_path / "c.txt"
        cache.write_text("6\tcomplete\t5 7 11\t1\n", encoding="utf-8")
        code, out, err = run_cli("scan", 5, 6, "--budget", 0, "--workers", workers,
                                 "--cache", cache)
        assert code == EXIT_OK, err
        _, rows, _, _ = parse_jsonl(out)
        assert [row["from_cache"] for row in rows] == [False, True]
        assert cache.read_text(encoding="utf-8") == (
            "6\tcomplete\t5 7 11\t1\n5\tcomplete\t7 23\t1\n"
        )

    def test_prime_row_writes_no_cache_line(self, tmp_path):
        # C(141) is prime: the search's Proth certificate is the whole
        # factorization, so its row neither reads nor writes the cache
        cache = tmp_path / "c.txt"
        bodies = []
        for _ in range(2):
            code, out, err = run_cli("check", 141, "--cache", cache)
            assert code == EXIT_OK, err
            bodies.append(body_of(out))
        assert bodies[0] == bodies[1]
        assert json.loads(bodies[0])["status"] == "prime"
        assert not cache.exists()

    @pytest.mark.parametrize("line", [
        "6\tcomplete\t11 35\t1",         # 35 is not prime; the ratio would read 85
        "6\tpartial@4096\t5 7 11\t1",    # partial needs a cofactor above 1
    ])
    def test_inconsistent_cache_line_skipped(self, tmp_path, line):
        cache = tmp_path / "c.txt"
        cache.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli("ratio", 6, 6, "--cache", cache)
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out)
        assert rows[0]["from_cache"] is False
        assert rows[0]["factors"] == "5 7 11" and rows[0]["ratio"] == "5"
        assert "line 1 skipped" in err

    @pytest.mark.parametrize("argv", [("ratio", 81, 81), ("check", 81, "--budget", 0)])
    def test_composite_listed_above_the_limit_not_trusted(self, argv, tmp_path):
        # C(81) is composite, and above DETERMINISTIC_LIMIT the cache load
        # lists a factor untested; trusted, it read as ratio 1
        assert cullen(81).value >= DETERMINISTIC_LIMIT
        cache = tmp_path / "c.txt"
        cache.write_text(f"81\tcomplete\t{cullen(81).value}\t1\n", encoding="utf-8")
        code, out, err = run_cli(*argv, "--cache", cache)
        assert code == EXIT_OK, err
        assert "C(81) not trusted" in err
        fresh_cache = tmp_path / "fresh.txt"
        fresh_cache.touch()
        fresh = run_cli(*argv, "--cache", fresh_cache)[1]
        assert body_of(out) == body_of(fresh)
        # a recomputed complete factorization supersedes the entry
        assert cache.read_text(encoding="utf-8").splitlines()[1:] == (
            fresh_cache.read_text(encoding="utf-8").splitlines()
        )

    def test_unlisted_structured_divisor_not_trusted(self, tmp_path, monkeypatch, caplog):
        # were C(77) to pass is_prime, its one-factor listing would still
        # leave out the structured divisors 5 and 17 that the search finds.
        # C(77) is above DETERMINISTIC_LIMIT and divisible by a hit, so only
        # the trust check tests it; every other value gets the real verdict
        import cullen_lehmer.factoring as factoring

        def passes(N, *, within=None, _real=factoring.is_prime):
            if N == cullen(77).value:
                return PrimalityVerdict(N, PROBABLE_PRIME, "probabilistic-mr")
            return _real(N, within=within)

        monkeypatch.setattr(factoring, "is_prime", passes)
        cache = tmp_path / "c.txt"
        cache.write_text(f"77\tcomplete\t{cullen(77).value}\t1\n", encoding="utf-8")
        bodies = []
        for path in (cache, tmp_path / "fresh.txt"):
            out = io.StringIO()
            assert main(["factor", "77", "--budget", "0", "--cache", str(path)], out=out) == EXIT_OK
            bodies.append(body_of(out.getvalue()))
        assert bodies[0] == bodies[1]
        assert "unlisted structured divisors [5, 17]" in caplog.text

    def test_research_body_identical_across_workers(self, tmp_path):
        args = ("ratio", 1, 40, "--budget", 4096)
        one = run_cli(*args, "--workers", 1, "--cache", tmp_path / "a.txt")
        two = run_cli(*args, "--workers", 2, "--cache", tmp_path / "b.txt")
        assert one[0] == two[0] == EXIT_OK
        assert body_of(one[1]) == body_of(two[1])
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_check_body_equals_scan_body(self, tmp_path):
        # and factor's row is check's, restricted to FACTOR_FIELDS
        for n in (1, 2, 6, 10, 141, 604):
            check = run_cli("check", n, "--cache", tmp_path / f"c{n}.txt")[1]
            scan = run_cli("scan", n, n, "--cache", tmp_path / f"s{n}.txt")[1]
            factor = run_cli("factor", n, "--cache", tmp_path / f"f{n}.txt")[1]
            assert body_of(check) == body_of(scan)
            row = json.loads(body_of(check))
            projected = {f: row[f] for f in FACTOR_FIELDS}
            assert body_of(factor) == json.dumps(projected, separators=(",", ":")) + "\n", n


COUNTER_COLUMNS = ("from_cache", "trial_divisions", "rho_iterations")


def without_counters(stdout: str) -> tuple[list[dict], list[dict]]:
    """The rows, without the columns a cached row may change, and the summaries."""
    _, rows, summaries, _ = parse_jsonl(stdout)
    return [{k: v for k, v in row.items() if k not in COUNTER_COLUMNS} for row in rows], summaries


class TestPartialCacheEntries:
    """A partial factorization is cached with the rho budget that left it
    partial (status partial@B), and it stands in for a row at budget B or
    below once its checks pass."""

    BAND = (169, 200, "--budget", 4096)  # 11 rows complete, 21 partial at 4096

    def test_warm_research_body_is_the_fresh_one(self, tmp_path):
        # carmichael after ratio on one cache, with 1 and 2 workers: every
        # row is read back, and the body is the fresh-cache body but for
        # from_cache and the two counters
        fresh = run_cli("carmichael", *self.BAND, "--cache", tmp_path / "fresh.txt")
        warm, caches = [], []
        for workers in (1, 2):
            cache = tmp_path / f"warm{workers}.txt"
            for command in ("ratio", "carmichael"):
                code, out, err = run_cli(command, *self.BAND, "--workers", workers,
                                         "--cache", cache)
                assert code == EXIT_OK, err
            warm.append(out)
            caches.append(cache.read_text(encoding="utf-8"))
        assert body_of(warm[0]) == body_of(warm[1])
        assert caches[0] == caches[1] and caches[0].count("\tpartial@4096\t") == 21
        rows = parse_jsonl(warm[0])[1]
        assert all(row["from_cache"] and row["rho_iterations"] == 0 for row in rows)
        assert without_counters(warm[0]) == without_counters(fresh[1])

    def test_larger_budget_recomputes_partial_rows(self, tmp_path):
        cache = tmp_path / "c.txt"
        assert run_cli("ratio", *self.BAND, "--cache", cache)[0] == EXIT_OK
        first = FactorCache(cache)
        partial = {n for n in range(169, 201) if not first.entry(n).fact.is_complete}
        before = cache.read_text(encoding="utf-8").splitlines()
        code, out, err = run_cli("ratio", 169, 200, "--budget", 8192, "--cache", cache)
        assert code == EXIT_OK, err
        rows = parse_jsonl(out)[1]
        assert {row["n"] for row in rows if not row["from_cache"]} == partial
        assert all(row["rho_iterations"] > 0 for row in rows if row["n"] in partial)
        fresh = run_cli("ratio", 169, 200, "--budget", 8192, "--cache", tmp_path / "fresh.txt")
        assert without_counters(out) == without_counters(fresh[1])
        after = cache.read_text(encoding="utf-8").splitlines()
        assert after[:len(before)] == before and len(after) == len(before) + len(partial)
        # the next load prefers the lines at 8192, so a rerun reads every row back
        reloaded = FactorCache(cache)
        assert all(reloaded.entry(n).budget == 8192 for n in partial)
        again = run_cli("ratio", 169, 200, "--budget", 8192, "--cache", cache)[1]
        assert all(row["from_cache"] for row in parse_jsonl(again)[1])
        assert cache.read_text(encoding="utf-8").splitlines() == after

    def test_smaller_budget_reads_partial_entry(self, tmp_path):
        # a row at budget 0 prints the factorization rho found at 4096
        cache = tmp_path / "c.txt"
        assert run_cli("ratio", 169, 169, "--budget", 4096, "--cache", cache)[0] == EXIT_OK
        code, out, err = run_cli("factor", 169, "--budget", 0, "--cache", cache)
        assert code == EXIT_OK, err
        row = parse_jsonl(out)[1][0]
        fact = FactorCache(cache).entry(169).fact
        assert row["from_cache"] and row["rho_iterations"] == 0
        assert (row["factors"], row["factor_status"], row["cofactor"]) == (
            fact.summary(), "partial", fact.cofactor)

    def test_budget_zero_writes_no_partial_line(self, tmp_path):
        cache = tmp_path / "c.txt"
        code, out, err = run_cli("scan", 150, 160, "--budget", 0, "--workers", 2,
                                 "--cache", cache)
        assert code == EXIT_OK, err
        statuses = [row["factor_status"] for row in parse_jsonl(out)[1]]
        assert statuses.count("complete") == 1 and statuses.count("partial") == 10
        assert cache.read_text(encoding="utf-8") == "158\tcomplete\t" + (
            FactorCache(cache).entry(158).fact.summary() + "\t1\n")

    @pytest.mark.parametrize("line, reason", [
        ("38\tpartial@262144\t3^2 20879\t55586743", "the cofactor is prime"),
        ("38\tpartial@262144\t3 20879\t166760229", "the cofactor has the prime factor 3"),
    ], ids=["prime-cofactor", "cofactor-divisible-by-3"])
    def test_untrusted_partial_entry_refused(self, line, reason, tmp_path):
        # C(38) = 3^2 * 20879 * 55586743, so both lines load; neither
        # cofactor is one general_factor leaves, and the row factors C(38)
        cache = tmp_path / "c.txt"
        cache.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli("factor", 38, "--budget", 4096, "--cache", cache)
        assert code == EXIT_OK, err
        assert f"C(38) not trusted: {reason}" in err
        fresh = run_cli("factor", 38, "--budget", 4096, "--cache", tmp_path / "fresh.txt")[1]
        assert body_of(out) == body_of(fresh)

    def test_line_outranked_by_refused_entry_not_written(self, tmp_path):
        # C(169) = 3 * 113 * 2371 * 11771611 * x; a line at a larger budget
        # that leaves out the structured divisor 3 is refused at each use,
        # and the row's own line is not appended, as no load would keep it
        x = 13365611014617493685054130106268808468331
        line = f"169\tpartial@999999\t113 2371 11771611\t{3 * x}\n"
        cache = tmp_path / "c.txt"
        cache.write_text(line, encoding="utf-8")
        fresh = run_cli("ratio", 169, 169, "--budget", 4096, "--cache", tmp_path / "fresh.txt")
        for _ in range(2):
            code, out, err = run_cli("ratio", 169, 169, "--budget", 4096, "--cache", cache)
            assert code == EXIT_OK, err
            assert "C(169) not trusted: unlisted structured divisors [3]" in err
            assert body_of(out) == body_of(fresh[1])
        assert cache.read_text(encoding="utf-8") == line

    def test_overstated_budget_taken_on_trust(self, tmp_path):
        # only rerunning rho could check a line's budget: this one claims
        # 999999 for what 4096 leaves, so a row at 4096 prints it, less
        # factored than a fresh row (3 113 2371 11771611) but still correct
        x = 13365611014617493685054130106268808468331
        cache = tmp_path / "c.txt"
        cache.write_text(f"169\tpartial@999999\t3 113 2371\t{11771611 * x}\n",
                         encoding="utf-8")
        code, out, err = run_cli("factor", 169, "--budget", 4096, "--cache", cache)
        assert code == EXIT_OK, err
        row = parse_jsonl(out)[1][0]
        assert row["from_cache"] is True and row["factors"] == "3 113 2371"
        factors = [int(p) for p in row["factors"].split()]
        assert all(is_prime(p).is_prime for p in factors)
        assert prod(factors) * row["cofactor"] == cullen(169).value

    @pytest.mark.parametrize("token, skipped", [
        ("4096", False), ("-1", True), ("+4096", True), ("4e3", True), ("", True),
        ("9" * 21, True), ("\u0664\u0660\u0669\u0666", True), (" 4096", True),
    ], ids=["valid", "negative", "signed", "float", "empty", "21-digits", "non-ascii",
            "space"])
    def test_budget_token_validated(self, token, skipped, tmp_path):
        # C(169)'s own partial factorization at 4096, under each budget token
        fresh_cache = tmp_path / "fresh.txt"
        code, fresh, _ = run_cli("factor", 169, "--budget", 4096, "--cache", fresh_cache)
        assert code == EXIT_OK
        fact = FactorCache(fresh_cache).entry(169).fact
        cache = tmp_path / "c.txt"
        cache.write_text(f"169\tpartial@{token}\t{fact.summary()}\t{fact.cofactor}\n",
                         encoding="utf-8")
        code, out, err = run_cli("factor", 169, "--budget", 4096, "--cache", cache)
        assert code == EXIT_OK, err
        assert parse_jsonl(out)[1][0]["from_cache"] is not skipped
        assert ("line 1 skipped" in err) is skipped
        assert without_counters(out) == without_counters(fresh)


class TestGoldenBodies:
    """sha256 of the body (stdout after the header) on a fresh cache, pinned
    so that a refactor or speed-up of the theorem path must reproduce every
    row byte for byte."""

    @pytest.mark.parametrize("args, digest", [
        (("scan", 1, 300), "57298ddbeae9624c9449407ef63c341bfbc43764a8cb0faccf22d461645988e4"),
        (("check", 53), "f7033d059eb442f50365a8efc4a495a7b00004f8eefa59b6ab56fe044f338d60"),
        (("check", 141), "f4abe43feeaadbde15d262885179e1ac2cbd1c72cce580940eefae8402779733"),
        # rows above primality.SPECIAL_FORM_BITS, where the special-form
        # exponentiation and the screen to 10^5 run
        (("scan", 2000, 2040), "cb3020688e31af0f24fe2c191e0b11fcee8bd49e663e57a22147e2db5efc7378"),
        (("check", 4494), "5c43acf60beeacfe6fa1c09055b4d08e776eede90f8c48de901b310c06e3a655"),
        # both sides of SPECIAL_FORM_BITS, with probable-prime cofactors
        # that Baillie-PSW settles
        (("scan", 550, 700), "2fcea8bea5f1cc0fe5ec9c8c2f46f7b010dbf55fb57d5bd9a1d3c3411a11af38"),
        # the top of the sweep band, with the zero-case hit 9*2^243 + 1 of C(729)
        (("scan", 700, 1009), "9e229a9d44f318f9dcb19de661ded8376649eed2efa85c41f1dc8454fe167905"),
    ])
    def test_body_digest(self, args, digest, tmp_path):
        code, out, _ = run_cli(*args, "--budget", 0, "--cache", tmp_path / "c.txt")
        assert code == EXIT_OK
        assert hashlib.sha256(body_of(out).encode()).hexdigest() == digest

    def test_warm_cache_research_body_digest(self, tmp_path):
        # carmichael after ratio on one cache: all 32 of its rows are served
        # from the cache, 11 complete and 21 partial at budget 4096, which no
        # fresh-cache digest covers; TestPartialCacheEntries checks that the
        # body is the fresh one but for from_cache and the counters
        cache = tmp_path / "c.txt"
        for command in ("ratio", "carmichael"):
            code, out, err = run_cli(command, 169, 200, "--budget", 4096, "--cache", cache)
            assert code == EXIT_OK, err
        assert sum(row["from_cache"] for row in parse_jsonl(out)[1]) == 32
        assert hashlib.sha256(body_of(out).encode()).hexdigest() == (
            "9269adcbf0424087baf9c3e80d3d62ea44164e592cc9cfeabd38064e92880140"
        )

    def test_warm_cache_scan_body_digest(self, tmp_path):
        # scan at budget 0 a second time on one cache: its 7 rows served
        # from the cache all list probable factors, a column that the
        # research schema lacks and that the row derives from the search
        cache = tmp_path / "c.txt"
        for _ in range(2):
            code, out, err = run_cli("scan", 550, 700, "--budget", 0, "--cache", cache)
            assert code == EXIT_OK, err
        cached = [row for row in parse_jsonl(out)[1] if row["from_cache"]]
        assert len(cached) == 7 and all(row["probable"] for row in cached)
        assert hashlib.sha256(body_of(out).encode()).hexdigest() == (
            "960adc9d785971df1172d4605c6b25ea423483121207691f8a2089600cf124d1"
        )

    # the bound cascade's report prints mpmath interval endpoints as
    # decimals; these digests were taken with mpmath 1.3.0
    @pytest.mark.parametrize("args, digest", [
        (("bounds",), "989c9a2b4103349be1fd415a7e637cce50fc7f8eb81fb1526c178ee26e62d6b5"),
        (("bounds", "--cap", 10_000),
         "ab8bc6d410250ee0093e85b34ae5bc02f99b233190bc192a3bf32296ad383c71"),
        # the two ends of the product's domain
        (("product-bound", "--cap", 5),
         "e7ec4ee686d723614932baeeb0aac38c118ccf97d182ea7ae39626b9f60941a3"),
        (("product-bound", "--cap", DETERMINISTIC_LIMIT),
         "2c2784a5433a54ea2193603c950b5ed0299407f78fa7a093dc8fbfbe97bfe5b2"),
    ], ids=["bounds", "bounds-cap-10000", "product-bound-cap-5", "product-bound-cap-limit"])
    def test_report_body_digest(self, args, digest):
        code, out, _ = run_cli(*args)
        assert code == EXIT_OK
        assert hashlib.sha256(body_of(out).encode()).hexdigest() == digest


class TestPastTheDigitLimit:
    def test_check_row_past_the_limit(self, tmp_path, monkeypatch, int_digit_limit):
        # C(16384) = 2^16398 + 1 has 4937 digits; main() lifts the 4300-digit
        # limit.  Values past 14,000 bits get a stand-in composite verdict,
        # so no exponentiation of that size runs.
        import cullen_lehmer.factoring as factoring
        import cullen_lehmer.primality as primality
        from cullen_lehmer.primality import COMPOSITE, PrimalityVerdict

        int_digit_limit(4300)
        stood_in = []
        for name in ("is_prime", "proth_test"):
            real = getattr(primality, name)

            def stand_in(*args, _real=real, **kwargs):
                value = args[0] if len(args) == 1 else (args[0] << args[1]) + 1
                if value.bit_length() <= 14_000:
                    return _real(*args, **kwargs)
                stood_in.append(value)
                return PrimalityVerdict(value, COMPOSITE, "trial")

            monkeypatch.setattr(primality, name, stand_in)
            monkeypatch.setattr(factoring, name, stand_in)
        out = io.StringIO()
        code = main(["check", "16384", "--budget", "0", "--cache", str(tmp_path / "c.txt")],
                    out=out)
        assert code == EXIT_OK
        _, rows, _, _ = parse_jsonl(out.getvalue())
        row = rows[0]
        value = cullen(16384).value
        assert row["structured_divisors"] == [5]
        assert row["witness"].startswith(f"cofactor {value // 5} > 1 remains")
        # the search's cofactor, then the general engine's leftover
        assert stood_in == [value // 5, row["cofactor"]]
        assert len(str(row["cofactor"])) > 4300
        product = row["cofactor"]
        for tok in row["factors"].split():
            p, _, k = tok.partition("^")
            product *= int(p) ** int(k or 1)
        assert product == value

    def test_pool_workers_lift_the_limit(self, tmp_path, inline_pool, int_digit_limit):
        # a spawned worker does not inherit the setting, so the pool must
        # run the lift as its initializer
        import cullen_lehmer.cli as cli_mod
        from cullen_lehmer import FactorBudget, FactorCache

        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        int_digit_limit(4300)
        records = list(cli_mod._compute_rows([5, 6], FactorBudget(rho_iterations=0),
                                             FactorCache(tmp_path / "c.txt"), 2))
        assert [r.n for r in records] == [5, 6]
        assert sys.get_int_max_str_digits() == 0


class TestRowPipeline:
    def test_row_builds_c_once(self, monkeypatch):
        # the search builds C(n), and every later step reads it from the
        # search result; here once with general factoring, once from a cache
        import cullen_lehmer.cli as cli_mod
        import cullen_lehmer.factoring as factoring
        from cullen_lehmer import FactorBudget
        from cullen_lehmer.factoring import CacheEntry

        built = []
        monkeypatch.setattr(factoring, "cullen", lambda n: built.append(n) or cullen(n))
        budget = FactorBudget(rho_iterations=4096)
        record = cli_mod._compute(169, budget, None)
        assert built == [169] and not record.fact.is_complete and not record.from_cache
        built.clear()
        again = cli_mod._compute(169, budget, CacheEntry(record.fact, 4096))
        assert built == [169] and again.from_cache and again.fact == record.fact

    def test_pool_window_is_bounded(self, tmp_path, monkeypatch, inline_pool):
        # a reader that goes away after k rows leaves at most 2*workers more
        # rows submitted, whatever the range
        class Sink(io.StringIO):
            def write(self, text):
                if self.getvalue().count("\n") == 1 + k:  # the header, then k rows
                    raise BrokenPipeError("reader gone")
                return super().write(text)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        k, workers = 5, 2
        sink = Sink()
        code = main(["scan", "1", "1500", "--budget", "0", "--workers", str(workers),
                     "--cache", str(tmp_path / "c.txt")], out=sink)
        assert code == 4
        _, rows, _, _ = parse_jsonl(sink.getvalue())
        assert [row["n"] for row in rows] == list(range(1, k + 1))
        assert inline_pool == list(range(1, len(inline_pool) + 1))
        assert len(inline_pool) <= k + 2 * workers + 1


class TestExitCodes:
    def test_falsification_maps_to_2(self, monkeypatch):
        import cullen_lehmer.verifier as verifier

        def boom(cap):
            raise FalsificationError("stage-x", "synthetic failure")

        monkeypatch.setattr(verifier, "cascade_verify", boom)
        out = io.StringIO()
        assert main(["bounds"], out=out) == EXIT_FALSIFIED

    # a factor that does not divide F_5, the trivial divisor 1, and F_5 itself
    @pytest.mark.parametrize("factor", [643, 1, 2**32 + 1])
    def test_bad_fermat_factor_maps_to_2(self, factor, monkeypatch, capsys):
        import cullen_lehmer.primality as primality

        monkeypatch.setitem(primality._FERMAT_FACTORS, 5, factor)
        assert main(["bounds", "--cap", "1000"], out=io.StringIO()) == EXIT_FALSIFIED
        err = capsys.readouterr().err
        assert f"FALSIFICATION: fermat: stored factor {factor} does not divide F_5" in err
        assert "Traceback" not in err

    def test_io_error_maps_to_4(self, tmp_path):
        # cache path inside a missing, uncreatable directory
        bad = tmp_path / "missing-dir" / "c.txt"
        code, _, err = run_cli("factor", "6", "--cache", bad)
        assert code == 4


class TestConsoleScript:
    """pyproject.toml maps the cullen script to cli.entry, which exits with
    main's exit code."""

    def test_entry_exits_with_main_code(self, tmp_path, monkeypatch, capsys):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'cullen = "cullen_lehmer.cli:entry"' in pyproject.read_text(encoding="utf-8")
        cache = tmp_path / "c.txt"
        for argv, code in ((["check", "0"], EXIT_USAGE),
                           (["check", "6", "--budget", "0", "--cache", str(cache)], EXIT_OK)):
            monkeypatch.setattr(sys, "argv", ["cullen", *argv])
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exc.value.code == code, argv
        assert parse_jsonl(capsys.readouterr().out)[1][0]["factors"] == "5 7 11"


class TestImportSet:
    """The row commands run without the proof layer or the process pool:
    mpmath, verifier and certified load only for a report command or a
    verifier name, and concurrent.futures.process only for a pool."""

    GUARDED = ("mpmath", "cullen_lehmer.verifier", "cullen_lehmer.certified",
               "concurrent.futures.process")
    SCRIPT = """
import io, json, sys
import cullen_lehmer
from cullen_lehmer.cli import main

guarded, cache = json.loads(sys.argv[1]), sys.argv[2]
steps = []
for argv in (["check", "6", "--budget", "0", "--cache", cache],
             ["scan", "1", "3", "--workers", "1", "--cache", cache],
             ["bounds", "--cap", "999"], ["pigeonhole", "10000001", "1"],
             ["product-bound", "--cap", "4"], ["bounds", "--cap", "1000"]):
    code = main(argv, out=io.StringIO())
    steps.append([argv[0], code, [m for m in guarded if m in sys.modules]])
pair = cullen_lehmer.pigeonhole_pair(40, 11)
try:
    cullen_lehmer.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps({"steps": steps, "pair": [pair.u, pair.v], "missing": missing}))
"""

    def test_row_commands_leave_the_proof_layer_unloaded(self, tmp_path):
        # a fresh interpreter, since this one has imported every layer
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(self.GUARDED),
             str(tmp_path / "c.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["steps"] == [
            ["check", EXIT_OK, []],
            ["scan", EXIT_OK, []],
            ["bounds", EXIT_USAGE, []],
            ["pigeonhole", EXIT_USAGE, []],
            ["product-bound", EXIT_USAGE, []],
            ["bounds", EXIT_OK, ["mpmath", "cullen_lehmer.verifier", "cullen_lehmer.certified"]],
        ]
        assert result["pair"] == [1, -3] and result["missing"]

    def test_verifier_names_are_served_lazily(self):
        import cullen_lehmer
        import cullen_lehmer.verifier as verifier
        from cullen_lehmer import cascade_verify

        assert cascade_verify is verifier.cascade_verify
        assert all(getattr(cullen_lehmer, name) is getattr(verifier, name)
                   for name in cullen_lehmer._VERIFIER_NAMES)
        assert {"cascade_verify", "pigeonhole_pair", "two_three_product_bound",
                "lehmer_constrained_factor"} <= set(dir(cullen_lehmer))
