"""Tests of the benchmark's own logic: span arithmetic, seeded inputs, the
percentile rule and the correctness gates.  None of them runs a workload."""

import json
import types
from pathlib import Path

import gates
import spans
import strata
import workloads
import run
from workloads import row_tail, tail_percentile


def _span(name, start, end, parent, extra=()):
    return [name, start, end, parent, None, extra]


class TestSpans:
    def test_self_time_of_a_nested_tree(self):
        tree = [
            _span("root", 0.0, 10.0, -1),   # 0
            _span("a", 1.0, 4.0, 0),        # 1
            _span("b", 5.0, 7.0, 0),        # 2
            _span("c", 5.5, 6.5, 2),        # 3
            _span("a", 8.0, 9.0, 0, (3,)),  # 4
        ]
        stats = spans.summarize(tree)
        assert stats["root"]["self_s"] == 10.0 - (3.0 + 2.0 + 1.0)
        assert stats["root"]["busy_s"] == 10.0
        assert stats["b"]["self_s"] == 1.0
        assert stats["c"]["self_s"] == 1.0
        assert stats["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "extra": [3]}

    def test_busy_time_counts_a_recursive_name_once(self):
        tree = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0)]
        stats = spans.summarize(tree)
        assert stats["f"]["busy_s"] == 4.0
        assert stats["f"]["self_s"] == 3.0 + 1.0

    def test_patched_rebinds_every_holder_and_restores(self):
        lib = types.ModuleType("lib")
        user = types.ModuleType("user")

        def leaf(n):
            return n + 1

        def outer(n):
            return user.leaf(n) * 2

        lib.leaf, lib.outer = leaf, outer
        user.leaf = leaf  # imported by name
        tracer = spans.Tracer()
        targets = [spans.Target("lib.outer", lib, "outer", index_arg=0),
                   spans.Target("lib.leaf", lib, "leaf", extra=lambda args, r: (r,)),
                   spans.Target("lib.gone", lib, "gone")]
        with spans.patched(tracer, targets, [lib, user]) as missing:
            assert lib.outer(5) == 12
        assert missing == ["lib.gone"]
        assert lib.leaf is leaf and user.leaf is leaf and lib.outer is outer
        (outer_span, leaf_span) = tracer.spans
        assert outer_span[spans.NAME] == "lib.outer" and outer_span[spans.PARENT] == -1
        assert leaf_span[spans.PARENT] == 0
        assert leaf_span[spans.TRACE] == 5 and leaf_span[spans.EXTRA] == (6,)


class TestSeededInputs:
    def test_one_seed_gives_identical_inputs(self):
        for seed in (0, 7):
            assert workloads.frontier_indices(seed) == workloads.frontier_indices(seed)
            assert workloads.sweep_range(seed) == workloads.sweep_range(seed)
            assert workloads.research_range(seed) == workloads.research_range(seed)
            assert workloads.proof_bands(seed) == workloads.proof_bands(seed)

    def test_another_seed_gives_other_inputs(self):
        frontier = {tuple(workloads.frontier_indices(seed)) for seed in range(1, 6)}
        assert len(frontier) == 5
        for draw in (workloads.sweep_range, workloads.research_range, workloads.proof_bands):
            assert len({str(draw(seed)) for seed in range(1, 11)}) > 1

    def test_frontier_draws_one_index_per_stratum(self):
        table = json.loads(workloads.FRONTIER_TABLE.read_text())["strata"]
        picks = workloads.frontier_indices(3)
        assert set(workloads.FRONTIER_PRIMES) <= set(picks)
        assert len(picks) == len(workloads.FRONTIER_PRIMES) + len(table)
        for stratum in table:
            assert len(set(picks) & set(stratum["indices"])) == 1

    def test_frontier_table_matches_its_strata(self):
        table = json.loads(workloads.FRONTIER_TABLE.read_text())["strata"]
        assert [(s["window"][0], s["odd_divisors"], s["path"], s["structured"])
                for s in table] == list(strata.STRATA)
        for s in table:
            assert s["indices"]
            for n in s["indices"][:3]:
                assert s["window"][0] <= n < s["window"][1]
                assert strata.cheap_properties(n) == (
                    s["odd_divisors"], s["path"], s["structured"], False)

    def test_odd_divisor_count(self):
        assert all(len(strata.odd_divisors(n)) == strata.odd_divisor_count(n)
                   for n in range(1, 500))

    def test_proof_bands_hold_the_pair_target_and_the_prime_index(self):
        for seed in range(10):
            pairs, divisors = workloads.proof_bands(seed)
            count = sum(pairs)
            assert workloads.PAIR_TARGET <= count < workloads.PAIR_TARGET + pairs[-1]
            assert 141 in divisors


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert tail_percentile([1.0] * 999) is None
        samples = [float(i) for i in range(1000)]
        assert tail_percentile(samples) == 989.0
        assert sum(s > 989.0 for s in samples) == 10

    def test_tail_falls_back_to_the_maximum(self):
        assert row_tail([3.0, 1.0, 2.0]) == (3.0, "max")
        assert row_tail([float(i) for i in range(2000)]) == (1979.0, "p99")


def _research_row():
    # C(6) = 385 = 5*7*11, phi = 240, gcd(384, 240) = 48
    return {"n": 6, "factored": True, "factors": "5 7 11", "cofactor": 1,
            "phi": "240", "gcd": "48", "ratio": "5", "carmichael": False}


def _theorem_row():
    return {"n": 6, "status": "composite", "verdict": "structurally_refuted",
            "structured_divisors": [5, 7], "factors": "5 7 11",
            "factor_status": "complete", "cofactor": 1}


class TestGates:
    def test_correct_rows_pass(self):
        assert gates.check_research_row(_research_row()) == []
        assert gates.check_theorem_row(_theorem_row()) == []
        prime = {"n": 141, "status": "prime", "verdict": "prime", "structured_divisors": [],
                 "factors": str(gates.cullen_value(141)), "factor_status": "complete",
                 "cofactor": 1}
        assert gates.check_theorem_row(prime) == []

    def test_factors_that_do_not_multiply_to_c_n_are_rejected(self):
        row = _research_row()
        row["factors"] = "5 7 13"
        assert gates.check_research_row(row)
        row = _theorem_row()
        row["factors"] = "5 7"
        assert gates.check_theorem_row(row)

    def test_composite_factor_and_wrong_ratio_are_rejected(self):
        row = _research_row()
        row["factors"], row["phi"] = "5 77", "304"  # right product, 77 not prime
        assert any("composite" in p for p in gates.check_research_row(row))
        row = _research_row()
        row["ratio"] = "6"
        assert gates.check_research_row(row)
        row = _research_row()
        row["carmichael"] = True
        assert gates.check_research_row(row)

    def test_wrong_verdicts_are_rejected(self):
        row = _theorem_row()
        row["status"] = "prime"
        assert gates.check_theorem_row(row)
        row = _theorem_row()
        row["verdict"] = "lehmer"
        assert gates.check_theorem_row(row)
        row = _theorem_row()
        row["structured_divisors"] = [5, 13]
        assert gates.check_theorem_row(row)

    def test_coverage(self):
        rows = [{"n": n} for n in (1, 2, 4)]
        assert gates.check_coverage(rows, [1, 2, 4]) == []
        assert gates.check_coverage(rows, [1, 2, 3, 4])

    def test_proof_gates(self):
        # n = 40, np = 11: any coprime pair with a small combination
        assert gates.check_pair(40, 11, 1, -4, -4) == []
        assert gates.check_pair(40, 11, 1, -4, -3)           # combo mismatch
        assert gates.check_pair(40, 11, 2, -8, -8)           # not coprime
        assert gates.check_pair(40, 11, 3, 1, 131)           # too large
        # 5 = 1*2^2 + 1 divides C(6) = 385; pair (u, v) = (1, -3) for (6, 2)
        assert gates.check_divisibility(6, 1, 2, 1, -3) == []
        assert gates.check_divisibility(6, 1, 1, 1, -3)      # 3 does not divide C(6)

    def test_probable_prime(self):
        small = [p for p in range(200) if gates.probable_prime(p)]
        assert small == strata.primes_below(200)
        assert not gates.probable_prime(561) and not gates.probable_prime(3215031751)
        assert gates.probable_prime(gates.cullen_value(141))


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    per_layer = run.per_layer_metrics({}, workloads.Iteration(), 0.0)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(per_layer)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
