"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stats import (  # noqa: E402
    OpCounter,
    at_reference_speed,
    percentile,
    self_time,
    share,
    tail,
    tail_percentile,
    time_metrics,
    union_length,
)
from tracer import END, PARENT, START, layer_metrics  # noqa: E402


class TestTail:
    def test_hundred_ops_read_p90(self):
        assert tail_percentile(20) == 52
        assert tail_percentile(100) == 90
        values = list(range(1, 101))
        value, q = tail(values)
        assert q == 90
        assert sum(v > value for v in values) >= 10

    def test_ten_ops_beyond_at_every_size(self):
        for n in range(20, 2000, 7):
            values = list(range(n))
            value, q = tail(values)
            assert sum(v > value for v in values) >= 10, n
            if 50 < q < 99:
                # one whole percentile higher would leave fewer than ten beyond
                higher = percentile(values, q + 1)
                assert sum(v > higher for v in values) < 10, n

    def test_fewer_than_twenty_ops_fall_back_to_the_median(self):
        for n in range(1, 20):  # 19 ops leave only 9 beyond p50
            assert tail_percentile(n) == 50
        values = [5.0, 1.0, 3.0]
        assert tail(values) == (3.0, 50)

    def test_capped_at_p99(self):
        assert tail_percentile(100_000) == 99

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile(0)

    def test_percentile_interpolates_like_numpy(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_nested_children(self):
        # solve [0, 10] > lp [1, 5] > moments [2, 3]: the grandchild lies
        # inside the child and is not subtracted from the solve a second time
        spans = [
            ["solver.solve", 0.0, 10.0, -1, 1, {"optimised": False}],
            ["lp", 1.0, 5.0, 0, 1, {"cells": 6, "assignment": True}],
            ["measures.plan_moments", 2.0, 3.0, 1, 1, None],
        ]
        m = layer_metrics(spans, n_ops=1)
        assert m["solver.self_s"] == pytest.approx(6.0)
        assert m["measures.plan_moments.busy_s"] == pytest.approx(1.0)
        assert m["solver.lp_calls_per_solve"] == 1.0

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]) == 4.0

    def test_children_clipped_to_the_parent(self):
        assert self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == 4.0

    def test_child_covering_everything(self):
        assert self_time(2.0, 8.0, [(1.0, 9.0)]) == 0.0

    def test_union_ignores_empty_intervals(self):
        assert union_length([(3.0, 3.0), (5.0, 4.0)], 0.0, 10.0) == 0.0

    def test_layer_self_time_from_spans(self):
        # solve [0, 10] > lp [1, 4] > lp-nested never recorded; moments [5, 7]
        spans = [
            ["solver.solve", 0.0, 10.0, -1, 1, {"optimised": False}],
            ["lp", 1.0, 4.0, 0, 1, {"cells": 6, "assignment": False}],
            ["measures.plan_moments", 5.0, 7.0, 0, 1, None],
        ]
        m = layer_metrics(spans, n_ops=2)
        assert m["solver.self_s"] == pytest.approx(5.0 / 2)
        assert m["lp.busy_s"] == pytest.approx(3.0 / 2)
        assert m["lp.calls"] == 0.5
        assert m["lp.cells"] == 3.0
        assert m["lp.assignment_share"] == 0.0
        assert m["solver.lp_calls_per_solve"] == 1.0
        assert spans[1][PARENT] == 0 and spans[1][START] < spans[1][END]


class TestTimeMetrics:
    def test_metrics_and_tail_percentile(self):
        durations = [0.1 * (i + 1) for i in range(30)]
        m, q = time_metrics([2.0, 1.0, 3.0], durations)
        assert m["setup_s"] == 2.0
        assert m["ops_per_s"] == pytest.approx(30 / sum(durations))
        assert m["op_p50_s"] == pytest.approx(1.55)
        assert q == 68  # 30 ops: p68 is the highest with ten beyond
        assert m["op_tail_s"] == percentile(durations, 68)

    def test_a_mix_of_kinds_is_read_within_each_kind(self):
        # Six fast ops and six slow ones: the plain median (1.5) sits in the
        # gap; one fast op more or less would move it by half the gap.
        durations = [1.0, 2.0, 1.1, 2.1, 0.9, 1.9] * 2
        kinds = ["fast", "slow"] * 6
        m, q = time_metrics([1.0], durations, kinds)
        assert m["op_p50_s"] == pytest.approx((1.0 + 2.0) / 2)
        assert m["op_tail_s"] == m["op_p50_s"]  # six per kind: no tail beyond p50
        assert q == 50
        assert m["ops_per_s"] == pytest.approx(12 / sum(durations))

    def test_a_machine_twice_as_slow_reads_the_same(self):
        fast = at_reference_speed(0.5, calibration=0.002, reference=0.002)
        slow = at_reference_speed(1.0, calibration=0.004, reference=0.002)
        assert fast == slow == 0.5


class TestFailedRatio:
    def test_counts_failed_ops_not_problems(self):
        c = OpCounter()
        c.record([])
        c.record(["marginals", "cost"])  # two problems, one failed op
        c.record([])
        c.record(["raised"])
        assert (c.attempted, c.failed) == (4, 2)
        assert share(c.failed, c.attempted) == 0.5
        assert c.problems == ["marginals", "cost", "raised"]

    def test_no_ops(self):
        c = OpCounter()
        assert share(c.failed, c.attempted) == 0.0


def test_benchmark_spec_matches_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in bench["end_to_end"]]
    assert "setup_s" in names
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    from workloads import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
