"""Tests of the benchmark harness's own rules.

    python3 -m pytest perfbench -q

They pin the measurement logic without running a workload: the
percentile rule, the ladder stop rule, lateness accounting, self time
and the seeded inputs.
"""

from __future__ import annotations

import threading

import pytest

import common
import spans
import stats
from stats import Request


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    assert stats.percentile(list(range(101)), 99) == 99


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 6) >= stats.MIN_BEYOND


def test_tail_reports_the_supported_percentile():
    values = list(range(1000))
    p, value = stats.tail(values)
    assert p == 99.0 and value == stats.percentile(values, 99)
    assert stats.tail([1.0] * 5) == (None, None)


def test_latency_counts_from_due_and_lag_is_never_negative():
    late = Request(due=1.0, sent=1.5, done=1.6, ok=True)
    assert late.latency == pytest.approx(0.6)
    assert late.lag == pytest.approx(0.5)
    early = Request(due=1.0, sent=0.99, done=1.01, ok=True)
    assert early.lag == 0.0


def _steady(n: int, rate: float, service: float, lag_step: float = 0.0) -> list[Request]:
    out = []
    for i in range(n):
        due = i / rate
        sent = due + i * lag_step
        out.append(Request(due=due, sent=sent, done=sent + service, ok=True))
    return out


def test_lag_growth_detects_a_backlog():
    assert stats.lag_growth(_steady(100, 50, 0.002)) == 0.0
    assert stats.lag_growth(_steady(100, 50, 0.002, lag_step=0.004)) > 0.2


def test_step_passes_only_within_limit_without_failures_or_backlog():
    ok = stats.summarize_step(25, _steady(200, 25, 0.002), 100.0, 10.0)
    assert ok.passed and ok.failures == 0
    assert ok.achieved_qps == pytest.approx(200 / (199 / 25 + 0.002))
    slow = stats.summarize_step(25, _steady(200, 25, 0.2), 100.0, 10.0)
    assert not slow.passed
    backlog = stats.summarize_step(50, _steady(200, 50, 0.002, 0.004), 1e9, 10.0)
    assert not backlog.passed
    failing = _steady(200, 25, 0.002)
    failing[3] = Request(failing[3].due, failing[3].sent, failing[3].done, ok=False)
    result = stats.summarize_step(25, failing, 100.0, 10.0)
    assert not result.passed and result.failures == 1
    few = stats.summarize_step(25, _steady(10, 25, 0.002), 100.0, 10.0)
    assert few.tail_pct is None and not few.passed


def _step(rate: float, passed: bool, achieved: float) -> stats.StepResult:
    return stats.StepResult(rate, 100, 0, achieved, 1.0, 95.0, 2.0, 0.1, 0.0, passed)


def test_ladder_stops_at_the_first_failing_step():
    steps = [_step(25, True, 24.9), _step(50, True, 49.8), _step(100, False, 70.0),
             _step(200, True, 199.0)]
    assert stats.sustained_rate(steps) == 49.8
    assert stats.sustained_rate([_step(25, False, 20.0)]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 7.0
    # children outside the parent's interval are clipped away
    assert stats.self_time(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0), (30.0, 40.0)]) == 8.0


def test_recorder_self_time_of_nested_spans():
    rec = spans.Recorder()

    def inner():
        return sum(range(10000))

    def outer():
        rec.call("inner", inner)
        rec.call("inner", inner)
        return "done"

    assert rec.call("outer", outer) == "done"
    (outer_span,) = [s for s in rec.spans if s[0] == "outer"]
    inner_total = rec.total("inner")
    assert rec.self_total("outer") == pytest.approx(
        outer_span[2] - outer_span[1] - inner_total
    )
    assert all(s[3] == 0 for s in rec.spans if s[0] == "inner")


def test_recorder_round_trips_through_a_file(tmp_path):
    rec = spans.Recorder()
    rec.rid = "r1"
    rec.call("a", lambda: None)
    rec.count("c", 3)
    rec.sample("s", 1.5)
    rec.dump(tmp_path / "spans.json")
    back = spans.Recorder.load(tmp_path / "spans.json")
    assert back.spans == rec.spans and back.by_rid("a").keys() == {"r1"}
    assert back.counters["c"] == 3 and back.samples["s"] == [1.5]


def test_traffic_is_a_function_of_the_seed():
    anchors = [f"u{i}" for i in range(300)]
    first = common.Traffic(anchors, ("a", "b"), 7)
    again = common.Traffic(anchors, ("a", "b"), 7)
    other = common.Traffic(anchors, ("a", "b"), 8)
    a = [first.next() for _ in range(500)]
    assert a == [again.next() for _ in range(500)]
    assert a != [other.next() for _ in range(500)]
    assert [key[0] for key in a[:4]] == ["a", "b", "a", "b"]
    assert {key[2] for key in a} == set(common.K_CHOICES)


def test_distinct_traffic_never_repeats_a_key():
    anchors = [f"u{i}" for i in range(300)]
    stream = common.DistinctTraffic(anchors, ("a", "b"), 7)
    again = common.DistinctTraffic(anchors, ("a", "b"), 7)
    other = common.DistinctTraffic(anchors, ("a", "b"), 8)
    keys = [stream.next() for _ in range(5000)]
    assert len(set(keys)) == len(keys)
    assert keys == [again.next() for _ in range(5000)]
    assert keys != [other.next() for _ in range(5000)]



def test_recorder_keeps_every_span_of_concurrent_threads():
    rec = spans.Recorder()
    barrier = threading.Barrier(4)

    def worker(n: int) -> None:
        barrier.wait()
        for _ in range(500):
            rec.call(f"t{n}", lambda: None)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(rec.spans) == 2000
    assert all(len(rec.durations(f"t{n}")) == 500 for n in range(4))
    # every reserved slot was filled in by its own call
    assert all(end >= start > 0.0 for _n, start, end, _p, _r in rec.spans)


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder()
    rec.enabled = False
    assert rec.call("a", lambda x: x + 1, 1) == 2
    rec.count("c")
    rec.sample("s", 1.0)
    assert rec.spans == [] and not rec.counters and not rec.samples


def test_layer_metrics_cover_the_manifest(tmp_path):
    import build_layers
    import serve_wl

    rec = spans.Recorder()
    rec.count("matching.embeddings", 10)
    rec.count("index.instances", 2)
    built = build_layers.layer_metrics(
        rec, 1, {"mining.catalog_size": 3, "index.nnz": 4, "index.snapshot_bytes": 5}
    )
    server = spans.Recorder()
    server.rid = "r0"
    for name in ("serving.frontend_query", "serving.rank_many", "serving.score_group",
                 "index.from_index", "search.refresh_serving"):
        server.call(name, lambda: None)
    server.sample("serving.coalescer_wait_s", 0.002)
    server.dump(tmp_path / "spans.json")
    before = {"cache": {"hits": 0, "misses": 0}, "batching": {"submitted": 0, "batches": 0}}
    after = {"cache": {"hits": 1, "misses": 1}, "batching": {"submitted": 1, "batches": 1}}
    served = serve_wl.layer_metrics(tmp_path / "spans.json", {"r0": (0.0, 1.0)}, before, after, 0.5)
    # both traced runs report the union of the two, plus the overhead
    assert not built.keys() & served.keys()
    assert {*built, *served, "trace.overhead_pct"} == common.manifest_metrics(trace=True)
    assert built["index.dedup_ratio"]["value"] == 5.0


def test_emit_refuses_a_result_missing_a_manifest_metric(capsys):
    common.emit(True, 1, 0, {"setup_s": common.metric(1.0, "s")}, trace=False)
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in line
