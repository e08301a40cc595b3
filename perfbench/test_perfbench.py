"""Tests of the benchmark itself: arithmetic, checks, tracing, smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import measure, report, run, tracing, workloads
from perfbench.checks import check_responses, check_subscription, ledger_gaps
from repro.api.diff import diff_results

CHECKOUT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles and open-loop lateness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [2, 7, 200, 1001])
def test_percentile_matches_statistics_inclusive(size):
    rng = random.Random(size)
    values = [rng.expovariate(1.0) for _ in range(size)]
    expected = statistics.quantiles(values, n=100, method="inclusive")
    for q in (1, 25, 50, 95, 99):
        assert measure.percentile(values, q) == pytest.approx(expected[q - 1])
    assert measure.percentile(values, 0) == min(values)
    assert measure.percentile(values, 100) == max(values)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_min_samples_leave_ten_beyond_p95():
    values = [index / 1000 for index in range(1, measure.MIN_SAMPLES + 1)]
    p95 = measure.percentile(values, 95)
    assert sum(value > p95 for value in values) >= 10


def test_lateness_clamps_early_sends_and_pairs_up():
    assert measure.lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.25]) == pytest.approx([0.5, 0.0, 0.25])
    with pytest.raises(ValueError):
        measure.lateness([1.0], [])


def test_fell_behind_distinguishes_a_stall_from_a_growing_backlog():
    interval = 0.1
    recovered = [0.0] * 50 + [2.0, 1.9, 1.8] + [0.0] * 20
    growing = [0.05 * index for index in range(73)]
    assert not measure.fell_behind(recovered, interval)
    assert measure.fell_behind(growing, interval)
    assert not measure.fell_behind([], interval)


def test_notify_delays_take_the_first_covering_poll_after_the_ack():
    acks = [(1.0, 10), (2.0, 12), (3.0, 14)]
    polls = [(0.9, 10), (1.2, 9), (1.4, 10), (2.5, 13), (3.1, 13), (3.6, 15)]
    # The poll at 0.9 already covers watermark 10 but predates the ack.
    assert workloads.notify_delays(acks, polls) == pytest.approx([0.4, 0.5, 0.6])
    # An insert never seen delivered is left out.
    assert workloads.notify_delays([(4.0, 20)], polls) == []


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _payload(tuples, objective=1.0):
    return {
        "problem": {"name": "p"},
        "algorithm": "sm-lsh-fo",
        "groups": [{"predicates": [["user.gender", "F"]], "tuple_indices": list(tuples)}],
        "objective_value": objective,
        "constraint_scores": {},
        "support": len(tuples),
        "feasible": True,
        "elapsed_seconds": 0.01,
        "evaluations": 3,
        "metadata": {},
    }


def test_check_responses_ignores_volatile_fields_and_fails_on_tampering():
    reference = [_payload([1, 2, 3])]
    same = dict(_payload([1, 2, 3]), elapsed_seconds=9.0, evaluations=99)
    assert check_responses([(0, same)], reference) == []
    tampered = _payload([1, 2, 4])
    assert len(check_responses([(0, same), (0, tampered)], reference)) == 1
    assert len(check_responses([(0, _payload([1, 2, 3], objective=0.5))], reference)) == 1


def _chain(*payloads):
    diffs, previous = [], None
    for seq, payload in enumerate(payloads, start=1):
        diffs.append({"seq": seq, "diff": diff_results(previous, payload, seq).to_dict()})
        previous = payload
    return diffs


def test_check_subscription_accepts_a_dense_chain_that_composes_to_the_final_solve():
    first, second = _payload([1, 2]), _payload([1, 2, 3], objective=2.0)
    assert check_subscription("s", _chain(first, second), second) == []
    assert check_subscription("s", _chain(first, second), first) != []


def test_check_subscription_fails_on_duplicated_or_lost_seq():
    first, second = _payload([1, 2]), _payload([1, 2, 3], objective=2.0)
    diffs = _chain(first, second)
    duplicated = diffs + [dict(diffs[-1])]
    assert ledger_gaps([1, 2, 2]) == {"lost": 0, "dup": 1}
    assert any("dup=1" in failure for failure in check_subscription("s", duplicated, second))
    lost = [diffs[0], dict(diffs[1], seq=3)]
    assert ledger_gaps([1, 3]) == {"lost": 1, "dup": 0}
    assert any("lost=1" in failure for failure in check_subscription("s", lost, second))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_mine_inputs_are_seeded_and_stratified():
    first, again, other = (workloads.mine_inputs(seed) for seed in (3, 3, 4))
    assert [spec.to_dict() for spec in first.specs] == [spec.to_dict() for spec in again.specs]
    assert [spec.to_dict() for spec in first.specs] != [spec.to_dict() for spec in other.specs]
    algorithms = [spec.algorithm for spec in first.specs]
    assert algorithms.count("sm-lsh-fo") == 18 and algorithms.count("dv-fdp-fo") == 9
    assert first.probe.to_dict() == other.probe.to_dict()


def test_insert_stream_is_seeded_and_retries_one_op_in_ten():
    dataset = workloads.INGEST_SHAPE.dataset()

    def ops(seed):
        stream = workloads.InsertStream(seed, dataset, batch_size=1, label="t", retry_every=10)
        out = []
        for _ in range(100):
            key, actions, retry = stream.next()
            if not retry:
                stream.ack(key, actions)
            out.append((key, actions, retry))
        return out

    first = ops(5)
    assert first == ops(5)
    assert first != ops(6)
    retries = [op for op in first if op[2]]
    assert 9 <= len(retries) <= 10  # the first block may have nothing acked yet
    acked = {key for key, _, retry in first if not retry}
    assert all(key in acked for key, _, _ in retries)
    users = {dataset.user_of(row) for row in range(dataset.n_actions)}
    assert all(action["user_id"] in users for _, actions, _ in first for action in actions)


# ----------------------------------------------------------------------
# Tracing arithmetic
# ----------------------------------------------------------------------
def test_recorder_self_time_and_counter_attribution(tmp_path):
    recorder = tracing.Recorder()
    counted = recorder.counter("count.leaf", lambda: None)

    def inner():
        time.sleep(0.02)
        counted()
        counted()

    inner_span = recorder.span("inner", inner)

    def outer():
        time.sleep(0.01)
        inner_span()
        return "done"

    outer_span = recorder.span("outer", outer, keep=True, extra=lambda result: 7)
    started = time.monotonic_ns()
    outer_span()
    outer_span()
    time.sleep(tracing.BUCKET_NS / 1e9)
    window = tracing.SpanData.bucket_window(started - tracing.BUCKET_NS, time.monotonic_ns())
    recorder.dump(tmp_path / "spans-1.json")
    spans = tracing.load_dumps(tmp_path)
    n_outer, total_outer, self_outer = spans.totals("outer", window)
    n_inner, total_inner, self_inner = spans.totals("inner", window)
    assert (n_outer, n_inner) == (2, 2)
    assert self_inner == pytest.approx(total_inner)
    assert self_outer == pytest.approx(total_outer - total_inner, abs=0.5)
    assert 15 < self_outer < 40
    (record, _) = spans.spans("outer")
    assert record[6] == 7 and record[7] == {"count.leaf": 2}


def test_recorder_keeps_threads_apart():
    recorder = tracing.Recorder()
    span = recorder.span("work", lambda: time.sleep(0.005), keep=True)
    threads = [threading.Thread(target=span) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert len(recorder.records) == 4
    assert all(record[5] == record[4] - record[3] for record in recorder.records)


def test_wait_excluding_subtracts_overlapping_work():
    ms = 1_000_000
    waits = [("wait", "", 1, 0, 10 * ms, 0, None, {}), ("wait", "", 1, 20 * ms, 30 * ms, 0, None, {})]
    work = [
        ("work", "", 2, 2 * ms, 6 * ms, 0, None, {}),
        ("work", "", 2, 8 * ms, 12 * ms, 0, None, {}),
        ("work", "", 2, 25 * ms, 26 * ms, 0, None, {}),
    ]
    assert tracing.wait_excluding(waits, work) == pytest.approx([4.0, 9.0])


def test_bucket_window_is_aligned_and_inside():
    first, last = tracing.SpanData.bucket_window(70_000_000, 260_000_000)
    assert (first, last) == (100_000_000, 250_000_000)


def test_every_target_resolves():
    import importlib

    for module_name, attribute, *_ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), attribute


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics_and_workloads():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(entry["name"], entry["unit"]) for entry in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(entry["name"], entry["unit"]) for entry in spec["per_layer"]] == list(report.PER_LAYER)


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout


# ----------------------------------------------------------------------
# Smoke-sized runs: every workload end to end, outputs checked
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_output_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    outcome = run.run_pass(workload, seed=11, seconds=1.0, root=tmp_path / "fleet")
    assert outcome.failures == []
    assert outcome.attempted > 0
    # One second is below the 200-sample floor: the run says so.
    assert any("fewer than 200" in reason for reason in outcome.invalid)
    metrics = report.end_to_end(outcome, [outcome.setup_s])
    assert all(value > 0 for value, _, _ in metrics.values())
    figures = report.wall_clock_metrics(outcome)
    assert figures["e2e.error_rate"][0] == 0.0


def test_smoke_traced_run_reports_every_layer_metric(tmp_path):
    workload = workloads.WORKLOADS["ingest"]
    untraced = run.run_pass(workload, seed=12, seconds=1.0, root=tmp_path / "untraced")
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    traced = run.run_pass(workload, seed=12, seconds=1.0, root=tmp_path / "traced", trace_dir=spans_dir)
    assert untraced.failures == [] and traced.failures == []
    assert len(list(spans_dir.glob("spans-*.json"))) == 2  # router and worker
    metrics = report.per_layer(workload, untraced, traced, tracing.load_dumps(spans_dir))
    assert list(metrics) == [name for name, _ in report.PER_LAYER]
    for name in ("incremental.add_actions_ms", "store.commit_ms", "router.forward_ms", "fleet.spawn_s"):
        assert metrics[name][0] > 0 and metrics[name][2] > 0, name
