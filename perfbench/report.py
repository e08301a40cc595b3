"""Turn measured passes into the benchmark's metrics.

:func:`end_to_end` gives the untraced run's metrics (what a user of the
system sees); :func:`per_layer` gives the traced run's breakdown.  Both
return ``{name: (value, unit, samples)}`` in the order of
:data:`END_TO_END` / :data:`PER_LAYER`, and every workload reports every
name: a layer a workload does not exercise reads 0 with 0 samples.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import measure
from perfbench.tracing import SpanData, wait_excluding

Metric = Tuple[float, str, int]

#: Gated metrics.  Wall-clock latency and throughput are not among them:
#: on a shared virtual machine they move with the CPU time the host
#: steals (10-30 % of a second, varying over minutes), by more than any
#: bound a regression gate can use.  CPU time read from ``/proc`` does not
#: count stolen time; the wall-clock figures are reported per layer.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("worker_cpu_ms_per_op", "ms"),
    ("router_cpu_ms_per_req", "ms"),
    ("worker_rss_mb", "MiB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # serving.router
    ("router.forward_ms", "ms"),
    # serving.http + api.service / api.spec
    ("http.handler_ms", "ms"),
    ("spec.validate_ms", "ms"),
    ("result.to_dict_ms", "ms"),
    # serving.shards
    ("shard.insert_wait_ms", "ms"),
    ("shard.actions_per_fold", "ratio"),
    # core.incremental
    ("incremental.add_actions_ms", "ms"),
    ("incremental.groups_touched_per_action", "ratio"),
    ("signatures.signature_calls_per_action", "ratio"),
    ("text.normalize_tag_calls_per_action", "ratio"),
    ("incremental.freeze_ms", "ms"),
    # algorithms
    ("solve.compute_ms.sm-lsh-fo", "ms"),
    ("solve.compute_ms.dv-fdp-fo", "ms"),
    ("solve.evaluations_per_solve", "ratio"),
    ("sm_lsh.relaxations_per_solve", "ratio"),
    ("scoring.subset_support_calls_per_solve", "ratio"),
    ("scoring.subset_support_ms", "ms"),
    ("groups.group_support_ms", "ms"),
    # index.lsh + view caches
    ("lsh.build_ms", "ms"),
    ("lsh.builds_per_solve", "ratio"),
    ("cache.matrix_builds_per_solve", "ratio"),
    # geometry.dispersion
    ("dispersion.greedy_ms", "ms"),
    # dataset.sqlite_store
    ("store.append_action_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.recall_request_ms", "ms"),
    ("store.diff_commit_ms", "ms"),
    # serving.policy
    ("rotate.ms", "ms"),
    ("rotate.count", "count"),
    ("rotate.bytes", "B"),
    # serving.subscriptions
    ("subs.evaluations_per_publish", "ratio"),
    ("subs.useful_ratio", "ratio"),
    ("subs.backlog_max", "actions"),
    # set-up (serving.fleet, core.persistence)
    ("store.ingest_s", "s"),
    ("incremental.prepare_s", "s"),
    ("persistence.load_session_s", "s"),
    ("fleet.spawn_s", "s"),
    # bases of the ratios above
    ("base.solves", "count"),
    ("base.actions", "count"),
    ("base.requests", "count"),
    ("base.folds", "count"),
    ("base.subs_evaluations", "count"),
    ("base.subs_notifications", "count"),
    # the blocking path no span covers, and what tracing cost
    ("trace.uncovered_ms.solve", "ms"),
    ("trace.uncovered_ms.insert", "ms"),
    ("trace.overhead_ratio", "ratio"),
    # wall-clock figures per operation, from the untraced pass
    ("e2e.solve_p50_ms", "ms"),
    ("e2e.solve_p95_ms", "ms"),
    ("e2e.solves_per_s", "1/s"),
    ("e2e.insert_p50_ms", "ms"),
    ("e2e.insert_p95_ms", "ms"),
    ("e2e.inserts_per_s", "actions/s"),
    ("e2e.notify_p50_ms", "ms"),
    ("e2e.notify_p95_ms", "ms"),
    ("e2e.error_rate", "ratio"),
    ("e2e.disk_bytes_per_action", "B"),
    ("gen.lateness_p95_ms", "ms"),
    ("gen.lateness_max_ms", "ms"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(values: Sequence[float], q: float) -> float:
    return measure.percentile(values, q) * 1e3 if values else 0.0


def worker_cpu_per_op(outcome) -> Tuple[float, int]:
    """Worker CPU (user + system) per timed solve or insert, in ms."""
    ops = len(outcome.latencies.get("solve", [])) + len(outcome.latencies.get("insert", []))
    return _ratio(outcome.worker_cpu_s * 1e3, ops), ops


def end_to_end(outcome, setup_samples: Sequence[float]) -> Dict[str, Metric]:
    """The untraced run's gated metrics; ``setup_s`` is the median launch."""
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "worker_cpu_ms_per_op": worker_cpu_per_op(outcome),
        "router_cpu_ms_per_req": (_ratio(outcome.router_cpu_s * 1e3, outcome.requests), outcome.requests),
        "worker_rss_mb": (outcome.worker_rss_mib, 1),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def _compute_ms(outcome, algorithm: str) -> Tuple[float, int]:
    times = [
        result.elapsed_seconds * 1e3
        for _, result in outcome.solve_results
        if result.algorithm == algorithm
    ]
    return (statistics.fmean(times) if times else 0.0), len(times)


def _delta(outcome, key: str) -> int:
    return int(outcome.stats_end.get(key, 0)) - int(outcome.stats_start.get(key, 0))


def per_layer(workload, untraced, traced, spans: SpanData) -> Dict[str, Metric]:
    """The traced run's breakdown, plus wire and ``/proc`` figures.

    Span figures come from the traced pass, restricted to its measuring
    window; figures that travel on the wire (solve compute time,
    evaluations, relaxations, groups touched) and outside readings
    (CPU, stats counters) come from the untraced pass.
    """
    window = spans.bucket_window(*traced.window_ns)

    def mean(name: str, self_time: bool = False, tag: Optional[str] = None) -> Tuple[float, int]:
        count, total, own = spans.totals(name, window, tag)
        return _ratio(own if self_time else total, count), count

    def count(name: str) -> int:
        return spans.totals(name, window)[0]

    solves = count("view.solve")
    batches = spans.spans("incremental.add_actions", window)
    actions = sum(record[6] or 0 for record in batches)

    def calls_per_action(counter: str) -> Tuple[float, int]:
        return _ratio(sum(record[7].get(counter, 0) for record in batches), actions), actions

    results = untraced.solve_results
    sm_lsh = [result for _, result in results if result.algorithm == "sm-lsh-fo"]
    folds = _delta(untraced, "merge_count")
    evaluations = _delta(untraced, "subs_evaluations")
    notifications = _delta(untraced, "subs_notifications")
    waits = wait_excluding(
        spans.spans("shard.insert_batch", window),
        spans.spans("incremental.add_actions") + spans.spans("incremental.freeze"),
    )
    rotations = spans.spans("rotate", window)
    setup_end = traced.window_ns[0]
    untraced_actions = untraced.actions_acked

    def setup_seconds(name: str) -> Tuple[float, int]:
        done = [record for record in spans.spans(name) if record[4] < setup_end]
        return sum(record[4] - record[3] for record in done) / 1e9, len(done)

    def uncovered(kind: str) -> Tuple[float, int]:
        client = traced.latencies.get(f"{kind}_service") or traced.latencies.get(kind) or []
        forward, n_forward = mean("router.forward", tag=kind)
        if not client or not n_forward:
            return 0.0, 0
        pool, _ = mean("router.pool_request", tag=kind)
        dispatch, _ = mean("http.dispatch", tag=kind)
        return statistics.fmean(client) * 1e3 - forward + pool - dispatch, len(client)

    headline_untraced = untraced.latencies[workload.headline]
    headline_traced = traced.latencies[workload.headline]
    values: Dict[str, Tuple[float, int]] = {
        "router.forward_ms": mean("router.forward", self_time=True),
        "http.handler_ms": mean("http.dispatch", self_time=True),
        "spec.validate_ms": mean("spec.validate"),
        "result.to_dict_ms": mean("result.to_dict"),
        "shard.insert_wait_ms": ((statistics.fmean(waits) if waits else 0.0), len(waits)),
        "shard.actions_per_fold": (_ratio(_delta(untraced, "inserts_served"), folds), folds),
        "incremental.add_actions_ms": mean("incremental.add_actions"),
        "incremental.groups_touched_per_action": (
            _ratio(untraced.groups_touched, untraced_actions),
            untraced_actions,
        ),
        "signatures.signature_calls_per_action": calls_per_action("signatures.signature"),
        "text.normalize_tag_calls_per_action": calls_per_action("text.normalize_tag"),
        "incremental.freeze_ms": mean("incremental.freeze"),
        "solve.compute_ms.sm-lsh-fo": _compute_ms(untraced, "sm-lsh-fo"),
        "solve.compute_ms.dv-fdp-fo": _compute_ms(untraced, "dv-fdp-fo"),
        "solve.evaluations_per_solve": (
            _ratio(sum(result.evaluations for _, result in results), len(results)),
            len(results),
        ),
        "sm_lsh.relaxations_per_solve": (
            _ratio(sum(int(result.metadata.get("relaxations", 0)) for result in sm_lsh), len(sm_lsh)),
            len(sm_lsh),
        ),
        "scoring.subset_support_calls_per_solve": (_ratio(count("scoring.subset_support"), solves), solves),
        "scoring.subset_support_ms": mean("scoring.subset_support"),
        "groups.group_support_ms": mean("groups.group_support"),
        "lsh.build_ms": mean("lsh.build"),
        "lsh.builds_per_solve": (_ratio(count("lsh.build"), solves), solves),
        "cache.matrix_builds_per_solve": (_ratio(count("cache.matrix_build"), solves), solves),
        "dispersion.greedy_ms": mean("dispersion.greedy"),
        "store.append_action_ms": mean("store.append_action"),
        "store.commit_ms": mean("store.commit"),
        "store.recall_request_ms": mean("store.recall_request"),
        "store.diff_commit_ms": mean("store.diff_commit"),
        "rotate.ms": mean("rotate"),
        "rotate.count": (len(rotations), len(rotations)),
        "rotate.bytes": (
            _ratio(sum(record[6] or 0 for record in rotations), len(rotations)),
            len(rotations),
        ),
        "subs.evaluations_per_publish": (_ratio(evaluations, folds), folds),
        "subs.useful_ratio": (_ratio(notifications, evaluations), evaluations),
        "subs.backlog_max": (untraced.backlog_max, 1),
        "store.ingest_s": setup_seconds("store.ingest"),
        "incremental.prepare_s": setup_seconds("incremental.prepare"),
        "persistence.load_session_s": setup_seconds("persistence.load_session"),
        "fleet.spawn_s": setup_seconds("fleet.spawn"),
        "base.solves": (solves, solves),
        "base.actions": (actions, actions),
        "base.requests": (untraced.requests, untraced.requests),
        "base.folds": (folds, folds),
        "base.subs_evaluations": (evaluations, evaluations),
        "base.subs_notifications": (notifications, notifications),
        "trace.uncovered_ms.solve": uncovered("solve"),
        "trace.uncovered_ms.insert": uncovered("insert"),
        "trace.overhead_ratio": (
            _ratio(measure.percentile(headline_traced, 50), measure.percentile(headline_untraced, 50)),
            len(headline_traced),
        ),
    }
    values.update(wall_clock(untraced))
    return {name: (float(values[name][0]), unit, int(values[name][1])) for name, unit in PER_LAYER}


def wall_clock(outcome) -> Dict[str, Tuple[float, int]]:
    """Per-operation wall-clock figures of one pass: ``(value, samples)``."""
    latencies = outcome.latencies
    solves = latencies.get("solve", [])
    inserts = latencies.get("insert", [])
    notifies = latencies.get("notify", [])
    late = outcome.lateness
    stored = int(outcome.stats_end.get("actions", 0))
    return {
        "e2e.solve_p50_ms": (_percentile_ms(solves, 50), len(solves)),
        "e2e.solve_p95_ms": (_percentile_ms(solves, 95), len(solves)),
        "e2e.solves_per_s": (_ratio(len(solves), outcome.elapsed_s), len(solves)),
        "e2e.insert_p50_ms": (_percentile_ms(inserts, 50), len(inserts)),
        "e2e.insert_p95_ms": (_percentile_ms(inserts, 95), len(inserts)),
        "e2e.inserts_per_s": (_ratio(outcome.actions_acked, outcome.elapsed_s), len(inserts)),
        "e2e.notify_p50_ms": (_percentile_ms(notifies, 50), len(notifies)),
        "e2e.notify_p95_ms": (_percentile_ms(notifies, 95), len(notifies)),
        "e2e.error_rate": (_ratio(len(outcome.failures), outcome.attempted), outcome.attempted),
        "e2e.disk_bytes_per_action": (_ratio(outcome.disk_bytes, stored), stored),
        "gen.lateness_p95_ms": (_percentile_ms(late, 95), len(late)),
        "gen.lateness_max_ms": ((max(late) * 1e3 if late else 0.0), len(late)),
    }


def format_lines(metrics: Dict[str, Metric]) -> List[str]:
    """One human-readable line per metric: name, value, unit, samples."""
    return [f"  {name:<42} {value:>14.4f} {unit:<9} n={samples}" for name, (value, unit, samples) in metrics.items()]


def wall_clock_metrics(outcome) -> Dict[str, Metric]:
    """:func:`wall_clock` with the units of :data:`PER_LAYER`."""
    units = dict(PER_LAYER)
    return {name: (value, units[name], samples) for name, (value, samples) in wall_clock(outcome).items()}
