"""Span recorder for the traced benchmark run.

:func:`install` wraps the public functions listed in :data:`TARGETS`
inside the process it runs in.  The traced run calls it from a startup
hook (``perfbench/hook/sitecustomize.py``) in the router and worker
processes, so the program under test is unmodified.  Spans stay in
memory and are written to ``<out_dir>/spans-<pid>.json`` at interpreter
exit; :func:`load_dumps` and :class:`SpanData` read them back.

Timestamps are ``time.monotonic_ns()``, which on Linux is one clock for
every process, so spans from the router and the worker line up with the
load generator's measurement window.

A span's *self time* is its duration minus the time covered by spans it
called on the same thread.  Most spans are kept only as per-50-ms
aggregates (count, total, self) to bound memory; the few that the
analysis must correlate across threads are also kept one by one.
"""

from __future__ import annotations

import atexit
import bisect
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

BUCKET_NS = 50_000_000


def op_of_path(path: str) -> str:
    """The request kind (``solve``, ``insert``, ``subs``, ...) of a URL path."""
    path = path.split("?", 1)[0]
    if path.endswith("/solve"):
        return "solve"
    if path.endswith("/insert"):
        return "insert"
    if "/subscriptions" in path:
        return "subs"
    if path.endswith("/stats"):
        return "stats"
    return "other"


class Recorder:
    """Thread-safe span and counter sink for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[Tuple[str, str, int], List[int]]] = []
        #: One tuple per kept span:
        #: (name, tag, thread, start, end, self, extra, counter increments).
        self.records: List[tuple] = []

    def _state(self):
        """This thread's (span stack, aggregate table, counter totals)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def span(
        self,
        name: str,
        fn: Callable,
        keep: bool = False,
        tag: Optional[Callable] = None,
        extra: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``.

        ``tag(args, kwargs)`` labels the span (e.g. the request kind); ``keep``
        also stores it individually, with ``extra(result)`` and the
        counter increments made on its thread while it ran attached.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table, counts = recorder._state()
            before = dict(counts) if keep else None
            stack.append(0)
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                duration = end - start
                self_ns = duration - stack.pop()
                if stack:
                    stack[-1] += duration
                label = tag(args, kwargs) if tag is not None else ""
                key = (name, label, end // BUCKET_NS)
                entry = table.get(key)
                if entry is None:
                    table[key] = [1, duration, self_ns]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_ns
                if keep:
                    recorder.records.append(
                        (
                            name,
                            label,
                            threading.get_ident(),
                            start,
                            end,
                            self_ns,
                            extra(result) if extra is not None and result is not None else None,
                            {
                                counter: total - before.get(counter, 0)
                                for counter, total in counts.items()
                                if total != before.get(counter, 0)
                            },
                        )
                    )

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call is counted (no timing).

        Counts are per thread and only reported through the kept spans
        that enclose them, which keeps a wrapper cheap enough for
        functions called tens of thousands of times per request.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = recorder._state()[2]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every aggregate and kept span to ``path`` as JSON.

        Writes nothing when no wrapped function ran in this process
        (e.g. the multiprocessing resource tracker, which inherits the
        startup hook).
        """
        merged: Dict[Tuple[str, str, int], List[int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (count, total, self_ns) in list(table.items()):
                entry = merged.setdefault(key, [0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_ns
        if not merged and not self.records:
            return
        payload = {
            "pid": os.getpid(),
            "aggregates": [[*key, *value] for key, value in merged.items()],
            "records": [list(record) for record in list(self.records)],
        }
        Path(path).write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _forward_tag(args, kwargs) -> str:
    # TagDMRouter.forward(self, method, corpus, path_with_query, body, ...)
    return op_of_path(str(args[3]))


def _pool_tag(args, kwargs) -> str:
    # HttpConnectionPool.request(self, method, path, ...)
    return op_of_path(str(args[2]))


def _handler_tag(args, kwargs) -> str:
    return op_of_path(str(getattr(args[0], "path", "")))


def _algorithm_tag(args, kwargs) -> str:
    # SessionView.solve(self, problem, algorithm="auto", **options)
    return str(args[2] if len(args) > 2 else kwargs.get("algorithm", "auto"))


def _actions_added(report) -> int:
    return int(report.actions_added)


def _file_size(path) -> int:
    return os.path.getsize(path)


#: (module, attribute path, span name, kind, options).  Each name is
#: patched where its caller looks it up: module-level functions imported
#: by name into another module are patched in that module.
TARGETS: Tuple[Tuple[str, str, str, str, Dict[str, object]], ...] = (
    # serving.router (router process)
    ("repro.serving.router", "TagDMRouter.forward", "router.forward", "span", {"tag": _forward_tag}),
    ("repro.api.client", "HttpConnectionPool.request", "router.pool_request", "span", {"tag": _pool_tag}),
    # serving.http + api.service + api.spec (worker)
    ("repro.serving.http", "_Handler._dispatch", "http.dispatch", "span", {"tag": _handler_tag}),
    ("repro.api.service", "solve_spec_payload", "service.call", "span", {}),
    ("repro.api.service", "insert_actions", "service.call", "span", {}),
    ("repro.api.service", "register_subscription", "service.call", "span", {}),
    ("repro.api.service", "list_subscriptions", "service.call", "span", {}),
    ("repro.api.service", "poll_subscription", "service.call", "span", {}),
    ("repro.api.service", "corpus_stats", "service.call", "span", {}),
    ("repro.api.spec", "ProblemSpec.validate", "spec.validate", "span", {}),
    ("repro.core.result", "MiningResult.to_dict", "result.to_dict", "span", {}),
    # serving.shards + core.incremental
    ("repro.serving.shards", "CorpusShard.insert_batch", "shard.insert_batch", "span", {"keep": True}),
    ("repro.core.incremental", "IncrementalTagDM.add_actions", "incremental.add_actions", "span",
     {"keep": True, "extra": _actions_added}),
    ("repro.core.incremental", "IncrementalTagDM.freeze", "incremental.freeze", "span", {"keep": True}),
    ("repro.core.incremental", "SessionView.solve", "view.solve", "span", {"tag": _algorithm_tag}),
    ("repro.core.signatures", "GroupSignatureBuilder.signature", "signatures.signature", "counter", {}),
    ("repro.text.tokenize", "normalize_tag", "text.normalize_tag", "counter", {}),
    # algorithms, index, geometry
    ("repro.algorithms.scoring", "PairwiseMatrixCache.subset_support", "scoring.subset_support", "span", {}),
    ("repro.algorithms.scoring", "group_support", "groups.group_support", "span", {}),
    ("repro.algorithms.scoring", "PairwiseMatrixCache._tag_matrix", "cache.matrix_build", "span", {}),
    ("repro.algorithms.scoring", "PairwiseMatrixCache._generic_matrix", "cache.matrix_build", "span", {}),
    ("repro.index.lsh", "CosineLshIndex.build", "lsh.build", "span", {}),
    ("repro.index.lsh", "CosineLshIndex.rebuild_with_bits", "lsh.build", "span", {}),
    ("repro.algorithms.dv_fdp", "greedy_max_avg_dispersion", "dispersion.greedy", "span", {}),
    ("repro.algorithms.dv_fdp", "constrained_greedy_dispersion", "dispersion.greedy", "span", {}),
    # dataset.sqlite_store
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.append_action", "store.append_action", "span", {}),
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.recall_request", "store.recall_request", "span", {}),
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.record_subscription_diff", "store.diff_commit", "span", {}),
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.advance_subscription_watermark", "store.diff_commit",
     "span", {}),
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.deferred_commit", "store.commit", "commit", {}),
    # serving.policy
    ("repro.serving.policy", "SnapshotRotator.rotate", "rotate", "span", {"keep": True, "extra": _file_size}),
    # set-up: serving.fleet, core.persistence, dataset.sqlite_store
    ("repro.dataset.sqlite_store", "SqliteTaggingStore.from_dataset", "store.ingest", "span", {"keep": True}),
    ("repro.core.incremental", "IncrementalTagDM.prepare", "incremental.prepare", "span", {"keep": True}),
    ("repro.serving.server", "read_snapshot", "persistence.load_session", "span", {"keep": True}),
    ("repro.serving.server", "session_from_snapshot", "persistence.load_session", "span", {"keep": True}),
    ("repro.serving.fleet", "TagDMFleet._spawn", "fleet.spawn", "span", {"keep": True}),
)


class _TimedExit:
    """Context manager proxy whose ``__exit__`` (the commit) is a span."""

    def __init__(self, inner, timed_exit: Callable) -> None:
        self._inner = inner
        self._timed_exit = timed_exit

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._timed_exit(self._inner, *exc_info)


def _exit_call(inner, *exc_info):
    return inner.__exit__(*exc_info)


def install(out_dir: Path, targets: Iterable[tuple] = TARGETS) -> Recorder:
    """Wrap every target in this process; dump the spans at exit."""
    recorder = Recorder()
    for module_name, attribute, name, kind, options in targets:
        owner = importlib.import_module(module_name)
        *owner_path, leaf = attribute.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(recorder.span(name, raw.__func__, **options))
        elif kind == "counter":
            wrapped = recorder.counter(name, raw)
        elif kind == "commit":
            timed_exit = recorder.span(name, _exit_call)

            def wrapped(*args, _raw=raw, _timed_exit=timed_exit, **kwargs):
                return _TimedExit(_raw(*args, **kwargs), _timed_exit)

        else:
            wrapped = recorder.span(name, raw, **options)
        setattr(owner, leaf, wrapped)
    out = Path(out_dir) / f"spans-{os.getpid()}.json"
    atexit.register(recorder.dump, out)
    return recorder


# ----------------------------------------------------------------------
# Reading the dumps back
# ----------------------------------------------------------------------
class SpanData:
    """Every process's dump of one traced run, queried by time window."""

    def __init__(self, dumps: List[dict]) -> None:
        self.aggregates: List[tuple] = []
        self.records: List[tuple] = []
        for dump in dumps:
            self.aggregates.extend(tuple(row) for row in dump["aggregates"])
            self.records.extend(tuple(row) for row in dump["records"])

    @staticmethod
    def bucket_window(start_ns: int, end_ns: int) -> Tuple[int, int]:
        """The largest bucket-aligned window inside ``[start_ns, end_ns]``."""
        first = -(-start_ns // BUCKET_NS)
        last = end_ns // BUCKET_NS
        return first * BUCKET_NS, last * BUCKET_NS

    def totals(self, name: str, window: Tuple[int, int], tag: Optional[str] = None) -> Tuple[int, float, float]:
        """(count, total ms, self ms) of ``name`` spans ending in ``window``.

        ``window`` must be bucket-aligned (see :meth:`bucket_window`).
        """
        count = total = self_ns = 0
        first, last = window[0] // BUCKET_NS, window[1] // BUCKET_NS
        for row_name, row_tag, bucket, n, duration, own in self.aggregates:
            if row_name != name or not first <= bucket < last:
                continue
            if tag is not None and row_tag != tag:
                continue
            count += n
            total += duration
            self_ns += own
        return count, total / 1e6, self_ns / 1e6

    def spans(self, name: str, window: Optional[Tuple[int, int]] = None) -> List[tuple]:
        """Kept spans called ``name`` (ending inside ``window`` when given)."""
        return [
            record
            for record in self.records
            if record[0] == name
            and (window is None or window[0] <= record[4] < window[1])
        ]


def load_dumps(directory: Path) -> SpanData:
    """Read every ``spans-*.json`` under ``directory``."""
    dumps = [json.loads(path.read_text()) for path in sorted(Path(directory).glob("spans-*.json"))]
    return SpanData(dumps)


def wait_excluding(
    waits: List[tuple], work: List[tuple]
) -> List[float]:
    """Per waiting span, its duration minus the work spans it overlapped (ms).

    ``waits`` and ``work`` are kept-span tuples; work on any thread that
    overlaps a wait is subtracted, clipped to the wait's interval.  This
    is how long a caller blocked on something other than that work:
    queueing behind other requests, waking up, lock and GIL hand-offs.
    """
    work = sorted(work, key=lambda record: record[3])
    starts = [record[3] for record in work]
    result = []
    for wait in waits:
        w_start, w_end = wait[3], wait[4]
        covered = 0
        index = max(0, bisect.bisect_left(starts, w_start) - 1)
        # Work spans are serial (one writer), so scanning forward from the
        # last span starting before the wait covers every overlap.
        while index < len(work) and work[index][3] < w_end:
            overlap = min(w_end, work[index][4]) - max(w_start, work[index][3])
            if overlap > 0:
                covered += overlap
            index += 1
        result.append((w_end - w_start - covered) / 1e6)
    return result
