"""The benchmark's workloads: corpora, seeded inputs, load and checks.

Every workload talks to a launched one-worker fleet
(:class:`perfbench.launcher.FleetProcess`) over ``HttpClient`` from this
process, with at most two threads and two pooled connections, so each
request crosses client -> router -> worker HTTP front-end -> service ->
shard -> session -> kernels -> SQLite store.

* ``mine`` keeps the solve kernels busy (support counting, LSH buckets,
  greedy dispersion) over warm view caches; the insert path is idle.
* ``ingest`` keeps the insert path busy (group maintenance, store
  commits and the dedup log, the fold per insert, snapshot rotation);
  no solve runs in its window.
* ``htap_standing`` mixes both on a smaller corpus: open-loop streams
  of keyed batches and of solves, with standing subscriptions
  re-evaluated on every published view, so solves and evaluations run
  over views whose caches every fold resets.

The corpus of a workload does not depend on the seed (so set-up cost
and working-set size stay put); the seed generates everything sent to
the server: the solve-spec mix, the insert stream, the retried keys and
the subscription specs.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import measure
from perfbench.checks import check_responses, check_subscription, result_payload
from repro.api.client import HttpClient
from repro.api.errors import ApiError
from repro.api.spec import ProblemSpec
from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM
from repro.core.problem import table1_problem
from repro.dataset.synthetic import generate_movielens_style
from repro.serving.policy import SnapshotRotationPolicy
from repro.serving.server import TagDMServer

CORPUS = "bench"
#: Session seed of the fleet and of every in-process reference.
SESSION_SEED = 0

#: Open-loop rate of ``htap_standing``: batches per second, actions each.
HTAP_BATCHES_PER_S = 10.5
HTAP_BATCH_SIZE = 2
#: Open-loop rate of the ``htap_standing`` solve client.  A closed loop
#: here would keep the worker's interpreter lock busy, and the
#: fixed-rate writer and evaluator would take their share out of the
#: solves: a slightly slower (or CPU-stolen) machine would show as a much
#: slower solve stream and a different amount of work per run.
HTAP_SOLVES_PER_S = 20.0
#: After each acknowledged batch the writer polls the subscription
#: watermarks this many times, this far apart.  A fixed count (rather
#: than polling whenever idle) keeps the work per run independent of how
#: fast the machine is, so CPU per operation stays comparable.
POLLS_PER_BATCH = 2
POLL_INTERVAL_S = 0.025
#: Every this many batches the writer also samples the shard's stats.
STATS_EVERY_BATCHES = 10
SETTLE_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class CorpusShape:
    """A synthetic corpus and the fleet configuration serving it."""

    n_users: int
    n_items: int
    n_actions: int
    max_groups: int
    #: Inserted actions between snapshot rotations.
    rotate_every: int = 500

    def dataset(self):
        """The corpus (the generator's default seed: identical every run)."""
        return generate_movielens_style(
            n_users=self.n_users, n_items=self.n_items, n_actions=self.n_actions
        )

    def enumeration(self) -> GroupEnumerationConfig:
        return GroupEnumerationConfig(min_support=5, max_groups=self.max_groups)

    def fleet_options(self) -> Dict[str, object]:
        """Session configuration shared by the fleet and in-process replays."""
        return {
            "enumeration": self.enumeration(),
            "policy": SnapshotRotationPolicy(every_inserts=self.rotate_every),
            "seed": SESSION_SEED,
        }


#: The Figure 7 bin100 shape.
MINE_SHAPE = CorpusShape(n_users=150, n_items=300, n_actions=4000, max_groups=90)
#: An insert here costs about 12 ms; on the 2000-action serving-bench
#: corpus it costs 65-110 ms, too few samples for one run.  Snapshot
#: rotation fires several times per run.
INGEST_SHAPE = CorpusShape(n_users=40, n_items=80, n_actions=600, max_groups=60, rotate_every=100)
#: Smaller again: the open loop, the evaluator and the polls must leave
#: most of the worker's time to the closed-loop solves.  When they take
#: a large share, any slowdown of the machine comes out amplified in the
#: solves, which only get what is left.
HTAP_SHAPE = CorpusShape(n_users=30, n_items=60, n_actions=300, max_groups=40, rotate_every=100)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
# Threshold bands.  The seed jitters thresholds only slightly inside a
# band: SM-LSH cost jumps with the number of relaxations, and a wide band
# would make the seed, not the system, set the cost of the mix.
LOOSE = (0.39, 0.41)
MID = (0.59, 0.61)
TIGHT = (0.79, 0.81)


def make_spec(
    rng: random.Random,
    problem_id: int,
    k: int,
    band: Tuple[float, float],
    algorithm: str,
    support: Tuple[int, int],
) -> ProblemSpec:
    """One Table 1 spec with seeded thresholds and minimum support."""
    problem = table1_problem(
        problem_id,
        k=k,
        min_support=rng.randint(*support),
        user_threshold=round(rng.uniform(*band), 3),
        item_threshold=round(rng.uniform(*band), 3),
    )
    return ProblemSpec.from_problem(problem, algorithm=algorithm)


def probe_spec(shape: CorpusShape) -> ProblemSpec:
    """The first request of every launch: the same cheap solve each run."""
    support = shape.n_actions // 100
    return ProblemSpec.from_problem(table1_problem(2, k=2, min_support=support), algorithm="sm-lsh-fo")


class InsertStream:
    """Seeded insert batches on the corpus's existing users and items.

    The seed draws each action's two tags (from the corpus's own tag
    occurrences), its rating and, with ``retry_every = n``, which op in
    each block of ``n`` re-sends an already acknowledged batch under its
    original idempotency key (the server must answer it
    ``deduplicated``).  The sequence of (user, item) pairs is the same
    for every seed: an insert's cost grows with the groups it touches,
    so a seeded sequence would let the seed, not the system, decide how
    fast the groups grow.
    """

    def __init__(self, seed: int, dataset, batch_size: int, label: str, retry_every: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pairs = random.Random(0)
        self._label = f"{label}-{seed}"
        self._dataset = dataset
        self._tags = [tag for row in range(dataset.n_actions) for tag in dataset.tags_of(row)]
        self.batch_size = batch_size
        self.retry_every = retry_every
        self._sent = 0
        self._retry_slot = -1
        self._acked: List[Tuple[str, List[dict]]] = []

    def _action(self) -> dict:
        rng, dataset = self._rng, self._dataset
        tags = set()
        while len(tags) < 2:
            tags.add(rng.choice(self._tags))
        return {
            "user_id": dataset.user_of(self._pairs.randrange(dataset.n_actions)),
            "item_id": dataset.item_of(self._pairs.randrange(dataset.n_actions)),
            "tags": sorted(tags),
            "rating": float(rng.randint(1, 5)),
        }

    def next(self) -> Tuple[str, List[dict], bool]:
        """``(idempotency key, actions, is_retry)`` of the next op."""
        index = self._sent
        self._sent += 1
        if self.retry_every:
            if index % self.retry_every == 0:
                self._retry_slot = index + self._rng.randrange(self.retry_every)
            if index == self._retry_slot and self._acked:
                key, actions = self._acked[self._rng.randrange(len(self._acked))]
                return key, actions, True
        key = f"{self._label}-{index}"
        return key, [self._action() for _ in range(self.batch_size)], False

    def ack(self, key: str, actions: List[dict]) -> None:
        """Record an acknowledged fresh batch (a candidate for retries)."""
        self._acked.append((key, actions))


@dataclass
class Inputs:
    """Everything a workload sends, generated from the run's seed."""

    probe: ProblemSpec
    specs: List[ProblemSpec] = field(default_factory=list)
    #: Per closed-loop client, the order (indices into ``specs``) it
    #: cycles through.  Independent orders keep two clients from running
    #: the same pairs of specs side by side for a whole run.
    orders: List[List[int]] = field(default_factory=list)
    subscriptions: List[ProblemSpec] = field(default_factory=list)
    final_specs: List[ProblemSpec] = field(default_factory=list)
    stream: Optional[InsertStream] = None


def mine_inputs(seed: int) -> Inputs:
    """27 specs: two thirds SM-LSH (some infeasible), one third DV-FDP.

    SM-LSH covers problems 1-3 x k in {2, 3, 4} x {loose, tight}
    thresholds; the tight problem-1 specs exhaust the relaxation loop
    and return no groups.  DV-FDP covers problems 4-6 x k in {2, 3, 4}.
    The DV-FDP share stays well below half so the median falls inside
    the SM-LSH latencies rather than in the gap between the two.
    """
    rng = random.Random(seed)
    support = (30, 50)
    specs = [
        make_spec(rng, problem_id, k, band, "sm-lsh-fo", support)
        for problem_id in (1, 2, 3)
        for k in (2, 3, 4)
        for band in (LOOSE, TIGHT)
    ]
    specs += [
        make_spec(rng, problem_id, k, band, "dv-fdp-fo", support)
        for problem_id, band in ((4, LOOSE), (5, MID), (6, TIGHT))
        for k in (2, 3, 4)
    ]
    indices = list(range(len(specs)))
    orders = [rng.sample(indices, len(indices)) for _ in range(2)]
    return Inputs(probe=probe_spec(MINE_SHAPE), specs=specs, orders=orders)


def ingest_inputs(seed: int) -> Inputs:
    """Single-action inserts, one in ten a retry; two final-solve specs."""
    rng = random.Random(seed)
    support = (15, 25)
    return Inputs(
        probe=probe_spec(INGEST_SHAPE),
        final_specs=[
            make_spec(rng, 2, 3, LOOSE, "sm-lsh-fo", support),
            make_spec(rng, 4, 3, MID, "dv-fdp-fo", support),
        ],
        stream=InsertStream(seed, INGEST_SHAPE.dataset(), batch_size=1, label="ingest", retry_every=10),
    )


def htap_inputs(seed: int) -> Inputs:
    """Two cheap standing subscriptions (SM-LSH, DV-FDP), seven solve
    specs and an insert stream of two-action batches."""
    rng = random.Random(seed)
    support = (15, 25)
    subscriptions = [
        make_spec(rng, 2, 3, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 5, 3, MID, "dv-fdp-fo", support),
    ]
    # SM-LSH specs that each compute for 10-20 ms, long against the
    # interpreter's 5 ms thread switch interval, so a solve's latency is
    # mostly its own work rather than where the GIL hand-offs fell.  With
    # seven specs of distinct cost, p50 and p95 each fall inside one
    # spec's latencies instead of on the boundary between two.
    specs = [
        make_spec(rng, 3, 3, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 3, 4, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 1, 2, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 1, 3, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 1, 4, LOOSE, "sm-lsh-fo", support),
        make_spec(rng, 4, 3, MID, "dv-fdp-fo", support),
        make_spec(rng, 6, 2, MID, "dv-fdp-fo", support),
    ]
    return Inputs(
        probe=probe_spec(HTAP_SHAPE),
        specs=specs,
        orders=[rng.sample(range(len(specs)), len(specs))],
        subscriptions=subscriptions,
        final_specs=list(subscriptions),
        stream=InsertStream(seed, HTAP_SHAPE.dataset(), batch_size=HTAP_BATCH_SIZE, label="htap"),
    )


# ----------------------------------------------------------------------
# Outcome of one pass
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one pass measured and checked."""

    workload: str
    setup_s: float = 0.0
    #: Seconds per timed operation: ``solve`` (round trip), ``insert``
    #: (until acknowledged; both from the due time on an open loop),
    #: ``insert_service`` (send to ack) and ``notify``.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    lateness: List[float] = field(default_factory=list)
    solve_results: List[tuple] = field(default_factory=list)
    actions_acked: int = 0
    groups_touched: int = 0
    requests: int = 0
    window_ns: Tuple[int, int] = (0, 0)
    elapsed_s: float = 0.0
    stats_start: Dict[str, object] = field(default_factory=dict)
    stats_end: Dict[str, object] = field(default_factory=dict)
    backlog_max: int = 0
    worker_cpu_s: float = 0.0
    router_cpu_s: float = 0.0
    worker_rss_mib: float = 0.0
    disk_bytes: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)

    def timed(self, kind: str) -> List[float]:
        return self.latencies.setdefault(kind, [])

    def require_samples(self, *kinds: str) -> None:
        for kind in kinds:
            count = len(self.latencies.get(kind, []))
            if count < measure.MIN_SAMPLES:
                self.invalid.append(f"{count} {kind} samples, fewer than {measure.MIN_SAMPLES}")

    def check(self, failures: Sequence[str], attempted: int = 1) -> None:
        """Count ``attempted`` checked operations and their failures."""
        self.attempted += attempted
        self.failures.extend(failures)


# ----------------------------------------------------------------------
# Shared pieces of the load generators
# ----------------------------------------------------------------------
def setup_probe(client: HttpClient, inputs: Inputs) -> float:
    """Register the subscriptions, then serve the probe solve.

    Returns the ``time.perf_counter()`` at which the first solve was
    answered: the end of set-up.
    """
    for index, spec in enumerate(inputs.subscriptions):
        client.register_subscription(CORPUS, spec, subscription_id=f"sub-{index}")
    client.solve(CORPUS, inputs.probe)
    return time.perf_counter()


class _SolveLoop(threading.Thread):
    """A client cycling through specs in a given order until a deadline.

    Closed loop by default: the next request leaves when the previous
    answer arrived.  With ``interval`` it is an open loop: request ``i``
    is due at ``started + i * interval`` and timed from that due time,
    so a stall also counts against the requests queued behind it.
    """

    def __init__(
        self,
        client: HttpClient,
        specs: Sequence[ProblemSpec],
        order: Sequence[int],
        started: float,
        deadline: float,
        interval: float = 0.0,
    ) -> None:
        super().__init__(daemon=True)
        self.client, self.specs, self.order = client, specs, order
        self.started, self.deadline, self.interval = started, deadline, interval
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.results: List[tuple] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.last_done = 0.0

    def run(self) -> None:
        index = 0
        while True:
            due = self.started + index * self.interval
            if self.interval:
                if due >= self.deadline:
                    return
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            if not self.interval:
                if sent >= self.deadline:
                    return
                due = sent
            position = self.order[index % len(self.order)]
            try:
                result = self.client.solve(CORPUS, self.specs[position])
            except ApiError as exc:
                self.failures.append(f"solve: {type(exc).__name__}: {exc}")
            else:
                self.last_done = time.perf_counter()
                self.latencies.append(self.last_done - due)
                self.lateness.append(max(0.0, sent - due))
                self.results.append((position, result))
            self.attempted += 1
            index += 1


def _merge_solvers(outcome: Outcome, loops: Sequence[_SolveLoop]) -> None:
    for loop in loops:
        outcome.timed("solve").extend(loop.latencies)
        outcome.solve_results.extend(loop.results)
        outcome.failures.extend(loop.failures)
        outcome.attempted += loop.attempted
        outcome.requests += loop.attempted


def _open_window(outcome: Outcome, fleet, client: HttpClient):
    outcome.stats_start = client.stats(CORPUS)
    return measure.cpu_seconds(fleet.worker_pid), measure.cpu_seconds(fleet.router_pid)


def _close_window(outcome: Outcome, fleet, client: HttpClient, cpu_start, started: float, ended: float) -> None:
    """Record the window and read the resources from outside the processes."""
    outcome.worker_cpu_s = measure.cpu_seconds(fleet.worker_pid) - cpu_start[0]
    outcome.router_cpu_s = measure.cpu_seconds(fleet.router_pid) - cpu_start[1]
    outcome.elapsed_s = ended - started
    outcome.stats_end = client.stats(CORPUS)
    outcome.worker_rss_mib = measure.peak_rss_mib(fleet.worker_pid)
    outcome.disk_bytes = measure.dir_bytes(fleet.root / CORPUS)


def _mark(clock_s: float) -> int:
    """A ``perf_counter`` reading as ``monotonic_ns`` (one clock on Linux)."""
    return int(clock_s * 1e9) + (time.monotonic_ns() - int(time.perf_counter() * 1e9))


def replay_payloads(shape: CorpusShape, specs: Sequence[ProblemSpec], batches: Sequence[List[dict]] = ()):
    """Solve ``specs`` in-process after replaying ``batches`` in order."""
    session = IncrementalTagDM(
        shape.dataset(), enumeration=shape.enumeration(), seed=SESSION_SEED
    ).prepare()
    for batch in batches:
        session.add_actions(batch)
    view = session.freeze(epoch=1)
    payloads = []
    for spec in specs:
        problem, algorithm = spec.validate()
        payloads.append(result_payload(view.solve(problem, algorithm=algorithm, **dict(spec.options))))
    return payloads


def _served_payloads(client: HttpClient, specs: Sequence[ProblemSpec]):
    return [result_payload(client.solve(CORPUS, spec)) for spec in specs]


def _check_replay(outcome: Outcome, shape, specs, served, batches) -> None:
    expected = replay_payloads(shape, specs, batches)
    outcome.check(
        check_responses(list(enumerate(served)), expected), attempted=len(specs)
    )


def _check_reopen(outcome: Outcome, shape: CorpusShape, fleet) -> None:
    """Reopen the closed corpus in-process; its groups must be consistent."""
    server = TagDMServer(fleet.root, **shape.fleet_options())
    try:
        errors = server.open_corpus(CORPUS).session.consistency_errors()
    finally:
        server.close()
    outcome.check([f"after reopen: {error}" for error in errors[:5]])


def _check_store_count(outcome: Outcome, initial: int) -> None:
    stored = int(outcome.stats_end["actions"])
    expected = initial + outcome.actions_acked
    outcome.check(
        [] if stored == expected else [f"store holds {stored} actions, expected {expected}"]
    )


# ----------------------------------------------------------------------
# Load generators, one per workload
# ----------------------------------------------------------------------
def drive_mine(fleet, client: HttpClient, inputs: Inputs, seconds: float, outcome: Outcome) -> None:
    """Two closed-loop clients cycle the seeded spec mix (no inserts)."""
    for spec in inputs.specs:  # warm the view caches before timing
        client.solve(CORPUS, spec)
    cpu_start = _open_window(outcome, fleet, client)
    started = time.perf_counter()
    deadline = started + seconds
    loops = [_SolveLoop(client, inputs.specs, order, started, deadline) for order in inputs.orders]
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join()
    ended = max(loop.last_done for loop in loops)
    outcome.window_ns = (_mark(started), _mark(ended))
    _close_window(outcome, fleet, client, cpu_start, started, ended)
    _merge_solvers(outcome, loops)
    outcome.require_samples("solve")
    fleet.stop()
    reference = replay_payloads(MINE_SHAPE, inputs.specs)
    responses = [(index, result_payload(result)) for index, result in outcome.solve_results]
    outcome.check(check_responses(responses, reference), attempted=0)


def drive_ingest(fleet, client: HttpClient, inputs: Inputs, seconds: float, outcome: Outcome) -> None:
    """One closed-loop client sends keyed single-action inserts; a seeded
    tenth are retries of acknowledged keys."""
    stream = inputs.stream
    committed: List[List[dict]] = []
    initial = INGEST_SHAPE.n_actions

    def send(timed: bool) -> None:
        key, actions, retry = stream.next()
        started = time.perf_counter()
        try:
            report = client.insert(CORPUS, actions, idempotency_key=key)
        except ApiError as exc:
            outcome.failures.append(f"insert {key}: {type(exc).__name__}: {exc}")
            return
        if timed:
            outcome.timed("insert").append(time.perf_counter() - started)
        if report.deduplicated != retry:
            outcome.failures.append(f"insert {key}: deduplicated={report.deduplicated}, retry={retry}")
        if not retry:
            stream.ack(key, actions)
            committed.append(actions)
            outcome.actions_acked += report.actions_added
            if timed:
                outcome.groups_touched += report.groups_updated + report.groups_created

    for _ in range(3):
        send(timed=False)
    warm_actions = outcome.actions_acked
    cpu_start = _open_window(outcome, fleet, client)
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        send(timed=True)
        outcome.attempted += 1
        outcome.requests += 1
    ended = time.perf_counter()
    outcome.window_ns = (_mark(started), _mark(ended))
    _close_window(outcome, fleet, client, cpu_start, started, ended)
    outcome.require_samples("insert")
    _check_store_count(outcome, initial)
    served = _served_payloads(client, inputs.final_specs)
    fleet.stop()
    _check_replay(outcome, INGEST_SHAPE, inputs.final_specs, served, committed)
    _check_reopen(outcome, INGEST_SHAPE, fleet)
    # Throughput counts only actions acknowledged inside the window.
    outcome.actions_acked -= warm_actions


def notify_delays(acks: Sequence[Tuple[float, int]], polls: Sequence[Tuple[float, int]]) -> List[float]:
    """Per acknowledged insert, the delay until a poll showed it delivered.

    ``acks`` holds ``(ack time, watermark)`` in send order and ``polls``
    ``(poll time, lowest subscription watermark)`` in time order.  An
    insert counts as delivered at the first poll answered after its ack
    whose watermark covers it; inserts never seen delivered are left
    out (the caller checks the count).
    """
    delays = []
    start = 0
    for acked_at, watermark in acks:
        while start < len(polls) and polls[start][0] < acked_at:
            start += 1
        for polled_at, reached in polls[start:]:
            if reached >= watermark:
                delays.append(polled_at - acked_at)
                break
    return delays


class _Writer(threading.Thread):
    """Open-loop keyed batches; polls subscription watermarks after each ack."""

    def __init__(self, client: HttpClient, stream: InsertStream, started: float, n_batches: int, watermark: int) -> None:
        super().__init__(daemon=True)
        self.client, self.stream, self.started, self.n_batches = client, stream, started, n_batches
        self.watermark = watermark
        self.interval = 1.0 / HTAP_BATCHES_PER_S
        self.due: List[float] = []
        self.sent: List[float] = []
        self.acks: List[Tuple[float, int]] = []
        self.polls: List[Tuple[float, int]] = []
        self.committed: List[List[dict]] = []
        self.latencies: List[float] = []
        self.service: List[float] = []
        self.failures: List[str] = []
        self.requests = 0
        self.groups_touched = 0
        self.backlog_max = 0

    def _poll(self) -> None:
        rows = self.client.subscriptions(CORPUS)
        self.polls.append((time.perf_counter(), min(int(row["last_watermark"]) for row in rows)))
        self.requests += 1

    def run(self) -> None:
        try:
            for index in range(self.n_batches):
                due = self.started + index * self.interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                key, actions, _ = self.stream.next()
                sent = time.perf_counter()
                try:
                    report = self.client.insert(CORPUS, actions, idempotency_key=key)
                except ApiError as exc:
                    self.failures.append(f"insert {key}: {type(exc).__name__}: {exc}")
                    continue
                acked = time.perf_counter()
                self.requests += 1
                self.due.append(due)
                self.sent.append(sent)
                self.latencies.append(acked - due)
                self.service.append(acked - sent)
                self.watermark += report.actions_added
                self.groups_touched += report.groups_updated + report.groups_created
                self.acks.append((acked, self.watermark))
                self.committed.append(actions)
                self.stream.ack(key, actions)
                for _ in range(POLLS_PER_BATCH):
                    time.sleep(POLL_INTERVAL_S)
                    self._poll()
                if index % STATS_EVERY_BATCHES == 0:
                    stats = self.client.stats(CORPUS)
                    self.backlog_max = max(self.backlog_max, int(stats["subs_backlog"]))
                    self.requests += 1
            settle_by = time.perf_counter() + SETTLE_TIMEOUT_S
            while time.perf_counter() < settle_by and (not self.polls or self.polls[-1][1] < self.watermark):
                self._poll()
                time.sleep(POLL_INTERVAL_S)
        except ApiError as exc:
            self.failures.append(f"poll: {type(exc).__name__}: {exc}")


def _wait_subscriptions(client: HttpClient, watermark: int) -> bool:
    settle_by = time.perf_counter() + SETTLE_TIMEOUT_S
    while time.perf_counter() < settle_by:
        if min(int(row["last_watermark"]) for row in client.subscriptions(CORPUS)) >= watermark:
            return True
        time.sleep(POLL_INTERVAL_S)
    return False


def drive_htap(fleet, client: HttpClient, inputs: Inputs, seconds: float, outcome: Outcome) -> None:
    """Open-loop keyed batches plus polling on one thread, open-loop
    solves on the other, standing subscriptions evaluated on every fold."""
    initial = HTAP_SHAPE.n_actions
    if not _wait_subscriptions(client, initial):
        outcome.failures.append("subscriptions never evaluated the initial corpus")
    for spec in inputs.specs:
        client.solve(CORPUS, spec)
    cpu_start = _open_window(outcome, fleet, client)
    started = time.perf_counter()
    deadline = started + seconds
    writer = _Writer(client, inputs.stream, started, int(seconds * HTAP_BATCHES_PER_S), initial)
    solver = _SolveLoop(
        client, inputs.specs, inputs.orders[0], started, deadline, interval=1.0 / HTAP_SOLVES_PER_S
    )
    writer.start()
    solver.start()
    solver.join()
    ended = max(solver.last_done, deadline)
    writer.join()
    outcome.window_ns = (_mark(started), _mark(ended))
    _close_window(outcome, fleet, client, cpu_start, started, ended)
    _merge_solvers(outcome, [solver])
    outcome.timed("insert").extend(writer.latencies)
    outcome.timed("insert_service").extend(writer.service)
    outcome.timed("notify").extend(notify_delays(writer.acks, writer.polls))
    outcome.lateness = measure.lateness(writer.due, writer.sent)
    outcome.actions_acked = writer.watermark - initial
    outcome.groups_touched = writer.groups_touched
    outcome.backlog_max = writer.backlog_max
    outcome.requests += writer.requests
    outcome.attempted += writer.n_batches
    outcome.failures.extend(writer.failures)
    outcome.require_samples("solve", "insert", "notify")
    if measure.fell_behind(outcome.lateness, writer.interval) or measure.fell_behind(
        solver.lateness, solver.interval
    ):
        outcome.invalid.append("an open-loop generator fell behind its schedule")
    if len(outcome.latencies["notify"]) != len(writer.acks):
        outcome.failures.append(
            f"{len(writer.acks) - len(outcome.latencies['notify'])} inserts never reached every subscription"
        )
    _check_store_count(outcome, initial)
    served = _served_payloads(client, inputs.final_specs)
    for index, spec in enumerate(inputs.subscriptions):
        diffs = client.poll_subscription(CORPUS, f"sub-{index}")["diffs"]
        outcome.check(check_subscription(f"sub-{index}", diffs, served[index]))
    fleet.stop()
    _check_replay(outcome, HTAP_SHAPE, inputs.final_specs, served, writer.committed)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    make_inputs: Callable[[int], Inputs]
    drive: Callable[..., None]
    #: The timed operation the tracing overhead is measured on.
    headline: str


WORKLOADS: Dict[str, Workload] = {
    "mine": Workload("mine", MINE_SHAPE, mine_inputs, drive_mine, headline="solve"),
    "ingest": Workload("ingest", INGEST_SHAPE, ingest_inputs, drive_ingest, headline="insert"),
    "htap_standing": Workload("htap_standing", HTAP_SHAPE, htap_inputs, drive_htap, headline="solve"),
}
