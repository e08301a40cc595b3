"""A long-lived TagDM serving process over warm sessions.

:class:`TagDMServer` is the ROADMAP's "long-lived server loop": a
process-local registry of :class:`~repro.serving.shards.CorpusShard`
instances keyed by corpus name.  Each shard owns one warm
:class:`~repro.core.incremental.IncrementalTagDM` session backed by its
own :class:`~repro.dataset.sqlite_store.SqliteTaggingStore` and its own
snapshot directory, so corpora are fully isolated: separate database
files, separate snapshot rotation, separate writer threads.

Layout under the server root (one subdirectory per corpus)::

    <root>/
      <corpus-name>/
        corpus.sqlite               -- the durable dataset store
        snapshots/
          session-00000042.snapshot -- rotated warm-start snapshots

Lifecycle: :meth:`add_corpus` ingests a dataset and cold-prepares its
session; :meth:`open_corpus` restarts an existing shard, warm-starting
from the newest rotation snapshot whose fingerprint matches the store
(falling back to a cold prepare when none does).  Inserts and solves
route to the named shard; :meth:`close` drains every shard's queue,
takes final snapshots and closes the stores.

Failure semantics are documented in ``SERVING.md``: an insert that
raises (unknown user without attributes, store failure) fails only its
own request future; a failed snapshot rotation is recorded in the shard
stats and retried at the next due point; the server survives both.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM, IncrementalUpdateReport
from repro.core.persistence import read_snapshot, session_from_snapshot
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.core.witness import locked_by, named_lock
from repro.dataset.sqlite_store import SqliteTaggingStore
from repro.dataset.store import TaggingDataset
from repro.serving.policy import MergePolicy, SnapshotRotationPolicy, SnapshotRotator
from repro.serving.reliability import AdmissionPolicy, FaultPlan
from repro.serving.shards import CorpusShard
from repro.serving.subscriptions import SubscriptionEvaluator

__all__ = ["TagDMServer"]

_STORE_FILENAME = "corpus.sqlite"
_SNAPSHOT_DIRNAME = "snapshots"


class TagDMServer:
    """Serve inserts and solves over a registry of warm corpus shards.

    Thread-safety: all methods may be called from any thread.  Registry
    mutations (:meth:`add_corpus` / :meth:`open_corpus` / :meth:`close`)
    serialise behind one lock and block for their full ingest /
    warm-start / drain; request routing (:meth:`insert`,
    :meth:`insert_batch`, :meth:`solve`, :meth:`stats`) is lock-free at
    the registry and inherits the per-shard semantics -- solves run
    concurrently against the shard's pinned main view without taking
    any lock, inserts block until the shard's writer thread has applied
    (and durably mirrored) the batch and, under the default merge
    policy, folded it into a freshly published view.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per corpus (created on
        demand).
    policy:
        Snapshot-rotation policy applied to every shard (each shard gets
        its own rotator over its own snapshot directory).
    enumeration, signature_backend, signature_dimensions, seed:
        Session configuration used when a shard cold-prepares; a
        warm-started shard takes its configuration from the snapshot.
    admission:
        Optional :class:`~repro.serving.reliability.AdmissionPolicy`
        applied to every shard (queue-depth / in-flight-solve load
        shedding with typed 429s).
    merge_policy:
        :class:`~repro.serving.policy.MergePolicy` applied to every
        shard, governing how far a published main view may trail the
        insert delta.  The default folds after every writer batch
        before the batch acknowledges (read-your-writes).
    fault_plan:
        Optional :class:`~repro.serving.reliability.FaultPlan` threaded
        into every shard and rotator (chaos-testing hooks; inert in
        production).
    """

    def __init__(
        self,
        root: Union[str, Path],
        policy: Optional[SnapshotRotationPolicy] = None,
        enumeration: Optional[GroupEnumerationConfig] = None,
        signature_backend: str = "frequency",
        signature_dimensions: int = 25,
        seed: int = 0,
        admission: Optional[AdmissionPolicy] = None,
        merge_policy: Optional[MergePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.policy = policy or SnapshotRotationPolicy()
        self.enumeration = enumeration
        self.signature_backend = signature_backend
        self.signature_dimensions = signature_dimensions
        self.seed = seed
        self.admission = admission
        self.merge_policy = merge_policy
        self.fault_plan = fault_plan
        self._shards: Dict[str, CorpusShard] = {}
        self._stores: Dict[str, SqliteTaggingStore] = {}
        self._evaluators: Dict[str, SubscriptionEvaluator] = {}
        self._registry_lock = named_lock("server.registry")
        self._closed = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def _corpus_dir(self, name: str) -> Path:
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name):
            raise ValueError(
                f"corpus name {name!r} must be filesystem-safe "
                "(letters, digits, dot, underscore, dash)"
            )
        return self.root / name

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("server is closed")

    @locked_by("server.registry")
    def _register(
        self,
        name: str,
        shard: CorpusShard,
        store: SqliteTaggingStore,
        evaluator: SubscriptionEvaluator,
    ) -> None:
        self._shards[name] = shard
        self._stores[name] = store
        self._evaluators[name] = evaluator
        # Bootstrap replay: re-notify the freshly published view so any
        # subscription whose ledger trails the store (a crash between
        # evaluation and its diff commit) is re-evaluated now, not at
        # the next fold.  Already-covered watermarks are suppressed by
        # the ledger, so this is free when nothing was lost.
        evaluator.notify_publish(shard.current_view())

    def _rotator_for(self, name: str) -> SnapshotRotator:
        return SnapshotRotator(
            self._corpus_dir(name) / _SNAPSHOT_DIRNAME,
            policy=self.policy,
            fault_plan=self.fault_plan,
        )

    def add_corpus(self, name: str, dataset: TaggingDataset) -> CorpusShard:
        """Ingest ``dataset`` into a new shard and cold-prepare its session.

        The corpus directory must not already hold a store (reopen those
        with :meth:`open_corpus` instead -- silently re-ingesting would
        duplicate every action).
        """
        with self._registry_lock:
            self._require_open()
            if name in self._shards:
                raise ValueError(f"corpus {name!r} is already being served")
            corpus_dir = self._corpus_dir(name)
            store_path = corpus_dir / _STORE_FILENAME
            if store_path.exists():
                raise ValueError(
                    f"corpus {name!r} already has a store at {store_path}; "
                    "use open_corpus() to resume serving it"
                )
            corpus_dir.mkdir(parents=True, exist_ok=True)
            store = SqliteTaggingStore.from_dataset(dataset, store_path)
            try:
                session = IncrementalTagDM(
                    dataset,
                    enumeration=self.enumeration,
                    signature_backend=self.signature_backend,
                    signature_dimensions=self.signature_dimensions,
                    seed=self.seed,
                    store=store,
                ).prepare()
                rotator = self._rotator_for(name)
                rotator.rotate(session.session)  # a restart can warm-start at once
                evaluator = SubscriptionEvaluator(
                    name, store, fault_plan=self.fault_plan
                )
                shard = CorpusShard(
                    name,
                    session,
                    rotator=rotator,
                    admission=self.admission,
                    merge_policy=self.merge_policy,
                    fault_plan=self.fault_plan,
                    evaluator=evaluator,
                )
            except BaseException:
                store.close()
                raise
            self._register(name, shard, store, evaluator)
            return shard

    def open_corpus(self, name: str) -> CorpusShard:
        """Resume serving an existing corpus directory.

        Reloads the dataset from the shard's SQLite store and warm-starts
        the session from the newest rotation snapshot.  A snapshot whose
        fingerprint matches the store loads directly; a snapshot that
        *lags* the store (the process died between store writes and the
        next rotation) is loaded against the matching dataset prefix and
        the store's action tail is replayed into the warm session, so
        only the lagged inserts pay incremental maintenance instead of
        the whole corpus paying a cold prepare.  Snapshots that fail both
        paths (version bumps, fingerprint drift, torn files from
        pre-atomic writers) are skipped newest-first, and a cold prepare
        is the final fallback.
        """
        with self._registry_lock:
            self._require_open()
            if name in self._shards:
                raise ValueError(f"corpus {name!r} is already being served")
            store_path = self._corpus_dir(name) / _STORE_FILENAME
            if not store_path.exists():
                raise FileNotFoundError(
                    f"corpus {name!r} has no store at {store_path}; "
                    "create it with add_corpus()"
                )
            store = SqliteTaggingStore(store_path)
            try:
                dataset = store.to_dataset()
                rotator = self._rotator_for(name)
                session, start_mode, replayed = self._warm_or_cold_session(
                    dataset, store, rotator
                )
                evaluator = SubscriptionEvaluator(
                    name, store, fault_plan=self.fault_plan
                )
                shard = CorpusShard(
                    name,
                    session,
                    rotator=rotator,
                    start_mode=start_mode,
                    replayed_actions=replayed,
                    admission=self.admission,
                    merge_policy=self.merge_policy,
                    fault_plan=self.fault_plan,
                    evaluator=evaluator,
                )
            except BaseException:
                store.close()
                raise
            self._register(name, shard, store, evaluator)
            return shard

    def _warm_or_cold_session(
        self,
        dataset: TaggingDataset,
        store: SqliteTaggingStore,
        rotator: SnapshotRotator,
    ):
        """Warm-start (direct or tail-replay) or cold-prepare a session.

        Returns ``(session, start_mode, replayed_actions)``.
        """
        for snapshot in reversed(rotator.snapshot_paths()):
            restored = self._restore_snapshot(snapshot, dataset, store)
            if restored is not None:
                session, start_mode, _replayed = restored
                if start_mode == "warm":
                    rotator.note_restored(session.session.current_view())
                return restored
        session = IncrementalTagDM(
            dataset,
            enumeration=self.enumeration,
            signature_backend=self.signature_backend,
            signature_dimensions=self.signature_dimensions,
            seed=self.seed,
            store=store,
        ).prepare()
        return session, "cold", 0

    def _restore_snapshot(
        self,
        snapshot: Path,
        dataset: TaggingDataset,
        store: SqliteTaggingStore,
    ):
        """Try to warm-start from one snapshot, or ``None`` when unusable.

        When the snapshot's fingerprint says it was taken ``lag`` actions
        before the store's current tail, the snapshot is loaded against
        the dataset *prefix* it was prepared over (same first-sight
        registration order, so the first ``n_users``/``n_items``
        registrations reconstruct the historical registries) and the tail
        is replayed through the incremental session -- without the store
        attached, because the store already holds those actions and
        mirroring the replay would duplicate them.  Any failure (order
        drift, fingerprint mismatch, version bump, torn file) makes this
        snapshot unusable rather than fatal.
        """
        try:
            payload = read_snapshot(snapshot)  # one deserialisation per snapshot
            fingerprint = payload["dataset_fingerprint"]
            lag = dataset.n_actions - int(fingerprint["n_actions"])
            if lag < 0:
                return None  # snapshot is ahead of the store: unusable
            if lag == 0:
                warm = session_from_snapshot(payload, dataset, source=str(snapshot))
                session = IncrementalTagDM.from_session(warm, store=store).prepare()
                return session, "warm", 0
            prefix = dataset.prefix(
                int(fingerprint["n_actions"]),
                n_users=int(fingerprint["n_users"]),
                n_items=int(fingerprint["n_items"]),
            )
            warm = session_from_snapshot(payload, prefix, source=str(snapshot))
            session = IncrementalTagDM.from_session(warm, store=None).prepare()
            self._replay_tail(session, dataset, store, prefix.n_actions)
            session.store = store
            return session, "warm-replay", lag
        except Exception:
            return None

    @staticmethod
    def _replay_tail(
        session: IncrementalTagDM,
        dataset: TaggingDataset,
        store: SqliteTaggingStore,
        start_row: int,
    ) -> None:
        """Replay the store's action tail into the warm session.

        The tail rows come straight from the store's SQL pushdown
        (:meth:`~repro.dataset.sqlite_store.SqliteTaggingStore.tail_actions`,
        tag grouping inside SQLite) instead of re-walking the
        materialised dataset in Python.  Attributes ride along on a
        user/item's first appearance in the tail (the session's prefix
        dataset has never seen them); they are read from the full
        dataset's registries, which the store already persisted.
        """
        # analyze: writer-context -- startup-only replay; the shard (and
        # its writer thread) does not exist yet, so this thread is the
        # session's only mutator.
        actions = []
        for row in store.tail_actions(start_row):
            user_id = str(row["user_id"])
            item_id = str(row["item_id"])
            actions.append(
                {
                    "user_id": user_id,
                    "item_id": item_id,
                    "tags": row["tags"],
                    "rating": row["rating"],
                    "user_attributes": dataset.user_attributes(user_id),
                    "item_attributes": dataset.item_attributes(item_id),
                }
            )
        if actions:
            session.add_actions(actions)

    def shard(self, name: str) -> CorpusShard:
        """The live shard serving ``name`` (raises KeyError when absent)."""
        try:
            return self._shards[name]
        except KeyError:
            raise KeyError(
                f"corpus {name!r} is not being served; "
                f"known: {sorted(self._shards) or 'none'}"
            ) from None

    @property
    def corpus_names(self) -> List[str]:
        """Names of the corpora currently being served."""
        return sorted(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def insert(
        self,
        corpus: str,
        user_id: str,
        item_id: str,
        tags: Iterable[str],
        rating: Optional[float] = None,
        user_attributes: Optional[Mapping[str, str]] = None,
        item_attributes: Optional[Mapping[str, str]] = None,
    ) -> IncrementalUpdateReport:
        """Insert one action into the named corpus (waits until applied)."""
        return self.shard(corpus).insert(
            user_id,
            item_id,
            tags,
            rating=rating,
            user_attributes=user_attributes,
            item_attributes=item_attributes,
        )

    def insert_batch(
        self,
        corpus: str,
        actions: Iterable[Mapping[str, object]],
        request_id: Optional[str] = None,
    ) -> IncrementalUpdateReport:
        """Insert a batch into the named corpus (waits until applied).

        ``request_id`` is the batch's idempotency key; a key the corpus
        store has already recorded returns the original report
        (``deduplicated=True``) without re-applying the batch.
        """
        return self.shard(corpus).insert_batch(actions, request_id=request_id)

    def solve(
        self, corpus: str, problem: TagDMProblem, algorithm="auto", **options
    ) -> MiningResult:
        """Solve ``problem`` over the named corpus's warm session."""
        return self.shard(corpus).solve(problem, algorithm=algorithm, **options)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard serving counters, keyed by corpus name."""
        return {name: shard.stats() for name, shard in sorted(self._shards.items())}

    def close(self) -> None:
        """Drain every shard, take final snapshots, close every store.

        Idempotent; the server cannot be reused afterwards (start a new
        one over the same root -- shards warm-start from the final
        snapshots).
        """
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            for shard in self._shards.values():
                shard.close(final_snapshot=True)
            # Evaluators stop after their shard (no more folds can
            # notify them) and before the stores they write to close.
            for evaluator in self._evaluators.values():
                evaluator.close()
            for store in self._stores.values():
                store.close()
            self._shards.clear()
            self._stores.clear()
            self._evaluators.clear()

    def __enter__(self) -> "TagDMServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
