"""Durable datasets and warm-start sessions: the serving-process lifecycle.

Walks the full persistence loop a production deployment runs:

1. ingest a tagging corpus into a durable SQLite store (WAL journaling,
   enforced foreign keys);
2. cold-prepare a TagDM session over it and snapshot the prepared state
   (groups, signatures, fitted topic model, cached LSH sign bits);
3. simulate a process restart: reload the dataset from SQLite and
   warm-start the session from the snapshot in milliseconds;
4. prove the warm session solves identically to the cold one;
5. keep serving inserts through an IncrementalTagDM that mirrors every
   action into the store, then snapshot again.

Run with:  python examples/persistent_sessions.py
"""

import tempfile
import time
from pathlib import Path

from repro import TagDM, generate_movielens_style, table1_problem
from repro.core.incremental import IncrementalTagDM
from repro.core.persistence import load_session, save_session
from repro.dataset.sqlite_store import SqliteTaggingStore


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="tagdm-persist-"))
    db_path = workdir / "corpus.sqlite"
    snapshot_path = workdir / "session.snapshot"

    # 1. Ingest the corpus into SQLite.
    dataset = generate_movielens_style(n_users=150, n_items=300, n_actions=4000, seed=7)
    store = SqliteTaggingStore.from_dataset(dataset, db_path)
    print(f"ingested into {db_path.name}: {store.counts()}")
    print(f"  journal_mode={store.pragma('journal_mode')} foreign_keys={store.pragma('foreign_keys')}")

    # 2. Cold prepare + snapshot.
    started = time.perf_counter()
    session = TagDM(dataset, signature_backend="frequency").prepare()
    cold_seconds = time.perf_counter() - started
    session.current_view().signature_lsh(n_bits=10)  # warm the LSH cache into the snapshot
    save_session(session, snapshot_path)
    problem = table1_problem(1, k=3, min_support=session.default_support())
    cold_result = session.solve(problem, algorithm="sm-lsh-fo")
    print(f"\ncold prepare: {session.n_groups} groups in {cold_seconds * 1e3:.1f} ms")

    # 3. "Restart": a fresh process reloads the store and the snapshot.
    reloaded = store.to_dataset()
    started = time.perf_counter()
    warm_session = load_session(snapshot_path, reloaded)
    warm_seconds = time.perf_counter() - started
    print(
        f"warm load: {warm_session.n_groups} groups in {warm_seconds * 1e3:.1f} ms "
        f"({cold_seconds / warm_seconds:.0f}x faster than cold prepare)"
    )

    # 4. Identical solve results.
    warm_result = warm_session.solve(problem, algorithm="sm-lsh-fo")
    assert warm_result.objective_value == cold_result.objective_value
    assert warm_result.descriptions() == cold_result.descriptions()
    print("warm solve matches cold solve bit-for-bit:")
    print(warm_result.summary())

    # 5. Keep serving inserts; the store tracks every action.
    incremental = IncrementalTagDM(reloaded, store=store)
    incremental.prepare()
    report = incremental.add_action(
        reloaded.user_of(0), reloaded.item_of(0), ["persistent", "warm-start"]
    )
    print(f"\ninsert: {report.summary()}")
    print(f"store now holds {store.counts()['actions']} actions")
    incremental.snapshot(snapshot_path)
    print(f"re-snapshotted to {snapshot_path.name}; next restart warm-starts from here")
    store.close()


if __name__ == "__main__":
    main()
