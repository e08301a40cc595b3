"""Tests for the SQLite-backed tagging dataset store."""

from __future__ import annotations

import sqlite3

import pytest

from repro.dataset.loaders import dataset_to_records, load_sqlite, save_sqlite
from repro.dataset.sqlite_store import SqliteTaggingStore
from repro.dataset.store import TaggingDataset
from repro.dataset.synthetic import generate_movielens_style


@pytest.fixture()
def corpus() -> TaggingDataset:
    return generate_movielens_style(n_users=30, n_items=60, n_actions=400, seed=11)


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "corpus.sqlite"


class TestConnectionConfiguration:
    def test_pragmas_applied(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            assert store.pragma("journal_mode") == "wal"
            assert store.pragma("foreign_keys") == 1
            assert store.pragma("synchronous") == 1  # NORMAL
            assert store.pragma("busy_timeout") == 30000

    def test_foreign_keys_enforced(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            with pytest.raises(sqlite3.IntegrityError):
                store.connection.execute(
                    "INSERT INTO actions (user_id, item_id) VALUES ('ghost', 'ghost')"
                )

    def test_close_is_idempotent(self, corpus, store_path):
        store = SqliteTaggingStore.from_dataset(corpus, store_path)
        store.close()
        store.close()
        with pytest.raises(RuntimeError):
            _ = store.connection

    def test_schema_mismatch_rejected(self, corpus, store_path):
        SqliteTaggingStore.from_dataset(corpus, store_path).close()
        with pytest.raises(ValueError, match="different user/item schema"):
            SqliteTaggingStore.create(store_path, ("other",), ("schema",))


class TestRoundTrip:
    def test_lossless_round_trip(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            restored = store.to_dataset()
        assert restored.name == corpus.name
        assert restored.user_schema == corpus.user_schema
        assert restored.item_schema == corpus.item_schema
        assert dataset_to_records(restored) == dataset_to_records(corpus)

    def test_round_trip_preserves_unreferenced_registrations(self, store_path):
        dataset = TaggingDataset(("gender",), ("genre",), name="sparse")
        dataset.register_user("u1", {"gender": "male"})
        dataset.register_user("lurker", {"gender": "female"})  # never acts
        dataset.register_item("i1", {"genre": "drama"})
        dataset.add_action("u1", "i1", ["slow", "moving"], rating=3.5)
        with SqliteTaggingStore.from_dataset(dataset, store_path) as store:
            restored = store.to_dataset()
        assert restored.has_user("lurker")
        assert restored.user_attributes("lurker") == {"gender": "female"}
        assert restored.rating_of(0) == 3.5
        assert restored.tags_of(0) == ("slow", "moving")

    def test_loader_wrappers(self, corpus, store_path):
        save_sqlite(corpus, store_path)
        restored = load_sqlite(store_path)
        assert dataset_to_records(restored) == dataset_to_records(corpus)

    def test_counts(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            counts = store.counts()
        assert counts["actions"] == corpus.n_actions
        assert counts["users"] == corpus.n_users
        assert counts["items"] == corpus.n_items
        assert counts["tags"] == len(corpus.tag_vocabulary)


class TestIngestionAndStreaming:
    def test_streaming_iteration_order_and_content(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            streamed = list(store.iter_actions())
        assert len(streamed) == corpus.n_actions
        for row, action in enumerate(streamed):
            assert action["user_id"] == corpus.user_of(row)
            assert action["item_id"] == corpus.item_of(row)
            assert action["tags"] == corpus.tags_of(row)
            assert action["rating"] == corpus.rating_of(row)

    def test_incremental_appends_after_batch_ingest(self, corpus, store_path):
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            store.register_user("late-user", {attr: "unknown" for attr in corpus.user_schema})
            store.register_item("late-item", {attr: "unknown" for attr in corpus.item_schema})
            store.add_action("late-user", "late-item", ["fresh"], rating=1.0)
            restored = store.to_dataset()
        assert restored.n_actions == corpus.n_actions + 1
        assert restored.tags_of(corpus.n_actions) == ("fresh",)

    def test_tag_order_and_dedup_match_dataset(self, store_path):
        dataset = TaggingDataset(("gender",), ("genre",), name="dups")
        dataset.register_user("u", {"gender": "male"})
        dataset.register_item("i", {"genre": "noir"})
        dataset.add_action("u", "i", ["b", "a", "b", "c", "a"])
        with SqliteTaggingStore.from_dataset(dataset, store_path) as store:
            restored = store.to_dataset()
        assert restored.tags_of(0) == dataset.tags_of(0) == ("b", "a", "c")

    def test_reopen_reads_persisted_state(self, corpus, store_path):
        SqliteTaggingStore.from_dataset(corpus, store_path).close()
        with SqliteTaggingStore(store_path) as store:
            assert store.counts()["actions"] == corpus.n_actions
            assert store.user_schema == corpus.user_schema

    def test_double_ingest_refused(self, corpus, store_path):
        """Re-running an ingest script against the same file must not
        silently duplicate every action."""
        SqliteTaggingStore.from_dataset(corpus, store_path).close()
        with pytest.raises(ValueError, match="already holds"):
            SqliteTaggingStore.from_dataset(corpus, store_path)
        with SqliteTaggingStore(store_path) as store:
            assert store.counts()["actions"] == corpus.n_actions


class TestCrossThreadAccess:
    def test_insert_from_second_thread(self, corpus, store_path):
        """Regression: the connection used to be pinned to the opening
        thread, so any worker-thread insert raised ProgrammingError."""
        import threading

        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            errors = []

            def worker():
                try:
                    store.register_user(
                        "thread-user", {attr: "unknown" for attr in corpus.user_schema}
                    )
                    store.register_item(
                        "thread-item", {attr: "unknown" for attr in corpus.item_schema}
                    )
                    store.add_action("thread-user", "thread-item", ["cross-thread"])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert errors == []
            assert store.has_user("thread-user")
            assert store.counts()["actions"] == corpus.n_actions + 1

    def test_concurrent_append_actions_all_land(self, corpus, store_path):
        """Two writer threads appending through the one-commit serving path
        must interleave cleanly (no lost rows, no integrity errors)."""
        import threading

        per_thread = 25
        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            errors = []

            def worker(label: str) -> None:
                try:
                    for i in range(per_thread):
                        store.append_action(
                            f"user-{label}",
                            f"item-{label}",
                            [f"tag-{label}-{i}"],
                            user_attributes={
                                attr: "unknown" for attr in corpus.user_schema
                            },
                            item_attributes={
                                attr: "unknown" for attr in corpus.item_schema
                            },
                        )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(label,)) for label in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert store.counts()["actions"] == corpus.n_actions + 2 * per_thread


class TestSessionParity:
    def test_sqlite_loaded_dataset_solves_identically(self, corpus, store_path):
        """Groups, signatures and solve results match the in-memory original."""
        import numpy as np

        from repro.core.enumeration import GroupEnumerationConfig
        from repro.core.framework import TagDM
        from repro.core.problem import table1_problem

        with SqliteTaggingStore.from_dataset(corpus, store_path) as store:
            restored = store.to_dataset()

        def prepared(dataset):
            return TagDM(
                dataset,
                enumeration=GroupEnumerationConfig(min_support=5, max_groups=50),
                signature_backend="frequency",
                seed=3,
            ).prepare()

        original, reloaded = prepared(corpus), prepared(restored)
        assert [str(g.description) for g in original.groups] == [
            str(g.description) for g in reloaded.groups
        ]
        assert np.array_equal(
            original.current_view().signatures, reloaded.current_view().signatures
        )
        problem = table1_problem(6, k=3, min_support=original.default_support())
        for algorithm in ("sm-lsh-fo", "dv-fdp-fo", "dv-fdp-fi"):
            first = original.solve(problem, algorithm=algorithm)
            second = reloaded.solve(problem, algorithm=algorithm)
            assert first.objective_value == second.objective_value
            assert first.descriptions() == second.descriptions()
