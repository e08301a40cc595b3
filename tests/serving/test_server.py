"""Tests for the long-lived serving loop (TagDMServer / CorpusShard)."""

from __future__ import annotations

import threading

import pytest

from repro.api.diff import comparable_payload
from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM
from repro.core.persistence import read_snapshot
from repro.core.problem import table1_problem
from repro.dataset.synthetic import generate_movielens_style
from repro.index.lsh import CosineLshIndex
from repro.serving import SnapshotRotationPolicy, TagDMServer

ENUMERATION = GroupEnumerationConfig(min_support=5)
SEED = 17


def make_dataset():
    return generate_movielens_style(n_users=40, n_items=80, n_actions=600, seed=SEED)


def make_server(root, **policy_kwargs) -> TagDMServer:
    policy = SnapshotRotationPolicy(
        **{"every_inserts": 50, "keep_last": 2, **policy_kwargs}
    )
    return TagDMServer(
        root,
        policy=policy,
        enumeration=ENUMERATION,
        signature_backend="frequency",
        seed=3,
    )


def actions_for(dataset, label: str, count: int):
    """Deterministic insert payloads over existing users/items."""
    return [
        {
            "user_id": dataset.user_of((i * 7) % dataset.n_actions),
            "item_id": dataset.item_of((i * 11) % dataset.n_actions),
            "tags": (f"tag-{label}-{i}", "served"),
            "rating": float(i % 5),
        }
        for i in range(count)
    ]


class TestConcurrentServing:
    def test_interleaved_inserts_and_solves_match_cold_replay(self, tmp_path):
        """The acceptance criterion: a warm shard under interleaved inserts
        and solves from multiple client threads raises nothing, and its
        final solve output is bit-identical to a cold single-threaded
        session over the same final corpus."""
        dataset = make_dataset()
        initial_actions = dataset.n_actions
        server = make_server(tmp_path, every_inserts=25)
        shard = server.add_corpus("movies", dataset)
        problem = table1_problem(
            1, k=3, min_support=shard.session.default_support()
        )
        diversity = table1_problem(
            6, k=3, min_support=shard.session.default_support()
        )

        errors = []
        barrier = threading.Barrier(4)

        def inserter(label: str) -> None:
            try:
                barrier.wait()
                for action in actions_for(dataset, label, 40):
                    server.insert("movies", **action)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def solver() -> None:
            try:
                barrier.wait()
                for _ in range(10):
                    result = server.solve("movies", problem, algorithm="sm-lsh-fo")
                    assert result is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=inserter, args=("a",)),
            threading.Thread(target=inserter, args=("b",)),
            threading.Thread(target=solver),
            threading.Thread(target=solver),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        shard.flush()
        assert shard.session.dataset.n_actions == initial_actions + 80
        assert shard.session.consistency_errors() == []

        # Replay the committed insert order into a cold single-threaded
        # session over a regenerated initial corpus.
        cold = IncrementalTagDM(
            make_dataset(),
            enumeration=ENUMERATION,
            signature_backend="frequency",
            seed=3,
        ).prepare()
        served = shard.session.dataset
        for row in range(initial_actions, served.n_actions):
            cold.add_action(
                served.user_of(row),
                served.item_of(row),
                served.tags_of(row),
                served.rating_of(row),
            )

        for spec, algorithm in (
            (problem, "sm-lsh-fo"),
            (problem, "sm-lsh-fi"),
            (diversity, "dv-fdp-fo"),
        ):
            warm_result = server.solve("movies", spec, algorithm=algorithm)
            cold_result = cold.solve(spec, algorithm=algorithm)
            assert warm_result.objective_value == cold_result.objective_value
            assert warm_result.descriptions() == cold_result.descriptions()
            assert warm_result.feasible == cold_result.feasible

        stats = server.stats()["movies"]
        assert stats["inserts_served"] == 80
        assert stats["snapshot_rotations"] >= 1
        assert stats["last_rotation_error"] is None
        server.close()

    def test_store_mirror_tracks_under_concurrency(self, tmp_path):
        dataset = make_dataset()
        before = dataset.n_actions
        with make_server(tmp_path) as server:
            server.add_corpus("movies", dataset)

            def inserter(label: str) -> None:
                for action in actions_for(dataset, label, 20):
                    server.insert("movies", **action)

            threads = [
                threading.Thread(target=inserter, args=(label,))
                for label in ("x", "y")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            store = server._stores["movies"]
            assert store.counts()["actions"] == before + 40


class TestFailureSemantics:
    def test_bad_insert_fails_only_its_request(self, tmp_path):
        dataset = make_dataset()
        with make_server(tmp_path) as server:
            server.add_corpus("movies", dataset)
            with pytest.raises(KeyError, match="user_attributes"):
                server.insert("movies", "ghost-user", dataset.item_of(0), ["t"])
            # The shard keeps serving.
            report = server.insert(
                "movies", dataset.user_of(0), dataset.item_of(0), ["after-error"]
            )
            assert report.actions_added == 1
            problem = table1_problem(
                1, k=3, min_support=server.shard("movies").session.default_support()
            )
            assert server.solve("movies", problem, algorithm="sm-lsh-fo") is not None

    def test_failed_rotation_recorded_not_fatal(self, tmp_path, monkeypatch):
        dataset = make_dataset()
        server = make_server(tmp_path, every_inserts=5)
        server.add_corpus("movies", dataset)
        monkeypatch.setattr(
            "repro.core.persistence.pickle.dump",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        for action in actions_for(dataset, "r", 6):
            server.insert("movies", **action)
        server.shard("movies").flush()
        stats = server.stats()["movies"]
        assert stats["inserts_served"] == 6
        assert stats["last_rotation_error"] is not None
        assert "disk full" in stats["last_rotation_error"]
        monkeypatch.undo()
        # The next due rotation succeeds and clears the error.
        for action in actions_for(dataset, "s", 6):
            server.insert("movies", **action)
        server.shard("movies").flush()
        assert server.stats()["movies"]["last_rotation_error"] is None
        server.close()

    def test_insert_after_close_raises(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            shard.insert(dataset.user_of(0), dataset.item_of(0), ["late"])


class TestRegistry:
    def test_duplicate_and_unknown_corpora(self, tmp_path):
        dataset = make_dataset()
        with make_server(tmp_path) as server:
            server.add_corpus("movies", dataset)
            with pytest.raises(ValueError, match="already"):
                server.add_corpus("movies", dataset)
            with pytest.raises(KeyError, match="not being served"):
                server.shard("books")
            assert server.corpus_names == ["movies"]
            assert "movies" in server and "books" not in server

    def test_corpus_name_must_be_filesystem_safe(self, tmp_path):
        with make_server(tmp_path) as server:
            with pytest.raises(ValueError, match="filesystem-safe"):
                server.add_corpus("../evil", make_dataset())

    def test_shards_are_isolated(self, tmp_path):
        movies = make_dataset()
        books = generate_movielens_style(
            n_users=20, n_items=40, n_actions=300, seed=8
        )
        books.name = "books-corpus"
        with make_server(tmp_path) as server:
            server.add_corpus("movies", movies)
            server.add_corpus("books", books)
            server.insert(
                "movies", movies.user_of(0), movies.item_of(0), ["movies-only"]
            )
            server.shard("movies").flush()
            assert server.shard("movies").session.dataset.n_actions == 601
            assert server.shard("books").session.dataset.n_actions == 300
            assert (tmp_path / "movies" / "corpus.sqlite").exists()
            assert (tmp_path / "books" / "corpus.sqlite").exists()


class TestWarmRestart:
    def test_close_then_open_resumes_warm_with_identical_solves(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        for action in actions_for(dataset, "w", 15):
            server.insert("movies", **action)
        shard.flush()
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())
        before = server.solve("movies", problem, algorithm="sm-lsh-fo")
        groups_before = [str(g.description) for g in shard.session.groups]
        server.close()  # takes the final snapshot

        resumed = make_server(tmp_path)
        warm_shard = resumed.open_corpus("movies")
        assert warm_shard.session.dataset.n_actions == dataset.n_actions
        # Group order is preserved exactly, which is what makes the warm
        # solve bit-identical to the pre-restart one.
        assert [str(g.description) for g in warm_shard.session.groups] == groups_before
        after = resumed.solve("movies", problem, algorithm="sm-lsh-fo")
        assert after.objective_value == before.objective_value
        assert after.descriptions() == before.descriptions()
        resumed.close()

    def test_closed_shard_persists_view_lsh_bits_for_warm_reopen(self, tmp_path, monkeypatch):
        """Solves build LSH indexes on the shard's published view, which is
        the session's current view, so the final snapshot carries their
        sign bits and the reopened shard re-serves the solve without
        projecting anything."""
        dataset = make_dataset()
        server = make_server(tmp_path)
        shard = server.add_corpus("movies", dataset)
        for action in actions_for(dataset, "l", 15):
            server.insert("movies", **action)
        shard.flush()
        problem = table1_problem(2, k=3, min_support=shard.session.default_support())
        before = server.solve("movies", problem, algorithm="sm-lsh-fi")
        server.close()  # takes the final snapshot
        newest = sorted((tmp_path / "movies" / "snapshots").iterdir())[-1]
        assert len(read_snapshot(newest)["lsh"]) >= 1

        builds = []
        original_build = CosineLshIndex.build

        def counting_build(index, vectors):
            builds.append(index.n_bits)
            return original_build(index, vectors)

        monkeypatch.setattr(CosineLshIndex, "build", counting_build)
        resumed = make_server(tmp_path)
        resumed.open_corpus("movies")
        after = resumed.solve("movies", problem, algorithm="sm-lsh-fi")
        resumed.close()
        assert builds == []
        assert comparable_payload(after.to_dict()) == comparable_payload(before.to_dict())
        # Nothing new since the snapshot it loaded: that close writes none.
        assert sorted((tmp_path / "movies" / "snapshots").iterdir())[-1] == newest

        # A close with no insert since the last snapshot still persists an
        # index a solve built after it.
        again = make_server(tmp_path)
        again.open_corpus("movies")
        two_tables = again.solve("movies", problem, algorithm="sm-lsh-fi", n_tables=2)
        again.close()
        assert builds == [10]
        newest = sorted((tmp_path / "movies" / "snapshots").iterdir())[-1]
        assert sorted(entry["n_tables"] for entry in read_snapshot(newest)["lsh"]) == [1, 2]
        last = make_server(tmp_path)
        last.open_corpus("movies")
        replayed = last.solve("movies", problem, algorithm="sm-lsh-fi", n_tables=2)
        last.close()
        assert builds == [10]
        assert comparable_payload(replayed.to_dict()) == comparable_payload(two_tables.to_dict())

    def test_open_corpus_falls_back_to_cold_on_unusable_snapshots(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path)
        server.add_corpus("movies", dataset)
        server.close()
        for snapshot in (tmp_path / "movies" / "snapshots").iterdir():
            snapshot.write_bytes(b"corrupted beyond repair")

        resumed = make_server(tmp_path)
        shard = resumed.open_corpus("movies")  # cold prepare fallback
        problem = table1_problem(1, k=3, min_support=shard.session.default_support())
        assert resumed.solve("movies", problem, algorithm="sm-lsh-fo") is not None
        resumed.close()

    def test_open_missing_corpus_raises(self, tmp_path):
        with make_server(tmp_path) as server:
            with pytest.raises(FileNotFoundError, match="no store"):
                server.open_corpus("nowhere")

    def test_rotation_keeps_last_k_files(self, tmp_path):
        dataset = make_dataset()
        server = make_server(tmp_path, every_inserts=5, keep_last=2)
        shard = server.add_corpus("movies", dataset)
        for action in actions_for(dataset, "k", 30):
            server.insert("movies", **action)
        shard.flush()
        server.close()
        snapshots = sorted((tmp_path / "movies" / "snapshots").iterdir())
        assert len(snapshots) == 2
