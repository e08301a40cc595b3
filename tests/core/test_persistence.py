"""Tests for warm-start session snapshots."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api.diff import comparable_payload
from repro.core.enumeration import GroupEnumerationConfig
from repro.core.exceptions import NotFittedError
from repro.core.framework import TagDM
from repro.core.persistence import (
    SNAPSHOT_VERSION,
    dataset_fingerprint,
    load_session,
    read_snapshot,
    save_session,
)
from repro.core.problem import table1_problem
from repro.dataset.sqlite_store import SqliteTaggingStore
from repro.dataset.synthetic import generate_movielens_style
from repro.index.lsh import CosineLshIndex


@pytest.fixture(scope="module")
def corpus():
    return generate_movielens_style(n_users=40, n_items=80, n_actions=800, seed=23)


def make_session(dataset, backend: str = "frequency") -> TagDM:
    return TagDM(
        dataset,
        enumeration=GroupEnumerationConfig(min_support=5, max_groups=60),
        signature_backend=backend,
        signature_dimensions=25,
        seed=9,
    )


class TestSaveLoad:
    def test_unprepared_session_cannot_be_saved(self, corpus, tmp_path):
        with pytest.raises(NotFittedError):
            save_session(make_session(corpus), tmp_path / "s.snapshot")

    def test_snapshot_restores_prepared_state(self, corpus, tmp_path):
        session = make_session(corpus).prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        warm = load_session(path, corpus)
        assert warm.is_prepared
        assert warm.n_groups == session.n_groups
        assert warm.seed == session.seed
        assert warm.signature_backend == session.signature_backend
        assert warm.enumeration == session.enumeration
        assert [str(g.description) for g in warm.groups] == [
            str(g.description) for g in session.groups
        ]
        assert np.array_equal(
            warm.current_view().signatures, session.current_view().signatures
        )
        for cold_group, warm_group in zip(session.groups, warm.groups):
            assert cold_group.tuple_indices == warm_group.tuple_indices
            assert cold_group.tags == warm_group.tags
            assert cold_group.user_ids == warm_group.user_ids
            assert np.array_equal(cold_group.signature, warm_group.signature)

    def test_topic_model_restored_without_refit(self, corpus, tmp_path):
        session = make_session(corpus, backend="tfidf").prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        warm = load_session(path, corpus)
        assert warm.signature_builder.is_fitted
        assert warm.signature_backend == "tfidf"
        document = list(session.groups[0].tags)
        assert np.array_equal(
            session.signature_builder.topic_model.vectorize(document),
            warm.signature_builder.topic_model.vectorize(document),
        )

    def test_fingerprint_mismatch_rejected(self, corpus, tmp_path):
        session = make_session(corpus).prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        other = generate_movielens_style(n_users=40, n_items=80, n_actions=801, seed=23)
        with pytest.raises(ValueError, match="different dataset"):
            load_session(path, other)

    def test_fingerprint_fields(self, corpus):
        fingerprint = dataset_fingerprint(corpus)
        assert fingerprint["n_actions"] == corpus.n_actions
        assert fingerprint["user_schema"] == list(corpus.user_schema)
        assert isinstance(fingerprint["action_checksum"], int)

    def test_fingerprint_rejects_same_shape_different_corpus(self, corpus, tmp_path):
        """Regression: the count-only fingerprint false-accepted a
        *different* corpus with identical user/item/action counts."""
        session = make_session(corpus).prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        # Same generator, same shape, different seed => same counts with
        # overwhelming probability, different content.
        impostor = generate_movielens_style(
            n_users=40, n_items=80, n_actions=800, seed=99
        )
        impostor.name = corpus.name
        assert impostor.n_actions == corpus.n_actions
        assert impostor.n_users == corpus.n_users
        assert impostor.n_items == corpus.n_items
        with pytest.raises(ValueError, match="different dataset"):
            load_session(path, impostor)

    def test_fingerprint_checksum_bounded_and_stable(self, corpus):
        """The checksum must not degrade into a full-corpus scan, and must
        be deterministic across calls (and, via crc32, across processes)."""
        from repro.core.persistence import CHECKSUM_SAMPLE_SIZE, _action_checksum

        big = generate_movielens_style(n_users=40, n_items=80, n_actions=5000, seed=1)
        calls = {"count": 0}
        original = big.user_of

        def counting_user_of(index):
            calls["count"] += 1
            return original(index)

        big.user_of = counting_user_of
        checksum = _action_checksum(big)
        assert calls["count"] <= CHECKSUM_SAMPLE_SIZE + 1
        assert _action_checksum(big) == checksum

    def test_save_session_is_atomic(self, corpus, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous snapshot intact and no
        stray temp file behind."""
        session = make_session(corpus).prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        good_bytes = path.read_bytes()

        def exploding_dump(obj, handle, protocol=None):
            handle.write(b"torn")
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.core.persistence.pickle.dump", exploding_dump
        )
        with pytest.raises(OSError, match="disk full"):
            save_session(session, path)
        assert path.read_bytes() == good_bytes  # old snapshot untouched
        assert list(tmp_path.glob("*.tmp-*")) == []  # staging file cleaned up
        monkeypatch.undo()
        warm = load_session(path, corpus)
        assert warm.n_groups == session.n_groups

    def test_snapshot_version_checked(self, corpus, tmp_path):
        import pickle

        session = make_session(corpus).prepare()
        path = save_session(session, tmp_path / "s.snapshot")
        snapshot = pickle.loads(path.read_bytes())
        assert snapshot["snapshot_version"] == SNAPSHOT_VERSION
        snapshot["snapshot_version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(pickle.dumps(snapshot))
        with pytest.raises(ValueError, match="snapshot"):
            load_session(path, corpus)


class TestSolveParity:
    def test_warm_solve_matches_cold_solve(self, corpus, tmp_path):
        session = make_session(corpus).prepare()
        session.current_view().signature_lsh(n_bits=10)  # include LSH bits in the snapshot
        path = save_session(session, tmp_path / "s.snapshot")
        warm = load_session(path, corpus)
        for problem_id, algorithm in ((1, "sm-lsh-fo"), (1, "sm-lsh-fi"), (6, "dv-fdp-fo"), (6, "dv-fdp-fi")):
            problem = table1_problem(
                problem_id, k=3, min_support=session.default_support()
            )
            cold = session.solve(problem, algorithm=algorithm)
            hot = warm.solve(problem, algorithm=algorithm)
            assert cold.objective_value == hot.objective_value, algorithm
            assert cold.descriptions() == hot.descriptions(), algorithm
            assert cold.feasible == hot.feasible, algorithm

    def test_via_sqlite_reload(self, corpus, tmp_path):
        """The full production loop: store -> snapshot -> restart -> solve."""
        session = make_session(corpus).prepare()
        snapshot = save_session(session, tmp_path / "s.snapshot")
        with SqliteTaggingStore.from_dataset(corpus, tmp_path / "c.sqlite") as store:
            reloaded = store.to_dataset()
        warm = load_session(snapshot, reloaded)
        problem = table1_problem(6, k=3, min_support=session.default_support())
        assert (
            warm.solve(problem, algorithm="dv-fdp-fo").objective_value
            == session.solve(problem, algorithm="dv-fdp-fo").objective_value
        )

    def test_tagdm_convenience_wrappers(self, corpus, tmp_path):
        session = make_session(corpus).prepare().save(tmp_path / "s.snapshot")
        warm = TagDM.load(tmp_path / "s.snapshot", corpus)
        assert warm.n_groups == session.n_groups


class TestLshCachePersistence:
    def test_bit_cache_round_trip(self, corpus, tmp_path):
        session = make_session(corpus).prepare()
        cold_index = session.current_view().signature_lsh(n_bits=10, n_tables=2)
        path = save_session(session, tmp_path / "s.snapshot")
        warm = load_session(path, corpus)
        warm_index = warm.current_view().signature_lsh(n_bits=10, n_tables=2)
        for cold_bits, warm_bits in zip(cold_index.bit_cache, warm_index.bit_cache):
            assert np.array_equal(cold_bits, warm_bits)
        for table in range(2):
            cold_buckets = {b.key: b.members for b in cold_index.buckets(table)}
            warm_buckets = {b.key: b.members for b in warm_index.buckets(table)}
            assert cold_buckets == warm_buckets

    def test_narrower_widths_derive_from_restored_cache(self, corpus, tmp_path):
        session = make_session(corpus).prepare()
        session.current_view().signature_lsh(n_bits=12)
        path = save_session(session, tmp_path / "s.snapshot")
        warm = load_session(path, corpus)
        narrow = warm.current_view().signature_lsh(n_bits=6)
        assert narrow.n_bits == 6
        direct = session.current_view().signature_lsh(n_bits=6)
        assert {b.key: b.members for b in narrow.buckets()} == {
            b.key: b.members for b in direct.buckets()
        }

    def test_view_lsh_cache_reuses_widest_index(self, corpus):
        view = make_session(corpus).prepare().current_view()
        wide = view.signature_lsh(n_bits=12)
        again = view.signature_lsh(n_bits=12)
        assert again is wide
        narrow = view.signature_lsh(n_bits=6)
        assert narrow.n_bits == 6
        assert view.lsh_indexes()[1] is wide  # widest stays cached


#: A snapshot written by the SNAPSHOT_VERSION 2 writer from the time the
#: session itself owned the LSH cache: ``make_v2_corpus()`` prepared with
#: ``GroupEnumerationConfig(min_support=5, max_groups=60)``,
#: ``signature_dimensions=8``, ``seed=3``, and LSH indexes warmed at
#: (10 bits, 1 table) and (8 bits, 2 tables) before ``save_session``.
V2_FIXTURE = Path(__file__).parent / "fixtures" / "session-v2.snapshot"


def make_v2_corpus():
    return generate_movielens_style(n_users=30, n_items=60, n_actions=300, seed=5)


class TestOldSnapshotCompatibility:
    def test_committed_v2_snapshot_carries_lsh_bits(self):
        snapshot = read_snapshot(V2_FIXTURE)
        assert snapshot["snapshot_version"] == 2
        assert sorted(entry["n_tables"] for entry in snapshot["lsh"]) == [1, 2]

    def test_v2_snapshot_solves_match_cold_prepare(self, monkeypatch):
        dataset = make_v2_corpus()
        cold = TagDM(
            dataset,
            enumeration=GroupEnumerationConfig(min_support=5, max_groups=60),
            signature_dimensions=8,
            seed=3,
        ).prepare()
        warm = load_session(V2_FIXTURE, dataset)
        assert np.array_equal(
            warm.current_view().signatures, cold.current_view().signatures
        )
        assert sorted(warm.current_view().lsh_indexes()) == [1, 2]

        builds = []
        original_build = CosineLshIndex.build

        def counting_build(index, vectors):
            builds.append(index.n_bits)
            return original_build(index, vectors)

        monkeypatch.setattr(CosineLshIndex, "build", counting_build)
        problem = table1_problem(2, k=3, min_support=cold.default_support())
        warm_lsh = warm.solve(problem, algorithm="sm-lsh-fi")
        assert builds == []  # served from the restored sign bits
        cold_lsh = cold.solve(problem, algorithm="sm-lsh-fi")
        assert comparable_payload(warm_lsh.to_dict()) == comparable_payload(
            cold_lsh.to_dict()
        )
        for problem_id, algorithm in ((1, "sm-lsh-fo"), (6, "dv-fdp-fo"), (6, "dv-fdp-fi")):
            problem = table1_problem(problem_id, k=3, min_support=cold.default_support())
            assert comparable_payload(
                warm.solve(problem, algorithm=algorithm).to_dict()
            ) == comparable_payload(cold.solve(problem, algorithm=algorithm).to_dict()), algorithm
