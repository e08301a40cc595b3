"""Tests for the TagDM session (framework orchestration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.enumeration import GroupEnumerationConfig
from repro.core.exceptions import NotFittedError
from repro.core.framework import TagDM
from repro.core.problem import table1_problem
from repro.dataset.store import TaggingDataset


class TestPreparation:
    def test_properties_require_prepare(self, movielens_dataset):
        session = TagDM(movielens_dataset)
        assert not session.is_prepared
        with pytest.raises(NotFittedError):
            _ = session.groups
        with pytest.raises(NotFittedError):
            session.current_view()
        with pytest.raises(NotFittedError):
            session.solve(table1_problem(1))

    def test_prepare_builds_groups_and_signatures(self, prepared_session):
        assert prepared_session.is_prepared
        assert prepared_session.n_groups == len(prepared_session.groups)
        view = prepared_session.current_view()
        assert view.signatures.shape == (prepared_session.n_groups, 25)
        assert all(group.has_signature() for group in prepared_session.groups)

    def test_prepare_fails_when_no_groups_survive(self):
        dataset = TaggingDataset(user_schema=("gender",), item_schema=("kind",))
        dataset.register_user("u", {"gender": "male"})
        dataset.register_item("i", {"kind": "x"})
        dataset.add_action("u", "i", ["t"])
        session = TagDM(dataset, enumeration=GroupEnumerationConfig(min_support=10))
        with pytest.raises(ValueError):
            session.prepare()

    def test_default_support_is_one_percent(self, prepared_session, movielens_dataset):
        assert prepared_session.default_support() == max(
            1, round(0.01 * movielens_dataset.n_actions)
        )
        assert prepared_session.default_support(0.1) == max(
            1, round(0.1 * movielens_dataset.n_actions)
        )

    def test_matrix_cache_is_shared_and_reset_on_prepare(self, movielens_dataset):
        session = TagDM(
            movielens_dataset,
            enumeration=GroupEnumerationConfig(min_support=10, max_groups=30),
        ).prepare()
        cache_a = session.current_view().matrix_cache()
        assert session.current_view().matrix_cache() is cache_a
        session.prepare()
        assert session.current_view().matrix_cache() is not cache_a


class TestSolving:
    def test_solve_with_named_algorithm(self, prepared_session):
        problem = table1_problem(
            1, k=3, min_support=prepared_session.default_support()
        )
        result = prepared_session.solve(problem, algorithm="sm-lsh-fo")
        assert result.algorithm == "sm-lsh-fo"
        assert result.problem is problem

    def test_solve_auto_picks_family_by_goal(self, prepared_session):
        support = prepared_session.default_support()
        similarity_result = prepared_session.solve(
            table1_problem(1, k=3, min_support=support), algorithm="auto"
        )
        diversity_result = prepared_session.solve(
            table1_problem(6, k=3, min_support=support), algorithm="auto"
        )
        assert similarity_result.algorithm == "sm-lsh-fo"
        assert diversity_result.algorithm == "dv-fdp-fo"

    def test_solve_with_algorithm_instance(self, prepared_session):
        from repro.algorithms import DvFdpAlgorithm

        problem = table1_problem(6, k=3, min_support=prepared_session.default_support())
        result = prepared_session.solve(problem, algorithm=DvFdpAlgorithm())
        assert result.algorithm == "dv-fdp"

    def test_solve_unknown_algorithm(self, prepared_session):
        with pytest.raises(KeyError):
            prepared_session.solve(table1_problem(1), algorithm="quantum")

    def test_solve_all(self, prepared_session):
        support = prepared_session.default_support()
        problems = [table1_problem(i, k=3, min_support=support) for i in (1, 6)]
        results = prepared_session.solve_all(problems, algorithm="auto")
        assert set(results) == {"problem-1", "problem-6"}

    def test_algorithm_options_are_forwarded(self, prepared_session):
        problem = table1_problem(1, k=3, min_support=prepared_session.default_support())
        result = prepared_session.solve(problem, algorithm="sm-lsh-fo", n_bits=4)
        assert result.metadata["n_bits_initial"] == 4
