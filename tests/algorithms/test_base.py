"""Tests for the algorithm registry and shared solve machinery."""

from __future__ import annotations

import pytest

from repro.algorithms import available_algorithms, build_algorithm
from repro.algorithms.base import MiningAlgorithm, register_algorithm
from repro.core.functions import default_function_suite
from repro.core.problem import table1_problem


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = available_algorithms()
        assert {"exact", "sm-lsh", "sm-lsh-fi", "sm-lsh-fo", "dv-fdp", "dv-fdp-fi", "dv-fdp-fo"} <= set(names)

    def test_build_by_name(self):
        algorithm = build_algorithm("exact")
        assert algorithm.name == "exact"

    def test_build_unknown_name(self):
        with pytest.raises(KeyError):
            build_algorithm("simulated-annealing")

    def test_build_filters_unknown_options(self):
        # 'seed' is not accepted by ExactAlgorithm and must be dropped silently.
        algorithm = build_algorithm("exact", seed=3, max_candidates=10)
        assert algorithm.max_candidates == 10

    def test_register_requires_name(self):
        with pytest.raises(ValueError):

            @register_algorithm
            class Nameless(MiningAlgorithm):  # pragma: no cover - definition only
                def _solve(self, problem, groups, evaluator):
                    raise NotImplementedError


class TestSolveContract:
    def test_solve_rejects_empty_group_list(self):
        algorithm = build_algorithm("dv-fdp")
        with pytest.raises(ValueError):
            algorithm.solve(table1_problem(6), [], default_function_suite())

    def test_solve_records_elapsed_time(self, prepared_session):
        problem = table1_problem(6, k=3, min_support=prepared_session.default_support())
        algorithm = build_algorithm("dv-fdp-fo")
        result = algorithm.solve(
            problem, prepared_session.groups, prepared_session.functions
        )
        assert result.elapsed_seconds > 0.0

    def test_shared_cache_is_used_when_groups_match(self, prepared_session):
        problem = table1_problem(6, k=3, min_support=prepared_session.default_support())
        algorithm = build_algorithm("dv-fdp-fo")
        cache = prepared_session.current_view().matrix_cache()
        algorithm.solve(
            problem, prepared_session.groups, prepared_session.functions, cache=cache
        )
        assert algorithm._matrix_cache(
            prepared_session.groups, prepared_session.functions
        ) is cache

    def test_shared_cache_ignored_when_groups_differ(self, prepared_session):
        algorithm = build_algorithm("dv-fdp-fo")
        cache = prepared_session.current_view().matrix_cache()
        algorithm._shared_cache = cache
        subset = prepared_session.groups[:5]
        rebuilt = algorithm._matrix_cache(subset, prepared_session.functions)
        assert rebuilt is not cache
        assert len(rebuilt) == 5
