"""Tests for problem evaluation and the pairwise matrix cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.scoring import PairwiseMatrixCache, ProblemEvaluator
from repro.core.functions import default_function_suite
from repro.core.groups import build_group
from repro.core.measures import Criterion, Dimension
from repro.core.problem import Constraint, Objective, TagDMProblem, table1_problem
from repro.core.signatures import GroupSignatureBuilder


@pytest.fixture()
def evaluated_groups(tiny_dataset):
    groups = [
        build_group(tiny_dataset, {"item.genre": "action"}),
        build_group(tiny_dataset, {"item.genre": "comedy"}),
        build_group(tiny_dataset, {"user.gender": "male"}),
        build_group(tiny_dataset, {"user.gender": "female"}),
    ]
    GroupSignatureBuilder(backend="frequency", n_dimensions=6).build(groups)
    return groups


@pytest.fixture()
def suite():
    return default_function_suite()


class TestProblemEvaluator:
    def test_objective_value_range(self, evaluated_groups, suite):
        evaluator = ProblemEvaluator(table1_problem(1, k=3, min_support=1), suite)
        value = evaluator.objective_value(evaluated_groups[:3])
        assert 0.0 <= value <= 1.0

    def test_constraint_scores_keys(self, evaluated_groups, suite):
        evaluator = ProblemEvaluator(table1_problem(4, k=2, min_support=1), suite)
        scores = evaluator.constraint_scores(evaluated_groups[:2])
        assert set(scores) == {"users.diversity", "items.similarity"}

    def test_feasibility_checks_all_requirements(self, evaluated_groups, suite):
        # Two item-genre groups share no user attributes -> user similarity 0.
        problem = table1_problem(1, k=2, min_support=1)
        evaluator = ProblemEvaluator(problem, suite)
        evaluation = evaluator.evaluate(evaluated_groups[:2])
        assert evaluation.size_ok
        assert evaluation.support_ok
        assert not evaluation.constraints_ok
        assert not evaluation.feasible

    def test_support_threshold_enforced(self, evaluated_groups, suite):
        problem = table1_problem(1, k=2, min_support=1000)
        evaluator = ProblemEvaluator(problem, suite)
        assert not evaluator.evaluate(evaluated_groups[:2]).support_ok

    def test_size_bounds_enforced(self, evaluated_groups, suite):
        problem = table1_problem(1, k=2, min_support=1)  # exactly 2 groups
        evaluator = ProblemEvaluator(problem, suite)
        assert not evaluator.evaluate(evaluated_groups[:3]).size_ok
        assert not evaluator.evaluate(evaluated_groups[:1]).size_ok

    def test_is_feasible_shorthand(self, evaluated_groups, suite):
        # The two gender groups share the gender attribute with different
        # values ("male" vs "female" have edit-distance similarity 2/3), so
        # a user-diversity constraint with a threshold below 1/3 holds.
        problem = TagDMProblem(
            name="custom",
            constraints=(Constraint(Dimension.USERS, Criterion.DIVERSITY, 0.25),),
            objectives=(Objective(Dimension.TAGS, Criterion.DIVERSITY),),
            k_lo=2,
            k_hi=2,
            min_support=1,
        )
        evaluator = ProblemEvaluator(problem, suite)
        assert evaluator.is_feasible(evaluated_groups[2:4])


class TestPairwiseMatrixCache:
    def test_matrix_symmetry_and_diagonal(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        similarity = cache.matrix(Dimension.TAGS, Criterion.SIMILARITY)
        assert similarity.shape == (4, 4)
        assert np.allclose(similarity, similarity.T)
        assert np.allclose(np.diag(similarity), 1.0)
        diversity = cache.matrix(Dimension.TAGS, Criterion.DIVERSITY)
        assert np.allclose(np.diag(diversity), 0.0)

    def test_matrix_cached(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        first = cache.matrix(Dimension.USERS, Criterion.SIMILARITY)
        second = cache.matrix(Dimension.USERS, Criterion.SIMILARITY)
        assert first is second

    def test_opposite_criterion_derived_from_builder(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        similarity = cache.matrix(Dimension.USERS, Criterion.SIMILARITY)
        diversity = cache.matrix(Dimension.USERS, Criterion.DIVERSITY)
        off_diagonal = ~np.eye(len(evaluated_groups), dtype=bool)
        assert np.allclose((similarity + diversity)[off_diagonal], 1.0)

    def test_matrix_matches_pairwise_function(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        matrix = cache.matrix(Dimension.ITEMS, Criterion.SIMILARITY)
        for i in range(4):
            for j in range(4):
                if i != j:
                    expected = suite.pairwise(
                        evaluated_groups[i],
                        evaluated_groups[j],
                        Dimension.ITEMS,
                        Criterion.SIMILARITY,
                    )
                    assert matrix[i, j] == pytest.approx(expected, abs=1e-9)

    def test_subset_mean_and_singleton_convention(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        assert cache.subset_mean([0], Dimension.TAGS, Criterion.SIMILARITY) == 1.0
        assert cache.subset_mean([0], Dimension.TAGS, Criterion.DIVERSITY) == 0.0
        pair_mean = cache.subset_mean([0, 1], Dimension.TAGS, Criterion.SIMILARITY)
        matrix = cache.matrix(Dimension.TAGS, Criterion.SIMILARITY)
        assert pair_mean == pytest.approx(matrix[0, 1])

    def test_subset_support_overlapping_groups(self, evaluated_groups, suite):
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        # Groups 0/1 partition the dataset by genre; groups 2/3 by gender:
        # the candidate set is NOT disjoint overall.
        assert cache.subset_support([0, 1]) == 4
        assert cache.subset_support([0, 2]) == len(
            set(evaluated_groups[0].tuple_indices)
            | set(evaluated_groups[2].tuple_indices)
        )

    def test_subset_support_of_disjoint_groups_adds_up(self, evaluated_groups, suite):
        disjoint = evaluated_groups[:2]
        cache = PairwiseMatrixCache(disjoint, suite)
        assert cache.subset_support([0, 1]) == sum(g.support for g in disjoint)

    def test_objective_and_constraint_matrices(self, evaluated_groups, suite):
        problem = table1_problem(4, k=2, min_support=1)
        cache = PairwiseMatrixCache(evaluated_groups, suite)
        objective = cache.objective_matrix(problem)
        assert objective.shape == (4, 4)
        constraints = cache.constraint_matrices(problem)
        assert len(constraints) == 2
        keys = {key for _, _, key in constraints}
        assert keys == {"users.diversity", "items.similarity"}
