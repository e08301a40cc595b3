"""Evaluating TagDM problems over candidate group sets.

Every algorithm needs the same three judgements about a candidate set of
tagging-action groups: the optimisation score (weighted sum of the
objective dual-mining functions), the per-constraint scores, and overall
feasibility (constraints + group support + group-count bounds).
:class:`ProblemEvaluator` centralises those judgements, and
:class:`PairwiseMatrixCache` precomputes the pairwise comparison matrices
the Exact baseline and the FDP algorithms iterate over, plus the packed
group-membership words that turn group support into an OR-popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.functions import FunctionSuite
from repro.core.groups import TaggingActionGroup, group_support
from repro.core.measures import Criterion, Dimension
from repro.core.problem import TagDMProblem
from repro.core.witness import named_lock

__all__ = [
    "GroupSetEvaluation",
    "ProblemEvaluator",
    "PairwiseMatrixCache",
    "BatchCandidateScorer",
    "batch_subset_means",
    "membership_words",
]

#: Set bits of every byte value: the popcount of numpy < 2, which has no
#: ``np.bitwise_count``.
_BYTE_BITS = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def _lut_bit_count(words: np.ndarray) -> np.ndarray:
    """Set bits of every ``uint64`` word, through the byte lookup table."""
    octets = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    return _BYTE_BITS[octets].reshape(*np.shape(words), 8).sum(axis=-1, dtype=np.uint8)


_bit_count = np.bitwise_count if hasattr(np, "bitwise_count") else _lut_bit_count


def membership_words(groups: Sequence[TaggingActionGroup]) -> np.ndarray:
    """Pack the groups' tuple sets into an ``(n_groups, n_words)`` bitset.

    Bit ``t & 63`` of word ``t >> 6`` in row ``g`` is set when tuple ``t``
    belongs to group ``g`` -- the groups x tuples 0/1 array of D4M-style
    associative arrays, 64 tuples per ``uint64`` word.  The union of a
    set of groups is then the OR of their rows, and its size (the group
    support of Definition 1) a popcount.  Built straight from the tuple
    indices, with no dense ``n_groups x n_tuples`` intermediate.
    """
    lengths = [len(group.tuple_indices) for group in groups]
    tuples = np.fromiter(
        chain.from_iterable(group.tuple_indices for group in groups),
        dtype=np.int64,
        count=sum(lengths),
    )
    n_words = int(tuples.max()) // 64 + 1 if tuples.size else 1
    words = np.zeros((len(groups), n_words), dtype=np.uint64)
    rows = np.repeat(np.arange(len(groups)), lengths)
    bits = np.left_shift(np.uint64(1), (tuples & 63).astype(np.uint64))
    np.bitwise_or.at(words, (rows, tuples >> 6), bits)
    return words


def batch_subset_means(matrix: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Mean pairwise score of many equal-size subsets in one gather.

    ``subsets`` is an ``(m, s)`` integer array of row/column indices with
    ``s >= 2`` into the symmetric ``matrix``; the off-diagonal submatrix
    sum counts every distinct pair exactly twice.
    """
    idx = np.asarray(subsets, dtype=np.intp)
    size = idx.shape[1]
    gathered = matrix[idx[:, :, None], idx[:, None, :]]
    trace = np.einsum("mii->m", gathered)
    return (gathered.sum(axis=(1, 2)) - trace) / (size * (size - 1))


@dataclass(frozen=True)
class GroupSetEvaluation:
    """Full evaluation of one candidate group set."""

    objective_value: float
    constraint_scores: Dict[str, float]
    support: int
    size_ok: bool
    support_ok: bool
    constraints_ok: bool

    @property
    def feasible(self) -> bool:
        """All hard requirements hold simultaneously."""
        return self.size_ok and self.support_ok and self.constraints_ok


class ProblemEvaluator:
    """Score candidate group sets against one problem specification."""

    def __init__(self, problem: TagDMProblem, functions: FunctionSuite) -> None:
        self.problem = problem
        self.functions = functions

    # ------------------------------------------------------------------
    def objective_value(self, groups: Sequence[TaggingActionGroup]) -> float:
        """Weighted sum of objective scores (the quantity to maximise)."""
        total = 0.0
        for objective in self.problem.objectives:
            total += objective.weight * self.functions.score(
                groups, objective.dimension, objective.criterion
            )
        return total

    def constraint_scores(self, groups: Sequence[TaggingActionGroup]) -> Dict[str, float]:
        """Achieved score of every constraint, keyed ``dimension.criterion``."""
        scores: Dict[str, float] = {}
        for constraint in self.problem.constraints:
            key = f"{constraint.dimension.value}.{constraint.criterion.value}"
            scores[key] = self.functions.score(
                groups, constraint.dimension, constraint.criterion
            )
        return scores

    def evaluate(self, groups: Sequence[TaggingActionGroup]) -> GroupSetEvaluation:
        """Evaluate objective, constraints, support and size bounds."""
        groups = list(groups)
        size_ok = self.problem.k_lo <= len(groups) <= self.problem.k_hi
        support = group_support(groups)
        support_ok = support >= self.problem.min_support
        scores = self.constraint_scores(groups)
        constraints_ok = all(
            scores[f"{c.dimension.value}.{c.criterion.value}"] >= c.threshold
            for c in self.problem.constraints
        )
        return GroupSetEvaluation(
            objective_value=self.objective_value(groups),
            constraint_scores=scores,
            support=support,
            size_ok=size_ok,
            support_ok=support_ok,
            constraints_ok=constraints_ok,
        )

    def is_feasible(self, groups: Sequence[TaggingActionGroup]) -> bool:
        """Shorthand for ``evaluate(groups).feasible``."""
        return self.evaluate(groups).feasible


class PairwiseMatrixCache:
    """Precomputed pairwise comparison matrices over a fixed group list.

    For ``n`` candidate groups the cache materialises, on demand, the
    ``(n, n)`` matrix of pairwise scores for a (dimension, criterion)
    pair.  Subset scores under mean aggregation then reduce to averaging
    matrix entries, which is what makes the Exact baseline and the FDP
    greedy loops tractable.  Group support is counted on the packed
    membership words (:func:`membership_words`), built once per cache.

    Solvers on one view share its cache from several threads: matrix
    fills are idempotent, and the membership words are built under the
    cache's own lock.
    """

    def __init__(
        self, groups: Sequence[TaggingActionGroup], functions: FunctionSuite
    ) -> None:
        self.groups = list(groups)
        self.functions = functions
        self._matrices: Dict[Tuple[Dimension, Criterion], np.ndarray] = {}
        self._build_lock = named_lock("cache.build")
        self._membership: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.groups)

    # ------------------------------------------------------------------
    def matrix(self, dimension: Dimension, criterion: Criterion) -> np.ndarray:
        """Return (building if needed) the pairwise score matrix."""
        key = (dimension, criterion)
        cached = self._matrices.get(key)
        if cached is not None:
            return cached
        builder = self.functions.matrix_builder_for(dimension)
        opposite = self._matrices.get((dimension, criterion.opposite))
        if builder is not None and opposite is not None:
            # The vectorised builders define diversity as 1 - similarity, so
            # the opposite criterion's matrix can be derived for free.
            matrix = 1.0 - opposite
        elif builder is not None:
            matrix = np.asarray(builder(self.groups, dimension, criterion), dtype=float)
        elif dimension is Dimension.TAGS and self._all_groups_have_signatures():
            matrix = self._tag_matrix(criterion)
        else:
            matrix = self._generic_matrix(dimension, criterion)
        # The diagonal is never used by mean-over-distinct-pairs scoring,
        # but a self-comparison is maximally similar by definition.
        fill = 1.0 if criterion is Criterion.SIMILARITY else 0.0
        np.fill_diagonal(matrix, fill)
        self._matrices[key] = matrix
        return matrix

    def _all_groups_have_signatures(self) -> bool:
        return all(group.has_signature() for group in self.groups)

    def _tag_matrix(self, criterion: Criterion) -> np.ndarray:
        """Vectorised tag pairwise matrix (cosine over stacked signatures).

        Matches :func:`repro.core.functions.tag_signature_pairwise`:
        similarity is clipped at zero, diversity is its complement.
        """
        from repro.geometry.distance import pairwise_cosine_similarity

        signatures = np.vstack([group.require_signature() for group in self.groups])
        similarity = np.clip(pairwise_cosine_similarity(signatures), 0.0, 1.0)
        if criterion is Criterion.SIMILARITY:
            return similarity
        return 1.0 - similarity

    def _generic_matrix(self, dimension: Dimension, criterion: Criterion) -> np.ndarray:
        n = len(self.groups)
        matrix = np.zeros((n, n), dtype=float)
        for i in range(n):
            for j in range(i + 1, n):
                score = self.functions.pairwise(
                    self.groups[i], self.groups[j], dimension, criterion
                )
                matrix[i, j] = score
                matrix[j, i] = score
        return matrix

    def subset_mean(
        self, indices: Sequence[int], dimension: Dimension, criterion: Criterion
    ) -> float:
        """Mean pairwise score of the subset (1.0/0.0 for singletons).

        Computed via an ``np.ix_`` submatrix gather; the matrices are
        symmetric, so the off-diagonal submatrix sum counts every
        distinct pair exactly twice.
        """
        size = len(indices)
        if size < 2:
            return 1.0 if criterion is Criterion.SIMILARITY else 0.0
        matrix = self.matrix(dimension, criterion)
        idx = np.asarray(indices, dtype=np.intp)
        submatrix = matrix[np.ix_(idx, idx)]
        return float((submatrix.sum() - np.trace(submatrix)) / (size * (size - 1)))

    # ------------------------------------------------------------------
    def membership(self) -> np.ndarray:
        """The packed ``(n_groups, n_words)`` membership words (built once)."""
        with self._build_lock:
            if self._membership is None:
                self._membership = membership_words(self.groups)
            return self._membership

    def subset_support(self, indices: Sequence[int]) -> int:
        """Group support (Definition 1) of the subset."""
        rows = self.membership()[np.asarray(indices, dtype=np.intp)]
        return int(_bit_count(np.bitwise_or.reduce(rows, axis=0)).sum())

    def batch_subset_support(self, subsets: np.ndarray) -> np.ndarray:
        """Group support of many equal-size subsets in one gather.

        ``subsets`` is an ``(m, s)`` integer array of group indices;
        returns the ``m`` supports ``subset_support`` would produce.
        """
        rows = self.membership()[np.asarray(subsets, dtype=np.intp)]
        return _bit_count(np.bitwise_or.reduce(rows, axis=1)).sum(axis=-1, dtype=np.int64)

    def batch_subset_means(
        self,
        subsets: np.ndarray,
        dimension: Dimension,
        criterion: Criterion,
    ) -> np.ndarray:
        """Mean pairwise score of many equal-size subsets in one gather.

        ``subsets`` is an ``(m, s)`` integer array of group indices with
        ``s >= 2``.  Returns the ``m`` subset means that ``subset_mean``
        would produce one by one.
        """
        return batch_subset_means(self.matrix(dimension, criterion), subsets)

    def objective_matrix(self, problem: TagDMProblem) -> np.ndarray:
        """Weighted sum of objective matrices (pairwise objective scores)."""
        n = len(self.groups)
        total = np.zeros((n, n), dtype=float)
        for objective in problem.objectives:
            total += objective.weight * self.matrix(objective.dimension, objective.criterion)
        return total

    def constraint_matrices(
        self, problem: TagDMProblem
    ) -> List[Tuple[np.ndarray, float, str]]:
        """Pairwise matrix, threshold and key for every constraint."""
        out: List[Tuple[np.ndarray, float, str]] = []
        for constraint in problem.constraints:
            key = f"{constraint.dimension.value}.{constraint.criterion.value}"
            out.append(
                (self.matrix(constraint.dimension, constraint.criterion), constraint.threshold, key)
            )
        return out


class BatchCandidateScorer:
    """Score many candidate index sets against one problem in batch.

    The SM-LSH bucket post-processing emits up to ``max_subsets_per_bucket``
    candidate subsets per bucket; evaluating each through
    :meth:`ProblemEvaluator.evaluate` costs one Python pairwise loop per
    subset.  When every objective and constraint uses mean-of-pairs
    aggregation (the paper's default), the same judgements reduce to
    submatrix sums over the cached pairwise matrices, so a whole bucket's
    candidates are ranked with a handful of numpy gathers.

    ``score`` mirrors the (feasible, objective) contract of the per-set
    evaluator: size bounds always apply; support and constraint
    thresholds apply only when ``require_constraints`` is set (SM-LSH's
    ``constraint_mode="none"`` ranks by size alone, matching
    ``GroupSetEvaluation.size_ok``).
    """

    def __init__(self, cache: PairwiseMatrixCache, problem: TagDMProblem) -> None:
        self.cache = cache
        self.problem = problem

    @staticmethod
    def supports(problem: TagDMProblem, functions: FunctionSuite) -> bool:
        """Whether batch scoring reproduces the evaluator's judgements cheaply.

        Requires mean-of-pairs aggregation (correctness) *and* a
        vectorised pairwise-matrix path (cost): without a registered
        matrix builder the cache would fall back to an ``O(n^2)`` Python
        pairwise loop over all candidate groups, which can dwarf the
        per-candidate evaluation it replaces.  The tags dimension is
        exempt because the cache has a dedicated vectorised path over
        the stacked group signatures.
        """
        dimensions = {objective.dimension for objective in problem.objectives}
        dimensions |= {constraint.dimension for constraint in problem.constraints}
        for dimension in dimensions:
            if not functions.is_mean_pairwise(dimension):
                return False
            if (
                functions.matrix_builder_for(dimension) is None
                and dimension is not Dimension.TAGS
            ):
                return False
        return True

    @staticmethod
    def _singleton_score(criterion: Criterion) -> float:
        # Mirrors PairwiseAggregationFunction.score for < 2 groups.
        return 1.0 if criterion is Criterion.SIMILARITY else 0.0

    def score(
        self,
        candidates: Sequence[Sequence[int]],
        require_constraints: bool,
    ) -> List[Tuple[bool, float]]:
        """Return ``(feasible, objective_value)`` per candidate set."""
        problem = self.problem
        results: List[Optional[Tuple[bool, float]]] = [None] * len(candidates)
        by_size: Dict[int, List[int]] = {}
        for position, candidate in enumerate(candidates):
            by_size.setdefault(len(candidate), []).append(position)

        for size, positions in by_size.items():
            count = len(positions)
            size_ok = problem.k_lo <= size <= problem.k_hi
            subsets = np.asarray([candidates[p] for p in positions], dtype=np.intp)
            if size < 2:
                objective_values = np.full(
                    count,
                    sum(
                        objective.weight * self._singleton_score(objective.criterion)
                        for objective in problem.objectives
                    ),
                )
                constraints_ok = np.full(
                    count,
                    all(
                        self._singleton_score(constraint.criterion) >= constraint.threshold
                        for constraint in problem.constraints
                    ),
                )
            else:
                objective_values = np.zeros(count)
                for objective in problem.objectives:
                    objective_values += objective.weight * self.cache.batch_subset_means(
                        subsets, objective.dimension, objective.criterion
                    )
                constraints_ok = np.ones(count, dtype=bool)
                for constraint in problem.constraints:
                    means = self.cache.batch_subset_means(
                        subsets, constraint.dimension, constraint.criterion
                    )
                    constraints_ok &= means >= constraint.threshold

            if require_constraints:
                if problem.min_support > 0:
                    support_ok = (
                        self.cache.batch_subset_support(subsets) >= problem.min_support
                    )
                else:
                    support_ok = np.ones(count, dtype=bool)
                feasible = size_ok & support_ok & constraints_ok
            else:
                feasible = np.full(count, size_ok)

            for position, verdict in zip(
                positions, zip(feasible.tolist(), objective_values.tolist())
            ):
                results[position] = verdict
        return results  # type: ignore[return-value]
