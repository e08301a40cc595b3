"""SM-LSH, SM-LSH-Fi and SM-LSH-Fo (Section 4).

The LSH family solves TagDM instances whose optimisation goal is tag
*similarity* (Problems 1-3 of Table 1).  The shared machinery:

1. every candidate group is represented by its tag signature vector
   (optionally concatenated with a one-hot encoding of its user/item
   description -- the *folding* of Section 4.3);
2. the vectors are hashed into ``l`` tables of ``d'``-bit buckets using
   the random-hyperplane scheme of Theorem 2;
3. instead of nearest-neighbour lookups, whole buckets are treated as
   candidate result sets, ranked by the optimisation score, and the best
   feasible bucket wins;
4. if no bucket yields a feasible set, the bit width ``d'`` is relaxed
   (halved) and the search repeats -- coarser buckets hold more groups.

Variants:

* ``SM-LSH`` (:class:`SmLshAlgorithm` with ``constraint_mode="none"``)
  ignores the hard user/item constraints (the pure optimisation of
  Section 4.1);
* ``SM-LSH-Fi`` filters buckets for full constraint satisfaction after
  hashing (Section 4.2);
* ``SM-LSH-Fo`` folds the similarity constraints into the hashed vectors
  and filters only the remaining constraints (Section 4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import MiningAlgorithm, register_algorithm
from repro.algorithms.scoring import (
    BatchCandidateScorer,
    PairwiseMatrixCache,
    ProblemEvaluator,
)
from repro.core.functions import FunctionSuite
from repro.core.groups import TaggingActionGroup  # noqa: F401 (used in annotations)
from repro.core.measures import Criterion, Dimension
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.core.signatures import signature_matrix
from repro.index.lsh import CosineLshIndex

__all__ = [
    "SmLshAlgorithm",
    "SmLshFilterAlgorithm",
    "SmLshFoldAlgorithm",
    "folded_vectors",
]


def _one_hot_descriptions(
    groups: Sequence[TaggingActionGroup], dimensions: Sequence[Dimension]
) -> np.ndarray:
    """One-hot encode the group descriptions over the folded dimensions.

    The slots are learned from the descriptions themselves (every
    ``(column, value)`` pair present in any candidate group), which keeps
    the encoder independent of the originating dataset.
    """
    prefixes = []
    if Dimension.USERS in dimensions:
        prefixes.append("user.")
    if Dimension.ITEMS in dimensions:
        prefixes.append("item.")
    slots: Dict[Tuple[str, str], int] = {}
    for group in groups:
        for column, value in group.description.predicates:
            if any(column.startswith(prefix) for prefix in prefixes):
                slots.setdefault((column, value), len(slots))
    matrix = np.zeros((len(groups), max(1, len(slots))), dtype=float)
    if not slots:
        return matrix
    for row, group in enumerate(groups):
        for column, value in group.description.predicates:
            slot = slots.get((column, value))
            if slot is not None:
                matrix[row, slot] = 1.0
    return matrix


def folded_vectors(
    groups: Sequence[TaggingActionGroup],
    dimensions: Sequence[Dimension],
    signatures: np.ndarray,
) -> np.ndarray:
    """The vectors SM-LSH hashes: the group signatures, with the one-hot
    descriptions over the folded ``dimensions`` prepended (Section 4.3).

    With nothing folded this is ``signatures`` itself.
    """
    if not dimensions:
        return signatures
    return np.hstack([_one_hot_descriptions(groups, dimensions), signatures])


class _PairFeasibility:
    """Which pairs of groups satisfy every hard constraint as a pair.

    Constraints on dimensions with a vectorised matrix builder are read
    off the cache's pairwise matrices once per solve, as one boolean
    ``matrix >= threshold`` matrix ANDed over those constraints.  Only a
    dimension without a builder falls back to memoised
    :meth:`FunctionSuite.pairwise` calls.
    """

    def __init__(
        self,
        problem: TagDMProblem,
        groups: Sequence[TaggingActionGroup],
        functions: FunctionSuite,
        cache: PairwiseMatrixCache,
    ) -> None:
        self._groups = groups
        self._functions = functions
        self._feasible = np.ones((len(groups), len(groups)), dtype=bool)
        self._pairwise_constraints = []
        for constraint in problem.constraints:
            if functions.matrix_builder_for(constraint.dimension) is None:
                self._pairwise_constraints.append(constraint)
            else:
                matrix = cache.matrix(constraint.dimension, constraint.criterion)
                self._feasible &= matrix >= constraint.threshold
        self._pairs: Dict[Tuple[int, int], bool] = {}

    def among(self, members: Sequence[int]) -> List[List[bool]]:
        """The matrix-backed feasibility among ``members``, by position."""
        index = np.asarray(members, dtype=np.intp)
        return self._feasible[np.ix_(index, index)].tolist()

    def pairwise_ok(self, a: int, b: int) -> bool:
        """Whether groups ``a`` and ``b`` meet the builder-less constraints."""
        if not self._pairwise_constraints:
            return True
        key = (a, b) if a < b else (b, a)
        ok = self._pairs.get(key)
        if ok is None:
            ok = self._pairs[key] = all(
                self._functions.pairwise(
                    self._groups[a], self._groups[b], constraint.dimension, constraint.criterion
                )
                >= constraint.threshold
                for constraint in self._pairwise_constraints
            )
        return ok


class _BaseSmLsh(MiningAlgorithm):
    """Shared implementation of the SM-LSH family."""

    #: How hard constraints participate: "none", "filter" or "fold".
    constraint_mode = "none"

    def __init__(
        self,
        n_bits: int = 10,
        n_tables: int = 1,
        seed: int = 0,
        max_relaxations: int = 8,
        max_subsets_per_bucket: int = 256,
    ) -> None:
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if n_tables <= 0:
            raise ValueError("n_tables must be positive")
        if max_relaxations < 1:
            raise ValueError("max_relaxations must be at least 1")
        if max_subsets_per_bucket < 1:
            raise ValueError("max_subsets_per_bucket must be at least 1")
        self.n_bits = n_bits
        self.n_tables = n_tables
        self.seed = seed
        self.max_relaxations = max_relaxations
        self.max_subsets_per_bucket = max_subsets_per_bucket

    # ------------------------------------------------------------------
    def _folded_dimensions(self, problem: TagDMProblem) -> Tuple[Dimension, ...]:
        """The user/item dimensions SM-LSH-Fo folds into the hashed vectors.

        Those with a similarity constraint, in (users, items) order; empty
        for the other variants.
        """
        if self.constraint_mode != "fold":
            return ()
        folded = {
            constraint.dimension
            for constraint in problem.constraints
            if constraint.criterion is Criterion.SIMILARITY
        }
        return tuple(
            dimension for dimension in (Dimension.USERS, Dimension.ITEMS) if dimension in folded
        )

    def _provided_index(
        self, folded: Tuple[Dimension, ...], bits: int, n_groups: int
    ) -> Optional[CosineLshIndex]:
        """Ask the session's LSH cache for an index (None when unusable).

        The index is ``bits`` wide over the vectors that
        :func:`folded_vectors` gives for ``folded``.
        """
        provider = getattr(self, "_lsh_provider", None)
        if provider is None:
            return None
        index = provider(bits, self.n_tables, self.seed, folded)
        if index is None or index.n_indexed != n_groups:
            return None
        return index

    def _candidate_sets_from_bucket(
        self,
        members: List[int],
        vectors: np.ndarray,
        problem: TagDMProblem,
        pairs: Optional[_PairFeasibility],
    ) -> List[List[int]]:
        """Turn one bucket into candidate result sets of admissible size.

        Buckets no larger than ``k_hi`` are candidates as-is.  Larger
        buckets are post-processed (Sections 4.1-4.2 "check each bucket,
        then rank"): the members closest to the bucket centroid are kept
        and up to ``max_subsets_per_bucket`` of their ``k_hi``-subsets are
        emitted; in the constraint-aware modes a pairwise-feasible greedy
        over the bucket adds further candidates, so hard-constraint
        filtering has several chances per bucket instead of exactly one.
        """
        from itertools import combinations, islice
        from math import comb

        k_lo, k_hi = problem.k_lo, problem.k_hi
        if len(members) < k_lo:
            return []
        if len(members) <= k_hi:
            return [list(members)]

        bucket_vectors = vectors[members]
        centroid = bucket_vectors.mean(axis=0)
        norms = np.linalg.norm(bucket_vectors, axis=1) * (np.linalg.norm(centroid) or 1.0)
        norms[norms == 0] = 1.0
        similarity_to_centroid = bucket_vectors @ centroid / norms
        order = np.argsort(similarity_to_centroid)[::-1]
        ordered_members = [members[i] for i in order]

        # Keep only enough top members that the subset budget is respected.
        pool_size = k_hi
        while pool_size < len(members):
            if comb(pool_size + 1, k_hi) > self.max_subsets_per_bucket:
                break
            pool_size += 1
        pool = ordered_members[:pool_size]
        candidates = [
            list(subset)
            for subset in islice(combinations(pool, k_hi), self.max_subsets_per_bucket)
        ]

        if pairs is not None:
            candidates.extend(
                self._greedy_feasible_candidates(ordered_members, problem, pairs)
            )
        return candidates

    def _greedy_feasible_candidates(
        self,
        ordered_members: List[int],
        problem: TagDMProblem,
        pairs: _PairFeasibility,
        max_seeds: int = 16,
    ) -> List[List[int]]:
        """Grow pairwise-constraint-feasible sets inside one bucket.

        Starting from each of the first ``max_seeds`` members (in
        centroid order), greedily add further bucket members that keep
        every hard constraint satisfied pairwise.  This is the
        bucket-level analogue of the DV-FDP-Fo folding step and is what
        lets the filtering/folding LSH variants find feasible sets inside
        large, heterogeneous buckets.
        """
        k_lo, k_hi = problem.k_lo, problem.k_hi
        feasible = pairs.among(ordered_members)
        candidates: List[List[int]] = []
        for seed in range(min(max_seeds, len(ordered_members))):
            # Positions into ordered_members; ``allowed`` is the AND of
            # the selected members' feasibility rows.
            selected = [seed]
            allowed = feasible[seed]
            for position, member in enumerate(ordered_members):
                if not allowed[position] or position in selected:
                    continue
                if not all(
                    pairs.pairwise_ok(ordered_members[chosen], member) for chosen in selected
                ):
                    continue
                selected.append(position)
                if len(selected) == k_hi:
                    break
                allowed = [a and b for a, b in zip(allowed, feasible[position])]
            chosen_members = [ordered_members[position] for position in selected]
            if len(chosen_members) >= k_lo and chosen_members not in candidates:
                candidates.append(chosen_members)
        return candidates

    def _bucket_feasible(
        self,
        candidate: List[int],
        groups: Sequence[TaggingActionGroup],
        evaluator: ProblemEvaluator,
    ) -> Tuple[bool, float]:
        """Check the candidate set and return (feasible, objective)."""
        chosen = [groups[i] for i in candidate]
        evaluation = evaluator.evaluate(chosen)
        if self.constraint_mode == "none":
            feasible = evaluation.size_ok
        else:
            feasible = evaluation.feasible
        return feasible, evaluation.objective_value

    def _score_candidates(
        self,
        candidates: List[List[int]],
        groups: Sequence[TaggingActionGroup],
        evaluator: ProblemEvaluator,
        scorer: Optional[BatchCandidateScorer],
    ) -> List[Tuple[bool, float]]:
        """(feasible, objective) for every candidate, batched when possible.

        With mean-of-pairs functions (the default suite) all of a
        bucket's candidate subsets are scored through submatrix gathers
        on the shared pairwise-matrix cache; otherwise each candidate
        falls back to one :meth:`ProblemEvaluator.evaluate` call.
        """
        if scorer is not None:
            return scorer.score(
                candidates, require_constraints=self.constraint_mode != "none"
            )
        return [
            self._bucket_feasible(candidate, groups, evaluator)
            for candidate in candidates
        ]

    def _solve(
        self,
        problem: TagDMProblem,
        groups: Sequence[TaggingActionGroup],
        evaluator: ProblemEvaluator,
    ) -> MiningResult:
        folded = self._folded_dimensions(problem)
        # Session-cached vectors and sign-bit matrices (warm-started
        # snapshots restore the unfolded ones without any projection).
        index = self._provided_index(folded, self.n_bits, len(groups))
        if index is not None:
            vectors = index.vectors
        else:
            vectors = folded_vectors(groups, folded, signature_matrix(groups))
        n_dimensions = vectors.shape[1]
        evaluations = 0
        relaxations = 0
        bits = min(self.n_bits, max(1, n_dimensions))

        best_candidate: Optional[List[int]] = None
        best_objective = float("-inf")
        bits_used = bits

        cache = self._matrix_cache(groups, evaluator.functions)
        scorer: Optional[BatchCandidateScorer] = None
        if BatchCandidateScorer.supports(problem, evaluator.functions):
            scorer = BatchCandidateScorer(cache, problem)
        pairs: Optional[_PairFeasibility] = None
        if self.constraint_mode != "none" and problem.constraints:
            pairs = _PairFeasibility(problem, groups, evaluator.functions, cache)

        while relaxations < self.max_relaxations:
            if index is None:
                index = CosineLshIndex(
                    n_dimensions=n_dimensions,
                    n_bits=bits,
                    n_tables=self.n_tables,
                    seed=self.seed,
                ).build(vectors)
            elif index.n_bits != bits:
                # Relaxation re-hash: prefix truncation of the cached
                # sign bits, no re-projection (see CosineLshIndex); the
                # session's cache keeps every width it truncated to.
                narrowed = self._provided_index(folded, bits, len(groups))
                index = narrowed if narrowed is not None else index.rebuild_with_bits(bits)

            for bucket in index.buckets():
                candidates = self._candidate_sets_from_bucket(
                    list(bucket.members), vectors, problem, pairs
                )
                if not candidates:
                    continue
                evaluations += len(candidates)
                for candidate, (feasible, objective) in zip(
                    candidates,
                    self._score_candidates(candidates, groups, evaluator, scorer),
                ):
                    if feasible and objective > best_objective:
                        best_objective = objective
                        best_candidate = candidate
                        bits_used = bits

            if best_candidate is not None:
                break
            # Iterative relaxation: halve the signature width so more
            # groups collide, then retry (Section 4.1).
            if bits == 1:
                break
            bits = max(1, bits // 2)
            relaxations += 1

        if best_candidate is None:
            # Terminal relaxation: with zero hash bits every group falls in
            # one bucket, so post-process the whole candidate set once.
            candidates = self._candidate_sets_from_bucket(
                list(range(len(groups))), vectors, problem, pairs
            )
            evaluations += len(candidates)
            for candidate, (feasible, objective) in zip(
                candidates,
                self._score_candidates(candidates, groups, evaluator, scorer),
            ):
                if feasible and objective > best_objective:
                    best_objective = objective
                    best_candidate = candidate
                    bits_used = 0

        metadata: Dict[str, object] = {
            "n_bits_initial": self.n_bits,
            "n_bits_used": bits_used if best_candidate is not None else bits,
            "n_tables": self.n_tables,
            "relaxations": relaxations,
            "vector_dimensions": n_dimensions,
            "constraint_mode": self.constraint_mode,
        }
        if best_candidate is None:
            return self._result_from_groups(problem, (), evaluator, evaluations, metadata)
        chosen = [groups[i] for i in best_candidate]
        return self._result_from_groups(problem, chosen, evaluator, evaluations, metadata)


@register_algorithm
class SmLshAlgorithm(_BaseSmLsh):
    """SM-LSH: maximise tag similarity, ignore hard user/item constraints."""

    name = "sm-lsh"
    constraint_mode = "none"


@register_algorithm
class SmLshFilterAlgorithm(_BaseSmLsh):
    """SM-LSH-Fi: filter buckets for hard-constraint satisfaction."""

    name = "sm-lsh-fi"
    constraint_mode = "filter"


@register_algorithm
class SmLshFoldAlgorithm(_BaseSmLsh):
    """SM-LSH-Fo: fold similarity constraints into the hashed vectors."""

    name = "sm-lsh-fo"
    constraint_mode = "fold"
