"""Concrete pairwise dual-mining comparison functions.

Section 2.1 of the paper gives example pairwise comparison functions for
the three dimensions:

* **users / items** (Section 2.1.1): structural distance between group
  descriptions -- summing a per-attribute value similarity over shared
  attributes -- or set distance (Jaccard) over the items the groups
  tagged;
* **tags** (Section 2.1.2): cosine similarity between group tag
  signature vectors.

Diversity is defined as the inverse of the corresponding similarity.
The functions below return values in ``[0, 1]`` so thresholds such as
``q = 0.5`` are directly comparable across dimensions, and they are
wrapped into :class:`~repro.core.measures.PairwiseAggregationFunction`
objects by :func:`default_function_suite` so the algorithms can treat
them uniformly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional

from repro.core.groups import TaggingActionGroup
from repro.core.measures import (
    Criterion,
    Dimension,
    MEAN_AGGREGATOR,
    PairwiseAggregationFunction,
)
from repro.geometry.distance import cosine_similarity

__all__ = [
    "value_similarity",
    "structural_similarity",
    "structural_pairwise",
    "structural_pairwise_matrix",
    "jaccard_items_similarity",
    "set_overlap_pairwise",
    "tag_signature_pairwise",
    "tag_signature_pairwise_matrix",
    "default_function_suite",
    "FunctionSuite",
]


@lru_cache(maxsize=65536)
def value_similarity(value_a: str, value_b: str) -> float:
    """Similarity of two attribute values in ``[0, 1]``.

    Exact matches score 1; otherwise a normalised Levenshtein similarity
    is used, which is the "string similarity function that simply
    computes the edit distance" option the paper mentions.  The dynamic
    programme is tiny because attribute values are short, and results are
    memoised because the same value pairs recur across group pairs.
    """
    a, b = str(value_a), str(value_b)
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    # Iterative Levenshtein with two rows.
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    distance = previous[-1]
    return 1.0 - distance / max(len(a), len(b))


def _description_part(group: TaggingActionGroup, dimension: Dimension) -> Dict[str, str]:
    if dimension is Dimension.USERS:
        return group.description.user_predicates
    if dimension is Dimension.ITEMS:
        return group.description.item_predicates
    raise ValueError("structural comparison is only defined for users/items")


def structural_similarity(
    group_a: TaggingActionGroup,
    group_b: TaggingActionGroup,
    dimension: Dimension,
    value_sim: Callable[[str, str], float] = value_similarity,
) -> float:
    """Structural similarity of two group descriptions on one dimension.

    The paper's ``Fp(g1, g2, users, similarity) = sum_{a in A}
    sim(v1, v2)`` over the shared attributes ``A``; we divide by ``|A|``
    so the score stays in ``[0, 1]``.  Groups sharing no attribute on the
    dimension score 0.  The sum runs in sorted attribute order, the order
    :func:`structural_pairwise_matrix` accumulates in, so both give
    bit-identical scores.
    """
    part_a = _description_part(group_a, dimension)
    part_b = _description_part(group_b, dimension)
    shared = sorted(part_a.keys() & part_b.keys())
    if not shared:
        return 0.0
    total = sum(value_sim(part_a[attribute], part_b[attribute]) for attribute in shared)
    return total / len(shared)


def structural_pairwise(
    group_a: TaggingActionGroup,
    group_b: TaggingActionGroup,
    dimension: Dimension,
    criterion: Criterion,
) -> float:
    """Pairwise ``Fp`` using structural distance; diversity is the inverse."""
    similarity = structural_similarity(group_a, group_b, dimension)
    if criterion is Criterion.SIMILARITY:
        return similarity
    return 1.0 - similarity


def jaccard_items_similarity(
    group_a: TaggingActionGroup, group_b: TaggingActionGroup, dimension: Dimension
) -> float:
    """Set-distance similarity: Jaccard over covered items (or users).

    The paper's ``F'p`` computes the fraction of items tagged by both
    groups.  For the items dimension we compare covered item ids; for the
    users dimension we follow the same idea over covered user ids.
    """
    if dimension is Dimension.ITEMS:
        set_a, set_b = set(group_a.item_ids), set(group_b.item_ids)
    elif dimension is Dimension.USERS:
        set_a, set_b = set(group_a.user_ids), set(group_b.user_ids)
    else:
        raise ValueError("set-overlap comparison is only defined for users/items")
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def set_overlap_pairwise(
    group_a: TaggingActionGroup,
    group_b: TaggingActionGroup,
    dimension: Dimension,
    criterion: Criterion,
) -> float:
    """Pairwise ``F'p`` using set overlap; diversity is the inverse."""
    similarity = jaccard_items_similarity(group_a, group_b, dimension)
    if criterion is Criterion.SIMILARITY:
        return similarity
    return 1.0 - similarity


def structural_pairwise_matrix(groups, dimension: Dimension, criterion: Criterion):
    """Vectorised ``(n, n)`` structural pairwise matrix.

    Produces exactly the values :func:`structural_pairwise` would, but
    builds them column-by-column with numpy so the mining algorithms can
    afford full pairwise matrices over thousands of candidate groups.
    """
    import numpy as np

    groups = list(groups)
    n = len(groups)
    parts = [_description_part(group, dimension) for group in groups]
    columns = sorted({column for part in parts for column in part})
    numerator = np.zeros((n, n), dtype=float)
    denominator = np.zeros((n, n), dtype=float)
    for column in columns:
        values = [part.get(column) for part in parts]
        present = np.array([value is not None for value in values], dtype=bool)
        distinct = sorted({value for value in values if value is not None})
        value_index = {value: position for position, value in enumerate(distinct)}
        similarity_table = np.zeros((len(distinct), len(distinct)), dtype=float)
        for i, value_i in enumerate(distinct):
            for j in range(i, len(distinct)):
                score = value_similarity(value_i, distinct[j])
                similarity_table[i, j] = score
                similarity_table[j, i] = score
        indices = np.array(
            [value_index[value] if value is not None else 0 for value in values],
            dtype=np.int64,
        )
        contribution = similarity_table[np.ix_(indices, indices)]
        mask = np.outer(present, present).astype(float)
        numerator += contribution * mask
        denominator += mask
    with np.errstate(invalid="ignore", divide="ignore"):
        similarity = np.where(denominator > 0, numerator / denominator, 0.0)
    if criterion is Criterion.SIMILARITY:
        return similarity
    return 1.0 - similarity


def tag_signature_pairwise_matrix(groups, dimension: Dimension, criterion: Criterion):
    """Vectorised ``(n, n)`` tag-signature pairwise matrix.

    Matches :func:`tag_signature_pairwise`: cosine similarity clipped at
    zero, diversity as its complement.  All groups must carry signatures.
    """
    import numpy as np

    from repro.geometry.distance import pairwise_cosine_similarity

    if dimension is not Dimension.TAGS:
        raise ValueError("tag-signature comparison is only defined for tags")
    signatures = np.vstack([group.require_signature() for group in groups])
    similarity = np.clip(pairwise_cosine_similarity(signatures), 0.0, 1.0)
    if criterion is Criterion.SIMILARITY:
        return similarity
    return 1.0 - similarity


def tag_signature_pairwise(
    group_a: TaggingActionGroup,
    group_b: TaggingActionGroup,
    dimension: Dimension,
    criterion: Criterion,
) -> float:
    """Pairwise ``F''p``: cosine similarity of group tag signatures.

    Signatures must have been computed by a
    :class:`~repro.core.signatures.GroupSignatureBuilder` first.
    """
    if dimension is not Dimension.TAGS:
        raise ValueError("tag-signature comparison is only defined for tags")
    similarity = cosine_similarity(group_a.require_signature(), group_b.require_signature())
    similarity = max(0.0, similarity)
    if criterion is Criterion.SIMILARITY:
        return similarity
    return 1.0 - similarity


class FunctionSuite:
    """The per-dimension dual mining functions used by a TagDM run.

    The suite maps each dimension to a
    :class:`PairwiseAggregationFunction`; algorithms look functions up by
    dimension and call them with the criterion the problem asks for.
    Optionally a *matrix builder* -- a vectorised implementation that
    produces the full ``(n, n)`` pairwise matrix in one call -- can be
    registered per dimension; algorithms that need whole matrices
    (Exact, DV-FDP) use it when available and fall back to pairwise
    calls otherwise.
    """

    def __init__(
        self,
        users: PairwiseAggregationFunction,
        items: PairwiseAggregationFunction,
        tags: PairwiseAggregationFunction,
        matrix_builders: Optional[Dict[Dimension, Callable]] = None,
    ) -> None:
        self._functions: Dict[Dimension, PairwiseAggregationFunction] = {
            Dimension.USERS: users,
            Dimension.ITEMS: items,
            Dimension.TAGS: tags,
        }
        self._matrix_builders: Dict[Dimension, Callable] = dict(matrix_builders or {})

    def function_for(self, dimension: Dimension) -> PairwiseAggregationFunction:
        """Return the dual mining function registered for ``dimension``."""
        return self._functions[dimension]

    def matrix_builder_for(self, dimension: Dimension) -> Optional[Callable]:
        """Return the vectorised matrix builder for ``dimension``, if any."""
        return self._matrix_builders.get(dimension)

    def is_mean_pairwise(self, dimension: Dimension) -> bool:
        """Whether ``dimension``'s function is a mean-of-pairs aggregation.

        Batch subset scorers rely on this: only mean aggregation lets a
        subset score be recovered from pairwise-matrix submatrix sums.
        """
        function = self._functions[dimension]
        return (
            isinstance(function, PairwiseAggregationFunction)
            and function.uses_mean_aggregation
        )

    def pairwise(
        self,
        group_a: TaggingActionGroup,
        group_b: TaggingActionGroup,
        dimension: Dimension,
        criterion: Criterion,
    ) -> float:
        """Evaluate the pairwise comparison for one pair on one dimension."""
        return self._functions[dimension].pairwise(group_a, group_b, dimension, criterion)

    def score(self, groups, dimension: Dimension, criterion: Criterion) -> float:
        """Evaluate the aggregated dual mining score for a group set."""
        return self._functions[dimension].score(groups, dimension, criterion)


def default_function_suite(
    user_comparison: str = "structural",
    item_comparison: str = "structural",
) -> FunctionSuite:
    """Build the paper's default function suite.

    ``user_comparison`` / ``item_comparison`` select between
    ``"structural"`` (attribute-value similarity, the configuration used
    in the experiments of Section 6) and ``"set-overlap"`` (Jaccard over
    covered entities).  The tag dimension always uses signature cosine.
    """
    choices = {
        "structural": structural_pairwise,
        "set-overlap": set_overlap_pairwise,
    }
    if user_comparison not in choices:
        raise ValueError(f"unknown user comparison {user_comparison!r}")
    if item_comparison not in choices:
        raise ValueError(f"unknown item comparison {item_comparison!r}")
    matrix_builders: Dict[Dimension, Callable] = {
        Dimension.TAGS: tag_signature_pairwise_matrix,
    }
    if user_comparison == "structural":
        matrix_builders[Dimension.USERS] = structural_pairwise_matrix
    if item_comparison == "structural":
        matrix_builders[Dimension.ITEMS] = structural_pairwise_matrix
    return FunctionSuite(
        users=PairwiseAggregationFunction(
            choices[user_comparison], MEAN_AGGREGATOR, name=f"users-{user_comparison}"
        ),
        items=PairwiseAggregationFunction(
            choices[item_comparison], MEAN_AGGREGATOR, name=f"items-{item_comparison}"
        ),
        tags=PairwiseAggregationFunction(
            tag_signature_pairwise, MEAN_AGGREGATOR, name="tags-signature-cosine"
        ),
        matrix_builders=matrix_builders,
    )
