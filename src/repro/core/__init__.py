"""TagDM core: the paper's primary contribution.

This package formalises the Tagging Behavior Dual Mining framework of
Das et al. (PVLDB 2012): describable tagging-action groups, dual mining
functions over the user/item/tag dimensions, problem specifications
(constraints + optimisation goals), group tag signatures, the
NP-completeness reduction, and the :class:`~repro.core.framework.TagDM`
session that ties everything to the mining algorithms.
"""

from repro.core.exceptions import (
    InvalidProblemError,
    NotFittedError,
    NullResultError,
    ReproError,
)
from repro.core.measures import (
    Criterion,
    Dimension,
    DualMiningFunction,
    PairwiseAggregationFunction,
)
from repro.core.groups import (
    GroupDescription,
    TaggingActionGroup,
    build_group,
    group_support,
)
from repro.core.enumeration import (
    GroupEnumerationConfig,
    enumerate_full_conjunction_groups,
    enumerate_groups,
    enumerate_partial_conjunction_groups,
)
from repro.core.functions import (
    FunctionSuite,
    default_function_suite,
    jaccard_items_similarity,
    structural_similarity,
    tag_signature_pairwise,
    value_similarity,
)
from repro.core.signatures import AttributeVectorizer, GroupSignatureBuilder, signature_matrix
from repro.core.problem import (
    Constraint,
    Objective,
    TABLE1_PROBLEMS,
    TABLE1_SPECS,
    TagDMProblem,
    enumerate_problem_instances,
    table1_problem,
)
from repro.core.result import MiningResult
from repro.core.framework import TagDM
from repro.core.incremental import IncrementalTagDM, IncrementalUpdateReport
from repro.core.persistence import load_session, save_session

__all__ = [
    "IncrementalTagDM",
    "IncrementalUpdateReport",
    "ReproError",
    "NotFittedError",
    "InvalidProblemError",
    "NullResultError",
    "Criterion",
    "Dimension",
    "DualMiningFunction",
    "PairwiseAggregationFunction",
    "GroupDescription",
    "TaggingActionGroup",
    "build_group",
    "group_support",
    "GroupEnumerationConfig",
    "enumerate_groups",
    "enumerate_full_conjunction_groups",
    "enumerate_partial_conjunction_groups",
    "FunctionSuite",
    "default_function_suite",
    "structural_similarity",
    "jaccard_items_similarity",
    "tag_signature_pairwise",
    "value_similarity",
    "GroupSignatureBuilder",
    "AttributeVectorizer",
    "signature_matrix",
    "Constraint",
    "Objective",
    "TagDMProblem",
    "TABLE1_PROBLEMS",
    "TABLE1_SPECS",
    "table1_problem",
    "enumerate_problem_instances",
    "MiningResult",
    "CbsInstance",
    "TagDMReduction",
    "reduce_cbs_to_tagdm",
    "has_complete_bipartite_subgraph",
    "decide_reduced_tagdm",
    "random_bipartite_instance",
    "TagDM",
    "save_session",
    "load_session",
]

#: The NP-completeness reduction of Section 3 needs networkx; it loads on
#: first use (PEP 562) so importing the solve and serving stack does not.
_COMPLEXITY_NAMES = frozenset(
    {
        "CbsInstance",
        "TagDMReduction",
        "decide_reduced_tagdm",
        "has_complete_bipartite_subgraph",
        "random_bipartite_instance",
        "reduce_cbs_to_tagdm",
    }
)


def __getattr__(name: str):
    if name in _COMPLEXITY_NAMES:
        from repro.core import complexity

        return getattr(complexity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
