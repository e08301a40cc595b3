"""Algorithm interface and registry.

All TagDM solvers share one contract: given a problem specification, a
list of candidate tagging-action groups (with signatures computed) and a
function suite, return a :class:`~repro.core.result.MiningResult`.  The
registry lets the :class:`~repro.core.framework.TagDM` session and the
benchmark harness construct solvers by name.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.core.functions import FunctionSuite
from repro.core.groups import TaggingActionGroup
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.algorithms.scoring import PairwiseMatrixCache, ProblemEvaluator

__all__ = [
    "MiningAlgorithm",
    "register_algorithm",
    "build_algorithm",
    "available_algorithms",
    "algorithm_class",
    "algorithm_options",
]


class MiningAlgorithm(ABC):
    """Base class of all TagDM solvers."""

    #: Registry / reporting name, e.g. ``"sm-lsh-fo"``.
    name: str = "abstract"

    @abstractmethod
    def _solve(
        self,
        problem: TagDMProblem,
        groups: Sequence[TaggingActionGroup],
        evaluator: ProblemEvaluator,
    ) -> MiningResult:
        """Algorithm-specific solving logic (timing handled by ``solve``)."""

    def solve(
        self,
        problem: TagDMProblem,
        groups: Sequence[TaggingActionGroup],
        functions: FunctionSuite,
        cache: Optional[PairwiseMatrixCache] = None,
        lsh_provider: Optional[Callable] = None,
    ) -> MiningResult:
        """Solve ``problem`` over ``groups`` and time the call.

        ``cache`` optionally supplies a pre-built pairwise matrix cache
        over the same group list (the :class:`~repro.core.framework.TagDM`
        session shares one across solve calls so repeated runs do not pay
        for the matrices again).  ``lsh_provider`` optionally supplies
        pre-built LSH indexes over the signature matrix -- a callable
        ``(n_bits, n_tables, seed, folded) -> CosineLshIndex | None``
        that the SM-LSH family consults before stacking and projecting
        vectors itself; ``folded`` names the dimensions SM-LSH-Fo folds
        into the vectors (empty for the raw signatures).
        """
        if not groups:
            raise ValueError("cannot solve a TagDM problem over zero candidate groups")
        evaluator = ProblemEvaluator(problem, functions)
        self._shared_cache = cache
        self._lsh_provider = lsh_provider
        started = time.perf_counter()
        result = self._solve(problem, list(groups), evaluator)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _matrix_cache(
        self,
        groups: Sequence[TaggingActionGroup],
        functions: FunctionSuite,
    ) -> PairwiseMatrixCache:
        """Return the shared matrix cache when it covers ``groups``."""
        cache = getattr(self, "_shared_cache", None)
        if cache is not None and len(cache) == len(groups) and cache.groups == list(groups):
            return cache
        return PairwiseMatrixCache(groups, functions)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _result_from_groups(
        self,
        problem: TagDMProblem,
        groups: Sequence[TaggingActionGroup],
        evaluator: ProblemEvaluator,
        evaluations: int,
        metadata: Optional[Dict[str, object]] = None,
    ) -> MiningResult:
        """Package a chosen group set (possibly empty) into a result."""
        chosen = tuple(groups)
        if not chosen:
            return MiningResult(
                problem=problem,
                algorithm=self.name,
                groups=(),
                objective_value=0.0,
                constraint_scores={},
                support=0,
                feasible=False,
                evaluations=evaluations,
                metadata=dict(metadata or {}),
            )
        evaluation = evaluator.evaluate(chosen)
        return MiningResult(
            problem=problem,
            algorithm=self.name,
            groups=chosen,
            objective_value=evaluation.objective_value,
            constraint_scores=evaluation.constraint_scores,
            support=evaluation.support,
            feasible=evaluation.feasible,
            evaluations=evaluations,
            metadata=dict(metadata or {}),
        )


_REGISTRY: Dict[str, Type[MiningAlgorithm]] = {}


def register_algorithm(cls: Type[MiningAlgorithm]) -> Type[MiningAlgorithm]:
    """Class decorator adding an algorithm to the registry by its name."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise ValueError("algorithm classes must define a non-default 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def available_algorithms() -> List[str]:
    """Names of all registered algorithms."""
    return sorted(_REGISTRY)


def algorithm_class(name: str) -> Type[MiningAlgorithm]:
    """The registered algorithm class for ``name`` (case-insensitive).

    Raises ``KeyError`` naming the available algorithms when unknown --
    the wire API's spec validator maps that to a validation error.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    return _REGISTRY[key]


def algorithm_options(name: str) -> List[str]:
    """The keyword options the named algorithm's constructor accepts.

    The wire API validates a spec's ``options`` against this list so a
    typo'd parameter is rejected instead of silently dropped (which is
    what :func:`build_algorithm`'s permissive filtering would do).
    """
    import inspect

    cls = algorithm_class(name)
    return sorted(set(inspect.signature(cls.__init__).parameters) - {"self"})


def build_algorithm(name: str, **options) -> MiningAlgorithm:
    """Construct a registered algorithm by name.

    Only keyword options accepted by the target constructor are passed
    through, so callers can forward a common option set (e.g. ``seed``)
    to any algorithm.
    """
    cls = algorithm_class(name)
    import inspect

    accepted = set(inspect.signature(cls.__init__).parameters) - {"self"}
    filtered = {k: v for k, v in options.items() if k in accepted}
    return cls(**filtered)
