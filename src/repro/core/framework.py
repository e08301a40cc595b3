"""The TagDM session: dataset -> candidate groups -> signatures -> solve.

:class:`TagDM` is the top-level entry point of the library.  It wires the
substrates together exactly the way the paper's evaluation does
(Section 6):

1. enumerate candidate describable tagging-action groups over the
   dataset (cartesian product of attribute values, minimum support 5);
2. summarise each group's tags into a ``d``-dimensional signature via a
   topic model (LDA with ``d = 25`` in the paper);
3. hand the prepared groups to one of the mining algorithms (Exact,
   SM-LSH-Fi/Fo, DV-FDP-Fi/Fo) to solve a :class:`TagDMProblem`.

Example
-------
>>> from repro import TagDM, generate_movielens_style, table1_problem
>>> dataset = generate_movielens_style(n_actions=2000)
>>> session = TagDM(dataset, signature_backend="frequency").prepare()
>>> problem = table1_problem(1, k=3, min_support=len(dataset) // 100)
>>> result = session.solve(problem, algorithm="sm-lsh-fo")
>>> result.feasible, result.k  # doctest: +SKIP
(True, 3)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.enumeration import GroupEnumerationConfig, enumerate_groups
from repro.core.exceptions import NotFittedError
from repro.core.functions import FunctionSuite, default_function_suite
from repro.core.groups import TaggingActionGroup
from repro.core.problem import TagDMProblem
from repro.core.result import MiningResult
from repro.core.signatures import GroupSignatureBuilder
from repro.dataset.store import TaggingDataset

if TYPE_CHECKING:  # pragma: no cover - the view module imports this one
    from repro.core.incremental import SessionView

__all__ = ["TagDM"]


class TagDM:
    """A prepared TagDM analysis session over one dataset.

    Parameters
    ----------
    dataset:
        The tagging dataset to analyse.
    enumeration:
        Candidate-group enumeration configuration; defaults to full
        conjunctions over all attributes with minimum support 5 (the
        paper's construction).
    signature_builder:
        A pre-configured :class:`GroupSignatureBuilder`; if ``None`` one
        is created from ``signature_backend`` / ``signature_dimensions``.
    signature_backend:
        Topic-model backend for signatures when no builder is given:
        ``"frequency"`` (fast, default), ``"tfidf"`` or ``"lda"`` (the
        paper's evaluated configuration).
    signature_dimensions:
        Signature length ``d`` (paper: 25).
    function_suite:
        The per-dimension dual mining functions; defaults to structural
        user/item comparison and signature-cosine tag comparison.
    seed:
        Seed forwarded to stochastic components (LDA, LSH defaults).
    """

    def __init__(
        self,
        dataset: TaggingDataset,
        enumeration: Optional[GroupEnumerationConfig] = None,
        signature_builder: Optional[GroupSignatureBuilder] = None,
        signature_backend: str = "frequency",
        signature_dimensions: int = 25,
        function_suite: Optional[FunctionSuite] = None,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.enumeration = enumeration or GroupEnumerationConfig()
        if signature_builder is not None:
            self.signature_builder = signature_builder
            # Best effort for externally built builders; sessions built from
            # the ``signature_backend`` string record it exactly (below),
            # which is what refresh/refit paths must use.
            backend = getattr(signature_builder.topic_model, "name", "frequency")
            self.signature_backend = backend
        else:
            self.signature_builder = GroupSignatureBuilder(
                backend=signature_backend,
                n_dimensions=signature_dimensions,
                seed=seed,
            )
            self.signature_backend = signature_backend
        self.functions = function_suite or default_function_suite()
        self.seed = seed
        self._groups: Optional[List[TaggingActionGroup]] = None
        # The current solve view: owns every derived solve structure and
        # is dropped whenever the groups change (invalidate_caches).
        self._view: Optional["SessionView"] = None

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare(self) -> "TagDM":
        """Enumerate candidate groups and compute their tag signatures."""
        groups = enumerate_groups(self.dataset, self.enumeration)
        if not groups:
            raise ValueError(
                "group enumeration produced no candidate groups; lower "
                "min_support or use partial-conjunction mode"
            )
        self.signature_builder.build(groups)
        self._groups = groups
        self.invalidate_caches()
        return self

    def invalidate_caches(self) -> None:
        """Drop the current view and with it every derived solve cache.

        Called after anything that perturbs the groups or their
        signatures: a fresh :meth:`prepare`, incremental inserts, or a
        topic-model refresh.  Views already handed out keep their state;
        the next solve freezes a fresh one.
        """
        self._view = None

    @property
    def is_prepared(self) -> bool:
        """Whether :meth:`prepare` has been run."""
        return self._groups is not None

    def _require_prepared(self) -> None:
        if not self.is_prepared:
            raise NotFittedError("call TagDM.prepare() before using the session")

    @property
    def groups(self) -> List[TaggingActionGroup]:
        """The candidate tagging-action groups (after :meth:`prepare`)."""
        self._require_prepared()
        assert self._groups is not None
        return self._groups

    @property
    def n_groups(self) -> int:
        """Number of candidate groups."""
        return len(self.groups)

    def default_support(self, fraction: float = 0.01) -> int:
        """The paper's support threshold: ``fraction`` of the input tuples."""
        return max(1, int(round(fraction * self.dataset.n_actions)))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def freeze(self, epoch: int = 0) -> "SessionView":
        """Freeze the prepared groups into a new solve view and cache it.

        The view becomes the session's current view (see
        :meth:`current_view`).  It inherits the previous current view's
        signature matrix, pairwise-matrix cache and LSH indexes -- nothing
        was invalidated in between, so they still describe the same
        groups -- and builds whatever is missing lazily on first solve.
        ``epoch`` is the publication number a serving shard stamps on
        the view; plain sessions leave it at 0.
        """
        self._require_prepared()
        from repro.core.incremental import SessionView  # lazy: avoids a cycle

        self._view = SessionView(self, epoch=epoch)
        return self._view

    def current_view(self) -> "SessionView":
        """The cached solve view, frozen on first use after each invalidation.

        Every derived solve structure (signature matrix, pairwise
        matrices, LSH indexes) lives on the view, so repeated solves --
        the benchmark harness, the experiment sweeps -- pay for them
        only once per invalidation.
        """
        view = self._view
        if view is None:
            view = self.freeze()
        return view

    def solve(
        self,
        problem: TagDMProblem,
        algorithm: Union[str, object] = "auto",
        **algorithm_options,
    ) -> MiningResult:
        """Solve ``problem`` over the prepared groups.

        Runs :meth:`SessionView.solve <repro.core.incremental.SessionView.solve>`
        on :meth:`current_view`; see there for the algorithm names and
        the ``"auto"`` choice.
        """
        return self.current_view().solve(problem, algorithm=algorithm, **algorithm_options)

    def solve_all(
        self,
        problems: Sequence[TagDMProblem],
        algorithm: Union[str, object] = "auto",
        **algorithm_options,
    ) -> Dict[str, MiningResult]:
        """Solve several problems and return results keyed by problem name."""
        return {
            problem.name: self.solve(problem, algorithm=algorithm, **algorithm_options)
            for problem in problems
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> "TagDM":
        """Snapshot the prepared session to ``path``.

        Convenience wrapper over
        :func:`repro.core.persistence.save_session`; see that module for
        the snapshot format.  Returns ``self`` for chaining.
        """
        from repro.core.persistence import save_session  # lazy: avoids a cycle

        save_session(self, path)
        return self

    @classmethod
    def load(cls, path, dataset: TaggingDataset) -> "TagDM":
        """Warm-start a session from a snapshot written by :meth:`save`.

        ``dataset`` must be the corpus the snapshot was prepared over
        (typically reloaded from the SQLite store); a fingerprint check
        rejects mismatches.
        """
        from repro.core.persistence import load_session  # lazy: avoids a cycle

        return load_session(path, dataset)
