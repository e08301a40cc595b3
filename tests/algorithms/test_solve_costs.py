"""Deterministic cost guards of the solve path on the benchmark's ``mine`` mix.

Counts calls rather than time, so host noise cannot hide a regression:
over one warm view of the ``mine`` corpus, two passes of its spec mix

* count group support on the packed membership words only -- the
  set-union :func:`~repro.core.groups.group_support` runs solely in the
  final evaluation of each returned group set;
* read SM-LSH's pairwise feasibility off the cached constraint matrices,
  never through ``FunctionSuite.pairwise``;
* project no LSH index on the second pass: the view caches the plain and
  the folded (SM-LSH-Fo) indexes alike.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.workloads import MINE_SHAPE, SESSION_SEED, mine_inputs  # noqa: E402
from repro.algorithms import scoring  # noqa: E402
from repro.algorithms.base import MiningAlgorithm  # noqa: E402
from repro.algorithms.sm_lsh import _BaseSmLsh  # noqa: E402
from repro.core.functions import FunctionSuite  # noqa: E402
from repro.core.incremental import IncrementalTagDM  # noqa: E402
from repro.index.lsh import CosineLshIndex  # noqa: E402


class _Counts:
    def __init__(self) -> None:
        self.depth = {"result": 0, "greedy": 0}
        self.calls = dict.fromkeys(
            ("result", "support", "support_outside_result", "greedy",
             "pairwise_in_greedy", "lsh_build"),
            0,
        )


def _instrument(monkeypatch, counts: _Counts) -> None:
    def nested(owner, name, scope, counter):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts.depth[scope] += 1
            counts.calls[counter] += 1
            try:
                return original(*args, **kwargs)
            finally:
                counts.depth[scope] -= 1

        monkeypatch.setattr(owner, name, wrapper)

    def counted(owner, name, record):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            record()
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def support_call():
        counts.calls["support"] += 1
        if not counts.depth["result"]:
            counts.calls["support_outside_result"] += 1

    def pairwise_call():
        if counts.depth["greedy"]:
            counts.calls["pairwise_in_greedy"] += 1

    def build_call():
        counts.calls["lsh_build"] += 1

    nested(MiningAlgorithm, "_result_from_groups", "result", "result")
    nested(_BaseSmLsh, "_greedy_feasible_candidates", "greedy", "greedy")
    counted(scoring, "group_support", support_call)
    counted(FunctionSuite, "pairwise", pairwise_call)
    counted(CosineLshIndex, "build", build_call)


@pytest.fixture(scope="module")
def mine_view():
    session = IncrementalTagDM(
        MINE_SHAPE.dataset(), enumeration=MINE_SHAPE.enumeration(), seed=SESSION_SEED
    ).prepare()
    return session.freeze(epoch=1)


def test_mine_mix_cost_guards(mine_view, monkeypatch):
    specs = [spec.validate() for spec in mine_inputs(1).specs]
    counts = _Counts()
    _instrument(monkeypatch, counts)

    for problem, algorithm in specs:
        mine_view.solve(problem, algorithm=algorithm)
    first = dict(counts.calls)
    for key in counts.calls:
        counts.calls[key] = 0
    for problem, algorithm in specs:
        mine_view.solve(problem, algorithm=algorithm)
    second = dict(counts.calls)

    for calls in (first, second):
        assert calls["support_outside_result"] == 0
        assert calls["support"] > 0  # the final evaluations still use it
        assert calls["pairwise_in_greedy"] == 0
        assert calls["greedy"] > 0
    assert first["lsh_build"] > 0
    assert second["lsh_build"] == 0
