"""The packed group-membership words and the support they count.

``PairwiseMatrixCache`` counts group support (Definition 1) as the
popcount of an OR over packed ``uint64`` membership rows.  These tests
pin it to the set-union reference :func:`repro.core.groups.group_support`
-- directly, over random overlapping and disjoint groups whose tuple
indices sit on the word boundaries, and end to end, by solving Table 1
problems once on the bitset path and once on the reference.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.algorithms import scoring
from repro.algorithms.scoring import PairwiseMatrixCache, membership_words
from repro.api.diff import comparable_payload
from repro.core.groups import GroupDescription, TaggingActionGroup, group_support
from repro.core.problem import table1_problem

#: Tuple indices at the edges of the first two words.
BOUNDARY = (0, 63, 64)


def make_groups(index_sets):
    return [
        TaggingActionGroup(
            description=GroupDescription(predicates=(("user.id", str(position)),)),
            tuple_indices=tuple(sorted(indices)),
        )
        for position, indices in enumerate(index_sets)
    ]


def overlapping_groups(rng, n_tuples, n_groups):
    """Random, overlapping tuple sets; the boundary tuples and the last
    tuple each belong to several groups."""
    index_sets = []
    for _ in range(n_groups):
        size = int(rng.integers(1, n_tuples // 2))
        indices = set(rng.choice(n_tuples, size=size, replace=False).tolist())
        if rng.random() < 0.5:
            indices |= {*BOUNDARY, n_tuples - 1}
        index_sets.append(indices)
    return make_groups(index_sets)


def disjoint_groups(rng, n_tuples, n_groups):
    """A random partition of every tuple into ``n_groups`` groups."""
    order = rng.permutation(n_tuples)
    cuts = np.sort(rng.choice(np.arange(1, n_tuples), size=n_groups - 1, replace=False))
    return make_groups(part.tolist() for part in np.split(order, cuts))


@pytest.mark.parametrize("n_tuples", [65, 128, 200])
@pytest.mark.parametrize("layout", ["overlapping", "disjoint"])
@pytest.mark.parametrize("seed", range(4))
def test_bitset_support_equals_definition_1(n_tuples, layout, seed):
    rng = np.random.default_rng(seed)
    make = overlapping_groups if layout == "overlapping" else disjoint_groups
    groups = make(rng, n_tuples, n_groups=12)
    cache = PairwiseMatrixCache(groups, functions=None)
    assert cache.membership().shape == (12, (n_tuples + 63) // 64)
    for size in range(1, 6):
        subsets = np.array(
            [rng.choice(len(groups), size=size, replace=False) for _ in range(20)]
        )
        expected = [group_support([groups[i] for i in subset]) for subset in subsets]
        assert cache.batch_subset_support(subsets).tolist() == expected
        assert [cache.subset_support(subset.tolist()) for subset in subsets] == expected
    assert cache.subset_support([]) == 0
    assert cache.subset_support(range(len(groups))) == group_support(groups)


def test_membership_bits_sit_where_the_tuples_are():
    groups = make_groups([{0, 63}, {64}, {127, 128}])
    words = membership_words(groups)
    assert words.dtype == np.uint64
    assert words.tolist() == [
        [1 | 1 << 63, 0, 0],
        [0, 1, 0],
        [0, 1 << 63, 1],
    ]


def test_byte_table_popcount_matches_bitwise_count():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**63, size=(4, 7), dtype=np.uint64)
    words[0, 0] = np.uint64(2**64 - 1)
    words[1, 1] = np.uint64(1 << 63)
    expected = [[bin(int(word)).count("1") for word in row] for row in words]
    assert scoring._lut_bit_count(words).tolist() == expected
    assert scoring._bit_count(words).tolist() == expected


def test_membership_words_are_built_once_under_concurrent_solves(monkeypatch):
    groups = overlapping_groups(np.random.default_rng(1), 300, 30)
    cache = PairwiseMatrixCache(groups, functions=None)
    builds = []
    original = scoring.membership_words

    def counting(groups):
        builds.append(1)
        return original(groups)

    monkeypatch.setattr(scoring, "membership_words", counting)
    n_threads = 8
    start = threading.Barrier(n_threads, timeout=10)
    supports = []

    def solve():
        start.wait()
        supports.append(cache.subset_support([0, 1, 2]))

    threads = [threading.Thread(target=solve) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == [1]
    assert supports == [group_support(groups[:3])] * n_threads


# ----------------------------------------------------------------------
# Solve parity against the set-union reference
# ----------------------------------------------------------------------
def _reference_support(monkeypatch):
    """Route the cache's support back through :func:`group_support`."""
    monkeypatch.setattr(
        PairwiseMatrixCache,
        "subset_support",
        lambda cache, indices: group_support([cache.groups[i] for i in indices]),
    )
    monkeypatch.setattr(
        PairwiseMatrixCache,
        "batch_subset_support",
        lambda cache, subsets: np.array(
            [cache.subset_support(subset) for subset in np.asarray(subsets).tolist()],
            dtype=np.int64,
        ),
    )


def _payloads(problems, algorithm, groups, functions):
    payloads = []
    for problem in problems:
        solver = build_algorithm(algorithm, seed=7)
        payloads.append(comparable_payload(solver.solve(problem, groups, functions).to_dict()))
    return payloads


@pytest.mark.parametrize(
    "algorithm", ["sm-lsh", "sm-lsh-fi", "sm-lsh-fo", "dv-fdp-fi", "dv-fdp-fo", "exact"]
)
def test_solves_match_the_set_union_reference(prepared_session, algorithm, monkeypatch):
    groups = prepared_session.groups
    if algorithm == "exact":
        groups = sorted(groups, key=lambda group: group.support)[:10]
    # Every group holds over 100 of the 2000 tuples: only the larger
    # thresholds make support reject candidate sets.
    support = prepared_session.default_support()
    problems = [
        table1_problem(problem_id, k=k, min_support=min_support)
        for problem_id in range(1, 7)
        for k in (2, 3)
        for min_support in (support, 8 * support, 16 * support)
    ]
    bitset = _payloads(problems, algorithm, groups, prepared_session.functions)
    _reference_support(monkeypatch)
    reference = _payloads(problems, algorithm, groups, prepared_session.functions)
    assert bitset == reference
    assert any(payload["groups"] for payload in bitset)
