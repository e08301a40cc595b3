"""Ablation: LSH parameters (hash width d' and number of tables l).

The paper uses l = 1 table and an initial width of d' = 10 hash
functions.  This ablation sweeps both knobs on Problem 1 and records the
effect on run time (the benchmark timings), result quality and how much
iterative relaxation was needed.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import render_figure
from repro.experiments.runner import build_problem
from repro.algorithms import build_algorithm

SETTINGS = (
    {"n_bits": 4, "n_tables": 1},
    {"n_bits": 10, "n_tables": 1},
    {"n_bits": 16, "n_tables": 1},
    {"n_bits": 10, "n_tables": 2},
    {"n_bits": 10, "n_tables": 4},
)

_rows = []


@pytest.mark.parametrize(
    "setting", SETTINGS, ids=[f"bits{s['n_bits']}-tables{s['n_tables']}" for s in SETTINGS]
)
def test_ablation_lsh_parameters(benchmark, config, environment, setting):
    dataset, session = environment
    problem = build_problem(1, dataset, config)
    algorithm = build_algorithm("sm-lsh-fo", seed=config.seed, **setting)
    view = session.current_view()

    def run():
        return algorithm.solve(problem, view.groups, view.functions, cache=view.matrix_cache())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows.append(
        {
            "n_bits": setting["n_bits"],
            "n_tables": setting["n_tables"],
            "objective": round(result.objective_value, 4),
            "feasible": result.feasible,
            "relaxations": result.metadata.get("relaxations"),
            "evaluations": result.evaluations,
        }
    )
    assert result.is_empty or result.feasible


def test_ablation_lsh_report(benchmark, write_artifact):
    rows = benchmark.pedantic(lambda: list(_rows), rounds=1, iterations=1)
    assert len(rows) == len(SETTINGS)
    write_artifact("ablation_lsh_params", render_figure("Ablation: LSH parameters", rows))
