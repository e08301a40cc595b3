"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md for the index).  The workload scale is chosen
so the whole suite completes in a few minutes on a laptop while keeping
the paper's qualitative shape: the Exact baseline enumerates the full
candidate-set space and therefore dominates the heuristics' cost, and
the heuristics stay close to Exact's result quality.

Each benchmark also writes the rows it produced to
``benchmarks/output/<name>.txt`` so the regenerated figures can be read
after a run (pytest-benchmark reports only the timings).  Wall-clock
tables (``*_time``) change on every run, so they go to the untracked
``benchmarks/output/timing/`` instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import experiment_environment

OUTPUT_DIR = Path(__file__).parent / "output"
TIMING_DIR = OUTPUT_DIR / "timing"


def bench_config() -> ExperimentConfig:
    """The single experiment configuration shared by every benchmark."""
    return ExperimentConfig(
        n_users=150,
        n_items=300,
        n_actions=4000,
        seed=42,
        max_groups=90,
        scaling_bins=(0.25, 0.5, 1.0),
        user_study_judges=30,
    )


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()


@pytest.fixture(scope="session")
def environment(config):
    """The (dataset, prepared session) pair shared across benchmarks."""
    return experiment_environment(config)


@pytest.fixture(scope="session")
def write_artifact():
    """Write a rendered figure to benchmarks/output/<name>.txt.

    Wall-clock tables (``*_time``) land in benchmarks/output/timing/,
    which git ignores.
    """

    def _write(name: str, text: str) -> Path:
        directory = TIMING_DIR if name.endswith("_time") else OUTPUT_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return _write
