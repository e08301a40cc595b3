"""The solve and serving stack imports and runs without networkx.

Only the Section 3 NP-completeness reduction (``repro.core.complexity``)
needs networkx; ``repro.core`` loads it on first attribute access, so a
worker process spawned by the fleet never pays for the import.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = None  # any import of it now fails

    import repro.serving.fleet  # noqa: F401
    from repro.core.enumeration import GroupEnumerationConfig
    from repro.core.incremental import IncrementalTagDM
    from repro.core.problem import table1_problem
    from repro.dataset.synthetic import generate_movielens_style

    dataset = generate_movielens_style(n_users=30, n_items=60, n_actions=300)
    session = IncrementalTagDM(
        dataset, enumeration=GroupEnumerationConfig(min_support=5, max_groups=40)
    ).prepare()
    view = session.freeze(epoch=1)
    support = session.default_support()
    similar = view.solve(table1_problem(2, k=3, min_support=support), algorithm="sm-lsh-fo")
    diverse = view.solve(table1_problem(4, k=3, min_support=support), algorithm="dv-fdp-fo")
    print(len(similar.groups), len(diverse.groups), sys.modules["networkx"])
    """
)


def test_serving_stack_runs_without_networkx():
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    similar, diverse, networkx = completed.stdout.split()
    assert int(similar) > 0 and int(diverse) > 0
    assert networkx == "None"


def test_complexity_names_still_resolve_from_repro_core():
    import repro.core
    from repro.core import complexity

    assert repro.core.CbsInstance is complexity.CbsInstance
    assert repro.core.reduce_cbs_to_tagdm is complexity.reduce_cbs_to_tagdm
