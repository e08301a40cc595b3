"""Startup hook of the traced benchmark run.

The traced run puts this directory first on ``PYTHONPATH`` of the fleet
process, so Python imports this module at start-up there and in the
worker processes the fleet spawns (they inherit the environment).  When
``PERFBENCH_TRACE_DIR`` is set it installs the span wrappers of
:mod:`perfbench.tracing`; otherwise it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    from perfbench import tracing

    tracing.install(os.environ["PERFBENCH_TRACE_DIR"])
