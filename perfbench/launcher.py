"""Start and stop the fleet process of one benchmark pass.

The fleet (router plus one worker process) runs outside the load
generator's process: :class:`FleetProcess` launches
``perfbench/fleet_host.py`` with ``subprocess``, reads the line it
prints once the fleet serves, and on :meth:`FleetProcess.stop` asks it
to shut down and waits until the fleet process and its children (the
worker, multiprocessing's resource tracker) have all exited.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0


def _children(pid: int) -> List[int]:
    """Pids of the live children of ``pid`` (all of its threads)."""
    found: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.extend(int(child) for child in (task / "children").read_text().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` names a running (not zombie) process."""
    try:
        data = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return data[data.rfind(")") + 2 :].split()[0] != "Z"


class FleetProcess:
    """One launched fleet process and what it reported when ready."""

    def __init__(
        self,
        checkout: Path,
        workload: str,
        root: Path,
        trace_dir: Optional[Path] = None,
    ) -> None:
        self.checkout = Path(checkout)
        self.workload = workload
        self.root = Path(root)
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.ready: Dict[str, object] = {}
        #: ``time.perf_counter()`` just before the launch.
        self.launched_at = 0.0

    @property
    def url(self) -> str:
        return str(self.ready["url"])

    @property
    def router_pid(self) -> int:
        return self.process.pid

    @property
    def worker_pid(self) -> int:
        return int(self.ready["worker_pid"])

    def setup_seconds(self, first_served_at: float) -> float:
        """Launch-to-first-response time, minus synthetic corpus generation."""
        return first_served_at - self.launched_at - float(self.ready["generate_s"])

    def _environment(self) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [str(self.checkout / "src"), str(self.checkout)]
        if self.trace_dir is not None:
            paths.insert(0, str(self.checkout / "perfbench" / "hook"))
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        else:
            env.pop("PERFBENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def start(self) -> "FleetProcess":
        """Launch the fleet process; block until it serves."""
        self.root.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            str(self.checkout / "perfbench" / "fleet_host.py"),
            "--workload",
            self.workload,
            "--root",
            str(self.root),
        ]
        self.launched_at = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._environment(),
            cwd=str(self.checkout),
        )
        line = self._read_line(READY_TIMEOUT_S)
        if not line:
            self.stop()
            raise RuntimeError(f"fleet process exited before serving (code {self.process.returncode})")
        self.ready = json.loads(line)
        return self

    def _read_line(self, timeout: float) -> bytes:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not readable:
            return b""
        return self.process.stdout.readline()

    def stop(self) -> None:
        """Ask the fleet to close; wait for it and its children to exit."""
        process = self.process
        if process is None:
            return
        # The worker and multiprocessing's resource tracker outlive the
        # fleet process by a moment; wait for them too.
        children = _children(process.pid)
        try:
            process.stdin.write(b"stop\n")
            process.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=STOP_TIMEOUT_S)
        process.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for child in children:
            while _alive(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(child):
                os.kill(child, signal.SIGKILL)
        self.process = None

    def __enter__(self) -> "FleetProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
