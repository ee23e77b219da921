"""The server under test: one ``repro.serve`` subprocess and its hygiene.

The stock deployment is ``python -m repro.serve --plan-dir DIR --port 0
--workers 2 --jobs-dir DIR --quiet`` run from ``src/`` (so ``-m`` finds the
package without touching the environment, which the server inherits
unchanged).  Its stdout is a pseudo-terminal, so the CLI banner that names
the ephemeral port arrives line-buffered, as it would in a console.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import pty
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BANNER = re.compile(r"serving \d+ plan\(s\) at http://([0-9.]+):(\d+)")


class LifecycleError(RuntimeError):
    """The server broke a start-up or shutdown rule; the run fails."""


def load_validator():
    """``tests/prometheus.py`` as a module (imported, never modified)."""
    spec = importlib.util.spec_from_file_location(
        "loadbench_prometheus", ROOT / "tests" / "prometheus.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def stock_argv(plan_dir: Path, jobs_dir: Path) -> List[str]:
    """The deployment under test: CLI defaults except these flags."""
    return ["-m", "repro.serve", "--plan-dir", str(plan_dir), "--port", "0",
            "--workers", "2", "--jobs-dir", str(jobs_dir), "--quiet"]


def traced_argv(plan_dir: Path, jobs_dir: Path, trace_dir: Path) -> List[str]:
    """The same deployment behind the span wrappers of ``tracing.py``."""
    script = str(Path(__file__).resolve().parent / "traced_serve.py")
    return [script, "--trace-dir", str(trace_dir)] + stock_argv(plan_dir, jobs_dir)[2:]


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def _cmdline(pid: int) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return None


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise LifecycleError(f"process {pid} reports no VmHWM")


class Server:
    """Spawn, probe, scrape and stop one server process."""

    def __init__(self, argv: List[str]) -> None:
        self.argv = [sys.executable] + argv
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._output = bytearray()
        self._reader: Optional[threading.Thread] = None
        self._workers: Dict[int, str] = {}

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def output(self) -> str:
        return self._output.decode("utf-8", "replace")

    # ------------------------------------------------------------------ #
    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the banner; returns the spawn time (monotonic)."""
        master, slave = pty.openpty()
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            self.argv, cwd=str(SRC), stdin=subprocess.DEVNULL,
            stdout=slave, stderr=slave, start_new_session=True,
        )
        os.close(slave)
        self._reader = threading.Thread(target=self._drain, args=(master,),
                                        name="server-output", daemon=True)
        self._reader.start()
        deadline = spawned + timeout
        while time.monotonic() < deadline:
            match = BANNER.search(self.output())
            if match:
                self.port = int(match.group(2))
                return spawned
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise LifecycleError(f"no serving banner; output:\n{self.output()}")

    def _drain(self, master: int) -> None:
        try:
            while True:
                chunk = os.read(master, 65536)
                if not chunk:
                    break
                self._output.extend(chunk)
        except OSError:
            pass  # EIO: every holder of the terminal's other end has exited
        finally:
            os.close(master)

    def get(self, path: str, timeout: float = 30.0):
        """One GET on a fresh connection: ``(status, body bytes)``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, body = self.get("/healthz")
                if status == 200 and json.loads(body).get("status") == "ok":
                    self._record_workers()
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise LifecycleError(f"/healthz never reported ok; output:\n{self.output()}")

    def _record_workers(self) -> None:
        for child in _children(self.process.pid):
            cmdline = _cmdline(child)
            if cmdline and "spawn_main" in cmdline:
                self._workers[child] = cmdline

    def worker_pids(self) -> List[int]:
        self._record_workers()
        return sorted(self._workers)

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the edge and worker processes, MB."""
        pids = [self.process.pid] + self.worker_pids()
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def scrape(self, validator) -> dict:
        """``/metrics``, validated by the repo's strict 0.0.4 parser."""
        status, body = self.get("/metrics")
        if status != 200:
            raise LifecycleError(f"/metrics answered {status}")
        return validator.validate(body.decode("utf-8"))

    # ------------------------------------------------------------------ #
    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM, then require exit 0, no orphan, no leaked segment."""
        process = self.process
        self._record_workers()
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise LifecycleError("server ignored SIGTERM")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        deadline = time.monotonic() + 10.0
        orphans = list(self._workers)
        while orphans and time.monotonic() < deadline:
            orphans = [pid for pid, cmd in self._workers.items() if _cmdline(pid) == cmd]
            if orphans:
                time.sleep(0.05)
        if orphans:
            problems.append(f"orphaned worker processes {orphans}")
            self.kill()
        prefix = f"rps{process.pid:x}c"
        leaked = sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))
        if leaked:
            problems.append(f"leftover shared-memory segments {leaked}")
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        if problems:
            raise LifecycleError("; ".join(problems) + f"; output:\n{self.output()}")

    def kill(self) -> None:
        """Last resort on a failed run: kill the server's whole session.

        The server leads its own process group, so this also reaches
        workers that outlived it.
        """
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
