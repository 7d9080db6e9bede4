"""Start and stop ``python -m repro serve`` as a subprocess.

Each daemon gets a private compile-cache directory and writes its
journal, event log and stderr into its own directory, so no state leaks
between daemons, runs or commits.  The daemon runs with its default
configuration (2 executor threads, ``jobs=1``, request tracing on).
"""

from __future__ import annotations

import ctypes
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Longest wait for the "listening" line (an import plus a bind).
LISTEN_TIMEOUT_S = 60.0

#: Grace for a SIGTERM drain before the daemon is killed.
STOP_TIMEOUT_S = 30.0

#: ``repro`` arguments of every daemon; ``--journal`` and ``--event-log``
#: follow, pointing into the daemon's own directory.
FLAGS = ("serve", "--port", "0")


def daemon_env(root: Path, cache_dir: Path) -> dict:
    """The daemon's environment: this checkout's sources, a private
    compile cache, and no ``REPRO_*`` setting inherited from the caller
    (an inherited engine or tracing switch would change what is
    measured)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_COMPILE_CACHE_DIR"] = str(cache_dir)
    return env


#: ``prctl`` option: signal the child when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child before ``exec``: a benchmark killed outright
    must not leave its daemon behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class Daemon:
    """One daemon process; :meth:`stop` always reaps it."""

    def __init__(self, root: Path, workdir: Path, cache_dir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.journal = workdir / "journal.jsonl"
        self.event_log = workdir / "events.jsonl"
        self.flags = [*FLAGS, "--journal", str(self.journal),
                      "--event-log", str(self.event_log)]
        self._stderr = open(workdir / "daemon.stderr", "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.flags],
            cwd=root, env=daemon_env(root, cache_dir),
            stdout=subprocess.PIPE, stderr=self._stderr,
            preexec_fn=_die_with_parent)
        try:
            announce = self._read_listening()
        except BaseException:
            self.stop()
            raise
        self.listening = time.perf_counter()
        self.url = f"http://{announce['host']}:{announce['port']}"

    def _read_listening(self) -> dict:
        deadline = self.spawned + LISTEN_TIMEOUT_S
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self.process.poll() is not None:
                    raise RuntimeError(
                        "daemon did not announce a listening port; see "
                        f"{self.workdir / 'daemon.stderr'}")
                if selector.select(timeout=min(remaining, 0.5)):
                    chunk = os.read(self.process.stdout.fileno(), 4096)
                    if not chunk:
                        continue
                    buffer += chunk
        announce = json.loads(buffer.split(b"\n", 1)[0])
        if announce.get("event") != "listening":
            raise RuntimeError(f"unexpected daemon announcement {announce}")
        return announce

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL after the grace."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        else:
            self.process.communicate()
        self._stderr.close()
