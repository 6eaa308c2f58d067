"""Shared plumbing: cohorts, the server under test, an HTTP client, stats.

Everything here runs from the root of a source checkout.  The server is
always the real ``python -m repro serve`` program started from the
checkout's ``src/``; the cohort reaches it only as a dataset file passed
with ``--load-dataset``.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (datasets, WAL directories, server logs);
#: removed when the run ends.
RUNS = ROOT / ".perfbench_runs"
#: Span dumps from traced runs; kept after the run.
OUT = ROOT / ".perfbench_out"

now = time.perf_counter


def require_source() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# cohorts
# ---------------------------------------------------------------------------
def make_population(owners: int, strangers: int, friends: int, seed: int):
    """The synthetic cohort for a workload, a pure function of ``seed``."""
    from repro.synth import EgoNetConfig, generate_study_population

    return generate_study_population(
        num_owners=owners,
        ego_config=EgoNetConfig(num_friends=friends, num_strangers=strangers),
        seed=seed,
    )


def write_dataset(population, path: Path) -> Path:
    """Write ``population`` as a ``--load-dataset`` file."""
    from repro.io.dataset import save_population

    save_population(population, path)
    return path


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------
class Reply:
    """One request's outcome as the client saw it."""

    __slots__ = ("status", "body", "seconds", "error")

    def __init__(self, status, body, seconds, error=None):
        self.status = status
        self.body = body
        self.seconds = seconds
        self.error = error  # "timeout" | "connection" | None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def json(self) -> Any:
        return json.loads(self.body)


class Client:
    """A keep-alive HTTP/1.1 client that reconnects after a failure."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urllib.parse.urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self, method: str, path: str, document: Any = None
    ) -> Reply:
        body = None if document is None else json.dumps(document).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        start = now()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
        except socket.timeout:
            self.close()
            return Reply(None, b"", now() - start, "timeout")
        except (OSError, http.client.HTTPException):
            self.close()
            return Reply(None, b"", now() - start, "connection")
        return Reply(response.status, payload, now() - start)

    def get(self, path: str) -> Reply:
        return self.request("GET", path)

    def post(self, path: str, document: Any) -> Reply:
        return self.request("POST", path, document)

    def get_json(self, path: str) -> Any:
        reply = self.get(path)
        if not reply.ok:
            raise RuntimeError(f"GET {path} -> {reply.status or reply.error}")
        return reply.json()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ---------------------------------------------------------------------------
# the server under test
# ---------------------------------------------------------------------------
_SERVING = re.compile(r"^serving on (http://\S+)$", re.MULTILINE)


class Server:
    """``python -m repro serve --async`` with a group-commit WAL.

    Started in its own process group so that stopping it also reaches
    the shard workers a ``--shards`` router spawns.
    """

    def __init__(
        self, run_dir: Path, dataset: Path, seed: int, shards: int = 0
    ) -> None:
        self.log_path = run_dir / "server.log"
        argv = [
            sys.executable, "-m", "repro", "serve", "--async",
            "--host", "127.0.0.1", "--port", "0",
            "--load-dataset", str(dataset),
            "--wal-dir", str(run_dir / "wal"),
            "--wal-fsync", "group",
            "--seed", str(seed),
        ]
        if shards:
            argv += ["--shards", str(shards)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            start_new_session=True,
        )
        self.url: str | None = None

    def wait_ready(self, timeout: float = 120.0) -> str:
        """Block until the server announced itself and ``/readyz`` is 200."""
        deadline = now() + timeout
        while self.url is None:
            match = _SERVING.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.url = match.group(1)
                break
            self._check_alive()
            if now() > deadline:
                raise RuntimeError("server did not announce itself in time")
            time.sleep(0.02)
        client = Client(self.url, timeout=5.0)
        try:
            while not client.get("/readyz").ok:
                self._check_alive()
                if now() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.02)
        finally:
            client.close()
        return self.url

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            tail = self.log_path.read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(
                f"server exited with {self.proc.returncode}:\n{tail}"
            )

    def pids(self) -> list[int]:
        """The server process and all its descendants."""
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    children = (task / "children").read_text().split()
                except OSError:
                    continue
                frontier.extend(int(child) for child in children)
        return found

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the serving processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the group (graceful drain), then make sure all is gone."""
        pids = self.pids() if self.proc.poll() is None else []
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        deadline = now() + 10
        while any(_alive(pid) for pid in pids) and now() < deadline:
            time.sleep(0.05)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._log.close()


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()
    except OSError:
        return False
    return state[0] != "Z"


def fresh_run_dir(workload: str) -> Path:
    path = RUNS / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    if position == low:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values``.

    A typical latency that neither jumps between request classes, as a
    median can where two classes meet, nor follows the rare slow
    request, as a mean does.
    """
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def backlog_profile(due: Sequence[float], sent: Sequence[float]):
    """Requests due but not yet sent, at each due time: (max, at end).

    ``sent[j] >= due[j]`` always, so everything sent by ``due[i]`` was
    due by then too: the backlog at ``due[i]`` is ``i + 1`` minus the
    number of sends at or before it.
    """
    sends = sorted(sent)
    backlog = [
        index + 1 - bisect.bisect_right(sends, moment)
        for index, moment in enumerate(due)
    ]
    return max(backlog), backlog[-1]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#: A fixed CPU task in the program's own idiom: JSON round trips, dict
#: and set building over records, and a small dense matrix product.
_PROBE_DOC = {
    "items": [
        {"id": i, "name": f"user-{i}", "tags": ["a", "b", str(i % 7)],
         "w": i * 0.5}
        for i in range(400)
    ]
}
#: The probe's median seconds on an idle 2-core host; timings reported
#: "at reference speed" are scaled to a host where it takes this long.
PROBE_REFERENCE_S = 0.005


def _probe_task() -> None:
    import numpy as np

    matrix = np.arange(3600, dtype=float).reshape(60, 60) / 3600.0
    for _ in range(3):
        document = json.loads(json.dumps(_PROBE_DOC))
        groups: dict[str, set] = {}
        for item in document["items"]:
            groups.setdefault(item["tags"][2], set()).add(item["id"])
        sorted(groups.items())
        (matrix @ matrix).sum()


class SpeedProbe:
    """How fast the host runs right now, from a fixed CPU task.

    On a shared host the speed of the same code drifts by a third over
    minutes, all processes together, so two runs of the same program
    differ by more than any regression worth catching.  The probe runs
    in the benchmark's process while the server is idle, beside the
    timed work; ``scale`` turns a time measured over the same stretch
    into the time at reference speed.  Over 10-second windows of an
    in-process rescore loop, raw medians varied by 18% (coefficient of
    variation) and rescore time over probe time by 2%.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        _probe_task()  # imports and first-call costs stay out of samples

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = now()
            _probe_task()
            self.samples.append(now() - start)

    def scale(self) -> float:
        """Factor from a time measured now to one at reference speed."""
        return PROBE_REFERENCE_S / median(self.samples)
