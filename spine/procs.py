"""Child processes: the program under test always runs in one.

The driver never measures itself.  Library workloads run
``spine/worker.py`` as a subprocess; ``serve-rw`` runs the real
``python -m repro serve``.  Every child gets the pinned BLAS thread
environment, writes only under the run's work directory, and is waited
for (or killed and waited for) before the driver moves on.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from spine.spec import ROOT

__all__ = [
    "PINNED_ENV", "CHILD_TIMEOUT", "work_directory", "run_worker",
    "cold_start", "spawn_options", "Server", "directory_bytes", "peak_rss_mib",
]

WORKER = Path(__file__).resolve().parent / "worker.py"
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: No child may outlive this; the contract allows a whole run 180 s.
CHILD_TIMEOUT = 150.0


@contextmanager
def work_directory(label: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed when the run ends."""
    path = ROOT / ".spine_work" / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


def _die_with_driver() -> None:
    """Runs in the child before exec: SIGKILL it when the driver dies, however the driver dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG


def spawn_options(workdir: Path) -> dict:
    """What every child is started with: pinned environment, checkout as cwd, tied to the driver's life."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"  # the server's announcement must not sit in a pipe buffer
    env["TMPDIR"] = str(workdir)
    return {"env": env, "cwd": ROOT, "preexec_fn": _die_with_driver}


def run_worker(command: str, spec: dict, workdir: Path) -> dict:
    """Run one worker command to completion; returns its result with ``wall_s`` added."""
    stem = f"{command}-{time.monotonic_ns()}"
    spec_path = workdir / f"{stem}.spec.json"
    result_path = workdir / f"{stem}.result.json"
    spec_path.write_text(json.dumps(dict(spec, result_path=str(result_path))))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(WORKER), command, str(spec_path)],
        **spawn_options(workdir), timeout=CHILD_TIMEOUT, check=False,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker {command!r} exited with code {done.returncode}")
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall
    return result


def cold_start(index_dir: Path, probe: dict, workdir: Path, workers: int | None = None) -> tuple[float, list]:
    """Spawn a fresh process on a saved index; seconds until its first answer arrives.

    The child prints the probe's answer as one line the moment it has
    it; the clock stops when the driver reads that line.  ``workers`` is
    ``repro.load``'s shard-rebuild thread count (None = its default).
    """
    spec_path = workdir / f"cold-{time.monotonic_ns()}.spec.json"
    spec_path.write_text(json.dumps({"index_dir": str(index_dir), "probe": probe, "workers": workers}))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(WORKER), "coldstart", str(spec_path)],
        **spawn_options(workdir), stdout=subprocess.PIPE,
    )
    try:
        line = _read_line(child, CHILD_TIMEOUT)
        elapsed = time.perf_counter() - start
        child.wait(timeout=CHILD_TIMEOUT)
    finally:
        _reap(child)
    if child.returncode != 0:
        raise RuntimeError(f"cold-start child exited with code {child.returncode}")
    return elapsed, json.loads(line)


def _read_line(child: subprocess.Popen, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    buffer = b""
    descriptor = child.stdout.fileno()
    while not buffer.endswith(b"\n"):
        ready, _, _ = select.select([descriptor], [], [], max(deadline - time.monotonic(), 0.0))
        chunk = os.read(descriptor, 65536) if ready else b""
        if not chunk:
            raise RuntimeError(f"child {child.args[1:3]} gave no line (exit code {child.poll()})")
        buffer += chunk
    return buffer


def _reap(child: subprocess.Popen) -> None:
    """Leave no process behind, whatever state the child is in."""
    if child.poll() is None:
        child.kill()
    child.wait()
    if child.stdout is not None:
        child.stdout.close()


class Server:
    """One ``python -m repro serve <dir> --mode mmap`` subprocess on an ephemeral port."""

    def __init__(self, index_dir: Path, workdir: Path) -> None:
        self.spawned_at = time.perf_counter()
        self._log = open(workdir / f"serve-{time.monotonic_ns()}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(index_dir), "--mode", "mmap", "--port", "0"],
            **spawn_options(workdir), stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            announced = _read_line(self.process, CHILD_TIMEOUT).decode()
            found = re.search(r"http://([\w.]+):(\d+)", announced)
            if found is None:
                raise RuntimeError(f"server announced no address: {announced!r}")
        except BaseException:
            self.stop(signal.SIGKILL)
            raise
        self.host, self.port = found.group(1), int(found.group(2))

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.process.pid)

    def stop(self, signum: int = signal.SIGTERM) -> int:
        """Signal the server and wait for it; SIGTERM drains, SIGKILL is the crash."""
        if self.process.poll() is None:
            self.process.send_signal(signum)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        _reap(self.process)
        self._log.close()
        return self.process.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop(signal.SIGKILL if exc_info[0] is not None else signal.SIGTERM)


def peak_rss_mib(pid: int) -> float:
    """A live process's high-water resident set (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
