"""Shared plumbing of the benchmark: paths, cold starts, statistics,
process memory, provenance and span arithmetic.

Everything here runs from the root of a source checkout: the program
under test is imported from ``<root>/src`` and every file the benchmark
writes lives under ``<root>/.perfbench-work`` (temporary directories
included, via ``TMPDIR``).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# The one list of workloads and metrics, with units and bounds.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# A child that has not reported within this many seconds is killed; the
# whole run must end within 180 s, so no single wait may come close.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, broken child)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}: expected src/repro")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the program on
    the import path, temporary files inside the checkout, unbuffered
    output so ready lines arrive as soon as they are printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_NO_POOL", None)
    return env


def enter_checkout() -> None:
    """Make this process behave like its children (see :func:`child_env`)."""
    require_program()
    WORK.mkdir(exist_ok=True)
    os.environ.update({k: v for k, v in child_env().items() if k != "PYTHONPATH"})
    os.environ.pop("REPRO_NO_POOL", None)
    import tempfile

    tempfile.tempdir = str(WORK)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> pathlib.Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #

class Child:
    """A benchmark child process that speaks one JSON object per line.

    ``started`` is taken immediately before the process is created, so
    ``ready_s`` (set by :meth:`wait_ready`) runs from a fresh interpreter
    to the child's first ``{"ready": ...}`` line — the set-up time.
    """

    def __init__(self, argv: Sequence[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=str(ROOT), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        self.ready_s: Optional[float] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read(self) -> dict:
        """The next JSON line the child prints (other lines are skipped)."""
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"child {self.proc.args!r} exited ({self.proc.wait()}) "
                    "before reporting"
                )
            line = line.strip()
            if line.startswith("{"):
                return json.loads(line)

    def read_until(self, marker: str) -> str:
        """Skip output up to the first line containing ``marker``."""
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"child {self.proc.args!r} exited ({self.proc.wait()}) "
                    f"before printing {marker!r}"
                )
            if marker in line:
                return line

    def wait_ready(self) -> dict:
        message = self.read()
        self.ready_s = time.perf_counter() - self.started
        if "ready" not in message:
            raise BenchError(f"child sent {message!r} before ready")
        return message

    def finish(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        """Wait for the child to exit; kill it if it will not."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish()


def python_child(*args: str) -> Child:
    """Start ``perfbench/child.py`` with ``args`` under this interpreter."""
    return Child([sys.executable, str(BENCH_DIR / "child.py"), *args])


def cold_start(*args: str) -> float:
    """Seconds from spawning a ``child.py`` role to its ready line; the
    child then finishes on its own."""
    child = python_child(*args)
    try:
        child.wait_ready()
    finally:
        child.finish()
    return child.ready_s


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #

def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


def machine_probe_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs
    right now, recorded beside each run so drift can be told apart from
    a change in the program."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)


def ratio(hits: float, total: float) -> float:
    return float(hits) / float(total) if total else 0.0


# ---------------------------------------------------------------------- #
# processes: memory and CPU from /proc
# ---------------------------------------------------------------------- #

def peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Live direct children of ``pid`` (pool workers, for instance)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def family_peak_rss_mib(pid: int) -> float:
    """Largest peak resident set among ``pid`` and its live children."""
    peaks = [peak_rss_mib(pid)]
    for child in child_pids(pid):
        try:
            peaks.append(peak_rss_mib(child))
        except (OSError, BenchError):
            continue  # exited between listing and reading
    return max(peaks)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #

def commit() -> str:
    """The checked-out commit, or a note when the tree is not a git
    checkout (the program's content hash then identifies it)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, jobs: Sequence[int]) -> dict:
    import numpy

    from repro.runner import code_version

    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "code_version": code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count() or 1,
        "jobs": list(jobs),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- #
# span arithmetic over repro.obs traces
# ---------------------------------------------------------------------- #

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def busy_seconds(spans: List[dict], names: Iterable[str]) -> float:
    """Summed duration of spans named ``names`` in every process, counting
    a span nested under another span of the same set only once."""
    wanted = set(names)
    total = 0.0
    for rec in spans:
        if rec["name"] not in wanted:
            continue
        parent = rec["parent"]
        nested = False
        while parent >= 0:
            if spans[parent]["name"] in wanted:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total += rec["dur"]
    return total
