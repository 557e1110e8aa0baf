"""Shared plumbing of the repository benchmark.

Paths inside the checkout, the guarded import of the program under test,
the benchmark-owned reference kernels that cancel the machine's own speed
drift, the build configuration every store is made with, and small
statistics helpers.  Importing this module starts nothing and reads no
file.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STORE = WORK / "store"
STORE_INFO = STORE / "perfbench.json"

# The store every query workload reads, and the write path `build` times:
# the paper's proxy scheme over 400 dataset archs, accuracy plus one GPU
# throughput and one FPGA latency surrogate.
BUILD_NUM_ARCHS = 400
BUILD_DEVICES = {"a100": ("throughput",), "zcu102": ("latency",)}
TARGETS = (("a100", "throughput"), ("zcu102", "latency"))

# Nominal time of one reference sample (min of a few runs), measured on
# the 2-core VM the steadiness study in STEADINESS.md was taken on.  A timed
# call's wall time is scaled by nominal / measured reference, so figures
# read as if the machine ran at that nominal speed.
REF_PY_NOMINAL_S = 0.0040
REF_NP_NOMINAL_S = 0.0025
REF_MEM_NOMINAL_S = 0.0013
REF_SPAWN_NOMINAL_S = 0.160


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def source_digest() -> str:
    """Content hash of the program under ``src/repro``: file names and bytes.

    The store records the digest of the code that built it, so a store left
    by another commit's code is rebuilt rather than read.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    """Environment for child interpreters: the program from ``src/`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------- reference


def _ref_py_once() -> int:
    # Interpreter-bound like encode misses: dict traffic, attribute-free
    # integer work, no allocation-heavy calls.
    table: dict[int, int] = {}
    for i in range(40_000):
        k = i & 255
        table[k] = table.get(k, 0) + i
    return len(table)


class _NumpyRef:
    """A fixed tree-ensemble walk: the gather-bound shape of batch predict."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.trees, self.depth, self.rows, self.cols = 200, 6, 160, 74
        nodes = 2 ** (self.depth + 1)
        self.feature = rng.integers(0, self.cols, (self.trees, nodes))
        self.threshold = rng.random((self.trees, nodes))
        self.leaf = rng.random((self.trees, nodes))
        self.X = rng.random((self.rows, self.cols))
        self.base = np.arange(self.trees)[None, :] * nodes

    def __call__(self) -> float:
        np = self.np
        cursor = np.zeros((self.rows, self.trees), dtype=np.int64)
        feat_flat, thr_flat = self.feature.ravel(), self.threshold.ravel()
        rows = np.arange(self.rows)[:, None]
        for _ in range(self.depth):
            flat = self.base + cursor
            f = np.take(feat_flat, flat)
            go_right = self.X[rows, f] > np.take(thr_flat, flat)
            cursor = 2 * cursor + 1 + go_right
        return float(np.take(self.leaf.ravel(), self.base + cursor).sum())


class _MemRef:
    """Random gathers over a 32 MB array: cache- and memory-bound work.

    A build's slowdowns under host contention follow this kernel more
    closely than a small in-cache one.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(271828)
        self.table = rng.random(4_000_000)
        self.index = rng.integers(0, len(self.table), 100_000)

    def __call__(self) -> float:
        return float(self.table[self.index].sum() + self.table[self.index[::-1]].sum())


class _SpawnRef:
    """A fresh interpreter importing numpy: the shape of every set-up."""

    def __call__(self) -> None:
        subprocess.run(
            [sys.executable, "-c", "import argparse, asyncio, json, numpy"],
            check=True, stdout=subprocess.DEVNULL,
        )


# kernel -> (factory, nominal seconds of one sample, runs per sample)
KERNELS = {
    "py": (lambda: _ref_py_once, REF_PY_NOMINAL_S, 3),
    "np": (_NumpyRef, REF_NP_NOMINAL_S, 3),
    "mem": (_MemRef, REF_MEM_NOMINAL_S, 3),
    "spawn": (_SpawnRef, REF_SPAWN_NOMINAL_S, 1),
}


class Reference:
    """Times a reference: per kernel the min of a few back-to-back runs.

    The minimum ignores a preempted run.  A reference of several kernels
    (``"py+mem"``) reports the geometric mean of their times, whose errors
    partly cancel.  Samples just before and after a timed interval track
    the machine's speed during it.
    """

    def __init__(self, kind: str) -> None:
        names = kind.split("+")
        self.kernels = [(KERNELS[name][0](), KERNELS[name][2]) for name in names]
        self.nominal = self._mean([KERNELS[name][1] for name in names])
        self.samples: list[float] = []

    @staticmethod
    def _mean(times: list[float]) -> float:
        return math.exp(sum(math.log(t) for t in times) / len(times))

    def sample(self) -> float:
        times = []
        for fn, reps in self.kernels:
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        self.samples.append(self._mean(times))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor turning a wall time between two samples into nominal time."""
        return self.nominal / (0.5 * (before + after))


# ---------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values_ms: list[float]) -> tuple[float, float, int]:
    """(p90, p99, n): each the percentile only if ≥10 samples lie beyond it.

    An unsupported percentile reads 0.
    """
    n = len(values_ms)
    ordered = sorted(values_ms)

    def pct(q: float) -> float:
        rank = math.ceil(round(q * n, 9))
        if n - rank < 10:
            return 0.0
        return float(ordered[rank - 1])

    return pct(0.90), pct(0.99), n


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of another live process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
