"""Shared plumbing for the workloads: run context, gates, outcome, timing."""

from __future__ import annotations

import gc
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

THRESHOLD = 0.5
K = 10


@dataclass
class Context:
    """One benchmark run: workload seed, measuring budget, trace flag, work dir."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path

    def rng(self, stream: int) -> np.random.Generator:
        """An independent generator per input stream, all fixed by the seed."""
        return np.random.default_rng([self.seed, stream])

    def work_path(self, name: str) -> Path:
        """A fresh (emptied) path for ``name`` in the run's work dir."""
        path = self.workdir / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        return path


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: list[dict] = field(default_factory=list)

    def gate(self, name: str, passed: bool, detail: str = "") -> None:
        self.gates.append(Gate(name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(g.passed for g in self.gates)


def answers(results) -> list[list[tuple[int, float]]]:
    """Search results as plain ``(record_id, score)`` lists, for equality."""
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def median_setup(build: Callable, repeats: int, release: Callable | None = None):
    """Run ``build`` ``repeats`` times; return the last result and the median time.

    Earlier results are released (``release``, then garbage collection)
    before the next build, so set-ups do not stack in memory.
    """
    times = []
    result = None
    for _ in range(repeats):
        if result is not None and release is not None:
            release(result)
        result = None
        gc.collect()
        result, seconds = timed(build)
        times.append(seconds)
    return result, float(np.median(times)), times


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def snapshot_cycles(
    ctx: Context, outcome: Outcome, index, probe, saves: int, loads_per_save: int
) -> tuple[list[float], list[float]]:
    """Seconds of each ``save`` and each ``open_index`` over repeated cycles.

    Each of ``saves`` snapshots is reopened ``loads_per_save`` times; the
    first reopen must answer ``probe`` exactly as the saved index did.
    """
    from repro.api import open_index

    expected = answers(index.search_many(probe, THRESHOLD))
    save_times, load_times = [], []
    for _ in range(saves):
        path = ctx.work_path("snapshot.npz")
        save_times.append(timed(index.save, path)[1])
        for _ in range(loads_per_save):
            reopened, seconds = timed(open_index, path)
            load_times.append(seconds)
            if len(load_times) == 1:
                same = answers(reopened.search_many(probe, THRESHOLD)) == expected
                outcome.gate("reopened_equals_saved", same, f"{len(probe)} queries")
            reopened.close()
        path.unlink()
    outcome.attempted += saves * (1 + loads_per_save)
    return save_times, load_times


def directory_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
