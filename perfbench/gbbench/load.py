"""Closed- and open-loop request generators for the serving workload.

Both drive a :class:`repro.serving.SimilarityService` from coroutines on
one event loop.

- Closed loop: each client sends its next request only after the
  previous one returned, so a slow service receives less load.
- Open loop: requests are due on a Poisson schedule fixed in advance from
  the seed, and are sent when due whatever the service is doing.  Latency
  is timed from each request's *due* time, so a stall also charges the
  requests it delayed; how late the generator itself dispatched is
  reported as lateness.

A request that raises counts as failed and its latency as infinite, so it
misses any latency limit.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SEARCH, TOP_K, INSERT, DELETE = 0, 1, 2, 3
OP_NAMES = ("search", "top_k", "insert", "delete")


@dataclass(frozen=True)
class Schedule:
    """An open-loop plan: due offsets (s), op codes and query positions."""

    due: np.ndarray
    ops: np.ndarray
    query: np.ndarray

    def __len__(self) -> int:
        return int(self.due.size)


def poisson_schedule(
    seed: int | Sequence[int],
    rate: float,
    duration: float,
    num_queries: int,
    write_fraction: float = 0.10,
    top_k_fraction: float = 0.25,
) -> Schedule:
    """Poisson arrivals at ``rate``/s for ``duration`` s, fixed by ``seed``.

    A ``write_fraction`` of requests are writes, alternating insert and
    delete so every delete has an earlier insert of the generator's own to
    remove; of the reads, ``top_k_fraction`` are top-k, the rest search.
    """
    rng = np.random.default_rng(seed)
    expected = int(rate * duration * 1.2) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    due = np.cumsum(gaps)
    while due[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + due[-1]
        due = np.concatenate([due, more])
    due = due[due < duration]
    draws = rng.random(due.size)
    ops = np.where(draws < top_k_fraction * (1.0 - write_fraction), TOP_K, SEARCH)
    writes = draws >= 1.0 - write_fraction
    ops[writes] = np.where(np.arange(int(writes.sum())) % 2 == 0, INSERT, DELETE)
    query = rng.integers(0, num_queries, size=due.size)
    return Schedule(due=due, ops=ops.astype(np.int8), query=query)


@dataclass
class LoadResult:
    """Latencies (s) per op code, plus failures, lateness and wall time."""

    latencies: dict[int, list[float]] = field(default_factory=dict)
    failures: int = 0
    attempted: int = 0
    lateness: list[float] = field(default_factory=list)
    started: float = 0.0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)

    def add(self, op: int, seconds: float) -> None:
        self.latencies.setdefault(op, []).append(seconds)

    def count(self, *ops: int) -> int:
        return sum(len(self.latencies.get(op, ())) for op in ops)


class Requester:
    """Sends requests of each kind to the service and times them."""

    def __init__(
        self,
        service,
        queries: Sequence,
        new_records: Sequence,
        threshold: float,
        k: int,
    ) -> None:
        self._service = service
        self.queries = queries
        self._new_records = new_records
        self._next_record = 0
        self._own_ids: deque[int] = deque()
        self._threshold = threshold
        self._k = k
        #: Set to a tracer to record one ``serving.request`` span per request.
        self.tracer = None
        self.next_request = 0

    async def send(self, op: int, query: int):
        service = self._service
        if op == SEARCH:
            return await service.search(self.queries[query], self._threshold)
        if op == TOP_K:
            return await service.top_k(self.queries[query], self._k)
        if op == INSERT:
            record = self._new_records[self._next_record % len(self._new_records)]
            self._next_record += 1
            record_id = await service.insert(record)
            self._own_ids.append(record_id)
            return record_id
        return await service.delete(self._own_ids.popleft())

    async def timed(
        self, op: int, query: int, due: float, result: LoadResult, flush: bool = False
    ) -> None:
        """Send one request; record its latency from ``due`` or a failure.

        With ``flush``, a write completes only once the index has applied it.
        """
        result.attempted += 1
        request_id = self.next_request
        self.next_request += 1
        try:
            await self.send(op, query)
            if flush:
                await self._service.flush_writes()
        except Exception as error:  # a failed request is a measured outcome
            result.failures += 1
            result.add(op, float("inf"))
            result.errors.append(f"{OP_NAMES[op]}: {error!r}")
            return
        end = time.perf_counter()
        result.add(op, end - due)
        if self.tracer is not None:
            self.tracer.record("serving.request", due, end, request_id=request_id)


async def closed_loop(
    requester: Requester,
    clients: int,
    duration: float,
    seed: int | Sequence[int],
    top_k_fraction: float,
    num_queries: int,
) -> LoadResult:
    """``clients`` readers each looping request-after-request for ``duration``.

    A ``top_k_fraction`` of requests are top-k, the rest search.
    """
    result = LoadResult(started=time.perf_counter())

    async def client(position: int, deadline: float) -> None:
        rng = np.random.default_rng([*np.atleast_1d(seed).tolist(), position])
        while time.perf_counter() < deadline:
            op = TOP_K if rng.random() < top_k_fraction else SEARCH
            await requester.timed(op, int(rng.integers(num_queries)), time.perf_counter(), result)

    await asyncio.gather(*(client(c, result.started + duration) for c in range(clients)))
    result.wall = time.perf_counter() - result.started
    return result


async def write_loop(requester: Requester, clients: int, duration: float) -> LoadResult:
    """``clients`` writers, each alternating insert and delete of its own records.

    A writer waits after every write until the service has applied it to
    the index (``flush_writes``), so the loop is closed on applied writes;
    writes of other clients buffered meanwhile ride the same flush.
    """
    result = LoadResult(started=time.perf_counter())
    deadline = result.started + duration

    async def writer() -> None:
        inserted = 0
        while time.perf_counter() < deadline:
            op = INSERT if inserted % 2 == 0 else DELETE
            inserted += 1
            await requester.timed(op, 0, time.perf_counter(), result, flush=True)

    await asyncio.gather(*(writer() for _ in range(clients)))
    result.wall = time.perf_counter() - result.started
    return result


async def single_client(
    requester: Requester, duration: float, num_queries: int, requests: int | None = None
) -> LoadResult:
    """One client, reads only, for ``duration`` s or exactly ``requests`` requests.

    With a tracer on the requester, spans opened during each request carry
    its request id (one request is in flight at a time).
    """
    tracer = requester.tracer
    result = LoadResult(started=time.perf_counter())
    position = 0
    while (
        position < requests
        if requests is not None
        else time.perf_counter() - result.started < duration
    ):
        if tracer is not None:
            tracer.current_request = requester.next_request
        await requester.timed(SEARCH, position % num_queries, time.perf_counter(), result)
        position += 1
    if tracer is not None:
        tracer.current_request = None
    result.wall = time.perf_counter() - result.started
    return result


async def open_loop(requester: Requester, schedule: Schedule) -> LoadResult:
    """Send every scheduled request at its due time; wait for all to finish."""
    result = LoadResult(started=time.perf_counter())
    tasks = []
    for due, op, query in zip(schedule.due.tolist(), schedule.ops.tolist(), schedule.query.tolist()):
        target = result.started + due
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness.append(max(time.perf_counter() - target, 0.0))
        tasks.append(asyncio.ensure_future(requester.timed(op, query, target, result)))
    await asyncio.gather(*tasks)
    result.wall = time.perf_counter() - result.started
    return result
