"""Open-loop schedule determinism and the generators against a live service."""

import asyncio

import numpy as np

from gbbench.load import (
    DELETE,
    INSERT,
    SEARCH,
    TOP_K,
    Requester,
    closed_loop,
    open_loop,
    poisson_schedule,
    write_loop,
)


def test_schedule_is_fixed_by_the_seed():
    a = poisson_schedule(7, rate=500.0, duration=2.0, num_queries=50)
    b = poisson_schedule(7, rate=500.0, duration=2.0, num_queries=50)
    c = poisson_schedule(8, rate=500.0, duration=2.0, num_queries=50)
    for field in ("due", "ops", "query"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.due[: min(len(a), len(c))], c.due[: min(len(a), len(c))])


def test_schedule_shape_rate_and_mix():
    schedule = poisson_schedule(3, rate=1000.0, duration=5.0, num_queries=20)
    assert np.all(np.diff(schedule.due) > 0) and schedule.due[-1] < 5.0
    assert abs(len(schedule) - 5000) < 300  # Poisson: sd ~ 71
    writes = np.isin(schedule.ops, (INSERT, DELETE))
    assert abs(writes.mean() - 0.10) < 0.02
    # Writes alternate insert/delete, so every delete has an earlier insert.
    assert list(schedule.ops[writes][:4]) == [INSERT, DELETE, INSERT, DELETE]
    reads = schedule.ops[~writes]
    assert abs((reads == TOP_K).mean() - 0.25) < 0.03
    assert set(np.unique(reads)) <= {SEARCH, TOP_K}
    assert schedule.query.min() >= 0 and schedule.query.max() < 20


def test_generators_drive_a_service_without_failures():
    from repro.api import GBKMVConfig, ServingConfig, SimilarityService, create_index

    rng = np.random.default_rng(1)
    records = [rng.integers(0, 300, size=8) for _ in range(500)]
    index = create_index("gbkmv", records, GBKMVConfig(space_fraction=0.5))

    async def drive():
        async with SimilarityService(index, ServingConfig()) as service:
            requester = Requester(service, records[:20], records[20:60], 0.5, 5)
            closed = await closed_loop(requester, 4, 0.2, seed=1, top_k_fraction=0.25, num_queries=20)
            writes = await write_loop(requester, 2, 0.1)
            schedule = poisson_schedule(1, rate=300.0, duration=0.3, num_queries=20)
            opened = await open_loop(requester, schedule)
            return closed, writes, opened, schedule

    closed, writes, opened, schedule = asyncio.run(drive())
    for result in (closed, writes, opened):
        assert result.failures == 0 and result.attempted > 0
    assert opened.attempted == len(schedule) == len(opened.lateness)
    assert opened.count(SEARCH, TOP_K, INSERT, DELETE) == len(schedule)
    latencies = [v for samples in opened.latencies.values() for v in samples]
    assert min(latencies) >= 0.0
