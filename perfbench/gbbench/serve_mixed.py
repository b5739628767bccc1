"""``serve_mixed``: the asyncio serving front over a cache-resident index.

A 20k-record integer ``gbkmv`` index behind ``SimilarityService`` with the
default ``ServingConfig`` (64-deep batches, 200µs window,
read-your-writes).  After a burst that checks served answers against
direct engine calls, the run repeats :data:`ROUNDS` rounds of four phases
on one event loop and reports each metric as its median over rounds:

- ``c1``: one closed-loop client, reads only — the per-request tax, and
  the source of ``p50_ms`` (and the ``p90_ms`` extra);
- ``c32``: 32 closed-loop clients, 75% ``search`` / 25% ``top_k``;
- ``w8``: 8 closed-loop writers inserting and deleting their own records,
  each write complete once the index has applied it;
- ``open``: Poisson arrivals at :data:`OPEN_RATE` per second with 10%
  writes, latency timed from each request's due time (reported as extras:
  on a shared 2-vCPU machine its percentiles spread too widely from run
  to run to bound).

The engine is cheap here (well under a millisecond per direct search), so
the serving layers dominate.  Each round ends, with the service drained,
in snapshot cycles (``save`` + ``open_index``) of the served index.

Metrics: ``setup_s`` is the median of :data:`SETUPS` build-and-start
set-ups; ``search_qps``/``topk_qps`` are the c32 completions per second of
each kind; ``write_rps`` is w8's applied writes per second; ``p50_ms`` and
``p90_ms`` (an extra) are c1 request latencies; ``save_s``/``load_s`` are
medians over every round's snapshot cycles.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from gbbench.common import (
    K,
    THRESHOLD,
    Context,
    Outcome,
    answers,
    median_setup,
    peak_rss_mb,
    snapshot_cycles,
)
from gbbench.corpus import power_law_records, sample_pool
from gbbench.layers import (
    install_engine_tracing,
    install_library_tracing,
    lane_busy_fraction,
    layer_metrics,
)
from gbbench.load import (
    DELETE,
    INSERT,
    SEARCH,
    TOP_K,
    Requester,
    closed_loop,
    open_loop,
    poisson_schedule,
    single_client,
    write_loop,
)
from gbbench.oracle import ExactOracle, mean_f1
from gbbench.tracer import Tracer

NUM_RECORDS = 20_000
POOL = 200
SETUPS = 9
#: Snapshot cycles run at the end of every round (the service drained), so
#: the millisecond-scale save and reopen are sampled across the whole run.
SAVES_PER_ROUND = 5
LOADS_PER_SNAPSHOT = 3
#: The phases run this many times in turn; each metric is the median over
#: rounds, so one transient stall cannot decide a run.
ROUNDS = 3
#: Open-loop arrival rate (requests/s): about a fifth of the ``c32``
#: capacity measured on seed 1 on a quiet 2-core machine (~1900 requests/s).
#: At 600/s, runs on the same machine under neighbour load (half speed)
#: saturated in some rounds and p50 jumped from ~5 to ~28 ms.
OPEN_RATE = 400.0
#: Requests per phase of the traced run's fixed unit (untraced vs traced).
TRACE_UNIT_REQUESTS = 400


def _build(records):
    from repro.api import GBKMVConfig, create_index

    return create_index("gbkmv", records, GBKMVConfig(space_fraction=0.10))


def _start(records):
    """Set-up: records in memory to a started service."""
    from repro.api import ServingConfig, SimilarityService

    return SimilarityService(_build(records), ServingConfig(), close_index=False).start()


def _latency_ms(result, *ops) -> np.ndarray:
    samples = [v for op in ops for v in result.latencies.get(op, ())]
    return np.asarray(samples, dtype=np.float64) * 1e3


async def _burst_gate(outcome: Outcome, service, queries, truth) -> None:
    """Served answers of one concurrent burst equal direct engine calls."""
    index = service.index
    direct_search = answers(index.search_many(queries, THRESHOLD))
    direct_top = answers(index.top_k_many(queries, K))
    served = await asyncio.gather(
        *(service.search(q, THRESHOLD) for q in queries),
        *(service.top_k(q, K) for q in queries),
    )
    served_search = answers(served[: len(queries)])
    outcome.gate(
        "served_equals_direct",
        served_search == direct_search and answers(served[len(queries) :]) == direct_top,
        f"{2 * len(queries)} requests, largest batch {service.stats().batcher.largest_batch}",
    )
    f1 = mean_f1(truth, [{record_id for record_id, _ in hits} for hits in served_search])
    outcome.extras["f1"] = (f1, "ratio")
    outcome.attempted += 2 * len(queries)


async def _round(ctx: Context, outcome: Outcome, service, requester, number: int) -> dict:
    """One round of the four phases, each a share of ``seconds / ROUNDS``."""
    budget = ctx.seconds / ROUNDS
    results = {}
    results["c1"] = await single_client(requester, 0.2 * budget, POOL)
    results["c32"] = await closed_loop(
        requester, 32, 0.25 * budget, [ctx.seed, number], 0.25, num_queries=POOL
    )
    results["w8"] = await write_loop(requester, 8, 0.1 * budget)
    schedule = poisson_schedule([ctx.seed, number], OPEN_RATE, 0.35 * budget, POOL)
    results["open"] = await open_loop(requester, schedule)
    await service.drain()
    results["snapshots"] = snapshot_cycles(
        ctx, outcome, service.index, requester.queries, SAVES_PER_ROUND, LOADS_PER_SNAPSHOT
    )
    for result in (results[phase] for phase in ("c1", "c32", "w8", "open")):
        outcome.attempted += result.attempted
        outcome.failed += result.failures
        for error in result.errors[:5]:
            print(f"request failed: {error}")
    return results


def _round_metrics(results: dict) -> dict[str, float]:
    c32, w8, opened = results["c32"], results["w8"], results["open"]
    open_ms = _latency_ms(opened, SEARCH, TOP_K, INSERT, DELETE)
    c1_ms = _latency_ms(results["c1"], SEARCH)
    return {
        "search_qps": c32.count(SEARCH) / c32.wall,
        "topk_qps": c32.count(TOP_K) / c32.wall,
        "write_rps": w8.count(INSERT, DELETE) / w8.wall,
        "p50_ms": float(np.percentile(c1_ms, 50)),
        "p90_ms": float(np.percentile(c1_ms, 90)),
        "open_p50_ms": float(np.percentile(open_ms, 50)),
        "open_p90_ms": float(np.percentile(open_ms, 90)),
        "open_p99_ms": float(np.percentile(open_ms, 99)),
        "c32_rps": c32.count(SEARCH, TOP_K) / c32.wall,
        "open_achieved_rps": open_ms.size / opened.wall,
        "open_lateness_p99_ms": float(np.percentile(opened.lateness, 99) * 1e3),
    }


class _Inputs:
    def __init__(self, ctx: Context) -> None:
        rng = ctx.rng(21)
        self.records = power_law_records(rng, NUM_RECORDS)
        self.queries = [self.records[p] for p in sample_pool(rng, NUM_RECORDS, POOL)]
        self.new_records = power_law_records(ctx.rng(22), 5_000)
        oracle = ExactOracle(self.records, np.arange(NUM_RECORDS))
        self.truth = [set(oracle.search(q, THRESHOLD)) for q in self.queries]


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = _Inputs(ctx)
    outcome.gate("truth_contains_query", all(inputs.truth), "every query finds itself")
    if ctx.trace:
        return _traced(ctx, outcome, inputs)

    service, setup_s, setups = median_setup(
        lambda: _start(inputs.records), SETUPS, release=lambda s: asyncio.run(s.close())
    )
    outcome.attempted += SETUPS
    requester = Requester(service, inputs.queries, inputs.new_records, THRESHOLD, K)

    async def serve():
        await _burst_gate(outcome, service, inputs.queries, inputs.truth)
        rounds = [
            await _round(ctx, outcome, service, requester, number) for number in range(ROUNDS)
        ]
        await service.close()
        return rounds

    round_results = asyncio.run(serve())
    service.index.close()
    rounds = [_round_metrics(results) for results in round_results]
    saves = [s for results in round_results for s in results["snapshots"][0]]
    loads = [s for results in round_results for s in results["snapshots"][1]]

    medians = {name: float(np.median([r[name] for r in rounds])) for name in rounds[0]}
    outcome.end_to_end = {
        "setup_s": setup_s,
        **{
            name: medians[name]
            for name in ("search_qps", "topk_qps", "write_rps", "p50_ms")
        },
        "save_s": float(np.median(saves)),
        "load_s": float(np.median(loads)),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name, unit in (
        ("p90_ms", "ms"),
        ("c32_rps", "1/s"),
        ("open_p50_ms", "ms"),
        ("open_p90_ms", "ms"),
        ("open_p99_ms", "ms"),
        ("open_achieved_rps", "1/s"),
        ("open_lateness_p99_ms", "ms"),
    ):
        outcome.extras[name] = (medians[name], unit)
    outcome.extras["setup_runs_s"] = (float(max(setups) - min(setups)), "s")
    return outcome


def _traced(ctx: Context, outcome: Outcome, inputs: _Inputs) -> Outcome:
    """A fixed single-client unit untraced, then traced, then the traced phases."""
    service = _start(inputs.records)
    requester = Requester(service, inputs.queries, inputs.new_records, THRESHOLD, K)

    async def unit() -> float:
        start = time.perf_counter()
        result = await single_client(requester, 0.0, POOL, requests=TRACE_UNIT_REQUESTS)
        outcome.attempted += result.attempted
        outcome.failed += result.failures
        return time.perf_counter() - start

    async def plain() -> float:
        await _burst_gate(outcome, service, inputs.queries, inputs.truth)
        return await unit()

    unit_plain = asyncio.run(plain())

    tracer = Tracer()
    requester.tracer = tracer
    install_library_tracing(tracer)
    install_engine_tracing(tracer, service.index)
    try:
        async def traced():
            seconds = await unit()
            results = await _round(ctx, outcome, service, requester, 0)
            await service.close()
            return seconds, results

        unit_traced, results = asyncio.run(traced())
    finally:
        tracer.restore()
    service.index.close()
    c32 = results["c32"]
    lateness = np.asarray(results["open"].lateness) * 1e3
    outcome.layers = layer_metrics(
        tracer.spans,
        {
            "trace.overhead_frac": unit_traced / unit_plain - 1.0,
            "serving.lane_busy_frac": lane_busy_fraction(
                tracer.spans, c32.started, c32.started + c32.wall
            ),
            "loadgen.lateness_ms.p99": float(np.percentile(lateness, 99)),
            "loadgen.requests": float(results["open"].attempted),
        },
    )
    outcome.extras.update({"untraced_unit_s": (unit_plain, "s"), "traced_unit_s": (unit_traced, "s")})
    outcome.spans = tracer.dump()
    return outcome
