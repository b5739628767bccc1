"""``query_1m``: offline batch search over a million power-law integer records.

An unsharded ``gbkmv`` index (``space_fraction=0.10``) answers queries
sampled from the corpus in batches of 50, through ``search_many`` at t=0.5
and ``top_k_many`` at k=10.  The fused engine (``core.index``,
``core.store``, ``core.batched``) does almost all the work, over a store
far larger than the CPU cache; set-up is the integer fast path of
``flatten_records``.  A short write phase and snapshot cycles follow so
every end-to-end metric is measured on this store size too.

Metrics: ``setup_s`` is the median of :data:`SETUPS` builds;
``search_qps``/``topk_qps`` are queries per second at the median batch
call; ``p50_ms`` is the median latency of the 50-query ``search_many``
calls (their p90 is printed as an extra); ``write_rps`` counts inserts
plus deletes per second; ``save_s``/``load_s`` are medians of npz ``save``
and ``open_index``.
"""

from __future__ import annotations

import time

import numpy as np

from gbbench.common import (
    K,
    THRESHOLD,
    Context,
    Outcome,
    median_setup,
    peak_rss_mb,
    snapshot_cycles,
    timed,
)
from gbbench.corpus import power_law_records, sample_pool
from gbbench.layers import install_library_tracing, layer_metrics
from gbbench.oracle import ExactOracle, mean_f1
from gbbench.tracer import Tracer

NUM_RECORDS = 1_000_000
#: Queries sampled from the corpus.  Batches cycle through the pool, so a
#: larger pool averages the cost of more distinct queries per seed.
POOL = 1000
#: Queries whose answers are checked: F1 against exact truth and the
#: scalar-oracle gate (the first batches of the pool).
CHECKED = 200
BATCH = 50
SETUPS = 3
WRITE_BATCH = 50
SNAPSHOT_CYCLES = 2
LOADS_PER_SNAPSHOT = 3
#: Sampled (query, record) pairs checked against the scalar sketch oracle.
ORACLE_QUERIES = 20


def _build(records):
    from repro.api import GBKMVConfig, create_index

    return create_index("gbkmv", records, GBKMVConfig(space_fraction=0.10))


def _read_pass(index, batches):
    """One pass over the pool: every batch through search, then top-k."""
    search = [timed(index.search_many, batch, THRESHOLD) for batch in batches]
    top = [timed(index.top_k_many, batch, K) for batch in batches]
    return search, top


def _oracle_gate(outcome: Outcome, ctx: Context, index, queries, search_hits, top_hits) -> None:
    """Engine scores must equal ``estimate_containment`` bitwise."""
    rng = ctx.rng(90)
    checked = mismatches = 0
    checked_queries = min(len(search_hits), len(top_hits))
    for position in rng.choice(checked_queries, size=ORACLE_QUERIES, replace=False).tolist():
        for hits in (search_hits[position], top_hits[position]):
            for hit in hits[:2]:
                expected = index.estimate_containment(queries[position], hit.record_id)
                checked += 1
                mismatches += expected != hit.score
    outcome.gate(
        "engine_equals_scalar_oracle",
        checked > 0 and mismatches == 0,
        f"{checked} pairs, {mismatches} differ",
    )


def _write_phase(index, extra, rng, budget: float, max_batches: int | None = None):
    """insert_many batches, each followed by one delete of an earlier insert."""
    writes = 0
    spent = 0.0
    own: list[int] = []
    batches = 0
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline and (max_batches is None or batches < max_batches):
        start = rng.integers(0, len(extra) - WRITE_BATCH)
        chunk = extra[start : start + WRITE_BATCH]
        ids, seconds = timed(index.insert_many, chunk)
        own.extend(ids)
        victim = own.pop(int(rng.integers(len(own))))
        _, delete_seconds = timed(index.delete, victim)
        writes += len(ids) + 1
        spent += seconds + delete_seconds
        batches += 1
    return writes, spent


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    rng = ctx.rng(1)
    records = power_law_records(rng, NUM_RECORDS)
    queries = [records[p] for p in sample_pool(rng, len(records), POOL)]
    extra = power_law_records(ctx.rng(2), 20_000)
    batches = [queries[i : i + BATCH] for i in range(0, POOL, BATCH)]

    oracle = ExactOracle(records, np.arange(len(records)))
    truth = [set(oracle.search(q, THRESHOLD)) for q in queries[:CHECKED]]
    del oracle
    outcome.gate("truth_contains_query", all(truth), "every query finds itself")

    if ctx.trace:
        return _traced(ctx, outcome, records, queries, batches, extra, truth)

    index, setup_s, setups = median_setup(lambda: _build(records), SETUPS)
    outcome.attempted += SETUPS
    index.search_many(batches[0], THRESHOLD)  # lazy finalize after build, not timed
    outcome.attempted += BATCH

    budget = ctx.seconds
    checked_batches = CHECKED // BATCH
    search_times: list[float] = []
    search_hits = []
    phase_end = time.perf_counter() + 0.45 * budget
    while len(search_times) < checked_batches or time.perf_counter() < phase_end:
        result, seconds = timed(index.search_many, batches[len(search_times) % len(batches)], THRESHOLD)
        search_times.append(seconds)
        if len(search_hits) < CHECKED:
            search_hits.extend(result)
    top_times: list[float] = []
    top_hits = []
    phase_end = time.perf_counter() + 0.3 * budget
    while len(top_times) < checked_batches or time.perf_counter() < phase_end:
        result, seconds = timed(index.top_k_many, batches[len(top_times) % len(batches)], K)
        top_times.append(seconds)
        if len(top_hits) < CHECKED:
            top_hits.extend(result)
    outcome.attempted += BATCH * (len(search_times) + len(top_times))
    _oracle_gate(outcome, ctx, index, queries, search_hits, top_hits)
    outcome.extras["f1"] = (
        mean_f1(truth, [{hit.record_id for hit in hits} for hits in search_hits]),
        "ratio",
    )

    writes, write_seconds = _write_phase(index, extra, ctx.rng(3), 0.15 * budget)
    outcome.attempted += writes
    saves, loads = snapshot_cycles(
        ctx, outcome, index, batches[0], SNAPSHOT_CYCLES, LOADS_PER_SNAPSHOT
    )

    p50, p90 = np.percentile(search_times, [50, 90]) * 1e3
    # Throughput at the median batch, so one stalled batch cannot decide a run.
    outcome.end_to_end = {
        "setup_s": setup_s,
        "search_qps": BATCH / float(np.median(search_times)),
        "topk_qps": BATCH / float(np.median(top_times)),
        "write_rps": writes / write_seconds,
        "p50_ms": float(p50),
        "save_s": float(np.median(saves)),
        "load_s": float(np.median(loads)),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.extras.update(
        {
            "p90_ms": (float(p90), "ms"),
            "setup_runs_s": (float(max(setups) - min(setups)), "s"),
            "search_batches": (float(len(search_times)), "count"),
            "topk_batches": (float(len(top_times)), "count"),
        }
    )
    index.close()
    return outcome


def _traced(ctx, outcome, records, queries, batches, extra, truth) -> Outcome:
    """Untraced build + pass, then the same traced, plus traced writes and snapshots.

    The pass covers the checked queries (the first batches of the pool).
    """
    batches = batches[: CHECKED // BATCH]
    index, build_plain = timed(_build, records)
    (search, top), pass_plain = timed(_read_pass, index, batches)
    search_hits = [hits for result, _ in search for hits in result]
    top_hits = [hits for result, _ in top for hits in result]
    _oracle_gate(outcome, ctx, index, queries, search_hits, top_hits)
    outcome.extras["f1"] = (
        mean_f1(truth, [{h.record_id for h in hits} for hits in search_hits]),
        "ratio",
    )
    index.close()
    del index

    tracer = Tracer()
    install_library_tracing(tracer)
    try:
        index, build_traced = timed(_build, records)
        _, pass_traced = timed(_read_pass, index, batches)
        writes, _ = _write_phase(index, extra, ctx.rng(3), float("inf"), max_batches=20)
        snapshot_cycles(ctx, outcome, index, batches[0], 1, 1)
    finally:
        tracer.restore()
    index.close()
    outcome.attempted += 2 + 4 * CHECKED + writes
    outcome.layers = layer_metrics(
        tracer.spans,
        {"trace.overhead_frac": (build_traced + pass_traced) / (build_plain + pass_plain) - 1.0},
    )
    outcome.extras.update(
        {
            "untraced_unit_s": (build_plain + pass_plain, "s"),
            "traced_unit_s": (build_traced + pass_traced, "s"),
        }
    )
    outcome.spans = tracer.dump()
    return outcome
