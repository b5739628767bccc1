"""``ingest_str``: a persisted write path over string tokens on the sharded backend.

300k power-law records (the ``query_1m`` recipe) whose elements are the
strings ``"tok<id>"``, indexed by ``sharded`` (2 shards of ``gbkmv``,
``build_workers=2`` threads).  Each cycle runs a write stream of
``insert_many`` batches with single deletes interleaved, a sharded
``search_many`` and ``top_k_many`` over 200 string queries, a dir-of-shards
``save``, ``open_index`` and the same search on the reopened index.

Strings take the generic ``flatten_records`` path (per-record ``set``,
``fingerprint_many``, ``np.unique``), so an integer-path optimisation
bypasses this workload; it exercises the sharding planner, executor,
routing and merge, ``append_bulk`` merges and snapshot I/O.

Metrics: ``setup_s`` is the median of :data:`SETUPS` sharded builds;
``search_qps`` (the searches before and after each reopen), ``topk_qps``
and ``write_rps`` (inserts plus deletes per second of write calls) are
medians over cycles; ``p50_ms`` is the median latency of the 50-record
``insert_many`` calls of the write stream (their p90 is an extra);
``save_s``/``load_s`` are medians of the dir-of-shards save and reopen.
"""

from __future__ import annotations

import time

import numpy as np

from gbbench.common import (
    K,
    THRESHOLD,
    Context,
    Outcome,
    answers,
    directory_bytes,
    median_setup,
    peak_rss_mb,
    timed,
)
from gbbench.corpus import TokenVocabulary, power_law_records, sample_pool
from gbbench.layers import install_library_tracing, layer_metrics
from gbbench.oracle import ExactOracle, mean_f1
from gbbench.tracer import Tracer

NUM_RECORDS = 300_000
POOL = 200
SETUPS = 3
WRITE_BATCHES = 40
WRITE_BATCH = 50


def _build(records):
    from repro.api import GBKMVConfig, ShardedConfig, create_index

    config = ShardedConfig(
        num_shards=2,
        build_workers=2,
        inner_backend="gbkmv",
        inner_config=GBKMVConfig(space_fraction=0.10),
    )
    return create_index("sharded", records, config)


class _Corpus:
    """The live record set (as element ids) mirrored beside the index."""

    def __init__(self, ctx: Context) -> None:
        rng = ctx.rng(11)
        self.vocabulary = TokenVocabulary()
        self.ids = power_law_records(rng, NUM_RECORDS)
        self.records = self.vocabulary.records(self.ids)
        pool = sample_pool(rng, NUM_RECORDS, POOL)
        self.query_ids = [self.ids[p] for p in pool]
        self.queries = [self.records[p] for p in pool]
        self.extra = power_law_records(ctx.rng(12), 20_000)
        # Deletes target initial records outside the query pool.
        victims = np.setdiff1d(ctx.rng(13).permutation(NUM_RECORDS)[:20_000], pool)
        self.victims = ctx.rng(14).permutation(victims).tolist()
        self.live: dict[int, np.ndarray] = dict(enumerate(self.ids))
        self._next_extra = 0

    def next_batch(self) -> list[np.ndarray]:
        start = self._next_extra % (len(self.extra) - WRITE_BATCH)
        self._next_extra += WRITE_BATCH
        return self.extra[start : start + WRITE_BATCH]

    def truth(self) -> list[set[int]]:
        ids = list(self.live)
        oracle = ExactOracle([self.live[i] for i in ids], ids)
        return [set(oracle.search(q, THRESHOLD)) for q in self.query_ids]


def _write_stream(index, corpus: _Corpus, batches: int) -> tuple[int, float, list[float]]:
    """Writes made, seconds spent, and the seconds of each ``insert_many`` call."""
    writes = 0
    spent = 0.0
    insert_seconds = []
    for _ in range(batches):
        chunk = corpus.next_batch()
        ids, seconds = timed(index.insert_many, corpus.vocabulary.records(chunk))
        corpus.live.update(zip(ids, chunk))
        victim = corpus.victims.pop()
        _, delete_seconds = timed(index.delete, victim)
        del corpus.live[victim]
        writes += len(ids) + 1
        spent += seconds + delete_seconds
        insert_seconds.append(seconds)
    return writes, spent, insert_seconds


def _accuracy(outcome: Outcome, corpus: _Corpus, hits) -> None:
    """F1 of ``hits`` against exact truth on the current live set."""
    truth = corpus.truth()
    outcome.gate("truth_contains_query", all(truth), "every query finds itself")
    f1 = mean_f1(truth, [{h.record_id for h in found} for found in hits])
    outcome.extras["f1"] = (f1, "ratio")


def _cycle(ctx: Context, outcome: Outcome, index, corpus: _Corpus, first: bool) -> dict:
    """One write stream, search, top-k, save, reopen and search again."""
    from repro.api import open_index

    writes, write_seconds, insert_seconds = _write_stream(index, corpus, WRITE_BATCHES)
    before, search_before = timed(index.search_many, corpus.queries, THRESHOLD)
    _, top_seconds = timed(index.top_k_many, corpus.queries, K)
    path = ctx.work_path("ingest_str-shards")
    _, save_seconds = timed(index.save, path)
    snapshot_bytes = directory_bytes(path)
    reopened, load_seconds = timed(open_index, path)
    after, search_after = timed(reopened.search_many, corpus.queries, THRESHOLD)
    reopened.close()
    same = answers(after) == answers(before)
    if first or not same:
        outcome.gate("reopened_equals_saved", same, f"{POOL} string queries")
    outcome.attempted += writes + 3 * POOL + 2
    return {
        "writes": writes,
        "write_s": write_seconds,
        "insert_s": insert_seconds,
        "search_s": [search_before, search_after],
        "top_s": top_seconds,
        "save_s": save_seconds,
        "load_s": load_seconds,
        "bytes_per_record": snapshot_bytes / index.num_records,
        "hits": before,
    }


def _shard_imbalance(index) -> float:
    sizes = [shard.num_records for shard in index.shards]
    return max(sizes) / max(min(sizes), 1)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    corpus = _Corpus(ctx)
    if ctx.trace:
        return _traced(ctx, outcome, corpus)

    index, setup_s, setups = median_setup(
        lambda: _build(corpus.records), SETUPS, release=lambda i: i.close()
    )
    outcome.attempted += SETUPS
    # Warm-up search (lazy per-shard finalize), not timed.
    index.search_many(corpus.queries, THRESHOLD)

    cycles = []
    deadline = time.perf_counter() + ctx.seconds
    while not cycles or time.perf_counter() < deadline:
        cycles.append(_cycle(ctx, outcome, index, corpus, first=not cycles))
        if len(cycles) == 1:
            _accuracy(outcome, corpus, cycles[0]["hits"])
    index.close()

    # Throughputs are per cycle, then the median over cycles, so one stalled
    # cycle cannot decide a run.
    insert_ms = 1e3 * np.array([s for c in cycles for s in c["insert_s"]])
    outcome.end_to_end.update(
        {
            "setup_s": setup_s,
            "search_qps": float(np.median([2 * POOL / sum(c["search_s"]) for c in cycles])),
            "topk_qps": float(np.median([POOL / c["top_s"] for c in cycles])),
            "write_rps": float(np.median([c["writes"] / c["write_s"] for c in cycles])),
            "p50_ms": float(np.percentile(insert_ms, 50)),
            "save_s": float(np.median([c["save_s"] for c in cycles])),
            "load_s": float(np.median([c["load_s"] for c in cycles])),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    outcome.extras.update(
        {
            "p90_ms": (float(np.percentile(insert_ms, 90)), "ms"),
            "cycles": (float(len(cycles)), "count"),
            "setup_runs_s": (float(max(setups) - min(setups)), "s"),
            "snapshot_bytes_per_record": (cycles[-1]["bytes_per_record"], "B/record"),
        }
    )
    return outcome


def _traced(ctx: Context, outcome: Outcome, corpus: _Corpus) -> Outcome:
    """Untraced build + cycle, then the same traced."""
    index, build_plain = timed(_build, corpus.records)
    index.search_many(corpus.queries, THRESHOLD)
    cycle, cycle_plain = timed(_cycle, ctx, outcome, index, corpus, True)
    _accuracy(outcome, corpus, cycle["hits"])
    index.close()

    tracer = Tracer()
    install_library_tracing(tracer)
    try:
        index, build_traced = timed(_build, corpus.records)
        index.search_many(corpus.queries, THRESHOLD)
        cycle, cycle_traced = timed(_cycle, ctx, outcome, index, corpus, False)
        imbalance = _shard_imbalance(index)
        index.close()
    finally:
        tracer.restore()
    outcome.layers = layer_metrics(
        tracer.spans,
        {
            "trace.overhead_frac": (build_traced + cycle_traced) / (build_plain + cycle_plain) - 1.0,
            "sharding.shard_imbalance": imbalance,
            "sharding.snapshot_bytes_per_record": cycle["bytes_per_record"],
        },
    )
    outcome.extras.update(
        {
            "untraced_unit_s": (build_plain + cycle_plain, "s"),
            "traced_unit_s": (build_traced + cycle_traced, "s"),
        }
    )
    outcome.spans = tracer.dump()
    return outcome
