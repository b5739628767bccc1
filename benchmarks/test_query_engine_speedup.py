"""Micro-benchmark — fused workload kernels vs per-query kernels vs loops.

The columnar-store PR claimed that batching candidate scoring removes the
interpreter overhead that used to dominate query time; the fused-kernel
PR pushes the batching *into* the kernels and bounds memory.  This
benchmark pins both claims on a 10k-record power-law dataset:

* **per-record path** — score a query against every record by
  materialising per-record sketch objects and calling the scalar
  Equation-25 estimator pair by pair (what a naive reproduction does);
* **looped path** — one :meth:`GBKMVIndex.search` call per query (the
  single-query engine: one vectorised CSR merge per query);
* **per-query-kernel path** — :func:`_per_query_kernel_search_many`, a
  frozen comparator of the pre-fusion batched engine: one store-kernel
  call per query stacked into a dense ``(B, num_rows)`` score matrix;
* **fused path** — ``search_many()`` (the default): all queries resolved
  against the value→record join index in one ``searchsorted`` +
  flat-``bincount`` pass, signature overlap as one packed-matrix
  popcount, rows swept in blocks of ``row_block_size``, and zero-count /
  zero-overlap pairs pruned before the Equation-25 estimator.

Asserted invariants:

* fused ``search_many`` returns **exactly** the hits of looped
  ``search`` and of the per-query-kernel engine, and its scores are
  **bitwise identical** to the per-record sketch-object scores — the
  speed comes from fusion, not approximation;
* the fused path is at least **3×** the per-query-kernel path at the
  full 10k-record scale on a clean machine (the number recorded in
  ``BENCH_query_engine.json``); the in-suite assertion guards a lower
  backstop because a full-suite run adds cache and allocator pressure,
  and a reduced-size run (the CI smoke step) only a sanity floor;
* the batched engine scores records at least **5×** faster than the
  per-record path (in practice the gap is orders of magnitude);
* with ``row_block_size < num_rows`` the dense ``(B, num_rows)`` score
  matrix is never materialised — the peak per-block footprint is
  ``B × row_block_size`` cells.

The measured throughputs and the fused execution footprint are written
to ``BENCH_query_engine.json`` at the repository root so future PRs can
track the trajectory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from _util import bench_num_queries, bench_scale, write_report

from repro.core import GBKMVIndex, residual_intersection_estimates
from repro.core.index import results_from_scores
from repro.datasets import generate_zipf_dataset, sample_queries

SPACE_FRACTION = 0.10
THRESHOLD = 0.5
NUM_PER_RECORD_QUERIES = 3  # the per-record path is slow; sample it
#: The fused-vs-per-query claim is about *large* workloads; never measure
#: it on fewer than this many queries.
MIN_WORKLOAD_QUERIES = 100
#: Block size used for the measured fused runs (< num_records at full
#: scale, so the blocked path is what gets measured).
ROW_BLOCK_SIZE = 8192
#: Records at full benchmark scale, below which the 3x fused guard
#: degrades to a sanity floor (reduced-size CI smoke runs).
FULL_SCALE_RECORDS = 10_000

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_query_engine.json"


def _num_records() -> int:
    """10k records at the default scale (0.25); REPRO_BENCH_SCALE tunes it."""
    return max(int(40_000 * bench_scale()), 1_000)


def _dataset(num_records: int) -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=num_records,
        universe_size=80_000,
        element_exponent=1.15,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=200,
        seed=41,
    )


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _per_record_scores(index: GBKMVIndex, query) -> np.ndarray:
    """Score every record through per-record sketch objects (the old path)."""
    query_sketch = index.query_sketch(query)
    return np.array(
        [
            query_sketch.intersection_size_estimate(index.sketch(record_id))
            for record_id in range(index.num_records)
        ],
        dtype=np.float64,
    )


def _per_query_kernel_search_many(index: GBKMVIndex, queries, threshold: float):
    """Frozen comparator: the pre-fusion batched engine.

    Per-query join counts and signature overlaps stacked into dense
    ``(B, num_rows)`` matrices, then one Equation-25 estimator call over
    the whole matrix and a per-query hit selection.
    """
    prepared = index._prepare_workload(queries, None)
    store = index.store
    store.finalize()
    counts = np.stack([store.intersection_counts_join(p.values) for p in prepared])
    overlaps = np.stack([store.signature_overlap(p.mask) for p in prepared])
    residual_estimates = residual_intersection_estimates(
        counts,
        store.row_sizes,
        store.row_max,
        store.row_exact,
        np.array([[p.values.size] for p in prepared], dtype=np.int64),
        np.array([[p.max_value] for p in prepared], dtype=np.float64),
        np.array([[p.exact] for p in prepared], dtype=bool),
    )
    scores = overlaps.astype(np.float64) + residual_estimates
    row_ids, alive = store.result_view()
    return [
        results_from_scores(
            scores[row], threshold, p.query_size, row_ids=row_ids, alive=alive
        )
        for row, p in enumerate(prepared)
    ]


def _as_pairs(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def _run() -> dict[str, object]:
    num_records = _num_records()
    num_queries = max(bench_num_queries(), MIN_WORKLOAD_QUERIES)
    records = _dataset(num_records)
    queries, _ids = sample_queries(records, num_queries=num_queries, seed=17)

    build_start = time.perf_counter()
    index = GBKMVIndex.build(records, space_fraction=SPACE_FRACTION)
    build_seconds = time.perf_counter() - build_start
    index.store.finalize()  # measure query paths, not one-off cache building

    def best_of(function, rounds: int = 3):
        """Warm up once, then keep the fastest of ``rounds`` runs."""
        result = function()
        seconds = min(
            _timed(function) for _ in range(rounds)
        )
        return result, seconds

    # Per-record sketch-object path (a sample of the workload; it is slow,
    # so one timed pass is plenty).
    per_record_queries = queries[:NUM_PER_RECORD_QUERIES]
    start = time.perf_counter()
    per_record_scores = [_per_record_scores(index, query) for query in per_record_queries]
    per_record_seconds = time.perf_counter() - start
    per_record_rps = num_records * len(per_record_queries) / per_record_seconds

    # Looped single-query engine.
    looped_results, looped_seconds = best_of(
        lambda: [index.search(query, THRESHOLD) for query in queries]
    )
    looped_rps = num_records * len(queries) / looped_seconds

    # Per-query-kernel engine (the pre-fusion baseline) vs the fused
    # blocked engine.  Each path is timed in consecutive rounds (warm
    # caches — the steady state of a serving workload), best-of kept.
    per_query_results, per_query_seconds = best_of(
        lambda: _per_query_kernel_search_many(index, queries, THRESHOLD),
        rounds=5,
    )
    per_query_rps = num_records * len(queries) / per_query_seconds

    fused_results, fused_seconds = best_of(
        lambda: index.search_many(queries, THRESHOLD, row_block_size=ROW_BLOCK_SIZE),
        rounds=5,
    )
    fused_rps = num_records * len(queries) / fused_seconds
    stats = index.last_workload_stats
    assert stats is not None

    # --- identity checks -------------------------------------------------
    # The fused engine must return exactly what looped search and the
    # per-query-kernel engine return.
    assert _as_pairs(fused_results) == _as_pairs(looped_results)
    assert _as_pairs(fused_results) == _as_pairs(per_query_results)
    # The engine's intersection estimates must be bitwise identical to the
    # per-record sketch-object estimates (same hasher, same formulas).
    batched_scores = index.search_many(
        per_record_queries, 0.0
    )  # threshold 0 keeps every record
    for reference, engine_hits, query in zip(
        per_record_scores, batched_scores, per_record_queries
    ):
        assert len(engine_hits) == num_records
        q = len(set(query))
        engine_scores = np.empty(num_records, dtype=np.float64)
        for hit in engine_hits:
            engine_scores[hit.record_id] = hit.score
        # search reports containment (estimate / |Q|); apply the same
        # division to the reference so the comparison stays bit-exact.
        assert np.array_equal(engine_scores, reference / q), (
            "batched scores are not bitwise identical to the per-record path"
        )

    # --- blocked-execution footprint -------------------------------------
    # With row_block_size < num_rows the fused engine must never have
    # materialised a dense (B, num_rows) intermediate.
    blocked_execution = stats.row_block_size < stats.num_rows
    if blocked_execution:
        assert stats.peak_block_cells < stats.dense_cells, (
            "blocked engine materialised the dense score matrix"
        )
        assert stats.peak_block_cells <= num_queries * ROW_BLOCK_SIZE

    speedup_vs_per_record = fused_rps / per_record_rps
    speedup_vs_looped = fused_rps / looped_rps
    speedup_vs_per_query = fused_rps / per_query_rps
    assert speedup_vs_per_record >= 5.0, (
        f"fused path is only {speedup_vs_per_record:.1f}x the per-record path"
    )
    # The headline fusion claim — >= 3x on a clean machine at full scale,
    # see BENCH_query_engine.json — degrades under the cache/allocator
    # pressure of a full-suite run, so the in-suite guard is a regression
    # backstop, not the headline: well below it means the fusion broke.
    fused_guard = 2.0 if num_records >= FULL_SCALE_RECORDS else 1.2
    assert speedup_vs_per_query >= fused_guard, (
        f"fused kernels are only {speedup_vs_per_query:.2f}x the per-query "
        f"kernels (guard: {fused_guard}x at {num_records} records)"
    )

    payload = {
        "dataset": {
            "num_records": num_records,
            "distribution": "power-law (zipf element frequency, zipf record size)",
            "space_fraction": SPACE_FRACTION,
            "threshold": THRESHOLD,
            "num_queries": num_queries,
        },
        "build_seconds": round(build_seconds, 3),
        "records_per_second": {
            "per_record_sketch_objects": round(per_record_rps, 1),
            "looped_search": round(looped_rps, 1),
            "per_query_kernels_search_many": round(per_query_rps, 1),
            "fused_search_many": round(fused_rps, 1),
        },
        "speedup": {
            "fused_vs_per_record": round(speedup_vs_per_record, 1),
            "fused_vs_looped_search": round(speedup_vs_looped, 1),
            "fused_vs_per_query_kernels": round(speedup_vs_per_query, 2),
        },
        "fused_execution": {
            "row_block_size": stats.row_block_size,
            "num_blocks": stats.num_blocks,
            "peak_block_cells": stats.peak_block_cells,
            "dense_cells": stats.dense_cells,
            "estimator_pairs": stats.estimator_pairs,
            "hit_pairs": stats.hit_pairs,
            "dense_score_matrix_materialised": not blocked_execution,
        },
        "identical_results": True,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_query_engine_speedup(run_once):
    payload = run_once(_run)
    rates = payload["records_per_second"]
    dataset = payload["dataset"]
    write_report(
        "query_engine_speedup",
        # The workload is clamped to >= MIN_WORKLOAD_QUERIES, so state the
        # sizes actually measured rather than the suite-wide defaults.
        f"Fused query engine: records scored per second "
        f"({dataset['num_records']} power-law records, "
        f"{dataset['num_queries']}-query workload)",
        ["path", "records_per_second"],
        [
            ["per-record sketch objects", rates["per_record_sketch_objects"]],
            ["looped search()", rates["looped_search"]],
            ["per-query kernels search_many()", rates["per_query_kernels_search_many"]],
            ["fused search_many()", rates["fused_search_many"]],
        ],
    )
    assert payload["speedup"]["fused_vs_per_record"] >= 5.0
