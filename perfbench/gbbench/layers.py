"""Which library names the traced run wraps, and the per-layer metrics.

Each entry patches one name where the library looks it up, records the
span under ``<module>.<function>`` and, after the call, the work it did
as counts.  :func:`layer_metrics` folds the spans into the flat
``<module>.<function>.<stat>`` table ``BENCHMARK.json`` lists; every
metric is always present, zero where a workload does not reach the layer.
"""

from __future__ import annotations

import numpy as np

from gbbench.tracer import Span, Tracer, aggregate, covered_length


def _len_result(key: str):
    return lambda args, kwargs, result: {key: len(result)}


def _flatten_counts(args, kwargs, result):
    return {"rows": result.num_records, "elements": result.total_elements}


def _sketch_counts(args, kwargs, result):
    return {
        "rows": result.num_records,
        "nbytes": result.values.nbytes + result.signatures.nbytes,
    }


def _workload_counts(args, kwargs, result):
    stats = getattr(args[0], "last_workload_stats", None)
    if stats is None:
        return {}
    return {
        "estimated": stats.estimator_pairs,
        "hits": stats.hit_pairs,
        "dense": stats.dense_cells,
    }


def install_library_tracing(tracer: Tracer) -> None:
    """Wrap every traced layer of the library (restored by ``tracer.restore``)."""
    import repro.core.index as index_module
    import repro.core.bulk as bulk_module
    import repro.sharding.backend as sharded_module
    import repro.sharding.planner as planner_module
    from repro.core.index import GBKMVIndex
    from repro.core.store import ColumnarSketchStore
    from repro.hashing import UnitHash
    from repro.serving.write_buffer import WriteCoalescer
    from repro.sharding.executor import ShardExecutor

    for module in (index_module, planner_module):
        tracer.patch(module, "flatten_records", "bulk.flatten_records", _flatten_counts)
    tracer.patch(bulk_module, "fingerprint_many", "hashing.fingerprint_many", _len_result("elements"))
    tracer.patch(UnitHash, "hash_many", "hashing.hash_many", _len_result("elements"))
    tracer.patch(index_module, "choose_buffer_size", "cost_model.choose_buffer_size")
    tracer.patch(index_module, "select_vocabulary", "bulk.select_vocabulary")
    tracer.patch(index_module, "bulk_sketch", "bulk.bulk_sketch", _sketch_counts)
    tracer.patch(
        index_module,
        "residual_intersection_estimates",
        "batched.residual_intersection_estimates",
        lambda args, kwargs, result: {"pairs": np.size(result)},
    )

    tracer.patch(ColumnarSketchStore, "append_bulk", "store.append_bulk", _len_result("rows"))
    tracer.patch_property(ColumnarSketchStore, "row_sizes", "store.row_sizes")
    tracer.patch(
        ColumnarSketchStore,
        "match_workload",
        "store.match_workload",
        lambda args, kwargs, result: {"matches": result.num_matches},
    )
    tracer.patch(
        ColumnarSketchStore,
        "match_counts_block",
        "store.match_counts_block",
        lambda args, kwargs, result: {"pairs": result[0].size},
    )
    tracer.patch(
        ColumnarSketchStore,
        "signature_overlap_block",
        "store.signature_overlap_block",
        lambda args, kwargs, result: {"cells": result.size},
    )
    tracer.patch(GBKMVIndex, "search_many", "index.search_many", _workload_counts)
    tracer.patch(GBKMVIndex, "top_k_many", "index.top_k_many", _workload_counts)

    tracer.patch(ShardExecutor, "map", "sharding.executor.map", adopt=True)
    tracer.patch(sharded_module, "merge_workload_hits", "sharding.merge_workload_hits")
    tracer.patch(sharded_module, "save_sharded", "sharding.save_sharded")
    tracer.patch(sharded_module, "load_sharded", "sharding.load_sharded")
    tracer.patch(WriteCoalescer, "flush", "serving.write_flush")


def install_engine_tracing(tracer: Tracer, index) -> None:
    """Wrap one served index instance: its engine calls and bulk inserts."""
    batch = lambda args, kwargs, result: {"queries": len(args[0])}  # noqa: E731
    tracer.patch(index, "search_many", "serving.engine", batch)
    tracer.patch(index, "top_k_many", "serving.engine", batch)
    tracer.patch(index, "insert_many", "serving.insert_many", _len_result("inserts"))


#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("bulk.flatten_records.s", "s", "lower"),
    ("bulk.flatten_records.rows", "count", "lower"),
    ("bulk.flatten_records.elements", "count", "lower"),
    ("hashing.fingerprint_many.s", "s", "lower"),
    ("hashing.fingerprint_many.elements", "count", "lower"),
    ("hashing.hash_many.s", "s", "lower"),
    ("hashing.hash_many.elements", "count", "lower"),
    ("cost_model.choose_buffer_size.s", "s", "lower"),
    ("bulk.select_vocabulary.s", "s", "lower"),
    ("bulk.bulk_sketch.s", "s", "lower"),
    ("bulk.bulk_sketch.rows", "count", "lower"),
    ("bulk.bulk_sketch.nbytes", "B", "lower"),
    ("store.append_bulk.s", "s", "lower"),
    ("store.append_bulk.rows", "count", "lower"),
    ("store.row_sizes.s", "s", "lower"),
    ("store.row_sizes.calls", "count", "lower"),
    ("store.match_workload.s", "s", "lower"),
    ("store.match_workload.matches", "count", "lower"),
    ("store.match_counts_block.s", "s", "lower"),
    ("store.match_counts_block.pairs", "count", "lower"),
    ("store.signature_overlap_block.s", "s", "lower"),
    ("store.signature_overlap_block.cells", "count", "lower"),
    ("batched.residual_intersection_estimates.s", "s", "lower"),
    ("batched.residual_intersection_estimates.pairs", "count", "lower"),
    ("index.search_many.s", "s", "lower"),
    ("index.top_k_many.s", "s", "lower"),
    ("index.hit_per_estimated", "ratio", "higher"),
    ("index.estimated_per_dense", "ratio", "lower"),
    ("index.row_sizes_share", "ratio", "lower"),
    ("sharding.executor.map.s", "s", "lower"),
    ("sharding.merge_workload_hits.s", "s", "lower"),
    ("sharding.shard_imbalance", "ratio", "lower"),
    ("sharding.save_sharded.s", "s", "lower"),
    ("sharding.load_sharded.s", "s", "lower"),
    ("sharding.snapshot_bytes_per_record", "B/record", "lower"),
    ("serving.engine.s", "s", "lower"),
    ("serving.engine.calls", "count", "lower"),
    ("serving.engine.mean_batch", "count", "higher"),
    ("serving.front_us", "us", "lower"),
    ("serving.front_us.requests", "count", "higher"),
    ("serving.write_flush.s", "s", "lower"),
    ("serving.write_flush.calls", "count", "lower"),
    ("serving.inserts_per_batch", "count", "higher"),
    ("serving.lane_busy_frac", "ratio", "higher"),
    ("loadgen.lateness_ms.p99", "ms", "lower"),
    ("loadgen.requests", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def front_time_us(spans: list[Span]) -> list[float]:
    """Per served request: its latency minus the engine span(s) inside it.

    Only requests whose id was stamped on an engine span count — those of
    the single-client phase, where one request is in flight at a time.
    """
    engine: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.name == "serving.engine" and span.request_id is not None:
            engine.setdefault(span.request_id, []).append((span.start, span.end))
    fronts = []
    for span in spans:
        if span.name == "serving.request" and span.request_id in engine:
            busy = covered_length(engine[span.request_id], span.start, span.end)
            fronts.append((span.duration - busy) * 1e6)
    return fronts


def lane_busy_fraction(spans: list[Span], lo: float, hi: float) -> float:
    """Share of ``[lo, hi]`` the worker lane spent in engine calls or flushes."""
    busy = [
        (span.start, span.end)
        for span in spans
        if span.name in ("serving.engine", "serving.write_flush")
    ]
    return _ratio(covered_length(busy, lo, hi), hi - lo)


def layer_metrics(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the spans plus workload-side numbers.

    ``extra`` supplies what spans cannot: tracing overhead, shard
    imbalance, snapshot size, lane busy share, generator lateness.
    """
    table = aggregate(spans)
    # The serving boundary spans wrap the engine and the bulk insert; their
    # ``.s`` is the whole time spent behind the boundary, not self time.
    for name in ("serving.engine", "serving.write_flush"):
        if name in table:
            table[name]["s"] = table[name]["total_s"]
    metrics = {}
    for name, _, _ in PER_LAYER:
        span_name, stat = name.rsplit(".", 1)
        metrics[name] = float(table.get(span_name, {}).get(stat, 0.0))
    engine_rows = [table.get("index.search_many", {}), table.get("index.top_k_many", {})]
    estimated = sum(row.get("estimated", 0) for row in engine_rows)
    metrics["index.hit_per_estimated"] = _ratio(
        table.get("index.search_many", {}).get("hits", 0),
        table.get("index.search_many", {}).get("estimated", 0),
    )
    metrics["index.estimated_per_dense"] = _ratio(
        estimated, sum(row.get("dense", 0) for row in engine_rows)
    )
    metrics["index.row_sizes_share"] = _ratio(
        table.get("store.row_sizes", {}).get("total_s", 0.0),
        sum(row.get("total_s", 0.0) for row in engine_rows),
    )
    engine = table.get("serving.engine", {})
    metrics["serving.engine.mean_batch"] = _ratio(engine.get("queries", 0), engine.get("calls", 0))
    inserts = table.get("serving.insert_many", {})
    metrics["serving.inserts_per_batch"] = _ratio(inserts.get("inserts", 0), inserts.get("calls", 0))
    fronts = front_time_us(spans)
    metrics["serving.front_us"] = float(np.median(fronts)) if fronts else 0.0
    metrics["serving.front_us.requests"] = float(len(fronts))
    metrics["trace.spans"] = float(len(spans))
    for key, value in extra.items():
        if key not in metrics:
            raise KeyError(f"unknown per-layer metric {key!r}")
        metrics[key] = float(value)
    return metrics
