"""Shared plumbing for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper on
proxy datasets (see ``repro.datasets.proxies`` and DESIGN.md for the
substitution rationale).  The helpers here keep the modules declarative:
they load (and cache) proxies, run the standard query workload, evaluate
methods, and write a plain-text report both to stdout and to
``benchmarks/results/<name>.txt`` so the regenerated rows survive pytest's
output capturing.

Environment knobs
-----------------
``REPRO_BENCH_SCALE``
    Multiplier on proxy dataset sizes (default ``0.25``).  Use ``1.0`` for
    a slower, higher-fidelity run.
``REPRO_BENCH_QUERIES``
    Number of queries per workload (default ``30``; the paper uses 200).
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.baselines import KMVSearchIndex
from repro.core import (
    FrequentElementVocabulary,
    GBKMVIndex,
    choose_buffer_size,
    residual_threshold,
)
from repro.core.buffer import BITS_PER_SIGNATURE_UNIT
from repro.core.bulk import resolve_space_budget
from repro.datasets import DATASET_PROFILES, load_proxy, sample_queries
from repro.evaluation import evaluate_search_method, exact_result_sets, format_table
from repro.evaluation.harness import MethodEvaluation, time_construction
from repro.hashing import UnitHash

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset names in the order the paper's figures present them.
ALL_DATASETS = tuple(DATASET_PROFILES)

#: The paper's default containment similarity threshold.
DEFAULT_THRESHOLD = 0.5


def bench_scale() -> float:
    """Proxy-size multiplier, from ``REPRO_BENCH_SCALE`` (default 0.25)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def bench_num_queries() -> int:
    """Workload size, from ``REPRO_BENCH_QUERIES`` (default 30)."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", "30"))


@lru_cache(maxsize=None)
def bench_dataset(name: str) -> tuple[tuple[object, ...], ...]:
    """Load (and memoise) the proxy dataset for a paper corpus."""
    records = load_proxy(name, scale=bench_scale(), seed=7)
    return tuple(tuple(record) for record in records)


@lru_cache(maxsize=None)
def bench_workload(
    name: str, threshold: float = DEFAULT_THRESHOLD
) -> tuple[tuple[tuple[object, ...], ...], tuple[frozenset[int], ...]]:
    """Queries drawn from the proxy plus their exact ground truth."""
    records = bench_dataset(name)
    queries, _ids = sample_queries(records, num_queries=bench_num_queries(), seed=13)
    truth = exact_result_sets(records, queries, threshold)
    return tuple(tuple(q) for q in queries), tuple(truth)


def evaluate_methods(
    records: Sequence[Sequence[object]],
    queries: Sequence[Sequence[object]],
    ground_truth: Sequence[frozenset[int]],
    threshold: float,
    methods: dict[str, Callable[[], object]],
    use_batched: bool = True,
) -> dict[str, MethodEvaluation]:
    """Build and evaluate each method on a shared workload.

    Methods exposing ``search_many`` (GB-KMV and the KMV/G-KMV baselines)
    are driven through the batched query engine; the rest (LSH-E,
    asymmetric MinHash, the exact searchers) fall back to per-query
    loops inside the harness.
    """
    evaluations: dict[str, MethodEvaluation] = {}
    for name, builder in methods.items():
        built, construction_seconds = time_construction(builder)
        evaluations[name] = evaluate_search_method(
            name,
            built,
            queries,
            ground_truth,
            threshold,
            construction_seconds=construction_seconds,
            use_batched=use_batched,
        )
    return evaluations


def write_report(name: str, title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a table, print it, and persist it under ``benchmarks/results/``."""
    table = format_table(headers, rows)
    report = f"{title}\n{'=' * len(title)}\n(scale={bench_scale()}, queries={bench_num_queries()})\n\n{table}\n"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(report, encoding="utf-8")
    print(f"\n{report}")
    return report


def per_record_build(
    records: Sequence[Iterable[object]],
    space_fraction: float = 0.10,
    seed: int = 0,
    cost_model_pair_sample: int = 256,
) -> GBKMVIndex:
    """Frozen comparator: Algorithm 1 record at a time, from public primitives.

    Plans the way the paper states it — a ``Counter`` of element
    frequencies, the cost-model buffer size, the top-``r`` vocabulary
    and the residual threshold ``τ`` — then grows a pinned-parameter
    index with one :meth:`GBKMVIndex.insert` per record.  The result is
    bitwise identical to :meth:`GBKMVIndex.build`; the bulk-build speed
    guards are measured against it.
    """
    materialized = [set(record) for record in records]
    hasher = UnitHash(seed=seed)
    record_sizes = np.array([len(record) for record in materialized], dtype=np.int64)
    budget = resolve_space_budget(int(record_sizes.sum()), space_fraction, None)
    frequencies: Counter = Counter()
    for record in materialized:
        frequencies.update(record)
    sizing = choose_buffer_size(
        record_sizes,
        np.array(list(frequencies.values()), dtype=np.float64),
        budget,
        pair_sample=cost_model_pair_sample,
        seed=seed,
    )
    vocabulary = FrequentElementVocabulary.from_frequencies(
        frequencies, sizing.buffer_size
    )
    buffer_cost = len(materialized) * vocabulary.size / BITS_PER_SIGNATURE_UNIT
    residual_frequencies = {
        element: count
        for element, count in frequencies.items()
        if element not in vocabulary
    }
    threshold = residual_threshold(
        residual_frequencies, max(budget - buffer_cost, 0.0), hasher
    )
    index = GBKMVIndex(
        vocabulary=vocabulary, threshold=threshold, hasher=hasher, budget=budget
    )
    for record in materialized:
        index.insert(record)
    return index


def per_record_kmv_build(
    records: Sequence[Iterable[object]], space_fraction: float = 0.10, seed: int = 0
) -> KMVSearchIndex:
    """Frozen comparator for the KMV baseline: equal allocation, then ``insert``."""
    materialized = [set(record) for record in records]
    budget = resolve_space_budget(
        sum(len(record) for record in materialized), space_fraction, None
    )
    k = max(int(budget // len(materialized)), 1)
    index = KMVSearchIndex(hasher=UnitHash(seed=seed), k_per_record=k, budget=budget)
    for record in materialized:
        index.insert(record)
    return index
