"""Figure 18 — sketch construction time, GB-KMV versus LSH Ensemble.

Builds both indexes at their default settings (GB-KMV: 10% space budget,
single hash function; LSH-E: 256 hash functions, 32 partitions) on every
proxy dataset and reports the wall-clock construction time.  The paper's
claim is that GB-KMV builds much faster because it hashes every element
once instead of 256 times.

GB-KMV is timed through the shipped builder — the vectorised bulk
construction pipeline — with the record-at-a-time comparator
(:func:`_util.per_record_build`) reported alongside so the figure shows
what bulk construction changed.
"""

from __future__ import annotations

import time

from _util import ALL_DATASETS, bench_dataset, per_record_build, write_report

from repro.baselines import LSHEnsembleIndex
from repro.core import GBKMVIndex


def _run() -> list[list[object]]:
    rows: list[list[object]] = []
    for name in ALL_DATASETS:
        records = bench_dataset(name)
        start = time.perf_counter()
        GBKMVIndex.build(records, space_fraction=0.10)
        gbkmv_seconds = time.perf_counter() - start
        start = time.perf_counter()
        per_record_build(records, space_fraction=0.10)
        per_record_seconds = time.perf_counter() - start
        start = time.perf_counter()
        LSHEnsembleIndex.build(records, num_perm=256, num_partitions=32)
        lshe_seconds = time.perf_counter() - start
        rows.append(
            [
                name,
                round(gbkmv_seconds, 3),
                round(per_record_seconds, 3),
                round(lshe_seconds, 3),
                round(lshe_seconds / max(gbkmv_seconds, 1e-9), 1),
            ]
        )
    return rows


def test_fig18_construction_time(run_once):
    rows = run_once(_run)
    write_report(
        "fig18_construction_time",
        "Figure 18: sketch construction time (seconds)",
        ["dataset", "gbkmv_bulk_s", "gbkmv_per_record_s", "lshe_s", "speedup_vs_lshe"],
        rows,
    )
    # Shape checks: GB-KMV construction is faster than LSH-E on every
    # dataset, through both the bulk and the per-record builder.
    for row in rows:
        assert row[1] < row[3]
        assert row[2] < row[3]
