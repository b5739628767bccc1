"""The fused whole-workload kernels must be indistinguishable from loops.

Covers the hard bitwise-identity requirement of the fused query engine
across the edge cases: empty workload, empty-value queries, all-tombstone
store, duplicate values across queries, single-query workloads, and
``row_block_size`` smaller than / equal to / larger than ``num_rows``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError
from repro.baselines import KMVSearchIndex
from repro.core import DEFAULT_ROW_BLOCK_SIZE, GBKMVIndex
from repro.core.index import results_from_scores
from repro.core.store import ColumnarSketchStore
from repro.datasets import sample_queries


def _as_pairs(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def _store_with_rows(rows, signature_bits=8):
    store = ColumnarSketchStore(signature_bits=signature_bits)
    for values, mask in rows:
        values = np.asarray(values, dtype=np.float64)
        store.append(
            values=values,
            mask=mask,
            residual_record_size=values.size + 1,
            record_size=values.size + 3,
        )
    store.finalize()
    return store


def _stacked_join_counts(store, queries):
    """Per-query reference: one ``intersection_counts_join`` row per query."""
    rows = [store.intersection_counts_join(query) for query in queries]
    return np.array(rows, dtype=np.int64).reshape(len(queries), store.num_rows)


def _stacked_overlaps(store, masks):
    """Per-query reference: one ``signature_overlap`` row per mask."""
    rows = [store.signature_overlap(mask) for mask in masks]
    return np.array(rows, dtype=np.int64).reshape(len(masks), store.num_rows)


def _dense_block_counts(store, matches, row_lo=0, row_hi=None):
    """``match_counts_block``'s sparse counts scattered into a dense block."""
    row_hi = store.num_rows if row_hi is None else row_hi
    dense = np.zeros((matches.num_queries, row_hi - row_lo), dtype=np.int64)
    query_ids, columns, counts = store.match_counts_block(matches, row_lo, row_hi)
    dense[query_ids, columns] = counts
    return dense


@pytest.fixture
def small_store():
    return _store_with_rows(
        [
            ([0.1, 0.2, 0.5], 0b101),
            ([0.2, 0.3], 0b011),
            ([], 0b110),
            ([0.05, 0.2, 0.5, 0.9], 0b000),
            ([0.5], 0b111),
        ]
    )


class TestStoreFusedKernels:
    """Store-level: fused counts/overlaps equal the per-query kernels."""

    WORKLOADS = {
        "plain": [[0.2, 0.5], [0.1, 0.3, 0.9]],
        "duplicates_across_queries": [[0.2, 0.5], [0.2, 0.5], [0.5]],
        "empty_value_query": [[], [0.2], []],
        "single_query": [[0.05, 0.2]],
        "no_matches": [[0.15, 0.45]],
        "empty_workload": [],
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fused_counts_match_per_query_kernels(self, small_store, name):
        queries = [np.asarray(q, dtype=np.float64) for q in self.WORKLOADS[name]]
        matches = small_store.match_workload(queries)
        fused = _dense_block_counts(small_store, matches)
        looped = _stacked_join_counts(small_store, queries)
        assert np.array_equal(fused, looped)

    @pytest.mark.parametrize("block", [1, 2, 5, 7])
    def test_blocked_counts_match_whole_pass(self, small_store, block):
        queries = [np.asarray(q, dtype=np.float64) for q in self.WORKLOADS["plain"]]
        matches = small_store.match_workload(queries)
        num_rows = small_store.num_rows
        assembled = np.concatenate(
            [
                _dense_block_counts(
                    small_store, matches, lo, min(lo + block, num_rows)
                )
                for lo in range(0, num_rows, block)
            ],
            axis=1,
        )
        assert np.array_equal(assembled, _stacked_join_counts(small_store, queries))

    def test_sparse_counts_match_dense_block(self, small_store):
        queries = [np.asarray(q, dtype=np.float64) for q in self.WORKLOADS["plain"]]
        matches = small_store.match_workload(queries)
        dense = _stacked_join_counts(small_store, queries)[:, 1:4]
        query_ids, columns, counts = small_store.match_counts_block(matches, 1, 4)
        rebuilt = np.zeros_like(dense)
        rebuilt[query_ids, columns] = counts
        assert np.array_equal(rebuilt, dense)
        assert np.all(counts > 0)

    def test_packed_masks_overlap_matches_per_query(self, small_store):
        masks = [0b101, 0b0, 0b111, 0b010]
        words = small_store.pack_signature_masks(masks)
        fused = small_store.signature_overlap_block(words)
        looped = _stacked_overlaps(small_store, masks)
        assert np.array_equal(fused, looped)
        # float accumulation must be exact for popcount-sized integers
        as_float = small_store.signature_overlap_block(words, dtype=np.float64)
        assert np.array_equal(as_float, looped.astype(np.float64))

    def test_overlap_blocking_matches_whole_pass(self, small_store):
        masks = [0b101, 0b110]
        words = small_store.pack_signature_masks(masks)
        whole = small_store.signature_overlap_block(words)
        assembled = np.concatenate(
            [
                small_store.signature_overlap_block(words, lo, min(lo + 2, 5))
                for lo in range(0, 5, 2)
            ],
            axis=1,
        )
        assert np.array_equal(assembled, whole)

    def test_multiword_signatures(self):
        # 70 bits -> two uint64 words; overlap must sum across words.
        wide = 1 << 69 | 0b1011
        store = _store_with_rows(
            [([0.1], wide), ([0.2], 0b1), ([], (1 << 69))], signature_bits=70
        )
        masks = [wide, 0b1, 1 << 69]
        words = store.pack_signature_masks(masks)
        assert words.shape == (3, 2)
        assert np.array_equal(
            store.signature_overlap_block(words), _stacked_overlaps(store, masks)
        )

    def test_zero_signature_bits(self):
        store = _store_with_rows([([0.1], 0), ([0.4], 0)], signature_bits=0)
        words = store.pack_signature_masks([0, 0])
        assert words.shape == (2, 0)
        assert np.array_equal(
            store.signature_overlap_block(words), np.zeros((2, 2), dtype=np.int64)
        )
        with pytest.raises(ConfigurationError):
            store.pack_signature_masks([0b1])

    def test_match_workload_on_empty_store(self):
        store = _store_with_rows([], signature_bits=4)
        matches = store.match_workload([np.array([0.25])])
        assert matches.num_matches == 0
        assert _dense_block_counts(store, matches).shape == (1, 0)


@pytest.fixture(scope="module")
def engine_setup(zipf_records):
    index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
    queries, _ids = sample_queries(zipf_records, num_queries=10, seed=3)
    return index, list(queries)


@pytest.fixture(scope="module")
def scalar_scores(engine_setup):
    """Every (query, record) estimate through the scalar sketch objects."""
    index, queries = engine_setup
    scores = []
    for query in queries:
        query_sketch = index.query_sketch(query)
        scores.append(
            np.array(
                [
                    query_sketch.intersection_size_estimate(index.sketch(record_id))
                    for record_id in range(index.num_records)
                ],
                dtype=np.float64,
            )
        )
    return scores


class TestFusedEngineIdentity:
    """Index-level: fused search_many == scalar sketches == looped search."""

    @pytest.mark.parametrize("block", [1, 17, 400, 10_000, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.4, 1.0])
    def test_block_size_sweep(self, engine_setup, scalar_scores, threshold, block):
        # 400 records: blocks smaller than, equal to and larger than num_rows.
        index, queries = engine_setup
        looped = [index.search(query, threshold) for query in queries]
        fused = index.search_many(queries, threshold, row_block_size=block)
        scalar = [
            results_from_scores(scores, threshold, len(set(query)))
            for scores, query in zip(scalar_scores, queries)
        ]
        assert _as_pairs(fused) == _as_pairs(looped)
        assert _as_pairs(fused) == _as_pairs(scalar)

    def test_single_query_workload(self, engine_setup):
        index, queries = engine_setup
        fused = index.search_many(queries[:1], 0.3, row_block_size=7)
        assert _as_pairs(fused) == _as_pairs([index.search(queries[0], 0.3)])

    def test_empty_workload(self, engine_setup):
        index, _queries = engine_setup
        assert index.search_many([], 0.5) == []
        assert index.top_k_many([], 3) == []

    def test_duplicate_queries_in_workload(self, engine_setup):
        index, queries = engine_setup
        workload = [queries[0], queries[1], queries[0]]
        fused = index.search_many(workload, 0.25, row_block_size=64)
        assert _as_pairs(fused) == _as_pairs(
            [index.search(query, 0.25) for query in workload]
        )

    def test_empty_value_queries(self, zipf_records):
        # A query made purely of frequent (vocabulary) elements keeps no
        # residual hash values; scoring must come entirely from the
        # signature overlap, fused and looped alike.
        index = GBKMVIndex.build(zipf_records[:100], space_fraction=0.1, buffer_size=8)
        buffer_query = list(index.vocabulary.elements)[:4]
        assert buffer_query
        assert index._prepare_workload([buffer_query], None)[0].values.size == 0
        workload = [buffer_query, list(zipf_records[0]), buffer_query]
        for threshold in (0.0, 0.2):
            fused = index.search_many(workload, threshold, row_block_size=16)
            looped = [index.search(query, threshold) for query in workload]
            assert _as_pairs(fused) == _as_pairs(looped)

    def test_all_tombstone_store(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:40], space_fraction=0.2)
        queries = [zipf_records[0], zipf_records[5]]
        for record_id in list(range(40)):
            index.delete(record_id)
        for threshold in (0.0, 0.5):
            fused = index.search_many(queries, threshold, row_block_size=8)
            assert fused == [[], []]
            assert _as_pairs(fused) == _as_pairs(
                [index.search(query, threshold) for query in queries]
            )
        assert index.top_k_many(queries, 3, row_block_size=8) == [[], []]

    def test_deletes_and_blocking(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:200], space_fraction=0.1)
        for record_id in range(0, 60, 2):
            index.delete(record_id)
        queries, _ids = sample_queries(zipf_records[:200], num_queries=6, seed=9)
        looped = [index.search(query, 0.3) for query in queries]
        for block in (13, 200, 500):
            fused = index.search_many(queries, 0.3, row_block_size=block)
            assert _as_pairs(fused) == _as_pairs(looped)

    def test_invalid_row_block_size_rejected(self, engine_setup):
        index, queries = engine_setup
        with pytest.raises(ConfigurationError):
            index.search_many(queries[:1], 0.5, row_block_size=0)
        with pytest.raises(ConfigurationError):
            index.top_k_many(queries[:1], 3, row_block_size=-4)


class TestWorkloadStats:
    def test_blocked_execution_never_materialises_dense(self, engine_setup):
        index, queries = engine_setup
        index.search_many(queries, 0.5, row_block_size=64)
        stats = index.last_workload_stats
        assert stats is not None
        assert stats.row_block_size == 64
        assert stats.peak_block_cells == len(queries) * 64
        assert stats.peak_block_cells < stats.dense_cells
        assert stats.num_blocks == -(-stats.num_rows // 64)

    def test_default_block_size(self, engine_setup):
        index, queries = engine_setup
        index.search_many(queries, 0.5)
        stats = index.last_workload_stats
        assert stats.row_block_size == DEFAULT_ROW_BLOCK_SIZE

    def test_estimator_pruning_observed(self, engine_setup):
        # The Eq-25 estimator must only ever see pairs with a nonzero
        # residual intersection — never the full (B, num_rows) grid.
        index, queries = engine_setup
        index.search_many(queries, 0.5)
        stats = index.last_workload_stats
        assert 0 < stats.estimator_pairs < stats.dense_cells


class TestTopKMany:
    @pytest.mark.parametrize("block", [9, 400, 1000, None])
    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_matches_looped_top_k(self, engine_setup, k, block):
        index, queries = engine_setup
        looped = [index.top_k(query, k) for query in queries]
        many = index.top_k_many(queries, k, row_block_size=block)
        assert _as_pairs(many) == _as_pairs(looped)

    def test_k_larger_than_store(self, engine_setup):
        index, queries = engine_setup
        many = index.top_k_many(queries[:2], 10_000, row_block_size=37)
        looped = [index.top_k(query, 10_000) for query in queries[:2]]
        assert _as_pairs(many) == _as_pairs(looped)

    def test_with_deletes(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:120], space_fraction=0.15)
        for record_id in range(0, 40, 3):
            index.delete(record_id)
        queries, _ids = sample_queries(zipf_records[:120], num_queries=5, seed=21)
        many = index.top_k_many(queries, 6, row_block_size=11)
        looped = [index.top_k(query, 6) for query in queries]
        assert _as_pairs(many) == _as_pairs(looped)

    def test_invalid_k_rejected(self, engine_setup):
        index, queries = engine_setup
        with pytest.raises(ConfigurationError):
            index.top_k_many(queries[:1], 0)


class TestKMVFusedPath:
    @pytest.mark.parametrize("block", [5, 150, 4096, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.35, 1.0])
    def test_matches_looped_search(self, zipf_records, threshold, block):
        index = KMVSearchIndex.build(zipf_records[:150], space_fraction=0.1)
        queries, _ids = sample_queries(zipf_records[:150], num_queries=8, seed=6)
        looped = [index.search(query, threshold) for query in queries]
        fused = index.search_many(queries, threshold, row_block_size=block)
        assert _as_pairs(fused) == _as_pairs(looped)

    def test_single_and_empty_workloads(self, zipf_records):
        index = KMVSearchIndex.build(zipf_records[:60], space_fraction=0.2)
        assert index.search_many([], 0.5) == []
        fused = index.search_many([zipf_records[0]], 0.4, row_block_size=7)
        assert _as_pairs(fused) == _as_pairs([index.search(zipf_records[0], 0.4)])

    def test_with_deletes_and_updates(self, zipf_records):
        index = KMVSearchIndex.build(zipf_records[:100], space_fraction=0.15)
        for record_id in range(0, 30, 2):
            index.delete(record_id)
        index.update(31, zipf_records[0])
        queries, _ids = sample_queries(zipf_records[:100], num_queries=6, seed=8)
        looped = [index.search(query, 0.3) for query in queries]
        fused = index.search_many(queries, 0.3, row_block_size=16)
        assert _as_pairs(fused) == _as_pairs(looped)
