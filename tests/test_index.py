"""Unit tests for GBKMVIndex construction and search (repro.core.index)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api import GBKMVConfig
from repro.core import GBKMVIndex, GBKMVSketch
from repro.exact import BruteForceSearcher


class TestBuild:
    def test_basic_construction(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        assert index.num_records == 4
        assert len(index) == 4
        assert index.buffer_size == 2
        assert 0.0 < index.threshold <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            GBKMVIndex.build([], space_fraction=0.5)

    def test_empty_record_rejected(self):
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build([["a"], []], space_fraction=0.5)

    def test_invalid_space_fraction_rejected(self, tiny_records):
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build(tiny_records, space_fraction=0.0)
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build(tiny_records, space_fraction=1.5)

    def test_invalid_space_budget_rejected(self, tiny_records):
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build(tiny_records, space_budget=-5)

    def test_negative_buffer_size_rejected(self, tiny_records):
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build(tiny_records, buffer_size=-1)

    @pytest.mark.parametrize(
        "buffer_size", [2.5, "AUTO", "2", None, True, np.float64(2.0), np.int64(-1)]
    )
    def test_invalid_buffer_size_rejected(self, tiny_records, buffer_size):
        with pytest.raises(ConfigurationError, match="buffer_size"):
            GBKMVIndex.build(tiny_records, buffer_size=buffer_size)
        with pytest.raises(ConfigurationError, match="buffer_size"):
            GBKMVIndex.from_records(tiny_records, GBKMVConfig(buffer_size=buffer_size))

    @pytest.mark.parametrize("buffer_size", [2, np.int64(2), np.uint8(2)])
    def test_integer_buffer_size_accepted(self, tiny_records, buffer_size):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=buffer_size)
        assert index.buffer_size == 2

    def test_auto_buffer_size_is_used_by_default(self, zipf_records):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
        assert index.buffer_size >= 0  # chosen by the cost model
        assert index.vocabulary.size == index.buffer_size

    def test_space_budget_respected(self, zipf_records):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.1, buffer_size=0)
        assert index.space_in_values() <= index.budget * 1.01
        assert index.space_fraction() <= 0.11

    def test_space_budget_mostly_used(self, zipf_records):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.1, buffer_size=0)
        assert index.space_in_values() >= index.budget * 0.85

    def test_explicit_budget_overrides_fraction(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=0.01, space_budget=100)
        assert index.budget == 100

    def test_statistics_snapshot(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=1)
        stats = index.statistics()
        assert stats.num_records == 4
        assert stats.total_elements == sum(len(set(r)) for r in tiny_records)
        assert stats.buffer_size == 1
        assert stats.space_in_values == index.space_in_values()

    def test_record_sizes_accessible(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        np.testing.assert_array_equal(index.record_sizes(), [5, 3, 3, 4])
        assert index.record_size(0) == 5

    def test_sketch_materialisation(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        sketch = index.sketch(0)
        assert isinstance(sketch, GBKMVSketch)
        assert sketch.record_size == 5
        assert len(list(index.sketches())) == 4


class TestSearch:
    def test_paper_example_1_with_full_budget(self, tiny_records, example_query):
        """With a 100% budget the sketches are exact, so the search is exact."""
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        hits = index.search(example_query, threshold=0.5)
        assert {hit.record_id for hit in hits} == {0, 1}
        scores = {hit.record_id: hit.score for hit in hits}
        assert scores[0] == pytest.approx(4 / 6)
        assert scores[1] == pytest.approx(3 / 6)

    def test_results_sorted_by_score(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        hits = index.search(example_query, threshold=0.0)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_zero_threshold_returns_everything(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        hits = index.search(example_query, threshold=0.0)
        assert len(hits) == 4

    def test_threshold_one_returns_only_supersets(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        hits = index.search(["e2", "e3"], threshold=1.0)
        assert {hit.record_id for hit in hits} == {0, 1}

    def test_invalid_threshold_rejected(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.search(example_query, threshold=1.5)

    def test_empty_query_rejected(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.search([], threshold=0.5)

    def test_query_with_unknown_elements_only(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        hits = index.search(["zzz", "yyy"], threshold=0.5)
        assert hits == []

    def test_explicit_query_size_changes_normalisation(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        # Pretend the query is larger than its distinct elements: scores halve.
        small = index.search(["e2", "e3"], threshold=0.0)
        large = index.search(["e2", "e3"], threshold=0.0, query_size=4)
        small_scores = {hit.record_id: hit.score for hit in small}
        large_scores = {hit.record_id: hit.score for hit in large}
        for record_id, score in large_scores.items():
            assert score == pytest.approx(small_scores[record_id] / 2)

    def test_estimate_containment_single_record(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        assert index.estimate_containment(example_query, 0) == pytest.approx(4 / 6)

    def test_top_k(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        top = index.top_k(example_query, k=2)
        assert len(top) == 2
        assert top[0].record_id == 0
        with pytest.raises(ConfigurationError):
            index.top_k(example_query, k=0)

    def test_query_sketch_uses_index_parameters(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=0.5, buffer_size=2)
        sketch = index.query_sketch(example_query)
        assert sketch.threshold == index.threshold
        assert sketch.vocabulary == index.vocabulary

    def test_search_matches_per_pair_sketch_estimates(self, zipf_records):
        """The vectorised search path must agree with the sketch-object path."""
        index = GBKMVIndex.build(zipf_records[:100], space_fraction=0.3, buffer_size=16)
        query = zipf_records[3]
        hits = {hit.record_id: hit.score for hit in index.search(query, threshold=0.0)}
        query_sketch = index.query_sketch(query)
        q = len(set(query))
        for record_id in range(index.num_records):
            expected = query_sketch.intersection_size_estimate(index.sketch(record_id)) / q
            assert hits[record_id] == pytest.approx(expected, abs=1e-9)

    def test_recall_is_high_on_moderate_budget(self, zipf_records):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.2)
        oracle = BruteForceSearcher(zipf_records)
        recalls = []
        for query in zipf_records[:10]:
            truth = {hit.record_id for hit in oracle.search(query, 0.5)}
            found = {hit.record_id for hit in index.search(query, 0.5)}
            if truth:
                recalls.append(len(truth & found) / len(truth))
        assert np.mean(recalls) > 0.7
