"""The benchmark's exact-truth oracle agrees with the library's brute force."""

import numpy as np
import pytest

from gbbench.corpus import power_law_records
from gbbench.oracle import ExactOracle, f1_score, mean_f1
from repro.exact import BruteForceSearcher


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
def test_oracle_matches_brute_force(threshold):
    rng = np.random.default_rng(5)
    records = power_law_records(rng, 400, universe=300)
    queries = [records[p] for p in (0, 7, 123, 399)] + [np.array([1, 2, 3, 299])]
    oracle = ExactOracle(records, np.arange(len(records)))
    brute = BruteForceSearcher([r.tolist() for r in records])
    for query in queries:
        got = oracle.search(query, threshold)
        want = {hit.record_id: hit.score for hit in brute.search(query.tolist(), threshold)}
        if threshold == 0.0:
            # Records sharing nothing score 0 and only brute force lists them.
            want = {rid: score for rid, score in want.items() if score > 0.0}
        assert got == want


def test_oracle_maps_positions_to_record_ids_and_dedups_elements():
    records = [np.array([1, 1, 2]), np.array([2, 3]), np.array([9])]
    oracle = ExactOracle(records, [10, 20, 30])
    assert oracle.search(np.array([1, 2, 2]), 0.5) == {10: 1.0, 20: 0.5}
    assert oracle.search(np.array([9, 4]), 0.5) == {30: 0.5}


def test_f1():
    assert f1_score({1, 2}, {1, 2}) == 1.0
    assert f1_score({1}, set()) == 0.0
    assert f1_score(set(), set()) == 1.0
    assert f1_score({1, 2}, {2, 3}) == pytest.approx(0.5)
    assert mean_f1([{1}, {1, 2}], [{1}, {2, 3}]) == pytest.approx(0.75)
