"""Exact containment ground truth, computed independently of the library.

``C(Q, X) = |Q ∩ X| / |Q|`` over distinct elements.  The oracle stores
the corpus as (record, element) pairs deduplicated and inverted by
element with one sort, so a query costs one gather of its elements'
posting lists plus one count — exact, and fast enough for a million
records.  Nothing here imports :mod:`repro`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ExactOracle:
    """Inverted index over integer records for exact threshold search."""

    def __init__(self, records: Sequence[np.ndarray], record_ids: Sequence[int]) -> None:
        if len(records) != len(record_ids):
            raise ValueError("record_ids must be parallel to records")
        sizes = np.fromiter((len(r) for r in records), dtype=np.int64, count=len(records))
        flat = np.concatenate(records).astype(np.int64, copy=False)
        if flat.size and flat.min() < 0:
            raise ValueError("elements must be non-negative integers")
        # One element-major sort both inverts and deduplicates the corpus
        # (np.unique is avoided: on large int64 inputs it is far slower).
        count = max(len(records), 1)
        keys = np.sort(flat * count + np.repeat(np.arange(len(records), dtype=np.int64), sizes))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys
        self._elements = keys // count
        self._postings = keys % count
        self._ids = np.asarray(record_ids, dtype=np.int64)

    def _postings_of(self, element: int) -> np.ndarray:
        lo = np.searchsorted(self._elements, element, side="left")
        hi = np.searchsorted(self._elements, element, side="right")
        return self._postings[lo:hi]

    def overlaps(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """``(record ids, |Q ∩ X|, |Q|)`` for every record sharing an element."""
        distinct = np.unique(np.asarray(query, dtype=np.int64))
        if not distinct.size:
            raise ValueError("query must contain at least one element")
        gathered = np.concatenate([self._postings_of(int(e)) for e in distinct])
        positions, counts = np.unique(gathered, return_counts=True)
        return self._ids[positions], counts, int(distinct.size)

    def search(self, query: np.ndarray, threshold: float) -> dict[int, float]:
        """Record id -> exact containment for every record ``>= threshold``."""
        ids, counts, size = self.overlaps(query)
        scores = counts / size
        keep = scores >= threshold
        return dict(zip(ids[keep].tolist(), scores[keep].tolist()))


def f1_score(truth: set[int], answer: set[int]) -> float:
    """F1 of one answer set; an empty truth answered empty scores 1."""
    if not truth and not answer:
        return 1.0
    hits = len(truth & answer)
    if hits == 0:
        return 0.0
    precision = hits / len(answer)
    recall = hits / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def mean_f1(truths: Sequence[set[int]], answers: Sequence[set[int]]) -> float:
    """Average per-query F1 (the paper's accuracy measure)."""
    if len(truths) != len(answers) or not truths:
        raise ValueError("need one answer per truth set, at least one")
    return float(np.mean([f1_score(t, a) for t, a in zip(truths, answers)]))
