"""Seeded inputs: power-law integer corpora, string tokens, query pools.

Every generator takes a ``numpy.random.Generator`` (derived from the
workload seed by the caller), so the same seed gives the same inputs.
The corpus recipe is the one of ``benchmarks/test_sharded.py``: record
sizes are ``zipf(2.2) + 4`` capped at 64, elements are drawn from the
universe by inverse CDF with small ids hot.
"""

from __future__ import annotations

import numpy as np

UNIVERSE = 200_000


def power_law_records(
    rng: np.random.Generator, num_records: int, universe: int = UNIVERSE
) -> list[np.ndarray]:
    """``num_records`` int64 records (views into one flat array)."""
    sizes = np.minimum(rng.zipf(2.2, size=num_records) + 4, 64).astype(np.int64)
    draws = rng.random(int(sizes.sum()))
    elements = np.floor(universe * draws**2.5).astype(np.int64)
    return np.split(elements, np.cumsum(sizes)[:-1])


class TokenVocabulary:
    """Maps integer element ids to the string tokens ``"tok<id>"``."""

    def __init__(self, universe: int = UNIVERSE) -> None:
        self._tokens = np.array([f"tok{i}" for i in range(universe)], dtype=object)

    def record(self, ids: np.ndarray) -> list[str]:
        return self._tokens[ids].tolist()

    def records(self, id_records: list[np.ndarray]) -> list[list[str]]:
        return [self._tokens[ids].tolist() for ids in id_records]


def sample_pool(rng: np.random.Generator, num_records: int, size: int) -> np.ndarray:
    """Positions of ``size`` distinct records to reuse as queries."""
    return np.sort(rng.choice(num_records, size=size, replace=False))
