"""KMV and G-KMV containment search baselines (no buffer).

``KMVSearchIndex`` keeps, for every record, its ``k = ⌊b / m⌋`` smallest
hash values — the equal allocation Theorem 1 shows to be optimal for
plain KMV under a space budget ``b`` — and answers containment search
with the Equation-10 intersection estimator.  The per-record values live
in a dense ``(num_records, k)`` float64 matrix (rows padded with
``+inf``), so one query is scored against every record with a single
call into the batched estimator layer
(:func:`repro.core.batched.kmv_intersection_estimates`), and a whole
workload with :meth:`KMVSearchIndex.search_many`.

``GKMVSearchIndex`` keeps every hash value below a single global
threshold ``τ`` chosen so the sketches fill the budget, and estimates
with the enlarged-``k`` estimator of Equations 24–26.  It is exactly a
GB-KMV index with buffer size zero, and is implemented as such —
segmented columnar store, batched engine and all.

Both expose the same dynamic surface as :class:`~repro.core.GBKMVIndex`
— ``insert`` / ``delete`` / ``update`` under stable record ids, and
``save`` / ``load`` npz snapshots — so the evaluation harness can drive
every method through an identical mixed insert/delete/query stream.

Both appear as the non-buffered points of Figure 6.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, SnapshotFormatError
from repro.api.config import GKMVConfig, KMVConfig
from repro.api.interface import Capabilities, SimilarityIndex
from repro.api.registry import snapshot_tag
from repro.core.batched import KMVBatchEstimator
from repro.core.bulk import bulk_kmv_value_rows, flatten_records, resolve_space_budget
from repro.core.index import (
    GBKMVIndex,
    SearchResult,
    _assemble_workload_results,
    _resolve_row_block_size,
    results_from_scores,
)
from repro.hashing import UnitHash

#: Version tag written into KMV snapshots.
KMV_SNAPSHOT_VERSION = 1

#: Tombstoned-row fraction above which the KMV baseline compacts its row
#: lists (mirroring the segmented store's ``compact_ratio``).
KMV_COMPACT_RATIO = 0.25


class KMVSearchIndex(SimilarityIndex):
    """Plain-KMV containment similarity search with equal allocation."""

    backend_id = "kmv"
    config_type = KMVConfig
    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    def __init__(
        self,
        hasher: UnitHash,
        k_per_record: int,
        budget: float,
    ) -> None:
        self._hasher = hasher
        self._k = int(k_per_record)
        self._budget = float(budget)
        # Per-record rows with stable ids and tombstone flags; the dense
        # batched estimator over the live rows is a derived cache rebuilt
        # lazily after any mutation.
        self._value_rows: list[np.ndarray] = []
        self._record_sizes: list[int] = []
        self._row_ids: list[int] = []
        self._alive: list[bool] = []
        self._id_to_pos: dict[int, int] = {}
        self._next_id = 0
        self._num_dead = 0
        self._estimator: KMVBatchEstimator | None = None
        self._live_ids: np.ndarray | None = None
        self._live_positions: dict[int, int] = {}
        self._stored_values = 0

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
    ) -> "KMVSearchIndex":
        """Build the index with the Theorem-1 equal allocation ``k = ⌊b / m⌋``.

        The whole dataset is hashed in one vectorised pass and every
        record's ``k`` smallest values are selected with a global lexsort
        (:func:`repro.core.bulk.bulk_kmv_value_rows`) — the same values
        :meth:`~repro.core.kmv.KMVSketch.from_record` keeps per record.
        """
        if hasher is None:
            hasher = UnitHash(seed=seed)
        flat = flatten_records(records)
        budget = resolve_space_budget(flat.total_elements, space_fraction, space_budget)
        k = max(int(budget // flat.num_records), 1)
        index = cls(hasher=hasher, k_per_record=k, budget=budget)
        index._extend_rows(
            bulk_kmv_value_rows(flat, hasher, k), flat.record_sizes.tolist()
        )
        return index

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: KMVConfig | None = None,
    ) -> "KMVSearchIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(
            records,
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            seed=config.seed,
        )

    def _extend_rows(
        self, value_rows: list[np.ndarray], record_sizes: list[int]
    ) -> list[int]:
        """Append a batch of pre-sketched rows; returns their record ids."""
        ids = list(range(self._next_id, self._next_id + len(value_rows)))
        self._value_rows.extend(value_rows)
        self._record_sizes.extend(record_sizes)
        self._row_ids.extend(ids)
        self._alive.extend([True] * len(value_rows))
        base = len(self._value_rows) - len(value_rows)
        for position, record_id in enumerate(ids):
            self._id_to_pos[record_id] = base + position
        self._next_id += len(value_rows)
        self._stored_values += int(sum(row.size for row in value_rows))
        self._estimator = None
        return ids

    def _add_record(self, record: set, record_id: int | None = None) -> int:
        if record_id is None:
            record_id = self._next_id
        else:
            record_id = int(record_id)
            if record_id in self._id_to_pos:
                raise ConfigurationError(f"record id {record_id} is already live")
        hashes = np.unique(self._hasher.hash_many(list(record)))
        kept = hashes[: self._k]
        self._id_to_pos[record_id] = len(self._value_rows)
        self._value_rows.append(kept)
        self._record_sizes.append(len(record))
        self._row_ids.append(record_id)
        self._alive.append(True)
        self._next_id = max(self._next_id, record_id + 1)
        self._stored_values += int(kept.size)
        self._estimator = None
        return record_id

    # ----------------------------------------------------------------- updates
    def insert(self, record: Iterable[object]) -> int:
        """Insert a new record; returns its stable record id."""
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot insert an empty record")
        return self._add_record(materialized)

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batched ingest: sketch and append a whole batch in one bulk pass.

        Record ids and sketch state are identical to looping
        :meth:`insert`; the batch is hashed and truncated to ``k`` values
        per record with the vectorised pipeline instead of one
        ``hash_many`` + ``np.unique`` call per record.
        """
        if len(records) == 0:
            return []
        flat = flatten_records(records)
        return self._extend_rows(
            bulk_kmv_value_rows(flat, self._hasher, self._k),
            flat.record_sizes.tolist(),
        )

    def delete(self, record_id: int) -> None:
        """Tombstone a record; it disappears from every subsequent search.

        Raises
        ------
        ConfigurationError
            If ``record_id`` is unknown or already deleted.
        """
        position = self._id_to_pos.pop(int(record_id), None)
        if position is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        self._alive[position] = False
        self._stored_values -= int(self._value_rows[position].size)
        self._num_dead += 1
        self._estimator = None
        if self._num_dead >= KMV_COMPACT_RATIO * len(self._value_rows):
            self._compact_rows()

    def _compact_rows(self) -> None:
        """Physically drop tombstoned rows so long streams stay bounded."""
        if self._num_dead == 0:
            return
        live = [position for position, alive in enumerate(self._alive) if alive]
        self._value_rows = [self._value_rows[position] for position in live]
        self._record_sizes = [self._record_sizes[position] for position in live]
        self._row_ids = [self._row_ids[position] for position in live]
        self._alive = [True] * len(live)
        self._id_to_pos = {
            record_id: position for position, record_id in enumerate(self._row_ids)
        }
        self._num_dead = 0

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id."""
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot update a record to be empty")
        self.delete(record_id)
        return self._add_record(materialized, record_id=record_id)

    # ------------------------------------------------------------ introspection
    @property
    def k_per_record(self) -> int:
        """The per-record sketch capacity ``k = ⌊b / m⌋``."""
        return self._k

    @property
    def num_records(self) -> int:
        """Number of live indexed records."""
        return len(self._record_sizes) - self._num_dead

    @property
    def next_record_id(self) -> int:
        """The id the next :meth:`insert` will assign (sequential, never reused)."""
        return self._next_id

    def __len__(self) -> int:
        return self.num_records

    def space_in_values(self) -> float:
        """Actual space used by live sketches, in signature-value units."""
        return float(self._stored_values)

    def space_fraction(self) -> float:
        """Space used as a fraction of the (live) dataset size."""
        total = sum(
            size for size, alive in zip(self._record_sizes, self._alive) if alive
        )
        return self.space_in_values() / total if total else 0.0

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Snapshot the index (rows, ids, tombstones, parameters) to npz."""
        lengths = np.array([row.size for row in self._value_rows], dtype=np.int64)
        values = (
            np.concatenate(self._value_rows)
            if self._value_rows
            else np.empty(0, dtype=np.float64)
        )
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
        )
        meta = {
            "format_version": KMV_SNAPSHOT_VERSION,
            "k_per_record": self._k,
            "budget": self._budget,
            "hasher_seed": self._hasher.seed,
            "next_id": self._next_id,
        }
        np.savez_compressed(
            path,
            api_meta=snapshot_tag(self.backend_id, KMV_SNAPSHOT_VERSION),
            kmv_meta=np.array(json.dumps(meta)),
            values=values,
            offsets=offsets,
            record_sizes=np.asarray(self._record_sizes, dtype=np.int64),
            row_ids=np.asarray(self._row_ids, dtype=np.int64),
            alive=np.asarray(self._alive, dtype=bool),
        )

    @classmethod
    def load(cls, path) -> "KMVSearchIndex":
        """Restore an index saved with :meth:`save` (bitwise-identical search).

        Raises
        ------
        SnapshotFormatError
            If the file is not a KMV snapshot or was written by an
            unsupported format version.
        """
        with np.load(path) as data:
            if "kmv_meta" not in data.files:
                raise SnapshotFormatError(
                    f"{path!r} is not a KMV index snapshot (no kmv_meta "
                    "payload); use repro.api.open_index for other backends"
                )
            try:
                meta = json.loads(str(data["kmv_meta"][()]))
            except json.JSONDecodeError as error:
                raise SnapshotFormatError(
                    f"malformed KMV snapshot metadata: {error}"
                ) from error
            try:
                values = np.asarray(data["values"], dtype=np.float64)
                offsets = np.asarray(data["offsets"], dtype=np.int64)
                record_sizes = np.asarray(data["record_sizes"], dtype=np.int64)
                row_ids = np.asarray(data["row_ids"], dtype=np.int64)
                alive = np.asarray(data["alive"], dtype=bool)
            except KeyError as error:
                raise SnapshotFormatError(
                    f"KMV snapshot is missing column {error}; the payload is "
                    "truncated or from an unsupported layout"
                ) from error
        version = meta.get("format_version")
        if version != KMV_SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"unsupported KMV snapshot version {version!r} "
                f"(this build reads version {KMV_SNAPSHOT_VERSION})"
            )
        index = cls(
            hasher=UnitHash(seed=int(meta["hasher_seed"])),
            k_per_record=int(meta["k_per_record"]),
            budget=float(meta["budget"]),
        )
        for position in range(record_sizes.size):
            row = values[offsets[position] : offsets[position + 1]].copy()
            index._value_rows.append(row)
            index._record_sizes.append(int(record_sizes[position]))
            index._row_ids.append(int(row_ids[position]))
            index._alive.append(bool(alive[position]))
            if alive[position]:
                index._id_to_pos[int(row_ids[position])] = position
                index._stored_values += int(row.size)
            else:
                index._num_dead += 1
        index._next_id = int(meta["next_id"])
        return index

    # ----------------------------------------------------------------- search
    def _finalize(self) -> KMVBatchEstimator:
        """Pack the live rows into the dense padded matrix of the estimator."""
        if self._estimator is None:
            live = [position for position, alive in enumerate(self._alive) if alive]
            self._estimator = KMVBatchEstimator.from_value_rows(
                [self._value_rows[position] for position in live],
                [self._record_sizes[position] for position in live],
                self._k,
            )
            ids = np.array(
                [self._row_ids[position] for position in live], dtype=np.int64
            )
            identity = bool(np.array_equal(ids, np.arange(ids.size, dtype=np.int64)))
            self._live_ids = None if identity else ids
            self._live_positions = {
                int(record_id): row for row, record_id in enumerate(ids.tolist())
            }
        return self._estimator

    def _query_values(self, query_elements: set) -> tuple[np.ndarray, int]:
        """Kept query sketch values plus the query's distinct hash count."""
        query_hashes = np.unique(self._hasher.hash_many(list(query_elements)))
        return query_hashes[: self._k], int(query_hashes.size)

    def estimate_intersection(
        self, query_values: np.ndarray, query_exact: bool, record_id: int
    ) -> float:
        """Equation-10 intersection estimate between a query sketch and a record.

        ``query_exact`` says whether ``query_values`` is the query's complete
        hash set (the query had at most ``k`` distinct elements); when both
        sides are exact the overlap is counted exactly instead of estimated.
        """
        estimator = self._finalize()
        row = self._live_positions.get(int(record_id))
        if row is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        return estimator.intersection_one(query_values, query_exact, row)

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Containment similarity search with the plain-KMV estimator."""
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        query_elements = set(query)
        if not query_elements:
            raise ConfigurationError("query must contain at least one element")
        q = len(query_elements) if query_size is None else int(query_size)
        if q <= 0:
            raise ConfigurationError("query_size must be positive")
        estimator = self._finalize()
        query_values, query_hash_count = self._query_values(query_elements)
        estimates = estimator.intersection_many(query_values, query_hash_count)
        return results_from_scores(estimates, threshold, q, row_ids=self._live_ids)

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Batched containment search: same results as looping :meth:`search`.

        Runs the fused multi-query Equation-10 path: every query's sketch
        values are resolved against all records' values in one join-index
        pass, and the records are swept in blocks of ``row_block_size``
        (peak memory ``O(B × block)``).  Estimates — and therefore hits,
        scores and ordering — are bit-identical to the per-query path.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        if not queries:
            return []
        estimator = self._finalize()
        block = _resolve_row_block_size(row_block_size)

        num_queries = len(queries)
        value_rows: list[np.ndarray] = []
        hash_counts = np.zeros(num_queries, dtype=np.int64)
        sizes = np.zeros(num_queries, dtype=np.float64)
        for position, query in enumerate(queries):
            query_elements = set(query)
            if not query_elements:
                raise ConfigurationError("query must contain at least one element")
            q = (
                len(query_elements)
                if query_sizes is None
                else int(query_sizes[position])
            )
            if q <= 0:
                raise ConfigurationError("query_size must be positive")
            values, hash_count = self._query_values(query_elements)
            value_rows.append(values)
            hash_counts[position] = hash_count
            sizes[position] = q
        value_counts = np.fromiter(
            (values.size for values in value_rows), dtype=np.int64, count=num_queries
        )
        query_exact = value_counts >= hash_counts
        query_matrix = np.full(
            (num_queries, max(int(value_counts.max()), 1)), np.inf, dtype=np.float64
        )
        for position, values in enumerate(value_rows):
            query_matrix[position, : values.size] = values

        matches = estimator.match_workload(value_rows)
        theta = threshold * sizes
        num_records = estimator.num_records
        hit_query_chunks: list[np.ndarray] = []
        hit_id_chunks: list[np.ndarray] = []
        hit_score_chunks: list[np.ndarray] = []
        for row_lo in range(0, num_records, block):
            row_hi = min(row_lo + block, num_records)
            estimates = estimator.intersection_workload_block(
                query_matrix, value_counts, query_exact, matches, row_lo, row_hi
            )
            if threshold > 0.0:
                hits = estimates >= theta[:, np.newaxis] * (1.0 - 1e-12)
            else:
                hits = np.ones(estimates.shape, dtype=bool)
            hit_queries, hit_cols = np.nonzero(hits)
            if not hit_queries.size:
                continue
            rows = hit_cols + row_lo
            hit_query_chunks.append(hit_queries)
            hit_id_chunks.append(
                rows if self._live_ids is None else self._live_ids[rows]
            )
            hit_score_chunks.append(
                estimates[hit_queries, hit_cols] / sizes[hit_queries]
            )
        return _assemble_workload_results(
            num_queries, hit_query_chunks, hit_id_chunks, hit_score_chunks
        )


class GKMVSearchIndex(SimilarityIndex):
    """G-KMV containment search: a GB-KMV index constrained to buffer size 0."""

    backend_id = "gkmv"
    config_type = GKMVConfig
    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    def __init__(self, inner: GBKMVIndex) -> None:
        self._inner = inner

    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
    ) -> "GKMVSearchIndex":
        """Build G-KMV sketches under the given budget (no frequent-element buffer)."""
        inner = GBKMVIndex.build(
            records,
            space_fraction=space_fraction,
            space_budget=space_budget,
            buffer_size=0,
            hasher=hasher,
            seed=seed,
        )
        return cls(inner)

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: GKMVConfig | None = None,
    ) -> "GKMVSearchIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(
            records,
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            seed=config.seed,
        )

    @property
    def inner(self) -> GBKMVIndex:
        """The underlying zero-buffer GB-KMV index."""
        return self._inner

    def statistics(self):
        """Summary statistics of the inner zero-buffer GB-KMV index."""
        return self._inner.statistics()

    @property
    def threshold(self) -> float:
        """The global hash-value threshold ``τ``."""
        return self._inner.threshold

    @property
    def num_records(self) -> int:
        """Number of live indexed records."""
        return self._inner.num_records

    @property
    def next_record_id(self) -> int:
        """The id the next :meth:`insert` will assign (sequential, never reused)."""
        return self._inner.next_record_id

    def __len__(self) -> int:
        return self.num_records

    def space_in_values(self) -> float:
        """Actual space used, in signature-value units."""
        return self._inner.space_in_values()

    def space_fraction(self) -> float:
        """Space used as a fraction of the dataset size."""
        return self._inner.space_fraction()

    # ----------------------------------------------------- dynamic maintenance
    def insert(self, record: Iterable[object]) -> int:
        """Insert a new record under the current global threshold ``τ``."""
        return self._inner.insert(record)

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batched ingest through the inner index's bulk pipeline."""
        return self._inner.insert_many(records)

    def delete(self, record_id: int) -> None:
        """Tombstone a record; it disappears from every subsequent search."""
        self._inner.delete(record_id)

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id."""
        return self._inner.update(record_id, record)

    def save(self, path, layout: str = "npz") -> None:
        """Snapshot the inner zero-buffer GB-KMV index (npz or directory).

        The snapshot's format tag names *this* backend, so
        :func:`repro.api.open_index` restores it as a
        :class:`GKMVSearchIndex` rather than a bare GB-KMV index.
        ``layout`` is forwarded to :meth:`GBKMVIndex.save`.
        """
        self._inner.save(path, backend_id=self.backend_id, layout=layout)

    @classmethod
    def load(cls, path, mmap: bool = False) -> "GKMVSearchIndex":
        """Restore an index saved with :meth:`save`.

        ``mmap`` is forwarded to :meth:`GBKMVIndex.load` and maps the
        large columns of a directory snapshot instead of reading them.

        Raises
        ------
        ConfigurationError
            If the snapshot holds a *buffered* GB-KMV index: wrapping it
            would silently report GB-KMV numbers under the G-KMV label.
        """
        inner = GBKMVIndex.load(path, mmap=mmap)
        if inner.buffer_size != 0:
            raise ConfigurationError(
                "snapshot holds a GB-KMV index with buffer size "
                f"{inner.buffer_size}; G-KMV requires buffer size 0"
            )
        return cls(inner)

    # ----------------------------------------------------------------- search
    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Containment similarity search with the G-KMV estimator (Eq. 24–26)."""
        return self._inner.search(query, threshold, query_size=query_size)

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Batched containment search through the inner fused GB-KMV engine."""
        return self._inner.search_many(
            queries,
            threshold,
            query_sizes=query_sizes,
            row_block_size=row_block_size,
        )

    def top_k(
        self, query: Iterable[object], k: int, query_size: int | None = None
    ) -> list[SearchResult]:
        """The ``k`` best-scoring records under the G-KMV estimator."""
        return self._inner.top_k(query, k, query_size=query_size)

    def top_k_many(
        self,
        queries: Sequence[Iterable[object]],
        k: int,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Workload variant of :meth:`top_k` on the inner fused engine."""
        return self._inner.top_k_many(
            queries, k, query_sizes=query_sizes, row_block_size=row_block_size
        )
