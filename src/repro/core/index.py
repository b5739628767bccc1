"""The GB-KMV index: sketch construction and containment similarity search.

This module implements Algorithm 1 (index construction) and Algorithm 2
(containment similarity search) of the paper, together with the practical
machinery a user needs: budget accounting, a cost-model-driven buffer
size, and full dynamic maintenance — insert, delete, update — plus
snapshot persistence.

All per-record sketch state lives in a
:class:`~repro.core.store.ColumnarSketchStore` — a segmented columnar
layout (sealed base + mutable tail) of residual hash values with CSR
offsets, a packed uint64 signature matrix for the frequent-element
buffers, and parallel size columns — so a query is scored against
*every* record with a handful of vectorised kernels instead of a
per-record Python loop.  On top of the single-query
:meth:`GBKMVIndex.search`, :meth:`GBKMVIndex.search_many` evaluates a
whole workload at once through the store's value→record join index.
Inserts merge into the sealed segment incrementally (no wholesale
re-sort), deletes tombstone in O(1) and compact lazily, and
:meth:`GBKMVIndex.save` / :meth:`GBKMVIndex.load` round-trip the entire
index state — columns, vocabulary, threshold, hasher seed — through one
npz snapshot.

Typical usage::

    from repro.core import GBKMVIndex

    index = GBKMVIndex.build(records, space_fraction=0.10)
    results = index.search(query, threshold=0.5)
    for hit in results:
        print(hit.record_id, hit.score)

    all_results = index.search_many(queries, threshold=0.5)

    new_id = index.insert(new_record)
    index.delete(new_id)
    index.save("index.npz")
    restored = GBKMVIndex.load("index.npz")
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._errors import ConfigurationError, SnapshotFormatError
from repro.api.config import GBKMVConfig
from repro.api.interface import Capabilities, SimilarityIndex
from repro.api.registry import (
    SNAPSHOT_MANIFEST,
    directory_manifest,
    read_directory_manifest,
    snapshot_tag,
)
from repro.api.results import SearchResult
from repro.core.batched import residual_intersection_estimates
from repro.core.buffer import (
    BITS_PER_SIGNATURE_UNIT,
    FrequentElementBuffer,
    FrequentElementVocabulary,
)
from repro.core.bulk import (
    FingerprintCollisionError,
    FlatRecords,
    VocabularyLookup,
    bulk_sketch,
    flatten_records,
    resolve_space_budget,
    select_vocabulary,
    vocabulary_lookup,
)
from repro.core.cost_model import (
    choose_buffer_size,
    residual_threshold_from_hashes,
)
from repro.core.gbkmv import GBKMVSketch
from repro.core.gkmv import GKMVSketch
from repro.core.profiling import BuildProfile
from repro.core.store import ColumnarSketchStore
from repro.hashing import UnitHash


@dataclass(frozen=True)
class IndexStatistics:
    """Summary of a built index, used by the space/time benchmarks.

    ``build_profile`` is the per-stage wall-clock breakdown of the build
    that produced the index (``None`` for indexes loaded from a
    snapshot or grown purely through inserts).
    """

    num_records: int
    total_elements: int
    buffer_size: int
    threshold: float
    space_in_values: float
    space_fraction: float
    budget_in_values: float
    build_profile: BuildProfile | None = None


#: Default number of physical rows a fused workload pass scores per block.
#: Peak intermediate memory of :meth:`GBKMVIndex.search_many` is
#: ``O(num_queries × row_block_size)`` — independent of the store size.
DEFAULT_ROW_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class WorkloadExecutionStats:
    """Observed footprint of one fused workload pass (for benchmarks/tests).

    ``peak_block_cells`` is the largest ``(B, block)`` matrix the engine
    actually materialised; ``dense_cells`` is the ``(B, num_rows)`` matrix
    an unblocked engine would have allocated.  ``estimator_pairs`` counts
    the (query, row) pairs that reached the Equation-25 estimator after
    zero-count/zero-overlap candidate pruning; ``hit_pairs`` the pairs
    that were finally emitted as results.
    """

    num_queries: int
    num_rows: int
    row_block_size: int
    num_blocks: int
    peak_block_cells: int
    dense_cells: int
    estimator_pairs: int
    hit_pairs: int


@dataclass(frozen=True)
class PlannedParameters:
    """Algorithm 1's derived global parameters, before any ingest.

    Returned by :meth:`GBKMVIndex.plan_parameters`: everything the
    construction pinned over the full dataset — the frequent-element
    vocabulary, the residual threshold ``τ``, the shared hasher and the
    resolved space budget — plus the two derivation by-products
    (``lookup`` and ``unique_hashes``) that :meth:`GBKMVIndex.build`
    reuses so its single-pass ingest does not recompute them.
    """

    vocabulary: FrequentElementVocabulary
    threshold: float
    hasher: UnitHash
    budget: float
    lookup: VocabularyLookup
    unique_hashes: np.ndarray


def _resolve_row_block_size(row_block_size: int | None) -> int:
    if row_block_size is None:
        return DEFAULT_ROW_BLOCK_SIZE
    block = int(row_block_size)
    if block <= 0:
        raise ConfigurationError("row_block_size must be positive")
    return block


def _sorted_hits(hit_ids: np.ndarray, hit_scores: np.ndarray) -> list[SearchResult]:
    """Order hits by decreasing score, ties by increasing record id."""
    # Decreasing score, ties by increasing record id (lexsort's last key
    # is the primary one).  ``_make`` over zipped lists is the cheapest
    # way to materialise tens of thousands of result tuples.
    order = np.lexsort((hit_ids, -hit_scores))
    return list(
        map(
            SearchResult._make,
            zip(hit_ids[order].tolist(), hit_scores[order].tolist()),
        )
    )


def _assemble_workload_results(
    num_queries: int,
    query_chunks: Sequence[np.ndarray],
    id_chunks: Sequence[np.ndarray],
    score_chunks: Sequence[np.ndarray],
) -> list[list[SearchResult]]:
    """Group per-block hit chunks by query and order each query's hits.

    Chunks arrive in ascending physical-row order (the block sweep), so a
    stable grouping sort keeps each query's hits row-ordered — exactly
    the order single-query :func:`results_from_scores` feeds
    :func:`_sorted_hits`, making the final per-query orderings identical.
    """
    if not query_chunks:
        return [[] for _ in range(num_queries)]
    query_ids = np.concatenate(query_chunks)
    hit_ids = np.concatenate(id_chunks)
    hit_scores = np.concatenate(score_chunks)
    # One global three-key sort realises every query's (decreasing score,
    # increasing id) order at once; record ids are unique per query, so
    # the order is total and identical to a per-query lexsort.
    order = np.lexsort((hit_ids, -hit_scores, query_ids))
    query_ids = query_ids[order]
    hits = list(
        map(
            SearchResult._make,
            zip(hit_ids[order].tolist(), hit_scores[order].tolist()),
        )
    )
    bounds = np.searchsorted(query_ids, np.arange(num_queries + 1)).tolist()
    return [hits[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def results_from_scores(
    scores: np.ndarray,
    threshold: float,
    query_size: int,
    row_ids: np.ndarray | None = None,
    alive: np.ndarray | None = None,
) -> list[SearchResult]:
    """Select, normalise and sort the hits of one query.

    The shared hit-selection policy of every searcher in the library
    (GB-KMV and the KMV/G-KMV baselines): a zero effective threshold
    keeps every record, otherwise hits need an intersection estimate of
    at least ``threshold * query_size`` up to a relative tolerance, and
    results are ordered by decreasing score with ties broken by record
    id.

    ``scores`` is indexed by physical store row; ``row_ids`` maps rows to
    stable record ids (identity when ``None``) and ``alive`` masks out
    tombstoned rows (all alive when ``None``) — the two halves of the
    segmented store's :meth:`~repro.core.store.ColumnarSketchStore.result_view`.
    """
    theta = threshold * query_size
    if theta <= 0.0:
        hit_rows = np.arange(scores.size) if alive is None else np.nonzero(alive)[0]
    else:
        # Relative tolerance so exact integer estimates survive the float
        # noise of ``threshold * q`` without admitting genuinely lower scores.
        hit_mask = scores >= theta * (1.0 - 1e-12)
        if alive is not None:
            hit_mask &= alive
        hit_rows = np.nonzero(hit_mask)[0]
    hit_scores = scores[hit_rows] / query_size
    hit_ids = hit_rows if row_ids is None else row_ids[hit_rows]
    return _sorted_hits(hit_ids, hit_scores)


def _encode_elements(elements: Sequence[object]) -> list[list[object]]:
    """JSON-safe tagged encoding of vocabulary elements (int/str/bytes/bool)."""
    encoded: list[list[object]] = []
    for element in elements:
        if isinstance(element, bool):
            encoded.append(["bool", bool(element)])
        elif isinstance(element, (int, np.integer)):
            encoded.append(["int", int(element)])
        elif isinstance(element, str):
            encoded.append(["str", element])
        elif isinstance(element, bytes):
            encoded.append(["bytes", base64.b64encode(element).decode("ascii")])
        else:
            raise ConfigurationError(
                f"cannot persist vocabulary element of type {type(element).__name__!r}; "
                "elements must be int, str, bytes or bool"
            )
    return encoded


def _decode_elements(encoded: Sequence[Sequence[object]]) -> list[object]:
    """Inverse of :func:`_encode_elements`."""
    decoded: list[object] = []
    for tag, payload in encoded:
        if tag == "bool":
            decoded.append(bool(payload))
        elif tag == "int":
            decoded.append(int(payload))
        elif tag == "str":
            decoded.append(str(payload))
        elif tag == "bytes":
            decoded.append(base64.b64decode(str(payload)))
        else:
            raise ConfigurationError(f"unknown vocabulary element tag {tag!r}")
    return decoded


@dataclass(frozen=True)
class _PreparedQuery:
    """A query reduced to the raw arrays the scoring kernels consume."""

    mask: int
    values: np.ndarray
    residual_size: int
    query_size: int

    @property
    def max_value(self) -> float:
        """Largest kept hash value (``0.0`` when none were kept)."""
        return float(self.values[-1]) if self.values.size else 0.0

    @property
    def exact(self) -> bool:
        """Whether every residual hash value survived the threshold."""
        return bool(self.values.size >= self.residual_size)


class GBKMVIndex(SimilarityIndex):
    """GB-KMV sketches in columnar storage plus a batched query engine.

    Build with :meth:`build` (which chooses the buffer size via the cost
    model unless one is supplied) or, through the unified
    :mod:`repro.api` surface, with :meth:`from_records` — rather than
    calling ``__init__`` directly.
    """

    backend_id = "gbkmv"
    config_type = GBKMVConfig
    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    def __init__(
        self,
        vocabulary: FrequentElementVocabulary,
        threshold: float,
        hasher: UnitHash,
        budget: float,
    ) -> None:
        self._vocabulary = vocabulary
        self._threshold = float(threshold)
        self._hasher = hasher
        self._budget = float(budget)
        self._store = ColumnarSketchStore(signature_bits=vocabulary.size)
        #: Footprint of the most recent fused workload pass (``search_many``
        #: / ``top_k_many``), or ``None`` before the first one.
        self.last_workload_stats: WorkloadExecutionStats | None = None
        #: Per-stage wall-clock breakdown of the bulk build that produced
        #: this index, or ``None`` when no bulk build ran.
        self.last_build_profile: BuildProfile | None = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        buffer_size: int | str = "auto",
        hasher: UnitHash | None = None,
        seed: int = 0,
        cost_model_pair_sample: int = 256,
    ) -> "GBKMVIndex":
        """Algorithm 1: construct the GB-KMV index of a dataset.

        Parameters
        ----------
        records:
            The dataset ``S``; each record is an iterable of elements.
        space_fraction:
            Space budget as a fraction of the dataset size (total number
            of per-record distinct elements), the measure used throughout
            the paper's evaluation.  Ignored when ``space_budget`` is given.
        space_budget:
            Absolute budget ``b`` in signature-value units.
        buffer_size:
            Either an explicit ``r`` or ``"auto"`` to let the cost model of
            Section IV-C6 choose it.
        hasher:
            Hash function shared by all sketches; defaults to a fixed-seed
            :class:`~repro.hashing.UnitHash` derived from ``seed``.
        seed:
            Seed for the default hasher and the cost model sampling.
        cost_model_pair_sample:
            Number of record pairs the cost model averages over.

        Construction runs the vectorised whole-dataset pipeline of
        :mod:`repro.core.bulk` — one fingerprint pass, ``np.unique``
        frequency counting, bulk signature packing and one staged-batch
        store append — and yields, record for record, the sketch
        :meth:`GBKMVSketch.from_record` builds under the same parameters.
        """
        profile = BuildProfile()
        flat = flatten_records(records, profile=profile)
        params = cls.plan_parameters(
            flat,
            space_fraction=space_fraction,
            space_budget=space_budget,
            buffer_size=buffer_size,
            hasher=hasher,
            seed=seed,
            cost_model_pair_sample=cost_model_pair_sample,
            profile=profile,
        )
        index = cls(
            vocabulary=params.vocabulary,
            threshold=params.threshold,
            hasher=params.hasher,
            budget=params.budget,
        )
        index._ingest_bulk(
            flat,
            lookup=params.lookup,
            unique_hashes=params.unique_hashes,
            profile=profile,
        )
        index.last_build_profile = profile
        return index

    @classmethod
    def plan_parameters(
        cls,
        flat: FlatRecords,
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        buffer_size: int | str = "auto",
        hasher: UnitHash | None = None,
        seed: int = 0,
        cost_model_pair_sample: int = 256,
        profile: BuildProfile | None = None,
    ) -> "PlannedParameters":
        """Algorithm 1's parameter derivation, without the ingest.

        Runs the global derivation — space budget, cost-model buffer
        sizing, vocabulary selection, residual threshold ``τ`` — over an
        already-flattened dataset and returns the pinned parameters
        instead of a built index.  :meth:`build` is exactly this followed
        by one bulk ingest; the sharded backend runs it once over the
        *full* dataset and then sketches every shard with
        :meth:`from_parameters`, which is what makes per-shard sketches
        (and merged search results) bitwise identical to the unsharded
        index.
        """
        auto_buffer = isinstance(buffer_size, str) and buffer_size == "auto"
        if not auto_buffer and (
            isinstance(buffer_size, bool)
            or not isinstance(buffer_size, (int, np.integer))
            or buffer_size < 0
        ):
            raise ConfigurationError(
                f"buffer_size must be 'auto' or a non-negative integer, got {buffer_size!r}"
            )
        if hasher is None:
            hasher = UnitHash(seed=seed)
        budget = resolve_space_budget(
            flat.total_elements, space_fraction, space_budget
        )

        # Each unique fingerprint's occurrence count in the
        # per-record-distinct fingerprint column is its containing-record
        # count: the element frequencies of Algorithm 1.
        counts = flat.counts
        if auto_buffer:
            # The pair-sampled buffer sizing is the one planning stage that
            # is pure Python + small-array work; time it as its own stage
            # so the profile accounts for the full build wall clock.
            start = time.perf_counter()
            sizing = choose_buffer_size(
                flat.record_sizes,
                counts.astype(np.float64),
                budget,
                pair_sample=cost_model_pair_sample,
                seed=seed,
            )
            if profile is not None:
                profile.record(
                    "cost_model",
                    time.perf_counter() - start,
                    rows=flat.num_records,
                )
            chosen_r = sizing.buffer_size
        else:
            chosen_r = int(buffer_size)

        vocabulary = select_vocabulary(flat, chosen_r, profile=profile)
        buffer_cost = flat.num_records * vocabulary.size / BITS_PER_SIGNATURE_UNIT
        residual_budget = max(budget - buffer_cost, 0.0)
        # The vocabulary's elements are exactly representatives of unique
        # fingerprints, so the residual split over uniques is a
        # fingerprint-membership mask — no mapping materialisation.
        lookup = vocabulary_lookup(vocabulary)
        residual_unique = ~lookup.member_mask(flat.unique_fingerprints)
        unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
        threshold = residual_threshold_from_hashes(
            unique_hashes[residual_unique],
            counts[residual_unique].astype(np.float64),
            residual_budget,
        )
        return PlannedParameters(
            vocabulary=vocabulary,
            threshold=threshold,
            hasher=hasher,
            budget=budget,
            lookup=lookup,
            unique_hashes=unique_hashes,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: GBKMVConfig | None = None,
    ) -> "GBKMVIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(
            records,
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            buffer_size=config.buffer_size,
            seed=config.seed,
            cost_model_pair_sample=config.cost_model_pair_sample,
        )

    @classmethod
    def from_parameters(
        cls,
        records: Sequence[Iterable[object]],
        vocabulary: FrequentElementVocabulary,
        threshold: float,
        hasher: UnitHash,
        budget: float,
    ) -> "GBKMVIndex":
        """Sketch a dataset under *pinned* parameters (no cost model).

        The rebuild primitive of the dynamic-data story: given the
        vocabulary, threshold and hasher of an existing index, produce a
        freshly constructed index whose sketches — and therefore search
        results — are bitwise identical to what incremental maintenance
        of the original index yields.  Also the baseline the
        ``test_dynamic_store`` benchmark charges for rebuilding from
        scratch on every batch of insertions.
        """
        index = cls(
            vocabulary=vocabulary, threshold=threshold, hasher=hasher, budget=budget
        )
        profile = BuildProfile()
        index._ingest_bulk(flatten_records(records, profile=profile), profile=profile)
        index.last_build_profile = profile
        return index

    @classmethod
    def from_flat(
        cls,
        flat: FlatRecords,
        vocabulary: FrequentElementVocabulary,
        threshold: float,
        hasher: UnitHash,
        budget: float,
        lookup: VocabularyLookup | None = None,
        unique_hashes: np.ndarray | None = None,
        profile: BuildProfile | None = None,
    ) -> "GBKMVIndex":
        """Sketch an already-flattened dataset under pinned parameters.

        The flatten-once rebuild primitive: :meth:`from_parameters`
        without the re-flatten.  The sharded planner flattens (and
        fingerprints) the full dataset exactly once, slices per-shard
        :func:`~repro.core.bulk.slice_flat_records` views out of it, and
        hands each view here together with the once-planned ``lookup``
        and ``unique_hashes`` — so neither hashing nor the frequency
        pass ever runs twice.  ``flat`` may be such a slice: only its
        per-occurrence columns and ``inverse``-into-``unique_hashes``
        contract are consumed.
        """
        index = cls(
            vocabulary=vocabulary, threshold=threshold, hasher=hasher, budget=budget
        )
        index._ingest_bulk(
            flat, lookup=lookup, unique_hashes=unique_hashes, profile=profile
        )
        index.last_build_profile = profile
        return index

    def _sketch_parts(self, record: set) -> tuple[int, np.ndarray, int]:
        """Split a record into (buffer mask, kept residual values, residual size)."""
        buffer, residual_elements = self._vocabulary.split_record(record)
        if residual_elements:
            hashes = np.unique(self._hasher.hash_many(residual_elements))
            kept = hashes[hashes <= self._threshold]
        else:
            kept = np.empty(0, dtype=np.float64)
        return buffer.mask, kept, len(residual_elements)

    def _add_record(self, record: set) -> int:
        """Insert one record's sketch row; returns its record id."""
        mask, kept, residual_size = self._sketch_parts(record)
        return self._store.append(
            values=kept,
            mask=mask,
            residual_record_size=residual_size,
            record_size=len(record),
        )

    def _ingest_bulk(
        self,
        flat: FlatRecords,
        lookup=None,
        unique_hashes=None,
        profile: BuildProfile | None = None,
    ) -> np.ndarray:
        """Sketch a flattened batch in bulk and append it in one staged merge.

        Returns the assigned record ids.  Falls back to one
        :meth:`_add_record` per record when the vocabulary has an
        internal fingerprint collision (the one case the bulk membership
        lookup cannot resolve).
        """
        if lookup is None:
            try:
                lookup = vocabulary_lookup(self._vocabulary)
            except FingerprintCollisionError:
                ids = [
                    self._add_record(set(flat.record_elements(position)))
                    for position in range(flat.num_records)
                ]
                return np.asarray(ids, dtype=np.int64)
        sketches = bulk_sketch(
            flat,
            lookup,
            self._threshold,
            self._hasher,
            self._store.num_words,
            unique_hashes=unique_hashes,
            profile=profile,
        )
        return self._store.append_bulk(
            values=sketches.values,
            value_lengths=sketches.value_lengths,
            signatures=sketches.signatures,
            residual_record_sizes=sketches.residual_record_sizes,
            record_sizes=sketches.record_sizes,
            profile=profile,
        )

    # ------------------------------------------------------------ introspection
    @property
    def num_records(self) -> int:
        """Number of live records indexed (deleted records excluded)."""
        return self._store.num_records

    @property
    def next_record_id(self) -> int:
        """The id the next :meth:`insert` will assign (sequential, never reused)."""
        return self._store.next_id

    @property
    def vocabulary(self) -> FrequentElementVocabulary:
        """The frequent-element vocabulary shared by all sketches."""
        return self._vocabulary

    @property
    def buffer_size(self) -> int:
        """The buffer size ``r`` chosen or supplied at build time."""
        return self._vocabulary.size

    @property
    def threshold(self) -> float:
        """The global hash-value threshold ``τ``."""
        return self._threshold

    @property
    def hasher(self) -> UnitHash:
        """The hash function shared by all sketches."""
        return self._hasher

    @property
    def budget(self) -> float:
        """The space budget ``b`` in signature-value units."""
        return self._budget

    @property
    def store(self) -> ColumnarSketchStore:
        """The columnar sketch store backing this index."""
        return self._store

    def __len__(self) -> int:
        return self.num_records

    def record_size(self, record_id: int) -> int:
        """Distinct-element count of an indexed record."""
        return self._store.record_size(record_id)

    def record_sizes(self) -> np.ndarray:
        """Distinct-element counts of every live indexed record."""
        return self._store.live_record_sizes().copy()

    def space_in_values(self) -> float:
        """Actual space used, in signature-value units (values + r/32 per record).

        Live sketch content only: tombstoned rows stop counting the
        moment they are deleted (compaction reclaims their memory later).
        """
        buffer_cost = self.num_records * self._vocabulary.size / BITS_PER_SIGNATURE_UNIT
        return self._store.total_values + buffer_cost

    def space_fraction(self) -> float:
        """Space used as a fraction of the (live) dataset size."""
        total_elements = int(self._store.live_record_sizes().sum())
        if total_elements == 0:
            return 0.0
        return self.space_in_values() / total_elements

    def statistics(self) -> IndexStatistics:
        """Summary statistics of the built index."""
        return IndexStatistics(
            num_records=self.num_records,
            total_elements=int(self._store.live_record_sizes().sum()),
            buffer_size=self.buffer_size,
            threshold=self._threshold,
            space_in_values=self.space_in_values(),
            space_fraction=self.space_fraction(),
            budget_in_values=self._budget,
            build_profile=self.last_build_profile,
        )

    def sketch(self, record_id: int) -> GBKMVSketch:
        """Materialise the GB-KMV sketch of an indexed record."""
        buffer = FrequentElementBuffer(
            self._vocabulary, self._store.mask_int(record_id)
        )
        residual = GKMVSketch(
            threshold=self._threshold,
            values=self._store.row_values(record_id),
            record_size=self._store.residual_record_size(record_id),
            hasher=self._hasher,
        )
        return GBKMVSketch(
            buffer=buffer,
            residual=residual,
            record_size=self._store.record_size(record_id),
        )

    def sketches(self) -> Iterator[GBKMVSketch]:
        """Iterate over the sketches of all live indexed records."""
        for record_id in self._store.live_record_ids().tolist():
            yield self.sketch(record_id)

    # ---------------------------------------------------------------- updates
    def insert(self, record: Iterable[object]) -> int:
        """Insert a new record under the current vocabulary and threshold.

        Returns the new record id.  The record lands in the store's
        mutable tail segment and is merged into the sealed columns
        incrementally on the next search — no wholesale re-sort — so the
        insert is visible immediately and insert/search interleaving
        stays cheap.  The global threshold is *not* recomputed
        automatically; call :meth:`refit_threshold` after a batch of
        insertions to shrink the sketches back into the budget (the
        dynamic-data procedure described at the end of Section IV-B).
        """
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot insert an empty record")
        return self._add_record(materialized)

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batched ingest: insert a whole batch of records in one bulk pass.

        The batch is sketched with the vectorised pipeline of
        :mod:`repro.core.bulk` (one fingerprint pass, one unique-hash
        pass, bulk signature packing) and lands in the segmented store
        through one staged-batch merge — the value→record join index
        absorbs the whole batch with a single two-run merge.  Record ids,
        store state and every later search result are identical to
        looping :meth:`insert` over the batch; the wall-clock cost is
        what :func:`~repro.core.bulk` removes.

        Returns the assigned record ids, in batch order.  An empty batch
        is a no-op returning ``[]``.
        """
        if len(records) == 0:
            return []
        flat = flatten_records(records)
        return self._ingest_bulk(flat).tolist()

    def delete(self, record_id: int) -> None:
        """Delete a record: an O(1) tombstone, invisible to every later search.

        Physical space is reclaimed lazily — once the tombstoned fraction
        crosses the store's ``compact_ratio``, the next search compacts
        the columns.  Record ids of surviving records never change.

        Raises
        ------
        ConfigurationError
            If ``record_id`` is unknown or already deleted.
        """
        self._store.delete(int(record_id))

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id.

        The new version is sketched under the current vocabulary and
        threshold (tombstone the old row + append the new one); returns
        the unchanged record id.
        """
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot update a record to be empty")
        mask, kept, residual_size = self._sketch_parts(materialized)
        return self._store.replace(
            int(record_id),
            values=kept,
            mask=mask,
            residual_record_size=residual_size,
            record_size=len(materialized),
        )

    def refit_threshold(self) -> float:
        """Recompute ``τ`` so the index fits its budget again, shrinking sketches.

        Only lowers the threshold (hash values above the new ``τ`` are
        dropped); raising it would require access to the original records.
        Returns the new threshold.

        The refit is incremental: the store's O(1) ``total_values``
        tracker answers the common post-``insert_many`` case — batch
        landed, still under budget — without touching the value column
        at all, and when the budget *is* exceeded the new ``τ`` comes
        from a prefix cut of the incrementally merged value→record join
        index (:meth:`~repro.core.store.ColumnarSketchStore.threshold_for_value_budget`)
        instead of gathering and re-sorting every live value.  The
        chosen threshold is identical to the historical full re-derive:
        the largest distinct value whose cumulative live occurrence
        count fits the residual budget.
        """
        buffer_cost = self.num_records * self._vocabulary.size / BITS_PER_SIGNATURE_UNIT
        residual_budget = max(self._budget - buffer_cost, 0.0)
        total_values = self._store.total_values
        if total_values == 0 or total_values <= residual_budget:
            return self._threshold
        new_threshold = self._store.threshold_for_value_budget(residual_budget)
        if new_threshold >= self._threshold:
            return self._threshold
        self._threshold = new_threshold
        self._store.truncate_values(new_threshold)
        return self._threshold

    # ------------------------------------------------------------ persistence
    SNAPSHOT_FORMAT_VERSION = 1

    #: Store columns worth memory-mapping: the two large payloads.  The
    #: bookkeeping columns stay eagerly loaded (and therefore writable) —
    #: in particular ``tombstones``, which ``delete`` flips in place.
    _MMAP_COLUMNS = frozenset({"values", "signatures"})

    def save(self, path, backend_id: str | None = None, layout: str = "npz") -> None:
        """Snapshot the full index state to one self-describing snapshot.

        Everything :meth:`load` needs to answer queries identically is
        written: the store's columns (CSR values, signatures, size
        columns, row ids, tombstones), the frequent-element vocabulary,
        the global threshold ``τ``, the space budget and the hasher seed
        — plus the format tag :func:`repro.api.open_index` dispatches
        on.  ``backend_id`` overrides the tag's backend for wrappers
        that persist through this index (the G-KMV baseline).

        ``layout`` picks the on-disk shape: ``"npz"`` (default) writes a
        single compressed archive; ``"dir"`` writes a directory of raw
        per-column ``.npy`` files plus a ``manifest.json``, which is the
        only layout :meth:`load` can memory-map.
        """
        meta = {
            "format_version": self.SNAPSHOT_FORMAT_VERSION,
            "threshold": self._threshold,
            "budget": self._budget,
            "hasher_seed": self._hasher.seed,
            "vocabulary": _encode_elements(self._vocabulary.elements),
        }
        if layout == "dir":
            self._save_directory(path, backend_id or self.backend_id, meta)
            return
        if layout != "npz":
            raise ConfigurationError(
                f"unknown snapshot layout {layout!r}; use 'npz' or 'dir'"
            )
        np.savez_compressed(
            path,
            api_meta=snapshot_tag(
                backend_id or self.backend_id, self.SNAPSHOT_FORMAT_VERSION
            ),
            index_meta=np.array(json.dumps(meta)),
            **self._store.state_arrays(),
        )

    def _save_directory(self, path, backend_id: str, meta: dict) -> None:
        """Write the ``layout="dir"`` snapshot: manifest + per-column .npy."""
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise ConfigurationError(
                f"cannot write a directory snapshot over the file {str(path)!r}"
            )
        directory.mkdir(parents=True, exist_ok=True)
        arrays = self._store.state_arrays()
        for name, array in arrays.items():
            np.save(directory / f"{name}.npy", np.ascontiguousarray(array))
        manifest = directory_manifest(
            backend_id,
            self.SNAPSHOT_FORMAT_VERSION,
            index_meta=meta,
            arrays=sorted(arrays),
        )
        (directory / SNAPSHOT_MANIFEST).write_text(
            json.dumps(manifest), encoding="utf-8"
        )

    @classmethod
    def _load_directory(cls, path, mmap: bool) -> tuple[dict, dict]:
        """Read a ``layout="dir"`` snapshot back into (meta, arrays)."""
        directory = Path(path)
        manifest = read_directory_manifest(directory)
        meta = manifest.get("index_meta")
        if not isinstance(meta, dict):
            raise SnapshotFormatError(
                f"{str(path)!r} is not a GB-KMV index snapshot (no index_meta "
                "in its manifest); use repro.api.open_index for other backends"
            )
        arrays = {}
        for name in manifest.get("arrays", []):
            column = directory / f"{name}.npy"
            try:
                if mmap and name in cls._MMAP_COLUMNS:
                    arrays[name] = np.load(column, mmap_mode="r")
                else:
                    arrays[name] = np.load(column)
            except (OSError, ValueError) as error:
                raise SnapshotFormatError(
                    f"cannot read snapshot column {name!r} "
                    f"from {str(path)!r}: {error}"
                ) from error
        return meta, arrays

    @classmethod
    def load(cls, path, mmap: bool = False) -> "GBKMVIndex":
        """Restore an index saved with :meth:`save` (either layout).

        The restored index answers :meth:`search` / :meth:`search_many`
        with bitwise-identical scores (same values, same vocabulary, same
        hasher seed ⇒ same estimator arithmetic) and keeps every dynamic
        capability — insert, delete, update, refit — of the original.

        With ``mmap=True`` (directory snapshots only) the value and
        signature columns are memory-mapped read-only instead of read
        into RAM; queries page in only what they touch, and any mutation
        materialises fresh private arrays, so dynamic operations still
        work on a mapped index.

        Raises
        ------
        SnapshotFormatError
            If the path is not a GB-KMV snapshot or was written by an
            unsupported format version.
        ConfigurationError
            If ``mmap=True`` on an npz snapshot (compressed archives
            cannot be mapped).
        """
        if Path(path).is_dir():
            meta, arrays = cls._load_directory(path, mmap=mmap)
        else:
            if mmap:
                raise ConfigurationError(
                    "memory-mapped loading requires a directory snapshot "
                    "(written with save(..., layout='dir')); npz archives "
                    "store compressed members and cannot be mapped"
                )
            with np.load(path) as data:
                if "index_meta" not in data.files:
                    raise SnapshotFormatError(
                        f"{path!r} is not a GB-KMV index snapshot (no "
                        "index_meta payload); use repro.api.open_index "
                        "for other backends"
                    )
                try:
                    meta = json.loads(str(data["index_meta"][()]))
                except json.JSONDecodeError as error:
                    raise SnapshotFormatError(
                        f"malformed GB-KMV snapshot metadata: {error}"
                    ) from error
                arrays = {
                    name: data[name]
                    for name in data.files
                    if name not in ("index_meta", "api_meta")
                }
        version = meta.get("format_version")
        if version != cls.SNAPSHOT_FORMAT_VERSION:
            raise SnapshotFormatError(
                f"unsupported index snapshot version {version!r} "
                f"(this build reads version {cls.SNAPSHOT_FORMAT_VERSION})"
            )
        vocabulary = FrequentElementVocabulary(_decode_elements(meta["vocabulary"]))
        index = cls(
            vocabulary=vocabulary,
            threshold=float(meta["threshold"]),
            hasher=UnitHash(seed=int(meta["hasher_seed"])),
            budget=float(meta["budget"]),
        )
        try:
            index._store = ColumnarSketchStore.from_state(arrays)
        except KeyError as error:
            raise SnapshotFormatError(
                f"GB-KMV snapshot is missing store column {error}; "
                "the payload is truncated or from an unsupported layout"
            ) from error
        if index._store.signature_bits != vocabulary.size:
            raise ConfigurationError(
                "snapshot signature width does not match its vocabulary size"
            )
        return index

    # ----------------------------------------------------------------- search
    def query_sketch(self, query: Iterable[object]) -> GBKMVSketch:
        """Build the GB-KMV sketch of a query under the index's parameters."""
        return GBKMVSketch.from_record(
            query,
            vocabulary=self._vocabulary,
            threshold=self._threshold,
            hasher=self._hasher,
        )

    def estimate_containment(self, query: Iterable[object], record_id: int) -> float:
        """Estimate ``C(Q, X_record_id)`` for a single record."""
        query_sketch = self.query_sketch(query)
        return query_sketch.containment_estimate(self.sketch(record_id))

    def _prepare_workload(
        self,
        queries: Sequence[Iterable[object]],
        query_sizes: Sequence[int] | None,
    ) -> list[_PreparedQuery]:
        """Reduce queries to the arrays the scoring kernels consume.

        The single query-preparation path of :meth:`search`,
        :meth:`top_k` and the workload engines.  Hashes are per element,
        so hashing every query's residual in one ``hash_many`` call and
        slicing is value-identical to hashing each query on its own.
        """
        masks: list[int] = []
        residuals: list[list[object]] = []
        sizes: list[int] = []
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
            buffer, residual = self._vocabulary.split_record(query_elements)
            masks.append(buffer.mask)
            residuals.append(residual)
            sizes.append(q)
        flat = [element for residual in residuals for element in residual]
        hashes = (
            self._hasher.hash_many(flat) if flat else np.empty(0, dtype=np.float64)
        )
        prepared: list[_PreparedQuery] = []
        offset = 0
        for mask, residual, q in zip(masks, residuals, sizes):
            if residual:
                values = np.unique(hashes[offset : offset + len(residual)])
                kept = values[values <= self._threshold]
                offset += len(residual)
            else:
                kept = np.empty(0, dtype=np.float64)
            prepared.append(
                _PreparedQuery(
                    mask=mask, values=kept, residual_size=len(residual), query_size=q
                )
            )
        return prepared

    def _score_prepared(self, prepared: _PreparedQuery) -> np.ndarray:
        """Estimated intersection size of one prepared query with every record.

        One pass over the store's value→record join index for the
        residual counts (touching only occurrences shared with the
        query), one popcount pass for the buffer overlap, then the
        batched Equation-25 estimator — no per-record Python work.
        """
        store = self._store
        counts = store.intersection_counts_join(prepared.values)
        buffer_overlap = store.signature_overlap(prepared.mask).astype(np.float64)
        residual_estimate = residual_intersection_estimates(
            counts,
            store.row_sizes,
            store.row_max,
            store.row_exact,
            prepared.values.size,
            prepared.max_value,
            prepared.exact,
        )
        return buffer_overlap + residual_estimate

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Algorithm 2: return records with estimated containment ``>= threshold``.

        Parameters
        ----------
        query:
            The query record ``Q``.
        threshold:
            The containment similarity threshold ``t*`` in ``[0, 1]``.
        query_size:
            Exact query size ``|Q|``; defaults to the number of distinct
            elements in ``query`` (Remark 1: the query size is assumed
            known).

        Returns
        -------
        list[SearchResult]
            Hits sorted by decreasing estimated containment similarity.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        sizes = None if query_size is None else [query_size]
        prepared = self._prepare_workload([query], sizes)[0]
        scores = self._score_prepared(prepared)
        row_ids, alive = self._store.result_view()
        return results_from_scores(
            scores, threshold, prepared.query_size, row_ids=row_ids, alive=alive
        )

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Batched Algorithm 2: answer a whole workload in one fused pass.

        Produces exactly the same hits, scores and ordering as calling
        :meth:`search` once per query.  The default engine is *fused and
        blocked*: the whole workload's query values are resolved against
        the store's value→record join index in one ``searchsorted`` +
        flat-``bincount`` pass, all signature masks are packed into one
        ``(B, num_words)`` matrix, and the physical rows are swept in
        blocks of ``row_block_size`` — peak memory is
        ``O(B × row_block_size)``, never the dense ``(B, num_rows)``
        score matrix.  Within each block, (query, row) pairs whose
        signature overlap *and* residual value intersection are both
        zero are pruned before the Equation-25 estimator pass (their
        score is provably exactly ``0.0``, so with a positive threshold
        they can never be hits).

        Parameters
        ----------
        queries:
            The query records.
        threshold:
            The containment similarity threshold ``t*`` in ``[0, 1]``,
            shared by the whole workload.
        query_sizes:
            Optional exact query sizes, parallel to ``queries``.
        row_block_size:
            Rows scored per block (default
            :data:`DEFAULT_ROW_BLOCK_SIZE`).  Purely an execution knob:
            results are bitwise identical for every value.

        Returns
        -------
        list[list[SearchResult]]
            One result list per query, each sorted as in :meth:`search`.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        prepared = self._prepare_workload(queries, query_sizes)
        if not prepared:
            return []
        return self._search_many_fused(prepared, threshold, row_block_size)

    def _workload_arrays(self, prepared: Sequence[_PreparedQuery]):
        """Fused-pass inputs: matched occurrences, packed masks, query columns."""
        store = self._store
        store.finalize()
        matches = store.match_workload([p.values for p in prepared])
        query_words = store.pack_signature_masks([p.mask for p in prepared])
        num_values = np.array([p.values.size for p in prepared], dtype=np.int64)
        max_values = np.array([p.max_value for p in prepared], dtype=np.float64)
        exact = np.array([p.exact for p in prepared], dtype=bool)
        sizes = np.array([p.query_size for p in prepared], dtype=np.float64)
        return matches, query_words, num_values, max_values, exact, sizes

    def _sparse_block_estimates(
        self,
        matches,
        num_values: np.ndarray,
        max_values: np.ndarray,
        exact: np.ndarray,
        alive_block: np.ndarray | None,
        row_lo: int,
        row_hi: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse Equation-25 pass for one block of physical rows.

        Returns ``(query_idx, col_idx, estimates)`` for exactly the live
        (query, row) pairs with a nonzero residual value intersection —
        the candidate pruning of the fused engine: pairs with ``K∩ = 0``
        estimate to exactly ``0.0`` down every branch of Eq. 25, so
        skipping them is bit-identical to the unpruned dense pass.  This
        is the single home of the estimator invocation both fused entry
        points (``search_many``, ``top_k_many``) share.
        """
        store = self._store
        query_idx, col_idx, counts = store.match_counts_block(matches, row_lo, row_hi)
        if alive_block is not None and query_idx.size:
            keep = alive_block[col_idx]
            query_idx, col_idx, counts = query_idx[keep], col_idx[keep], counts[keep]
        if not query_idx.size:
            return query_idx, col_idx, np.empty(0, dtype=np.float64)
        rows = col_idx + row_lo
        estimates = residual_intersection_estimates(
            counts,
            store.row_sizes[rows],
            store.row_max[rows],
            store.row_exact[rows],
            num_values[query_idx],
            max_values[query_idx],
            exact[query_idx],
        )
        return query_idx, col_idx, estimates

    def _block_scores(
        self,
        matches,
        query_words: np.ndarray,
        num_values: np.ndarray,
        max_values: np.ndarray,
        exact: np.ndarray,
        alive_block: np.ndarray | None,
        row_lo: int,
        row_hi: int,
    ) -> tuple[np.ndarray, int]:
        """Dense scores of every (query, row) pair in one block of rows.

        Returns ``(scores, estimator_pairs)``: ``scores`` is the
        ``(B, block)`` float matrix, bit-identical to the single-query
        scores of those rows (popcount overlaps reduced straight into
        float64 plus the sparse Equation-25 estimates scattered on top),
        and ``estimator_pairs`` counts the pairs the estimator was
        actually evaluated on.
        """
        scores = self._store.signature_overlap_block(
            query_words, row_lo, row_hi, dtype=np.float64
        )
        query_idx, col_idx, estimates = self._sparse_block_estimates(
            matches, num_values, max_values, exact, alive_block, row_lo, row_hi
        )
        if query_idx.size:
            scores[query_idx, col_idx] += estimates
        return scores, int(query_idx.size)

    def _search_many_fused(
        self,
        prepared: Sequence[_PreparedQuery],
        threshold: float,
        row_block_size: int | None,
    ) -> list[list[SearchResult]]:
        """The fused, blocked, pruned workload engine behind :meth:`search_many`."""
        store = self._store
        block = _resolve_row_block_size(row_block_size)
        matches, query_words, num_values, max_values, exact, sizes = (
            self._workload_arrays(prepared)
        )
        num_queries = len(prepared)
        num_rows = store.num_rows
        row_ids, alive = store.result_view()
        theta = threshold * sizes

        hit_query_chunks: list[np.ndarray] = []
        hit_id_chunks: list[np.ndarray] = []
        hit_score_chunks: list[np.ndarray] = []
        num_blocks = 0
        peak_block = 0
        estimator_pairs = 0
        hit_pairs = 0
        # Integer hit floor: a pair with no residual intersection scores
        # exactly float(overlap), and overlap is an integer, so the float
        # test `overlap >= θ·(1 − 1e-12)` is equivalent to the integer
        # test `overlap >= ceil(θ·(1 − 1e-12))` — which keeps the dense
        # per-block pass entirely in small integers.  Overlaps never
        # exceed 64·num_words, so floors are clamped just above it (a
        # clamped floor means "no signature-only hit possible") and the
        # narrowest sufficient integer dtype is used.
        max_overlap = 64 * store.signatures.shape[1]
        overlap_dtype = np.uint8 if max_overlap + 1 <= 255 else np.int32
        overlap_floor = np.minimum(
            np.ceil(theta * (1.0 - 1e-12)), float(max_overlap + 1)
        ).astype(overlap_dtype)
        for row_lo in range(0, num_rows, block):
            row_hi = min(row_lo + block, num_rows)
            block_width = row_hi - row_lo
            num_blocks += 1
            peak_block = max(peak_block, block_width)
            alive_block = None if alive is None else alive[row_lo:row_hi]

            if threshold > 0.0:
                # Sparse Equation-25 pass: only pairs sharing a stored value.
                query_idx, col_idx, estimates = self._sparse_block_estimates(
                    matches, num_values, max_values, exact,
                    alive_block, row_lo, row_hi,
                )
                estimator_pairs += int(query_idx.size)
                overlap = store.signature_overlap_block(
                    query_words, row_lo, row_hi, dtype=overlap_dtype
                )
                pair_scores = overlap[query_idx, col_idx].astype(np.float64)
                pair_scores += estimates
                hits = overlap >= overlap_floor[:, np.newaxis]
                if alive_block is not None:
                    hits &= alive_block[np.newaxis, :]
                # Estimator pairs get the exact float test on their full
                # score, overriding the integer floor.
                pair_hit = pair_scores >= theta[query_idx] * (1.0 - 1e-12)
                hits[query_idx, col_idx] = pair_hit
                hit_queries, hit_cols = np.nonzero(hits)
                if not hit_queries.size:
                    continue
                hit_scores = overlap[hit_queries, hit_cols].astype(np.float64)
                if np.any(pair_hit):
                    # np.nonzero is row-major, so the flat hit indices are
                    # ascending — locate each estimator hit by bisection
                    # and patch in its full (overlap + estimate) score.
                    flat_hits = hit_queries * block_width + hit_cols
                    pair_flat = (
                        query_idx[pair_hit] * block_width + col_idx[pair_hit]
                    )
                    positions = np.searchsorted(flat_hits, pair_flat)
                    hit_scores[positions] = pair_scores[pair_hit]
            else:
                # θ = 0 keeps every live pair, so every score is needed:
                # materialise the block's dense float scores directly.
                scores, block_estimator_pairs = self._block_scores(
                    matches, query_words, num_values, max_values, exact,
                    alive_block, row_lo, row_hi,
                )
                estimator_pairs += block_estimator_pairs
                if alive_block is None:
                    hits = np.ones(scores.shape, dtype=bool)
                else:
                    hits = np.repeat(
                        alive_block[np.newaxis, :], num_queries, axis=0
                    )
                hit_queries, hit_cols = np.nonzero(hits)
                if not hit_queries.size:
                    continue
                hit_scores = scores[hit_queries, hit_cols]
            hit_pairs += int(hit_queries.size)
            rows = hit_cols + row_lo
            hit_query_chunks.append(hit_queries)
            hit_id_chunks.append(rows if row_ids is None else row_ids[rows])
            hit_score_chunks.append(hit_scores / sizes[hit_queries])

        self.last_workload_stats = WorkloadExecutionStats(
            num_queries=num_queries,
            num_rows=num_rows,
            row_block_size=block,
            num_blocks=num_blocks,
            peak_block_cells=num_queries * peak_block,
            dense_cells=num_queries * num_rows,
            estimator_pairs=estimator_pairs,
            hit_pairs=hit_pairs,
        )
        return _assemble_workload_results(
            num_queries, hit_query_chunks, hit_id_chunks, hit_score_chunks
        )

    def top_k(self, query: Iterable[object], k: int, query_size: int | None = None) -> list[SearchResult]:
        """Return the ``k`` records with the highest estimated containment.

        A convenience companion to threshold search, useful for the domain
        search example where the user wants the best few matches.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        sizes = None if query_size is None else [query_size]
        prepared = self._prepare_workload([query], sizes)[0]
        scores = self._score_prepared(prepared) / prepared.query_size
        row_ids, alive = self._store.result_view()
        rows = np.arange(scores.size) if alive is None else np.nonzero(alive)[0]
        candidate_scores = scores[rows]
        ids = rows if row_ids is None else row_ids[rows]
        # Same tie policy as results_from_scores: decreasing score, ties by
        # increasing record id (not physical row, which updates can reorder).
        order = np.lexsort((ids, -candidate_scores))[:k]
        return [
            SearchResult(record_id=int(ids[position]), score=float(candidate_scores[position]))
            for position in order.tolist()
        ]

    def top_k_many(
        self,
        queries: Sequence[Iterable[object]],
        k: int,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Workload variant of :meth:`top_k` on the fused blocked engine.

        Returns exactly what calling :meth:`top_k` once per query would,
        but sweeps the rows in blocks of ``row_block_size`` and carries a
        per-query running top-``k`` (a tournament merge) between blocks —
        peak memory is ``O(B × (row_block_size + k))``, never the dense
        ``(B, num_rows)`` score matrix.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        prepared = self._prepare_workload(queries, query_sizes)
        if not prepared:
            return []
        store = self._store
        block = _resolve_row_block_size(row_block_size)
        matches, query_words, num_values, max_values, exact, sizes = (
            self._workload_arrays(prepared)
        )
        num_queries = len(prepared)
        num_rows = store.num_rows
        row_ids, alive = store.result_view()

        # Running top-k per query, maintained in final order (decreasing
        # score, ties by increasing id).  NaN scores mark tombstoned rows;
        # they sort last and are dropped at the end.
        running_scores = np.empty((num_queries, 0), dtype=np.float64)
        running_ids = np.empty((num_queries, 0), dtype=np.int64)
        num_blocks = 0
        peak_block = 0
        estimator_pairs = 0
        for row_lo in range(0, num_rows, block):
            row_hi = min(row_lo + block, num_rows)
            num_blocks += 1
            peak_block = max(peak_block, row_hi - row_lo)
            alive_block = None if alive is None else alive[row_lo:row_hi]
            scores, block_estimator_pairs = self._block_scores(
                matches, query_words, num_values, max_values, exact,
                alive_block, row_lo, row_hi,
            )
            estimator_pairs += block_estimator_pairs
            scores /= sizes[:, np.newaxis]
            rows = np.arange(row_lo, row_hi, dtype=np.int64)
            column_ids = rows if row_ids is None else row_ids[rows]
            if alive_block is not None:
                scores[:, ~alive_block] = np.nan
            merged_scores = np.concatenate([running_scores, scores], axis=1)
            merged_ids = np.concatenate(
                [running_ids, np.broadcast_to(column_ids, scores.shape)], axis=1
            )
            # Two stable axis-1 argsorts realise the (decreasing score,
            # increasing id) order row-wise: ids first, then scores — NaNs
            # (dead rows, empty slots) sort to the back of every row.
            id_order = np.argsort(merged_ids, axis=1, kind="stable")
            merged_scores = np.take_along_axis(merged_scores, id_order, axis=1)
            merged_ids = np.take_along_axis(merged_ids, id_order, axis=1)
            score_order = np.argsort(-merged_scores, axis=1, kind="stable")[:, :k]
            running_scores = np.take_along_axis(merged_scores, score_order, axis=1)
            running_ids = np.take_along_axis(merged_ids, score_order, axis=1)

        self.last_workload_stats = WorkloadExecutionStats(
            num_queries=num_queries,
            num_rows=num_rows,
            row_block_size=block,
            num_blocks=num_blocks,
            peak_block_cells=num_queries * peak_block,
            dense_cells=num_queries * num_rows,
            estimator_pairs=estimator_pairs,
            hit_pairs=int(np.count_nonzero(~np.isnan(running_scores))),
        )
        results: list[list[SearchResult]] = []
        for position in range(num_queries):
            hits = [
                SearchResult(record_id=int(record_id), score=float(score))
                for record_id, score in zip(
                    running_ids[position].tolist(), running_scores[position].tolist()
                )
                if score == score
            ]
            results.append(hits)
        return results
