""":class:`ShardedIndex` — the registered ``"sharded"`` backend.

A thin but complete :class:`~repro.api.interface.SimilarityIndex` over
``S`` independent inner indexes:

- **Routing.**  A record's shard is ``mix64(global_id) % S``; its local
  id inside the shard is its arrival rank there.  Both directions of the
  mapping are O(1) at runtime and reconstructable from nothing but
  ``next_global_id`` at load time.
- **Search.**  Every query fans out to all shards on a thread pool (the
  sketch kernels release the GIL) and the per-shard hits merge back into
  the exact global result order; for the native sketch backends the
  merged lists are bitwise identical to the unsharded index
  (see :mod:`repro.sharding.planner`).
- **Mutation.**  ``insert``/``insert_many`` assign sequential global ids
  and route by id hash (batches are grouped per shard and ingested
  through the inner bulk pipelines, in parallel); ``delete``/``update``
  route through the id mapping.
- **Persistence.**  ``save`` writes a directory of per-shard snapshots
  plus a manifest; :func:`repro.api.open_index` reopens it — with
  ``mmap=True`` mapping every shard's large columns — without the
  caller naming the backend.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api.config import IndexConfig, ShardedConfig
from repro.core.profiling import BuildProfile
from repro.api.interface import Capabilities, SimilarityIndex
from repro.api.registry import get_backend
from repro.api.results import SearchResult
from repro.sharding.executor import ShardExecutor
from repro.sharding.merge import merge_query_hits, merge_workload_hits
from repro.sharding.partitioner import routing_tables, shard_of, shards_of
from repro.sharding.persistence import load_sharded, save_sharded
from repro.sharding.planner import build_shards

_REUSABLE_RECORD_TYPES = (list, tuple, set, frozenset, np.ndarray)


def _materialize_record(record: Iterable[object]):
    """A record as a re-iterable container (fan-out reads it S times)."""
    return record if isinstance(record, _REUSABLE_RECORD_TYPES) else list(record)


def _materialize_records(records: Sequence[Iterable[object]]) -> list:
    return [_materialize_record(record) for record in records]


class ShardedIndex(SimilarityIndex):
    """Record-id–hash partitioned fan-out over independent inner indexes."""

    backend_id = "sharded"
    config_type = ShardedConfig
    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    def __init__(
        self,
        shards: Sequence[SimilarityIndex],
        inner_backend: str,
        next_global_id: int,
        max_workers: int | None = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("a sharded index needs at least one shard")
        self._shards = list(shards)
        self._num_shards = len(self._shards)
        self._inner_backend = str(inner_backend)
        self._max_workers = None if max_workers is None else int(max_workers)
        self._executor = ShardExecutor(self._num_shards, self._max_workers)
        #: Per-stage wall-clock breakdown of the build that produced this
        #: index, or ``None`` (loads, hand-assembled shard lists).
        self.last_build_profile: BuildProfile | None = None
        # Bidirectional id routing, reconstructed from the id count: the
        # mapping is a pure function of (next_global_id, num_shards).
        local_ids, shard_globals = routing_tables(
            int(next_global_id), self._num_shards
        )
        self._next_global_id = int(next_global_id)
        self._local_ids: list[int] = local_ids.tolist()
        self._shard_globals: list[list[int]] = [
            globals_.tolist() for globals_ in shard_globals
        ]
        self._globals_cache: list[np.ndarray | None] = [None] * self._num_shards
        # What this index really supports is what its inner backend
        # supports; batched is always true (the fan-out *is* the engine).
        inner_caps = self._shards[0].capabilities
        self.capabilities = Capabilities(
            dynamic=inner_caps.dynamic,
            batched=True,
            persistent=inner_caps.persistent,
            exact=inner_caps.exact,
            scored=inner_caps.scored,
        )

    # ------------------------------------------------------------------ build
    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: IndexConfig | None = None,
    ) -> "ShardedIndex":
        """Partition a dataset by record-id hash and build every shard."""
        config = cls.resolve_config(config)
        num_shards = int(config.num_shards)
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if config.inner_backend == cls.backend_id:
            raise ConfigurationError("the sharded backend cannot nest itself")
        inner_cls = get_backend(config.inner_backend)
        if not inner_cls.capabilities.dynamic:
            raise ConfigurationError(
                f"inner backend {config.inner_backend!r} is not dynamic; "
                "sharded routing requires insert/delete support"
            )
        materialized = _materialize_records(records)
        if not materialized:
            raise EmptyDatasetError("cannot build an index over an empty dataset")
        assignments = shards_of(
            np.arange(len(materialized), dtype=np.uint64), num_shards
        )
        groups = [
            np.nonzero(assignments == shard)[0] for shard in range(num_shards)
        ]
        profile = BuildProfile()
        shards = build_shards(
            materialized,
            groups,
            config.inner_backend,
            config.inner_config,
            build_workers=config.build_workers,
            profile=profile,
        )
        index = cls(
            shards,
            config.inner_backend,
            next_global_id=len(materialized),
            max_workers=config.max_workers,
        )
        index.last_build_profile = profile
        return index

    # ---------------------------------------------------------------- search
    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Fan one query across all shards; merge into the global order."""
        materialized = _materialize_record(query)
        per_shard = self._executor.map(
            lambda shard: shard.search(materialized, threshold, query_size=query_size),
            self._shards,
        )
        return merge_query_hits(per_shard, self._globals())

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
    ) -> list[list[SearchResult]]:
        """Run the whole workload on every shard in parallel and merge.

        Each shard answers *all* queries through its own (possibly
        fused) ``search_many`` engine — records are partitioned, queries
        are not — so the per-shard passes overlap on the pool.
        """
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        materialized = _materialize_records(queries)
        per_shard = self._executor.map(
            lambda shard: shard.search_many(
                materialized, threshold, query_sizes=query_sizes
            ),
            self._shards,
        )
        return merge_workload_hits(per_shard, self._globals(), len(materialized))

    def top_k(
        self, query: Iterable[object], k: int, query_size: int | None = None
    ) -> list[SearchResult]:
        """Exact fan-out top-k: merge per-shard top-k lists, truncate to k."""
        if not self.capabilities.scored:
            raise self._unsupported("top_k", "does not produce meaningful scores")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        materialized = _materialize_record(query)
        per_shard = self._executor.map(
            lambda shard: shard.top_k(materialized, k, query_size=query_size),
            self._shards,
        )
        return merge_query_hits(per_shard, self._globals(), limit=k)

    def top_k_many(
        self,
        queries: Sequence[Iterable[object]],
        k: int,
        query_sizes: Sequence[int] | None = None,
    ) -> list[list[SearchResult]]:
        """Workload variant of :meth:`top_k` (parallel across shards)."""
        if not self.capabilities.scored:
            raise self._unsupported(
                "top_k_many", "does not produce meaningful scores"
            )
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        materialized = _materialize_records(queries)
        per_shard = self._executor.map(
            lambda shard: shard.top_k_many(materialized, k, query_sizes=query_sizes),
            self._shards,
        )
        return merge_workload_hits(
            per_shard, self._globals(), len(materialized), limit=k
        )

    # --------------------------------------------------------------- updates
    def insert(self, record: Iterable[object]) -> int:
        """Insert one record; its global id picks the shard."""
        if not self.capabilities.dynamic:
            raise self._unsupported("insert", "is not dynamic")
        global_id = self._next_global_id
        shard = shard_of(global_id, self._num_shards)
        local = self._shards[shard].insert(record)
        self._commit_insert(shard, global_id, int(local))
        return global_id

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batch insert: group by destination shard, ingest in parallel.

        Each destination shard receives its sub-batch through the inner
        backend's bulk ``insert_many``; ids come back in batch order and
        continue the global sequence, exactly as looping :meth:`insert`
        would assign them.
        """
        if not self.capabilities.dynamic:
            raise self._unsupported("insert_many", "is not dynamic")
        materialized = _materialize_records(records)
        if not materialized:
            return []
        # Validate the whole batch before touching any shard, so a bad
        # record cannot leave some shards mutated and others not.
        for record in materialized:
            if isinstance(record, np.ndarray):
                if record.size == 0:
                    raise ConfigurationError("cannot insert an empty record")
            elif not record:
                raise ConfigurationError("cannot insert an empty record")
        count = len(materialized)
        global_ids = np.arange(
            self._next_global_id, self._next_global_id + count, dtype=np.uint64
        )
        assignments = shards_of(global_ids, self._num_shards)
        groups = [
            np.nonzero(assignments == shard)[0] for shard in range(self._num_shards)
        ]

        def ingest(shard: int) -> list[int]:
            positions = groups[shard]
            if positions.size == 0:
                return []
            return self._shards[shard].insert_many(
                [materialized[position] for position in positions.tolist()]
            )

        per_shard_locals = self._executor.map(ingest, range(self._num_shards))
        for shard, locals_ in enumerate(per_shard_locals):
            expected = len(self._shard_globals[shard])
            for offset, local in enumerate(locals_):
                self._check_sequential(shard, int(local), expected + offset)
        # Commit the routing tables only after every shard succeeded.
        local_of = np.empty(count, dtype=np.int64)
        for shard, locals_ in enumerate(per_shard_locals):
            positions = groups[shard]
            if positions.size:
                local_of[positions] = np.asarray(locals_, dtype=np.int64)
                self._shard_globals[shard].extend(
                    global_ids[positions].astype(np.int64).tolist()
                )
                self._globals_cache[shard] = None
        self._local_ids.extend(local_of.tolist())
        self._next_global_id += count
        return global_ids.astype(np.int64).tolist()

    def delete(self, record_id: int) -> None:
        """Route the delete to the record's shard."""
        if not self.capabilities.dynamic:
            raise self._unsupported("delete", "is not dynamic")
        _, shard, local = self._route(record_id)
        try:
            self._shards[shard].delete(local)
        except ConfigurationError as error:
            # The inner error names the local id; re-raise under the
            # global id the caller actually used.
            raise ConfigurationError(
                f"unknown or deleted record id {record_id}"
            ) from error

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Route the in-place replace to the record's shard."""
        if not self.capabilities.dynamic:
            raise self._unsupported("update", "is not dynamic")
        global_id, shard, local = self._route(record_id)
        materialized = _materialize_record(record)
        if len(materialized) == 0:
            raise ConfigurationError("cannot update a record to be empty")
        try:
            self._shards[shard].update(local, materialized)
        except ConfigurationError as error:
            raise ConfigurationError(
                f"unknown or deleted record id {record_id}"
            ) from error
        return global_id

    def _route(self, record_id: int) -> tuple[int, int, int]:
        """Resolve a global id to ``(global_id, shard, local_id)``."""
        global_id = int(record_id)
        if global_id < 0 or global_id >= self._next_global_id:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        return (
            global_id,
            shard_of(global_id, self._num_shards),
            self._local_ids[global_id],
        )

    def _check_sequential(self, shard: int, local: int, expected: int) -> None:
        if local != expected:
            raise ConfigurationError(
                f"inner backend {self._inner_backend!r} assigned record id "
                f"{local} where {expected} was expected; sharded routing "
                "requires sequential inner record ids"
            )

    def _commit_insert(self, shard: int, global_id: int, local: int) -> None:
        self._check_sequential(shard, local, len(self._shard_globals[shard]))
        self._local_ids.append(local)
        self._shard_globals[shard].append(global_id)
        self._globals_cache[shard] = None
        self._next_global_id = global_id + 1

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Write the directory-of-shard-snapshots format (plus manifest)."""
        if not self.capabilities.persistent:
            raise self._unsupported("save", "is not persistent")
        save_sharded(
            path,
            self._shards,
            self._inner_backend,
            self._next_global_id,
            self._max_workers,
        )

    @classmethod
    def load(cls, path, mmap: bool = False) -> "ShardedIndex":
        """Restore a sharded snapshot directory written by :meth:`save`.

        ``mmap=True`` memory-maps every shard's large columns (inner
        backends that support directory snapshots only).
        """
        shards, manifest = load_sharded(path, mmap=mmap)
        return cls(
            shards,
            manifest["inner_backend"],
            next_global_id=int(manifest["next_global_id"]),
            max_workers=manifest.get("max_workers"),
        )

    # ------------------------------------------------------------ introspection
    @property
    def num_records(self) -> int:
        """Live records across all shards."""
        return sum(shard.num_records for shard in self._shards)

    @property
    def next_record_id(self) -> int:
        """The global id the next :meth:`insert` will assign (sequential)."""
        return self._next_global_id

    @property
    def num_shards(self) -> int:
        """Number of shards the dataset is partitioned across."""
        return self._num_shards

    @property
    def shards(self) -> tuple[SimilarityIndex, ...]:
        """The inner per-shard indexes (read-only view)."""
        return tuple(self._shards)

    @property
    def inner_backend(self) -> str:
        """Registry id of the backend each shard runs."""
        return self._inner_backend

    def space_in_values(self) -> float:
        """Total sketch space across shards, in signature-value units."""
        return float(sum(shard.space_in_values() for shard in self._shards))

    def space_fraction(self) -> float:
        """Space used as a fraction of the (live) dataset size.

        Aggregated from the shards: each shard's live element count is
        recovered as ``space / fraction``, so the global fraction is the
        space-weighted harmonic combination of the per-shard ones.
        """
        total_space = 0.0
        total_elements = 0.0
        for shard in self._shards:
            space = float(shard.space_in_values())
            fraction = float(shard.space_fraction())
            total_space += space
            if fraction > 0.0:
                total_elements += space / fraction
        if total_elements == 0.0:
            return 0.0
        return total_space / total_elements

    # ------------------------------------------------------------------ misc
    def _globals(self) -> list[np.ndarray]:
        """Per-shard local→global id arrays (cached between mutations)."""
        for shard in range(self._num_shards):
            if self._globals_cache[shard] is None:
                self._globals_cache[shard] = np.asarray(
                    self._shard_globals[shard], dtype=np.int64
                )
        return self._globals_cache

    def close(self) -> None:
        """Release the fan-out pool and every shard's resources, deterministically.

        Overrides the interface's no-op: the :class:`ShardExecutor` pool
        is joined (not abandoned to GC) and ``close`` is forwarded to
        every inner shard.  Idempotent; the index stays usable for
        in-memory operations — the next fan-out lazily recreates the
        pool.  The serving layer's ``drain``/``close`` path relies on
        this to shut a wrapped sharded index down cleanly.
        """
        self._executor.close()
        for shard in self._shards:
            shard.close()
