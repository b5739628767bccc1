"""Typed per-backend build configurations.

One frozen dataclass per registered backend replaces the sprawling
keyword constructors of the historical entry points: a config carries
exactly the knobs its backend understands, so
``create_index(backend, records, config)`` can validate the pairing
up front (a :class:`GBKMVConfig` handed to the ``"kmv"`` backend is a
:class:`~repro._errors.ConfigurationError`, not a silent ``TypeError``
three frames deep).

Every config class is immutable and fully defaulted — ``create_index``
with no config builds the backend under the same defaults the paper's
evaluation uses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IndexConfig:
    """Base class of all backend build configurations.

    Backends that take no build parameters (the exact searchers) use it
    directly; every parameterised backend subclasses it with its own
    typed fields.
    """


@dataclass(frozen=True)
class ExactSearchConfig(IndexConfig):
    """Build configuration of the exact backends (no parameters).

    A dedicated (empty) type rather than the bare :class:`IndexConfig`
    so that handing an exact backend another backend's config is a
    type mismatch, not a silently accepted superclass instance.
    """


@dataclass(frozen=True)
class GBKMVConfig(IndexConfig):
    """Build configuration of the ``"gbkmv"`` backend (Algorithm 1).

    Attributes
    ----------
    space_fraction:
        Space budget as a fraction of the dataset size; ignored when
        ``space_budget`` is given.
    space_budget:
        Absolute budget ``b`` in signature-value units.
    buffer_size:
        Explicit buffer size ``r``, or ``"auto"`` for the Section IV-C6
        cost model.
    seed:
        Seed of the shared :class:`~repro.hashing.UnitHash` and of the
        cost model's pair sampling.
    cost_model_pair_sample:
        Number of record pairs the cost model averages over.
    """

    space_fraction: float = 0.10
    space_budget: float | None = None
    buffer_size: int | str = "auto"
    seed: int = 0
    cost_model_pair_sample: int = 256


@dataclass(frozen=True)
class KMVConfig(IndexConfig):
    """Build configuration of the ``"kmv"`` backend (Theorem-1 equal allocation)."""

    space_fraction: float = 0.10
    space_budget: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class GKMVConfig(IndexConfig):
    """Build configuration of the ``"gkmv"`` backend (global threshold, no buffer)."""

    space_fraction: float = 0.10
    space_budget: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class LSHEnsembleConfig(IndexConfig):
    """Build configuration of the ``"lsh-ensemble"`` backend.

    Attributes
    ----------
    num_perm:
        Signature length (number of MinHash functions).
    num_partitions:
        Number of equal-depth size partitions.
    seed:
        Master seed of the hash family.
    false_positive_weight, false_negative_weight:
        Relative costs in the per-query ``(b, r)`` optimisation.
    verify:
        When true, candidates are filtered by the Equation-15
        signature-based containment estimate (scores become meaningful);
        the original LSH-E returns raw, unscored candidates.
    """

    num_perm: int = 256
    num_partitions: int = 32
    seed: int = 0
    false_positive_weight: float = 0.5
    false_negative_weight: float = 0.5
    verify: bool = False


@dataclass(frozen=True)
class AsymmetricMinHashConfig(IndexConfig):
    """Build configuration of the ``"asymmetric-minhash"`` backend."""

    num_perm: int = 256
    seed: int = 0


#: Visibility policies :class:`ServingConfig` accepts.
VISIBILITY_POLICIES = ("read-your-writes", "bounded-staleness")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of the :class:`repro.serving.SimilarityService` front.

    Not an :class:`IndexConfig`: it does not build an index, it wraps a
    built one — but it lives here so the whole typed-configuration
    surface of the library is one module.

    Attributes
    ----------
    max_batch_size:
        Upper bound on the number of requests one micro-batch executes
        as a single ``search_many`` / ``top_k_many`` call.  ``1``
        disables micro-batching (every request runs alone — the
        unbatched baseline of ``BENCH_serving.json``).
    max_batch_delay_us:
        The micro-batch window, in microseconds: how long the first
        request of a batch may wait for company before the batch
        executes anyway.  ``0`` executes every batch as soon as the
        event loop drains the submissions already queued.
    visibility:
        Write-visibility policy of the write buffer.
        ``"read-your-writes"`` flushes buffered writes before every
        query batch, so a client that awaited a write always sees it.
        ``"bounded-staleness"`` lets queries run against the index as
        is; buffered writes become visible within
        ``max_write_lag_ms`` (or earlier, when the buffer fills).
    max_write_lag_ms:
        Flush deadline, in milliseconds, for buffered writes.  Under
        bounded staleness it is the staleness bound; under
        read-your-writes it merely stops writes from sitting in the
        buffer on a query-free stream.
    max_buffered_writes:
        Size-triggered flush threshold: the buffer flushes as soon as
        it holds this many write operations, regardless of policy.
    """

    max_batch_size: int = 64
    max_batch_delay_us: float = 200.0
    visibility: str = "read-your-writes"
    max_write_lag_ms: float = 50.0
    max_buffered_writes: int = 512


@dataclass(frozen=True)
class ShardedConfig(IndexConfig):
    """Build configuration of the ``"sharded"`` backend.

    Attributes
    ----------
    num_shards:
        Number of independent inner stores the dataset is partitioned
        across (by record-id hash).
    inner_backend:
        Registry id of the backend each shard runs; must be a dynamic
        backend and cannot be ``"sharded"`` itself.
    inner_config:
        Build configuration for the inner backend (its ``config_type``),
        or ``None`` for that backend's defaults.
    max_workers:
        Thread-pool width for fan-out operations; ``None`` sizes the
        pool to ``min(os.cpu_count(), num_shards)``.
    build_workers:
        Executor width for the *construction* fan-out (per-shard bulk
        sketching); ``None`` sizes it like ``max_workers``.  An explicit
        value below ``num_shards`` acts as an oversubscription guard.
        Only the native sketch backends (gbkmv/gkmv/kmv) build in
        parallel, on threads (the sketch kernels release the GIL).
    """

    num_shards: int = 4
    inner_backend: str = "gbkmv"
    inner_config: IndexConfig | None = None
    max_workers: int | None = None
    build_workers: int | None = None
