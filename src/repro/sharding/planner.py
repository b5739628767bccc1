"""Building the per-shard inner indexes under globally pinned parameters.

The point of the planner is *bitwise identity*: a sharded index must
return exactly the results of its unsharded inner backend, or sharding
would silently change the numbers a benchmark reports.  Every per-record
sketch in the native backends depends only on the record's content and
the *global* construction parameters — the frequent-element vocabulary,
the residual threshold ``τ``, the hasher, and KMV's per-record ``k`` —
never on which other records share its store.  So the planner derives
those parameters once over the **full** dataset (exactly as the
unsharded construction would) and then sketches each shard's records
under the pinned values.

For the native sketch backends the whole pipeline is *flatten once,
plan once, sketch shards concurrently*:

- the dataset is flattened and fingerprinted exactly once
  (:func:`~repro.core.bulk.flatten_records`); each shard's view is a
  CSR gather out of that one pass
  (:func:`~repro.core.bulk.slice_flat_records`) — no per-shard
  re-hashing and no second frequency pass;
- ``gbkmv`` / ``gkmv`` pin parameters via
  :meth:`~repro.core.index.GBKMVIndex.plan_parameters` and sketch each
  slice with :meth:`~repro.core.index.GBKMVIndex.from_flat` (``gkmv``
  pins ``buffer_size=0`` and wraps the shards); ``kmv`` applies the
  Theorem-1 allocation ``k = ⌊b / m⌋`` with the *global* ``b`` and
  ``m``, hashes the unique universe once, and bulk-selects each slice's
  rows;
- the per-shard sketch kernels fan out on a
  :class:`~repro.sharding.executor.ShardExecutor` thread pool sized by
  ``build_workers`` (the kernels release the GIL).

Other dynamic backends shard through their ordinary ``from_records``;
they still answer every query (each shard sees all queries and the merge
is order-exact), but their per-shard parameters are derived per shard,
so results may differ from the unsharded build — and an empty shard is
an error, since there is no pinned-parameter way to construct one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError
from repro.api.config import IndexConfig
from repro.api.interface import SimilarityIndex
from repro.api.registry import get_backend
from repro.baselines.kmv_search import GKMVSearchIndex, KMVSearchIndex
from repro.core.bulk import (
    FlatRecords,
    bulk_kmv_value_rows,
    flatten_records,
    resolve_space_budget,
    slice_flat_records,
)
from repro.core.index import GBKMVIndex
from repro.core.profiling import BuildProfile
from repro.hashing import UnitHash
from repro.sharding.executor import ShardExecutor


def build_shards(
    records: Sequence[Iterable[object]],
    groups: Sequence[np.ndarray],
    inner_backend: str,
    inner_config: IndexConfig | None,
    build_workers: int | None = None,
    profile: BuildProfile | None = None,
) -> list[SimilarityIndex]:
    """Build one inner index per shard.

    ``records`` is the full dataset in global-id order and ``groups[s]``
    the ascending positions (int64) of the records routed to shard ``s``
    — ascending order is what makes inner local ids line up with arrival
    ranks.  ``inner_config`` is validated against the inner backend's
    ``config_type``.

    ``build_workers`` sizes the construction fan-out (``None`` means one
    worker per core, capped at the shard count; an explicit value below
    the shard count is an oversubscription guard); it only applies to
    the native sketch backends' bulk pipeline.  ``profile`` collects the
    per-stage build breakdown.
    """
    if inner_backend == "gbkmv":
        return _gbkmv_shards(records, groups, inner_config, build_workers, profile)
    if inner_backend == "gkmv":
        return _gkmv_shards(records, groups, inner_config, build_workers, profile)
    if inner_backend == "kmv":
        return _kmv_shards(records, groups, inner_config, build_workers, profile)
    return _generic_shards(records, groups, inner_backend, inner_config)


def _records_of(records, group: np.ndarray) -> list:
    """Materialise one shard's records as a Python list (fallback paths)."""
    return [records[position] for position in group.tolist()]


def _pinned_gbkmv_shards(
    records, groups, plan_kwargs: dict, build_workers, profile
) -> list[GBKMVIndex]:
    """Flatten once, plan once, sketch every shard under the pinned params."""
    flat = flatten_records(records, profile=profile)
    params = GBKMVIndex.plan_parameters(flat, profile=profile, **plan_kwargs)
    # Each shard carries an equal slice of the global budget; the budget
    # only feeds per-shard bookkeeping (refit headroom, statistics) —
    # sketch content is fully determined by the pinned parameters.
    share = params.budget / len(groups)

    def build_one(piece: FlatRecords) -> GBKMVIndex:
        if piece.num_records == 0:
            return GBKMVIndex(
                vocabulary=params.vocabulary,
                threshold=params.threshold,
                hasher=params.hasher,
                budget=share,
            )
        return GBKMVIndex.from_flat(
            piece,
            vocabulary=params.vocabulary,
            threshold=params.threshold,
            hasher=params.hasher,
            budget=share,
            lookup=params.lookup,
            unique_hashes=params.unique_hashes,
            profile=profile,
        )

    pieces = [slice_flat_records(flat, group) for group in groups]
    executor = ShardExecutor(len(groups), build_workers)
    try:
        return executor.map(build_one, pieces)
    finally:
        executor.close()


def _gbkmv_shards(records, groups, inner_config, build_workers, profile):
    config = GBKMVIndex.resolve_config(inner_config)
    return _pinned_gbkmv_shards(
        records,
        groups,
        dict(
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            buffer_size=config.buffer_size,
            seed=config.seed,
            cost_model_pair_sample=config.cost_model_pair_sample,
        ),
        build_workers,
        profile,
    )


def _gkmv_shards(records, groups, inner_config, build_workers, profile):
    config = GKMVSearchIndex.resolve_config(inner_config)
    inners = _pinned_gbkmv_shards(
        records,
        groups,
        dict(
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            buffer_size=0,
            seed=config.seed,
        ),
        build_workers,
        profile,
    )
    return [GKMVSearchIndex(inner) for inner in inners]


def _kmv_shards(records, groups, inner_config, build_workers, profile):
    config = KMVSearchIndex.resolve_config(inner_config)
    flat = flatten_records(records, profile=profile)
    budget = resolve_space_budget(
        flat.total_elements, config.space_fraction, config.space_budget
    )
    # Theorem 1's equal allocation under the *global* budget and record
    # count — the same k every record gets in the unsharded build.
    k = max(int(budget // flat.num_records), 1)
    hasher = UnitHash(seed=config.seed)
    share = budget / len(groups)
    # Hash the unique universe once for every shard: a fingerprint's
    # hash does not depend on which records carry it, so per-shard rows
    # under the global hash column equal per-shard re-hashing.
    unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)

    def build_one(piece: FlatRecords) -> KMVSearchIndex:
        index = KMVSearchIndex(hasher=hasher, k_per_record=k, budget=share)
        rows = bulk_kmv_value_rows(
            piece, hasher, k, unique_hashes=unique_hashes, profile=profile
        )
        index._extend_rows(rows, piece.record_sizes.tolist())
        return index

    pieces = [slice_flat_records(flat, group) for group in groups]
    executor = ShardExecutor(len(groups), build_workers)
    try:
        return executor.map(build_one, pieces)
    finally:
        executor.close()


def _generic_shards(records, groups, inner_backend, inner_config):
    inner_cls = get_backend(inner_backend)
    config = inner_cls.resolve_config(inner_config)
    shards = []
    for position, group in enumerate(groups):
        if group.size == 0:
            raise ConfigurationError(
                f"shard {position} of {len(groups)} is empty; backend "
                f"{inner_backend!r} has no pinned-parameter construction and "
                "cannot build an empty shard — use fewer shards or a native "
                "sketch backend (gbkmv/gkmv/kmv)"
            )
        shards.append(
            inner_cls.from_records(_records_of(records, group), config=config)
        )
    return shards
