"""Thread-scalable filter wrapper (§1's "achieve high concurrency").

Production quotient/cuckoo filters scale across threads by partitioning
the table and locking per region.  The Python-appropriate equivalent is
hash-sharding: the key space is split across independent filter shards,
each guarded by its own lock, so concurrent operations on different shards
never contend.  Correctness (linearizable per key) holds for any wrapped
dynamic filter; throughput scaling is bounded by the GIL in CPython but
the contention behaviour — the thing the design controls — is real and
tested.

Routing is pluggable (:mod:`repro.core.routing`): the default
:class:`~repro.core.routing.HashRouter` reproduces the historical
hard-coded mapping bit-for-bit, and range / consistent-hash routers
place keys by hash range or ring.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.core.interfaces import DynamicFilter, Key, KeyBatch, as_key_list
from repro.core.routing import HashRouter, Router


class ShardedFilter(DynamicFilter):
    """Lock-striped composition of independent filter shards."""

    def __init__(
        self,
        shard_factory: Callable[[int], DynamicFilter],
        n_shards: int = 8,
        *,
        seed: int = 0,
        router: Router | None = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.seed = seed
        self._shards = [shard_factory(i) for i in range(n_shards)]
        self._locks = [threading.Lock() for _ in range(n_shards)]
        # The default router is bit-identical to the historical inline
        # hash_to_range(key, n_shards, seed ^ 0x5AAD) mapping.
        self._router = router if router is not None else HashRouter(
            n_shards, seed=seed
        )
        if max(self._router.shard_ids(), default=0) >= n_shards:
            raise ValueError("router routes to shard ids beyond the shard list")

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def router(self) -> Router:
        return self._router

    @property
    def supports_deletes(self) -> bool:
        """Recomputed from the live shards on every access.

        A shard's delete support can change after construction — e.g. an
        expandable shard that adds a non-deletable layer when it grows —
        so caching this at ``__init__`` time would keep advertising
        deletes the shards can no longer honour.
        """
        return all(s.supports_deletes for s in self._shards)

    def insert(self, key: Key) -> None:
        i = self._router.owner(key)
        with self._locks[i]:
            self._shards[i].insert(key)

    def may_contain(self, key: Key) -> bool:
        i = self._router.owner(key)
        with self._locks[i]:
            return self._shards[i].may_contain(key)

    def delete(self, key: Key) -> None:
        i = self._router.owner(key)
        with self._locks[i]:
            self._shards[i].delete(key)

    # -- batch API (docs/performance.md) ---------------------------------------

    def _group_by_shard(self, keys: KeyBatch) -> dict[int, tuple[list[int], list]]:
        """Partition a batch: shard index -> (positions, keys), order kept."""
        groups: dict[int, tuple[list[int], list]] = {}
        for position, key in enumerate(as_key_list(keys)):
            shard = self._router.owner(key)
            bucket = groups.get(shard)
            if bucket is None:
                bucket = groups[shard] = ([], [])
            bucket[0].append(position)
            bucket[1].append(key)
        return groups

    def insert_many(self, keys: KeyBatch) -> None:
        """Batch insert: one grouped ``insert_many`` per touched shard.

        Each shard's lock is taken once per batch instead of once per
        key, and each shard sees its keys in their original relative
        order.  On ``FilterFullError`` the keys already handed to shards
        stay inserted (the cross-shard processing order is by shard, not
        by batch position — shards are independent, so only the failing
        shard's progress is partial).
        """
        for shard, (_positions, shard_keys) in self._group_by_shard(keys).items():
            with self._locks[shard]:
                self._shards[shard].insert_many(shard_keys)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Batch probe: group per shard, one vectorised kernel call (and
        one lock acquisition) per shard, answers scattered back in batch
        order."""
        key_list = as_key_list(keys)
        out = np.zeros(len(key_list), dtype=bool)
        for shard, (positions, shard_keys) in self._group_by_shard(key_list).items():
            with self._locks[shard]:
                hits = self._shards[shard].may_contain_many(shard_keys)
            out[positions] |= hits
        return out

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    @property
    def size_in_bits(self) -> int:
        return sum(shard.size_in_bits for shard in self._shards)

    @property
    def shard_loads(self) -> list[int]:
        """Per-shard key counts (hashing keeps these balanced)."""
        return [len(shard) for shard in self._shards]
