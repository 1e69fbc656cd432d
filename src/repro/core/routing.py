"""Pluggable, versioned shard routing (ROADMAP #4, docs/robustness.md).

A :class:`Router` maps keys to shard ids.  Every router carries an
``epoch`` — a version number that bumps whenever ownership changes — so
layers above (the sharded store, negative caches, migration journals)
can tell "same topology" from "keys moved" without diffing tables.
Routers are value objects: topology changes (:meth:`HashRangeRouter.split`,
:meth:`ConsistentHashRouter.with_shard`, …) return a *new* router at
``epoch + 1`` and never mutate the old one, which is exactly what online
resharding needs — a migration is an ``(old_router, new_router)`` pair,
and a key must move iff the two disagree about its owner.

All routers serialize to JSON-safe manifests (:meth:`Router.to_manifest`
/ :func:`router_from_manifest`) so routing survives crashes through the
same double-buffered-manifest discipline the LSM-tree uses.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.common.hashing import hash64, hash_to_range

# XORed into the user seed before hashing so shard choice stays
# decorrelated from the filters' own hash functions (the historical
# ShardedFilter constant — kept bit-identical for compatibility).
SHARD_SALT = 0x5AAD

_SPACE = 1 << 64  # routers partition the full 64-bit hash space


class Router:
    """Maps keys to shard ids; versioned by ``epoch``."""

    kind = "base"

    def __init__(self, *, epoch: int = 0):
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.epoch = epoch

    def owner(self, key: Any) -> int:
        raise NotImplementedError

    def shard_ids(self) -> tuple[int, ...]:
        raise NotImplementedError

    def preference_list(self, key: Any, n: int) -> tuple[int, ...]:
        """The first ``min(n, len(shards))`` distinct shards responsible
        for *key*, primary first — the replica placement set.

        The base rule walks successors of the owner in sorted-id order
        (wrapping), so any router gets a deterministic placement;
        :class:`ConsistentHashRouter` overrides this with a true ring
        walk, which is the placement replication should prefer (adding a
        shard shifts only neighbouring replica sets).
        """
        if n < 1:
            raise ValueError("preference list size must be positive")
        ids = sorted(self.shard_ids())
        start = ids.index(self.owner(key))
        take = min(n, len(ids))
        return tuple(ids[(start + i) % len(ids)] for i in range(take))

    def to_manifest(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(epoch={self.epoch}, shards={self.shard_ids()})"


class HashRouter(Router):
    """The historical ``ShardedFilter`` mapping: multiply-shift over a
    fixed shard count.  Bit-identical to the old hard-coded
    ``hash_to_range(key, n_shards, seed ^ 0x5AAD)``, so plugging the
    default router in changes nothing.  Fixed fan — it cannot split."""

    kind = "hash"

    def __init__(self, n_shards: int, *, seed: int = 0, epoch: int = 0):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        super().__init__(epoch=epoch)
        self.n_shards = n_shards
        self.seed = seed

    def owner(self, key: Any) -> int:
        return hash_to_range(key, self.n_shards, self.seed ^ SHARD_SALT)

    def shard_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_shards))

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind, "epoch": self.epoch,
            "n_shards": self.n_shards, "seed": self.seed,
        }


class HashRangeRouter(Router):
    """Contiguous ranges of the 64-bit hash space, one owner per range.

    ``bounds`` is a sorted tuple of ``(upper_exclusive, shard_id)`` pairs
    whose last upper bound is 2**64, so every hash value has exactly one
    owner by construction.  :meth:`split` and :meth:`merge` return new
    routers at ``epoch + 1`` — the primitives online resharding is built
    from (split a hot shard's widest range; merge a cold shard away).
    """

    kind = "hash_range"

    def __init__(self, bounds, *, seed: int = 0, epoch: int = 0):
        super().__init__(epoch=epoch)
        self.seed = seed
        self.bounds = tuple((int(upper), int(shard)) for upper, shard in bounds)
        if not self.bounds:
            raise ValueError("bounds must be non-empty")
        uppers = [u for u, _ in self.bounds]
        if uppers != sorted(uppers) or len(set(uppers)) != len(uppers):
            raise ValueError("bounds must be strictly increasing")
        if self.bounds[-1][0] != _SPACE:
            raise ValueError("last upper bound must cover the hash space")
        self._uppers = uppers

    @classmethod
    def uniform(cls, shard_ids, *, seed: int = 0, epoch: int = 0) -> "HashRangeRouter":
        """Equal-width ranges over *shard_ids*, in the order given."""
        ids = list(shard_ids)
        if not ids:
            raise ValueError("need at least one shard")
        n = len(ids)
        bounds = [((i + 1) * _SPACE // n, ids[i]) for i in range(n)]
        return cls(bounds, seed=seed, epoch=epoch)

    def owner(self, key: Any) -> int:
        h = hash64(key, self.seed ^ SHARD_SALT)
        return self.bounds[bisect.bisect_right(self._uppers, h)][1]

    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted({shard for _, shard in self.bounds}))

    def ranges_of(self, shard: int) -> list[tuple[int, int]]:
        """The ``[lo, hi)`` hash ranges *shard* owns."""
        out = []
        lo = 0
        for upper, owner in self.bounds:
            if owner == shard:
                out.append((lo, upper))
            lo = upper
        return out

    def split(self, source: int, target: int) -> "HashRangeRouter":
        """Hand the upper half of *source*'s widest range to *target*.

        The cut is the range's geometric midpoint: half the hash space,
        so half the keys for uniformly hashed keys.
        """
        if target in self.shard_ids() and target != source:
            raise ValueError(f"target shard {target} already owns ranges")
        ranges = self.ranges_of(source)
        if not ranges:
            raise ValueError(f"shard {source} owns no range")
        lo, hi = max(ranges, key=lambda r: r[1] - r[0])
        mid = (lo + hi) // 2
        if mid == lo:
            raise ValueError(f"shard {source}'s range is too narrow to split")
        new_bounds = []
        for upper, owner in self.bounds:
            if upper == hi and owner == source:
                new_bounds.append((mid, source))
                new_bounds.append((hi, target))
            else:
                new_bounds.append((upper, owner))
        return HashRangeRouter(new_bounds, seed=self.seed, epoch=self.epoch + 1)

    def merge(self, source: int, dest: int) -> "HashRangeRouter":
        """Reassign every range *source* owns to *dest* (retiring *source*)."""
        if source == dest:
            raise ValueError("merge source and dest must differ")
        if source not in self.shard_ids() or dest not in self.shard_ids():
            raise ValueError("merge endpoints must both own ranges")
        reassigned = [
            (upper, dest if owner == source else owner)
            for upper, owner in self.bounds
        ]
        # Coalesce adjacent ranges that now share an owner.
        coalesced: list[tuple[int, int]] = []
        for upper, owner in reassigned:
            if coalesced and coalesced[-1][1] == owner:
                coalesced[-1] = (upper, owner)
            else:
                coalesced.append((upper, owner))
        return HashRangeRouter(coalesced, seed=self.seed, epoch=self.epoch + 1)

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind, "epoch": self.epoch, "seed": self.seed,
            "bounds": [[upper, shard] for upper, shard in self.bounds],
        }


class ConsistentHashRouter(Router):
    """Classic consistent-hash ring with virtual nodes.

    Adding or removing one shard moves only ~1/n of the key space —
    the other shape online resharding takes when capacity, not one hot
    range, is the problem.  ``vnodes`` virtual points per shard keep the
    per-shard load spread tight.
    """

    kind = "consistent"

    def __init__(self, shard_ids, *, seed: int = 0, vnodes: int = 16, epoch: int = 0):
        super().__init__(epoch=epoch)
        ids = sorted(set(shard_ids))
        if not ids:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.seed = seed
        self.vnodes = vnodes
        self._ids = tuple(ids)
        points = []
        for shard in ids:
            for v in range(vnodes):
                points.append((hash64(f"vnode:{shard}:{v}", seed), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def owner(self, key: Any) -> int:
        h = hash64(key, self.seed ^ SHARD_SALT)
        i = bisect.bisect_right(self._hashes, h)
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._points[i][1]

    def shard_ids(self) -> tuple[int, ...]:
        return self._ids

    def preference_list(self, key: Any, n: int) -> tuple[int, ...]:
        """Walk the ring clockwise from the key's point, collecting the
        first ``min(n, len(shards))`` *distinct* shards (Dynamo-style
        replica placement: successive vnodes owned by the same shard are
        skipped, so replicas land on different shards)."""
        if n < 1:
            raise ValueError("preference list size must be positive")
        take = min(n, len(self._ids))
        h = hash64(key, self.seed ^ SHARD_SALT)
        i = bisect.bisect_right(self._hashes, h)
        chosen: list[int] = []
        for step in range(len(self._points)):
            shard = self._points[(i + step) % len(self._points)][1]
            if shard not in chosen:
                chosen.append(shard)
                if len(chosen) == take:
                    break
        return tuple(chosen)

    def with_shard(self, shard: int) -> "ConsistentHashRouter":
        if shard in self._ids:
            raise ValueError(f"shard {shard} is already on the ring")
        return ConsistentHashRouter(
            self._ids + (shard,), seed=self.seed, vnodes=self.vnodes,
            epoch=self.epoch + 1,
        )

    def without_shard(self, shard: int) -> "ConsistentHashRouter":
        if shard not in self._ids:
            raise ValueError(f"shard {shard} is not on the ring")
        if len(self._ids) == 1:
            raise ValueError("cannot remove the last shard")
        remaining = tuple(s for s in self._ids if s != shard)
        return ConsistentHashRouter(
            remaining, seed=self.seed, vnodes=self.vnodes, epoch=self.epoch + 1
        )

    def to_manifest(self) -> dict:
        return {
            "kind": self.kind, "epoch": self.epoch, "seed": self.seed,
            "vnodes": self.vnodes, "shards": list(self._ids),
        }


def router_from_manifest(raw: dict) -> Router:
    """Rehydrate any router from its JSON manifest (inverse of
    ``to_manifest``); raises ``ValueError`` on unknown kinds."""
    kind = raw.get("kind")
    epoch = int(raw.get("epoch", 0))
    seed = int(raw.get("seed", 0))
    if kind == HashRouter.kind:
        return HashRouter(int(raw["n_shards"]), seed=seed, epoch=epoch)
    if kind == HashRangeRouter.kind:
        return HashRangeRouter(
            [(int(u), int(s)) for u, s in raw["bounds"]], seed=seed, epoch=epoch
        )
    if kind == ConsistentHashRouter.kind:
        return ConsistentHashRouter(
            raw["shards"], seed=seed, vnodes=int(raw["vnodes"]), epoch=epoch
        )
    raise ValueError(f"unknown router kind {kind!r}")
