"""Block cache and cached-device wrapper (docs/performance.md).

The RocksDB block-cache design, sized in *simulated bytes* so cache
experiments compose with the repo's I/O accounting: a bounded map from
block address to payload with LRU eviction, optionally guarded by a
TinyLFU admission filter (a seeded 4-bit count-min sketch with periodic
aging) so one cold scan cannot wash the hot set out of a small cache.

Deployed as :class:`CachedDevice`, a wrapper over any device in the
stack (:class:`~repro.common.storage.BlockDevice`,
:class:`~repro.common.faults.FaultyBlockDevice`,
:class:`~repro.serve.breaker.BreakerDevice`):

* **reads** — a hit returns the cached payload without touching the
  wrapped device at all: no simulated I/O is charged, no fault or
  latency is drawn, no circuit breaker sees traffic.  A miss reads
  through and populates the cache.
* **writes and deletes** — *invalidate*, never populate.  Write-allocate
  would let the cache answer a read-back with data the device lost,
  masking exactly the torn/lost-write faults the storage stack exists
  to detect (:meth:`LSMTree._checkpoint` verifies manifests by reading
  them back); invalidate-on-write keeps every verification read honest.
* **ruin** — the out-of-band corruption backdoor also invalidates, so
  scrub tests observe the corruption they injected instead of a stale
  clean copy.

Telemetry: ``repro_cache_block_requests_total{result=hit|miss}``,
``..._evictions_total``, ``..._invalidations_total``,
``..._admission_rejects_total`` counters plus a
``repro_cache_block_used_bytes`` gauge; invalidation bursts are tracked
with :class:`~repro.obs.metrics.WindowedRate` and surface as
``repro_cache_invalidation_storms_total``.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.common.hashing import splitmix64
from repro.common.storage import BatchOps, _default_size
from repro.obs.metrics import Family, Handles, WindowedRate, bind_handles


@dataclass
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    admission_rejects: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.requests
        return self.hits / n if n else 0.0


class _FrequencySketch:
    """Seeded 4-bit count-min sketch with periodic halving (TinyLFU).

    Frequencies are estimates over a sliding sample: once ``sample_size``
    touches accrue, every counter is halved, so a key hot an hour ago
    cannot forever outrank the key hot now.
    """

    _ROWS = 4
    _MAX = 15  # 4-bit saturating counters

    def __init__(self, width: int = 2048, sample_size: int = 16384, seed: int = 0):
        self._width = max(64, width)
        self._sample_size = sample_size
        self._rows = [bytearray(self._width) for _ in range(self._ROWS)]
        self._seeds = [splitmix64(seed ^ (0x51E7 + i)) for i in range(self._ROWS)]
        self._touches = 0

    def _slots(self, address: Any):
        base = zlib.crc32(repr(address).encode())
        for row_seed in self._seeds:
            yield splitmix64(base ^ row_seed) % self._width

    def touch(self, address: Any) -> None:
        for row, slot in zip(self._rows, self._slots(address)):
            if row[slot] < self._MAX:
                row[slot] += 1
        self._touches += 1
        if self._touches >= self._sample_size:
            self._age()

    def estimate(self, address: Any) -> int:
        return min(row[slot] for row, slot in zip(self._rows, self._slots(address)))

    def _age(self) -> None:
        for row in self._rows:
            for i, value in enumerate(row):
                row[i] = value >> 1
        self._touches = 0


class _CacheMetrics(Handles):
    requests = Family("counter", "repro_cache_block_requests_total",
                      "block-cache lookups, by result", ("result",))
    evictions = Family("counter", "repro_cache_block_evictions_total",
                       "blocks evicted for capacity")
    invalidations = Family("counter", "repro_cache_block_invalidations_total",
                           "blocks dropped because their address was written or deleted")
    rejects = Family("counter", "repro_cache_block_admission_rejects_total",
                     "inserts refused by TinyLFU admission")
    storms = Family("counter", "repro_cache_invalidation_storms_total",
                    "windows where invalidations outpaced the storm threshold")
    used_bytes = Family("gauge", "repro_cache_block_used_bytes", "bytes currently cached")


class BlockCache:
    """Size-bounded LRU block cache with optional TinyLFU admission.

    ``capacity_bytes`` bounds the *simulated* bytes held; a block larger
    than the whole cache is never admitted.  With ``policy="tinylfu"``
    an insert that would force eviction must out-rank the LRU victim in
    estimated access frequency, otherwise it is rejected (and only its
    frequency recorded) — scans cannot flush the resident hot set.
    """

    def __init__(
        self,
        capacity_bytes: int,
        *,
        policy: str = "lru",
        seed: int = 0,
        storm_window: int = 256,
        storm_threshold: float = 0.25,
    ):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if policy not in ("lru", "tinylfu"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.seed = seed
        self.stats = CacheStats()
        self.used_bytes = 0
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._sketch = (
            _FrequencySketch(seed=seed) if policy == "tinylfu" else None
        )
        # Invalidation-storm detector: invalidations per request window.
        self._storm = WindowedRate(window=storm_window)
        self._storm_threshold = storm_threshold
        self._in_storm = False
        self._obs: _CacheMetrics | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Any) -> bool:
        return address in self._entries

    def get(self, address: Any) -> tuple[bool, Any]:
        """``(hit, payload)`` for *address*; a hit refreshes recency."""
        if self._sketch is not None:
            self._sketch.touch(address)
        entry = self._entries.get(address)
        if entry is not None:
            self._entries.move_to_end(address)
            self.stats.hits += 1
            bind_handles(self, _CacheMetrics).child("requests", "hit").inc()
            return True, entry[0]
        self.stats.misses += 1
        bind_handles(self, _CacheMetrics).child("requests", "miss").inc()
        return False, None

    def put(self, address: Any, payload: Any, size: int) -> bool:
        """Insert a block read from the device; returns False if the
        admission policy (or the capacity bound) refused it."""
        size = max(1, int(size))
        if size > self.capacity_bytes:
            return False
        if address in self._entries:
            # Refresh in place (payload may have been re-read post-repair).
            self.used_bytes -= self._entries[address][1]
            self._entries[address] = (payload, size)
            self._entries.move_to_end(address)
            self.used_bytes += size
            return True
        if (
            self._sketch is not None
            and self.used_bytes + size > self.capacity_bytes
            and self._entries
        ):
            victim = next(iter(self._entries))
            if self._sketch.estimate(address) < self._sketch.estimate(victim):
                self.stats.admission_rejects += 1
                bind_handles(self, _CacheMetrics).rejects.inc()
                return False
        self._entries[address] = (payload, size)
        self.used_bytes += size
        self.stats.insertions += 1
        while self.used_bytes > self.capacity_bytes:
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self.used_bytes -= evicted_size
            self.stats.evictions += 1
            bind_handles(self, _CacheMetrics).evictions.inc()
        bind_handles(self, _CacheMetrics).used_bytes.set(self.used_bytes)
        return True

    def invalidate(self, address: Any) -> bool:
        """Drop *address* (its device block was overwritten or deleted)."""
        return self.invalidate_many((address,)) == 1

    def invalidate_many(self, addresses: Iterable[Any]) -> int:
        """Drop every address in *addresses*; returns how many were cached.

        Exactly *n* single invalidations: each one records a storm-detector
        event at the current request tick.  The tick cannot move within
        one batch, so the windowed rate only rises from the first event
        to the last, and the detector makes at most one transition into
        a storm — the one the last rate decides.
        """
        entries = self._entries
        n = dropped = 0
        for address in addresses:
            n += 1
            entry = entries.pop(address, None)
            if entry is not None:
                self.used_bytes -= entry[1]
                dropped += 1
        if not n:
            return 0
        m = bind_handles(self, _CacheMetrics)
        tick = self.stats.requests
        first = self._storm.record(tick)
        last = self._storm.record(tick, n - 1)
        storm = last > self._storm_threshold
        if storm and not (self._in_storm and first > self._storm_threshold):
            m.storms.inc()
        self._in_storm = storm
        if dropped:
            self.stats.invalidations += dropped
            m.invalidations.inc(dropped)
            m.used_bytes.set(self.used_bytes)
        return dropped

    def clear(self) -> None:
        """Drop everything (a crash: the cache is volatile by definition)."""
        self._entries.clear()
        self.used_bytes = 0
        bind_handles(self, _CacheMetrics).used_bytes.set(0)


class CachedDevice(BatchOps):
    """A block-device wrapper that serves hot reads from a
    :class:`BlockCache` — hits never reach the wrapped device."""

    def __init__(self, device: Any, cache: BlockCache):
        self.inner = device
        self.cache = cache

    def read(self, address: Any) -> Any:
        hit, payload = self.cache.get(address)
        if hit:
            return payload
        payload = self.inner.read(address)
        self.cache.put(address, payload, self._size_of(address, payload))
        return payload

    def _size_of(self, address: Any, payload: Any) -> int:
        size_of = getattr(self.inner, "size_of", None)
        if size_of is not None:
            size = size_of(address)
            if size is not None:
                return size
        return _default_size(payload)

    def write_many(self, items: Sequence[tuple[Any, Any, int | None]]) -> None:
        # Invalidate, never populate: read-back verification (manifest
        # checkpoints, scrub) must observe the device's truth, including
        # writes the device lost or tore.
        self.cache.invalidate_many([address for address, _, _ in items])
        self.inner.write_many(items)

    def delete_many(self, addresses: Sequence[Any]) -> int:
        self.cache.invalidate_many(addresses)
        return self.inner.delete_many(addresses)

    def ruin(self, address: Any) -> None:
        self.cache.invalidate(address)
        self.inner.ruin(address)

    def exists(self, address: Any) -> bool:
        return self.inner.exists(address)

    def addresses(self) -> list[Any]:
        return self.inner.addresses()

    def size_of(self, address: Any) -> int | None:
        return self.inner.size_of(address)

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def stats(self):
        return self.inner.stats

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes

    def __getattr__(self, name: str):
        # Forward stack extras (injector, latency, breakers, fault_stats...).
        return getattr(self.inner, name)
