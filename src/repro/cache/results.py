"""Result caches: memoized negative verdicts that can never go stale.

Two caches with one shared design rule — *the version token is chosen so
that a stale ABSENT is structurally impossible*, not merely unlikely:

* :class:`FilterResultCache` memoizes per-run **negative filter
  verdicts** keyed by ``(run_id, key)``.  LSM runs are immutable and run
  ids are never reused (:class:`~repro.apps.lsm.LSMTree` allocates them
  from a monotone counter that persists across recovery), so a memoized
  "run R's filter said no for key K" is true forever; retiring a run
  merely garbage-collects its entries.  Invalidation is versioned by run
  id, not by key — flush and compaction create *new* run ids rather than
  mutating old ones, so there is nothing to race with.
* :class:`NegativeLookupCache` memoizes **authoritative ABSENT answers**
  (complete, in-budget, zero-skip lookups) versioned by the backend's
  ``mutation_epoch``.  Any mutation (put/delete/flush/compaction/
  recovery) bumps the epoch, and an entry recorded under an older epoch
  is dead on arrival.  Degraded or timed-out MAYBE answers never
  populate it — MAYBE is not an answer, and caching it would freeze a
  transient fault into a persistent wrong verdict (docs/robustness.md).

Both are bounded (entry-count LRU) and metered through :mod:`repro.obs`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.obs.metrics import Family, Handles, bind_handles


class _ResultMetrics(Handles):
    memo = Family("counter", "repro_cache_filter_memo_total",
                  "per-run negative-verdict memo lookups, by result", ("result",))
    negative = Family("counter", "repro_cache_negative_lookups_total",
                      "negative-lookup cache consults, by result", ("result",))
    negative_flushes = Family("counter", "repro_cache_negative_epoch_flushes_total",
                              "negative-lookup cache wipes triggered by a mutation-epoch bump")


class FilterResultCache:
    """Bounded memo of per-run negative filter verdicts.

    ``known_negative(run_id, key)`` is True only if this run's filter was
    previously observed to answer "definitely not present" for *key*.
    Because runs are immutable and run ids monotone, a recorded verdict
    never needs key-level invalidation; :meth:`drop_run` frees the
    entries of a retired run.
    """

    def __init__(self, max_entries: int = 65536):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[int, Hashable], None] = OrderedDict()
        # Per-run secondary index so drop_run is O(|run's entries|).
        self._by_run: dict[int, set[Hashable]] = {}
        self._obs: _ResultMetrics | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def known_negative(self, run_id: int, key: Hashable) -> bool:
        entry_key = (run_id, key)
        m = bind_handles(self, _ResultMetrics)
        if entry_key in self._entries:
            self._entries.move_to_end(entry_key)
            self.hits += 1
            m.child("memo", "hit").inc()
            return True
        self.misses += 1
        m.child("memo", "miss").inc()
        return False

    def record_negative(self, run_id: int, key: Hashable) -> None:
        entry_key = (run_id, key)
        if entry_key in self._entries:
            self._entries.move_to_end(entry_key)
            return
        self._entries[entry_key] = None
        self._by_run.setdefault(run_id, set()).add(key)
        while len(self._entries) > self.max_entries:
            (old_run, old_key), _ = self._entries.popitem(last=False)
            keys = self._by_run.get(old_run)
            if keys is not None:
                keys.discard(old_key)
                if not keys:
                    del self._by_run[old_run]

    def drop_run(self, run_id: int) -> int:
        """Free every entry of a retired run; returns how many."""
        keys = self._by_run.pop(run_id, None)
        if not keys:
            return 0
        for key in keys:
            self._entries.pop((run_id, key), None)
        return len(keys)

    def clear(self) -> None:
        self._entries.clear()
        self._by_run.clear()


class NegativeLookupCache:
    """Bounded memo of authoritative ABSENT answers, epoch-versioned.

    ``known_absent(key, epoch)`` is True only when *key* was recorded
    absent under the *current* mutation epoch; the first consult after
    an epoch bump wipes the cache wholesale.  Callers must only
    :meth:`record_absent` answers that are complete and authoritative —
    never a degraded or deadline-expired MAYBE.
    """

    def __init__(self, max_entries: int = 16384):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.epoch_flushes = 0
        self._epoch: Any = None
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self._obs: _ResultMetrics | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def _sync_epoch(self, epoch: Any) -> None:
        if epoch != self._epoch:
            if self._entries:
                self._entries.clear()
                self.epoch_flushes += 1
                bind_handles(self, _ResultMetrics).negative_flushes.inc()
            self._epoch = epoch

    def known_absent(self, key: Hashable, epoch: Any) -> bool:
        self._sync_epoch(epoch)
        m = bind_handles(self, _ResultMetrics)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            m.child("negative", "hit").inc()
            return True
        self.misses += 1
        m.child("negative", "miss").inc()
        return False

    def record_absent(self, key: Hashable, epoch: Any) -> None:
        self._sync_epoch(epoch)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = None
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self._epoch = None
