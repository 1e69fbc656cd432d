"""LSM-tree simulator with pluggable filters (§3.1).

An in-memory model of an LSM-tree over a simulated block device, built to
measure exactly what the tutorial's storage claims are stated in: device
I/Os per lookup and bytes written per byte ingested (write amplification).

Reproduced design space:

* **Compaction**: ``leveling`` (one run per level), ``tiering`` (up to T
  runs per level), ``lazy-leveling`` (Dostoevsky: tiering everywhere,
  leveling at the largest level).
* **Point filters**: ``none``, ``uniform`` (same ε on every run — how
  systems used Bloom filters before Monkey), ``monkey`` (ε_i shrinking by
  the size ratio for smaller levels, making ΣFPR converge: O(ε) instead of
  O(ε·lg N) wasted I/Os).
* **Range filters**: any :class:`~repro.core.interfaces.RangeFilter`
  factory, built per run at flush/compaction (experiment F8).
* **Maplet mode**: replace per-run filters with a single maplet mapping
  each key to its run (SlimDB / Chucky / SplinterDB, §3.1): a lookup
  probes only the runs the maplet names.
* **Compaction filter**: :meth:`LSMTree.purge_step` rewrites runs
  without the keys a predicate rejects, one run per step (how online
  resharding frees the keys a shard no longer owns).

Storage: a run is stored once, as its pages (``page_entries`` entries
each, or one page per run at 0), and every read, recovery and scrub
works in pages.

Read path: :meth:`LSMTree.lookup_many` is the one scan.  It answers
each key PRESENT, ABSENT or MAYBE, reading each page its filters (or
the maplet) cannot rule out once per batch; ``lookup`` and ``get`` are
batches of one.

Durability model (docs/robustness.md):

Every persistent artifact is a checksummed blob on the device: run
pages, write-ahead-log records and the double-buffered manifest are
durable records (:mod:`repro.common.records`), filter blobs are ``BBF2``
frames (:mod:`repro.core.serialize`).  ``put`` is acknowledged only
after its WAL record is on the device, and ``put_many`` acknowledges
each memtable-room chunk as a whole once all of its WAL records are;
:meth:`LSMTree.recover` reopens a (possibly faulty) device by loading
the newest valid manifest (falling back to a device scan), rebuilding
every run from its pages, replaying the WAL (a frame missing between
the floor and the last one found counts as lost), and loading every
run's filter blob — rebuilding any filter
whose blob fails its checksum from the run's keys, or degrading that
run to "always probe" when rebuilding is disabled.  :meth:`scrub` walks all blobs, reports
corruption, and optionally repairs it — the ``bup bloom
--check/--regenerate`` workflow as a method.

Telemetry (docs/observability.md): lookups, per-level filter probes and
realised false positives, WAL appends, flushes and compactions accrue as
counters in the default :mod:`repro.obs` registry;
:meth:`LSMTree.publish_gauges` derives per-level FP rates and tree-shape
gauges on demand, and the read path emits ``lsm.get`` → ``filter.probe``
/ ``device.read`` → ``retry.attempt`` trace spans whenever a
:class:`~repro.obs.tracing.TraceRecorder` is installed.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.clock import Answer, DeadlineExceeded, LookupResult
from repro.common.faults import CircuitOpenError, RetryPolicy, TransientIOError
from repro.common.records import JSON, PICKLE, DurableManifest, Journal, scrub_block
from repro.common.storage import BlockDevice, IOStats
from repro.obs.metrics import Family, Handles, bind_handles
from repro.obs.tracing import trace
from repro.core.serialize import dumps as filter_dumps
from repro.core.serialize import loads as filter_loads, verify as filter_verify
from repro.filters.bloom import BloomFilter
from repro.maplets.qf_maplet import QuotientFilterMaplet

_ENTRY_BYTES = 16
# From this many keys up, the read scan probes a run's filter with one
# ``may_contain_many`` call; below it, key by key.  The kernel's fixed
# cost per call loses to scalar probes under about four keys
# (docs/performance.md, "One read scan").
_BATCH_PROBE_MIN = 4


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<tombstone>"

    def __reduce__(self):
        # Pickle to the module singleton so identity survives WAL replay.
        return (_restore_tombstone, ())


TOMBSTONE = _Tombstone()


def _restore_tombstone() -> "_Tombstone":
    return TOMBSTONE


def _late(results: list[LookupResult], indexes: Iterable[int]) -> list[LookupResult]:
    """Answer the keys at *indexes* MAYBE (``"deadline"``); returns *results*."""
    for i in indexes:
        result = results[i]
        result.state, result.complete, result.reason = (Answer.MAYBE, False, "deadline")
    return results


@dataclass
class LSMConfig:
    """Tuning knobs for the simulated LSM-tree."""

    size_ratio: int = 10
    memtable_entries: int = 128
    compaction: str = "leveling"  # "leveling" | "tiering" | "lazy-leveling"
    filter_policy: str = "monkey"  # "none" | "uniform" | "monkey"
    largest_level_epsilon: float = 0.01
    range_filter_factory: Callable[[list[int]], Any] | None = None
    # GRF mode (§3.1): one tree-wide range filter instead of one per run.
    global_range_filter_factory: Callable[[list[int]], Any] | None = None
    use_maplet: bool = False
    maplet_capacity: int = 1 << 16
    seed: int = 0
    # Durability knobs (docs/robustness.md).
    wal_enabled: bool = True
    retry_attempts: int = 4
    rebuild_filters_on_recovery: bool = True
    # Cache-tier knobs (docs/performance.md).  All default off.
    page_entries: int = 0  # entries per page of a new run; 0: one page per run
    charge_filter_reads: bool = False  # probe cost includes the filter block
    filter_memo_entries: int = 0  # >0: memoize per-run negative verdicts

    def __post_init__(self):
        if self.size_ratio < 2:
            raise ValueError("size_ratio must be at least 2")
        if self.compaction not in ("leveling", "tiering", "lazy-leveling"):
            raise ValueError(f"unknown compaction policy {self.compaction!r}")
        if self.filter_policy not in ("none", "uniform", "monkey"):
            raise ValueError(f"unknown filter policy {self.filter_policy!r}")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be at least 1")
        if self.page_entries < 0 or self.filter_memo_entries < 0:
            raise ValueError("page_entries and filter_memo_entries must be >= 0")

    _PERSISTED = (
        "size_ratio", "memtable_entries", "compaction", "filter_policy",
        "largest_level_epsilon", "use_maplet", "maplet_capacity", "seed",
        "wal_enabled", "retry_attempts", "rebuild_filters_on_recovery",
        "page_entries", "charge_filter_reads", "filter_memo_entries",
    )

    def to_manifest(self) -> dict:
        """The JSON-serializable subset (factories cannot be persisted)."""
        return {name: getattr(self, name) for name in self._PERSISTED}

    @classmethod
    def from_manifest(cls, raw: dict) -> "LSMConfig":
        return cls(**{k: v for k, v in raw.items() if k in cls._PERSISTED})


def _page_count(length: int, page_entries: int) -> int:
    """Pages of a run of *length* entries; ``page_entries=0`` is one page,
    and an empty run keeps one empty page."""
    return -(-length // page_entries) if page_entries and length else 1


class _Run:
    """One immutable sorted run, stored on the device as its pages."""

    __slots__ = ("run_id", "level", "keys", "values", "filter", "range_filter",
                 "seq", "degraded", "page_entries", "n_pages")

    def __init__(self, run_id, level, keys, values, filt, range_filter, seq,
                 page_entries, degraded=False):
        self.run_id = run_id
        self.level = level
        self.keys = keys  # sorted list[int]
        self.values = values  # parallel list
        self.filter = filt
        self.range_filter = range_filter
        self.seq = seq  # recency: larger = newer data
        self.degraded = degraded  # filter unrecoverable: always probe
        # The layout the run was written with, kept across a change of
        # the tree's ``page_entries``: 0 is one page for the whole run.
        self.page_entries = page_entries
        self.n_pages = _page_count(len(keys), page_entries)

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key: int):
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None

    def page_at(self, i: int) -> int:
        """The page holding entry *i*, or the last page past the end."""
        if self.n_pages == 1:
            return 0
        return min(i, len(self.keys) - 1) // self.page_entries


@dataclass
class LSMStats:
    lookups: int = 0
    lookup_ios: int = 0
    wasted_lookup_ios: int = 0
    range_queries: int = 0
    range_ios: int = 0
    wasted_range_ios: int = 0
    filter_ios: int = 0  # filter-block reads charged (charge_filter_reads)
    bytes_ingested: int = 0
    compactions: int = 0
    degraded_lookups: int = 0  # probes of runs whose filter was lost
    integrity_faults: int = 0  # lost/torn blocks detected by the engine

    @property
    def ios_per_lookup(self) -> float:
        return self.lookup_ios / self.lookups if self.lookups else 0.0

    @property
    def wasted_ios_per_lookup(self) -> float:
        return self.wasted_lookup_ios / self.lookups if self.lookups else 0.0


class _LSMMetrics(Handles):
    """The per-level filter counters are the series ``python -m repro
    stats`` derives the per-level FP-rate table from."""

    lookups = Family("counter", "repro_lsm_lookups_total", "point lookups served by LSMTree.get")
    ios = Family("counter", "repro_lsm_lookup_ios_total",
                 "run reads during lookups, by outcome", ("outcome",))
    probes = Family("counter", "repro_lsm_filter_probes_total",
                    "per-run filter probes during lookups, by level and result",
                    ("level", "result"))
    fps = Family("counter", "repro_lsm_filter_false_positives_total",
                 "filter said maybe but the run did not hold the key, by level", ("level",))
    wal_appends = Family("counter", "repro_lsm_wal_appends_total",
                         "write-ahead-log records appended")
    flushes = Family("counter", "repro_lsm_flushes_total", "memtable flushes")
    compactions = Family("counter", "repro_lsm_compactions_total", "run merges (compactions)")
    fp_rate = Family("gauge", "repro_lsm_filter_fp_rate",
                     "realised per-level filter false-positive rate", ("level",))
    expected_sum_fpr = Family("gauge", "repro_lsm_expected_sum_fpr",
                              "sum over runs of expected filter FPR")
    write_amplification = Family("gauge", "repro_lsm_write_amplification",
                                 "device bytes written per byte ingested")
    filter_bits_per_key = Family("gauge", "repro_lsm_filter_bits_per_key",
                                 "filter memory over on-disk entries")
    levels = Family("gauge", "repro_lsm_levels", "populated level count")
    runs = Family("gauge", "repro_lsm_runs", "live run count")
    entries_on_disk = Family("gauge", "repro_lsm_entries_on_disk", "entries across all runs")


@dataclass
class RecoveryReport:
    """What :meth:`LSMTree.recover` found and did."""

    runs_recovered: int = 0
    runs_lost: int = 0
    filters_loaded: int = 0
    filters_rebuilt: int = 0
    filters_degraded: int = 0
    wal_replayed: int = 0
    wal_lost: int = 0
    manifest_fallback: bool = False
    io: IOStats = field(default_factory=IOStats)


@dataclass
class ScrubReport:
    """What :meth:`LSMTree.scrub` checked, found, and repaired."""

    blocks_checked: int = 0
    corrupt: list = field(default_factory=list)
    repaired: list = field(default_factory=list)
    unreadable: list = field(default_factory=list)


class LSMTree:
    """Filtered LSM-tree over a simulated (possibly faulty) block device."""

    def __init__(self, config: LSMConfig | None = None, device: Any = None):
        self.config = config or LSMConfig()
        self.device = device if device is not None else BlockDevice()
        self.stats = LSMStats()
        self.retry = RetryPolicy(max_attempts=self.config.retry_attempts)
        self._memtable: dict[int, Any] = {}
        self._levels: list[list[_Run]] = []
        self._next_run_id = 0
        self._next_seq = 0
        self._next_wal_seq = 0
        # WAL sequence of the memtable's first record: no run holds the
        # frames from here on, so no checkpoint may free them.
        self._wal_floor = 0
        # Both read through the tree's retries, as ``self.retry`` is at each read.
        self._wal = Journal(self.device, "wal", PICKLE, read=self._read_block, size=_ENTRY_BYTES)
        self._manifest = DurableManifest(self.device, "manifest", version_key="epoch",
                                         read=self._read_block, attempts=self.config.retry_attempts)
        self._pending_retire: list[Any] = []
        self._maplet: QuotientFilterMaplet | None = None
        if self.config.use_maplet:
            self._maplet = QuotientFilterMaplet.for_capacity(
                self.config.maplet_capacity, self.config.largest_level_epsilon,
                seed=self.config.seed,
            )
        self._global_range_filter: Any = None
        self._global_dirty = True
        self.recovery_report: RecoveryReport | None = None
        # Bumped on every write (put/delete); version token for external
        # negative-lookup caches (repro.cache.NegativeLookupCache) — an
        # ABSENT recorded under an older epoch is dead on arrival.
        self.mutation_epoch = 0
        self.filter_memo = None
        if self.config.filter_memo_entries > 0:
            from repro.cache.results import FilterResultCache

            self.filter_memo = FilterResultCache(self.config.filter_memo_entries)
        self._obs: _LSMMetrics | None = None

    # -- device helpers ---------------------------------------------------------

    def _read_block(self, address, deadline: Any = None):
        """Device read with bounded retry on transient faults; with a
        *deadline*, raises :class:`~repro.common.clock.DeadlineExceeded`
        instead of backing off into it."""
        with trace("device.read", address=address):
            return self.retry.call(self.device.read, address, deadline=deadline)

    # -- write path ------------------------------------------------------------

    def put(self, key: int, value: Any) -> None:
        self._ingest(((key, value),))

    def put_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Put every ``(key, value)`` in order, as that many :meth:`put`
        calls would, with one device call per memtable-room chunk.

        A chunk runs up to the item that fills the memtable, so the
        full memtable flushes exactly where the scalar puts would have.
        """
        items = list(items)
        capacity = self.config.memtable_entries
        start = 0
        while start < len(items):
            fresh: set = set()
            size = len(self._memtable)
            end = start
            while end < len(items):
                key = items[end][0]
                end += 1
                if key not in self._memtable and key not in fresh:
                    fresh.add(key)
                    size += 1
                if size >= capacity:
                    break
            self._ingest(items[start:end])
            start = end

    def _ingest(self, chunk: Sequence[tuple[int, Any]]) -> None:
        """Acknowledge one chunk as a whole: all its WAL records reach the
        device before any of its keys enter the memtable.  A single put
        is always one chunk."""
        n = len(chunk)
        self.mutation_epoch += n
        if self.config.wal_enabled:
            self._append_wal(chunk)
            bind_handles(self, _LSMMetrics).wal_appends.inc(n)
        memtable = self._memtable
        for key, value in chunk:
            memtable[key] = value
        self.stats.bytes_ingested += _ENTRY_BYTES * n
        if len(memtable) >= self.config.memtable_entries:
            self.flush()

    def _append_wal(self, records: Iterable[tuple[int, Any]]) -> None:
        """One WAL frame per ``(key, value)``, written with one device call."""
        items = [((seq,), (key, value))
                 for seq, (key, value) in enumerate(records, self._next_wal_seq)]
        self._wal.append(items)
        self._next_wal_seq += len(items)

    def delete(self, key: int) -> None:
        """Delete via tombstone (the LSM way: deletes are writes)."""
        self.put(key, TOMBSTONE)

    def flush(self) -> None:
        if not self._memtable:
            return
        bind_handles(self, _LSMMetrics).flushes.inc()
        keys = sorted(self._memtable)
        values = [self._memtable[k] for k in keys]
        self._memtable = {}
        self._wal_floor = self._next_wal_seq
        self._emit_run(0, keys, values)
        self._maybe_compact()
        self._checkpoint()

    def _emit_run(self, level: int, keys: list[int], values: list[Any],
                  seq: int | None = None) -> _Run:
        """Write a new run at *level*, at sequence *seq* (default: the
        next, so newer than every run)."""
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        run = _Run(
            self._next_run_id,
            level,
            keys,
            values,
            self._build_filter(level, keys),
            self._build_range_filter(keys),
            seq,
            self.config.page_entries,
        )
        self._next_run_id += 1
        while len(self._levels) <= level:
            self._levels.append([])
        self._levels[level].append(run)
        blocks = [self._page_block(run, page) for page in range(run.n_pages)]
        if run.filter is not None:
            blocks.append(self._filter_block(run))
        self.device.write_many(blocks)
        if self._maplet is not None:
            for key in keys:
                self._maplet.insert(key, run.run_id)
        self._global_dirty = True
        return run

    # -- paging (docs/performance.md) --------------------------------------------
    #
    # A run is its pages: ``("page", run_id, p)`` blocks of up to
    # ``page_entries`` entries (the sstable-data-block model), or one page
    # for the whole run when ``page_entries`` is 0.  Every read, recovery
    # and scrub goes through them; small pages let a block cache sized
    # well below a run hold its hot pages.  Each page frame carries the
    # run's level, sequence, length and page size, so the pages alone
    # rebuild the run after a manifest loss or a change of page_entries.

    @staticmethod
    def _page_block(run: _Run, page: int) -> tuple:
        """``(address, payload, size)`` of one of *run*'s pages."""
        entries = run.page_entries or len(run.keys)
        lo = page * entries
        page_keys = run.keys[lo:lo + entries]
        body = PICKLE.encode((run.level, run.seq, len(run.keys), run.page_entries,
                              page_keys, run.values[lo:lo + entries]))
        return ("page", run.run_id, page), body, len(page_keys) * _ENTRY_BYTES

    @staticmethod
    def _filter_block(run: _Run) -> tuple:
        blob = filter_dumps(run.filter)
        return ("filter", run.run_id), blob, len(blob)

    def _retire_run(self, run: _Run) -> None:
        # Deletion is deferred to the next manifest checkpoint so that a
        # crash between compaction and checkpoint cannot orphan the tree:
        # the old manifest still describes blocks that still exist.
        self._pending_retire += [("page", run.run_id, page) for page in range(run.n_pages)]
        if self.device.exists(("filter", run.run_id)):
            self._pending_retire.append(("filter", run.run_id))
        if self.filter_memo is not None:
            # Run ids are never reused, so retired entries are garbage,
            # not a staleness hazard — this is pure space reclamation.
            self.filter_memo.drop_run(run.run_id)
        if self._maplet is not None:
            for key in run.keys:
                self._maplet.delete(key, run.run_id)
        self._global_dirty = True

    # -- manifest / checkpoint ---------------------------------------------------

    def _manifest_doc(self) -> dict:
        return {
            "next_run_id": self._next_run_id,
            "next_seq": self._next_seq,
            "wal_floor": self._wal_floor,
            "config": self.config.to_manifest(),
            "runs": [
                [run.run_id, run.level, run.seq, len(run.keys), run.filter is not None]
                for level in self._levels
                for run in level
            ],
        }

    def _checkpoint(self) -> None:
        """Durably record the run set, then free superseded blocks and the
        WAL below the new floor.  Each failed try counts in
        ``integrity_faults``; an unverified checkpoint frees nothing and
        does not raise (docs/robustness.md, "Durable records")."""
        try:
            self.stats.integrity_faults += self._manifest.write(self._manifest_doc())
        except TransientIOError:
            self.stats.integrity_faults += self._manifest.attempts
            return
        except CircuitOpenError:
            return
        # A missing block means a lost write or a double free happened
        # earlier: count it, never mask it.
        self.stats.integrity_faults += (
            self.device.delete_many(self._pending_retire)
            + self._wal.trim([key for key in self._wal.keys if key[0] < self._wal_floor])
        )
        self._pending_retire = []

    def checkpoint(self) -> None:
        """Public alias: persist the manifest without flushing the memtable.
        The memtable stays covered by the WAL: the floor stops at its
        first record, and only the frames below the floor are freed."""
        self._checkpoint()

    # -- filters -----------------------------------------------------------------

    def _level_epsilon(self, level: int) -> float:
        """Per-run FPR at *level* under the configured policy."""
        base = self.config.largest_level_epsilon
        if self.config.filter_policy == "uniform":
            return base
        # Monkey: the largest level runs at `base`; each smaller level gets
        # a size-ratio factor tighter so that Σ (runs × FPR) converges.
        deepest = max(len(self._levels) - 1, level, 1)
        return max(1e-9, base * self.config.size_ratio ** (level - deepest))

    def _build_filter(self, level: int, keys: list[int]):
        if self.config.filter_policy == "none" or not keys:
            return None
        bloom = BloomFilter(
            len(keys), self._level_epsilon(level), seed=self.config.seed ^ level
        )
        bloom.insert_many(keys)
        return bloom

    def _build_range_filter(self, keys: list[int]):
        factory = self.config.range_filter_factory
        if factory is None or not keys:
            return None
        return factory(keys)

    # -- compaction --------------------------------------------------------------

    def _level_capacity_entries(self, level: int) -> int:
        return self.config.memtable_entries * self.config.size_ratio ** (level + 1)

    def _policy_at(self, level: int) -> str:
        if self.config.compaction == "lazy-leveling":
            deepest = len(self._levels) - 1
            return "leveling" if level >= deepest else "tiering"
        return self.config.compaction

    def _maybe_compact(self) -> None:
        level = 0
        while level < len(self._levels):
            runs = self._levels[level]
            if self._policy_at(level) == "tiering":
                if len(runs) >= self.config.size_ratio:
                    self._merge_into(level, level + 1)
            else:  # leveling
                if len(runs) > 1:
                    self._merge_into(level, level)
                runs = self._levels[level]
                if runs and len(runs[0]) > self._level_capacity_entries(level):
                    self._merge_into(level, level + 1)
            level += 1

    def _merge_into(self, src_level: int, dst_level: int) -> None:
        """Merge all runs at src (plus dst's runs when src != dst) into one
        new run at dst.  Newer values win."""
        sources = list(self._levels[src_level])
        self._levels[src_level] = []
        if dst_level != src_level:
            while len(self._levels) <= dst_level:
                self._levels.append([])
            if self._policy_at(dst_level) == "leveling":
                sources += self._levels[dst_level]
                self._levels[dst_level] = []
        # Oldest first, so each newer run's update overwrites older values.
        merged: dict[int, Any] = {}
        for run in sorted(sources, key=lambda r: r.seq):
            merged.update(zip(run.keys, run.values))
        for run in sources:
            self._retire_run(run)
        # Tombstones can be dropped once they reach the deepest data:
        # no deeper level and no sibling run at the destination may hold an
        # older version the tombstone still needs to shadow.
        at_bottom = not self._levels[dst_level] and all(
            not self._levels[i] for i in range(dst_level + 1, len(self._levels))
        )
        keys = sorted(merged)
        if at_bottom:
            keys = [key for key in keys if merged[key] is not TOMBSTONE]
        self._emit_run(dst_level, keys, list(map(merged.__getitem__, keys)))
        self.stats.compactions += 1
        bind_handles(self, _LSMMetrics).compactions.inc()

    def purge_step(self, reject: Callable[[Any], bool]) -> int | None:
        """One compaction-filter step towards a tree that holds no entry
        of a key *reject* names: no live value, older version or tombstone.

        A memtable holding such a key is flushed, because the WAL would
        replay a key dropped in place.  Otherwise the oldest run holding
        one is rewritten without them, at its level and sequence with a
        rebuilt filter, or just retired when nothing is left of it.
        Oldest first, so a dropped tombstone never uncovers an older
        version.  The step checkpoints as a compaction does.  Returns the
        entries it dropped, or None once none is left and the last
        checkpoint verified, so that no recovery can bring one back.
        """
        if any(map(reject, self._memtable)):
            self.flush()
            return 0
        for run in sorted((r for level in self._levels for r in level), key=lambda r: r.seq):
            keep = [i for i, key in enumerate(run.keys) if not reject(key)]
            if len(keep) == len(run.keys):
                continue
            level = self._levels[run.level]
            level.remove(run)
            self._retire_run(run)
            if keep:
                self._emit_run(run.level, [run.keys[i] for i in keep],
                               [run.values[i] for i in keep], seq=run.seq)
                level.sort(key=lambda r: r.seq)
            self._checkpoint()
            return len(run.keys) - len(keep)
        wal = self._wal.keys
        if self._pending_retire or (wal and wal[0][0] < self._wal_floor):
            self._checkpoint()  # the last one did not verify
            return 0
        return None

    # -- read path -------------------------------------------------------------------

    def _runs_newest_first(self) -> list[_Run]:
        runs = [run for level in self._levels for run in level]
        runs.sort(key=lambda r: r.seq, reverse=True)
        return runs

    def _charge_filter_read(self, run: _Run, deadline: Any) -> bool:
        """Charge the device read consulting this run's filter block costs
        (``charge_filter_reads``) — the RocksDB reality that filter and
        index blocks live in the same block cache as data.  Returns False
        when the block is unreadable: the caller must then probe the run
        directly, because an unavailable verdict is not a negative one.
        A retry that would reach *deadline* raises
        :class:`~repro.common.clock.DeadlineExceeded`.
        """
        if not self.config.charge_filter_reads:
            return True
        self.stats.filter_ios += 1
        try:
            self._read_block(("filter", run.run_id), deadline)
        except (TransientIOError, CircuitOpenError, KeyError):
            return False
        return True

    def get(self, key: int, default: Any = None, *, deadline: Any = None) -> Any:
        """Point lookup.  Traced (``lsm.get`` → ``filter.probe`` /
        ``device.read`` → ``retry.attempt``) when a trace recorder is
        installed; per-level probe and FP counters always accrue.

        With a :class:`~repro.common.clock.Deadline`, the scan abandons
        remaining runs once the budget expires and raises
        :class:`~repro.common.clock.DeadlineExceeded` — the serving layer
        (:mod:`repro.serve`) translates that into a conservative MAYBE;
        use :meth:`lookup` directly for the non-raising tri-state form.
        """
        with trace("lsm.get", key=key) as span:
            result = self.lookup(key, deadline=deadline)
            span.set_tag("found", result.found)
            if not result.complete and result.reason == "deadline":
                raise DeadlineExceeded(f"lookup of key {key!r} missed its deadline")
            return result.value if result.found else default

    def lookup(self, key: int, *, deadline: Any = None,
               degrade_on_error: bool = False) -> LookupResult:
        """Deadline-aware tri-state lookup (docs/robustness.md): a batch
        of one, plus an entry check and a late rule (a late answer is
        MAYBE, its value kept as best-effort).  ``PRESENT``/``ABSENT``
        thus come only from scans that finished completely *within* the
        deadline with no run skipped, so a filter's one-sided-error
        contract (no false negatives) survives any fault or latency storm.
        """
        if deadline is not None and deadline.expired():
            bind_handles(self, _LSMMetrics).lookups.inc()
            self.stats.lookups += 1
            return LookupResult(Answer.MAYBE, complete=False, reason="deadline")
        result = self.lookup_many(
            (key,), deadline=deadline, degrade_on_error=degrade_on_error)[0]
        if deadline is not None and deadline.expired():
            result.state, result.complete, result.reason = (
                Answer.MAYBE, False, "deadline")
        return result

    def lookup_many(self, keys: Sequence[int], *, deadline: Any = None,
                    degrade_on_error: bool = False) -> list[LookupResult]:
        """The read scan (§3.1): one tri-state :class:`LookupResult` per key.

        Memtable keys resolve first.  Then, newest run first, the keys
        still unresolved (in maplet mode, those the maplet names the run
        for) consult the run's negative memo and filter, and the
        survivors share one read of each run or page block they need.

        *deadline* is checked before each run unresolved keys still
        need, and bounds the retries of every read: on expiry, or when
        a retry's backoff would reach it, they answer MAYBE
        (``"deadline"``), and resolved keys keep their answers.  With
        ``degrade_on_error=True`` an unreadable block (retries
        exhausted, its breaker open, or no block at its address) is
        skipped by the keys that needed it, and a key that hits below a
        skipped run, or ends its scan with one, answers MAYBE
        (``"unavailable"``); otherwise the read error propagates.
        ``stats.lookup_ios`` counts each block read attempted,
        ``io_hit``/``io_wasted`` each run read, and lookups, probes and
        false positives each key, so a batch of one is a scalar scan.
        """
        m = bind_handles(self, _LSMMetrics)
        stats = self.stats
        m.lookups.inc(len(keys))
        stats.lookups += len(keys)
        memtable = self._memtable
        results: list[LookupResult] = []
        pending: list[int] = []  # indexes of the keys not yet resolved
        for i, key in enumerate(keys):
            result = LookupResult(Answer.ABSENT)
            results.append(result)
            if key not in memtable:
                pending.append(i)
            elif memtable[key] is not TOMBSTONE:
                result.state, result.value = Answer.PRESENT, memtable[key]
        if not pending:
            return results
        maplet = self._maplet
        if maplet is not None:
            named = {i: set(maplet.get(keys[i])) for i in pending}
        for run in self._runs_newest_first():
            need = pending if maplet is None else [
                i for i in pending if run.run_id in named[i]]
            if not need:
                continue
            if deadline is not None and deadline.expired():
                return _late(results, pending)
            filtered = False
            if maplet is None and run.degraded:
                # Lost filter: this run must always be read — exactly one
                # extra device read per key (EXPERIMENTS.md R1).
                stats.degraded_lookups += len(need)
            elif maplet is None and run.filter is not None:
                if self.filter_memo is not None:
                    unknown = [i for i in need
                               if not self.filter_memo.known_negative(run.run_id, keys[i])]
                    if len(unknown) < len(need):
                        # Memoized verdicts — runs are immutable, so each is
                        # exactly what the filter would answer.  Counted as
                        # negative probes so FP-rate derivations stay
                        # memo-agnostic; no filter-block I/O is charged.
                        m.child("probes", run.level, "negative").inc(len(need) - len(unknown))
                        need = unknown
                        if not need:
                            continue
                try:
                    charged = self._charge_filter_read(run, deadline)
                except DeadlineExceeded:
                    return _late(results, pending)
                if charged:
                    need = self._probe_filter(run, keys, need, m)
                    if not need:
                        continue
                    filtered = True
                else:
                    # Filter block unreadable right now: its verdict is
                    # unavailable, not negative — read the run.
                    stats.degraded_lookups += len(need)
            if run.n_pages == 1:
                blocks = [(("page", run.run_id, 0), need)]
            else:
                by_page: dict[int, list[int]] = {}
                for i in need:
                    page = run.page_at(bisect_left(run.keys, keys[i]))
                    by_page.setdefault(page, []).append(i)
                blocks = [(("page", run.run_id, page), by_page[page])
                          for page in sorted(by_page)]
            read, hits, missed, out_of_time = False, set(), 0, False
            for address, block_keys in blocks:
                stats.lookup_ios += 1
                try:
                    self._read_block(address, deadline)
                except (TransientIOError, CircuitOpenError, KeyError):
                    # A KeyError is a block the device dropped: as
                    # unreadable as one that fails now.
                    if not degrade_on_error:
                        raise
                    # These keys can no longer be ruled out at this run:
                    # each skips it and degrades its final answer.
                    for i in block_keys:
                        results[i].runs_skipped += 1
                    continue
                except DeadlineExceeded:
                    out_of_time = True
                    break
                read = True
                for i in block_keys:
                    result = results[i]
                    result.runs_probed += 1
                    found, value = run.get(keys[i])
                    if not found:
                        missed += 1
                        continue
                    hits.add(i)
                    present = value is not TOMBSTONE
                    result.value = value if present else None
                    if result.runs_skipped:
                        # A newer, unreadable run may hold a fresher version
                        # (or a tombstone): the hit is best-effort only.
                        result.state, result.complete, result.reason = (
                            Answer.MAYBE, False, "unavailable")
                    else:
                        result.state = Answer.PRESENT if present else Answer.ABSENT
            if hits:
                m.child("ios", "hit").inc()
                pending = [i for i in pending if i not in hits]
            elif read:
                stats.wasted_lookup_ios += 1
                m.child("ios", "wasted").inc()
            if filtered and missed:
                # The filter passed keys its run did not hold: realised
                # false positives at this level.
                m.child("fps", run.level).inc(missed)
            if out_of_time:
                return _late(results, pending)
            if not pending:
                break
        for i in pending:
            result = results[i]
            if result.runs_skipped:
                result.state, result.complete, result.reason = (
                    Answer.MAYBE, False, "unavailable")
        return results

    def _probe_filter(self, run: _Run, keys: Sequence[int], need: list[int],
                      m: _LSMMetrics) -> list[int]:
        """The indexes in *need* whose keys *run*'s filter may hold;
        every probe is counted and every negative memoized."""
        if len(need) < _BATCH_PROBE_MIN:
            verdicts = []
            for i in need:
                with trace("filter.probe", level=run.level, run=run.run_id) as span:
                    maybe = run.filter.may_contain(keys[i])
                    span.set_tag("maybe", maybe)
                m.child("probes", run.level, "positive" if maybe else "negative").inc()
                verdicts.append(maybe)
        else:
            verdicts = run.filter.may_contain_many([keys[i] for i in need]).tolist()
            positives = sum(verdicts)
            m.child("probes", run.level, "positive").inc(positives)
            m.child("probes", run.level, "negative").inc(len(verdicts) - positives)
        survivors = []
        for i, maybe in zip(need, verdicts):
            if maybe:
                survivors.append(i)
            elif self.filter_memo is not None:
                self.filter_memo.record_negative(run.run_id, keys[i])
        return survivors

    def _refresh_global_range_filter(self) -> None:
        factory = self.config.global_range_filter_factory
        if factory is None or not self._global_dirty:
            return
        all_keys = sorted(
            {key for level in self._levels for run in level for key in run.keys}
        )
        self._global_range_filter = factory(all_keys) if all_keys else None
        self._global_dirty = False

    def range_query(self, lo: int, hi: int) -> dict[int, Any]:
        """All live key/value pairs in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        self.stats.range_queries += 1
        out: dict[int, tuple[int, Any]] = {}
        for key, value in self._memtable.items():
            if lo <= key <= hi:
                out[key] = (float("inf"), value)
        # GRF mode: one tree-wide filter answers emptiness before any run
        # is considered (§3.1: "a recent global range filter for LSM-tree").
        if self.config.global_range_filter_factory is not None:
            self._refresh_global_range_filter()
            if self._global_range_filter is not None and not (
                self._global_range_filter.may_intersect(lo, hi)
            ):
                return {
                    k: v for k, (_, v) in sorted(out.items()) if v is not TOMBSTONE
                }
        for run in self._runs_newest_first():
            if run.range_filter is not None and not run.range_filter.may_intersect(
                lo, hi
            ):
                continue
            self.stats.range_ios += 1
            i, j = bisect_left(run.keys, lo), bisect_right(run.keys, hi)
            # Only the pages overlapping [lo, hi]; an empty overlap still
            # probes the one page a seek would have landed on.
            first = run.page_at(i)
            for page in range(first, run.page_at(j - 1) + 1 if j > i else first + 1):
                self._read_block(("page", run.run_id, page))
            if i == j:
                self.stats.wasted_range_ios += 1
            for k in range(i, j):
                key = run.keys[k]
                if key not in out or run.seq > out[key][0]:
                    out[key] = (run.seq, run.values[k])
        return {
            k: v for k, (_, v) in sorted(out.items()) if v is not TOMBSTONE
        }

    # -- recovery ---------------------------------------------------------------------

    @classmethod
    def recover(cls, device: Any, config: LSMConfig | None = None) -> "LSMTree":
        """Reopen an :class:`LSMTree` from a (possibly faulty) device.

        Loads the newest valid manifest (falling back to scanning the
        device for pages when both slots are corrupt or missing),
        rebuilds every run from its pages, in the layout they were
        written with, loads or rebuilds its filter blob, and replays the
        write-ahead log into the memtable.  A run with a page it cannot
        read is lost.  The outcome is summarized on the returned tree's
        ``recovery_report``.
        """
        report = RecoveryReport()
        before = device.stats.snapshot()
        manifest = DurableManifest(device, "manifest", version_key="epoch").load()
        if config is None:
            raw = (manifest or {}).get("config")
            config = LSMConfig.from_manifest(raw) if raw else LSMConfig()
        tree = cls(config, device=device)
        tree.recovery_report = report
        if manifest is not None:
            tree._manifest.version = manifest["epoch"]
            tree._next_run_id = manifest["next_run_id"]
            tree._next_seq = manifest["next_seq"]
            run_ids = [run[0] for run in manifest["runs"]]
            wal_floor = manifest["wal_floor"]
        else:
            # No floor survives: replay from the oldest frame on the device.
            report.manifest_fallback = True
            run_ids = tree._scan_run_ids()
            wal_floor = tree._wal.keys[0][0] if tree._wal.keys else 0
        tree._load_runs(run_ids, report)
        tree._replay_wal(wal_floor, report)
        report.io = device.stats - before
        return tree

    def _scan_run_ids(self) -> list:
        """Manifest lost: the id of every run with a page on the device."""
        return list(dict.fromkeys(
            address[1] for address in self.device.addresses()
            if isinstance(address, tuple) and address and address[0] == "page"))

    def _read_run(self, run_id: int) -> _Run:
        """Rebuild a run from its pages; raises when one cannot be read or
        belongs to another run."""
        level, seq, length, page_entries, keys, values = PICKLE.decode(
            self._read_block(("page", run_id, 0)))
        for page in range(1, _page_count(length, page_entries)):
            *header, page_keys, page_values = PICKLE.decode(
                self._read_block(("page", run_id, page)))
            if header != [level, seq, length, page_entries]:
                raise ValueError(f"page {page} of run {run_id} belongs to another run")
            keys += page_keys
            values += page_values
        if len(keys) != length:
            raise ValueError(f"run {run_id} holds {len(keys)} of its {length} entries")
        return _Run(run_id, level, keys, values, None, self._build_range_filter(keys),
                    seq, page_entries)

    def _load_runs(self, run_ids, report: RecoveryReport) -> None:
        loaded: list[_Run] = []
        for run_id in run_ids:
            try:
                loaded.append(self._read_run(run_id))
            except (TransientIOError, CircuitOpenError, KeyError, ValueError,
                    pickle.PickleError):
                report.runs_lost += 1
                self.stats.integrity_faults += 1
        report.runs_recovered += len(loaded)
        for run in loaded:
            while len(self._levels) <= run.level:
                self._levels.append([])
            self._levels[run.level].append(run)
            self._next_run_id = max(self._next_run_id, run.run_id + 1)
            self._next_seq = max(self._next_seq, run.seq + 1)
        for level in self._levels:
            level.sort(key=lambda r: r.seq)
        # Filters second, once the level structure exists (Monkey's ε
        # depends on tree depth).
        for run in loaded:
            self._restore_filter(run, report)
            if self._maplet is not None:
                for key in run.keys:
                    self._maplet.insert(key, run.run_id)
        self._global_dirty = True

    def _restore_filter(self, run: _Run, report: RecoveryReport) -> None:
        if self.config.filter_policy == "none" or not run.keys:
            return
        address = ("filter", run.run_id)
        blob = None
        if self.device.exists(address):
            try:
                blob = self._read_block(address)
            except (TransientIOError, CircuitOpenError):
                blob = None
        if blob is not None:
            try:
                run.filter = filter_loads(blob)
                report.filters_loaded += 1
                return
            except ValueError:  # ChecksumError included: corrupt blob
                self.stats.integrity_faults += 1
        if self.config.rebuild_filters_on_recovery:
            run.filter = self._build_filter(run.level, run.keys)
            self.device.write(*self._filter_block(run))
            report.filters_rebuilt += 1
        else:
            run.degraded = True
            report.filters_degraded += 1

    def _replay_wal(self, wal_floor: int, report: RecoveryReport) -> None:
        # New appends start past every frame and at the floor or above:
        # the *next* recovery would discard a ("wal", seq) block below it.
        keys = self._wal.keys
        self._next_wal_seq = max(wal_floor, keys[-1][0] + 1 if keys else 0)
        self._wal_floor = wal_floor
        live = [key for key in keys if key[0] >= wal_floor]
        scan = self._wal.scan(live)
        for _seq, (key, value) in scan:
            self._memtable[key] = value
            report.wal_replayed += 1
        # Sequences run on without a gap from the floor, so each one
        # missing below the last frame found is a write the device
        # dropped.  A dropped last frame leaves no trace.
        missing = live[-1][0] + 1 - wal_floor - len(live) if live else 0
        lost = len(scan.torn) + len(scan.unreadable) + missing
        report.wal_lost += lost
        self.stats.integrity_faults += lost

    # -- scrubbing ---------------------------------------------------------------------

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Walk every persistent blob, verify its checksum, and (optionally)
        repair what fails — the ``bup bloom --check`` / ``--regenerate``
        workflow.  Pages and filters are repaired from the in-memory
        image; the manifest is repaired by re-checkpointing."""
        report = ScrubReport()
        for run in self._runs_newest_first():
            for page in range(run.n_pages):
                self._scrub_block(
                    report, ("page", run.run_id, page),
                    check=PICKLE.decode,
                    repair_fn=(
                        (lambda run=run, page=page: self.device.write(
                            *self._page_block(run, page)
                        )) if repair else None
                    ),
                )
            if run.filter is not None or self.device.exists(("filter", run.run_id)):
                self._scrub_block(
                    report, ("filter", run.run_id),
                    check=filter_verify,
                    repair_fn=(
                        (lambda run=run: self._repair_filter(run)) if repair else None
                    ),
                )
        for slot in (0, 1):
            address = ("manifest", slot)
            if self.device.exists(address):
                self._scrub_block(
                    report, address, check=JSON.decode,
                    repair_fn=(self._checkpoint if repair else None),
                )
        found = len(report.corrupt) + len(report.unreadable)
        for seq, in list(self._wal.keys):  # repaired as a tail, not one by one
            self._scrub_block(report, ("wal", seq), check=PICKLE.decode, repair_fn=None)
        if repair and len(report.corrupt) + len(report.unreadable) > found:
            # A corrupt WAL record's original content is unknowable, but
            # the memtable still holds every acknowledged (key, value):
            # replace the un-checkpointed tail with a fresh image of it,
            # and persist the image's floor, so recovery neither replays
            # the old tail nor counts it as a gap.  The checkpoint frees
            # the old tail; until one verifies, recovery replays both.
            self._wal_floor = self._next_wal_seq
            self._append_wal(self._memtable.items())
            self._checkpoint()
            report.repaired.append(("wal", "*"))
        return report

    def _scrub_block(self, report: ScrubReport, address, check, repair_fn) -> None:
        self.stats.integrity_faults += scrub_block(
            report, self._read_block, address, check, repair_fn)

    def _repair_filter(self, run: _Run) -> None:
        if run.filter is None:
            run.filter = self._build_filter(run.level, run.keys)
        if run.filter is None:
            return
        run.degraded = False
        self.device.write(*self._filter_block(run))

    # -- full scans -----------------------------------------------------------------------

    def items(self) -> list[tuple[int, Any]]:
        """Every live ``(key, value)`` pair, sorted by key.

        Merges runs oldest-first and the memtable last (newest wins),
        dropping tombstoned keys — the enumeration online resharding
        uses to backfill a new shard.  Each page is charged one device
        read (retry-wrapped, so a transiently faulty device can raise
        :class:`~repro.common.faults.TransientIOError` after retries and
        the caller defers the scan).
        """
        merged: dict[int, Any] = {}
        runs = sorted(
            (run for level in self._levels for run in level),
            key=lambda run: run.seq,
        )
        for run in runs:
            for page in range(run.n_pages):
                self._read_block(("page", run.run_id, page))
            merged.update(zip(run.keys, run.values))
        merged.update(self._memtable)
        return sorted(
            (k, v) for k, v in merged.items() if v is not TOMBSTONE
        )

    # -- accounting ----------------------------------------------------------------------

    @property
    def wal_position(self) -> int:
        """Next WAL sequence number: a *durable*, monotone write cursor.

        Unlike ``mutation_epoch`` (session-local, resets on recovery),
        this survives crashes — recovery restores it from the manifest's
        WAL floor plus replayed records — so layers that must never see
        an epoch repeat across a crash (negative-lookup caches over a
        recovered store) key on it instead.
        """
        return self._next_wal_seq

    @property
    def n_entries_on_disk(self) -> int:
        return sum(len(run) for level in self._levels for run in level)

    @property
    def n_runs(self) -> int:
        return sum(len(level) for level in self._levels)

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def write_amplification(self) -> float:
        ingested = self.stats.bytes_ingested
        return self.device.stats.bytes_written / ingested if ingested else 0.0

    @property
    def filter_bits(self) -> int:
        if self._maplet is not None:
            return self._maplet.size_in_bits
        return sum(
            run.filter.size_in_bits
            for level in self._levels
            for run in level
            if run.filter is not None
        )

    @property
    def filter_bits_per_key(self) -> float:
        n = self.n_entries_on_disk
        return self.filter_bits / n if n else 0.0

    def sum_of_fprs(self) -> float:
        """Σ over runs of that run's expected FPR — the quantity Monkey
        makes converge (O(ε)) and uniform allocation lets grow (O(ε·L))."""
        total = 0.0
        for level in self._levels:
            for run in level:
                if run.filter is not None:
                    total += run.filter.epsilon
        return total

    def publish_gauges(self) -> None:
        """Derive point-in-time gauges from the tree and its counters.

        Counters accrue continuously; gauges (per-level realised FP rate,
        write amplification, filter bits/key, tree shape) are computed on
        demand — call this before exporting, as ``python -m repro stats``
        does.  The realised FP rate at a level is ``fp / (negatives +
        fp)``: probes for keys truly absent from the probed run are its
        filter negatives (never false) plus its confirmed false positives.
        """
        m = bind_handles(self, _LSMMetrics)
        for level in range(len(self._levels)):
            negatives = m.child("probes", level, "negative").value
            fps = m.child("fps", level).value
            absent = negatives + fps
            m.child("fp_rate", level).set(fps / absent if absent else 0.0)
        m.expected_sum_fpr.set(self.sum_of_fprs())
        m.write_amplification.set(self.write_amplification)
        m.filter_bits_per_key.set(self.filter_bits_per_key)
        m.levels.set(self.n_levels)
        m.runs.set(self.n_runs)
        m.entries_on_disk.set(self.n_entries_on_disk)
