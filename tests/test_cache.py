"""Cache tier tests: the cached stack must be answer-equivalent to the
uncached stack, and a stale ABSENT must be structurally impossible.

Three layers of evidence:

* unit tests for the mechanisms — :class:`BlockCache` LRU order and
  capacity bounds, TinyLFU scan resistance, :class:`CachedDevice`
  write-invalidate (never write-allocate), :class:`FilterResultCache`
  run-scoped memoization, :class:`NegativeLookupCache` epoch flushing,
  and the :class:`WindowedRate` storm detector behind the invalidation
  telemetry;
* a hypothesis state machine driving a cached LSM-tree and an uncached
  twin through identical put/delete/flush/lookup/multi-get/range/crash-
  recover sequences against an exact dict model — with faults off the
  two stacks must agree *exactly*, hit or miss (the cache survives the
  crash warm, which is the harshest staleness posture);
* storm tests through the full serving stack — under fault storms only
  the one-sided invariants are asserted (no false negative, no stale
  ABSENT, degraded MAYBE never cached), because injected fault draws
  diverge once a cache absorbs reads.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.apps.lsm import LSMConfig, LSMTree
from repro.cache import (
    BlockCache,
    CachedDevice,
    FilterResultCache,
    NegativeLookupCache,
)
from repro.common.clock import Answer
from repro.common.faults import FaultInjector, FaultyBlockDevice
from repro.common.storage import BlockDevice
from repro.obs.metrics import WindowedRate
from repro.serve.served import ServeOutcome
from repro.serve.sim import build_stack, run_storm


class TestBlockCacheLRU:
    def test_hit_refreshes_recency(self):
        cache = BlockCache(3)
        for addr in "abc":
            cache.put(addr, addr.upper(), 1)
        cache.get("a")  # refresh: b is now the LRU victim
        cache.put("d", "D", 1)
        assert "a" in cache and "b" not in cache and len(cache) == 3

    def test_capacity_is_bytes_not_entries(self):
        cache = BlockCache(10)
        cache.put("big", b"x", 8)
        cache.put("small", b"y", 2)
        assert cache.used_bytes == 10
        cache.put("next", b"z", 5)  # must evict until it fits
        assert cache.used_bytes <= 10 and "big" not in cache

    def test_oversized_block_never_admitted(self):
        cache = BlockCache(4)
        assert not cache.put("huge", b"x", 5)
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_stats_and_invalidate(self):
        cache = BlockCache(8)
        cache.put("a", 1, 1)
        hit, payload = cache.get("a")
        assert hit and payload == 1
        hit, _ = cache.get("nope")
        assert not hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.invalidate("a") and not cache.invalidate("a")
        assert cache.stats.invalidations == 1 and cache.used_bytes == 0

    def test_clear_is_a_crash(self):
        cache = BlockCache(8)
        cache.put("a", 1, 1)
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0


class TestTinyLFUAdmission:
    def test_cold_scan_cannot_evict_hot_block(self):
        cache = BlockCache(2, policy="tinylfu", seed=9)
        for _ in range(6):
            cache.get("hot")  # build frequency (misses still touch the sketch)
        for _ in range(4):
            cache.get("warm")
        cache.put("hot", "H", 1)
        cache.put("warm", "W", 1)
        cache.get("cold")  # one touch: colder than the LRU victim
        assert not cache.put("cold", "C", 1)
        assert cache.stats.admission_rejects == 1
        assert "hot" in cache and "warm" in cache and "cold" not in cache

    def test_hotter_candidate_is_admitted(self):
        cache = BlockCache(2, policy="tinylfu", seed=9)
        for _ in range(3):
            cache.get("resident")
        cache.put("resident", "R", 1)
        cache.put("other", "O", 1)
        for _ in range(8):
            cache.get("riser")
        assert cache.put("riser", "!", 1)
        assert "riser" in cache and len(cache) == 2

    def test_admission_only_guards_eviction(self):
        cache = BlockCache(4, policy="tinylfu", seed=9)
        assert cache.put("anything", 1, 1)  # room left: no one to protect


class TestWindowedRate:
    def test_rate_counts_events_inside_window(self):
        w = WindowedRate(window=10)
        for t in range(5):
            w.record(t)
        assert w.rate(4) == 0.5
        assert w.rate(20) == 0.0  # everything aged out

    def test_record_returns_running_rate(self):
        w = WindowedRate(window=4)
        assert w.record(0) == 0.25
        assert w.record(1) == 0.5


class TestCachedDevice:
    def test_hit_skips_the_device_entirely(self):
        device = BlockDevice()
        cached = CachedDevice(device, BlockCache(1 << 20))
        cached.write("a", b"v1")
        assert cached.read("a") == b"v1"  # miss: populates
        reads_before = device.stats.reads
        assert cached.read("a") == b"v1"  # hit
        assert device.stats.reads == reads_before

    def test_write_invalidates_and_never_populates(self):
        device = BlockDevice()
        cache = BlockCache(1 << 20)
        cached = CachedDevice(device, cache)
        cached.write("a", b"v1")
        cached.read("a")
        cached.write("a", b"v2")
        assert "a" not in cache  # write-invalidate, not write-allocate
        assert cached.read("a") == b"v2"

    def test_lost_write_is_not_masked_by_the_cache(self):
        # The reason write-allocate is forbidden: a read-back after a
        # lost write must see the device's truth, not the cached intent.
        injector = FaultInjector(seed=5)
        device = FaultyBlockDevice(injector=injector)
        cached = CachedDevice(device, BlockCache(1 << 20))
        cached.write("a", b"v1")
        cached.read("a")
        injector.lost_write = 1.0
        cached.write("a", b"v2")  # acked, never lands
        injector.lost_write = 0.0
        assert cached.read("a") == b"v1", "read-back must expose the lost write"

    def test_ruin_invalidates_so_scrub_sees_corruption(self):
        injector = FaultInjector(seed=5)
        device = FaultyBlockDevice(injector=injector)
        cached = CachedDevice(device, BlockCache(1 << 20))
        cached.write("a", b"payload")
        cached.read("a")
        cached.ruin("a")
        assert cached.read("a") != b"payload"

    def test_delete_and_passthroughs(self):
        device = BlockDevice()
        cache = BlockCache(1 << 20)
        cached = CachedDevice(device, cache)
        cached.write("a", b"v", 7)
        cached.read("a")
        assert cached.exists("a") and cached.size_of("a") == 7
        assert cached.addresses() == ["a"]
        cached.delete("a")
        assert "a" not in cache and not cached.exists("a")
        assert len(cached) == 0


class TestFilterResultCache:
    def test_record_then_known(self):
        memo = FilterResultCache(max_entries=16)
        assert not memo.known_negative(1, "k")
        memo.record_negative(1, "k")
        assert memo.known_negative(1, "k")
        assert not memo.known_negative(2, "k")  # verdicts are per-run

    def test_drop_run_frees_only_that_run(self):
        memo = FilterResultCache(max_entries=16)
        for key in range(4):
            memo.record_negative(1, key)
            memo.record_negative(2, key)
        assert memo.drop_run(1) == 4
        assert len(memo) == 4
        assert not memo.known_negative(1, 0) and memo.known_negative(2, 0)

    def test_bounded_by_entry_count(self):
        memo = FilterResultCache(max_entries=4)
        for key in range(10):
            memo.record_negative(7, key)
        assert len(memo) == 4
        assert memo.known_negative(7, 9) and not memo.known_negative(7, 0)


class TestNegativeLookupCache:
    def test_epoch_bump_flushes_everything(self):
        neg = NegativeLookupCache(max_entries=16)
        neg.record_absent("k", epoch=0)
        assert neg.known_absent("k", epoch=0)
        assert not neg.known_absent("k", epoch=1)  # stale ABSENT impossible
        assert neg.epoch_flushes == 1 and len(neg) == 0

    def test_bounded(self):
        neg = NegativeLookupCache(max_entries=3)
        for key in range(6):
            neg.record_absent(key, epoch=0)
        assert len(neg) == 3


# --- cached stack ≡ uncached stack, against an exact model ------------------


def _lsm_config(seed: int = 3) -> LSMConfig:
    # Every cache-adjacent knob on: paged runs, charged filter reads,
    # per-run filter memo — the configuration with the most to go wrong.
    return LSMConfig(
        memtable_entries=8,
        page_entries=4,
        charge_filter_reads=True,
        filter_memo_entries=128,
        seed=seed,
    )


KEYS = st.integers(min_value=0, max_value=300)
VALUES = st.integers(min_value=0, max_value=1000)


class CachedEquivalenceMachine(RuleBasedStateMachine):
    """A cached LSM-tree, its uncached twin, and a dict, in lockstep."""

    def __init__(self):
        super().__init__()
        self.plain = LSMTree(_lsm_config())
        self.cache = BlockCache(16 * 1024, policy="lru", seed=5)
        self.cached_device = CachedDevice(BlockDevice(), self.cache)
        self.cached = LSMTree(_lsm_config(), device=self.cached_device)
        self.model: dict[int, int] = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.plain.put(key, value)
        self.cached.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.plain.delete(key)
        self.cached.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.plain.flush()
        self.cached.flush()

    @rule()
    def crash_and_recover(self):
        # Reopen both trees from their devices.  The block cache is
        # deliberately kept warm across the restart: every cached block
        # belongs to an immutable address, so a warm restart must be as
        # correct as a cold one.
        self.plain = LSMTree.recover(self.plain.device)
        self.cached = LSMTree.recover(self.cached_device)

    @rule(key=KEYS)
    def get_agrees(self, key):
        expected = self.model.get(key)
        assert self.plain.get(key) == expected
        assert self.cached.get(key) == expected

    @rule(keys=st.lists(KEYS, min_size=1, max_size=12))
    def lookup_many_agrees(self, keys):
        expected = [self.model.get(k) for k in keys]
        for tree in (self.plain, self.cached):
            results = tree.lookup_many(keys)
            assert [r.value for r in results] == expected
            assert [r.found for r in results] == [k in self.model for k in keys]

    @rule(lo=KEYS, width=st.integers(min_value=0, max_value=40))
    def range_agrees(self, lo, width):
        hi = lo + width
        expected = dict(sorted(
            (k, v) for k, v in self.model.items() if lo <= k <= hi
        ))
        assert self.plain.range_query(lo, hi) == expected
        assert self.cached.range_query(lo, hi) == expected

    @invariant()
    def cache_respects_capacity(self):
        assert self.cache.used_bytes <= self.cache.capacity_bytes
        assert self.cache.used_bytes >= 0


TestCachedEquivalenceMachine = CachedEquivalenceMachine.TestCase
TestCachedEquivalenceMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


# --- the serving stack under storms -----------------------------------------


def test_storm_with_cache_keeps_one_sided_contract():
    """Fault storm through the fully cached stack: zero false negatives,
    and the block cache actually absorbed traffic."""
    served, tree, _device, _injector, _latency, _clock = build_stack(
        seed=13, n_keys=400,
        cache_mb=0.25, cache_policy="tinylfu", negative_cache_entries=1024,
    )
    report = run_storm(served, seed=13, n_keys=400)
    assert report.false_negatives == 0
    assert tree.device.cache.stats.hits > 0
    assert report.goodput() > 0.5


def test_negative_cache_never_serves_stale_absent():
    served, tree, *_ = build_stack(seed=9, n_keys=100, negative_cache_entries=512)
    absent_key = 5000
    first = served.serve(absent_key)
    assert first.outcome is ServeOutcome.SERVED
    assert first.answer is Answer.ABSENT
    assert len(served.negative_cache) == 1
    second = served.serve(absent_key)
    assert second.answer is Answer.ABSENT
    assert served.negative_cache.hits == 1
    tree.put(absent_key, "late arrival")  # bumps the mutation epoch
    third = served.serve(absent_key)
    assert third.answer is Answer.PRESENT, "stale cached ABSENT served"
    assert served.negative_cache.epoch_flushes >= 1


def test_degraded_maybe_never_populates_negative_cache():
    served, _tree, _device, injector, _latency, _clock = build_stack(
        seed=21, n_keys=100, negative_cache_entries=256,
        # Filter probes must charge a device read, so that when the device
        # is fully broken the absent key cannot be ruled out for free.
        lsm_config=LSMConfig(
            memtable_entries=64, retry_attempts=3, seed=21,
            charge_filter_reads=True,
        ),
    )
    injector.transient_read = {"page": 1.0, "filter": 1.0, "*": 0.0}
    response = served.serve(4242)  # absent key, but nothing is readable
    assert response.outcome is not ServeOutcome.SERVED
    assert response.answer is Answer.MAYBE
    assert len(served.negative_cache) == 0, "a MAYBE must never be cached"


def test_cached_lookups_stay_one_sided_during_faults():
    """Direct (unserved) cached tree under a fault storm: ABSENT answers
    must stay truthful even while reads fail around the cache."""
    injector = FaultInjector(seed=31)
    device = FaultyBlockDevice(injector=injector)
    cached = CachedDevice(device, BlockCache(8 * 1024, seed=31))
    tree = LSMTree(_lsm_config(seed=31), device=cached)
    present = {k: f"v{k}" for k in range(0, 200, 2)}
    for key, value in present.items():
        tree.put(key, value)
    injector.transient_read = {"page": 0.4, "filter": 0.4, "*": 0.0}
    for key in range(200):
        result = tree.lookup(key, degrade_on_error=True)
        if key in present:
            assert result.state is not Answer.ABSENT, f"false negative for {key}"
        if result.state is Answer.ABSENT:
            assert key not in present, f"stale/false ABSENT for {key}"
    injector.transient_read = 0.0
