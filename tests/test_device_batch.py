"""The device-stack batch contract: ``write_many``/``delete_many`` are
exactly the scalar ops they replace.

Every device layer (:class:`~repro.common.storage.BlockDevice`,
:class:`~repro.common.storage.NamespacedDevice`,
:class:`~repro.common.faults.FaultyBlockDevice`,
:class:`~repro.serve.breaker.BreakerDevice`,
:class:`~repro.cache.CachedDevice`) takes writes and frees in batches.
For any op list and any split of it into batches, batch-of-one
included, a stack must end in the same state as one op at a time:
the same blocks in the same insertion order, I/O stats, clock, fault
log, corrupted set, fault and latency RNG states, cache and
storm-detector state, breaker state and metrics registry.  The unit
tests below pin the implementation points the property depends on.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import BlockCache, CachedDevice
from repro.cache.block import _CacheMetrics
from repro.common.clock import SimulatedClock
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    FaultyBlockDevice,
    LatencyInjector,
    TransientIOError,
)
from repro.common.storage import BlockDevice, NamespacedDevice
from repro.obs import use_registry
from repro.obs.metrics import bind_handles
from repro.serve.breaker import BreakerDevice

_ADDRESSES = st.sampled_from([
    ("run", 0), ("run", 1), ("page", 0, 0), ("page", 0, 1),
    ("filter", 0), ("wal", 0), ("wal", 1), "meta",
])
_PAYLOADS = st.one_of(
    st.binary(max_size=12), st.integers(0, 9), st.tuples(st.integers(0, 9))
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _ADDRESSES, _PAYLOADS, st.none() | st.integers(0, 64)),
        st.tuples(st.just("delete"), _ADDRESSES),
        st.tuples(st.just("read"), _ADDRESSES),
    ),
    max_size=40,
)


def _batches(ops, cuts):
    """Split *ops* into batches: consecutive writes (or deletes) share a
    batch unless *cuts* starts a new one there; a read stands alone."""
    batches: list = []
    for op, cut in zip(ops, cuts):
        if batches and not cut and op[0] != "read" and batches[-1][0][0] == op[0]:
            batches[-1].append(op)
        else:
            batches.append([op])
    return batches


class _Stack:
    """Fault and latency injectors under a faulty device and breakers,
    topped by a warm block cache or by a namespace view."""

    def __init__(self, top: str, seed: int):
        self.clock = SimulatedClock()
        self.injector = FaultInjector(
            seed=seed, bit_flip={"run@ns": 0.3, "*": 0.1}, torn_write=0.1,
            lost_write=0.1, transient_read=0.2,
        )
        self.latency = LatencyInjector(
            seed=seed, spike_prob=0.3, plateaus=((0.002, 0.02, 4.0),)
        )
        self.faulty = FaultyBlockDevice(
            injector=self.injector, latency=self.latency, clock=self.clock
        )
        self.breakers = BreakerDevice(self.faulty, self.clock, min_samples=2, cooldown=0.01)
        self.cache = None
        if top == "cache":
            self.cache = BlockCache(512, seed=seed, storm_window=8, storm_threshold=0.25)
            self.device = CachedDevice(self.breakers, self.cache)
        else:
            self.device = NamespacedDevice(self.breakers, "ns")
        self.results: list = []

    def warm(self) -> None:
        """Fill the cache (and the device) one scalar op at a time."""
        for i in range(2):
            for address in (("run", i), ("page", 0, i), ("wal", i)):
                self.device.write(address, bytes([i, 7, 7]), None)
                self.read(address)

    def read(self, address) -> None:
        try:
            self.results.append(self.device.read(address))
        except (TransientIOError, CircuitOpenError, KeyError) as e:
            self.results.append(type(e).__name__)

    def run(self, batches, *, batched: bool) -> None:
        for batch in batches:
            kind = batch[0][0]
            if kind == "read":
                self.read(batch[0][1])
            elif kind == "write":
                items = [op[1:] for op in batch]
                if batched:
                    self.device.write_many(items)
                else:
                    for address, payload, size in items:
                        self.device.write(address, payload, size)
            elif batched:
                self.results.append(self.device.delete_many([op[1] for op in batch]))
            else:
                missing = 0
                for _kind, address in batch:
                    try:
                        self.device.delete(address, missing_ok=False)
                    except KeyError:
                        missing += 1
                self.results.append(missing)

    def state(self, registry) -> dict:
        cache = self.cache
        return {
            "blocks": [(a, b.payload, b.size) for a, b in self.faulty.inner._blocks.items()],
            "io": self.faulty.stats.as_dict(),
            "clock": self.clock.now(),
            "fault_log": list(self.faulty.fault_log),
            "fault_stats": dataclasses.asdict(self.injector.stats),
            "latency_stats": dataclasses.asdict(self.latency.stats),
            "corrupt": self.faulty.corrupted_addresses(),
            "rngs": (self.injector._rng.getstate(), self.latency._rng.getstate()),
            "breakers": {
                key: (b.state, list(b._outcomes), b.transitions)
                for key, b in self.breakers.breakers.items()
            },
            "cache": None if cache is None else (
                list(cache._entries.items()), dataclasses.asdict(cache.stats),
                cache.used_bytes, cache._in_storm, list(cache._storm._events),
            ),
            "results": self.results,
            "registry": registry.snapshot(),
        }


def _final_state(top, seed, batches, *, batched):
    with use_registry() as registry:
        stack = _Stack(top, seed)
        stack.warm()
        stack.run(batches, batched=batched)
        return stack.state(registry)


@pytest.mark.parametrize("top", ["cache", "namespace"])
@given(ops=_OPS, cuts=st.lists(st.booleans(), min_size=40, max_size=40),
       seed=st.integers(0, 2**16))
def test_any_batch_split_equals_one_op_at_a_time(top, ops, cuts, seed):
    batches = _batches(ops, cuts)
    assert _final_state(top, seed, batches, batched=True) == _final_state(
        top, seed, batches, batched=False
    )


# -- implementation points the property rests on ------------------------------


@pytest.mark.parametrize("layer", [
    BlockDevice, NamespacedDevice, FaultyBlockDevice, BreakerDevice, CachedDevice,
])
def test_every_layer_defines_its_own_batch_methods(layer):
    # The wrappers forward unknown attributes to the device they wrap: a
    # layer inheriting or forwarding write_many would skip its own work.
    assert {"write_many", "delete_many"} <= set(vars(layer))


class _RecordingDevice(BlockDevice):
    """A block device logging each batch it is handed."""

    def __init__(self):
        super().__init__()
        self.calls: list = []

    def write_many(self, items):
        items = list(items)
        self.calls.append(("write_many", [item[0] for item in items]))
        super().write_many(items)

    def _count_writes(self, n, total_bytes):
        self.calls.append(("count", n))
        super()._count_writes(n, total_bytes)


def test_clean_items_reach_the_inner_device_before_a_faulty_item():
    inner = _RecordingDevice()
    faulty = FaultyBlockDevice(inner, FaultInjector(
        bit_flip={"flip": 1.0, "*": 0.0}, lost_write={"lost": 1.0, "*": 0.0},
    ))
    faulty.write_many([
        (("ok", 0), b"a", None), (("ok", 1), b"b", None), (("flip", 2), b"c", None),
        (("lost", 3), b"d", None), (("ok", 4), b"e", None), (("ok", 5), b"f", None),
    ])
    # Each write_many charges its own writes; the lost write is charged
    # alone, after the flip and before the clean tail.
    assert inner.calls == [
        ("write_many", [("ok", 0), ("ok", 1)]), ("count", 2),
        ("write_many", [("flip", 2)]), ("count", 1),
        ("count", 1),
        ("write_many", [("ok", 4), ("ok", 5)]), ("count", 2),
    ]
    assert faulty.corrupted_addresses() == {("flip", 2)}
    assert not inner.exists(("lost", 3))


def test_draw_write_rolls_even_with_no_write_fault_rate():
    injector = FaultInjector(seed=9)
    faulty = FaultyBlockDevice(injector=injector)
    faulty.write_many([(("run", i), b"x", None) for i in range(5)])
    reference = random.Random(9)
    for _ in range(5):
        reference.random()
    assert injector._rng.getstate() == reference.getstate()


def _cache_state(cache, registry):
    return (
        list(cache._entries.items()), dataclasses.asdict(cache.stats), cache.used_bytes,
        cache._in_storm, list(cache._storm._events), registry.snapshot(),
    )


def _invalidate_one_at_a_time(cache, addresses) -> int:
    """Reference model: the single-address invalidation rule, once per
    address, each recording one storm-detector event at the current tick."""
    dropped = 0
    for address in addresses:
        m = bind_handles(cache, _CacheMetrics)
        entry = cache._entries.pop(address, None)
        if cache._storm.record(cache.stats.requests) > cache._storm_threshold:
            if not cache._in_storm:
                cache._in_storm = True
                m.storms.inc()
        else:
            cache._in_storm = False
        if entry is not None:
            dropped += 1
            cache.used_bytes -= entry[1]
            cache.stats.invalidations += 1
            m.invalidations.inc()
            m.used_bytes.set(cache.used_bytes)
    return dropped


@given(
    script=st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.integers(0, 9), max_size=12)),
        max_size=12,
    ),
    in_storm=st.booleans(),
)
def test_invalidate_many_replays_single_invalidations(script, in_storm):
    """Each step reads some addresses (moving the request tick), then
    invalidates a batch.  The detector is tight enough that batches
    cross its threshold, starting both in and out of a storm."""
    runs = []
    for method in ("invalidate_many", "invalidate", "model"):
        with use_registry() as registry:
            cache = BlockCache(64, storm_window=4, storm_threshold=0.5)
            cache._in_storm = in_storm
            storms = registry.counter("repro_cache_invalidation_storms_total")
            per_batch = []
            for reads, addresses in script:
                for address in range(reads):
                    if not cache.get(address)[0]:
                        cache.put(address, f"p{address}", 8)
                before = storms.value
                if method == "invalidate_many":
                    dropped = cache.invalidate_many(addresses)
                elif method == "invalidate":
                    dropped = sum(cache.invalidate(a) for a in addresses)
                else:
                    dropped = _invalidate_one_at_a_time(cache, addresses)
                per_batch.append((dropped, storms.value - before))
            assert registry.gauge("repro_cache_block_used_bytes").value == cache.used_bytes
            runs.append((_cache_state(cache, registry), per_batch))
    assert runs[0] == runs[1] == runs[2]
    # A batch's tick is fixed, so it can enter a storm at most once.
    assert all(entered <= 1 for _dropped, entered in runs[0][1])
