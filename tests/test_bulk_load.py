"""Bulk load for every topology: one batch equals the one-at-a-time load.

The contract under test (docs/performance.md, "Bulk load for every
topology"; docs/robustness.md, "Bulk load"):

* ``TenantRouter.add_tenants`` leaves the index's rows and slot map and
  every authoritative filter bit-identical to ``add_tenant`` then
  ``insert_many`` per tenant, with the same ``mutations``, and a bad
  batch changes nothing;
* at zero fault rates with latency off, as at set-up,
  ``ShardedStore.put_many`` and ``ReplicatedStore.put_many`` leave the
  same device, RNG, clock, tree, sequence and failure-detector state as a
  loop of ``put``;
* under faults, ``ReplicatedStore.put_many`` never lets a stored key
  read ABSENT, and after heal, replay and repair every key of a batch
  that did not raise reads PRESENT.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.clock import Answer
from repro.common.faults import CircuitOpenError, TransientIOError
from repro.core.errors import FilterFullError
from repro.core.registry import FEATURE_MATRIX, make_filter
from repro.filters.bloom import BloomFilter, insert_each
from repro.serve.replica import AntiEntropyRepairer, FailureDetector, ReplicatedStore
from repro.serve.reshard import MigrationStep, ReshardCoordinator, ShardedStore
from repro.serve.stack import StackParts
from repro.serve.tenant import TenantConfig, TenantRouter, TenantStore

LEAF_CAPACITY = 8
FAMILIES = sorted(
    name for name, f in FEATURE_MATRIX.items()
    if f.inserts and not f.values and not f.ranges and f.kind in ("dynamic", "semi-dynamic")
)
# Per-family examples: a tenth of the profile's, so the thorough profile
# runs ten times as many for every family.
FAMILY_SETTINGS = settings(max_examples=max(5, settings.default.max_examples // 10))


# -- the tenant fleet --------------------------------------------------------------


@st.composite
def fleets(draw):
    """A fleet shape and its tenants, loaded in one or two batches."""
    size = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    tenants = draw(st.lists(st.integers(0, 10_000), min_size=size, max_size=size,
                            unique=True))
    # A small key pool makes keys repeat inside a tenant and across tenants.
    pool = draw(st.integers(3, 60))
    batch = [
        (tenant, draw(st.lists(st.integers(0, pool), min_size=n, max_size=n)))
        for tenant, n in zip(tenants, draw(st.lists(
            st.sampled_from([0, 1, 4, LEAF_CAPACITY + 3]), min_size=size, max_size=size,
        )))
    ]
    return {
        "config": TenantConfig(
            leaf_capacity=LEAF_CAPACITY, epsilon=0.05, seed=draw(st.integers(0, 1_000)),
        ),
        "batch": batch,
        "cut": draw(st.integers(0, size)),
        "pool": pool,
    }


def _filter_state(filt, probes) -> tuple:
    try:
        image = pickle.dumps(filt)
    except (AttributeError, TypeError, pickle.PicklingError):
        image = None  # bentley-saxe-xor keeps its factory as a local lambda
    return len(filt), filt.may_contain_many(probes).tolist(), image


def _fleet_state(router: TenantRouter, probes) -> dict:
    index = router.index
    return {
        "rows": (index._rows.shape, index._rows.tobytes()),
        "slots": (list(index._slot_of.items()), index._tenant_at, sorted(index._free),
                  index._occupied.tobytes()),
        "auth": [(t, _filter_state(f, probes)) for t, f in router._auth.items()],
        "mutations": router.mutations,
    }


def _factory(family):
    if family is None:
        return None
    return lambda tenant: make_filter(family, capacity=64, epsilon=0.05, seed=7)


def _check_fleet(fleet, family):
    config, batch, cut = fleet["config"], fleet["batch"], fleet["cut"]
    reference = TenantRouter(config, filter_factory=_factory(family))
    try:
        for tenant, keys in batch:
            reference.add_tenant(tenant)
            reference.insert_many(tenant, keys)
    except FilterFullError:
        # Cuckoo-style families hold only a few copies of one key.  The
        # bulk load raises too, before any tenant of the batch attaches.
        bulk = TenantRouter(config, filter_factory=_factory(family))
        with pytest.raises(FilterFullError):
            bulk.add_tenants(batch)
        assert (bulk.n_tenants, bulk.mutations, bulk.check_invariants()) == (0, 0, [])
        return
    bulk = TenantRouter(config, filter_factory=_factory(family))
    bulk.add_tenants(batch[:cut])
    bulk.add_tenants((tenant, iter(keys)) for tenant, keys in batch[cut:])

    probes = list(range(fleet["pool"] + 1)) + [10**9 + i for i in range(20)]
    assert _fleet_state(bulk, probes) == _fleet_state(reference, probes)
    assert bulk.check_invariants() == []
    for key in probes:
        assert bulk.query(key) == reference.query(key)
        assert bulk.query_flat(key) == reference.query_flat(key)
    for tenant, keys in batch:
        for key in keys:
            assert tenant in bulk.query(key).tenants


@given(fleet=fleets())
def test_add_tenants_equals_one_tenant_at_a_time(fleet):
    _check_fleet(fleet, None)


@pytest.mark.parametrize("family", FAMILIES)
@FAMILY_SETTINGS
@given(fleet=fleets())
def test_add_tenants_equals_one_tenant_at_a_time_for_every_family(family, fleet):
    _check_fleet(fleet, family)


@given(fleet=fleets())
def test_a_bad_batch_changes_nothing(fleet):
    router = TenantRouter(fleet["config"])
    router.add_tenants(fleet["batch"])
    probes = list(range(fleet["pool"] + 1))
    before = _fleet_state(router, probes)
    fresh = 10_001  # outside the strategy's tenant ids
    bad_batches = [[(fresh, [1, 2]), (fresh, [3])]]
    if fleet["batch"]:
        bad_batches.append([(fresh, [1, 2]), (fleet["batch"][0][0], [4])])
    for bad in bad_batches:
        with pytest.raises(ValueError):
            router.add_tenants(bad)
        assert fresh not in router
        assert _fleet_state(router, probes) == before


def test_tenant_store_ground_truth_is_each_tenants_keys():
    store = TenantStore(TenantRouter(TenantConfig(seed=4)), clock=None)
    store.add_tenants([(0, range(3)), (1, []), (2, [5, 5])])
    store.add_tenant(3, (9,))
    assert store.truth == {0: {0, 1, 2}, 1: set(), 2: {5}, 3: {9}}
    assert store.mutation_epoch == 7  # one per tenant, one more per loaded tenant


def test_insert_each_equals_insert_many_per_filter():
    filters = [BloomFilter(16, 0.05, seed=3) for _ in range(4)]
    reference = [BloomFilter(16, 0.05, seed=3) for _ in range(4)]
    batches = [[1, 2, 2], [], ["a", b"b", 1 << 70], np.arange(5)]
    insert_each(filters, batches)
    for filt, batch in zip(reference, batches):
        filt.insert_many(batch)
    for got, want in zip(filters, reference):
        assert got._bits.words.tobytes() == want._bits.words.tobytes()
        assert len(got) == len(want)
    with pytest.raises(ValueError):
        insert_each([BloomFilter(16, 0.05, seed=3), BloomFilter(16, 0.05, seed=4)], [[1], [2]])


# -- sharded and replicated stores at set-up conditions ----------------------------


def sized_lists(elements, max_size: int):
    """Lists whose length is drawn uniformly, so long batches that flush
    memtables and bump the sequence floor are as common as short ones."""
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n))


items_strategy = sized_lists(
    st.tuples(st.integers(0, 150), st.integers(0, 9).map(lambda i: f"v{i}")), 200,
)


def _device_state(parts: StackParts) -> dict:
    inner = parts.device.inner
    namespaces: dict = {}
    for address, block in inner._blocks.items():
        ns = address[1] if isinstance(address, tuple) and len(address) > 1 else None
        namespaces.setdefault(ns, []).append((address, block.payload, block.size))
    return {
        "blocks": namespaces,
        "io": (inner.stats.as_dict(), inner.stats.busy_seconds),
        "fault_rng": parts.injector._rng.getstate(),
        "latency_rng": parts.latency._rng.getstate(),
        "clock": parts.clock.now(),
    }


def _tree_state(tree) -> tuple:
    runs = [(run.run_id, run.level, run.seq, run.keys, run.values)
            for level in tree._levels for run in level]
    return (runs, list(tree._memtable.items()), vars(tree.stats), tree.wal_position,
            tree.mutation_epoch)


def _sharded(seed, preload, pumps):
    parts = StackParts(seed, 0.0008)  # latency off, no faults: set-up conditions
    store = ShardedStore.create(parts.breaker_device, 3, seed=seed, clock=parts.clock)
    for key in range(preload):
        store.put(key, f"p{key}")
    if pumps:
        coordinator = ReshardCoordinator(store, clock=parts.clock, injector=parts.injector)
        coordinator.plan_split()
        for _ in range(pumps):
            coordinator.pump(force=True)
        # Both owners take every moving key's writes.
        assert store.migration.step in (MigrationStep.DOUBLE_WRITE, MigrationStep.BACKFILL)
    return parts, store


@given(seed=st.integers(0, 1_000), preload=st.integers(0, 60),
       pumps=st.integers(0, 2), items=items_strategy)
def test_sharded_put_many_equals_puts(seed, preload, pumps, items):
    states = []
    for bulk in (False, True):
        parts, store = _sharded(seed, preload, pumps)
        if bulk:
            store.put_many(items)
        else:
            for key, value in items:
                store.put(key, value)
        states.append((
            _device_state(parts),
            {sid: _tree_state(tree) for sid, tree in store.shards.items()},
            store.mutation_epoch,
        ))
    assert states[0] == states[1]


def _replicated(seed, preload, *, dead=False, suspect=False, config=None):
    parts = StackParts(seed, 0.0008)
    store = ReplicatedStore(
        parts.breaker_device, n_nodes=4, replication=3, config=config, clock=parts.clock,
        detector=FailureDetector(parts.clock), injector=parts.injector, seed=seed,
    )
    for key in range(preload):
        store.put(key, f"p{key}")
    if dead:
        store.kill(0)
    if suspect:
        for _ in range(5):
            store.detector.record_failure(1)
        assert store.detector.suspected(1)
    return parts, store


def _replica_state(parts, store) -> tuple:
    detector = store.detector
    return (
        _device_state(parts),
        {nid: (_tree_state(node.tree), node.alive, node.tainted)
         for nid, node in store.nodes.items()},
        store.write_seq, store._seq_floor, store._state.version,
        detector._last_beat, detector._intervals, detector._failures,
        store.handoff.journal.keys, store.handoff.pending_by_node(),
    )


@given(seed=st.integers(0, 1_000), preload=st.integers(0, 60), dead=st.booleans(),
       suspect=st.booleans(), items=items_strategy)
def test_replicated_put_many_equals_puts(seed, preload, dead, suspect, items):
    states = []
    for bulk in (False, True):
        parts, store = _replicated(seed, preload, dead=dead, suspect=suspect)
        if bulk:
            store.put_many(items)
        else:
            for key, value in items:
                store.put(key, value)
        states.append(_replica_state(parts, store))
    assert states[0] == states[1]


# -- ReplicatedStore.put_many under faults -----------------------------------------


def test_a_failed_replica_batch_is_hinted_whole():
    parts, store = _replicated(3, 0)
    items = [(key, f"v{key}") for key in range(40)]
    failing = (1, 2)  # with four nodes and R = 3, each holds 30 of the 40 keys
    for node_id in failing:
        tree = store.nodes[node_id].tree

        def half_then_fail(batch, tree=tree):
            LSMTree.put_many(tree, batch[: len(batch) // 2])  # half lands, then a fault
            raise TransientIOError("replica unreachable mid-batch")

        tree.put_many = half_then_fail
    store.put_many(items)
    for node_id in failing:
        del store.nodes[node_id].tree.put_many
        owned = [key for key, _ in items if node_id in store.replicas_of(key)]
        assert store.handoff.pending_for(node_id) == len(owned)
        assert store.detector._failures[node_id] == 1
    for key, _ in items:
        assert store.lookup(key).state is not Answer.ABSENT
    while store.handoff.replay(batch=16, force=True):
        pass
    assert store.handoff.pending() == 0
    for key, value in items:
        assert store.get(key) == value
        for node_id in store.replicas_of(key):
            assert store.nodes[node_id].tree.get(key)["v"] == value


@given(seed=st.integers(0, 1_000),
       batches=st.lists(sized_lists(st.integers(0, 120), 40), min_size=1, max_size=4))
def test_put_many_under_faults_never_answers_absent(seed, batches):
    # Small memtables checkpoint often, and replica 2's manifest reads fail
    # half the time: its breakers open, so its put_many raises now and then.
    config = LSMConfig(memtable_entries=8, retry_attempts=3, seed=seed)
    parts, store = _replicated(seed, 0, dead=True, config=config)
    parts.latency.slowdown = 1.0  # time passes, so open breakers cool down
    injector = parts.injector
    injector.transient_read = {"manifest@r2": 0.5, "*": 0.03}
    # Torn and lost writes where the store survives them: WAL records,
    # manifests and hints.  Not run blocks, whose loss is a different
    # contract.  A write whose every replica misses it through a failed
    # hint fails its batch, whose keys are then not counted as stored.
    write_faults = {"wal": 0.03, "manifest": 0.03, "nodestate": 0.03, "hint": 0.3,
                    "*": 0.0}
    injector.torn_write = injector.lost_write = write_faults
    stored: dict = {}
    uncertain: set = set()
    for n, keys in enumerate(batches):
        for _ in range(5):
            store.detector.record_failure(1)  # replica 1 stays suspected
        items = [(key, f"b{n}-{key}") for key in keys]
        try:
            store.put_many(items)
        except (TransientIOError, CircuitOpenError):
            # A failed batch may have landed in part.  An open breaker
            # fails it too: a dropped hint's taint is persisted through
            # the node-state manifest, whose read-back it can refuse.
            uncertain.update(keys)
        else:
            stored.update(items)
        for key in stored:
            assert store.lookup(key).state is not Answer.ABSENT, key

    injector.transient_read = 0.0
    injector.torn_write = injector.lost_write = 0.0
    parts.breaker_device.reset()
    store.heal(0)
    while store.handoff.replay(batch=16, force=True):
        pass
    repairer = AntiEntropyRepairer(store)
    for _ in range(4_000):
        repairer.pump(force=True)
        if repairer.idle and repairer.converged():
            break
    assert repairer.converged()
    for key, value in stored.items():
        result = store.lookup(key)
        assert result.state is Answer.PRESENT, key
        if key not in uncertain:
            assert result.value == value
