"""Online-resharding tests: routers, the sharded store, and crash chaos.

The contract under test (docs/robustness.md): a live split/merge walks a
journaled state machine (PLANNED → DOUBLE_WRITE → BACKFILL → VERIFY →
CUTOVER → RETIRE → DONE) whose every step is idempotent, so a crash at
*any* point recovers from the devices alone and converges — exactly-once
ownership after retirement, and never a false negative along the way.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.clock import Answer, LookupResult, SimulatedClock
from repro.apps.lsm import LSMConfig
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    FaultyBlockDevice,
    LatencyInjector,
    SimulatedCrash,
    TransientIOError,
)
from repro.common.hashing import hash_to_range
from repro.common.storage import BlockDevice
from repro.core.concurrent import ShardedFilter
from repro.core.routing import (
    SHARD_SALT,
    ConsistentHashRouter,
    HashRangeRouter,
    HashRouter,
    router_from_manifest,
)
from repro.filters.bloom import BloomFilter
from repro.obs import use_registry
from repro.obs.metrics import CounterWindow
from tests.conftest import registry_count
import repro.serve.reshard as reshard_module
from repro.serve import (
    BreakerDevice,
    BreakerState,
    MigrationStep,
    ReshardCoordinator,
    ShardedStore,
    StormPhase,
    run_reshard_storm,
)

KEYS = [f"key-{i}" for i in range(400)] + list(range(400))


# -- routers -----------------------------------------------------------------------


class TestHashRouter:
    def test_matches_legacy_sharded_filter_mapping(self):
        router = HashRouter(8, seed=3)
        for key in KEYS:
            assert router.owner(key) == hash_to_range(key, 8, 3 ^ SHARD_SALT)

    def test_manifest_round_trip(self):
        router = HashRouter(5, seed=7, epoch=2)
        clone = router_from_manifest(router.to_manifest())
        assert clone.epoch == 2
        assert clone.shard_ids() == router.shard_ids()
        assert all(clone.owner(k) == router.owner(k) for k in KEYS)


class TestHashRangeRouter:
    def test_uniform_covers_all_shards(self):
        router = HashRangeRouter.uniform(range(4), seed=0)
        owners = {router.owner(k) for k in KEYS}
        assert owners == {0, 1, 2, 3}
        assert router.shard_ids() == (0, 1, 2, 3)

    def test_split_moves_a_strict_subset_to_the_target(self):
        old = HashRangeRouter.uniform(range(3), seed=0)
        new = old.split(1, 3)
        assert new.epoch == old.epoch + 1
        moved = [k for k in KEYS if old.owner(k) != new.owner(k)]
        assert moved  # something actually moves
        for key in moved:
            assert old.owner(key) == 1
            assert new.owner(key) == 3
        # Keys outside the split range are untouched.
        for key in KEYS:
            if old.owner(key) != 1:
                assert new.owner(key) == old.owner(key)

    def test_merge_reassigns_source_to_dest_and_retires_it(self):
        old = HashRangeRouter.uniform(range(3), seed=0)
        new = old.merge(2, 0)
        assert new.epoch == old.epoch + 1
        assert 2 not in new.shard_ids()
        for key in KEYS:
            expected = 0 if old.owner(key) == 2 else old.owner(key)
            assert new.owner(key) == expected

    def test_manifest_round_trip(self):
        router = HashRangeRouter.uniform(range(4), seed=9).split(0, 4)
        clone = router_from_manifest(router.to_manifest())
        assert clone.epoch == router.epoch
        assert all(clone.owner(k) == router.owner(k) for k in KEYS)


class TestConsistentHashRouter:
    def test_deterministic_and_covering(self):
        a = ConsistentHashRouter(range(4), seed=5)
        b = ConsistentHashRouter(range(4), seed=5)
        assert all(a.owner(k) == b.owner(k) for k in KEYS)
        assert {a.owner(k) for k in KEYS} == {0, 1, 2, 3}

    def test_adding_a_shard_moves_only_keys_to_that_shard(self):
        old = ConsistentHashRouter(range(4), seed=5)
        new = old.with_shard(4)
        assert new.epoch == old.epoch + 1
        moved = [k for k in KEYS if old.owner(k) != new.owner(k)]
        assert moved
        assert all(new.owner(k) == 4 for k in moved)
        # Bounded churn: a ring move is ~1/n of the space, not a reshuffle.
        assert len(moved) < len(KEYS) / 2

    def test_removal_inverts_addition(self):
        old = ConsistentHashRouter(range(4), seed=5)
        back = old.with_shard(4).without_shard(4)
        assert all(back.owner(k) == old.owner(k) for k in KEYS)

    def test_manifest_round_trip(self):
        router = ConsistentHashRouter(range(3), seed=2).with_shard(3)
        clone = router_from_manifest(router.to_manifest())
        assert clone.epoch == router.epoch
        assert all(clone.owner(k) == router.owner(k) for k in KEYS)


# -- ShardedFilter routing hooks ---------------------------------------------------


class TestShardedFilterRouting:
    def _filter(self, n_shards=4, **kwargs):
        return ShardedFilter(
            lambda i: BloomFilter(256, 0.01), n_shards, seed=1, **kwargs
        )

    def test_default_router_matches_historical_mapping(self):
        sf = self._filter()
        for key in KEYS:
            assert sf.router.owner(key) == hash_to_range(key, 4, 1 ^ SHARD_SALT)

    def test_insert_and_query_under_custom_router(self):
        sf = self._filter(router=HashRangeRouter.uniform(range(4), seed=1))
        for key in range(100):
            sf.insert(key)
        assert all(sf.may_contain(key) for key in range(100))

    def test_router_beyond_shard_list_rejected(self):
        with pytest.raises(ValueError):
            self._filter(n_shards=2, router=HashRouter(5, seed=1))


# -- ShardedStore ------------------------------------------------------------------


def _fresh_store(n_shards=3, seed=0):
    device = BlockDevice()
    clock = SimulatedClock()
    store = ShardedStore.create(device, n_shards, seed=seed, clock=clock)
    return device, clock, store


class TestShardedStore:
    def test_put_get_routes_by_range(self):
        _device, _clock, store = _fresh_store()
        for key in range(200):
            store.put(key, f"v{key}")
        assert all(store.get(key) == f"v{key}" for key in range(200))
        assert store.get(9_999, "missing") == "missing"
        assert sum(store.shard_sizes().values()) == 200

    def test_lookup_absent_is_authoritative_when_idle(self):
        _device, _clock, store = _fresh_store()
        store.put(1, "one")
        result = store.lookup(5_000)
        assert result.state is Answer.ABSENT and result.complete

    def test_recover_from_device_alone(self):
        device, clock, store = _fresh_store()
        for key in range(120):
            store.put(key, f"v{key}")
        # No graceful shutdown: reopen purely from the blocks.
        revived = ShardedStore.recover(device, clock=SimulatedClock(), seed=0)
        assert revived.router.epoch == store.router.epoch
        assert sorted(revived.shards) == sorted(store.shards)
        assert all(revived.get(key) == f"v{key}" for key in range(120))

    def test_mutation_epoch_monotone_across_recovery(self):
        device, clock, store = _fresh_store()
        for key in range(60):
            store.put(key, f"v{key}")
        before = store.mutation_epoch
        revived = ShardedStore.recover(device, clock=SimulatedClock(), seed=0)
        assert revived.mutation_epoch >= before
        revived.put(60, "v60")
        assert revived.mutation_epoch > before

    def test_double_reads_counted_only_during_migration(self):
        device, clock, store = _fresh_store()
        for key in range(100):
            store.put(key, f"v{key}")
        window = CounterWindow()
        store.lookup(1)
        assert window.count("repro_reshard_double_reads_total") == 0
        coordinator = ReshardCoordinator(store, clock=clock)
        coordinator.plan_split()
        coordinator.pump(force=True)  # -> DOUBLE_WRITE
        mig = store.migration
        moving = [k for k in range(100) if mig.moving(k)]
        assert moving
        before = window.count("repro_reshard_double_reads_total")
        for key in moving:
            result = store.lookup(key)
            assert result.state is not Answer.ABSENT
        assert window.count("repro_reshard_double_reads_total") == before + len(moving)

    def test_late_double_read_is_a_timeout(self, monkeypatch):
        # Old owner unreachable, then the new owner runs out of time: the
        # answer missed its deadline, as a replica or LSM scan reports it.
        store = ShardedStore.create(BlockDevice(), 2, seed=0)
        for key in range(200):
            store.put(key, f"v{key}")
        mig = ReshardCoordinator(store).plan_split(source=0)
        mig.step = MigrationStep.DOUBLE_WRITE
        key = next(k for k in range(200) if mig.moving(k))
        old, new = mig.old_router.owner(key), mig.new_router.owner(key)
        for sid, reason in ((old, "unavailable"), (new, "deadline")):
            monkeypatch.setattr(
                store.shards[sid], "lookup",
                lambda *_a, reason=reason, **_k: LookupResult(
                    Answer.MAYBE, complete=False, reason=reason),
            )
        assert store.lookup(key).reason == "deadline"


# -- the coordinator's state machine -----------------------------------------------


def _pump_to_done(coordinator, store, limit=10_000):
    guard = 0
    while store.migration is not None:
        guard += 1
        assert guard < limit, f"migration stuck at {store.migration.step}"
        coordinator.pump(budget=0.5, force=True)


def _ownership_census(store):
    """Map key -> list of shards whose *data* holds it."""
    census = {}
    for sid, tree in store.shards.items():
        for key, _value in tree.items():
            census.setdefault(key, []).append(sid)
    return census


def _foreign_entries(store):
    """``(shard, key)`` for every entry a shard holds of a key it does not
    own: a live value, a shadowed version or a tombstone, in a run or in
    the memtable."""
    return [
        (sid, key)
        for sid, tree in store.shards.items()
        for key in [*tree._memtable,
                    *(k for level in tree._levels for run in level for k in run.keys)]
        if store.router.owner(key) != sid
    ]


def _journal_blocks(store):
    return [a for a in store._meta.addresses() if a[0] == "reshard"]


class TestCoordinator:
    N = 300

    def _loaded(self, seed=0, n_shards=3):
        device, clock, store = _fresh_store(n_shards, seed=seed)
        for key in range(self.N):
            store.put(key, f"v{key}")
        coordinator = ReshardCoordinator(store, clock=clock)
        return device, clock, store, coordinator

    def test_split_walks_every_step_to_done(self):
        _device, _clock, store, coordinator = self._loaded()
        old_epoch = store.router.epoch
        mig = coordinator.plan_split()
        seen = {mig.step}
        guard = 0
        while store.migration is not None:
            guard += 1
            assert guard < 10_000
            coordinator.pump(budget=0.5, force=True)
            if store.migration is not None:
                seen.add(store.migration.step)
        assert seen >= {
            MigrationStep.PLANNED, MigrationStep.DOUBLE_WRITE,
            MigrationStep.BACKFILL, MigrationStep.VERIFY,
            MigrationStep.CUTOVER, MigrationStep.RETIRE,
        }
        assert store.router.epoch == old_epoch + 1
        assert coordinator.last_migration.step is MigrationStep.DONE

    def test_split_ends_with_exactly_once_ownership(self):
        _device, _clock, store, coordinator = self._loaded()
        coordinator.plan_split()
        _pump_to_done(coordinator, store)
        census = _ownership_census(store)
        assert sorted(census) == list(range(self.N))
        for key, owners in census.items():
            assert owners == [store.router.owner(key)], key
        assert all(store.get(key) == f"v{key}" for key in range(self.N))

    def test_merge_retires_the_source_shard(self):
        _device, _clock, store, coordinator = self._loaded()
        victim = max(store.shards)
        coordinator.plan_merge(victim, min(store.shards))
        _pump_to_done(coordinator, store)
        assert victim not in store.shards
        assert victim not in store.router.shard_ids()
        assert all(store.get(key) == f"v{key}" for key in range(self.N))

    def test_writes_during_migration_survive_cutover(self):
        _device, clock, store, _fast = self._loaded()
        # Small batches so the migration spans all 50 interleaved writes.
        coordinator = ReshardCoordinator(store, clock=clock, batch_keys=4)
        coordinator.plan_split()
        extra = range(self.N, self.N + 50)
        pending = iter(extra)
        guard = 0
        while store.migration is not None:
            guard += 1
            assert guard < 10_000
            coordinator.pump(budget=0.5, force=True)
            key = next(pending, None)
            if key is not None:
                store.put(key, f"live-{key}")
        for key in pending:  # anything the migration outpaced
            store.put(key, f"live-{key}")
        store.delete(0)
        assert all(store.get(key) == f"live-{key}" for key in extra)
        assert store.get(0, "gone") == "gone"

    def test_journal_records_plan_then_steps(self):
        _device, _clock, store, coordinator = self._loaded()
        coordinator.plan_split()
        _pump_to_done(coordinator, store)
        records = coordinator.journal_records()
        assert records[0]["kind"] == "plan"
        steps = [r["step"] for r in records if r["kind"] == "step"]
        assert steps[-1] == MigrationStep.DONE.value
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)

    def test_split_leaves_the_source_no_entry_of_a_moved_key(self):
        _device, _clock, store, coordinator = self._loaded()
        mig = coordinator.plan_split()
        coordinator.pump(budget=0.5, force=True)  # -> DOUBLE_WRITE
        moving = [k for k in range(self.N) if mig.moving(k)]
        # Older versions and tombstones of moving keys on both owners.
        model = {k: f"v{k}" for k in range(self.N)}
        for key in moving[::3]:
            store.put(key, f"new{key}")
            model[key] = f"new{key}"
        for key in moving[1::3]:
            store.delete(key)
            del model[key]
        source = store.shards[mig.source]
        assert {k for k in source._memtable if mig.moving(k)}
        _pump_to_done(coordinator, store)
        assert _foreign_entries(store) == []
        assert all(store.get(key) == model.get(key) for key in range(self.N))

    def test_done_trims_the_journal(self):
        device, _clock, store, coordinator = self._loaded()
        coordinator.plan_split()
        _pump_to_done(coordinator, store)
        assert _journal_blocks(store) == []
        records = coordinator.journal_records()
        assert records[0]["kind"] == "plan"
        assert records[-1]["step"] == MigrationStep.DONE.value
        # A recovery finds no journal: the store is idle.
        revived = ShardedStore.recover(device, clock=SimulatedClock(), seed=0)
        recovered = ReshardCoordinator.recover(revived)
        assert revived.migration is None and recovered.journal_records() == []
        assert revived.router.epoch == store.router.epoch
        assert all(revived.get(key) == f"v{key}" for key in range(self.N))

    def test_a_crash_before_the_trim_leaves_it_to_recovery(self):
        device = BlockDevice()
        store = ShardedStore.create(device, 3, seed=0, clock=SimulatedClock())
        for key in range(self.N):
            store.put(key, f"v{key}")
        injector = FaultInjector(seed=0)
        injector.crash_after("reshard.done")
        coordinator = ReshardCoordinator(store, injector=injector)
        coordinator.plan_split()
        with pytest.raises(SimulatedCrash):
            _pump_to_done(coordinator, store)
        assert _journal_blocks(store)
        revived = ShardedStore.recover(device, clock=SimulatedClock(), seed=0)
        recovered = ReshardCoordinator.recover(revived)
        assert revived.migration is None and _journal_blocks(revived) == []
        # Recovery's records still tell the finished migration.
        steps = [r["step"] for r in recovered.journal_records()]
        assert steps[0] == MigrationStep.PLANNED.value
        assert steps[-1] == MigrationStep.DONE.value

    def test_second_plan_while_migrating_rejected(self):
        _device, _clock, store, coordinator = self._loaded()
        coordinator.plan_split()
        with pytest.raises(RuntimeError):
            coordinator.plan_split()

    def test_unverifiable_plan_raises_before_touching_the_store(self):
        injector = FaultInjector(seed=0)
        device = FaultyBlockDevice(injector=injector)
        clock = SimulatedClock()
        store = ShardedStore.create(device, 3, seed=0, clock=clock)
        for key in range(self.N):
            store.put(key, f"v{key}")
        coordinator = ReshardCoordinator(store, clock=clock)
        shards = sorted(store.shards)
        injector.transient_read = {"reshard": 1.0, "*": 0.0}
        with pytest.raises(TransientIOError):
            coordinator.plan_split()
        injector.transient_read = 0.0
        assert store.migration is None
        assert sorted(store.shards) == shards
        assert not [r for r in coordinator.journal_records() if r["kind"] == "plan"]
        # Recovery from the devices sees the pre-plan world.
        recovered = ShardedStore.recover(device, clock=clock)
        ReshardCoordinator.recover(recovered, clock=clock)
        assert recovered.migration is None
        assert sorted(recovered.shards) == shards

    def test_plan_read_back_refused_by_an_open_breaker_leaves_no_plan(self):
        clock = SimulatedClock()
        device = BreakerDevice(BlockDevice(), clock)
        store = ShardedStore.create(device, 3, seed=0, clock=clock)
        for key in range(self.N):
            store.put(key, f"v{key}")
        coordinator = ReshardCoordinator(store, clock=clock)
        shards = sorted(store.shards)
        breaker = device.breaker_for(("reshard", "meta", 0))
        with use_registry():
            while breaker.state is not BreakerState.OPEN:
                breaker.record_failure()
            with pytest.raises(CircuitOpenError):
                coordinator.plan_split()
        assert store.migration is None
        device.reset()
        assert not [r for r in coordinator.journal_records() if r["kind"] == "plan"]
        recovered = ShardedStore.recover(device, clock=clock)
        ReshardCoordinator.recover(recovered, clock=clock)
        assert recovered.migration is None
        assert sorted(recovered.shards) == shards


class TestPumpBudget:
    """A pump whose budget runs out inside a batched read abandons the
    batch: an unresolved key must not read as deleted, or backfill would
    skip copying it."""

    N = 300

    @pytest.mark.parametrize("step", [MigrationStep.BACKFILL, MigrationStep.VERIFY])
    def test_budget_spent_inside_a_batch_commits_nothing(self, step, monkeypatch):
        # Unfiltered tiered runs and ~1 ms reads: every key reads every
        # run, and one read spends the whole budget.
        clock = SimulatedClock()
        device = FaultyBlockDevice(latency=LatencyInjector(seed=0, base=0.001), clock=clock)
        config = LSMConfig(memtable_entries=16, compaction="tiering",
                           filter_policy="none", seed=0)
        store = ShardedStore.create(device, 2, seed=0, config=config, clock=clock)
        for key in range(self.N):
            store.put(key, f"v{key}")
        coordinator = ReshardCoordinator(store, clock=clock, batch_keys=8)
        window = CounterWindow()
        mig = coordinator.plan_split(source=0)
        while mig.step is not step:
            coordinator.pump(budget=10.0, force=True)
        moved = window.count("repro_reshard_keys_total", action="moved")
        target = store.shards[mig.target]
        on_target = {k for k, _v in target.items()}

        unresolved = []
        for tree in store.shards.values():
            def spy(keys, *, lookup_many=tree.lookup_many, **kwargs):
                results = lookup_many(keys, **kwargs)
                unresolved.extend(r for r in results if not r.complete)
                return results
            monkeypatch.setattr(tree, "lookup_many", spy)
        coordinator.pump(budget=1e-9, force=True)
        monkeypatch.undo()

        assert unresolved and all(r.reason == "deadline" for r in unresolved)
        assert mig.step is step and mig.floor is None
        assert window.count("repro_reshard_keys_total", action="moved") == moved
        assert window.count("repro_reshard_keys_total", action="verified") == 0
        assert {k for k, _v in target.items()} == on_target
        _pump_to_done(coordinator, store)
        for key in range(self.N):
            assert store.shards[store.router.owner(key)].get(key) == f"v{key}"


class TestVerifyCarry:
    """A VERIFY pump whose target read misses its deadline keeps its
    source read for the next pump, but only while the source takes no
    write: a write there double-applies, so a carried value may be stale."""

    N = 300

    def _at_verify(self, monkeypatch):
        _device, clock, store = _fresh_store(3, seed=0)
        for key in range(self.N):
            store.put(key, f"v{key}")
        coordinator = ReshardCoordinator(store, clock=clock)
        mig = coordinator.plan_split()
        while mig.step is not MigrationStep.VERIFY:
            coordinator.pump(budget=0.5, force=True)
        source, target = store.shards[mig.source], store.shards[mig.target]
        source_reads = []

        def spy(keys, *, lookup_many=source.lookup_many, **kwargs):
            source_reads.append(list(keys))
            return lookup_many(keys, **kwargs)

        late = [True]

        def late_once(keys, *, lookup_many=target.lookup_many, **kwargs):
            results = lookup_many(keys, **kwargs)
            if late:
                late.clear()
                for result in results:
                    result.state, result.complete, result.reason = (
                        Answer.MAYBE, False, "deadline")
            return results

        monkeypatch.setattr(source, "lookup_many", spy)
        monkeypatch.setattr(target, "lookup_many", late_once)
        return store, coordinator, mig, source_reads

    def test_a_late_target_read_keeps_the_source_read(self, monkeypatch):
        store, coordinator, mig, source_reads = self._at_verify(monkeypatch)
        window = CounterWindow()
        coordinator.pump(budget=0.5, force=True)
        assert len(source_reads) == 1 and mig.floor is None
        assert window.count("repro_reshard_keys_total", action="verified") == 0
        coordinator.pump(budget=0.5, force=True)
        assert len(source_reads) == 1
        assert mig.floor == source_reads[0][-1]
        assert window.count("repro_reshard_keys_total", action="verified") == len(
            source_reads[0])

    def test_a_source_write_between_pumps_forces_a_fresh_source_read(self, monkeypatch):
        store, coordinator, mig, source_reads = self._at_verify(monkeypatch)
        coordinator.pump(budget=0.5, force=True)
        batch = source_reads[0]
        key = batch[0]
        store.put(key, "fresh")  # double-applies to both owners
        coordinator.pump(budget=0.5, force=True)
        assert source_reads == [batch, batch]
        # The carried value is stale: it never reaches the target.
        assert store.shards[mig.target].get(key) == "fresh"
        _pump_to_done(coordinator, store)
        assert store.get(key) == "fresh"
        assert all(store.get(k) == f"v{k}" for k in range(self.N) if k != key)


# -- crash chaos: every crash point, recover from the devices alone ----------------


CRASH_STEPS = [
    "planned",
    "double_write",
    "backfill",
    "backfill:batch",
    "verify",
    "cutover",
    "cutover:manifest",
    "retire",
    "done",
]
CHAOS_SEEDS = [int(os.environ.get("REPRO_CHAOS_SEED", "0")) + i for i in range(2)]


def _crash_recover(device, seed):
    """What a process restart does: rebuild everything from blocks."""
    store = ShardedStore.recover(device, clock=SimulatedClock(), seed=seed)
    coordinator = ReshardCoordinator.recover(store, injector=None)
    store.scrub(repair=True)
    return store, coordinator


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("crash_step", CRASH_STEPS)
class TestCrashAtEveryStep:
    N = 250

    def test_recovery_converges_with_exactly_once_ownership(self, crash_step, seed):
        device = BlockDevice()
        clock = SimulatedClock()
        store = ShardedStore.create(device, 3, seed=seed, clock=clock)
        for key in range(self.N):
            store.put(key, f"v{key}")
        injector = FaultInjector(seed=seed)
        injector.crash_after(f"reshard.{crash_step}")
        coordinator = ReshardCoordinator(store, clock=clock, injector=injector)
        crashed = False
        try:
            coordinator.plan_split()
            _pump_to_done(coordinator, store)
        except SimulatedCrash as crash:
            crashed = True
            assert crash.step == f"reshard.{crash_step}"
            store, coordinator = _crash_recover(device, seed)
        assert crashed, f"crash point reshard.{crash_step} never fired"
        # Mid-crash state must never answer a stored key ABSENT.
        for key in range(0, self.N, 17):
            assert store.lookup(key).state is not Answer.ABSENT
        _pump_to_done(coordinator, store)
        assert store.migration is None
        census = _ownership_census(store)
        assert sorted(census) == list(range(self.N))
        for key, owners in census.items():
            assert owners == [store.router.owner(key)], key
        assert all(store.get(key) == f"v{key}" for key in range(self.N))

    def test_double_crash_still_converges(self, crash_step, seed):
        device = BlockDevice()
        clock = SimulatedClock()
        store = ShardedStore.create(device, 3, seed=seed, clock=clock)
        for key in range(self.N):
            store.put(key, f"v{key}")
        injector = FaultInjector(seed=seed)
        injector.crash_after(f"reshard.{crash_step}")
        coordinator = ReshardCoordinator(store, clock=clock, injector=injector)
        try:
            coordinator.plan_split()
            _pump_to_done(coordinator, store)
        except SimulatedCrash:
            store, coordinator = _crash_recover(device, seed)
            # Crash again immediately after the resumed step's journal write.
            injector2 = FaultInjector(seed=seed + 1)
            if store.migration is not None:
                injector2.crash_after(f"reshard.{store.migration.step.value}")
            coordinator.injector = injector2
            try:
                _pump_to_done(coordinator, store)
            except SimulatedCrash:
                store, coordinator = _crash_recover(device, seed)
        _pump_to_done(coordinator, store)
        assert all(store.get(key) == f"v{key}" for key in range(self.N))
        census = _ownership_census(store)
        for key, owners in census.items():
            assert owners == [store.router.owner(key)], key


# -- hypothesis: convergence under arbitrary crash/write interleavings -------------


class ReshardMachine(RuleBasedStateMachine):
    """Random puts/deletes/pumps/crashes; durable state must track the model.

    Every put/delete lands in the WAL before it is acknowledged, so the
    model is exact even across a crash: a lookup may degrade to MAYBE,
    but a stored key is never ABSENT and ``get`` never returns a stale
    or resurrected value once the migration completes.
    """

    KEYSPACE = 24

    def __init__(self):
        super().__init__()
        self.device = BlockDevice()
        self.clock = SimulatedClock()
        self.store = ShardedStore.create(self.device, 2, seed=7, clock=self.clock)
        self.coordinator = ReshardCoordinator(self.store, clock=self.clock)
        self.model: dict[int, str] = {}
        self.writes = 0
        self.splits = 0

    @rule(key=st.integers(0, KEYSPACE - 1), value=st.text("ab", max_size=3))
    def put(self, key, value):
        self.writes += 1
        stamp = f"{value}#{self.writes}"
        self.store.put(key, stamp)
        self.model[key] = stamp

    @rule(key=st.integers(0, KEYSPACE - 1))
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @precondition(lambda self: self.store.migration is None and self.splits < 2)
    @rule()
    def plan_split(self):
        self.splits += 1
        self.coordinator.plan_split()

    @precondition(lambda self: self.store.migration is not None)
    @rule()
    def pump(self):
        self.coordinator.pump(budget=0.5, force=True)

    @precondition(lambda self: self.store.migration is not None)
    @rule()
    def crash_and_recover(self):
        # Drop all in-memory state; the journal + WAL must reconstruct it.
        self.store = ShardedStore.recover(
            self.device, clock=SimulatedClock(), seed=7
        )
        self.coordinator = ReshardCoordinator.recover(self.store)
        self.store.scrub(repair=True)

    @invariant()
    def stored_keys_never_absent(self):
        for key, value in self.model.items():
            result = self.store.lookup(key)
            assert result.state is not Answer.ABSENT
            if result.state is Answer.PRESENT:
                assert result.value == value

    def teardown(self):
        guard = 0
        while self.store.migration is not None and guard < 10_000:
            guard += 1
            self.coordinator.pump(budget=0.5, force=True)
        assert self.store.migration is None
        for key in range(self.KEYSPACE):
            assert self.store.get(key) == self.model.get(key)
        census = _ownership_census(self.store)
        assert sorted(census) == sorted(self.model)
        for key, owners in census.items():
            assert owners == [self.store.router.owner(key)], key
        # DONE leaves nothing behind: no shard keeps any entry of a key
        # it does not own, and the journal is gone.
        assert _foreign_entries(self.store) == []
        assert _journal_blocks(self.store) == []


# 25 examples of 30 steps; the thorough profile (500 examples) runs 150 of 50.
THOROUGH = settings.default.max_examples >= 500
MACHINE_SETTINGS = settings(
    max_examples=150 if THOROUGH else 25,
    stateful_step_count=50 if THOROUGH else 30, deadline=None,
)
TestReshardStateMachine = ReshardMachine.TestCase
TestReshardStateMachine.settings = MACHINE_SETTINGS


# -- storm integration -------------------------------------------------------------


SHORT_STORM = (
    StormPhase("calm", 120, transient_read=0.0),
    StormPhase("storm", 150, transient_read=0.5, slowdown=3.0, spike_prob=0.05),
    StormPhase("recovery", 120, transient_read=0.0),
)


class TestReshardStorm:
    def _run(self, **kwargs):
        with use_registry():
            return run_reshard_storm(
                seed=kwargs.pop("seed", 0), n_keys=600, n_shards=3,
                phases=SHORT_STORM, reshard_at=80, **kwargs,
            )

    def test_migration_completes_with_zero_false_negatives(self):
        storm, reshard, _coordinator = self._run()
        assert storm.false_negatives == 0
        assert reshard.completed
        assert reshard.final_epoch == 1
        assert reshard.keys_moved > 0
        assert reshard.keys_verified >= reshard.keys_moved

    def test_crash_mid_backfill_recovers_and_completes(self):
        storm, reshard, _coordinator = self._run(crash_at_step="backfill:batch")
        assert storm.false_negatives == 0
        assert reshard.crashes == 1
        assert reshard.recoveries == 1
        assert reshard.completed

    def test_merge_storm_drops_a_shard(self):
        storm, reshard, coordinator = self._run(kind="merge")
        assert storm.false_negatives == 0
        assert reshard.completed
        assert len(reshard.final_shards) == 2

    def test_storm_is_reproducible(self):
        _s1, r1, _c1 = self._run(seed=3)
        _s2, r2, _c2 = self._run(seed=3)
        assert r1.as_dict() == r2.as_dict()

    def test_failed_plan_is_retried_at_the_next_request(self, monkeypatch):
        plan_split = ReshardCoordinator.plan_split
        calls = []

        def fail_once(coordinator, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise TransientIOError("plan record could not be verified")
            return plan_split(coordinator, **kwargs)

        monkeypatch.setattr(ReshardCoordinator, "plan_split", fail_once)
        storm, reshard, _coordinator = self._run()
        labels = [label for _t, label in reshard.events]
        assert labels[:2] == ["plan_failed", "planned"]
        assert len(calls) == 2
        assert reshard.completed
        assert storm.false_negatives == 0

    def test_crash_recovery_starts_with_every_breaker_closed(self, monkeypatch):
        stacks, open_after_recovery = [], []
        build = reshard_module.build_sharded_stack

        def build_and_keep(*args, **kwargs):
            stacks.append(build(*args, **kwargs))
            return stacks[-1]

        maybe_crash = FaultInjector.maybe_crash

        def crash_with_breakers_open(injector, step_name):
            # Trip a breaker on every block, the routing manifest's too,
            # just before the armed crash fires.
            if injector.armed_crash == step_name:
                breakers = stacks[0][0].breaker_device
                for address in breakers.addresses():
                    breaker = breakers.breaker_for(address)
                    while breaker.state is not BreakerState.OPEN:
                        breaker.record_failure()
            maybe_crash(injector, step_name)

        recover = ShardedStore.recover.__func__

        def recover_and_look(cls, device, **kwargs):
            store = recover(cls, device, **kwargs)
            open_after_recovery.append(len(device.open_breakers()))
            return store

        monkeypatch.setattr(reshard_module, "build_sharded_stack", build_and_keep)
        monkeypatch.setattr(FaultInjector, "maybe_crash", crash_with_breakers_open)
        monkeypatch.setattr(ShardedStore, "recover", classmethod(recover_and_look))
        with use_registry():
            storm, reshard, _coordinator = run_reshard_storm(
                seed=0, n_keys=600, n_shards=3,
                phases=(StormPhase("calm", 400),), reshard_at=80,
                crash_at_step="backfill",
            )
        assert reshard.crashes == 1
        assert open_after_recovery == [0]
        assert reshard.completed
        assert storm.false_negatives == 0


# The serve-sim crash matrix's storm: 200 calm, 200 storm, 200 recovery.
SERVE_SIM_STORM = (
    StormPhase("calm", 200),
    StormPhase("storm", 200, transient_read=0.6, slowdown=4.0, spike_prob=0.05),
    StormPhase("recovery", 200),
)


@pytest.mark.parametrize("crash_step", CRASH_STEPS)
def test_storm_report_counts_what_the_registry_counted(crash_step):
    """Crash recovery rebuilds state and copies no counters, so the
    report must read every count from the registry, whichever step the
    process died at, ``done`` included."""
    with use_registry() as registry:
        storm, report, _coordinator = run_reshard_storm(
            seed=100, n_keys=800, n_shards=4, phases=SERVE_SIM_STORM,
            reshard_at=150, crash_at_step=crash_step,
        )
    assert storm.false_negatives == 0
    assert report.crashes == 1 and report.completed
    reads = {
        "keys_moved": ("repro_reshard_keys_total", {"action": "moved"}),
        "keys_verified": ("repro_reshard_keys_total", {"action": "verified"}),
        "keys_retired": ("repro_reshard_keys_total", {"action": "retired"}),
        "repairs": ("repro_reshard_keys_total", {"action": "repaired"}),
        "lookups": ("repro_reshard_lookups_total", {}),
        "owner_reads": ("repro_reshard_owner_reads_total", {}),
        "double_reads": ("repro_reshard_double_reads_total", {}),
        "pump_sheds": ("repro_reshard_pump_sheds_total", {}),
    }
    for field, (name, labels) in reads.items():
        assert getattr(report, field) == registry_count(registry, name, **labels), field
    # Every moving key was copied and then verified.  A backfill batch
    # re-done after recovery is copied, and counted, twice.
    assert report.keys_moved >= report.keys_verified > 0
