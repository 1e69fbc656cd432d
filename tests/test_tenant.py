"""Multi-tenant Flat-Bloofi fleet: the bit-sliced index, router, quota, storms.

The contract under test (docs/robustness.md):

* fault-free, the index's candidates are exactly the tenants whose
  summary Bloom filter, built from their current keys, answers MAYBE —
  through slot reuse, row growth, removals and duplicate keys;
* removing a tenant clears its column, so every free or unused slot is
  all zeros (``check_invariants``);
* an unreadable (row, line) read reads as all ones over the occupied
  slots: faults only widen the candidate set, and the lookup is marked
  degraded;
* the router's ``supports_deletes`` is recomputed from the live fleet —
  the ``ShardedFilter.supports_deletes`` lesson;
* per-tenant quota buckets shed only the noisy tenant, with reason
  ``"tenant_quota"``;
* the storm harness (serve-sim ``--tenants``) holds zero false
  negatives and bounded shed through mid-storm tenant churn.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.clock import Answer, Deadline, SimulatedClock
from repro.common.faults import FaultInjector
from repro.core.bloofi import LINE_SLOTS, BloofiTree
from repro.core.interfaces import DynamicFilter
from repro.filters.bloom import BloomFilter
from repro.obs import use_registry
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Priority,
    ServeOutcome,
    TenantConfig,
    TenantQuota,
    TenantRouter,
    TenantStore,
    run_tenant_storm,
)

CHAOS_SEEDS = [int(os.environ.get("REPRO_CHAOS_SEED", "0")) + i for i in range(3)]

LEAF = dict(leaf_capacity=32, epsilon=0.05, seed=5)


def _loaded_index(n_tenants: int, keys_per_tenant: int = 6):
    index = BloofiTree(**LEAF)
    truth = {t: [t * 1000 + i for i in range(keys_per_tenant)] for t in range(n_tenants)}
    index.add_tenants(truth.items())
    return index, truth


def _reference(keys) -> BloomFilter:
    """The summary a tenant with *keys* must have: a leaf-geometry Bloom filter."""
    ref = BloomFilter(LEAF["leaf_capacity"], LEAF["epsilon"], seed=LEAF["seed"])
    ref.insert_many(list(keys))
    return ref


class TestBloofiTree:
    def test_no_false_negatives_and_invariants(self):
        index, truth = _loaded_index(120)
        assert index.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in index.candidates(key).tenants

    def test_probe_count_is_logarithmic_not_linear(self):
        index, truth = _loaded_index(256)
        rng = random.Random(1)
        probes = []
        for _ in range(50):
            t = rng.randrange(256)
            key = truth[t][0]
            probes.append(index.candidates(key).probes)
        # A flat scan costs 256 probes; the index ANDs k rows over one
        # 512-slot line per probe.
        assert max(probes) < 256 * 0.4

    def test_rows_grow_one_word_only_when_no_slot_is_free(self):
        index = BloofiTree(**LEAF)
        index.add_tenants((t, ()) for t in range(10))
        assert (index.n_slots, index.size_in_bits) == (64, 64 * index.m)
        index.add_tenant("late")
        index.remove_tenant("late")
        index.add_tenants((t, ()) for t in range(10, 64))
        assert index.n_slots == 64
        index.add_tenant(64)
        assert (index.n_slots, index.size_in_bits) == (128, 128 * index.m)
        assert index.candidates(1).probes == 1
        index.add_tenants((t, ()) for t in range(65, LINE_SLOTS + 1))
        assert index.candidates(1).probes == 2
        assert index.check_invariants() == []

    def test_removal_clears_the_column(self):
        index, truth = _loaded_index(64)
        for t in range(48):
            index.remove_tenant(t)
            del truth[t]
        # Nothing of a removed tenant is left: the index equals one
        # built from the survivors alone, bit for bit.
        assert index.check_invariants() == []
        survivors = BloofiTree(**LEAF)
        survivors.add_tenants((t, ()) for t in range(48))
        survivors.add_tenants(truth.items())
        for t in range(48):
            survivors.remove_tenant(t)
        assert index._rows.tobytes() == survivors._rows.tobytes()
        # A reused slot starts empty: the newcomer inherits no bits.
        index.add_tenant("fresh", [7])
        assert index.check_invariants() == []
        for key in (0, 1000, 47_000):
            assert "fresh" not in index.candidates(key).tenants

    def test_unreadable_line_widens_candidates(self):
        index, truth = _loaded_index(64)
        key = truth[17][0]
        reads = []

        def first_read_fails(kind, detail):
            reads.append((kind, detail))
            return len(reads) == 1

        clean = index.candidates(key)
        stormy = index.candidates(key, fault=first_read_fails)
        assert set(clean.tenants) <= set(stormy.tenants)
        assert 17 in stormy.tenants
        assert stormy.unreadable == 1
        assert reads[0] == ("row", (int(index.positions(key)[0]), 0))

    def test_unreadable_index_lists_every_tenant(self):
        index, truth = _loaded_index(32)
        index.remove_tenant(5)
        look = index.candidates(truth[3][0], fault=lambda kind, detail: True)
        # All ones, masked to the occupied slots: never a free slot.
        assert sorted(look.tenants) == sorted(index.tenant_ids())
        assert look.unreadable == index.k * look.probes

    def test_membership_errors(self):
        index = BloofiTree(**LEAF)
        index.add_tenant("a")
        with pytest.raises(ValueError):
            index.add_tenant("a")
        with pytest.raises(ValueError):
            index.add_tenants([("b", []), ("b", [1])])
        assert index.tenant_ids() == ["a"] and index.check_invariants() == []
        with pytest.raises(KeyError):
            index.remove_tenant("b")
        with pytest.raises(KeyError):
            index.insert("b", 1)
        assert index.candidates(1).tenants == []


# -- the index against per-tenant reference filters -------------------------------

# Batch sizes cross one 64-slot word and one 512-slot line.
index_ops = st.lists(st.one_of(
    st.tuples(st.just("add_tenants"), st.sampled_from([1, 3, 70, LINE_SLOTS + 9]),
              st.integers(0, 2**16)),
    st.tuples(st.just("add_tenant"), st.integers(0, 6), st.integers(0, 2**16)),
    st.tuples(st.just("remove_tenant"), st.integers(0, 2**16), st.integers(0, 2**16)),
    st.tuples(st.just("remove_many"), st.integers(1, 90), st.integers(0, 2**16)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(0, 60)),
    st.tuples(st.just("insert_many"), st.integers(0, 2**16), st.integers(0, 2**16)),
), min_size=1, max_size=12)

KEY_POOL = 60  # a small pool: keys repeat inside a tenant and across tenants


def _keys(rng: random.Random) -> list:
    return [rng.randrange(KEY_POOL) for _ in range(rng.choice([0, 1, 3, 8]))]


def _apply(index: BloofiTree, model: dict, ops, counter: list) -> None:
    for op, a, b in ops:
        rng = random.Random(b)
        live = sorted(model)
        if op == "add_tenants":
            batch = [(counter[0] + i, _keys(rng)) for i in range(a)]
            counter[0] += a
            index.add_tenants(batch)
            model.update((t, set(keys)) for t, keys in batch)
        elif op == "add_tenant":
            keys = [rng.randrange(KEY_POOL) for _ in range(a)]
            index.add_tenant(counter[0], keys)
            model[counter[0]] = set(keys)
            counter[0] += 1
        elif op == "remove_tenant" and live:
            victim = live[a % len(live)]
            index.remove_tenant(victim)
            del model[victim]
        elif op == "remove_many":
            for victim in rng.sample(live, min(a, len(live))):
                index.remove_tenant(victim)
                del model[victim]
        elif op == "insert" and live:
            tenant = live[a % len(live)]
            index.insert(tenant, b)
            model[tenant].add(b)
        elif op == "insert_many" and live:
            tenant = live[a % len(live)]
            keys = _keys(rng)
            index.insert_many(tenant, keys)
            model[tenant].update(keys)


def _probe_keys() -> list:
    return list(range(KEY_POOL)) + [10**9 + i for i in range(20)]


def assert_index_exact(index: BloofiTree, model: dict) -> None:
    """Fault-free candidates equal the reference filters' answers, each
    tenant's words equal its reference's, every unreadable read lists
    exactly the live tenants, and the slot audit is clean."""
    assert index.check_invariants() == []
    probes = _probe_keys()
    refs = {t: _reference(keys) for t, keys in model.items()}
    answers = {t: ref.may_contain_many(probes) for t, ref in refs.items()}
    for i, key in enumerate(probes):
        want = sorted(t for t, hits in answers.items() if hits[i])
        assert sorted(index.candidates(key).tenants) == want, key
    tenants, words = index.tenant_words()
    assert sorted(tenants) == sorted(model)
    for tenant, row in zip(tenants, words):
        assert row.tobytes() == refs[tenant]._bits.words.tobytes(), tenant
    unreadable = index.candidates(probes[0], fault=lambda kind, detail: True)
    assert sorted(unreadable.tenants) == sorted(model)


@given(ops=index_ops)
def test_index_equals_reference_filters(ops):
    index = BloofiTree(**LEAF)
    model: dict = {}
    _apply(index, model, ops, [0])
    assert_index_exact(index, model)


@given(ops=index_ops, fault_seed=st.integers(0, 2**16),
       rate=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_faults_only_widen_candidates(ops, fault_seed, rate):
    index = BloofiTree(**LEAF)
    model: dict = {}
    _apply(index, model, ops, [0])
    rng = random.Random(fault_seed)
    for key in _probe_keys():
        failed = []

        def fault(kind, detail):
            failed.append(rng.random() < rate)
            return failed[-1]

        clean = index.candidates(key)
        stormy = index.candidates(key, fault=fault)
        assert set(clean.tenants) <= set(stormy.tenants) <= set(model)
        assert stormy.unreadable == sum(failed)
        assert len(failed) == index.k * stormy.probes


def test_an_unreadable_index_read_degrades_the_lookup():
    router = TenantRouter(TenantConfig(**LEAF))
    injector = FaultInjector(seed=1)
    store = TenantStore(router, SimulatedClock(), injector=injector)
    store.add_tenants((t, [t]) for t in range(40))
    assert store.lookup(10**9).state is Answer.ABSENT
    injector.transient_read = {"tenant_row": 1.0, "*": 0.0}
    result = store.lookup(10**9)
    assert (result.state, result.complete, result.reason) == (
        Answer.MAYBE, False, "unavailable")
    # A stored key is still found, through every unreadable line.
    assert (store.lookup(3).state, store.lookup(3).value) == (Answer.PRESENT, 3)


class _ShrinkingAuth(DynamicFilter):
    """Authoritative filter that loses delete support as it grows —
    the same shape as test_differential._ShrinkingShard."""

    supports_deletes = True

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._keys: set = set()

    def insert(self, key):
        self._keys.add(key)
        if len(self._keys) > self.capacity:
            self.supports_deletes = False

    def may_contain(self, key):
        return key in self._keys

    def delete(self, key):
        assert self.supports_deletes
        self._keys.discard(key)

    def __len__(self):
        return len(self._keys)

    @property
    def size_in_bits(self):
        return 64 * len(self._keys)


class TestRouterSupportsDeletes:
    def test_recomputed_from_live_fleet(self):
        router = TenantRouter(
            TenantConfig(leaf_capacity=32, seed=3),
            filter_factory=lambda t: _ShrinkingAuth(capacity=3),
        )
        for t in range(4):
            router.add_tenant(t)
        assert router.supports_deletes
        for key in range(8):  # overflow tenant 0's authoritative filter
            router.insert(0, key)
        assert not router.supports_deletes, (
            "supports_deletes must be recomputed from live tenants"
        )
        # Deprovisioning the degraded tenant restores the capability.
        router.remove_tenant(0)
        assert router.supports_deletes

    def test_empty_fleet_has_no_delete_support(self):
        router = TenantRouter(TenantConfig(seed=3))
        assert not router.supports_deletes


class TestTenantRouter:
    def test_router_and_flat_agree_everywhere(self):
        router = TenantRouter(TenantConfig(leaf_capacity=64, seed=11))
        rng = random.Random(11)
        truth = {}
        for t in range(80):
            router.add_tenant(t)
            keys = [rng.randrange(1 << 30) for _ in range(8)]
            router.insert_many(t, keys)
            truth[t] = keys
        probes = (
            [keys[0] for keys in truth.values()]
            + [rng.randrange(1 << 30) for _ in range(200)]
        )
        for key in probes:
            tree_hits = sorted(router.query(key).tenants, key=repr)
            flat_hits = sorted(router.query_flat(key).tenants, key=repr)
            assert tree_hits == flat_hits, f"paths diverge on key {key}"
        assert router.check_invariants() == []

    def test_router_probes_beat_flat(self):
        router = TenantRouter(TenantConfig(leaf_capacity=64, seed=1))
        for t in range(200):
            router.add_tenant(t)
            router.insert(t, t)
        look = router.query(5)
        flat = router.query_flat(5)
        assert look.probes < flat.probes
        assert flat.probes >= 200


class _StoreReadLatency:
    """Ground-truth reads take one simulated second; filter probes are free."""

    def draw(self, _now, _op, detail):
        return 1.0 if detail == ("store",) else 0.0


class TestTenantStoreLookup:
    def test_deadline_counts_the_candidates_left_unresolved(self):
        router = TenantRouter(TenantConfig(seed=2))
        clock = SimulatedClock()
        store = TenantStore(router, clock, latency=_StoreReadLatency())
        for t in range(3):
            store.add_tenant(t)
            router.insert(t, 7)  # a filter positive the tenant does not store
        # The first ground-truth read ends in budget; the second does not.
        result = store.lookup(7, deadline=Deadline(clock, 1.5))
        assert (result.state, result.reason) == (Answer.MAYBE, "deadline")
        assert result.runs_skipped == 2

    def test_registry_swap_between_lookups_meters_into_the_new_one(self):
        router = TenantRouter(TenantConfig(seed=2))
        store = TenantStore(router, SimulatedClock())
        store.add_tenant(0, [1, 2, 3])
        registries = []
        for key in (1, 99):
            with use_registry() as registry:
                look = router.query(key)
                store.lookup(key)
            registries.append((registry, look))
        for registry, look in registries:
            counter = registry.get("repro_tenant_probes_total")
            assert counter.labels(mode="router").value == look.probes > 0


class TestTenantQuota:
    def _admission(self, quota: TenantQuota) -> tuple:
        clock = SimulatedClock()
        admission = AdmissionController(
            clock, AdmissionConfig(tenant_quota=quota)
        )
        return clock, admission

    def test_noisy_tenant_shed_with_quota_reason(self):
        clock, admission = self._admission(TenantQuota(rate=10.0, burst=2.0))
        for _ in range(2):
            decision = admission.admit(clock.now(), Priority.NORMAL, tenant="noisy")
            assert decision.admitted
        decision = admission.admit(clock.now(), Priority.NORMAL, tenant="noisy")
        assert not decision.admitted and decision.reason == "tenant_quota"
        # The quiet tenant's bucket is untouched: isolation, not global
        # throttling.
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="quiet").admitted
        assert admission.stats.shed_by_tenant == {"noisy": 1}

    def test_bucket_refills_with_time(self):
        clock, admission = self._admission(TenantQuota(rate=10.0, burst=1.0))
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        clock.advance(0.2)  # 2 tokens earned, capped at burst=1
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted

    def test_forget_tenant_drops_bucket(self):
        clock, admission = self._admission(TenantQuota(rate=0.001, burst=1.0))
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        admission.forget_tenant("t")
        # A re-provisioned tenant starts with a fresh burst allowance.
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted

    def test_untenanted_requests_bypass_quota(self):
        clock, admission = self._admission(TenantQuota(rate=0.001, burst=1.0))
        for _ in range(5):
            assert admission.admit(clock.now(), Priority.NORMAL).admitted


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestTenantStorm:
    """Satellite: 3-seed serve-sim smoke — zero false negatives and
    bounded shed through a fault storm, with and without churn."""

    def _run(self, seed: int, churn_every: int):
        with use_registry():
            storm, rep, store = run_tenant_storm(
                seed=seed,
                n_tenants=48,
                churn_every=churn_every,
                quota=TenantQuota(rate=400.0, burst=40.0),
            )
        return storm, rep, store

    def _assert_contract(self, storm, rep):
        assert storm.false_negatives == 0
        assert rep.audit_false_negatives == 0
        assert rep.invariant_failures == 0
        # Shedding is the mechanism, not the steady state: the calm and
        # recovery phases must stay mostly served.
        shed_rate = storm.total(ServeOutcome.SHED) / storm.n_requests
        assert shed_rate <= 0.35
        assert storm.goodput() >= 0.4

    def test_storm_without_churn(self, seed):
        storm, rep, store = self._run(seed, churn_every=0)
        self._assert_contract(storm, rep)
        assert rep.tenants_added == 0 and rep.tenants_removed == 0
        assert rep.n_tenants_final == rep.n_tenants_start

    def test_storm_with_churn(self, seed):
        storm, rep, store = self._run(seed, churn_every=8)
        self._assert_contract(storm, rep)
        # Churn really happened mid-storm, under fire, and every
        # removal cleared its column.
        assert rep.tenants_added > 10 and rep.tenants_removed > 10
        assert store.router.check_invariants() == []
