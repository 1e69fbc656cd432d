"""Multi-tenant Bloofi fleet: tree maintenance, router, quota, storms.

The contract under test (docs/robustness.md):

* the Bloofi tree never produces a false ABSENT — a key inserted for a
  live tenant is always in that tenant's candidate set, through splits,
  merges, lazy removals, re-ORs, and injected degradation;
* interior ORs stay supersets of their descendant leaves at all times
  (equality right after a full re-OR);
* cached aggregate properties (tree size/height, the router's
  ``supports_deletes``) are recomputed on child membership change —
  the ``ShardedFilter.supports_deletes`` lesson applied to the tree;
* per-tenant quota buckets shed only the noisy tenant, with reason
  ``"tenant_quota"``;
* the storm harness (serve-sim ``--tenants``) holds zero false
  negatives and bounded shed through mid-storm tenant churn.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.common.clock import Answer, Deadline, SimulatedClock
from repro.core.bloofi import BloofiConfig, BloofiTree
from repro.core.interfaces import DynamicFilter
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

SMALL_TREE = BloofiConfig(
    leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4, reor_interval=1000,
)


def _loaded_tree(n_tenants: int, keys_per_tenant: int = 6, *, config=SMALL_TREE):
    tree = BloofiTree(config)
    truth = {}
    for t in range(n_tenants):
        tree.add_tenant(t)
        keys = [t * 1000 + i for i in range(keys_per_tenant)]
        tree.insert_many(t, keys)
        truth[t] = keys
    return tree, truth


class TestBloofiTree:
    def test_no_false_negatives_and_invariants(self):
        tree, truth = _loaded_tree(120)
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants

    def test_probe_count_is_logarithmic_not_linear(self):
        tree, truth = _loaded_tree(256)
        rng = random.Random(1)
        probes = []
        for _ in range(50):
            t = rng.randrange(256)
            key = truth[t][0]
            probes.append(tree.candidates(key).probes)
        # A flat scan costs 256 probes; the descent should cost a small
        # multiple of fanout * height, far below the fleet size.
        assert max(probes) < 256 * 0.4
        assert tree.height >= 2

    def test_split_grows_and_collapse_shrinks_height(self):
        tree = BloofiTree(SMALL_TREE)
        for t in range(30):
            tree.add_tenant(t)
        assert tree.height >= 1
        grown = tree.height
        for t in range(28):
            tree.remove_tenant(t)
        assert tree.height <= grown
        assert tree.check_invariants() == []

    def test_lazy_removal_is_superset_until_reor(self):
        tree, truth = _loaded_tree(64)
        for t in range(48):
            tree.remove_tenant(t)
            del truth[t]
        # Lazy removal leaves dead tenants' bits in the interior ORs —
        # a safe superset, measurable as staleness, never an invariant
        # failure and never a lost key.
        assert tree.stale_fraction() > 0.0
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants
        cleared = tree.reor()
        assert cleared > 0
        assert tree.stale_fraction() == 0.0
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants

    def test_reor_runs_automatically_on_removal_pressure(self):
        config = BloofiConfig(
            leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4,
            reor_interval=8,
        )
        tree, truth = _loaded_tree(40, config=config)
        for t in range(30):
            tree.remove_tenant(t)
        assert tree.reor_runs >= 3
        assert tree.check_invariants() == []

    def test_degraded_interior_node_descends_everything(self):
        tree, truth = _loaded_tree(64)
        key = truth[17][0]
        clean = tree.candidates(key)
        stormy = tree.candidates(key, fault=lambda kind, depth: kind == "node")
        # Degradation must widen, never narrow: every clean candidate
        # survives, and the descent records it could not prune.
        assert set(clean.tenants) <= set(stormy.tenants)
        assert 17 in stormy.tenants
        assert stormy.degraded_descents > 0

    def test_degraded_leaf_is_a_forced_candidate(self):
        tree, truth = _loaded_tree(32)
        look = tree.candidates(truth[3][0], fault=lambda kind, depth: True)
        assert sorted(look.tenants) == sorted(tree.tenant_ids())
        assert sorted(look.degraded_leaves) == sorted(tree.tenant_ids())

    def test_geometry_mismatch_rejected(self):
        from repro.filters.bloom import BloomFilter

        tree = BloofiTree(SMALL_TREE)
        with pytest.raises(ValueError, match="geometry"):
            tree.add_tenant("odd", BloomFilter(512, 0.001, seed=99))

    def test_membership_errors(self):
        tree = BloofiTree(SMALL_TREE)
        tree.add_tenant("a")
        with pytest.raises(ValueError):
            tree.add_tenant("a")
        with pytest.raises(KeyError):
            tree.remove_tenant("b")
        with pytest.raises(KeyError):
            tree.insert("b", 1)
        assert tree.candidates(1).tenants == []


class TestCachedAggregates:
    """Satellite fix: cached aggregates must be recomputed on child
    membership change — no stale answers across splits and merges."""

    @staticmethod
    def _fresh(tree, name):
        tree._agg_cache.clear()
        return getattr(tree, name)

    def test_size_and_height_track_membership_churn(self):
        tree = BloofiTree(SMALL_TREE)
        rng = random.Random(9)
        live = []
        next_id = 0
        for step in range(300):
            cached_size, cached_height = tree.size_in_bits, tree.height
            assert cached_size == self._fresh(tree, "size_in_bits")
            assert cached_height == self._fresh(tree, "height")
            if live and rng.random() < 0.4:
                t = live.pop(rng.randrange(len(live)))
                tree.remove_tenant(t)
            else:
                tree.add_tenant(next_id)
                tree.insert(next_id, next_id)
                live.append(next_id)
                next_id += 1
            # The mutation just above must have invalidated the cache:
            # a membership change that kept serving the old aggregate is
            # exactly the ShardedFilter.supports_deletes bug shape.
            assert tree.size_in_bits == self._fresh(tree, "size_in_bits")
            assert tree.height == self._fresh(tree, "height")

    def test_size_in_bits_regression_add_after_read(self):
        """Regression shape: read the cached aggregate, then change
        membership, then read again — the second read must see the new
        fleet, not the memo."""
        tree = BloofiTree(SMALL_TREE)
        for t in range(10):
            tree.add_tenant(t)
        before = tree.size_in_bits
        tree.add_tenant("late")
        assert tree.size_in_bits > before
        tree.remove_tenant("late")
        assert tree.size_in_bits == before


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
            TenantConfig(n_trees=2, leaf_capacity=32, seed=3),
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
        router = TenantRouter(TenantConfig(n_trees=2, seed=3))
        assert not router.supports_deletes


class TestTenantRouter:
    def test_router_and_flat_agree_everywhere(self):
        router = TenantRouter(TenantConfig(n_trees=3, leaf_capacity=64, seed=11))
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
        router = TenantRouter(TenantConfig(n_trees=2, leaf_capacity=64, seed=1))
        for t in range(200):
            router.add_tenant(t)
            router.insert(t, t)
        look = router.query(5)
        flat = router.query_flat(5)
        assert look.probes < flat.probes
        assert flat.probes >= 200

    def test_placement_uses_every_tree(self):
        router = TenantRouter(TenantConfig(n_trees=4, seed=0))
        for t in range(64):
            router.add_tenant(t)
        assert all(len(tree) > 0 for tree in router.trees.values())


class _StoreReadLatency:
    """Ground-truth reads take one simulated second; filter probes are free."""

    def draw(self, _now, _op, detail):
        return 1.0 if detail == ("store",) else 0.0


class TestTenantStoreLookup:
    def test_deadline_counts_the_candidates_left_unresolved(self):
        router = TenantRouter(TenantConfig(n_trees=1, seed=2))
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
        router = TenantRouter(TenantConfig(n_trees=1, seed=2))
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
            by_level = registry.get("repro_tenant_probes_by_level_total")
            assert sum(child.value for _labels, child in by_level.series()) == sum(
                look.probes_by_level.values()
            )


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
        # Churn really happened mid-storm, under fire.
        assert rep.tenants_added > 10 and rep.tenants_removed > 10
        # Lazy removals produced staleness and the drain re-OR shed it.
        assert rep.stale_bits_cleared > 0
        assert store.router.stale_fraction() == 0.0
