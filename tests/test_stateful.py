"""Hypothesis rule-based state machines: long random operation sequences
checked against exact reference models.

These complement the per-module tests: a state machine explores orderings
(insert/delete/query/flush interleavings) that hand-written tests miss.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.apps.lsm import LSMConfig, LSMTree
from repro.core.bloofi import BloofiTree
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.quotient import QuotientFilter

KEYS = st.integers(min_value=0, max_value=400)


class QuotientFilterMachine(RuleBasedStateMachine):
    """QF vs an exact fingerprint multiset (same collision behaviour)."""

    def __init__(self):
        super().__init__()
        self.qf = QuotientFilter(6, 5, seed=3)
        self.model: dict[int, int] = {}  # fingerprint -> multiplicity

    def _fp(self, key: int) -> int:
        return self.qf._fingerprint(key)

    @rule(key=KEYS)
    def insert(self, key):
        if len(self.qf) >= self.qf.capacity:
            return
        self.qf.insert(key)
        fp = self._fp(key)
        self.model[fp] = self.model.get(fp, 0) + 1

    @rule(key=KEYS)
    def delete_if_present(self, key):
        fp = self._fp(key)
        if self.model.get(fp, 0) > 0:
            self.qf.delete(key)
            self.model[fp] -= 1
            if self.model[fp] == 0:
                del self.model[fp]

    @rule(key=KEYS)
    def query_matches_model(self, key):
        assert self.qf.may_contain(key) == (self._fp(key) in self.model)

    @invariant()
    def count_matches(self):
        assert len(self.qf) == sum(self.model.values())

    @invariant()
    def stored_fingerprints_match(self):
        stored = sorted(self.qf.iter_fingerprints())
        expected = sorted(f for f, c in self.model.items() for _ in range(c))
        assert stored == expected


class CuckooFilterMachine(RuleBasedStateMachine):
    """Cuckoo filter vs a key multiset: membership is never lost."""

    def __init__(self):
        super().__init__()
        self.cf = CuckooFilter(64, 14, seed=5)
        self.members: dict[int, int] = {}

    @rule(key=KEYS)
    def insert(self, key):
        if len(self.cf) >= int(self.cf.n_slots * 0.9):
            return
        # A key fits in at most two buckets, so the structure can hold at
        # most 2*bucket_size copies of it; further duplicates are a legal
        # FilterFullError, not a bug.
        if self.members.get(key, 0) >= 2 * self.cf.bucket_size:
            return
        self.cf.insert(key)
        self.members[key] = self.members.get(key, 0) + 1

    @rule(key=KEYS)
    def delete_if_present(self, key):
        if self.members.get(key, 0) > 0:
            self.cf.delete(key)
            self.members[key] -= 1
            if self.members[key] == 0:
                del self.members[key]

    @invariant()
    def no_false_negatives(self):
        for key in self.members:
            assert self.cf.may_contain(key)

    @invariant()
    def count_matches(self):
        assert len(self.cf) == sum(self.members.values())


# A small key space, so keys recur across runs and every merge has
# versions and tombstones to reconcile.
LSM_KEY_SPACE = 32
LSM_KEYS = st.integers(min_value=0, max_value=LSM_KEY_SPACE - 1)


class LSMMachine(RuleBasedStateMachine):
    """LSM-tree vs a plain dict, across puts/deletes/flushes/range scans
    and crashes.

    Run under every compaction policy: leveling merges a level's runs
    into the run already at the destination, so newest-wins and the
    bottom-level tombstone drop are checked across source and
    destination runs too.  Every key is checked after every step, so a
    merge that resurrects or reverts a key fails where it happens, and
    so does a recovery that drops or reverts one.  Run with one page
    per run and with four-entry pages, the unit every read, recovery
    and scrub works in.
    """

    def __init__(self, compaction: str, page_entries: int = 0):
        super().__init__()
        self.config = LSMConfig(compaction=compaction, memtable_entries=8, size_ratio=3,
                                page_entries=page_entries)
        self.tree = LSMTree(self.config)
        self.model: dict[int, int] = {}

    @rule(key=LSM_KEYS, value=st.integers(min_value=0, max_value=1000))
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=LSM_KEYS)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.tree.flush()

    @rule()
    def crash_and_recover(self):
        # The process dies: only the device survives, and the pages, the
        # manifest and the WAL on it must rebuild every acknowledged key.
        self.tree = LSMTree.recover(self.tree.device, self.config)
        report = self.tree.recovery_report
        assert (report.runs_lost, report.wal_lost) == (0, 0)

    @rule(lo=LSM_KEYS, width=st.integers(min_value=0, max_value=50))
    def range_matches_model(self, lo, width):
        hi = lo + width
        expected = {k: v for k, v in self.model.items() if lo <= k <= hi}
        assert self.tree.range_query(lo, hi) == dict(sorted(expected.items()))

    @invariant()
    def every_key_matches_model(self):
        for key in range(LSM_KEY_SPACE):
            assert self.tree.get(key, default=None) == self.model.get(key)


class BloofiMachine(RuleBasedStateMachine):
    """The Flat-Bloofi index vs an exact tenant->keys model.

    Random interleavings of add-tenant(s) / remove-tenant / insert /
    insert-many / query, audited after *every* step: a key the model
    holds is never answered falsely ABSENT (its tenant is always a
    candidate), the candidates equal those of per-tenant reference Bloom
    filters built from the model's keys, and the slot audit is clean
    (every free slot's column is all zeros).  Slot reuse and row growth
    past a 64-slot word happen along the way.
    """

    LEAF = (32, 0.05, 5)  # leaf_capacity, epsilon, seed

    def __init__(self):
        super().__init__()
        capacity, epsilon, seed = self.LEAF
        self.index = BloofiTree(capacity, epsilon, seed=seed)
        self.model: dict[int, set[int]] = {}
        self.next_tenant = 0

    @rule(keys=st.lists(KEYS, max_size=4))
    def add_tenant(self, keys):
        self.index.add_tenant(self.next_tenant, keys)
        self.model[self.next_tenant] = set(keys)
        self.next_tenant += 1

    @rule(n=st.sampled_from([2, 70]), keys=st.lists(KEYS, max_size=6))
    def add_tenants(self, n, keys):
        batch = [(self.next_tenant + i, keys[i % 3::3]) for i in range(n)]
        self.index.add_tenants(batch)
        self.model.update((tenant, set(ks)) for tenant, ks in batch)
        self.next_tenant += n

    @rule(data=st.data())
    def remove_tenant(self, data):
        if not self.model:
            return
        tenant = data.draw(st.sampled_from(sorted(self.model)))
        self.index.remove_tenant(tenant)
        del self.model[tenant]

    @rule(key=KEYS, data=st.data())
    def insert(self, key, data):
        if not self.model:
            return
        tenant = data.draw(st.sampled_from(sorted(self.model)))
        self.index.insert(tenant, key)
        self.model[tenant].add(key)

    @rule(keys=st.lists(KEYS, max_size=5), data=st.data())
    def insert_many(self, keys, data):
        if not self.model:
            return
        tenant = data.draw(st.sampled_from(sorted(self.model)))
        self.index.insert_many(tenant, keys)
        self.model[tenant].update(keys)

    @rule(key=KEYS)
    def query_includes_every_holder(self, key):
        candidates = set(self.index.candidates(key).tenants)
        for tenant, keys in self.model.items():
            if key in keys:
                assert tenant in candidates, (
                    f"false ABSENT: tenant {tenant} holds {key} but was pruned"
                )

    @invariant()
    def slot_audit_is_clean(self):
        assert self.index.check_invariants() == []

    @invariant()
    def candidates_equal_reference_filters(self):
        capacity, epsilon, seed = self.LEAF
        probes = sorted(set().union(*self.model.values())) + [1_000, 1_001]
        refs = {}
        for tenant, keys in self.model.items():
            refs[tenant] = BloomFilter(capacity, epsilon, seed=seed)
            refs[tenant].insert_many(sorted(keys))
        hits = {tenant: ref.may_contain_many(probes) for tenant, ref in refs.items()}
        for i, key in enumerate(probes):
            candidates = sorted(self.index.candidates(key).tenants)
            assert candidates == sorted(t for t, h in hits.items() if h[i]), key
            for tenant, keys in self.model.items():
                assert key not in keys or tenant in candidates  # no false ABSENT


TestQuotientFilterMachine = QuotientFilterMachine.TestCase
TestQuotientFilterMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestCuckooFilterMachine = CuckooFilterMachine.TestCase
TestCuckooFilterMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestBloofiMachine = BloofiMachine.TestCase
TestBloofiMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


# 25 examples of 30 steps; the thorough profile (500 examples) runs 150 of 50.
THOROUGH = settings.default.max_examples >= 500
LSM_MACHINE_SETTINGS = settings(
    max_examples=150 if THOROUGH else 25,
    stateful_step_count=50 if THOROUGH else 30, deadline=None,
)
COMPACTIONS = ["leveling", "tiering", "lazy-leveling"]


@pytest.mark.parametrize("compaction", COMPACTIONS)
def test_lsm_machine(compaction):
    run_state_machine_as_test(lambda: LSMMachine(compaction), settings=LSM_MACHINE_SETTINGS)


@pytest.mark.parametrize("compaction", COMPACTIONS)
def test_paged_lsm_machine(compaction):
    run_state_machine_as_test(lambda: LSMMachine(compaction, page_entries=4),
                              settings=LSM_MACHINE_SETTINGS)
