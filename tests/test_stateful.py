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
from repro.core.bloofi import BloofiConfig, BloofiTree
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
    """LSM-tree vs a plain dict, across puts/deletes/flushes/range scans.

    Run under every compaction policy: leveling merges a level's runs
    into the run already at the destination, so newest-wins and the
    bottom-level tombstone drop are checked across source and
    destination runs too.  Every key is checked after every step, so a
    merge that resurrects or reverts a key fails where it happens.
    """

    def __init__(self, compaction: str):
        super().__init__()
        self.tree = LSMTree(
            LSMConfig(compaction=compaction, memtable_entries=8, size_ratio=3)
        )
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
    """Bloofi tree maintenance vs an exact tenant->keys model.

    Random interleavings of add-tenant / remove-tenant / insert / query
    / full re-OR, with the two fleet-safety invariants audited after
    *every* step: a key the model holds is never answered falsely ABSENT
    (its tenant is always in the candidate set), and every interior OR
    stays a bitwise superset of its descendant leaves — the property
    that makes pruning safe.  Splits, merges, root growth/collapse, and
    lazy-removal staleness all happen along the way; none may bend
    either invariant.
    """

    def __init__(self):
        super().__init__()
        # Tight fanout so splits/merges fire within hypothesis-sized
        # runs; short reor_interval so automatic re-ORs interleave too.
        self.tree = BloofiTree(BloofiConfig(
            leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4,
            reor_interval=6,
        ))
        self.model: dict[int, set[int]] = {}
        self.next_tenant = 0

    @rule()
    def add_tenant(self):
        tenant = self.next_tenant
        self.next_tenant += 1
        self.tree.add_tenant(tenant)
        self.model[tenant] = set()

    @rule(data=st.data())
    def remove_tenant(self, data):
        if not self.model:
            return
        tenant = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.remove_tenant(tenant)
        del self.model[tenant]

    @rule(key=KEYS, data=st.data())
    def insert(self, key, data):
        if not self.model:
            return
        tenant = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.insert(tenant, key)
        self.model[tenant].add(key)

    @rule()
    def reor(self):
        self.tree.reor()
        assert self.tree.stale_fraction() == 0.0

    @rule(key=KEYS)
    def query_includes_every_holder(self, key):
        candidates = set(self.tree.candidates(key).tenants)
        for tenant, keys in self.model.items():
            if key in keys:
                assert tenant in candidates, (
                    f"false ABSENT: tenant {tenant} holds {key} but was pruned"
                )

    @invariant()
    def interior_ors_superset_of_leaves(self):
        # check_invariants() includes the superset audit at every node,
        # leaf-depth uniformity, fanout bounds, and leaf-count caching.
        assert self.tree.check_invariants() == []

    @invariant()
    def no_false_absent_for_any_model_key(self):
        for tenant, keys in self.model.items():
            for key in keys:
                assert tenant in self.tree.candidates(key).tenants


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


@pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
def test_lsm_machine(compaction):
    run_state_machine_as_test(
        lambda: LSMMachine(compaction),
        settings=settings(max_examples=25, stateful_step_count=30, deadline=None),
    )
