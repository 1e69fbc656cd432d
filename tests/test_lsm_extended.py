"""Extended LSM tests: tombstone deletes, the purge step, GRF mode, crate filter."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apps.lsm import LSMConfig, LSMTree, TOMBSTONE
from repro.common.faults import FaultInjector, FaultyBlockDevice
from repro.core.errors import DeletionError, FilterFullError
from repro.filters.crate import CrateFilter
from repro.rangefilters.snarf import SNARF
from tests.conftest import measured_fpr


def _fill(tree: LSMTree, n: int, seed: int = 0) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 30, size=n, replace=False)
    data = {}
    for i, key in enumerate(int(k) for k in keys):
        tree.put(key, i)
        data[key] = i
    return data


class TestTombstones:
    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    def test_delete_hides_key(self, compaction):
        tree = LSMTree(LSMConfig(compaction=compaction, memtable_entries=16))
        data = _fill(tree, 300, seed=1)
        victims = list(data)[::7]
        for key in victims:
            tree.delete(key)
        tree.flush()
        for key in victims:
            assert tree.get(key, default="gone") == "gone"
        survivors = [k for k in data if k not in set(victims)]
        for key in survivors[::11]:
            assert tree.get(key) == data[key]

    def test_delete_then_reinsert(self):
        tree = LSMTree(LSMConfig(memtable_entries=8))
        tree.put(42, "v1")
        tree.delete(42)
        tree.put(42, "v2")
        tree.flush()
        assert tree.get(42) == "v2"

    def test_range_query_excludes_tombstoned(self):
        tree = LSMTree(LSMConfig(memtable_entries=16))
        for key in range(100, 200):
            tree.put(key, key)
        for key in range(150, 160):
            tree.delete(key)
        tree.flush()
        result = tree.range_query(100, 199)
        assert set(result) == set(range(100, 150)) | set(range(160, 200))

    def test_tombstones_dropped_at_bottom(self):
        tree = LSMTree(
            LSMConfig(compaction="leveling", memtable_entries=8, size_ratio=2)
        )
        for key in range(64):
            tree.put(key, key)
        for key in range(64):
            tree.delete(key)
        # Enough extra churn to push everything through the bottom merge.
        for key in range(1000, 1400):
            tree.put(key, key)
        on_disk_values = [
            v for level in tree._levels for run in level for v in run.values
        ]
        assert sum(1 for v in on_disk_values if v is TOMBSTONE) < 64


def _churned(compaction="leveling", page_entries=0, device=None):
    """A tree whose keys 0..47 hold older versions and tombstones in
    several runs and in the memtable; returns it with its model."""
    config = LSMConfig(compaction=compaction, memtable_entries=8, size_ratio=3,
                       page_entries=page_entries)
    tree = LSMTree(config, device=FaultyBlockDevice() if device is None else device)
    rng, model = random.Random(5), {}
    for i in range(100):
        key = rng.randrange(48)
        if rng.random() < 0.3:
            tree.delete(key)
            model.pop(key, None)
        else:
            tree.put(key, i)
            model[key] = i
    return tree, model


def _rejected(key) -> bool:
    return key % 3 == 0


def _entries(tree: LSMTree) -> list:
    """Every key the tree holds an entry of: live, shadowed or tombstone."""
    return [*tree._memtable, *(k for level in tree._levels for run in level for k in run.keys)]


def _purge(tree: LSMTree, limit: int = 100) -> int:
    for steps in range(limit):
        if tree.purge_step(_rejected) is None:
            return steps
    raise AssertionError("purge did not converge")


class TestPurgeStep:
    """The compaction-filter step that online resharding's RETIRE runs."""

    @pytest.mark.parametrize("page_entries", [0, 4])
    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    def test_drops_every_rejected_entry_and_keeps_each_run_in_place(
            self, compaction, page_entries):
        tree, model = _churned(compaction, page_entries)
        assert any(map(_rejected, tree._memtable))
        shadowed = [k for level in tree._levels for run in level for k, v in
                    zip(run.keys, run.values) if _rejected(k) and v is not TOMBSTONE]
        tombstones = [k for level in tree._levels for run in level for k, v in
                      zip(run.keys, run.values) if _rejected(k) and v is TOMBSTONE]
        assert shadowed and tombstones
        while True:
            rewrites = not any(map(_rejected, tree._memtable))
            before = {run.seq: run.level for level in tree._levels for run in level}
            if tree.purge_step(_rejected) is None:
                break
            after = {run.seq: run.level for level in tree._levels for run in level}
            # Oldest first: a rejected key reads its last value or nothing,
            # never a version its dropped successor shadowed.
            assert all(tree.get(k) in (model.get(k), None) for k in range(48) if _rejected(k))
            if rewrites:
                # A rewrite keeps every other run, and its run's level and
                # sequence unless nothing of it was left.
                assert after.items() <= before.items()
                assert len(before) - len(after) <= 1
        assert [k for k in _entries(tree) if _rejected(k)] == []
        kept = {k: v for k, v in model.items() if not _rejected(k)}
        assert dict(tree.items()) == kept
        assert tree.scrub(repair=False).corrupt == []
        # Each rewritten run's filter covers exactly what it kept.
        for level in tree._levels:
            for run in level:
                assert not run.keys or all(run.filter.may_contain_many(run.keys))

    @pytest.mark.parametrize("page_entries", [0, 4])
    def test_a_recovery_between_any_two_steps_converges(self, page_entries):
        steps = _purge(_churned(page_entries=page_entries)[0])
        assert steps > 2
        for crash_after in range(steps + 1):
            tree, model = _churned(page_entries=page_entries)
            for _ in range(crash_after):
                tree.purge_step(_rejected)
            kept = {k: v for k, v in model.items() if not _rejected(k)}
            recovered = LSMTree.recover(tree.device, tree.config)
            report = recovered.recovery_report
            assert (report.runs_lost, report.wal_lost) == (0, 0)
            assert [k for k, v in kept.items() if recovered.get(k) != v] == []
            _purge(recovered)
            assert [k for k in _entries(recovered) if _rejected(k)] == []
            assert dict(recovered.items()) == kept
            again = LSMTree.recover(tree.device, tree.config)
            assert [k for k in _entries(again) if _rejected(k)] == []

    def test_the_last_step_waits_for_a_checkpoint_that_verifies(self):
        injector = FaultInjector(seed=0)
        tree, model = _churned(device=FaultyBlockDevice(injector=injector))
        injector.lost_write = {"manifest": 1.0}
        for _ in range(30):
            assert tree.purge_step(_rejected) is not None
        assert [k for k in _entries(tree) if _rejected(k)] == []
        # Clean in memory, not on the device: a recovery would bring the
        # dropped entries back, so the step retries the checkpoint.
        assert any(map(_rejected, _entries(LSMTree.recover(tree.device, tree.config))))
        injector.lost_write = 0.0
        assert tree.purge_step(_rejected) == 0
        assert tree.purge_step(_rejected) is None
        recovered = LSMTree.recover(tree.device, tree.config)
        assert [k for k in _entries(recovered) if _rejected(k)] == []
        assert dict(recovered.items()) == {k: v for k, v in model.items() if not _rejected(k)}


class TestGlobalRangeFilter:
    def _factory(self, keys):
        return SNARF(keys, key_bits=30, multiplier=32, seed=3)

    def test_results_identical_with_grf(self):
        base = LSMTree(LSMConfig(compaction="tiering", memtable_entries=32))
        grf = LSMTree(
            LSMConfig(
                compaction="tiering",
                memtable_entries=32,
                global_range_filter_factory=self._factory,
            )
        )
        data = _fill(base, 800, seed=4)
        _fill(grf, 800, seed=4)
        rng = np.random.default_rng(5)
        for lo in rng.integers(0, (1 << 30) - 512, size=100):
            lo = int(lo)
            assert grf.range_query(lo, lo + 511) == base.range_query(lo, lo + 511)

    def test_grf_cuts_range_ios(self):
        base = LSMTree(LSMConfig(compaction="tiering", memtable_entries=32))
        grf = LSMTree(
            LSMConfig(
                compaction="tiering",
                memtable_entries=32,
                global_range_filter_factory=self._factory,
            )
        )
        _fill(base, 800, seed=4)
        _fill(grf, 800, seed=4)
        rng = np.random.default_rng(6)
        for lo in rng.integers(0, (1 << 30) - 64, size=200):
            lo = int(lo)
            base.range_query(lo, lo + 63)
            grf.range_query(lo, lo + 63)
        assert grf.stats.range_ios < base.stats.range_ios


class TestCrateFilter:
    def test_no_false_negatives(self, medium_keys):
        members, _ = medium_keys
        crate = CrateFilter.for_capacity(len(members), 0.01, seed=7)
        for key in members:
            crate.insert(key)
        assert all(crate.may_contain(k) for k in members)

    def test_fpr(self, medium_keys):
        members, negatives = medium_keys
        crate = CrateFilter.for_capacity(len(members), 0.01, seed=7)
        for key in members:
            crate.insert(key)
        assert measured_fpr(crate, negatives) <= 0.02

    def test_constant_accesses(self, medium_keys):
        members, _ = medium_keys
        crate = CrateFilter.for_capacity(len(members), 0.01, seed=7)
        for key in members:
            crate.insert(key)
        assert max(crate.max_access(k) for k in members[:500]) <= 3

    def test_delete_restores_invariant(self):
        # Fill one bucket past its primary slots so the chain is used, then
        # delete from the primary and verify chained entries stay findable.
        crate = CrateFilter(4, 12, seed=8)
        keys = [k for k in range(4000) if crate._locate(k)[0] == 0][:12]
        for key in keys:
            crate.insert(key)
        crate.delete(keys[0])
        for key in keys[1:]:
            assert crate.may_contain(key)

    def test_chain_exhaustion_raises(self):
        crate = CrateFilter(1, 12, seed=9)
        with pytest.raises(FilterFullError):
            for i in range(1000):
                crate.insert(i)

    def test_delete_unknown_raises(self):
        crate = CrateFilter.for_capacity(100, 0.01, seed=10)
        crate.insert("a")
        with pytest.raises(DeletionError):
            crate.delete("b")

    def test_registry_constructible(self):
        from repro.core.registry import make_filter

        crate = make_filter("crate", capacity=100, epsilon=0.01, seed=1)
        crate.insert("x")
        assert crate.may_contain("x")
        crate.delete("x")
        assert not crate.may_contain("x")
