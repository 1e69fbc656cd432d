"""Tests for the LSM-tree simulator (§3.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.records import JSON
from repro.common.storage import BlockDevice
from repro.core.serialize import dumps as filter_dumps
from repro.rangefilters.prefix_bloom import PrefixBloomFilter


def _fill(tree: LSMTree, n: int, seed: int = 0) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 30, size=n, replace=False)
    data = {}
    for i, key in enumerate(int(k) for k in keys):
        tree.put(key, i)
        data[key] = i
    return data


class TestCorrectness:
    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    def test_get_returns_latest_value(self, compaction):
        tree = LSMTree(LSMConfig(compaction=compaction, memtable_entries=32))
        data = _fill(tree, 800, seed=1)
        for key, value in list(data.items())[::13]:
            assert tree.get(key) == value

    def test_updates_win(self):
        tree = LSMTree(LSMConfig(memtable_entries=16))
        for round_ in range(3):
            for key in range(100):
                tree.put(key, (round_, key))
        for key in range(0, 100, 7):
            assert tree.get(key) == (2, key)

    def test_missing_key_default(self):
        tree = LSMTree(LSMConfig(memtable_entries=16))
        _fill(tree, 100, seed=2)
        assert tree.get(-5, default="nope") == "nope"

    def test_range_query_correct(self):
        tree = LSMTree(
            LSMConfig(
                memtable_entries=32,
                range_filter_factory=lambda keys: PrefixBloomFilter(
                    keys, key_bits=30, prefix_bits=20, seed=3
                ),
            )
        )
        data = _fill(tree, 500, seed=3)
        lo, hi = 1 << 28, (1 << 28) + (1 << 26)
        expected = {k: v for k, v in data.items() if lo <= k <= hi}
        assert tree.range_query(lo, hi) == dict(sorted(expected.items()))

    def test_range_query_rejects_inverted(self):
        tree = LSMTree()
        with pytest.raises(ValueError):
            tree.range_query(5, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LSMConfig(size_ratio=1)
        with pytest.raises(ValueError):
            LSMConfig(compaction="magic")
        with pytest.raises(ValueError):
            LSMConfig(filter_policy="psychic")


class TestStructure:
    def test_leveling_has_one_run_per_level(self):
        tree = LSMTree(LSMConfig(compaction="leveling", memtable_entries=16, size_ratio=4))
        _fill(tree, 2000, seed=4)
        for level in tree._levels:
            assert len(level) <= 1

    def test_tiering_bounded_runs_per_level(self):
        cfg = LSMConfig(compaction="tiering", memtable_entries=16, size_ratio=4)
        tree = LSMTree(cfg)
        _fill(tree, 2000, seed=5)
        for level in tree._levels:
            assert len(level) < cfg.size_ratio + 1

    def test_write_amp_leveling_exceeds_tiering(self):
        results = {}
        for compaction in ("leveling", "tiering"):
            tree = LSMTree(
                LSMConfig(compaction=compaction, memtable_entries=16, size_ratio=4)
            )
            _fill(tree, 4000, seed=6)
            results[compaction] = tree.write_amplification
        assert results["leveling"] > results["tiering"]

    def test_lazy_leveling_between(self):
        results = {}
        for compaction in ("leveling", "tiering", "lazy-leveling"):
            tree = LSMTree(
                LSMConfig(compaction=compaction, memtable_entries=16, size_ratio=4)
            )
            _fill(tree, 4000, seed=6)
            results[compaction] = tree.write_amplification
        assert results["tiering"] <= results["lazy-leveling"] <= results["leveling"]


class TestFilters:
    def _negative_lookup_ios(self, filter_policy, n=3000, queries=2000, eps=0.05):
        tree = LSMTree(
            LSMConfig(
                compaction="tiering",
                memtable_entries=32,
                size_ratio=4,
                filter_policy=filter_policy,
                largest_level_epsilon=eps,
            )
        )
        _fill(tree, n, seed=7)
        rng = np.random.default_rng(8)
        for q in rng.integers(1 << 40, 1 << 41, size=queries):
            tree.get(int(q))
        return tree

    def test_filters_eliminate_most_negative_ios(self):
        none = self._negative_lookup_ios("none")
        monkey = self._negative_lookup_ios("monkey")
        assert monkey.stats.wasted_lookup_ios < 0.2 * none.stats.wasted_lookup_ios

    def test_monkey_beats_uniform_wasted_ios(self):
        uniform = self._negative_lookup_ios("uniform")
        monkey = self._negative_lookup_ios("monkey")
        assert monkey.sum_of_fprs() < uniform.sum_of_fprs()
        assert (
            monkey.stats.wasted_lookup_ios <= uniform.stats.wasted_lookup_ios
        )

    def test_no_filter_reads_every_run_worst_case(self):
        tree = self._negative_lookup_ios("none", queries=100)
        assert tree.stats.wasted_lookup_ios == tree.stats.lookup_ios

    def test_maplet_mode_single_probe(self):
        tree = LSMTree(
            LSMConfig(
                compaction="tiering",
                memtable_entries=32,
                size_ratio=4,
                use_maplet=True,
                maplet_capacity=1 << 14,
            )
        )
        data = _fill(tree, 2000, seed=9)
        for key, value in list(data.items())[::17]:
            assert tree.get(key) == value
        # Positive lookups probe ~1 run (plus rare fingerprint collisions).
        assert tree.stats.ios_per_lookup < 1.5

    def test_range_filter_cuts_range_ios(self):
        def factory(keys):
            return PrefixBloomFilter(keys, key_bits=30, prefix_bits=22, seed=10)

        with_rf = LSMTree(
            LSMConfig(memtable_entries=32, compaction="tiering", size_ratio=4,
                      range_filter_factory=factory)
        )
        without_rf = LSMTree(
            LSMConfig(memtable_entries=32, compaction="tiering", size_ratio=4)
        )
        _fill(with_rf, 2000, seed=11)
        _fill(without_rf, 2000, seed=11)
        rng = np.random.default_rng(12)
        for lo in rng.integers(0, (1 << 30) - 256, size=300):
            with_rf.range_query(int(lo), int(lo) + 255)
            without_rf.range_query(int(lo), int(lo) + 255)
        assert with_rf.stats.range_ios < without_rf.stats.range_ios


# -- write path: each run reaches the device once ----------------------------------


class _WriteLog(BlockDevice):
    """A block device logging the address and payload of every write."""

    def __init__(self):
        super().__init__()
        self.log: list = []

    def write_many(self, items):
        items = list(items)
        self.log += [(address, payload) for address, payload, _size in items]
        super().write_many(items)


def _unlisted_run_blocks(log) -> list:
    """The page and filter blocks in *log* whose run the next manifest
    written after them does not list, or that no manifest follows."""
    unlisted, since = [], []
    for address, payload in log:
        if address[0] in ("page", "filter"):
            since.append(address)
        elif address[0] == "manifest":
            listed = {run[0] for run in JSON.decode(payload)["runs"]}
            unlisted += [a for a in since if a[1] not in listed]
            since = []
    return unlisted + since


def _filter_bytes(filt):
    return None if filt is None else filter_dumps(filt)


_WRITE_KEYS = st.integers(min_value=0, max_value=63)
_WRITE_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _WRITE_KEYS, st.integers(0, 1000)),
    st.tuples(st.just("put_many"), st.lists(st.tuples(_WRITE_KEYS, st.integers(0, 1000)),
                                            max_size=20)),
    st.tuples(st.just("delete"), _WRITE_KEYS),
    st.tuples(st.just("flush")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("purge"), _WRITE_KEYS),
), max_size=60)


class TestEachRunWrittenOnce:
    """A new run reaches the device only at the checkpoint that lists
    it, so a run its own compaction cascade merges away is never
    written, and its filter is built only then."""

    @pytest.mark.parametrize("use_maplet", [False, True])
    @pytest.mark.parametrize("page_entries", [0, 4])
    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    @given(ops=_WRITE_OPS)
    def test_every_run_block_written_is_listed_by_the_next_manifest(
            self, compaction, page_entries, use_maplet, ops):
        device = _WriteLog()
        tree = LSMTree(LSMConfig(compaction=compaction, memtable_entries=8, size_ratio=3,
                                 page_entries=page_entries, use_maplet=use_maplet),
                       device=device)
        for op, *args in ops:
            if op == "put":
                tree.put(*args)
            elif op == "put_many":
                tree.put_many(args[0])
            elif op == "delete":
                tree.delete(args[0])
            elif op == "purge":
                lo = args[0]
                tree.purge_step(lambda key, lo=lo: lo <= key < lo + 8)
            else:
                getattr(tree, op)()
            assert _unlisted_run_blocks(device.log) == []
            for level in tree._levels:
                for run in level:
                    fresh = tree._build_filter(run.level, run.keys)
                    assert _filter_bytes(run.filter) == _filter_bytes(fresh)
                    if use_maplet:
                        assert all(run.run_id in tree._maplet.get(k) for k in run.keys)

    def test_the_put_that_fills_the_memtable_makes_four_writes_and_one_read(self):
        # The replica and shard trees' memtable size.  400 flushes take
        # level 0 into level 1 and level 1 into level 2 along the way.
        device = _WriteLog()
        tree = LSMTree(LSMConfig(memtable_entries=48), device=device)
        for flush in range(400):
            for key in range(48 * flush, 48 * flush + 47):
                tree.put(key, key)
            before, logged = device.stats.snapshot(), len(device.log)
            tree.put(48 * flush + 47, 0)
            io = device.stats - before
            assert (io.writes, io.reads) == (4, 1)
            # The WAL frame, the one run the flush keeps, the manifest.
            kept = max(run.run_id for level in tree._levels for run in level)
            assert [address for address, _payload in device.log[logged:]] == [
                ("wal", 48 * flush + 47), ("page", kept, 0), ("filter", kept),
                ("manifest", (flush + 1) % 2)]
        assert tree.n_levels == 3
