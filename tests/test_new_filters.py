"""Tests for the second-wave filters: vector QF, Morton, dynamic cuckoo,
Bentley–Saxe, REncoder, seesaw, sharded wrapper."""

from __future__ import annotations

import pytest

from repro.adaptive.seesaw import SeesawCountingFilter
from repro.core.concurrent import ShardedFilter
from repro.core.errors import DeletionError, FilterFullError
from repro.expandable.bentley_saxe import BentleySaxeFilter
from repro.expandable.chaining import DynamicCuckooFilter
from repro.filters.morton import MortonFilter
from repro.filters.quotient import QuotientFilter
from repro.filters.vector_quotient import VectorQuotientFilter
from repro.filters.xor import XorFilter
from repro.rangefilters.rencoder import REncoder
from repro.rangefilters.rosetta import Rosetta
from repro.workloads.synthetic import (
    disjoint_key_sets,
    random_key_set,
    random_range_queries,
)
from tests.conftest import measured_fpr


class TestVectorQuotient:
    def test_no_false_negatives(self, medium_keys):
        members, _ = medium_keys
        vqf = VectorQuotientFilter.for_capacity(len(members), 0.01, seed=1)
        for key in members:
            vqf.insert(key)
        assert all(vqf.may_contain(k) for k in members)

    def test_fpr(self, medium_keys):
        members, negatives = medium_keys
        vqf = VectorQuotientFilter.for_capacity(len(members), 0.01, seed=1)
        for key in members:
            vqf.insert(key)
        assert measured_fpr(vqf, negatives) <= 0.02

    def test_deletes(self):
        vqf = VectorQuotientFilter.for_capacity(100, 0.01, seed=2)
        vqf.insert("x")
        vqf.delete("x")
        assert not vqf.may_contain("x")
        with pytest.raises(DeletionError):
            vqf.delete("x")

    def test_delete_never_evicts_a_key_sharing_the_fingerprint(self):
        # 4-bit fingerprints over 8 blocks collide often; a delete must take
        # its copy from the shared block pair, never another key's only copy.
        vqf = VectorQuotientFilter(8, 4, seed=5)
        keep, drop = range(100), range(1000, 1100)
        for key in [*keep, *drop]:
            vqf.insert(key)
        for key in drop:
            vqf.delete(key)
        assert all(vqf.may_contain(k) for k in keep)
        assert len(vqf) == len(keep)

    def test_two_choice_balances_blocks(self, medium_keys):
        members, _ = medium_keys
        vqf = VectorQuotientFilter.for_capacity(len(members), 0.01, seed=3)
        for key in members:
            vqf.insert(key)
        # Two-choice keeps the fullest block close to the mean load.
        mean = len(members) / vqf.n_blocks
        assert vqf.max_block_load() <= mean + 12

    def test_no_kicking_insert_never_displaces(self):
        # Inserts either place or raise; the filter never moves residents,
        # so a reference set stays exactly queryable after a full fill.
        vqf = VectorQuotientFilter(4, 10, block_slots=4, seed=4)
        inserted = []
        try:
            for i in range(1000):
                vqf.insert(i)
                inserted.append(i)
        except FilterFullError:
            pass
        assert all(vqf.may_contain(k) for k in inserted)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            VectorQuotientFilter(1, 8)
        with pytest.raises(ValueError):
            VectorQuotientFilter(4, 0)


class TestMorton:
    def test_no_false_negatives(self, medium_keys):
        members, _ = medium_keys
        mf = MortonFilter.for_capacity(len(members), 0.01, seed=5)
        for key in members:
            mf.insert(key)
        assert all(mf.may_contain(k) for k in members)

    def test_fpr(self, medium_keys):
        members, negatives = medium_keys
        mf = MortonFilter.for_capacity(len(members), 0.01, seed=5)
        for key in members:
            mf.insert(key)
        assert measured_fpr(mf, negatives) <= 0.03

    def test_under_two_bucket_accesses(self, medium_keys):
        """Breslow & Jayasena's claim: the OTA keeps most queries at one
        bucket access."""
        members, negatives = medium_keys
        mf = MortonFilter.for_capacity(len(members), 0.01, seed=5)
        for key in members:
            mf.insert(key)
        mf.bucket_accesses = mf.queries = 0
        for key in negatives[:4000]:
            mf.may_contain(key)
        assert mf.mean_bucket_accesses() < 2.0

    def test_compressed_smaller_than_cuckoo_logical(self, medium_keys):
        from repro.filters.cuckoo import CuckooFilter

        members, _ = medium_keys
        mf = MortonFilter.for_capacity(len(members), 0.01, seed=6)
        cf = CuckooFilter.for_capacity(len(members), 0.01, seed=6)
        assert mf.size_in_bits < cf.size_in_bits

    def test_deletes(self):
        mf = MortonFilter.for_capacity(200, 0.01, seed=7)
        for i in range(100):
            mf.insert(i)
        for i in range(100):
            mf.delete(i)
        assert len(mf) == 0
        with pytest.raises(DeletionError):
            mf.delete(5)


class TestDynamicCuckoo:
    def test_grows_and_deletes(self):
        dcf = DynamicCuckooFilter(64, 0.01, seed=8)
        members, _ = disjoint_key_sets(500, 1, seed=9)
        for key in members:
            dcf.insert(key)
        assert dcf.n_links > 1
        assert all(dcf.may_contain(k) for k in members)
        for key in members:
            dcf.delete(key)
        assert len(dcf) == 0

    def test_emptied_links_compacted(self):
        dcf = DynamicCuckooFilter(32, 0.01, seed=10)
        members, _ = disjoint_key_sets(200, 1, seed=11)
        for key in members:
            dcf.insert(key)
        links_full = dcf.n_links
        for key in members:
            dcf.delete(key)
        assert dcf.n_links < links_full

    def test_delete_unknown_raises(self):
        dcf = DynamicCuckooFilter(32, 0.01, seed=10)
        dcf.insert("a")
        with pytest.raises(DeletionError):
            dcf.delete("b")


class TestBentleySaxe:
    def _make(self, seed=12):
        return BentleySaxeFilter(
            lambda keys: XorFilter.build(keys, 0.005, seed=seed),
            buffer_capacity=32,
        )

    def test_no_false_negatives(self):
        bs = self._make()
        members, _ = disjoint_key_sets(1000, 1, seed=13)
        for key in members:
            bs.insert(key)
        assert all(bs.may_contain(k) for k in members)

    def test_fpr_stays_near_static(self):
        bs = self._make()
        members, negatives = disjoint_key_sets(1000, 8000, seed=14)
        for key in members:
            bs.insert(key)
        # Each of ~log(n) levels contributes ε: still far under 5ε here.
        assert measured_fpr(bs, negatives) <= 0.03

    def test_binary_counter_levels(self):
        bs = self._make()
        for i in range(32 * 7):  # 7 = 0b111 buffers
            bs.insert(i)
        assert bs.n_levels == 3  # levels 0,1,2 occupied

    def test_amortised_rebuild_logarithmic(self):
        bs = self._make()
        n = 32 * 64
        for i in range(n):
            bs.insert(i)
        assert bs.amortised_rebuild_factor <= 8  # ~log2(64) plus slack

    def test_query_cost_logarithmic(self):
        bs = self._make()
        for i in range(32 * 21):
            bs.insert(i)
        assert bs.query_cost("whatever") <= 1 + 6

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            BentleySaxeFilter(lambda keys: None, buffer_capacity=0)


class TestREncoder:
    KEY_BITS = 32

    def test_no_false_negatives_points_and_ranges(self):
        keys = random_key_set(2000, seed=15, universe=1 << self.KEY_BITS)
        re_filter = REncoder(keys, key_bits=self.KEY_BITS, seed=16)
        assert all(re_filter.may_contain(k) for k in keys[::10])
        for key in keys[::50]:
            assert re_filter.may_intersect(max(0, key - 10), key + 10)

    def test_filters_empty_ranges(self):
        keys = random_key_set(2000, seed=15, universe=1 << self.KEY_BITS)
        queries = random_range_queries(300, 64, seed=17, universe=1 << self.KEY_BITS)
        from bisect import bisect_left

        def truly(lo, hi):
            i = bisect_left(keys, lo)
            return i < len(keys) and keys[i] <= hi

        empty = [q for q in queries if not truly(*q)]
        fps = sum(1 for lo, hi in empty if re_filter_cached.may_intersect(lo, hi))
        assert fps / len(empty) < 0.3

    def test_block_locality_beats_rosetta(self):
        keys = random_key_set(2000, seed=15, universe=1 << self.KEY_BITS)
        re_filter = REncoder(keys, key_bits=self.KEY_BITS, n_levels=12, seed=18)
        rosetta = Rosetta(
            keys, key_bits=self.KEY_BITS, bits_per_key=20, n_levels=12, seed=18
        )
        lo = keys[100] + 1
        re_filter.may_intersect(lo, lo + 255)
        rosetta.may_intersect(lo, lo + 255)
        # REncoder touches far fewer memory blocks than Rosetta does probes.
        assert re_filter.last_query_blocks <= rosetta.last_query_probes

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            REncoder([1], key_bits=16, n_levels=0)
        with pytest.raises(ValueError):
            REncoder([1], key_bits=16, levels_per_block=0)


class TestSeesaw:
    def test_yes_list_matches(self):
        members, negatives = disjoint_key_sets(400, 2000, seed=19)
        sscf = SeesawCountingFilter(members, epsilon=0.05, seed=20)
        assert all(sscf.may_contain(k) for k in members)

    def test_protect_blocks_negative(self):
        members, negatives = disjoint_key_sets(400, 2000, seed=19)
        sscf = SeesawCountingFilter(members, epsilon=0.05, seed=20)
        fps = [k for k in negatives if sscf.may_contain(k)]
        if not fps:
            pytest.skip("no FP at this seed")
        for key in fps:
            sscf.protect(key)
        assert not any(sscf.may_contain(k) for k in fps)

    def test_dynamic_protection_can_cause_false_negatives(self):
        """The §3.3 critique: dynamic no-list additions risk false
        negatives for yes-list keys sharing counters."""
        members, negatives = disjoint_key_sets(400, 5000, seed=21)
        sscf = SeesawCountingFilter(members, epsilon=0.1, seed=22)
        for key in negatives:
            if sscf.may_contain(key):
                sscf.protect(key)
        assert sscf.protections > 0
        # With this many protections, collateral damage is expected.
        assert len(sscf.false_negatives(members)) > 0

    def test_static_no_list_at_build(self):
        members, negatives = disjoint_key_sets(400, 400, seed=23)
        sscf = SeesawCountingFilter(members, negatives[:50], epsilon=0.05, seed=24)
        assert not any(sscf.may_contain(k) for k in negatives[:50])


class TestShardedFilter:
    def _make(self, n_shards=4):
        return ShardedFilter(
            lambda i: QuotientFilter.for_capacity(512, 0.01, seed=100 + i),
            n_shards=n_shards,
        )

    def test_basic_ops(self):
        sf = self._make()
        sf.insert("a")
        assert sf.may_contain("a")
        sf.delete("a")
        assert not sf.may_contain("a")
        assert sf.supports_deletes

    def test_shards_balanced(self):
        sf = self._make(8)
        members, _ = disjoint_key_sets(1000, 1, seed=25)
        for key in members:
            sf.insert(key)
        loads = sf.shard_loads
        assert max(loads) < 2.2 * min(loads)
        assert sum(loads) == len(sf) == 1000

    def test_concurrent_inserts_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        sf = self._make(8)
        members, negatives = disjoint_key_sets(2000, 2000, seed=26)

        def work(chunk):
            for key in chunk:
                sf.insert(key)
            return sum(1 for key in chunk if sf.may_contain(key))

        chunks = [members[i::4] for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, chunks))
        assert all(r == len(c) for r, c in zip(results, chunks))
        assert all(sf.may_contain(k) for k in members)
        assert len(sf) == 2000

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            ShardedFilter(lambda i: None, n_shards=0)


# Module-level cache for the REncoder empty-range test (built once).
re_filter_cached = REncoder(
    random_key_set(2000, seed=15, universe=1 << 32), key_bits=32, seed=16
)
