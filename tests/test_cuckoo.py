"""Tests for the cuckoo filter."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DeletionError, FilterFullError
from repro.filters.cuckoo import CuckooFilter
from tests.conftest import measured_fpr


class TestCuckooBasics:
    def test_insert_query_delete(self):
        cf = CuckooFilter(64, 12, seed=1)
        cf.insert("hello")
        assert cf.may_contain("hello")
        cf.delete("hello")
        assert not cf.may_contain("hello")
        assert len(cf) == 0

    def test_no_false_negatives(self, small_keys):
        members, _ = small_keys
        cf = CuckooFilter.for_capacity(len(members), 0.01, seed=2)
        for key in members:
            cf.insert(key)
        assert all(cf.may_contain(k) for k in members)

    def test_fpr_near_target(self, medium_keys):
        members, negatives = medium_keys
        cf = CuckooFilter.for_capacity(len(members), 0.01, seed=3)
        for key in members:
            cf.insert(key)
        assert measured_fpr(cf, negatives) <= 0.02

    def test_high_load_achievable(self):
        # 4-way cuckoo tables reach ~95% occupancy.
        cf = CuckooFilter(256, 12, seed=4)
        target = int(cf.n_slots * 0.94)
        for i in range(target):
            cf.insert(i)
        assert cf.load_factor >= 0.93

    def test_delete_unknown_raises(self):
        cf = CuckooFilter(64, 12, seed=5)
        cf.insert("a")
        with pytest.raises(DeletionError):
            cf.delete("b")

    def test_alt_index_is_involution(self):
        cf = CuckooFilter(1024, 12, seed=6)
        for key in range(100):
            fp, i1, i2 = cf._candidates(key)
            assert cf._alt_index(i2, fp) == i1

    def test_kick_failure_keeps_all_keys_queryable(self):
        # Overfill a tiny table until insertion fails; even then no inserted
        # key may be lost (the victim cache holds the homeless fingerprint).
        cf = CuckooFilter(4, 10, bucket_size=2, seed=7)
        inserted = []
        with pytest.raises(FilterFullError):
            for i in range(1000):
                cf.insert(i)
                inserted.append(i)
        # The key that raised is also retained (it entered the kick chain).
        for key in inserted + [len(inserted)]:
            assert cf.may_contain(key)
        with pytest.raises(FilterFullError):
            cf.insert("post-full insert")

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CuckooFilter(0, 8)
        with pytest.raises(ValueError):
            CuckooFilter(8, 0)
        with pytest.raises(ValueError):
            CuckooFilter(8, 8, bucket_size=0)
        with pytest.raises(ValueError):
            CuckooFilter.for_capacity(10, 0)

    def test_bucket_size_ablation_constructs(self):
        for b in (2, 4, 8):
            cf = CuckooFilter.for_capacity(100, 0.01, bucket_size=b)
            cf.insert("x")
            assert cf.may_contain("x")

    def test_size_in_bits(self):
        cf = CuckooFilter(16, 9, bucket_size=4)
        assert cf.size_in_bits == cf.n_buckets * 4 * 9


# The copies of one key a filter holds: both of its buckets full of it.
_MAX_COPIES = 2 * CuckooFilter(128, 14, seed=8).bucket_size


def _capped(keys: list[int]) -> list[int]:
    """*keys* in order, without the copies of a key past ``_MAX_COPIES``."""
    seen: Counter = Counter()
    out = []
    for key in keys:
        seen[key] += 1
        if seen[key] <= _MAX_COPIES:
            out.append(key)
    return out


class TestCuckooModel:
    def test_a_key_has_two_distinct_buckets(self):
        cf = CuckooFilter(128, 14, seed=8)
        assert all(i1 != i2 for _fp, i1, i2 in map(cf._candidates, range(2_000)))
        # Key 42's fingerprint hashes to offset 0 mod 128; it still gets
        # two buckets, so it holds 2 x bucket_size copies.
        for _ in range(2 * cf.bucket_size):
            cf.insert(42)
        assert len(cf) == 2 * cf.bucket_size

    def test_a_copy_past_both_buckets_overflows(self):
        cf = CuckooFilter(128, 14, seed=8)
        others = list(range(100, 140))
        for key in others:
            cf.insert(key)
        for _ in range(_MAX_COPIES):
            cf.insert(42)
        with pytest.raises(FilterFullError):
            cf.insert(42)
        assert all(cf.may_contain(key) for key in [*others, 42])

    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=80).map(_capped))
    @settings(max_examples=60, deadline=None)
    def test_insert_delete_round_trip(self, keys):
        cf = CuckooFilter(128, 14, seed=8)
        for key in keys:
            cf.insert(key)
        for key in keys:
            assert cf.may_contain(key)
        for key in keys:
            cf.delete(key)
        assert len(cf) == 0
