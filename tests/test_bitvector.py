"""Unit + property tests for BitVector and PackedArray."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitvector import BitVector, PackedArray
from repro.filters.bloom import BloomFilter


class TestBitVector:
    def test_starts_clear(self):
        bv = BitVector(130)
        assert len(bv) == 130
        assert bv.count() == 0
        assert not any(bv.get(i) for i in range(130))

    def test_set_get_clear_single(self):
        bv = BitVector(100)
        bv.set(63)
        bv.set(64)
        assert bv.get(63) and bv.get(64)
        assert not bv.get(62) and not bv.get(65)
        bv.set(63, False)
        assert not bv.get(63) and bv.get(64)

    def test_index_errors(self):
        bv = BitVector(10)
        with pytest.raises(IndexError):
            bv.get(10)
        with pytest.raises(IndexError):
            bv.set(-1)

    def test_set_many_and_test_all(self):
        bv = BitVector(1000)
        idx = [0, 1, 63, 64, 65, 999]
        bv.set_many(idx)
        assert bv.test_all(idx)
        assert not bv.test_all([0, 2])
        assert bv.count() == len(idx)

    def test_set_many_duplicate_indexes(self):
        bv = BitVector(64)
        bv.set_many([5, 5, 5])
        assert bv.count() == 1

    def test_getitem_setitem(self):
        bv = BitVector(8)
        bv[3] = True
        assert bv[3]
        bv[3] = False
        assert not bv[3]

    def test_copy_is_independent(self):
        bv = BitVector(64)
        bv.set(1)
        dup = bv.copy()
        dup.set(2)
        assert not bv.get(2) and dup.get(1)

    @given(st.sets(st.integers(min_value=0, max_value=511), max_size=64))
    @settings(max_examples=50)
    def test_matches_set_model(self, indexes):
        bv = BitVector(512)
        for i in indexes:
            bv.set(i)
        assert bv.count() == len(indexes)
        for i in range(512):
            assert bv.get(i) == (i in indexes)


_KERNEL_SIZES = [1, 63, 64, 65, 614, 12_289]


def _scalar_set(n_bits, indexes, start=()):
    bv = BitVector(n_bits)
    for i in list(start) + list(indexes):
        bv.set(int(i))
    return bv


class TestSetManyKernel:
    """``set_many`` (bool scatter + little-endian pack) against the per-bit
    ``set`` reference, across word-boundary sizes."""

    @pytest.mark.parametrize("n_bits", _KERNEL_SIZES)
    def test_edges_duplicates_and_empty(self, n_bits):
        rng = np.random.default_rng(n_bits)
        cases = [
            np.array([], dtype=np.int64),
            [],
            [0],
            [n_bits - 1],
            [0, n_bits - 1, 0, n_bits - 1],
            rng.integers(0, n_bits, size=3 * n_bits + 1),
        ]
        start = rng.integers(0, n_bits, size=n_bits // 3 + 1)
        for idx in cases:
            for pre in ((), start):
                bv = _scalar_set(n_bits, (), pre)
                bv.set_many(idx)
                assert bv.words.tolist() == _scalar_set(n_bits, idx, pre).words.tolist()

    @pytest.mark.parametrize("n_bits", _KERNEL_SIZES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_set(self, n_bits, data):
        idx = data.draw(st.lists(st.integers(0, n_bits - 1), max_size=200))
        bv = BitVector(n_bits)
        bv.set_many(np.asarray(idx, dtype=np.int64))
        assert bv.words.tolist() == _scalar_set(n_bits, idx).words.tolist()

    @pytest.mark.parametrize("n_bits", _KERNEL_SIZES)
    def test_out_of_range_raises_and_sets_nothing(self, n_bits):
        for bad in ([-1], [0, n_bits], [n_bits + 64], [0, -65]):
            bv = BitVector(n_bits)
            with pytest.raises(IndexError):
                bv.set_many(bad)
            assert bv.count() == 0


@pytest.mark.parametrize("k", [1, 7, 13])
def test_bloom_insert_many_words_equal_scalar_insert(k):
    keys = list(range(0, 6000, 7)) + ["a", b"b", 2**63 + 5, np.int64(-3)] + [0, 7]
    batched = BloomFilter(len(keys), 0.01, n_hashes=k, seed=k)
    batched.insert_many(keys)
    looped = BloomFilter(len(keys), 0.01, n_hashes=k, seed=k)
    for key in keys:
        looped.insert(key)
    assert batched.n_hashes == k
    assert batched._bits.words.tolist() == looped._bits.words.tolist()
    assert len(batched) == len(looped)
    probes = keys + list(range(10**9, 10**9 + 500))
    assert batched.may_contain_many(probes).tolist() == [
        looped.may_contain(key) for key in probes
    ]


class TestPackedArray:
    def test_round_trip_simple(self):
        pa = PackedArray(10, 7)
        for i in range(10):
            pa.set(i, i * 11 % 128)
        for i in range(10):
            assert pa.get(i) == i * 11 % 128

    def test_word_boundary_spanning(self):
        # width 13 guarantees fields straddle 64-bit word boundaries.
        pa = PackedArray(40, 13)
        values = [(i * 5839) % (1 << 13) for i in range(40)]
        for i, v in enumerate(values):
            pa.set(i, v)
        assert [pa.get(i) for i in range(40)] == values

    def test_overwrite_does_not_leak_into_neighbours(self):
        pa = PackedArray(3, 9)
        pa.set(0, 0x1FF)
        pa.set(1, 0)
        pa.set(2, 0x1FF)
        pa.set(1, 0x155)
        assert pa.get(0) == 0x1FF
        assert pa.get(1) == 0x155
        assert pa.get(2) == 0x1FF

    def test_width_64(self):
        pa = PackedArray(4, 64)
        big = (1 << 64) - 3
        pa.set(2, big)
        assert pa.get(2) == big

    def test_value_masked_to_width(self):
        pa = PackedArray(2, 4)
        pa.set(0, 0xFF)
        assert pa.get(0) == 0xF

    def test_errors(self):
        with pytest.raises(ValueError):
            PackedArray(4, 0)
        with pytest.raises(ValueError):
            PackedArray(4, 65)
        pa = PackedArray(4, 8)
        with pytest.raises(IndexError):
            pa.get(4)
        with pytest.raises(IndexError):
            pa.set(-1, 0)

    def test_size_in_bits(self):
        assert PackedArray(10, 13).size_in_bits == 130

    @given(
        st.integers(min_value=1, max_value=64),
        st.data(),
    )
    @settings(max_examples=50)
    def test_matches_list_model(self, width, data):
        n = 20
        pa = PackedArray(n, width)
        model = [0] * n
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=(1 << width) - 1),
                ),
                max_size=40,
            )
        )
        for i, v in ops:
            pa.set(i, v)
            model[i] = v
        assert [pa.get(i) for i in range(n)] == model
