"""Packed bit storage: a plain bit vector and a fixed-width field array.

These are the physical layers under the Bloom, quotient, cuckoo, XOR and
ribbon filters.  Both are backed by a numpy ``uint64`` array so that the
logical size in bits reported by ``size_in_bits`` is also (up to the last
word) the real storage used.
"""

from __future__ import annotations

import numpy as np


class BitVector:
    """A mutable vector of *n* bits packed into 64-bit words."""

    __slots__ = ("n_bits", "words")

    def __init__(self, n_bits: int):
        if n_bits < 0:
            raise ValueError("bit vector length must be non-negative")
        self.n_bits = n_bits
        self.words = np.zeros((n_bits + 63) // 64, dtype=np.uint64)

    def __len__(self) -> int:
        return self.n_bits

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n_bits:
            raise IndexError(f"bit index {i} out of range [0, {self.n_bits})")

    def get(self, i: int) -> bool:
        self._check(i)
        return bool((int(self.words[i >> 6]) >> (i & 63)) & 1)

    def set(self, i: int, value: bool = True) -> None:
        self._check(i)
        word, bit = i >> 6, i & 63
        if value:
            self.words[word] |= np.uint64(1 << bit)
        else:
            self.words[word] &= np.uint64(MASK64 ^ (1 << bit))

    __getitem__ = get

    def __setitem__(self, i: int, value: bool) -> None:
        self.set(i, value)

    def set_many(self, indexes: np.ndarray | list[int]) -> None:
        """Set every bit in *indexes* (vectorised; duplicates are fine).

        Scatters into a one-byte-per-bit mask and packs it little-endian,
        so bit i lands in byte i // 8 at position i % 8 — the layout of
        the little-endian ``uint64`` words — then ORs the words in.
        """
        idx = np.asarray(indexes, dtype=np.int64)
        if not idx.size:
            return
        if idx.min() < 0 or idx.max() >= self.n_bits:
            raise IndexError("bit index out of range")
        mask = np.zeros(len(self.words) * 64, dtype=bool)
        mask[idx] = True
        self.words |= np.packbits(mask, bitorder="little").view("<u8")

    def test_all(self, indexes: np.ndarray | list[int]) -> bool:
        """True iff every bit in *indexes* is set."""
        idx = np.asarray(indexes, dtype=np.int64)
        bits = (self.words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
        return bool(bits.all())

    def test_many(self, indexes: np.ndarray | list[int]) -> np.ndarray:
        """Per-index bit values as a bool array (vectorised gather).

        *indexes* may be any integer shape; the result has the same shape.
        """
        idx = np.asarray(indexes, dtype=np.int64)
        bits = (self.words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
        return bits.astype(bool)

    def count(self) -> int:
        """Number of set bits."""
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def clear(self) -> None:
        self.words[:] = 0

    @property
    def size_in_bits(self) -> int:
        return self.n_bits

    def copy(self) -> "BitVector":
        dup = BitVector(self.n_bits)
        dup.words[:] = self.words
        return dup


MASK64 = (1 << 64) - 1


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array.

    Uses ``np.bitwise_count`` where available (numpy >= 2.0) and a
    byte-unpack fallback elsewhere, so callers stay portable to the
    ``numpy>=1.24`` floor in pyproject.toml.
    """
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    as_bytes = arr.reshape(-1).view(np.uint8).reshape(-1, 8)
    counts = np.unpackbits(as_bytes, axis=1).sum(axis=1).astype(np.int64)
    return counts.reshape(arr.shape)


class PackedArray:
    """*n* fields of *width* bits each, packed contiguously.

    Fields may span a 64-bit word boundary; ``width`` may be 1..64.  Used for
    remainders in quotient filters, fingerprints in cuckoo filters, and XOR /
    ribbon filter solution arrays.
    """

    __slots__ = ("n_fields", "width", "_mask", "words")

    def __init__(self, n_fields: int, width: int):
        if not 1 <= width <= 64:
            raise ValueError("field width must be in [1, 64]")
        if n_fields < 0:
            raise ValueError("field count must be non-negative")
        self.n_fields = n_fields
        self.width = width
        self._mask = (1 << width) - 1
        total_bits = n_fields * width
        self.words = np.zeros((total_bits + 63) // 64, dtype=np.uint64)

    def __len__(self) -> int:
        return self.n_fields

    def get(self, i: int) -> int:
        if not 0 <= i < self.n_fields:
            raise IndexError(f"field index {i} out of range [0, {self.n_fields})")
        bit = i * self.width
        word, offset = bit >> 6, bit & 63
        value = int(self.words[word]) >> offset
        spill = offset + self.width - 64
        if spill > 0:
            value |= int(self.words[word + 1]) << (self.width - spill)
        return value & self._mask

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self.n_fields:
            raise IndexError(f"field index {i} out of range [0, {self.n_fields})")
        value &= self._mask
        bit = i * self.width
        word, offset = bit >> 6, bit & 63
        low = (int(self.words[word]) & ~(self._mask << offset)) & MASK64
        self.words[word] = np.uint64((low | (value << offset)) & MASK64)
        spill = offset + self.width - 64
        if spill > 0:
            high_mask = (1 << spill) - 1
            high = int(self.words[word + 1]) & ~high_mask
            self.words[word + 1] = np.uint64(high | (value >> (self.width - spill)))

    __getitem__ = get

    def __setitem__(self, i: int, value: int) -> None:
        self.set(i, value)

    def get_many(self, indexes: np.ndarray | list[int]) -> np.ndarray:
        """Vectorised :meth:`get`: one ``uint64`` field value per index.

        Mirrors the scalar word/spill logic on arrays: the low part comes
        from the field's first word, and fields straddling a word boundary
        OR in the next word's low bits.
        """
        idx = np.asarray(indexes, dtype=np.int64)
        bit = idx * self.width
        word, offset = bit >> 6, (bit & 63).astype(np.uint64)
        value = self.words[word] >> offset
        spill = offset.astype(np.int64) + self.width - 64
        if self.width > 1:  # width-1 fields can never straddle a word
            straddles = spill > 0
            if straddles.any():
                # Shift = width - spill = 64 - offset; offset > 0 wherever
                # a field straddles, so the &63 never truncates a live shift.
                high_shift = (np.uint64(64) - offset) & np.uint64(63)
                next_word = self.words[np.minimum(word + 1, len(self.words) - 1)]
                value = np.where(straddles, value | (next_word << high_shift), value)
        return value & np.uint64(self._mask)

    @property
    def size_in_bits(self) -> int:
        return self.n_fields * self.width

    def copy(self) -> "PackedArray":
        dup = PackedArray(self.n_fields, self.width)
        dup.words[:] = self.words
        return dup
