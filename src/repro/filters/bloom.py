"""Bloom filters (Bloom 1970) — standard and cache-blocked.

The semi-dynamic baseline of the tutorial: inserts but no deletes, capacity
fixed at construction, 1.44·log₂(1/ε) bits/key at the optimal hash count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.common.bitvector import BitVector
from repro.common.hashing import MASK64, hash_pair, hash_pair_many
from repro.core.analysis import bloom_optimal_hashes
from repro.core.interfaces import DynamicFilter, Key, KeyBatch


class BloomFilter(DynamicFilter):
    """Standard Bloom filter with double hashing.

    Parameters
    ----------
    capacity:
        Number of keys the filter is sized for.  The FPR guarantee holds
        while ``len(self) <= capacity``.
    epsilon:
        Target false-positive rate.
    n_hashes:
        Override the hash count (used by the A2 ablation); defaults to the
        optimal k = ln2 · m/n.
    """

    supports_deletes = False

    def __init__(
        self,
        capacity: int,
        epsilon: float,
        *,
        n_hashes: int | None = None,
        seed: int = 0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.capacity = capacity
        self.epsilon = epsilon
        self.seed = seed
        bits_per_key = math.log2(math.e) * math.log2(1 / epsilon)
        self._m = max(64, int(math.ceil(capacity * bits_per_key)))
        self._k = n_hashes if n_hashes is not None else bloom_optimal_hashes(bits_per_key)
        if self._k < 1:
            raise ValueError("n_hashes must be at least 1")
        self._bits = BitVector(self._m)
        self._n = 0

    def _positions(self, key: Key) -> list[int]:
        # Kirsch–Mitzenmacher double hashing: g_i = h1 + i·h2 (mod 2^64,
        # then mod m) — the 64-bit wrap keeps this identical to the
        # vectorised kernel below, as in the C implementations.
        h1, h2 = hash_pair(key, self.seed)
        h2 |= 1  # odd step avoids degenerate cycles
        return [((h1 + i * h2) & MASK64) % self._m for i in range(self._k)]

    def _positions_many(self, keys: KeyBatch) -> np.ndarray:
        """(k, n_keys) bit positions — the batched double-hash kernel.

        Row i is h1 + i·h2 (mod 2^64), built by k−1 in-place wrapping
        adds of the odd step, then reduced mod m in place: no (n, k)
        products and no temporaries beyond the result.
        """
        h1, h2 = hash_pair_many(keys, self.seed)
        h2 |= np.uint64(1)
        pos = np.empty((self._k, len(h1)), dtype=np.uint64)
        pos[0] = h1
        for i in range(1, self._k):
            np.add(pos[i - 1], h2, out=pos[i])
        np.remainder(pos, np.uint64(self._m), out=pos)
        return pos

    def bit_positions(self, key: Key) -> np.ndarray:
        """The k probe positions for *key* as an int64 array.

        Public so aggregating structures that share this filter's
        geometry — the Bloofi tree ORs same-shape leaves and must test
        the *identical* bits (:mod:`repro.core.bloofi`) — can compute a
        key's probe set once and reuse it at every level.
        """
        return np.asarray(self._positions(key), dtype=np.int64)

    def insert(self, key: Key) -> None:
        for pos in self._positions(key):
            self._bits.set(pos)
        self._n += 1

    def insert_many(self, keys: KeyBatch) -> None:
        """Set all k bits of every key with one scatter."""
        n = len(keys)
        if not n:
            return
        self._bits.set_many(self._positions_many(keys).ravel())
        self._n += n

    def may_contain(self, key: Key) -> bool:
        return all(self._bits.get(pos) for pos in self._positions(key))

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Gather all k probe bits per key and AND across the hash axis."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        pos = self._positions_many(keys)
        words = self._bits.words
        bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=0)

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._m

    @property
    def n_hashes(self) -> int:
        return self._k

    @property
    def fill_fraction(self) -> float:
        """Fraction of set bits (≈ 0.5 at capacity with optimal k)."""
        return self._bits.count() / self._m

    @classmethod
    def from_keys(
        cls, keys: Iterable[Key], epsilon: float, *, seed: int = 0
    ) -> "BloomFilter":
        """Build a filter sized exactly for *keys*."""
        key_list = list(keys)
        bloom = cls(max(1, len(key_list)), epsilon, seed=seed)
        bloom.insert_many(key_list)
        return bloom


def insert_each(filters: Sequence[BloomFilter], batches: Sequence[Sequence[Key]]) -> None:
    """``filters[i].insert_many(batches[i])`` for every i, bit for bit,
    with one hash pass over all the keys.

    The filters must share one geometry ``(m, k, seed)``, as a Bloofi
    fleet's leaves do, so one ``_positions_many`` call serves every
    batch.  The positions scatter into one (filter, word) matrix at word
    level, and each row is ORed into its filter.
    """
    if len(filters) < 2:
        # Nothing to share: the matrix's fixed cost (about 10 µs) would
        # only slow a single provisioning, such as a tenant churned in.
        for filt, batch in zip(filters, batches):
            filt.insert_many(batch)
        return
    first = filters[0]
    geometry = (first._m, first._k, first.seed)
    if any((f._m, f._k, f.seed) != geometry for f in filters):
        raise ValueError("insert_each needs filters of one geometry (m, k, seed)")
    sizes = [len(batch) for batch in batches]
    keys = [key for batch in batches for key in batch]
    if not keys:
        return
    pos = first._positions_many(keys)
    n_words = len(first._bits.words)
    owner = np.repeat(np.arange(len(filters), dtype=np.uint64), sizes)
    flat = owner * np.uint64(n_words) + (pos >> np.uint64(6))
    matrix = np.zeros((len(filters), n_words), dtype=np.uint64)
    np.bitwise_or.at(matrix.reshape(-1), flat.reshape(-1).astype(np.intp),
                     (np.uint64(1) << (pos & np.uint64(63))).reshape(-1))
    for filt, row, n in zip(filters, matrix, sizes):
        if n:
            filt._bits.words |= row
            filt._n += n


class BlockedBloomFilter(DynamicFilter):
    """Cache-blocked Bloom filter.

    Each key hashes to one 512-bit block (a cache line on the machines the
    tutorial targets) and sets k bits inside it.  One memory access per
    query instead of k, at the cost of a slightly higher FPR due to block
    load imbalance — the classic speed/accuracy trade.
    """

    supports_deletes = False
    BLOCK_BITS = 512

    def __init__(self, capacity: int, epsilon: float, *, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.capacity = capacity
        self.epsilon = epsilon
        self.seed = seed
        bits_per_key = math.log2(math.e) * math.log2(1 / epsilon)
        total_bits = max(self.BLOCK_BITS, int(math.ceil(capacity * bits_per_key)))
        self._n_blocks = (total_bits + self.BLOCK_BITS - 1) // self.BLOCK_BITS
        self._k = bloom_optimal_hashes(bits_per_key)
        self._bits = BitVector(self._n_blocks * self.BLOCK_BITS)
        self._n = 0

    def _positions(self, key: Key) -> list[int]:
        h1, h2 = hash_pair(key, self.seed)
        block = (h1 % self._n_blocks) * self.BLOCK_BITS
        step = (h2 | 1) % self.BLOCK_BITS or 1
        offset = h2 >> 32
        return [
            block + ((offset + i * step) % self.BLOCK_BITS) for i in range(self._k)
        ]

    def _positions_many(self, keys: KeyBatch) -> np.ndarray:
        """(n_keys, k) positions, all inside each key's single block."""
        h1, h2 = hash_pair_many(keys, self.seed)
        block_bits = np.uint64(self.BLOCK_BITS)
        block = (h1 % np.uint64(self._n_blocks)) * block_bits
        step = (h2 | np.uint64(1)) % block_bits  # odd mod even is nonzero
        offset = h2 >> np.uint64(32)
        i = np.arange(self._k, dtype=np.uint64)
        in_block = (offset[:, None] + i[None, :] * step[:, None]) % block_bits
        return block[:, None] + in_block

    def insert(self, key: Key) -> None:
        for pos in self._positions(key):
            self._bits.set(pos)
        self._n += 1

    def insert_many(self, keys: KeyBatch) -> None:
        n = len(keys)
        if not n:
            return
        self._bits.set_many(self._positions_many(keys).ravel())
        self._n += n

    def may_contain(self, key: Key) -> bool:
        return all(self._bits.get(pos) for pos in self._positions(key))

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        if not len(keys):
            return np.zeros(0, dtype=bool)
        pos = self._positions_many(keys)
        words = self._bits.words
        bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=1)

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._bits.n_bits
