"""Cuckoo filter (Fan et al. 2014, "Practically Better Than Bloom").

Stores an f-bit fingerprint per key in a 4-way associative table.  Each key
has two candidate buckets related by partial-key cuckoo hashing:
``i2 = i1 XOR hash(fingerprint)``, so an entry can be relocated (kicked)
knowing only its fingerprint — the property that makes deletes and high
load factors work.

Space: ``(f + 3) ≈ log₂(1/ε) + 3`` bits/key at 95% load with 4-way buckets
(the tutorial's §2 figure; the +3 combines the log₂(2b/ε) fingerprint
sizing and the 1/α load overhead).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.hashing import fingerprint as make_fingerprint
from repro.common.hashing import (
    fingerprint_many,
    hash64,
    hash64_many,
    splitmix64,
    splitmix64_many,
)
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import DynamicFilter, Key, KeyBatch

DEFAULT_BUCKET_SIZE = 4
MAX_KICKS = 500


class CuckooFilter(DynamicFilter):
    """Cuckoo filter with configurable bucket size (ablation A1).

    Parameters
    ----------
    n_buckets:
        Number of buckets; rounded up to a power of two so the partial-key
        XOR trick stays within range.
    fingerprint_bits:
        f; FPR ≈ 2·bucket_size / 2^f.
    bucket_size:
        Entries per bucket (4 is the paper's choice; 2 lowers the max load,
        8 raises it and the FPR).
    """

    supports_deletes = True

    def __init__(
        self,
        n_buckets: int,
        fingerprint_bits: int,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        seed: int = 0,
    ):
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if not 1 <= fingerprint_bits <= 56:
            raise ValueError("fingerprint_bits must be in [1, 56]")
        if bucket_size < 1:
            raise ValueError("bucket_size must be positive")
        self.n_buckets = 1 << max(1, (n_buckets - 1).bit_length())
        self.fingerprint_bits = fingerprint_bits
        self.bucket_size = bucket_size
        self.seed = seed
        # 0 = empty slot (fingerprints are always nonzero).
        self._table = np.zeros((self.n_buckets, bucket_size), dtype=np.uint64)
        self._n = 0
        self._rng = np.random.default_rng(seed ^ 0xCC)
        # One-entry victim cache (as in production implementations): holds
        # the fingerprint left homeless by a failed kick chain so the filter
        # never produces a false negative.
        self._stash: int | None = None

    # -- hashing ---------------------------------------------------------------

    def _fingerprint(self, key: Key) -> int:
        return make_fingerprint(key, self.fingerprint_bits, self.seed)

    def _index1(self, key: Key) -> int:
        return hash64(key, self.seed ^ 0x1D) & (self.n_buckets - 1)

    def _alt_index(self, index: int, fp: int) -> int:
        # A zero offset would make both candidates one bucket, so a key
        # could keep only ``bucket_size`` copies; 1 keeps the XOR an
        # involution with two distinct buckets.
        return index ^ ((splitmix64(fp) & (self.n_buckets - 1)) or 1)

    def _candidates(self, key: Key) -> tuple[int, int, int]:
        fp = self._fingerprint(key)
        i1 = self._index1(key)
        return fp, i1, self._alt_index(i1, fp)

    # -- bucket ops --------------------------------------------------------------

    def _bucket_insert(self, index: int, fp: int) -> bool:
        bucket = self._table[index]
        for slot in range(self.bucket_size):
            if bucket[slot] == 0:
                bucket[slot] = fp
                return True
        return False

    def _bucket_contains(self, index: int, fp: int) -> bool:
        return bool((self._table[index] == fp).any())

    def _bucket_delete(self, index: int, fp: int) -> bool:
        bucket = self._table[index]
        for slot in range(self.bucket_size):
            if bucket[slot] == fp:
                bucket[slot] = 0
                return True
        return False

    # -- public API ------------------------------------------------------------------

    def insert(self, key: Key) -> None:
        if self._stash is not None:
            raise FilterFullError("cuckoo filter full (victim cache occupied)")
        fp, i1, i2 = self._candidates(key)
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            self._n += 1
            return
        # Kick: evict a random resident and relocate it to its alternate.
        index = i1 if self._rng.random() < 0.5 else i2
        current = fp
        for _ in range(MAX_KICKS):
            victim_slot = int(self._rng.integers(self.bucket_size))
            current, self._table[index][victim_slot] = (
                int(self._table[index][victim_slot]),
                current,
            )
            index = self._alt_index(index, current)
            if self._bucket_insert(index, current):
                self._n += 1
                return
        # The displaced chain left `current` homeless: park it in the victim
        # cache (so no false negative is possible) and report the filter full.
        self._stash = current
        self._n += 1
        raise FilterFullError(
            f"cuckoo filter insertion failed after {MAX_KICKS} kicks "
            f"(load {self.load_factor:.3f})"
        )

    def may_contain(self, key: Key) -> bool:
        fp, i1, i2 = self._candidates(key)
        if self._stash is not None and fp == self._stash:
            return True
        return self._bucket_contains(i1, fp) or self._bucket_contains(i2, fp)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Batched probe: both candidate buckets of every key are compared
        against the fingerprints in two table gathers."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        mask = np.uint64(self.n_buckets - 1)
        fp = fingerprint_many(keys, self.fingerprint_bits, self.seed)
        i1 = hash64_many(keys, self.seed ^ 0x1D) & mask
        offset = splitmix64_many(fp) & mask
        offset[offset == 0] = 1
        i2 = i1 ^ offset
        hit = (self._table[i1.astype(np.int64)] == fp[:, None]).any(axis=1)
        hit |= (self._table[i2.astype(np.int64)] == fp[:, None]).any(axis=1)
        if self._stash is not None:
            hit |= fp == np.uint64(self._stash)
        return hit

    def delete(self, key: Key) -> None:
        fp, i1, i2 = self._candidates(key)
        if self._bucket_delete(i1, fp) or self._bucket_delete(i2, fp):
            self._n -= 1
            return
        if self._stash is not None and fp == self._stash:
            self._stash = None
            self._n -= 1
            return
        raise DeletionError("delete of a key that was never inserted")

    # -- accounting ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_slots(self) -> int:
        return self.n_buckets * self.bucket_size

    @property
    def load_factor(self) -> float:
        return self._n / self.n_slots

    @property
    def size_in_bits(self) -> int:
        return self.n_slots * self.fingerprint_bits

    def expected_fpr(self) -> float:
        """≈ 2b·α / 2^f: two buckets of b slots can match the fingerprint."""
        return min(
            1.0,
            2 * self.bucket_size * self.load_factor * 2.0 ** (-self.fingerprint_bits),
        )

    @classmethod
    def for_capacity(
        cls,
        capacity: int,
        epsilon: float,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        seed: int = 0,
    ) -> "CuckooFilter":
        """Size a filter for *capacity* keys at target FPR *epsilon*.

        Fingerprint sizing follows the paper: f = ⌈log₂(2b/ε)⌉; the table is
        provisioned for 95% load (4-way buckets reach it whp).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        f = max(1, math.ceil(math.log2(2 * bucket_size / epsilon)))
        n_buckets = max(1, math.ceil(capacity / (0.95 * bucket_size)))
        return cls(n_buckets, f, bucket_size=bucket_size, seed=seed)
