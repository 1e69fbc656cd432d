"""Vector quotient filter (Pandey, Conway, Durie, Bender, Farach-Colton &
Johnson 2021, SIGMOD).

The §2.1 footnote's third data point (2.914 metadata bits/key): keys hash
to one of two large *blocks* (the paper's "mini filters", sized for SIMD),
chosen power-of-two-choices style by load; within a block, fingerprints are
stored in a quotienting mini-table.  Two-choice blocks keep every block
below capacity w.h.p. at ~94% global load without cuckoo kicking — inserts
never displace other keys, which is what makes the VQF fast and easy to
make concurrent.

As in the cuckoo filter, the second block is ``h(fp) - b1 mod n``, so all
keys whose fingerprint sits in a block share its pair, and a delete may
take any copy of the fingerprint from the pair without evicting a key.

This reproduction keeps the two-choice block structure and per-block
quotienting semantics; the SIMD word layout is modelled by the metadata
accounting (2.914 bits/key at full load, per the paper).
"""

from __future__ import annotations

import math

from repro.common.hashing import fingerprint, hash_to_range
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import DynamicFilter, Key

BLOCK_SLOTS = 48  # the paper's mini-filter capacity (46-51 depending on r)
METADATA_BITS_PER_KEY = 2.914


class VectorQuotientFilter(DynamicFilter):
    """Two-choice blocked fingerprint filter (no kicking, fast inserts)."""

    supports_deletes = True

    def __init__(
        self,
        n_blocks: int,
        fingerprint_bits: int,
        *,
        block_slots: int = BLOCK_SLOTS,
        seed: int = 0,
    ):
        if n_blocks < 2:
            raise ValueError("need at least two blocks for two-choice hashing")
        if not 1 <= fingerprint_bits <= 56:
            raise ValueError("fingerprint_bits must be in [1, 56]")
        self.n_blocks = n_blocks
        self.fingerprint_bits = fingerprint_bits
        self.block_slots = block_slots
        self.seed = seed
        # Each block is a small multiset of fingerprints (the mini-filter).
        self._blocks: list[list[int]] = [[] for _ in range(n_blocks)]
        self._n = 0

    # -- hashing -----------------------------------------------------------------

    def _candidates(self, key: Key) -> tuple[int, int, int]:
        b1 = hash_to_range(key, self.n_blocks, self.seed ^ 0x7F)
        fp = fingerprint(key, self.fingerprint_bits, self.seed ^ 0x7E)
        # The pair {b1, b2} is fixed by either block and fp (b2 may equal b1).
        b2 = (hash_to_range(fp, self.n_blocks, self.seed ^ 0x7D) - b1) % self.n_blocks
        return b1, b2, fp

    # -- operations ------------------------------------------------------------------

    def insert(self, key: Key) -> None:
        b1, b2, fp = self._candidates(key)
        # Power of two choices: the less-loaded block takes the key.
        target = b1 if len(self._blocks[b1]) <= len(self._blocks[b2]) else b2
        if len(self._blocks[target]) >= self.block_slots:
            raise FilterFullError(
                "vector quotient filter block overflow (two-choice exhausted)"
            )
        self._blocks[target].append(fp)
        self._n += 1

    def may_contain(self, key: Key) -> bool:
        b1, b2, fp = self._candidates(key)
        return fp in self._blocks[b1] or fp in self._blocks[b2]

    def delete(self, key: Key) -> None:
        b1, b2, fp = self._candidates(key)
        for block_index in (b1, b2):
            block = self._blocks[block_index]
            if fp in block:
                block.remove(fp)
                self._n -= 1
                return
        raise DeletionError("delete of a key that was never inserted")

    # -- accounting -----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_slots(self) -> int:
        return self.n_blocks * self.block_slots

    @property
    def load_factor(self) -> float:
        return self._n / self.n_slots

    @property
    def size_in_bits(self) -> int:
        """Fingerprints + the paper's 2.914 metadata bits per slot."""
        return int(self.n_slots * (self.fingerprint_bits + METADATA_BITS_PER_KEY))

    def expected_fpr(self) -> float:
        """Two blocks of ~load·slots fingerprints each may match."""
        return min(
            1.0,
            2 * self.load_factor * self.block_slots * 2.0 ** (-self.fingerprint_bits),
        )

    def max_block_load(self) -> int:
        """Fullest block (two-choice keeps this near the average)."""
        return max(len(block) for block in self._blocks)

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float, *, seed: int = 0
    ) -> "VectorQuotientFilter":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        n_blocks = max(2, math.ceil(capacity / (BLOCK_SLOTS * 0.94)))
        f = max(1, math.ceil(math.log2(2 * BLOCK_SLOTS / epsilon)))
        return cls(n_blocks, f, seed=seed)
