"""Flat-Bloofi: a bit-sliced filter-of-filters index (Crainiceanu & Lemire).

``ShardedFilter`` answers "which shard may hold this key?" by probing
every shard — O(N) filter probes per lookup.  At fleet scale (thousands
to millions of per-tenant filters) that is the whole query budget.
Bloofi (PAPERS.md) indexes the fleet's summary filters instead.  Every
summary shares one Bloom geometry ``(m, k, seed)``, so a key tests the
*same* k bit positions in each of them, and the Flat-Bloofi layout
stores the summaries transposed:

* **rows:** row *i* holds bit *i* of every tenant's summary, one bit
  per tenant, packed 64 tenants to a word;
* **slots:** each tenant owns one column slot; a new tenant takes the
  lowest free slot, and the rows grow by one 64-slot word only when no
  slot is free;
* **lookup:** AND the key's k rows; the surviving bits are exactly the
  tenants whose summary answers MAYBE.

Removing a tenant clears its column, so nothing stale is left behind:
every free or never-used slot has an all-zero column
(:meth:`BloofiTree.check_invariants`).

**Cost model.**  A probe is one filter test that reads k 64-byte
lines — what the serving simulator charges ``probe_latency`` for.  A
bit-sliced lookup over *S* slots ANDs the k rows one 512-slot line at a
time, so it costs ``ceil(S / 512)`` probes.

**Faults only widen.**  With a *fault* callback, each (row, line) read
draws ``fault("row", (row, line))``.  An unreadable line reads as all
ones for its 512 slots, masked to the occupied slots: it cannot prune,
so it only adds candidates, and the lookup reports the unreadable reads
so the caller can mark its answer degraded.

The class keeps the name ``BloofiTree``, which the served-request
benchmark's tracer wraps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.interfaces import Key
from repro.filters.bloom import BloomFilter

LINE_SLOTS = 512  # tenant slots per 64-byte line
_LINE_WORDS = LINE_SLOTS // 64
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass
class BloofiLookup:
    """One lookup's candidate tenants plus its cost.

    ``probes`` is the number of 512-slot lines the k rows were ANDed
    over; ``unreadable`` counts the (row, line) reads that faulted and
    were read as all ones.
    """

    tenants: list = field(default_factory=list)
    probes: int = 0
    unreadable: int = 0


def _set_bits(words: np.ndarray) -> list[int]:
    """Indexes of the set bits of *words*, bit 0 of word 0 first.  A
    lookup's words are sparse, so the loop visits only set bits."""
    slots = []
    for w in np.flatnonzero(words).tolist():
        word = int(words[w])
        while word:
            low = word & -word
            slots.append(64 * w + low.bit_length() - 1)
            word ^= low
    return slots


class BloofiTree:
    """Bit-sliced index over same-geometry per-tenant summary filters.

    Each tenant's summary is the Bloom filter
    ``BloomFilter(leaf_capacity, epsilon, seed=seed)`` of its keys,
    stored as one column of the rows.
    """

    def __init__(self, leaf_capacity: int = 64, epsilon: float = 0.01, *, seed: int = 0):
        # Fixes the shared geometry and hashes keys; never inserted into.
        self._geometry = BloomFilter(leaf_capacity, epsilon, seed=seed)
        self.m = self._geometry.size_in_bits
        self.k = self._geometry.n_hashes
        self._rows = np.zeros((self.m, 0), dtype=np.uint64)
        self._occupied = np.zeros(0, dtype=np.uint64)  # one bit per slot
        self._slot_of: dict[Any, int] = {}
        self._tenant_at: list = []  # slot -> tenant, None when free
        self._free: list[int] = []  # heap of free slots

    # -- membership ---------------------------------------------------------------

    def tenant_ids(self) -> list:
        return list(self._slot_of)

    @property
    def n_slots(self) -> int:
        return self._rows.shape[1] * 64

    @property
    def size_in_bits(self) -> int:
        """Every allocated row word."""
        return self._rows.size * 64

    def add_tenant(self, tenant, keys=()) -> None:
        self.add_tenants([(tenant, keys)])

    def add_tenants(self, batch) -> None:
        """Give every ``(tenant, keys)`` of *batch* a slot, in order, and
        set its keys' bits: one hash pass over the whole batch, then one
        word-level scatter.  A repeated or indexed tenant raises
        :class:`ValueError` before anything changes."""
        batch = [(tenant, list(keys)) for tenant, keys in batch]
        seen: set = set()
        for tenant, _keys in batch:
            if tenant in self._slot_of or tenant in seen:
                raise ValueError(f"tenant {tenant!r} is already indexed or repeats")
            seen.add(tenant)
        short = len(batch) - len(self._free)
        if short > 0:
            self._grow(-(-short // 64))
        slots = [heapq.heappop(self._free) for _ in batch]
        for (tenant, _keys), slot in zip(batch, slots):
            self._slot_of[tenant] = slot
            self._tenant_at[slot] = tenant
        slot_array = np.array(slots, dtype=np.uint64)
        np.bitwise_or.at(self._occupied, (slot_array >> np.uint64(6)).astype(np.intp),
                         np.uint64(1) << (slot_array & np.uint64(63)))
        sizes = [len(keys) for _tenant, keys in batch]
        keys = [key for _tenant, tenant_keys in batch for key in tenant_keys]
        if not keys:
            return
        owner = np.repeat(slot_array, sizes)
        pos = self._geometry._positions_many(keys)
        n_words = np.uint64(self._rows.shape[1])
        np.bitwise_or.at(
            self._rows.reshape(-1),
            (pos * n_words + (owner >> np.uint64(6))).reshape(-1).astype(np.intp),
            np.broadcast_to(np.uint64(1) << (owner & np.uint64(63)), pos.shape).reshape(-1),
        )

    def _grow(self, n_words: int) -> None:
        """Append *n_words* words of free slots to every row."""
        start = self.n_slots
        self._rows = np.concatenate(
            [self._rows, np.zeros((self.m, n_words), dtype=np.uint64)], axis=1
        )
        self._occupied = np.concatenate([self._occupied, np.zeros(n_words, dtype=np.uint64)])
        self._tenant_at.extend([None] * (64 * n_words))
        # Larger than every slot before them and in order, so appending
        # keeps the heap property.
        self._free.extend(range(start, self.n_slots))

    def remove_tenant(self, tenant) -> None:
        """Clear *tenant*'s column and free its slot."""
        slot = self._slot_of.pop(tenant, None)
        if slot is None:
            raise KeyError(f"tenant {tenant!r} is not indexed")
        keep = ~(np.uint64(1) << np.uint64(slot & 63))
        self._rows[:, slot >> 6] &= keep
        self._occupied[slot >> 6] &= keep
        self._tenant_at[slot] = None
        heapq.heappush(self._free, slot)

    def insert(self, tenant, key: Key) -> None:
        self.insert_many(tenant, [key])

    def insert_many(self, tenant, keys) -> None:
        """Set the bits of every key in *tenant*'s column."""
        slot = self._slot_of.get(tenant)
        if slot is None:
            raise KeyError(f"tenant {tenant!r} is not indexed")
        keys = list(keys)
        if keys:
            rows = self._geometry._positions_many(keys).reshape(-1).astype(np.intp)
            self._rows[rows, slot >> 6] |= np.uint64(1) << np.uint64(slot & 63)

    # -- lookups -------------------------------------------------------------------

    def positions(self, key: Key) -> np.ndarray:
        """The key's k row numbers: the bits it tests in every summary."""
        return self._geometry.bit_positions(key)

    def candidates(
        self,
        key: Key,
        *,
        fault: Callable[[str, Any], bool] | None = None,
    ) -> BloofiLookup:
        """Every tenant whose summary may hold *key*.

        *fault*, if given, is called as ``fault("row", (row, line))``
        before each (row, line) read; a True return makes that line read
        as all ones, which can only add candidates.
        """
        result = BloofiLookup()
        if not self._slot_of:
            return result
        rows = self.positions(key)
        words = self._rows[rows]
        result.probes = -(-words.shape[1] // _LINE_WORDS)
        if fault is not None:
            row_list = rows.tolist()
            for line in range(result.probes):
                span = slice(line * _LINE_WORDS, (line + 1) * _LINE_WORDS)
                for i, row in enumerate(row_list):
                    if fault("row", (row, line)):
                        words[i, span] = _ALL_ONES
                        result.unreadable += 1
        hits = np.bitwise_and.reduce(words, axis=0) & self._occupied
        result.tenants = [self._tenant_at[slot] for slot in _set_bits(hits)]
        return result

    def tenant_words(self) -> tuple[list, np.ndarray]:
        """``(tenants, words)``: each tenant's summary as a standalone
        Bloom bit array, one row of ``words`` per tenant in slot order —
        the O(N) control reads these instead of the rows."""
        slots = np.array(_set_bits(self._occupied), dtype=np.intp)
        n_words = -(-self.m // 64)
        out = np.zeros((len(slots), n_words), dtype=np.uint64)
        out_bytes = out.view(np.uint8)
        # Transpose 64 words of slots at a time: the unpacked bit matrix
        # of every row is (m, 4096) bytes per block.
        for start in range(0, self._rows.shape[1], 64):
            block = self._rows[:, start:start + 64].astype("<u8").view(np.uint8)
            columns = np.unpackbits(block, axis=1, bitorder="little").T
            first, last = np.searchsorted(slots, [start * 64, (start + 64) * 64])
            packed = np.packbits(columns[slots[first:last] - start * 64], axis=1,
                                 bitorder="little")
            out_bytes[first:last, :packed.shape[1]] = packed
        return [self._tenant_at[slot] for slot in slots.tolist()], out

    # -- self-audit ----------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Audit the slot map; returns failure strings.

        Checked: the slot map, the slot table, the occupancy bits and
        the free heap agree, and every free or unused slot has an
        all-zero column (removal left nothing behind).
        """
        failures: list[str] = []
        occupied = _set_bits(self._occupied)
        if sorted(self._slot_of.values()) != occupied:
            failures.append("occupancy bits disagree with the slot map")
        table: list = [None] * self.n_slots
        for tenant, slot in self._slot_of.items():
            table[slot] = tenant
        if table != self._tenant_at:
            failures.append("slot table disagrees with the slot map")
        if sorted(self._free) != sorted(set(range(self.n_slots)) - set(occupied)):
            failures.append("free slots disagree with the occupancy bits")
        stray = np.bitwise_or.reduce(self._rows, axis=0) & ~self._occupied
        if stray.any():
            failures.append(
                f"free or unused slots {_set_bits(stray)[:8]} have set bits"
            )
        return failures
