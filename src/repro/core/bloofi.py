"""Bloofi: a hierarchical filter-of-filters index (Crainiceanu & Lemire).

``ShardedFilter`` answers "which shard may hold this key?" by probing
every shard — O(N) filter probes per lookup.  At fleet scale (thousands
to millions of per-tenant filters) that is the whole query budget.
Bloofi (PAPERS.md) turns the fleet into a B-tree-shaped index: each
leaf is one tenant's Bloom filter, each interior node stores the
**bit-OR** of its children, and a lookup descends only into subtrees
whose OR says MAYBE.  Because every filter shares one geometry
``(m, k, seed)``, a key probes the *same* bit positions at every level,
and an interior OR that misses any of them proves no descendant leaf
can match — pruning is exact with respect to the leaves.

Maintenance follows the paper's split:

* **inserts** propagate incrementally — the key's k bits are OR-ed into
  every ancestor on the way up (O(k · height));
* **tenant add** descends to the least-loaded bottom node and splits
  nodes B-tree-style when they exceed ``max_fanout`` (all leaves stay
  at one depth);
* **tenant remove** is *lazy*: the leaf unlinks (with underflow
  merge/borrow) but ancestor ORs keep the dead tenant's bits — a safe
  superset that only costs extra descents, never a wrong answer;
* a **periodic full re-OR** (:meth:`BloofiTree.reor`, automatic every
  ``reor_interval`` removals) recomputes every interior OR bottom-up
  and sheds that deletion staleness.

The safety invariant everything above preserves: **every interior OR is
a bitwise superset of the OR of its descendant leaves**, so a present
key can never be pruned away — the tree inherits the one-sided-error
contract of its leaves.  A *degraded* node (its OR unreadable, injected
by the serving layer's chaos hooks) is treated as MAYBE and descended
unconditionally: degradation widens the search, never narrows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.interfaces import Key
from repro.filters.bloom import BloomFilter


@dataclass(frozen=True)
class BloofiConfig:
    """Geometry + maintenance knobs for one Bloofi tree.

    All leaves share ``(leaf_capacity, epsilon, seed)`` — that triple
    fixes the bit-array shape and hash path, which is what makes the
    interior ORs meaningful.  ``max_fanout`` bounds node width
    (``min_fanout`` = half, B-tree style); ``reor_interval`` is the
    number of tenant removals tolerated before an automatic full re-OR.
    """

    leaf_capacity: int = 64
    epsilon: float = 0.01
    seed: int = 0
    max_fanout: int = 8
    reor_interval: int = 64

    def __post_init__(self):
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        if self.reor_interval < 1:
            raise ValueError("reor_interval must be positive")

    @property
    def min_fanout(self) -> int:
        return max(2, self.max_fanout // 2)


class _Node:
    """One tree node: a leaf (tenant + filter) or an interior OR."""

    __slots__ = ("words", "children", "parent", "tenant", "filter", "n_leaves")

    def __init__(self, *, tenant=None, filt: BloomFilter | None = None,
                 n_words: int = 0):
        self.parent: _Node | None = None
        self.tenant = tenant
        self.filter = filt
        if filt is not None:           # leaf: words alias the filter's bits
            self.words = filt._bits.words
            self.children = None
            self.n_leaves = 1
        else:                          # interior: own OR accumulator
            self.words = np.zeros(n_words, dtype=np.uint64)
            self.children: list[_Node] = []
            self.n_leaves = 0

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class BloofiLookup:
    """One descent's result: candidate tenants plus probe accounting.

    ``tenants`` are exactly the leaves whose summary filter answered
    MAYBE (or whose summary was degraded — listed in ``degraded_leaves``
    too, since an unreadable leaf cannot prove absence).  ``probes`` is
    the number of node filters actually tested — the quantity the
    router-vs-flat benchmark compares; ``probes_by_level`` splits it by
    depth (root = level 0).  ``degraded_descents`` counts interior nodes
    whose OR was unreadable and were therefore descended without
    pruning.
    """

    tenants: list = field(default_factory=list)
    probes: int = 0
    probes_by_level: dict[int, int] = field(default_factory=dict)
    degraded_descents: int = 0
    degraded_leaves: list = field(default_factory=list)


class BloofiTree:
    """Bit-OR B-tree over same-geometry per-tenant Bloom filters."""

    def __init__(self, config: BloofiConfig | None = None):
        self.config = config if config is not None else BloofiConfig()
        # Template fixes the shared geometry; never inserted into.
        self._template = BloomFilter(
            self.config.leaf_capacity, self.config.epsilon,
            seed=self.config.seed,
        )
        self._n_words = len(self._template._bits.words)
        self._root = _Node(n_words=self._n_words)
        self._leaves: dict[Any, _Node] = {}
        self._removals_since_reor = 0
        self.reor_runs = 0
        # Cached aggregates (size, height) are recomputed lazily and
        # invalidated on every child-membership change — never trust a
        # structural property cached across splits/merges
        # (the ShardedFilter.supports_deletes lesson, tests/test_tenant.py).
        self._agg_cache: dict[str, Any] = {}

    # -- geometry ---------------------------------------------------------------

    def make_leaf_filter(self) -> BloomFilter:
        """A fresh empty filter with this tree's shared geometry."""
        return BloomFilter(
            self.config.leaf_capacity, self.config.epsilon,
            seed=self.config.seed,
        )

    def _check_geometry(self, filt: BloomFilter) -> None:
        t = self._template
        if (filt._m, filt._k, filt.seed) != (t._m, t._k, t.seed):
            raise ValueError(
                "leaf filter geometry (m, k, seed) must match the tree's; "
                "build leaves with make_leaf_filter()"
            )

    def _probe_arrays(self, key: Key) -> tuple[np.ndarray, np.ndarray]:
        """(word indexes, bit masks) for *key* — shared by every level."""
        pos = self._template.bit_positions(key)
        return pos >> 6, (np.uint64(1) << (pos & 63).astype(np.uint64))

    # -- aggregate properties ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def n_tenants(self) -> int:
        return len(self._leaves)

    def tenant_ids(self) -> list:
        return list(self._leaves)

    def tenant_filter(self, tenant) -> BloomFilter:
        return self._leaves[tenant].filter

    def __contains__(self, tenant) -> bool:
        return tenant in self._leaves

    @property
    def height(self) -> int:
        """Levels of interior nodes above the leaves (0 = leaves hang
        off the root)."""
        cached = self._agg_cache.get("height")
        if cached is None:
            cached = 0
            node = self._root
            while node.children and not node.children[0].is_leaf:
                cached += 1
                node = node.children[0]
            self._agg_cache["height"] = cached
        return cached

    @property
    def size_in_bits(self) -> int:
        """Total bits across interior ORs and leaf filters (cached;
        invalidated on any child-membership change)."""
        cached = self._agg_cache.get("size_in_bits")
        if cached is None:
            n_interior = sum(1 for _ in self._walk_interior())
            cached = (n_interior * self._n_words * 64
                      + sum(leaf.filter.size_in_bits
                            for leaf in self._leaves.values()))
            self._agg_cache["size_in_bits"] = cached
        return cached

    def _invalidate_aggregates(self) -> None:
        self._agg_cache.clear()

    def _walk_interior(self):
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            yield node
            stack.extend(node.children)

    # -- maintenance: add / remove / split / merge ------------------------------

    def add_tenant(self, tenant, filt: BloomFilter | None = None) -> BloomFilter:
        """Attach a leaf for *tenant*; returns its summary filter.

        A caller-provided *filt* (e.g. a pre-loaded filter recovered
        from disk) must share the tree's geometry; its bits are OR-ed
        into every ancestor immediately.
        """
        if tenant in self._leaves:
            raise ValueError(f"tenant {tenant!r} is already indexed")
        if filt is None:
            filt = self.make_leaf_filter()
        else:
            self._check_geometry(filt)
        leaf = _Node(tenant=tenant, filt=filt)
        # Descend to the least-loaded bottom interior node (keeps the
        # tree balanced without the paper's similarity heuristic, which
        # buys FPR, not correctness).
        node = self._root
        while node.children and not node.children[0].is_leaf:
            node = min(node.children, key=lambda c: c.n_leaves)
        node.children.append(leaf)
        leaf.parent = node
        cursor = node
        while cursor is not None:
            cursor.n_leaves += 1
            cursor.words |= leaf.words
            cursor = cursor.parent
        self._leaves[tenant] = leaf
        if len(node.children) > self.config.max_fanout:
            self._split(node)
        self._invalidate_aggregates()
        return filt

    def _split(self, node: _Node) -> None:
        """B-tree split: half of *node*'s children move to a new sibling."""
        half = len(node.children) // 2
        sibling = _Node(n_words=self._n_words)
        sibling.children = node.children[half:]
        node.children = node.children[:half]
        for child in sibling.children:
            child.parent = sibling
        self._refresh(node)
        self._refresh(sibling)
        parent = node.parent
        if parent is None:
            # Root split: the tree grows one level.
            new_root = _Node(n_words=self._n_words)
            new_root.children = [node, sibling]
            node.parent = sibling.parent = new_root
            new_root.n_leaves = node.n_leaves + sibling.n_leaves
            new_root.words |= node.words
            new_root.words |= sibling.words
            self._root = new_root
        else:
            parent.children.insert(parent.children.index(node) + 1, sibling)
            sibling.parent = parent
            if len(parent.children) > self.config.max_fanout:
                self._split(parent)
        self._invalidate_aggregates()

    def _refresh(self, node: _Node) -> None:
        """Recompute *node*'s OR and leaf count from its children."""
        node.words[:] = 0
        node.n_leaves = 0
        for child in node.children:
            node.words |= child.words
            node.n_leaves += child.n_leaves

    def remove_tenant(self, tenant) -> None:
        """Unlink *tenant*'s leaf (lazily: ancestor ORs keep its bits).

        Underflowing interiors merge into (or borrow from) a sibling so
        non-root nodes keep at least ``min_fanout`` children.  Every
        ``reor_interval`` removals an automatic :meth:`reor` sheds the
        accumulated superset staleness.
        """
        leaf = self._leaves.pop(tenant, None)
        if leaf is None:
            raise KeyError(f"tenant {tenant!r} is not indexed")
        parent = leaf.parent
        parent.children.remove(leaf)
        leaf.parent = None
        cursor = parent
        while cursor is not None:
            cursor.n_leaves -= 1
            cursor = cursor.parent
        self._rebalance(parent)
        self._invalidate_aggregates()
        self._removals_since_reor += 1
        if self._removals_since_reor >= self.config.reor_interval:
            self.reor()

    def _rebalance(self, node: _Node) -> None:
        """Restore the fanout floor after a removal under *node*."""
        if node.parent is None:
            # The root may hold any number of children; collapse it when
            # a single interior child remains (the tree shrinks a level).
            while (node.children and len(node.children) == 1
                   and not node.children[0].is_leaf):
                self._root = node.children[0]
                self._root.parent = None
                node = self._root
            return
        if len(node.children) >= self.config.min_fanout:
            return
        parent = node.parent
        index = parent.children.index(node)
        sibling = min(
            (c for c in parent.children if c is not node),
            key=lambda c: len(c.children),
        )
        if (len(sibling.children) + len(node.children)
                <= self.config.max_fanout):
            # Merge: the sibling adopts every child (its OR grows by
            # theirs — still exact-or-superset), and the emptied node
            # unlinks; the parent may underflow in turn.
            for child in node.children:
                child.parent = sibling
                sibling.words |= child.words
                sibling.n_leaves += child.n_leaves
            sibling.children.extend(node.children)
            node.children = []
            parent.children.pop(index)
            if len(sibling.children) > self.config.max_fanout:
                self._split(sibling)
            self._rebalance(parent)
        else:
            # Borrow: pull children across until the floor is met.  The
            # donor's OR keeps the moved bits (lazy superset, reor()
            # tightens); the receiver's OR grows exactly.
            while len(node.children) < self.config.min_fanout:
                moved = sibling.children.pop()
                moved.parent = node
                node.children.append(moved)
                node.words |= moved.words
                node.n_leaves += moved.n_leaves
                sibling.n_leaves -= moved.n_leaves

    # -- inserts and lookups ----------------------------------------------------

    def insert(self, tenant, key: Key) -> None:
        """Insert *key* into *tenant*'s filter and OR the k bits upward."""
        leaf = self._leaves.get(tenant)
        if leaf is None:
            raise KeyError(f"tenant {tenant!r} is not indexed")
        leaf.filter.insert(key)
        widx, masks = self._probe_arrays(key)
        node = leaf.parent
        while node is not None:
            np.bitwise_or.at(node.words, widx, masks)
            node = node.parent

    def insert_many(self, tenant, keys) -> None:
        """Batch insert: one leaf scatter, then one OR pass per ancestor."""
        leaf = self._leaves.get(tenant)
        if leaf is None:
            raise KeyError(f"tenant {tenant!r} is not indexed")
        keys = list(keys)
        if not keys:
            return
        leaf.filter.insert_many(keys)
        node = leaf.parent
        while node is not None:
            node.words |= leaf.words
            node = node.parent

    def _matches(self, node: _Node, widx: np.ndarray, masks: np.ndarray) -> bool:
        return bool(((node.words[widx] & masks) == masks).all())

    def candidates(
        self,
        key: Key,
        *,
        fault: Callable[[str, int], bool] | None = None,
    ) -> BloofiLookup:
        """Descend from the root; return every tenant that may hold *key*.

        *fault*, if given, is called as ``fault(kind, depth)`` with
        ``kind`` in ``{"node", "leaf"}`` before each filter read; a True
        return marks that read degraded.  A degraded interior node is
        descended unconditionally (its OR cannot prune), and a degraded
        leaf is reported as a candidate (its filter cannot prove
        absence) — chaos widens the candidate set, never narrows it.
        """
        result = BloofiLookup()
        if not self._leaves:
            return result
        widx, masks = self._probe_arrays(key)
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if fault is not None and fault(
                "leaf" if node.is_leaf else "node", depth
            ):
                if node.is_leaf:
                    result.tenants.append(node.tenant)
                    result.degraded_leaves.append(node.tenant)
                else:
                    result.degraded_descents += 1
                    stack.extend((c, depth + 1) for c in node.children)
                continue
            result.probes += 1
            result.probes_by_level[depth] = (
                result.probes_by_level.get(depth, 0) + 1
            )
            if not self._matches(node, widx, masks):
                continue
            if node.is_leaf:
                result.tenants.append(node.tenant)
            else:
                stack.extend((c, depth + 1) for c in node.children)
        return result

    # -- staleness maintenance --------------------------------------------------

    def reor(self) -> int:
        """Full bottom-up re-OR of every interior node.

        Returns the number of stale bits cleared.  This is the periodic
        pass that sheds lazy-removal staleness; between calls the
        interior ORs are supersets (never subsets) of their descendant
        leaves' OR, so skipping it costs descents, not correctness.
        """
        cleared = 0

        def rebuild(node: _Node) -> np.ndarray:
            nonlocal cleared
            if node.is_leaf:
                return node.words
            exact = np.zeros(self._n_words, dtype=np.uint64)
            for child in node.children:
                exact |= rebuild(child)
            stale = node.words & ~exact
            if stale.any():
                from repro.common.bitvector import popcount64

                cleared += int(popcount64(stale).sum())
            node.words[:] = exact
            return exact

        rebuild(self._root)
        self._removals_since_reor = 0
        self.reor_runs += 1
        return cleared

    def stale_fraction(self) -> float:
        """Fraction of interior set bits not justified by any descendant
        leaf — 0.0 right after :meth:`reor`, grows with lazy removals."""
        from repro.common.bitvector import popcount64

        total = 0
        stale = 0

        def walk(node: _Node) -> np.ndarray:
            nonlocal total, stale
            if node.is_leaf:
                return node.words
            exact = np.zeros(self._n_words, dtype=np.uint64)
            for child in node.children:
                exact |= walk(child)
            total += int(popcount64(node.words).sum())
            stale += int(popcount64(node.words & ~exact).sum())
            return exact

        walk(self._root)
        return stale / total if total else 0.0

    # -- self-audit -------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Audit the structural invariants; returns failure strings.

        Checked: every interior OR is a superset of the OR of its
        children (transitively, of its descendant leaves); leaf counts
        are consistent; all leaves sit at one depth; non-root interiors
        respect the fanout bounds; the leaf registry matches the tree.
        """
        failures: list[str] = []
        seen_tenants: list = []
        leaf_depths: set[int] = set()

        def walk(node: _Node, depth: int) -> int:
            if node.is_leaf:
                seen_tenants.append(node.tenant)
                leaf_depths.add(depth)
                return 1
            n = 0
            union = np.zeros(self._n_words, dtype=np.uint64)
            for child in node.children:
                if child.parent is not node:
                    failures.append(f"broken parent link at depth {depth}")
                n += walk(child, depth + 1)
                union |= child.words
            if (union & ~node.words).any():
                failures.append(
                    f"interior OR at depth {depth} is missing child bits "
                    "(would prune a present key)"
                )
            if node.n_leaves != n:
                failures.append(
                    f"leaf count at depth {depth}: cached {node.n_leaves}, "
                    f"actual {n}"
                )
            if node is not self._root:
                if not (self.config.min_fanout <= len(node.children)
                        <= self.config.max_fanout):
                    failures.append(
                        f"fanout {len(node.children)} outside "
                        f"[{self.config.min_fanout}, {self.config.max_fanout}] "
                        f"at depth {depth}"
                    )
            return n

        walk(self._root, 0)
        if sorted(seen_tenants, key=repr) != sorted(self._leaves, key=repr):
            failures.append("leaf registry disagrees with the tree's leaves")
        if len(leaf_depths) > 1:
            failures.append(f"leaves at multiple depths: {sorted(leaf_depths)}")
        return failures
