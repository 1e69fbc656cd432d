"""Registry-wide differential testing against an exact-set oracle.

Every constructible filter family — plus lock-striped ``ShardedFilter``
and metered ``InstrumentedFilter`` wrappings — is driven through the
same hypothesis-generated op sequences (insert / delete / query /
serialize-roundtrip / batch probe) in lockstep with an exact Python
``set``.  The differential invariants:

* **no false negatives, ever** — any key the oracle holds must answer
  maybe-present, after any op prefix;
* **batch ≡ scalar** — ``may_contain_many`` agrees element-wise with
  ``may_contain`` at every checkpoint;
* **roundtrip equivalence** — for serializable families,
  ``loads(dumps(f))`` answers identically to ``f`` on every probe.

Deletes are only issued for keys the oracle currently holds (deleting a
never-inserted key is outside every filter's contract) and only to
families that advertise ``supports_deletes``.

Also hosts the ``ShardedFilter.supports_deletes`` regression test: the
flag must be recomputed from live shards, not frozen at construction,
or a shard that loses delete support when it grows keeps advertising
deletes it can no longer honour.

The tenant-router differential (``TestTenantRouterDifferential``) runs
the Bloofi filter-of-filters router against flat fan-out as the oracle,
with every registry family (and the sharded/instrumented wrappings)
injected as the per-tenant authoritative filter: after any interleaving
of provision / deprovision / insert, the O(log N) descent and the O(N)
scan must report the *identical* candidate set for every probe — tree
pruning is exact with respect to the leaves, whatever filter sits
underneath.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concurrent import ShardedFilter
from repro.core.errors import FilterFullError
from repro.core.interfaces import DynamicFilter
from repro.core.registry import FEATURE_MATRIX, make_filter
from repro.core.serialize import dumps as filter_dumps, loads as filter_loads
from repro.obs import InstrumentedFilter, MetricsRegistry
from repro.serve.tenant import TenantConfig, TenantRouter


def _factory_constructible(f) -> bool:
    return f.inserts and not f.values and not f.ranges


DIFF_NAMES = sorted(
    name
    for name, f in FEATURE_MATRIX.items()
    if _factory_constructible(f) and f.kind in ("dynamic", "semi-dynamic")
)
# Wrapped variants must satisfy the identical differential contract:
# sharding changes key routing and batch grouping, instrumentation
# interposes on every probe — neither may change a single answer.
DIFF_NAMES += [
    "sharded:bloom", "sharded:cuckoo", "sharded:dynamic-cuckoo",
    "instrumented:bloom", "instrumented:cuckoo",
]
STATIC_NAMES = ["xor", "xor-plus", "ribbon"]

# Families whose dumps/loads roundtrip is a supported, documented path.
SERIALIZABLE = {"bloom", "quotient", "cuckoo", "xor", "ribbon"}


def _make(name: str, *, capacity: int = 256, epsilon: float = 0.05, seed: int = 7):
    if name.startswith("sharded:"):
        inner = name.split(":", 1)[1]
        n_shards = 4
        return ShardedFilter(
            lambda i: make_filter(inner, capacity=capacity // n_shards + 8,
                                  epsilon=epsilon, seed=seed + i),
            n_shards=n_shards, seed=seed,
        )
    if name.startswith("instrumented:"):
        inner = name.split(":", 1)[1]
        return InstrumentedFilter(
            make_filter(inner, capacity=capacity, epsilon=epsilon, seed=seed),
            name=f"diff-{inner}", registry=MetricsRegistry(),
        )
    return make_filter(name, capacity=capacity, epsilon=epsilon, seed=seed)


# Op sequences over a small key universe so inserts collide with deletes
# and queries often enough to exercise the interesting interleavings.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "query", "batch"]),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=48,
)

ABSENT_PROBES = [10**9 + 7 * i for i in range(12)]


def _checkpoint(filt, oracle, touched):
    """The differential invariants at one point in the op sequence."""
    probes = sorted(touched) + ABSENT_PROBES
    scalar = [filt.may_contain(k) for k in probes]
    batch = filt.may_contain_many(probes).tolist()
    assert batch == scalar, "batch answers diverge from scalar answers"
    for key, maybe in zip(probes, scalar):
        if key in oracle:
            assert maybe, f"false negative for present key {key}"


def _apply_ops(filt, ops):
    """Run ops against filter and oracle in lockstep; returns (oracle, touched)."""
    oracle: set[int] = set()
    touched: set[int] = set()
    deletable = filt.supports_deletes
    for op, key in ops:
        touched.add(key)
        if op == "insert":
            try:
                filt.insert(key)
            except FilterFullError:
                continue  # capacity is the filter's business, not an answer
            oracle.add(key)
        elif op == "delete":
            if deletable and key in oracle:
                filt.delete(key)
                oracle.discard(key)
            else:
                # Out-of-contract delete degrades to a query of the key.
                if key in oracle:
                    assert filt.may_contain(key)
        elif op == "query":
            if key in oracle:
                assert filt.may_contain(key), f"false negative for {key}"
        else:  # batch — mid-sequence checkpoint
            _checkpoint(filt, oracle, touched)
    return oracle, touched


@pytest.mark.parametrize("name", DIFF_NAMES)
class TestDifferentialDynamic:
    @given(ops=ops_strategy)
    @settings(max_examples=8, deadline=None)
    def test_op_sequence_matches_oracle(self, name, ops):
        filt = _make(name)
        oracle, touched = _apply_ops(filt, ops)
        _checkpoint(filt, oracle, touched)

    @given(ops=ops_strategy)
    @settings(max_examples=4, deadline=None)
    def test_roundtrip_preserves_answers(self, name, ops):
        base = name.split(":", 1)[-1]
        if base not in SERIALIZABLE or ":" in name:
            pytest.skip(f"{name} has no dumps/loads path")
        filt = _make(name)
        oracle, touched = _apply_ops(filt, ops)
        clone = filter_loads(filter_dumps(filt))
        probes = sorted(touched) + ABSENT_PROBES
        assert [clone.may_contain(k) for k in probes] == [
            filt.may_contain(k) for k in probes
        ], "roundtrip changed answers"
        _checkpoint(clone, oracle, touched)


@pytest.mark.parametrize("name", STATIC_NAMES)
class TestDifferentialStatic:
    @given(keys=st.lists(st.integers(min_value=0, max_value=2**40),
                         max_size=80, unique=True))
    @settings(max_examples=8, deadline=None)
    def test_build_matches_oracle(self, name, keys):
        filt = make_filter(name, keys=keys, epsilon=0.05, seed=7)
        oracle = set(keys)
        _checkpoint(filt, oracle, set(keys))
        if name in SERIALIZABLE:
            clone = filter_loads(filter_dumps(filt))
            _checkpoint(clone, oracle, set(keys))


# Tenant-fleet op sequences: provision/deprovision over a small tenant
# universe plus inserts, so placement, splits, and lazy removals all
# interleave with the probes.
tenant_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["provision", "deprovision", "insert"]),
        st.integers(min_value=0, max_value=7),     # tenant universe
        st.integers(min_value=0, max_value=300),   # key universe
    ),
    max_size=40,
)


@pytest.mark.parametrize("name", DIFF_NAMES)
class TestTenantRouterDifferential:
    """Bloofi router vs flat fan-out, over the whole filter registry.

    The flat scan probes every tenant's summary leaf then its
    authoritative filter; the router descends the interior ORs first.
    Same leaves, same authoritative filters — the answers must be
    bit-identical, and any key the exact oracle holds must always list
    its owner (PRESENT is never missed, ABSENT is never wrong).
    """

    def _checkpoint(self, router, oracle, touched):
        probes = sorted(touched) + ABSENT_PROBES
        for key in probes:
            tree_hits = sorted(router.query(key).tenants)
            flat_hits = sorted(router.query_flat(key).tenants)
            assert tree_hits == flat_hits, (
                f"router and flat fan-out diverge on key {key}"
            )
            for tenant, keys in oracle.items():
                if key in keys:
                    assert tenant in tree_hits, (
                        f"false negative: tenant {tenant} holds {key}"
                    )
        assert router.check_invariants() == []

    @given(ops=tenant_ops_strategy)
    @settings(max_examples=4, deadline=None)
    def test_router_matches_flat_fanout(self, name, ops):
        router = TenantRouter(
            TenantConfig(leaf_capacity=64, epsilon=0.05, seed=7),
            filter_factory=lambda tenant: _make(name),
        )
        oracle: dict[int, set[int]] = {}
        touched: set[int] = set()
        for op, tenant, key in ops:
            if op == "provision":
                if tenant not in oracle:
                    router.add_tenant(tenant)
                    oracle[tenant] = set()
            elif op == "deprovision":
                if tenant in oracle:
                    router.remove_tenant(tenant)
                    del oracle[tenant]
            else:  # insert
                if tenant not in oracle:
                    continue
                touched.add(key)
                try:
                    router.insert(tenant, key)
                except FilterFullError:
                    continue  # summary may keep the bits: superset-safe
                oracle[tenant].add(key)
        self._checkpoint(router, oracle, touched)


class _ShrinkingShard(DynamicFilter):
    """A deletable filter that loses delete support when it grows —
    the realistic shape: a cuckoo table that overflows into an appended
    Bloom layer can no longer delete reliably."""

    supports_deletes = True

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._keys: set = set()
        self._overflowed = False

    def insert(self, key):
        self._keys.add(key)
        if len(self._keys) > self.capacity:
            self._overflowed = True
            self.supports_deletes = False

    def may_contain(self, key):
        return key in self._keys

    def delete(self, key):
        assert self.supports_deletes, "delete after expansion is a contract bug"
        self._keys.discard(key)

    def __len__(self):
        return len(self._keys)

    @property
    def size_in_bits(self):
        return 64 * len(self._keys)


class TestShardedSupportsDeletes:
    def test_recomputed_after_shard_expansion(self):
        """Regression: supports_deletes was frozen at construction, so a
        shard expanding out of delete support went unnoticed and deletes
        were routed into shards that could not honour them."""
        sharded = ShardedFilter(lambda i: _ShrinkingShard(capacity=2), n_shards=2)
        assert sharded.supports_deletes
        # Overflow at least one shard.
        for key in range(12):
            sharded.insert(key)
        assert any(s._overflowed for s in sharded._shards)
        assert not sharded.supports_deletes, (
            "supports_deletes must be recomputed from live shards"
        )

    def test_sharded_expandable_delete_after_expansion(self):
        """Delete-after-expansion on a real sharded expandable filter:
        dynamic-cuckoo keeps delete support across growth, and the
        sharded wrapper must keep both the flag and the behaviour."""
        sharded = ShardedFilter(
            lambda i: make_filter("dynamic-cuckoo", capacity=16, epsilon=0.05,
                                  seed=11 + i),
            n_shards=2, seed=11,
        )
        keys = list(range(400))  # far past per-shard capacity: forces growth
        for key in keys:
            sharded.insert(key)
        assert sharded.supports_deletes
        for key in keys[::2]:
            sharded.delete(key)
        for key in keys[1::2]:
            assert sharded.may_contain(key), "false negative after deletes"

    def test_property_is_read_only(self):
        sharded = ShardedFilter(lambda i: _ShrinkingShard(), n_shards=2)
        with pytest.raises(AttributeError):
            sharded.supports_deletes = False
