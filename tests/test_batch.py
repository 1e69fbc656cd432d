"""Batch-API contract tests (docs/performance.md) over the registry.

The contract: for every filter family, ``may_contain_many(keys)`` equals
element-wise ``may_contain``, ``insert_many`` is equivalent to inserting
in order (so no false negatives afterwards), and the base-class
scalar-loop defaults satisfy the same contract as the vectorised
overrides.  Checked with hypothesis across mixed int/numpy-int/str/bytes
batches, plus numpy-array inputs and the instrumentation wrapper.
``TestLookupManyContract`` checks the one read scan of each store
against a lookup per key, and its reads and counters against the
device.  The LSM write path builds its filters and writes its blocks in
batch; the last two classes check that the device sees exactly the
operations and bytes of the scalar insert loop and of one ``put`` per
item.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import TOMBSTONE, LSMConfig, LSMTree
from repro.common.clock import Answer, SimulatedClock
from repro.common.faults import FaultInjector, FaultyBlockDevice, LatencyInjector
from repro.common.hashing import MASK64, as_key_array, hash64, hash64_many
from repro.common.storage import BlockDevice
from repro.core.concurrent import ShardedFilter
from repro.core.interfaces import AdaptiveFilter, DynamicFilter, as_key_list
from repro.core.registry import FEATURE_MATRIX, make_filter
from repro.filters.bloom import BloomFilter
from repro.obs import InstrumentedFilter, MetricsRegistry, use_registry
from repro.serve import build_stack


def _factory_constructible(f) -> bool:
    return f.inserts and not f.values and not f.ranges


DYNAMIC_NAMES = sorted(
    name
    for name, f in FEATURE_MATRIX.items()
    if _factory_constructible(f) and f.kind in ("dynamic", "semi-dynamic")
)
# "sharded:<inner>" wraps the inner family in a lock-striped ShardedFilter —
# its grouped batch path must satisfy the same contract as the flat filters.
DYNAMIC_NAMES += ["sharded:bloom", "sharded:cuckoo"]
STATIC_NAMES = ["xor", "xor-plus", "ribbon"]


def _make_dynamic(name: str, *, capacity: int, epsilon: float, seed: int):
    if name.startswith("sharded:"):
        inner = name.split(":", 1)[1]
        n_shards = 4
        return ShardedFilter(
            lambda i: make_filter(inner, capacity=capacity // n_shards + 8,
                                  epsilon=epsilon, seed=seed + i),
            n_shards=n_shards, seed=seed,
        )
    return make_filter(name, capacity=capacity, epsilon=epsilon, seed=seed)

def _hash_identity(key):
    # '' and b'' (and any str/bytes pair with equal utf-8 encoding) fold to
    # the same pre-mix hash, so static builds see them as duplicate keys.
    return key.encode("utf-8") if isinstance(key, str) else key


keys_strategy = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**48),
        # numpy integer scalars fold like the equal Python int, on the
        # scalar path as well as the batch one.
        st.integers(min_value=-(2**48), max_value=2**48).map(np.int64),
        st.integers(min_value=0, max_value=2**32 - 1).map(np.uint32),
        st.text(min_size=0, max_size=12),
        st.binary(max_size=8),
    ),
    max_size=50,
    unique_by=_hash_identity,
)


def _assert_batch_matches_scalar(filt, probe_keys):
    got = filt.may_contain_many(probe_keys)
    assert isinstance(got, np.ndarray) and got.dtype == bool
    assert got.shape == (len(probe_keys),)
    assert got.tolist() == [filt.may_contain(k) for k in probe_keys]


@pytest.mark.parametrize("name", DYNAMIC_NAMES)
class TestDynamicBatchContract:
    @given(keys=keys_strategy)
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_scalar_and_no_false_negatives(self, name, keys):
        filt = _make_dynamic(name, capacity=256, epsilon=0.05, seed=7)
        inserted = keys[: len(keys) // 2 + 1]
        filt.insert_many(inserted)
        _assert_batch_matches_scalar(filt, keys)
        if inserted:
            assert filt.may_contain_many(inserted).all()

    @given(keys=keys_strategy)
    @settings(max_examples=5, deadline=None)
    def test_insert_many_equals_insert_loop(self, name, keys):
        batched = _make_dynamic(name, capacity=256, epsilon=0.05, seed=7)
        batched.insert_many(keys)
        looped = _make_dynamic(name, capacity=256, epsilon=0.05, seed=7)
        for key in keys:
            looped.insert(key)
        assert len(batched) == len(looped)
        probes = keys + [f"probe-{i}" for i in range(8)]
        assert (
            batched.may_contain_many(probes).tolist()
            == looped.may_contain_many(probes).tolist()
        )


@pytest.mark.parametrize("name", STATIC_NAMES)
class TestStaticBatchContract:
    @given(keys=keys_strategy)
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_scalar(self, name, keys):
        filt = make_filter(name, keys=keys, epsilon=0.05, seed=7)
        probes = keys + [f"absent-{i}" for i in range(16)] + [2**50 + 1]
        _assert_batch_matches_scalar(filt, probes)
        if keys:
            assert filt.may_contain_many(keys).all()


class _ScalarOnlyFilter(DynamicFilter):
    """Minimal filter exercising the base-class scalar-loop defaults."""

    def __init__(self):
        self._keys = set()

    def insert(self, key):
        self._keys.add(key)

    def may_contain(self, key):
        return key in self._keys

    def __len__(self):
        return len(self._keys)

    @property
    def size_in_bits(self):
        return 0


class TestDefaultFallback:
    def test_scalar_loop_defaults(self):
        filt = _ScalarOnlyFilter()
        filt.insert_many([1, 2, "three", b"four"])
        assert len(filt) == 4
        got = filt.may_contain_many([1, 2, "three", b"four", 5, "six"])
        assert got.dtype == bool
        assert got.tolist() == [True, True, True, True, False, False]

    def test_numpy_array_keys_hit_scalar_fallback_as_python_ints(self):
        # np.int64 is not `int`; the default must normalise before hashing.
        filt = _ScalarOnlyFilter()
        filt.insert_many(np.array([10, 20, 30]))
        assert sorted(filt._keys) == [10, 20, 30]
        assert filt.may_contain_many(np.array([10, 20, 40])).tolist() == [
            True, True, False,
        ]

    def test_empty_batches(self):
        for name in ("bloom", "cuckoo", "quotient"):
            filt = make_filter(name, capacity=64, epsilon=0.05, seed=7)
            filt.insert_many([])
            assert filt.may_contain_many([]).shape == (0,)
            assert len(filt) == 0

    def test_numpy_integer_scalar_probes_like_the_batch_path(self):
        filt = BloomFilter(100, 0.01)
        assert filt.may_contain_many([np.int64(5)]).tolist() == [False]
        assert filt.may_contain(np.int64(5)) is False
        filt.insert(np.int64(5))
        assert filt.may_contain(5) and filt.may_contain(np.uint8(5))
        assert hash64(np.int64(-3), seed=4) == hash64(-3, seed=4)

    def test_bytearray_keys_are_rejected_by_both_paths(self):
        filt = BloomFilter(100, 0.01)
        with pytest.raises(TypeError):
            filt.may_contain(bytearray(b"ab"))
        with pytest.raises(TypeError):
            filt.may_contain_many([bytearray(b"ab")])

    def test_as_key_list(self):
        out = as_key_list(np.array([1, 2, 3]))
        assert out == [1, 2, 3] and all(type(k) is int for k in out)
        assert as_key_list((1, "a")) == [1, "a"]


class TestNumpyArrayInputs:
    def test_vectorised_families_accept_numpy_batches(self):
        members = np.arange(500, dtype=np.int64)
        probes = np.arange(400, 900, dtype=np.int64)
        for name in ("bloom", "blocked-bloom", "cuckoo", "quotient"):
            filt = make_filter(name, capacity=1000, epsilon=0.01, seed=3)
            filt.insert_many(members)
            got = filt.may_contain_many(probes)
            want = [filt.may_contain(int(k)) for k in probes]
            assert got.tolist() == want, name


class TestInstrumentedBatch:
    def test_batch_probes_count_per_key(self, small_keys):
        members, negatives = small_keys
        registry = MetricsRegistry()
        inner = make_filter("bloom", capacity=600, epsilon=0.01, seed=5)
        filt = InstrumentedFilter(
            inner, name="b", registry=registry, ground_truth=set(members)
        )
        filt.insert_many(members)
        batch = members[:100] + negatives[:200]
        results = filt.may_contain_many(batch)
        assert results[:100].all()
        assert filt.probes == 300
        assert filt.positives == int(results.sum())
        assert filt.negatives == 300 - int(results.sum())
        # Every positive beyond the 100 true members is a false positive.
        assert filt.false_positives == int(results.sum()) - 100
        assert filt.probes == filt.may_contain_many([]).shape[0] + 300

    def test_batch_falls_back_for_scalar_only_inner(self):
        registry = MetricsRegistry()
        filt = InstrumentedFilter(
            _ScalarOnlyFilter(), name="s", registry=registry
        )
        filt.insert_many([1, 2, 3])
        assert filt.may_contain_many([1, 2, 9]).tolist() == [True, True, False]
        assert filt.probes == 3 and filt.positives == 2


class TestBatchApps:
    def test_lsm_lookup_many_matches_lookup(self):
        tree = LSMTree(LSMConfig(memtable_entries=32, seed=3))
        for i in range(500):
            tree.put(i, i * 10)
        for i in range(0, 100, 7):
            tree.delete(i)
        probe = list(range(-50, 600, 3))
        want = [tree.lookup(k) for k in probe]
        assert tree.lookup_many(probe) == want
        assert tree.lookup_many([]) == []

    def test_lsm_lookup_many_issues_fewer_device_reads(self):
        tree = LSMTree(LSMConfig(memtable_entries=32, seed=3))
        for i in range(500):
            tree.put(i, i)
        tree.flush()
        probe = list(range(200, 400))
        before = tree.device.stats.reads
        tree.lookup_many(probe)
        batch_reads = tree.device.stats.reads - before
        before = tree.device.stats.reads
        for key in probe:
            tree.lookup(key)
        scalar_reads = tree.device.stats.reads - before
        # One read per run per batch vs one per (key, probed run).
        assert batch_reads <= tree.n_runs
        assert batch_reads < scalar_reads

    def test_lsm_lookup_many_maplet_mode(self):
        tree = LSMTree(
            LSMConfig(memtable_entries=16, use_maplet=True, seed=3)
        )
        for i in range(200):
            tree.put(i, -i)
        probe = list(range(-20, 250, 2))
        before = tree.device.stats.reads
        got = tree.lookup_many(probe)
        assert tree.device.stats.reads - before <= tree.n_runs
        assert got == [tree.lookup(k) for k in probe]

    def test_filtered_dictionary_lookup_many(self, small_keys):
        from repro.adaptive.dictionary import FilteredDictionary

        members, negatives = small_keys
        filt = make_filter("bloom", capacity=600, epsilon=0.01, seed=5)
        d = FilteredDictionary(filt)
        for key in members:
            d.put(key, str(key))
        probe = members[:50] + negatives[:100]
        got = d.lookup_many(probe)
        assert got == [d.lookup(k) for k in probe]
        assert [r.value for r in got] == [d.get(k) for k in probe]
        assert d.lookup_many([]) == []

    def test_filtered_dictionary_lookup_many_adaptive_feedback(self, small_keys):
        from repro.adaptive.dictionary import FilteredDictionary

        members, negatives = small_keys
        filt = make_filter("adaptive-cuckoo", capacity=600, epsilon=0.05, seed=5)
        d = FilteredDictionary(filt)
        for key in members[:300]:
            d.put(key, key)
        d.lookup_many(negatives)
        assert d.stats.adaptations_fed_back == d.stats.false_positives
        # Adapted keys stop false-positiving on the next batch.
        second = d.stats.false_positives
        d.lookup_many(negatives)
        assert d.stats.false_positives - second <= second


class _ReadLog(BlockDevice):
    """A block device that logs the address of every read."""

    def __init__(self):
        super().__init__()
        self.log: list = []

    def read(self, address):
        self.log.append(address)
        return super().read(address)


class _AdaptiveInstrumented(InstrumentedFilter, AdaptiveFilter):
    """An instrumented adaptive filter that logs the feedback it gets."""

    def __init__(self, inner, **kwargs):
        super().__init__(inner, **kwargs)
        self.reported: list = []

    def report_false_positive(self, key):
        self.reported.append(key)
        self.inner.report_false_positive(key)


@st.composite
def _lsm_scenarios(draw):
    """A config over every read-path knob, the puts and deletes that load
    the tree, and a batch of keys to look up, present or not."""
    config = LSMConfig(
        memtable_entries=4,
        size_ratio=3,
        compaction=draw(st.sampled_from(("leveling", "tiering", "lazy-leveling"))),
        page_entries=draw(st.sampled_from((0, 16))),
        use_maplet=draw(st.booleans()),
        filter_memo_entries=draw(st.sampled_from((0, 64))),
        charge_filter_reads=draw(st.booleans()),
        retry_attempts=1,
        seed=draw(st.integers(0, 3)),
    )
    # Enough writes for several flushes, so most keys live in runs.
    ops = draw(st.lists(st.tuples(st.integers(0, 120), st.booleans()),
                        min_size=24, max_size=150))
    batch = draw(st.lists(st.integers(0, 160), min_size=1, max_size=24))
    return config, ops, batch


def _load(config, ops, device=None):
    """The tree after *ops* (``(key, delete)`` pairs), and a dict model."""
    tree = LSMTree(config, device=device)
    model = {}
    for n, (key, delete) in enumerate(ops):
        if delete:
            tree.delete(key)
            model.pop(key, None)
        else:
            tree.put(key, n)
            model[key] = n
    return tree, model


def _batch_keys(tree, ops, batch) -> list:
    """*batch*, plus a duplicate, memtable keys and deleted keys."""
    deleted = [key for key, delete in ops if delete]
    return batch + batch[:1] + sorted(tree._memtable)[:2] + deleted[:2]


def _counter_values(registry) -> dict:
    """``{name: {label values: value}}`` for every counter series."""
    out: dict = {}
    for name, entry in registry.snapshot().items():
        for series in entry["series"]:
            out.setdefault(name, {})[tuple(series["labels"].values())] = series["value"]
    return out


class TestLookupManyContract:
    """``lookup_many`` is the one LSM read scan: batching changes how
    many blocks are read, never an answer."""

    @given(_lsm_scenarios())
    def test_lookup_many_equals_lookup(self, scenario):
        config, ops, batch = scenario
        tree, model = _load(config, ops)
        keys = _batch_keys(tree, ops, batch)
        for key, result in zip(keys, tree.lookup_many(keys)):
            scalar = tree.lookup(key)
            assert (result.state, result.value) == (scalar.state, scalar.value)
            assert result.complete
            assert result.state is (Answer.PRESENT if key in model else Answer.ABSENT)
            assert result.value == model.get(key)

    @given(_lsm_scenarios(), st.sampled_from((0.2, 0.5, 1.0)), st.integers(0, 2**16))
    def test_lookup_many_degrades_each_key_under_read_faults(self, scenario, rate, fault_seed):
        config, ops, batch = scenario
        injector = FaultInjector(seed=fault_seed)
        tree, model = _load(config, ops, FaultyBlockDevice(injector=injector))
        keys = _batch_keys(tree, ops, batch)
        injector.transient_read = rate
        for key, result in zip(keys, tree.lookup_many(keys, degrade_on_error=True)):
            if result.state is Answer.MAYBE:
                assert result.reason == "unavailable" and result.runs_skipped
                assert not result.complete
                continue
            # Authoritative answers come only from scans that skipped nothing.
            assert result.complete and not result.runs_skipped
            if result.state is Answer.PRESENT:
                assert result.value == model[key]
            else:
                assert key not in model  # never a stored key

    @given(_lsm_scenarios())
    def test_lookup_many_reads_each_block_at_most_once(self, scenario):
        config, ops, batch = scenario
        device = _ReadLog()
        tree, _model = _load(config, ops, device)
        keys = _batch_keys(tree, ops, batch)
        device.log.clear()
        tree.lookup_many(keys)
        assert len(device.log) == len(set(device.log))

    def test_lookup_many_accounting_follows_the_device(self):
        # Unfiltered tiered runs: two absent keys share one read per run.
        injector = FaultInjector(seed=0)
        config = LSMConfig(memtable_entries=8, compaction="tiering",
                           filter_policy="none", retry_attempts=1)
        tree, _model = _load(config, [(key, False) for key in range(40)],
                             FaultyBlockDevice(injector=injector))
        runs = tree.n_runs
        assert runs >= 3
        with use_registry() as registry:
            injector.transient_read = 1.0
            failed = tree.lookup_many([1_000, 1_001], degrade_on_error=True)
            # Each failed read is attempted and counted, but reads no run.
            assert [r.runs_skipped for r in failed] == [runs, runs]
            assert tree.stats.lookup_ios == runs
            assert tree.stats.wasted_lookup_ios == 0
            # Nothing counted a run read, so no outcome is registered.
            assert "repro_lsm_lookup_ios_total" not in _counter_values(registry)
            injector.transient_read = 0.0
            tree.lookup_many([1_000, 1_001])
            assert tree.stats.lookup_ios == 2 * runs
            assert tree.stats.wasted_lookup_ios == runs
            counts = _counter_values(registry)
            assert counts["repro_lsm_lookup_ios_total"] == {("wasted",): runs}
            # No filter passed these keys, so no false positive is counted.
            assert "repro_lsm_filter_false_positives_total" not in counts

    def test_lookup_many_counts_probes_by_level_and_result(self):
        tree, _model = _load(LSMConfig(memtable_entries=16, seed=1),
                             [(key, False) for key in range(400)])
        keys = list(range(300, 700))
        expected: dict = {}
        for key in keys:
            if key in tree._memtable:
                continue
            for run in tree._runs_newest_first():
                maybe = run.filter.may_contain(key)
                label = (str(run.level), "positive" if maybe else "negative")
                expected[label] = expected.get(label, 0) + 1
                if maybe and run.get(key)[0]:
                    break
        # One key per batch probes key by key; one batch of all keys
        # probes each run in one kernel call.
        for batches in ([[key] for key in keys], [keys]):
            with use_registry() as registry:
                for batch in batches:
                    tree.lookup_many(batch)
                counts = _counter_values(registry)["repro_lsm_filter_probes_total"]
            assert {k: v for k, v in counts.items() if v} == expected

    def test_lookup_many_memoizes_filter_negatives(self):
        config = LSMConfig(memtable_entries=16, filter_memo_entries=4096,
                           charge_filter_reads=True, seed=1)
        tree, _model = _load(config, [(key, False) for key in range(200)])
        runs = tree._runs_newest_first()
        absent = [k for k in range(1_000, 2_000)
                  if not any(run.filter.may_contain(k) for run in runs)][:50]
        tree.lookup_many(absent)
        charged = tree.stats.filter_ios
        assert charged == len(runs)
        for key in absent:
            assert tree.lookup(key).state is Answer.ABSENT
        assert tree.stats.filter_ios == charged  # every verdict was memoized

    @given(st.lists(st.integers(0, 400), min_size=1, max_size=40),
           st.booleans(), st.integers(0, 3))
    def test_dictionary_lookup_many_equals_lookup_loop(self, keys, cached, seed):
        from repro.adaptive.dictionary import FilteredDictionary
        from repro.cache import NegativeLookupCache

        def run(batched: bool):
            with use_registry() as registry:
                filt = _AdaptiveInstrumented(
                    make_filter("adaptive-cuckoo", capacity=256, epsilon=0.05, seed=seed),
                    name="d", registry=registry,
                )
                cache = NegativeLookupCache(64) if cached else None
                d = FilteredDictionary(filt, negative_cache=cache)
                for key in range(0, 200, 2):
                    d.put(key, key)
                if batched:
                    results = d.lookup_many(keys)
                else:
                    results = [d.lookup(key) for key in keys]
                # Only keys the negative cache did not answer are probed.
                assert filt.probes == len(keys) - (cache.hits if cached else 0)
                counters = registry.snapshot()
                del counters["repro_filter_insert_seconds"]  # wall-clock
                return results, d.stats, filt.probes, filt.reported, counters

        assert run(batched=True) == run(batched=False)


@pytest.mark.parametrize("keys", [
    [-1, -(2**63), 0, 2**63 - 1],  # int64 range: the one-call fast path
    [2**63, 2**64 - 1, 5],  # above int64: per-key fold
    [2**64, 2**70 + 3, -(2**63) - 1],  # wider than 64 bits: masked
    [True, False, 3],
    [1, np.int64(-2), np.uint64(2**64 - 1), np.int8(7)],
    (4, -4),
    [],
], ids=["int64", "uint64-range", "wide", "bool", "mixed-numpy", "tuple", "empty"])
def test_as_key_array_matches_scalar_hash64(keys):
    folded = as_key_array(keys)
    assert folded.dtype == np.uint64
    assert folded.tolist() == [int(k) & MASK64 for k in keys]
    assert hash64_many(keys, seed=9).tolist() == [hash64(k, seed=9) for k in keys]


def _record_device_ops(patch, ops: list) -> None:
    """Log every op reaching a :class:`BlockDevice`, one entry per item:
    scalar writes and deletes are batches of one, so recording the batch
    methods sees every write, page, filter, manifest and free."""
    write_many, delete_many, read = (
        BlockDevice.write_many, BlockDevice.delete_many, BlockDevice.read
    )

    def record_writes(self, items):
        items = list(items)
        ops.extend(("write", address, payload, size) for address, payload, size in items)
        return write_many(self, items)

    def record_deletes(self, addresses):
        addresses = list(addresses)
        ops.extend(("delete", address) for address in addresses)
        return delete_many(self, addresses)

    def record_read(self, address):
        ops.append(("read", address))
        return read(self, address)

    patch.setattr(BlockDevice, "write_many", record_writes)
    patch.setattr(BlockDevice, "delete_many", record_deletes)
    patch.setattr(BlockDevice, "read", record_read)


def _device_state(device, latency=None):
    blocks = device.inner._blocks
    image = [(address, block.payload, block.size) for address, block in blocks.items()]
    return (
        image, device.stats.as_dict(), device.injector._rng.getstate(),
        None if latency is None else latency._rng.getstate(),
    )


def _assert_logs_every_kind(ops):
    kinds = {op[0] for op in ops}
    assert kinds == {"write", "read", "delete"}, kinds


class TestLSMBatchBuildsMatchScalar:
    """LSM filter builds go through ``BloomFilter.insert_many``; replaying
    them through the scalar-loop ``DynamicFilter.insert_many`` must give
    the same device operations in the same order, the same blocks, and
    the same fault and latency RNG draws."""

    def _run(self, monkeypatch, scenario, *, scalar: bool):
        ops: list = []
        with monkeypatch.context() as patch, use_registry():
            if scalar:
                patch.setattr(BloomFilter, "insert_many", DynamicFilter.insert_many)
            _record_device_ops(patch, ops)
            states = scenario()
        return ops, states

    def _assert_same(self, monkeypatch, scenario):
        batch_ops, batch_states = self._run(monkeypatch, scenario, scalar=False)
        scalar_ops, scalar_states = self._run(monkeypatch, scenario, scalar=True)
        _assert_logs_every_kind(batch_ops)
        assert batch_ops == scalar_ops
        assert batch_states == scalar_states

    @pytest.mark.parametrize("seed", [0, 1])
    def test_build_stack(self, monkeypatch, seed):
        def scenario():
            _served, _tree, device, _inj, latency, _clock = build_stack(
                seed=seed, n_keys=2_000
            )
            return [_device_state(device, latency)]

        self._assert_same(monkeypatch, scenario)

    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    def test_flush_compaction_recover_and_scrub(self, monkeypatch, compaction):
        config = LSMConfig(memtable_entries=16, compaction=compaction, size_ratio=3)

        def scenario():
            device = FaultyBlockDevice(injector=FaultInjector(seed=3))
            tree = LSMTree(config, device=device)
            rng = random.Random(5)
            for _ in range(1_500):
                key = rng.randrange(3_000)
                if rng.random() < 0.1:
                    tree.delete(key)
                else:
                    tree.put(key, rng.randrange(1 << 20))
            tree.flush()
            assert tree.stats.compactions > 0
            states = [_device_state(device)]
            # Recovery rebuilds a ruined filter blob from the run's keys.
            filters = sorted(a for a in device.addresses() if a[0] == "filter")
            device.ruin(filters[0])
            tree = LSMTree.recover(device)
            assert tree.recovery_report.filters_rebuilt == 1
            states.append(_device_state(device))
            # Without rebuilds the run degrades; scrub's repair builds it.
            device.ruin(filters[-1])
            no_rebuild = dataclasses.replace(config, rebuild_filters_on_recovery=False)
            tree = LSMTree.recover(device, no_rebuild)
            assert tree.recovery_report.filters_degraded == 1
            report = tree.scrub(repair=True)
            assert filters[-1] in report.repaired
            states.append(_device_state(device))
            return states

        self._assert_same(monkeypatch, scenario)


class TestLSMPutManyMatchesPuts:
    """``LSMTree.put_many`` hands each memtable-room chunk's WAL records to
    the device in one call; the device must still see one op per WAL
    record, run, page, filter, manifest and freed block, in the order one
    ``put`` per item gives, with the same fault and latency draws."""

    @staticmethod
    def _batches(seed: int) -> list:
        rng = random.Random(seed)
        batches = []
        for _ in range(40):
            batch = []
            for _ in range(rng.choice([1, 2, 5, 15, 16, 17, 40, 90])):
                key = rng.randrange(200)  # duplicates within a batch
                value = TOMBSTONE if rng.random() < 0.15 else rng.randrange(1 << 20)
                batch.append((key, value))
            batches.append(batch)
        return batches

    @staticmethod
    def _run(monkeypatch, config, batches, *, batched: bool):
        def put_all(tree, batches):
            for batch in batches:
                if batched:
                    tree.put_many(batch)
                else:
                    for key, value in batch:
                        tree.put(key, value)

        ops: list = []
        with monkeypatch.context() as patch, use_registry() as registry:
            _record_device_ops(patch, ops)
            clock = SimulatedClock()
            latency = LatencyInjector(seed=4, spike_prob=0.1)
            device = FaultyBlockDevice(
                injector=FaultInjector(
                    seed=3, bit_flip=0.02, torn_write=0.02, lost_write=0.02
                ),
                latency=latency, clock=clock,
            )
            tree = LSMTree(config, device=device)
            put_all(tree, batches)
            tree.flush()
            put_all(tree, [[(1_000 + i, i) for i in range(10)]])
            states = [(dataclasses.asdict(tree.stats), tree.mutation_epoch)]
            # A recovered memtable can hold more than a smaller memtable's
            # room: the next put must flush at once, batched or not, even
            # when it overwrites a key the memtable already holds.
            tree = LSMTree.recover(device, dataclasses.replace(config, memtable_entries=4))
            overfull = len(tree._memtable) > 4 and 1_000 in tree._memtable
            put_all(tree, [[(1_000, -1), (1_001, -2)]] + batches[:5])
            states.append((dataclasses.asdict(tree.stats), tree.mutation_epoch))
            runs = [
                (run.run_id, run.level, run.keys, run.values)
                for level in tree._levels for run in level
            ]
            return (
                ops, states, _device_state(device, latency), clock.now(),
                list(device.fault_log), device.corrupted_addresses(), runs,
                dict(tree._memtable), tree.wal_position, registry.snapshot(),
            ), overfull

    @pytest.mark.parametrize("page_entries", [0, 16])
    @pytest.mark.parametrize("compaction", ["leveling", "tiering", "lazy-leveling"])
    def test_put_many_equals_one_put_per_item(self, monkeypatch, compaction, page_entries):
        config = LSMConfig(
            memtable_entries=16, compaction=compaction, size_ratio=3,
            page_entries=page_entries,
        )
        batches = self._batches(11)
        batched, overfull = self._run(monkeypatch, config, batches, batched=True)
        scalar, _ = self._run(monkeypatch, config, batches, batched=False)
        ops = batched[0]
        _assert_logs_every_kind(ops)
        if page_entries:
            assert any(op[0] == "write" and op[1][0] == "page" for op in ops)
        # The case covers what it claims: faults fired, flushes and
        # compactions happened, and the recovered memtable was over-full.
        first_stats = batched[1][0][0]
        assert first_stats["compactions"] > 0 and first_stats["integrity_faults"] > 0
        assert batched[4] and overfull
        for got, want in zip(batched, scalar):
            assert got == want

    def test_empty_batch_is_a_no_op(self):
        device = BlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=4), device=device)
        tree.put_many([])
        assert tree.mutation_epoch == 0 and device.stats.writes == 0
