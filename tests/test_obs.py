"""Tests for the repro.obs telemetry layer: registry, metric types,
histogram invariants (property-based), concurrency, instrumentation,
and exporter round-trips."""

from __future__ import annotations

import ast
import json
import math
import pathlib
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.storage import BlockDevice, IOStats
from repro.core.concurrent import ShardedFilter
from repro.core.registry import make_filter
from repro.filters.bloom import BloomFilter
from repro.obs import export as export_module
from repro.obs.metrics import (
    CounterWindow,
    Family,
    Handles,
    MetricError,
    _HistogramChild,
    bind_handles,
    declared_families,
)


@pytest.fixture()
def registry():
    with obs.use_registry() as reg:
        yield reg


class TestRegistry:
    def test_get_or_create_returns_same_metric(self, registry):
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total")
        assert a is b

    def test_type_collision_rejected(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(MetricError):
            registry.gauge("repro_x_total")
        with pytest.raises(MetricError):
            registry.histogram("repro_x_total")

    def test_label_collision_rejected(self, registry):
        registry.counter("repro_x_total", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("repro_x_total", labels=("b",))

    def test_bucket_collision_rejected(self, registry):
        registry.histogram("repro_h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("repro_h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self, registry):
        for bad in ("0bad", "has space", "dash-ed", ""):
            with pytest.raises(MetricError):
                registry.counter(bad)
        with pytest.raises(MetricError):
            registry.counter("repro_ok_total", labels=("__reserved",))

    def test_counter_monotone(self, registry):
        c = registry.counter("repro_c_total")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labelled_counter_requires_labels(self, registry):
        c = registry.counter("repro_c_total", labels=("kind",))
        with pytest.raises(MetricError):
            c.inc()
        with pytest.raises(MetricError):
            c.labels(wrong="x")
        c.labels(kind="a").inc(2)
        assert c.labels(kind="a").value == 2
        assert c.labels(kind="b").value == 0

    def test_gauge_goes_both_ways(self, registry):
        g = registry.gauge("repro_g")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8

    def test_default_registry_swap(self):
        outer = obs.default_registry()
        with obs.use_registry() as inner:
            assert obs.default_registry() is inner
            assert inner is not outer
        assert obs.default_registry() is outer


class _Handles(Handles):
    events = Family("counter", "repro_demo_events_total", "events")
    kinds = Family("counter", "repro_demo_kinds_total", "events by kind", ("kind",))


class _Holder:
    _obs = None


class TestBoundHandles:
    def test_handles_register_a_family_on_first_use(self):
        with obs.use_registry() as registry:
            handles = _Handles(registry)
            assert handles.events.value == 0 and handles.child("kinds", "a").value == 0
            assert registry.snapshot() == {}  # reading a value binds nothing
            handles.child("kinds", "a").inc(2)
            assert registry.names() == ["repro_demo_kinds_total"]
            assert handles.child("kinds", "a") is registry.get(
                "repro_demo_kinds_total").labels(kind="a")
            assert handles.child("kinds", "a").value == 2
            assert [labels for labels, _ in registry.get("repro_demo_kinds_total").series()] \
                == [{"kind": "a"}]
            handles.events.inc()
            assert handles.events is registry.get("repro_demo_events_total").labels()
        with pytest.raises(MetricError):
            handles.kinds  # a labelled family has only children
        with pytest.raises(MetricError):
            handles.child("kinds", "a", "b").inc()

    def test_bind_handles_rebinds_after_a_registry_swap(self):
        holder = _Holder()
        with obs.use_registry() as first:
            bound = bind_handles(holder, _Handles)
            assert bind_handles(holder, _Handles) is bound
            bound.events.inc()
        with obs.use_registry() as second:
            bind_handles(holder, _Handles).events.inc(3)
        assert first.get("repro_demo_events_total").value == 1
        assert second.get("repro_demo_events_total").value == 3

    def test_counter_window_counts_only_what_came_after_it(self, registry):
        registry.counter("repro_demo_kinds_total", labels=("kind",)).labels(kind="a").inc(5)
        window = CounterWindow(registry)
        handles = _Handles(registry)
        handles.child("kinds", "a").inc(2)
        handles.child("kinds", "b").inc(7)
        assert window.count("repro_demo_kinds_total") == 9
        assert window.count("repro_demo_kinds_total", kind="a") == 2
        assert window.count("repro_demo_events_total") == 0


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def _handles_classes() -> list[type[Handles]]:
    return sorted({cls for classes in declared_families().values() for cls in classes},
                  key=lambda cls: (cls.__module__, cls.__name__))


def _count(child) -> None:
    if hasattr(child, "observe"):
        child.observe(1.0)
    elif hasattr(child, "set"):
        child.set(1.0)
    else:
        child.inc()


class TestOneIdiom:
    """Every family in ``src/repro`` is declared once on a ``Handles``
    subclass, and is registered when first counted."""

    @pytest.mark.parametrize("cls", _handles_classes(), ids=lambda cls: cls.__name__)
    def test_binding_registers_nothing(self, cls):
        holder = _Holder()
        with obs.use_registry() as registry:
            handles = bind_handles(holder, cls)
            assert registry.snapshot() == {}
            attr, family = next(iter(cls.FAMILIES.items()))
            _count(handles.bind(attr, *("x" for _ in family.labels)))
            snapshot = registry.snapshot()
        assert list(snapshot) == [family.name]
        assert len(snapshot[family.name]["series"]) == 1

    def test_no_registry_call_outside_obs(self):
        calls = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "obs":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("counter", "gauge", "histogram", "labels"):
                    calls.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
        assert calls == []

    def test_the_inventory_lists_exactly_the_declared_families(self):
        text = (DOCS / "observability.md").read_text()
        inventory = text[text.index("## Metric inventory"):]
        rows = [line for line in inventory.splitlines() if line.startswith("| `repro_")]
        listed = [re.match(r"\| `(repro_\w+)`", row).group(1) for row in rows]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(declared_families())

    def test_no_family_is_declared_twice(self):
        assert {name: classes for name, classes in declared_families().items()
                if len(classes) > 1} == {}

    def test_lsm_gauges_publish_the_rates_its_counters_give(self, registry):
        tree = LSMTree(LSMConfig(memtable_entries=32, seed=3))
        tree.put_many((key, key) for key in range(400))
        for key in range(10_000, 12_000):
            tree.get(key)
        tree.publish_gauges()
        snapshot = registry.snapshot()

        def values(name):
            return {tuple(s["labels"].values()): s["value"]
                    for s in snapshot.get(name, {"series": []})["series"]}

        probes = values("repro_lsm_filter_probes_total")
        fps = values("repro_lsm_filter_false_positives_total")
        rates = values("repro_lsm_filter_fp_rate")
        assert len(rates) == tree.n_levels and any(rates.values())
        for (level,), rate in rates.items():
            negatives, fp = probes.get((level, "negative"), 0), fps.get((level,), 0)
            assert rate == (fp / (negatives + fp) if negatives + fp else 0.0)

    def test_selftest_fails_on_an_undeclared_family(self):
        registry = obs.MetricsRegistry()
        registry.counter("repro_demo_undeclared_total").inc()
        assert obs.selftest(registry) == [
            "repro_demo_undeclared_total is declared by no Handles subclass"]

    def test_selftest_fails_on_a_name_declared_twice(self, monkeypatch):
        declared = declared_families()
        twice = dict(declared, repro_lsm_runs=declared["repro_lsm_runs"] + [_Handles])
        monkeypatch.setattr(export_module, "declared_families", lambda: twice)
        failures = obs.selftest(obs.MetricsRegistry())
        assert len(failures) == 1 and failures[0].startswith(
            "repro_lsm_runs declared by more than one Handles subclass")


bucket_specs = st.tuples(
    st.floats(min_value=1e-9, max_value=1.0),
    st.floats(min_value=1.01, max_value=16.0),
    st.integers(min_value=1, max_value=40),
)


class TestHistogramProperties:
    @given(spec=bucket_specs)
    def test_log_bucket_bounds_strictly_monotone(self, spec):
        start, growth, count = spec
        bounds = obs.log_buckets(start, growth, count)
        assert len(bounds) == count
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), max_size=200))
    @settings(max_examples=50)
    def test_sum_count_invariants(self, values):
        h = _HistogramChild(obs.DEFAULT_BUCKETS)
        for v in values:
            h.observe(v)
        assert h.count == len(values) == sum(h.counts)
        assert h.sum == pytest.approx(math.fsum(values))

    @given(
        left=st.lists(st.floats(min_value=0, max_value=1e6), max_size=100),
        right=st.lists(st.floats(min_value=0, max_value=1e6), max_size=100),
    )
    @settings(max_examples=50)
    def test_merge_equals_observing_concatenation(self, left, right):
        a = _HistogramChild(obs.DEFAULT_BUCKETS)
        b = _HistogramChild(obs.DEFAULT_BUCKETS)
        both = _HistogramChild(obs.DEFAULT_BUCKETS)
        for v in left:
            a.observe(v)
        for v in right:
            b.observe(v)
        for v in left + right:
            both.observe(v)
        a.merge(b)
        assert a.counts == both.counts
        assert a.count == both.count
        assert a.sum == pytest.approx(both.sum)

    @given(values=st.lists(st.floats(min_value=1e-9, max_value=1e6), min_size=1,
                           max_size=100))
    @settings(max_examples=50)
    def test_quantile_bounds_true_value(self, values):
        # The p100 estimate (upper bucket bound) never under-reports the max.
        h = _HistogramChild(obs.DEFAULT_BUCKETS)
        for v in values:
            h.observe(v)
        assert h.quantile(1.0) >= max(values)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

    def test_merge_rejects_different_buckets(self):
        a = _HistogramChild((1.0, 2.0))
        b = _HistogramChild((1.0, 3.0))
        with pytest.raises(MetricError):
            a.merge(b)

    def test_empty_quantile_is_zero(self):
        assert _HistogramChild(obs.DEFAULT_BUCKETS).quantile(0.9) == 0.0


class TestConcurrency:
    def test_no_lost_counter_increments_under_threads(self, registry):
        c = registry.counter("repro_threads_total")
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread

    def test_sharded_filter_probes_not_lost(self, registry):
        # Concurrent inserts + probes through the repro.core.concurrent
        # executor path must account every operation exactly once.
        sharded = ShardedFilter(
            lambda i: BloomFilter(4096, 0.01, seed=i), n_shards=4
        )
        filt = obs.InstrumentedFilter(sharded, name="sharded-bloom")
        n_threads, per_thread = 6, 500

        def worker(tid):
            base = tid * per_thread
            for i in range(per_thread):
                filt.insert(base + i)
                filt.may_contain(base + i)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert filt.probes == total
        assert filt.positives == total  # no false negatives, by contract
        probes = registry.get("repro_filter_probes_total")
        assert probes.labels(filter="sharded-bloom", result="positive").value == total


class TestInstrumentedFilter:
    def test_counts_and_fp_classification(self, registry):
        members = set(range(200))
        filt = obs.InstrumentedFilter(
            BloomFilter(200, 0.05, seed=1), name="b", ground_truth=members
        )
        for k in members:
            filt.insert(k)
        for k in range(200):
            assert filt.may_contain(k)
        fp = sum(1 for k in range(10_000, 14_000) if filt.may_contain(k))
        assert filt.positives == 200 + fp
        assert filt.false_positives == fp
        assert filt.probes == 200 + 4000
        assert filt.observed_fp_rate == pytest.approx(fp / 4000)
        assert registry.histogram("repro_filter_insert_seconds",
                                  labels=("filter",)).labels(filter="b").count == 200

    def test_forwards_protocol_surface(self, registry):
        inner = make_filter("quotient", capacity=256, epsilon=0.01)
        filt = obs.InstrumentedFilter(inner)
        filt.insert("hello")
        assert "hello" in filt
        assert len(filt) == 1
        assert filt.size_in_bits == inner.size_in_bits
        assert filt.bits_per_key == inner.bits_per_key
        assert filt.supports_deletes  # forwarded via __getattr__
        filt.delete("hello")
        assert len(filt) == 0

    def test_make_filter_instrument_hook(self, registry):
        filt = make_filter("cuckoo", capacity=128, epsilon=0.01, instrument=True)
        assert isinstance(filt, obs.InstrumentedFilter)
        assert filt.name == "cuckoo"
        filt.insert(7)
        filt.may_contain(7)
        probes = registry.get("repro_filter_probes_total")
        assert probes.labels(filter="cuckoo", result="positive").value == 1

    def test_instrument_idempotent(self, registry):
        filt = obs.instrument(BloomFilter(64, 0.01))
        assert obs.instrument(filt) is filt


class TestExporters:
    def _populated(self, registry):
        c = registry.counter("repro_events_total", "events", labels=("kind",))
        c.labels(kind="a").inc(3)
        c.labels(kind='quote"comma,').inc()  # escaping stress
        registry.gauge("repro_ratio", "a ratio").set(0.25)
        h = registry.histogram("repro_lat_seconds", "latency")
        for v in (1e-6, 3e-4, 0.002, 0.002, 1.5):
            h.observe(v)
        return registry

    def test_prometheus_round_trip(self, registry):
        self._populated(registry)
        text = obs.to_prometheus(registry)
        assert "# TYPE repro_events_total counter" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert obs.parse_prometheus(text) == obs.flat_samples(registry)

    def test_prometheus_histogram_buckets_cumulative(self, registry):
        self._populated(registry)
        parsed = obs.parse_prometheus(obs.to_prometheus(registry))
        buckets = parsed["repro_lat_seconds_bucket"]
        series = sorted(buckets.items(), key=lambda kv: (
            math.inf if kv[0][0][1] == "+Inf" else float(kv[0][0][1])
        ))
        values = [v for _, v in series]
        assert values == sorted(values)  # cumulative → monotone
        assert values[-1] == parsed["repro_lat_seconds_count"][()] == 5

    def test_json_round_trip(self, registry):
        self._populated(registry)
        text = obs.to_json(registry)
        rebuilt = obs.from_json(text)
        assert rebuilt.snapshot() == registry.snapshot()
        assert json.loads(text)["repro_ratio"]["kind"] == "gauge"

    def test_render_table_mentions_quantiles(self, registry):
        self._populated(registry)
        table = obs.render_table(registry)
        assert "repro_events_total{kind=\"a\"}" in table
        assert "p50=" in table and "p99=" in table

    def test_selftest_clean_registry(self, registry):
        # Clean: every family comes from a declared emitter.
        device = BlockDevice()
        device.write("a", b"payload")
        device.read("a")
        make_filter("bloom", capacity=64, epsilon=0.01, instrument=True).insert(1)
        assert len(registry.names()) == 9
        assert obs.selftest(registry) == []

    def test_selftest_flags_undeclared_families(self, registry):
        self._populated(registry)
        assert obs.selftest(registry) == [
            f"{name} is declared by no Handles subclass"
            for name in ("repro_events_total", "repro_lat_seconds", "repro_ratio")]

    def test_selftest_flags_nan_gauge(self, registry):
        registry.gauge("repro_bad").set(float("nan"))
        assert any("NaN" in f for f in obs.selftest(registry))


class TestIOStats:
    def test_as_dict_is_single_source_of_truth(self):
        s = IOStats(reads=1, writes=2, bytes_read=3, bytes_written=4,
                    busy_seconds=0.5)
        assert s.as_dict() == {
            "reads": 1, "writes": 2, "bytes_read": 3, "bytes_written": 4,
            "busy_seconds": 0.5,
        }
        assert (s + s).as_dict() == {k: 2 * v for k, v in s.as_dict().items()}
        assert (s - s).as_dict() == {k: 0 for k in s.as_dict()}
        snap = s.snapshot()
        s.reset()
        assert all(v == 0 for v in s.as_dict().values())
        assert snap.as_dict()["bytes_written"] == 4  # snapshot unaffected

    def test_device_stats_mirrored_to_default_registry(self):
        with obs.use_registry() as reg:
            dev = BlockDevice()
            dev.write("a", b"xyz")
            dev.read("a")
            dev.read("a")
            assert reg.counter("repro_device_writes_total").value == 1
            assert reg.counter("repro_device_reads_total").value == 2
            assert reg.counter("repro_device_bytes_read_total").value == 6
            assert dev.stats.reads == 2  # legacy stats still accrue

    def test_device_rebinds_on_registry_swap(self):
        dev = BlockDevice()
        with obs.use_registry() as first:
            dev.write("a", b"x")
        with obs.use_registry() as second:
            dev.write("b", b"x")
            assert second.counter("repro_device_writes_total").value == 1
        assert first.counter("repro_device_writes_total").value == 1


class TestEmptyFilterBitsPerKey:
    @pytest.mark.parametrize("name", ["bloom", "quotient", "cuckoo", "cqf"])
    def test_zero_not_nan(self, name):
        filt = make_filter(name, capacity=64, epsilon=0.01)
        assert filt.bits_per_key == 0.0
        assert not math.isnan(filt.bits_per_key)
