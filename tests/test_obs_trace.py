"""Tracing tests: span mechanics, the ring-buffer recorder, and the
end-to-end probe tree through ``LSMTree.get`` under fault injection."""

from __future__ import annotations

from repro import obs
from repro.adaptive.adaptive_cuckoo import AdaptiveCuckooFilter
from repro.adaptive.dictionary import FilteredDictionary
from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.faults import FaultInjector, FaultyBlockDevice


class TestSpans:
    def test_noop_when_no_recorder(self):
        with obs.trace("a") as span:
            assert span.name == "<noop>"
        assert obs.current_span() is None

    def test_nesting_and_timing(self):
        with obs.use_recorder() as rec:
            with obs.trace("root", kind="t") as root:
                assert obs.current_span() is root
                with obs.trace("child"):
                    with obs.trace("grandchild"):
                        pass
                with obs.trace("sibling"):
                    pass
        assert len(rec) == 1
        (tree,) = rec.roots
        assert [s.name for s in tree.walk()] == [
            "root", "child", "grandchild", "sibling",
        ]
        for span in tree.walk():
            assert span.end >= span.start
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end

    def test_exception_tags_error_and_propagates(self):
        with obs.use_recorder() as rec:
            try:
                with obs.trace("boom"):
                    raise ValueError("x")
            except ValueError:
                pass
        assert rec.roots[0].tags["error"] == "ValueError"

    def test_ring_buffer_evicts_oldest(self):
        rec = obs.TraceRecorder(capacity=3)
        with obs.use_recorder(rec):
            for i in range(5):
                with obs.trace("op", i=i):
                    pass
        assert len(rec) == 3
        assert rec.recorded == 5
        assert [root.tags["i"] for root in rec.roots] == [2, 3, 4]

    def test_render_tree(self):
        with obs.use_recorder() as rec:
            with obs.trace("outer", key=1):
                with obs.trace("inner"):
                    pass
        text = obs.render_tree(rec.roots[0])
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "key=1" in lines[0]


class TestLSMTraceEndToEnd:
    def test_probe_tree_under_fault_injection(self):
        """One traced LSMTree.get shows filter probes, device reads, and
        retry attempts as a single consistent tree (the ISSUE-2 e2e gate)."""
        with obs.use_registry():
            injector = FaultInjector(seed=7, transient_read={"page": 0.35})
            device = FaultyBlockDevice(injector=injector)
            tree = LSMTree(
                LSMConfig(memtable_entries=32, retry_attempts=8, seed=1),
                device=device,
            )
            for i in range(400):
                tree.put(i, i)
            recorder = obs.TraceRecorder(capacity=4096)
            with obs.use_recorder(recorder):
                for i in range(400):
                    assert tree.get(i) == i
            roots = recorder.roots
            assert all(root.name == "lsm.get" for root in roots)

            probes = recorder.find("filter.probe")
            reads = recorder.find("device.read")
            retries = recorder.find("retry.attempt")
            assert probes and reads and retries

            # Retried reads exist (fault rate 0.35 over hundreds of reads)
            # and every retry span is a child of a device.read span.
            retried = [r for r in reads if len(r.find("retry.attempt")) > 1]
            assert retried
            for read in reads:
                for attempt in read.children:
                    assert attempt.name == "retry.attempt"

            # Parent/child timing is consistent across every recorded tree.
            for root in roots:
                for span in root.walk():
                    assert span.end >= span.start
                    for child in span.children:
                        assert child.start >= span.start
                        assert child.end <= span.end

            # Spans carry the tags the trace CLI prints.
            assert all("level" in p.tags and "run" in p.tags for p in probes)
            found_tags = {root.tags.get("found") for root in roots}
            assert found_tags == {True}

    def test_memtable_hit_produces_leaf_span(self):
        with obs.use_registry():
            tree = LSMTree(LSMConfig(memtable_entries=1000))
            tree.put(1, "v")
            with obs.use_recorder() as rec:
                assert tree.get(1) == "v"
            (root,) = rec.roots
            assert root.name == "lsm.get"
            assert root.children == []  # memtable hit: no probes, no reads


class TestDictionaryTelemetry:
    def test_adaptation_events_counted_and_traced(self):
        with obs.use_registry() as reg:
            filt = AdaptiveCuckooFilter.for_capacity(512, 0.05, seed=3)
            d = FilteredDictionary(filt)
            for k in range(200):
                d.put(k, k)
            rec = obs.TraceRecorder(capacity=8192)
            with obs.use_recorder(rec):
                for k in range(5000, 9000):
                    d.get(k)
            queries = reg.get("repro_dict_queries_total")
            fp = queries.labels(outcome="false_positive").value
            neg = queries.labels(outcome="negative").value
            assert fp == d.stats.false_positives > 0
            assert neg == 4000 - fp
            adaptations = reg.counter("repro_dict_adaptations_total").value
            assert adaptations == d.stats.adaptations_fed_back == fp
            adapt_spans = rec.find("filter.adapt")
            assert len(adapt_spans) == fp
            # adapt spans always nest under a dict.get root
            for root in rec.roots:
                assert root.name == "dict.get"
