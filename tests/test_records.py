"""Tests for the durable record layer (``repro.common.records``).

Every record that must survive a crash — the LSM manifest and
write-ahead log, the routing and node-state manifests, the reshard
journal and the hint journal — is a CRC32 frame around a JSON or pickle
body.  These tests pin each format's bytes, check the double-buffered
manifest, and check the journal's one torn-frame rule under faults.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.clock import SimulatedClock
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    FaultyBlockDevice,
    TransientIOError,
)
from repro.common.records import DurableManifest, Journal
from repro.common.storage import BlockDevice
from repro.core.serialize import frame
from repro.obs import use_registry
from repro.serve import BreakerDevice, BreakerState
from repro.serve.replica import ReplicatedStore
from repro.serve.reshard import ReshardCoordinator, ShardedStore


def _json_frame(doc: dict) -> bytes:
    return frame(json.dumps(doc, sort_keys=True).encode())


def _config(**fields) -> dict:
    """An ``LSMConfig.to_manifest()`` document: the defaults plus *fields*."""
    return {
        "size_ratio": 10, "memtable_entries": 128, "compaction": "leveling",
        "filter_policy": "monkey", "largest_level_epsilon": 0.01, "use_maplet": False,
        "maplet_capacity": 65536, "seed": 0, "wal_enabled": True, "retry_attempts": 4,
        "rebuild_filters_on_recovery": True, "page_entries": 0,
        "charge_filter_reads": False, "filter_memo_entries": 0, **fields,
    }


# -- the bytes of every format -------------------------------------------------------


def _lsm_manifest_slot():
    device = BlockDevice()
    tree = LSMTree(LSMConfig(memtable_entries=2), device=device)
    tree.put(1, "a")
    tree.put(2, "b")  # fills the memtable: flush, then checkpoint epoch 1
    return device.read(("manifest", 1)), _json_frame({
        "config": _config(memtable_entries=2), "epoch": 1, "next_run_id": 1,
        "next_seq": 1, "runs": [[0, 0, 0, 2, True]], "wal_floor": 2,
    })


def _wal_frame():
    device = BlockDevice()
    LSMTree(LSMConfig(memtable_entries=4), device=device).put(7, "seven")
    return device.read(("wal", 0)), frame(pickle.dumps((7, "seven")))


def _reshard_plan_record():
    device = BlockDevice()
    coordinator = ReshardCoordinator(ShardedStore.create(device, 2, seed=0))
    coordinator.plan_split(0, 2)
    half, top = 1 << 63, 1 << 64
    return device.read(("reshard", "meta", 0)), _json_frame({
        "kind": "plan", "seq": 0, "step": "planned", "t": 0.0,
        "plan": {
            "kind": "split", "source": 0, "target": 2,
            "old_router": {"kind": "hash_range", "epoch": 0, "seed": 0,
                           "bounds": [[half, 0], [top, 1]]},
            "new_router": {"kind": "hash_range", "epoch": 1, "seed": 0,
                           "bounds": [[half // 2, 0], [half, 2], [top, 1]]},
        },
    })


def _hint_frame():
    device = BlockDevice()
    store = ReplicatedStore(device, n_nodes=3, seed=0)
    assert store.replicas_of("k")[0] == 0
    store.kill(0)
    store.put("k", "v")
    return device.read(("hint", "handoff", 1, 0)), _json_frame(
        {"key": "k", "node": 0, "record": {"s": 1, "v": "v"}})


def _node_state_slot():
    device = BlockDevice()
    ReplicatedStore(device, n_nodes=3, seed=0)
    return device.read(("nodestate", "replmeta", 1)), _json_frame({
        "alive": [0, 1, 2], "config": _config(memtable_entries=48, retry_attempts=3),
        "epoch_base": 0, "n_nodes": 3, "read_quorum": 2, "replication": 3,
        "seed": 0, "seq_floor": 0, "tainted": [], "version": 1,
    })


@pytest.mark.parametrize("record", [
    _lsm_manifest_slot, _wal_frame, _reshard_plan_record, _hint_frame, _node_state_slot,
], ids=lambda build: build.__name__.strip("_"))
def test_every_record_keeps_its_bytes(record):
    stored, expected = record()
    assert stored == expected


# -- the double-buffered manifest ----------------------------------------------------


class TestDurableManifest:
    def test_round_trip_newest_version_wins(self):
        device = BlockDevice()
        manifest = DurableManifest(device, "routing")
        manifest.write({"shards": [0, 1]})
        manifest.write({"shards": [0, 1, 2]})
        reopened = DurableManifest(device, "routing")
        doc = reopened.load()
        assert doc == {"shards": [0, 1, 2], "version": 2}
        assert reopened.version == 2
        assert device.exists(("routing", 0)) and device.exists(("routing", 1))

    def test_slot_holds_sorted_framed_json_with_the_version(self):
        device = BlockDevice()
        DurableManifest(device, "nodestate").write({"b": 2, "a": 1})
        expected = frame(json.dumps({"a": 1, "b": 2, "version": 1}, sort_keys=True).encode())
        assert device.read(("nodestate", 1)) == expected

    def test_corrupt_newest_slot_falls_back_to_the_older(self):
        device = FaultyBlockDevice()
        manifest = DurableManifest(device, "routing")
        manifest.write({"epoch": 1})
        manifest.write({"epoch": 2})
        device.ruin(("routing", 0))  # version 2 lives in slot 2 % 2
        doc = DurableManifest(device, "routing").load()
        assert doc == {"epoch": 1, "version": 1}

    def test_no_slot_loads_as_none(self):
        assert DurableManifest(BlockDevice(), "routing").load() is None

    def test_persistent_read_fault_raises_after_four_attempts(self):
        injector = FaultInjector(transient_read={"routing": 1.0, "*": 0.0})
        device = FaultyBlockDevice(injector=injector)
        manifest = DurableManifest(device, "routing")
        with pytest.raises(TransientIOError):
            manifest.write({"epoch": 1})
        assert device.stats.writes == 4
        assert injector.stats.transient_reads == 4

    def test_failed_writes_in_a_row_keep_the_last_good_version(self):
        injector = FaultInjector()
        device = FaultyBlockDevice(injector=injector)
        manifest = DurableManifest(device, "routing")
        manifest.write({"epoch": 1})
        injector.torn_write = {"routing": 1.0}
        for _ in range(2):
            with pytest.raises(TransientIOError):
                manifest.write({"epoch": 2})
        assert manifest.version == 1
        assert DurableManifest(device, "routing").load() == {"epoch": 1, "version": 1}
        injector.torn_write = 0.0
        manifest.write({"epoch": 3})
        assert DurableManifest(device, "routing").load() == {"epoch": 3, "version": 2}

    def test_read_back_refused_by_an_open_breaker_keeps_the_version(self):
        device = BreakerDevice(BlockDevice(), SimulatedClock())
        manifest = DurableManifest(device, "routing")
        manifest.write({"epoch": 1})
        breaker = device.breaker_for(("routing", 0))
        with use_registry():
            while breaker.state is not BreakerState.OPEN:
                breaker.record_failure()
            with pytest.raises(CircuitOpenError):
                manifest.write({"epoch": 2})
        assert manifest.version == 1


# -- the journal and its torn-frame rule ---------------------------------------------


_FAULTS = ("flip", "torn", "lost")
_journal_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4), st.sampled_from((None,) + _FAULTS)),
    st.tuples(st.just("append_verified"), st.sampled_from((None,) + _FAULTS)),
    st.tuples(st.just("scan"), st.sampled_from((0.0, 0.5))),
    st.tuples(st.just("trim"), st.integers(0, 3)),
    st.tuples(st.just("reopen"),),
), max_size=30)


@given(seed=st.integers(0, 1_000), ops=_journal_ops)
def test_journal_scans_return_exactly_the_intact_records(seed, ops):
    """Over any appends, torn, flipped and lost writes, transient reads,
    scans, trims and reopenings: a scan yields exactly the intact
    records in key order, never a torn frame, and reports each torn key
    once; a failed verified append leaves nothing; the index is the
    device's keys of the journal's kind, plus any batched append that
    was lost and not yet trimmed."""
    injector = FaultInjector(seed=seed)
    device = FaultyBlockDevice(injector=injector)
    journal = Journal(device, "j")
    model: dict[tuple, tuple] = {}  # key -> ("intact", record) | ("torn",) | ("lost",)
    seq = 0

    def write_faults(fault):
        injector.bit_flip = {"j": 1.0} if fault == "flip" else 0.0
        injector.torn_write = {"j": 1.0} if fault == "torn" else 0.0
        injector.lost_write = {"j": 1.0} if fault == "lost" else 0.0

    for op in ops:
        if op[0] == "append":
            _, n, fault = op
            items = [((seq + i, (seq + i) % 3), {"n": seq + i}) for i in range(n)]
            seq += n
            write_faults(fault)
            journal.append(items)
            for key, record in items:
                model[key] = ("intact", record) if fault is None else (
                    ("lost",) if fault == "lost" else ("torn",))
        elif op[0] == "append_verified":
            key, record = (seq, seq % 3), {"n": seq}
            seq += 1
            write_faults(op[1])
            if op[1] is None:
                journal.append_verified(key, record)
                model[key] = ("intact", record)
            else:
                with pytest.raises(TransientIOError):
                    journal.append_verified(key, record)  # and leaves nothing
        elif op[0] == "scan":
            injector.transient_read = {"j": op[1]}
            scan = journal.scan()
            records = list(scan)
            injector.transient_read = 0.0
            keys = [key for key, _record in records]
            assert keys == sorted(keys)
            for key, record in records:
                assert model[key] == ("intact", record)
            assert len(scan.torn) == len(set(scan.torn))
            assert all(model[key] == ("torn",) for key in scan.torn)
            reported = keys + scan.torn + scan.unreadable
            assert sorted(reported) == sorted(model)
            if op[1] == 0.0:
                assert records == [(k, v[1]) for k, v in sorted(model.items())
                                   if v[0] == "intact"]
                assert sorted(scan.torn) == [k for k, v in sorted(model.items())
                                             if v == ("torn",)]
        elif op[0] == "trim":
            victims = sorted(model)[::op[1] + 1] if op[1] else None
            missing = journal.trim(victims)
            victims = sorted(model) if victims is None else victims
            assert missing == sum(model[key] == ("lost",) for key in victims)
            for key in victims:
                del model[key]
        else:
            journal = Journal(device, "j")
            model = {k: v for k, v in model.items() if v != ("lost",)}
        write_faults(None)
        on_device = sorted(a[1:] for a in device.addresses() if a[0] == "j")
        assert journal.keys == sorted(journal.keys)
        assert journal.keys == sorted(model)
        assert on_device == [k for k in journal.keys if model[k] != ("lost",)]
