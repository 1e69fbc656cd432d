"""Replicated serving tests: failure detection, quorum reads, handoff,
anti-entropy, and crash chaos.

The contract under test (docs/robustness.md): every write lands on each
of its R replicas directly, as a durable hint, or as a durable taint on
the replica that missed it — so no interleaving of kills, wipes, heals,
crashed hint replays, and repair rounds can make a stored key answer
ABSENT.  Convergence machinery (hint replay + digest anti-entropy) then
drives every replica back to the max-seq union state.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.common.clock import Answer, Deadline, LookupResult, SimulatedClock
from repro.common.faults import (
    FaultInjector,
    FaultyBlockDevice,
    SimulatedCrash,
    TransientIOError,
)
from repro.common.storage import BlockDevice
from repro.core.routing import (
    ConsistentHashRouter,
    HashRangeRouter,
)
from repro.obs import use_registry
from repro.obs.metrics import CounterWindow
from tests.conftest import registry_count
from repro.serve.replica import (
    AntiEntropyRepairer,
    FailureDetector,
    ReplicatedStore,
    build_replicated_stack,
    run_replica_storm,
)

CHAOS_SEEDS = [int(os.environ.get("REPRO_CHAOS_SEED", "0")) + i for i in range(2)]

HANDOFF_STEPS = [
    "handoff.replay",
    "handoff.replay:applied",
    "handoff.replay:batch",
]


# -- replica placement -------------------------------------------------------------


class TestPreferenceList:
    def test_distinct_replicas_up_to_n(self):
        router = ConsistentHashRouter(range(5), seed=9)
        for key in list(range(40)) + [f"k{i}" for i in range(40)]:
            prefs = router.preference_list(key, 3)
            assert len(prefs) == 3
            assert len(set(prefs)) == 3
            assert prefs[0] == router.owner(key)

    def test_clamps_to_available_shards(self):
        router = ConsistentHashRouter(range(2), seed=9)
        assert len(router.preference_list("x", 5)) == 2

    def test_rejects_nonpositive_n(self):
        router = ConsistentHashRouter(range(3), seed=9)
        with pytest.raises(ValueError):
            router.preference_list("x", 0)

    def test_stable_for_fixed_seed(self):
        a = ConsistentHashRouter(range(4), seed=3)
        b = ConsistentHashRouter(range(4), seed=3)
        for key in range(50):
            assert a.preference_list(key, 3) == b.preference_list(key, 3)

    def test_base_router_successor_walk(self):
        router = HashRangeRouter.uniform([0, 1, 2, 3], seed=2)
        for key in range(30):
            prefs = router.preference_list(key, 3)
            owner = router.owner(key)
            # Base rule: sorted-id successor walk from the owner, wrapping.
            expected = tuple((owner + i) % 4 for i in range(3))
            assert prefs == expected


class TestHistogramSplit:
    def test_median_cut_balances_skewed_population(self):
        router = HashRangeRouter.uniform([0], seed=4)
        # All observed keys cluster in the low tenth of the hash space:
        # a geometric midpoint split would leave the upper half empty.
        points = [i * 137 for i in range(200)]
        split = router.split(0, 1, histogram=points)
        cut = split.ranges_of(1)[0][0]
        left = sum(1 for p in points if p < cut)
        assert abs(left - 100) <= 1  # median cut: half the observed keys

    def test_without_histogram_cut_is_geometric_midpoint(self):
        router = HashRangeRouter.uniform([0], seed=4)
        split = router.split(0, 1)
        (lo, hi), = split.ranges_of(1)
        assert lo == 2 ** 63  # midpoint of the full space

    def test_cut_clamped_inside_range(self):
        router = HashRangeRouter.uniform([0], seed=4)
        # Every observed key at the very bottom: the clamp must keep both
        # sides non-empty.
        split = router.split(0, 1, histogram=[0] * 50)
        (lo, hi), = split.ranges_of(1)
        assert 0 < lo < 2 ** 64

    def test_empty_histogram_falls_back_to_midpoint(self):
        router = HashRangeRouter.uniform([0], seed=4)
        assert router.split(0, 1, histogram=[]).bounds == \
            router.split(0, 1).bounds


# -- failure detection -------------------------------------------------------------


class TestFailureDetector:
    def test_fresh_heartbeat_clears_suspicion(self):
        clock = SimulatedClock()
        det = FailureDetector(clock)
        det.record_failure(0)
        det.record_failure(0)
        assert det.suspicion(0) == 2.0
        det.heartbeat(0)
        assert det.suspicion(0) == 0.0

    def test_suspicion_accrues_with_silence(self):
        clock = SimulatedClock()
        det = FailureDetector(clock)
        for _ in range(5):
            clock.advance(0.01)
            det.heartbeat(0)
        low = det.suspicion(0)
        clock.advance(0.5)  # 50 mean intervals of silence
        assert det.suspicion(0) > low
        assert det.suspected(0)

    def test_consecutive_failures_trip_threshold(self):
        det = FailureDetector(SimulatedClock())
        for _ in range(4):
            det.record_failure(1)
        assert det.suspected(1)
        assert not det.suspected(2)


def _fresh_store(n_nodes=3, seed=0, *, device=None, injector=None):
    device = BlockDevice() if device is None else device
    clock = SimulatedClock()
    store = ReplicatedStore(
        device, n_nodes=n_nodes, clock=clock,
        detector=FailureDetector(clock), injector=injector, seed=seed,
    )
    return store, device


# -- the quorum combine rule -------------------------------------------------------


class TestQuorumCombine:
    N = 120

    def _loaded(self, **kwargs):
        store, device = _fresh_store(**kwargs)
        for key in range(self.N):
            store.put(key, f"v{key}")
        return store, device

    def test_present_from_any_healthy_replica(self):
        store, _ = self._loaded()
        # Kill everything except one replica of the probed key: a single
        # complete PRESENT answer is authoritative.
        key = 7
        keep = store.replicas_of(key)[-1]
        for node_id in store.nodes:
            if node_id != keep:
                store.kill(node_id)
        result = store.lookup(key)
        assert result.state is Answer.PRESENT
        assert result.value == f"v{key}"

    def test_absent_needs_a_read_quorum(self):
        store, _ = self._loaded()
        assert store.read_quorum == 2
        assert store.lookup("missing").state is Answer.ABSENT
        replicas = store.replicas_of("missing")
        store.kill(replicas[0])
        store.kill(replicas[1])
        result = store.lookup("missing")  # one eligible voter < quorum
        assert result.state is Answer.MAYBE
        assert result.reason == "unavailable"

    def test_tainted_replica_cannot_vote_absent(self):
        store, _ = self._loaded()
        replicas = store.replicas_of("missing")
        store.kill(replicas[0])
        store.set_tainted(replicas[1], True)
        result = store.lookup("missing")
        assert result.state is Answer.MAYBE

    def test_pending_hints_block_absent_votes(self):
        store, _ = self._loaded()
        victim = store.replicas_of("missing")[0]
        store.kill(victim)
        # Writes to other keys on the victim journal hints; until they
        # replay, the healed victim may be missing those writes and must
        # not testify to absence.
        hinted = [k for k in range(self.N, self.N + 50)
                  if victim in store.replicas_of(k)]
        for key in hinted:
            store.put(key, "late")
        store.heal(victim)
        assert store.handoff.pending_for(victim) > 0
        other = next(n for n in store.nodes if n != victim)
        store.kill(other)
        # victim + one dead replica: no quorum for keys owned by both.
        probe = next(
            k for k in range(self.N + 50, self.N + 400)
            if set(store.replicas_of(k)) >= {victim, other}
        )
        assert store.lookup(probe).state is Answer.MAYBE
        store.handoff.replay(batch=10_000, force=True)
        assert store.handoff.pending_for(victim) == 0
        assert store.lookup(probe).state is Answer.ABSENT
        for key in hinted:
            assert store.get(key) == "late"

    def test_tombstone_counts_as_absence_evidence(self):
        store, _ = self._loaded()
        store.delete(3)
        result = store.lookup(3)
        assert result.state is Answer.ABSENT
        assert result.complete

    def test_expired_deadline_answers_maybe(self):
        store, _ = self._loaded()
        deadline = Deadline.after(store.clock, 0.0)
        result = store.lookup(5, deadline=deadline)
        assert result.state is Answer.MAYBE
        assert result.reason == "deadline"

    def test_maybe_carries_the_best_effort_value(self, monkeypatch):
        # Every replica holds the record below an unreadable newer run.
        store, _ = self._loaded()
        for node_id in store.replicas_of(5):
            monkeypatch.setattr(
                store.nodes[node_id].tree, "lookup",
                lambda *_a, **_k: LookupResult(
                    Answer.MAYBE, {"s": 5, "v": "v5"}, complete=False,
                    reason="unavailable"),
            )
        result = store.lookup(5)
        assert (result.state, result.value) == (Answer.MAYBE, "v5")

    def test_fanout_order_prefers_low_suspicion(self):
        store, _ = self._loaded()
        replicas = store.replicas_of(11)
        for _ in range(5):
            store.detector.record_failure(replicas[0])
        order = store._fanout_order(replicas)
        assert order[-1] == replicas[0]

    def test_write_seq_is_monotone_and_epoch_tracks_it(self):
        store, _ = self._loaded()
        before = store.mutation_epoch
        store.put(1, "x")
        assert store.mutation_epoch == before + 1
        store.heal(0)  # heal bumps the epoch base conservatively
        assert store.mutation_epoch > before + 1


# -- hinted handoff ----------------------------------------------------------------


class TestHintedHandoff:
    def test_write_to_dead_replica_journals_a_hint(self):
        store, _ = _fresh_store()
        victim = store.replicas_of("k")[0]
        store.kill(victim)
        window = CounterWindow()
        store.put("k", "v1")
        assert store.handoff.pending_for(victim) == 1
        assert window.count("repro_replica_hints_total", action="journaled") == 1

    def test_replay_skips_dead_targets(self):
        store, _ = _fresh_store()
        victim = store.replicas_of("k")[0]
        store.kill(victim)
        store.put("k", "v1")
        assert store.handoff.replay(force=True) == 0
        assert store.handoff.pending_for(victim) == 1

    def test_replay_is_idempotent_over_newer_records(self):
        store, _ = _fresh_store()
        victim = store.replicas_of("k")[0]
        store.kill(victim)
        store.put("k", "old")
        store.heal(victim)
        store.put("k", "new")  # direct write, newer seq
        assert store.handoff.replay(force=True) == 1
        # The stale hint must not clobber the newer direct write.
        assert store.nodes[victim].tree.get("k")["v"] == "new"

    def test_journal_failure_taints_the_target(self):
        injector = FaultInjector(seed=1)
        device = FaultyBlockDevice(injector=injector)
        store, _ = _fresh_store(device=device, injector=injector)
        victim = store.replicas_of("k")[0]
        store.kill(victim)
        injector.lost_write = {"hint@handoff": 1.0, "*": 0.0}
        window = CounterWindow()
        store.put("k", "v1")
        assert window.count("repro_replica_hints_total", action="dropped") == 1
        assert store.nodes[victim].tainted

    def test_a_write_that_reached_nothing_durable_fails(self):
        _served, store, _repairer, _device, injector, _latency, _clock = (
            build_replicated_stack(seed=0, n_keys=50))
        for node_id in store.nodes:
            store.kill(node_id)
        injector.lost_write = {"hint": 1.0}
        with pytest.raises(TransientIOError, match="'k'"):
            store.put("k", "v")
        with pytest.raises(TransientIOError, match=r"\['a', 'b'\]"):
            store.put_many([("a", 1), ("b", 2)])
        # Some writes keep at least one verified hint; those that return
        # must survive heal and repair.
        injector.lost_write = {"hint": 0.6}
        acknowledged = []
        for key in range(60):
            try:
                store.put(key, f"v{key}")
            except TransientIOError:
                continue
            acknowledged.append(key)
        assert 0 < len(acknowledged) < 60
        injector.lost_write = 0.0
        for node_id in store.nodes:
            store.heal(node_id)
        while store.handoff.replay(batch=16, force=True):
            pass
        repairer = AntiEntropyRepairer(store)
        for _ in range(4_000):
            repairer.pump(force=True)
            if repairer.idle and repairer.converged():
                break
        assert repairer.converged()
        assert not any(node.tainted for node in store.nodes.values())
        for key in acknowledged:
            assert store.lookup(key).state is Answer.PRESENT, key

    def test_tombstones_travel_through_hints(self):
        store, _ = _fresh_store()
        store.put("k", "v1")
        victim = store.replicas_of("k")[0]
        store.kill(victim)
        store.delete("k")
        store.heal(victim)
        store.handoff.replay(force=True)
        assert store.lookup("k").state is Answer.ABSENT
        assert store.handoff.pending() == 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("crash_step", HANDOFF_STEPS)
class TestHandoffCrashAtEveryStep:
    """Kill the process at every handoff-replay crash point; recovery
    from the devices alone must drain the journal exactly once."""

    N = 120

    def _recover(self, device):
        store = ReplicatedStore.recover(device, clock=SimulatedClock())
        repairer = AntiEntropyRepairer(store)
        return store, repairer

    def test_replay_crash_recovers_and_converges(self, crash_step, seed):
        injector = FaultInjector(seed=seed)
        store, device = _fresh_store(seed=seed, injector=injector)
        for key in range(self.N):
            store.put(key, f"v{key}")
        victim = (seed + 1) % 3
        store.kill(victim)
        updated = [k for k in range(self.N)
                   if victim in store.replicas_of(k)][:20]
        for key in updated:
            store.put(key, f"u{key}")
        store.heal(victim)
        injector.crash_after(crash_step)
        crashed = False
        try:
            while store.handoff.pending():
                if store.handoff.replay(batch=4, force=True) == 0:
                    break
        except SimulatedCrash as crash:
            crashed = True
            assert crash.step == crash_step
            store, repairer = self._recover(device)
        assert crashed, f"crash point {crash_step} never fired"
        # Mid-crash state must never answer a stored key ABSENT.
        for key in range(0, self.N, 13):
            assert store.lookup(key).state is not Answer.ABSENT
        while store.handoff.pending():
            if store.handoff.replay(batch=8, force=True) == 0:
                break
        assert store.handoff.pending() == 0
        for key in updated:
            assert store.get(key) == f"u{key}", key
        for node in store.nodes.values():
            record = node.tree.get(updated[0])
            assert record is not None and record["v"] == f"u{updated[0]}"


# -- anti-entropy ------------------------------------------------------------------


class TestAntiEntropy:
    N = 150

    def _loaded(self, seed=0):
        store, device = _fresh_store(seed=seed)
        for key in range(self.N):
            store.put(key, f"v{key}")
        return store, device

    def _drain(self, repairer, limit=4_000):
        for _ in range(limit):
            repairer.pump(force=True)
            if repairer.idle and repairer.converged():
                return
        raise AssertionError("anti-entropy did not converge")

    def test_clean_fleet_is_converged(self):
        store, _ = self._loaded()
        assert AntiEntropyRepairer(store).converged()

    def test_wiped_replica_is_rebuilt_and_untainted(self):
        store, _ = self._loaded()
        store.kill(1, wipe=True)
        store.heal(1)
        assert store.nodes[1].tainted
        repairer = AntiEntropyRepairer(store)
        assert not repairer.converged()
        window = CounterWindow()
        self._drain(repairer)
        assert window.count("repro_replica_repairs_total", action="streamed") > 0
        assert not store.nodes[1].tainted
        owned = [k for k in range(self.N) if 1 in store.replicas_of(k)]
        for key in owned:
            assert store.nodes[1].tree.get(key)["v"] == f"v{key}"

    def test_repair_respects_placement(self):
        store, _ = self._loaded()
        store.kill(1, wipe=True)
        store.heal(1)
        self._drain(AntiEntropyRepairer(store))
        not_owned = [k for k in range(self.N) if 1 not in store.replicas_of(k)]
        for key in not_owned:
            assert store.nodes[1].tree.get(key) is None

    def test_deletes_converge_via_tombstones(self):
        store, _ = self._loaded()
        store.kill(1, wipe=True)
        store.heal(1)
        dropped = [k for k in range(0, self.N, 10)]
        for key in dropped:
            store.delete(key)
        self._drain(AntiEntropyRepairer(store))
        for key in dropped:
            assert store.lookup(key).state is Answer.ABSENT

    def test_stale_snapshot_never_rolls_a_replica_back(self):
        store, _ = self._loaded()
        repairer = AntiEntropyRepairer(store)
        repairer.pump(force=True)  # snapshot r0 ...
        repairer.pump(force=True)  # ... and r1, both holding v0
        store.put(0, "mid")
        repairer.pump(force=True)  # r2's snapshot holds "mid"
        store.put(0, "newest")  # every replica now holds "newest" ...
        store.kill(2, wipe=True)  # ... except r2, which loses it
        store.heal(2)
        self._drain(repairer)
        assert store.get(0) == "newest"
        assert all(node.tree.get(0)["v"] == "newest" for node in store.nodes.values())

    def test_pump_noops_while_untainted(self):
        store, _ = self._loaded()
        repairer = AntiEntropyRepairer(store)
        with use_registry() as registry:
            assert not repairer.pump()
        assert registry.snapshot() == {}

    def test_taint_needs_full_clean_round_to_clear(self):
        store, _ = self._loaded()
        store.set_tainted(2, True)
        repairer = AntiEntropyRepairer(store)
        for _ in range(4):  # a few pumps: far less than a full round
            repairer.pump(force=True)
        assert store.nodes[2].tainted
        self._drain(repairer)
        assert not store.nodes[2].tainted


# -- crash-recovery of the whole fleet ---------------------------------------------


class TestFleetRecovery:
    def test_recover_restores_state_and_flags(self):
        store, device = _fresh_store(seed=5)
        for key in range(80):
            store.put(key, f"v{key}")
        store.kill(1, wipe=True)
        store.delete(3)
        seq = store.write_seq
        revived = ReplicatedStore.recover(device, clock=SimulatedClock())
        assert revived.write_seq >= seq
        assert not revived.nodes[1].alive
        assert revived.nodes[1].tainted
        assert revived.lookup(7).state is Answer.PRESENT
        assert revived.lookup(3).state is not Answer.PRESENT
        revived.put(99, "post-crash")  # new writes keep winning max-seq
        assert revived.get(99) == "post-crash"

    def test_recover_without_manifest_fails_loudly(self):
        with pytest.raises(RuntimeError):
            ReplicatedStore.recover(BlockDevice())


# -- hypothesis: never-ABSENT under arbitrary interleavings ------------------------


class ReplicaMachine(RuleBasedStateMachine):
    """Interleave writes, deletes, kills, wipes, heals, hint replays,
    repair pumps, and full-process crashes: a stored key must never
    read ABSENT, and a full drain must converge every digest."""

    KEYS = st.integers(min_value=0, max_value=24)

    def __init__(self):
        super().__init__()
        self.device = BlockDevice()
        clock = SimulatedClock()
        self.store = ReplicatedStore(
            self.device, n_nodes=3, clock=clock,
            detector=FailureDetector(clock), seed=2,
        )
        self.repairer = AntiEntropyRepairer(self.store)
        self.model: dict[int, str] = {}
        self.writes = 0

    @rule(key=KEYS)
    def put(self, key):
        self.writes += 1
        value = f"v{self.writes}"
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(node=st.integers(min_value=0, max_value=2), wipe=st.booleans())
    def kill(self, node, wipe):
        if not self.store.nodes[node].alive:
            return
        # Wiping the last untainted copy is total data destruction —
        # beyond what R-way replication can (or claims to) survive; the
        # taint gates still keep such keys at MAYBE, never ABSENT, but
        # the teardown's full-recovery check needs one intact source.
        if wipe and all(
            other.tainted
            for oid, other in self.store.nodes.items() if oid != node
        ):
            wipe = False
        self.store.kill(node, wipe=wipe)

    @rule(node=st.integers(min_value=0, max_value=2))
    def heal(self, node):
        if not self.store.nodes[node].alive:
            self.store.heal(node)

    @rule()
    def replay_some(self):
        self.store.handoff.replay(batch=3, force=True)

    @rule()
    def pump_repair(self):
        self.repairer.pump(force=True)

    @rule()
    def crash_and_recover(self):
        clock = SimulatedClock()
        self.store = ReplicatedStore.recover(self.device, clock=clock)
        self.repairer = AntiEntropyRepairer(self.store)

    @invariant()
    def stored_keys_never_absent(self):
        for key in self.model:
            assert self.store.lookup(key).state is not Answer.ABSENT, key

    def teardown(self):
        # Full drain: heal everyone, replay every hint, repair every
        # bucket — then the fleet must agree with the model.
        for node_id in list(self.store.nodes):
            if not self.store.nodes[node_id].alive:
                self.store.heal(node_id)
        for _ in range(200):
            if self.store.handoff.replay(batch=16, force=True) == 0:
                break
        assert self.store.handoff.pending() == 0
        for _ in range(4_000):
            self.repairer.pump(force=True)
            if self.repairer.idle and self.repairer.converged():
                break
        assert self.repairer.converged()
        for key, value in self.model.items():
            result = self.store.lookup(key)
            assert result.state is Answer.PRESENT, key
            assert result.value == value


TestReplicaMachine = ReplicaMachine.TestCase
TestReplicaMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


# -- acceptance: the replicated chaos storm ----------------------------------------


def _small_phases():
    from repro.serve import StormPhase

    return (
        StormPhase("calm", 120),
        StormPhase("storm", 160, transient_read=0.5, slowdown=3.0,
                   spike_prob=0.05),
        StormPhase("recovery", 120),
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestReplicaStorm:
    def test_kill_heal_storm_meets_the_contract(self, seed):
        storm, rep, store, repairer = run_replica_storm(
            seed=seed, n_keys=400, n_nodes=3, phases=_small_phases(),
            kill_at=150, heal_at=320, wipe=True, write_fraction=0.05,
        )
        assert storm.false_negatives == 0
        assert rep.kills == 1 and rep.heals == 1
        assert rep.converged
        assert rep.backlog == 0
        assert rep.hints_dropped == 0
        # The wiped replica was rebuilt by repair streaming.
        assert rep.repairs > 0

    def test_replicated_beats_single_copy_under_kill(self, seed):
        phases = _small_phases()
        replicated, *_ = run_replica_storm(
            seed=seed, n_keys=400, n_nodes=3, phases=phases,
            kill_at=150, heal_at=0, drain=False,
        )
        single, *_ = run_replica_storm(
            seed=seed, n_keys=400, n_nodes=1, phases=phases,
            kill_at=150, heal_at=0, drain=False,
        )
        assert replicated.false_negatives == 0
        assert single.false_negatives == 0
        # With its only copy gone, the single-node fleet cannot serve an
        # authoritative answer again; R=3 keeps serving through the kill.
        assert replicated.goodput() > single.goodput()

    def test_crash_during_handoff_replay_recovers(self, seed):
        storm, rep, store, repairer = run_replica_storm(
            seed=seed, n_keys=300, n_nodes=3, phases=_small_phases(),
            kill_at=120, heal_at=300, write_fraction=0.1,
            crash_at_step="handoff.replay:applied",
        )
        assert storm.false_negatives == 0
        assert rep.converged
        assert rep.backlog == 0


@pytest.mark.parametrize("crash_step,wipe", [
    ("handoff.replay", False),
    ("handoff.replay:applied", False),
    ("handoff.replay:batch", False),
    ("repair.stream", True),
])
def test_storm_report_counts_what_the_registry_counted(crash_step, wipe):
    """Crash recovery rebuilds the fleet and copies no counters, so the
    report reads every count from the registry."""
    from repro.serve import StormPhase

    phases = (
        StormPhase("calm", 200),
        StormPhase("storm", 200, transient_read=0.6, slowdown=4.0, spike_prob=0.05),
        StormPhase("recovery", 200),
    )
    with use_registry() as registry:
        storm, report, _store, _repairer = run_replica_storm(
            seed=100, n_keys=800, n_nodes=3, phases=phases, kill_at=150,
            heal_at=450, wipe=wipe, crash_at_step=crash_step, write_fraction=0.05,
        )
    assert storm.false_negatives == 0
    assert report.crashes == 1 and report.converged and report.backlog == 0
    reads = {
        "hints_journaled": ("repro_replica_hints_total", {"action": "journaled"}),
        "hints_replayed": ("repro_replica_hints_total", {"action": "replayed"}),
        "hints_dropped": ("repro_replica_hints_total", {"action": "dropped"}),
        "repairs": ("repro_replica_repairs_total", {"action": "streamed"}),
        "repair_bytes": ("repro_replica_repair_bytes_total", {}),
        "buckets_checked": ("repro_replica_buckets_checked_total", {}),
        "repair_sheds": ("repro_replica_repair_sheds_total", {}),
    }
    for field, (name, labels) in reads.items():
        assert getattr(report, field) == registry_count(registry, name, **labels), field
