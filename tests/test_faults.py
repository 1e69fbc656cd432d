"""Fault-injection, recovery, and scrub tests (docs/robustness.md).

The chaos test at the bottom is the acceptance gate for the storage
stack: 100 seeded crash/corrupt/recover cycles over an ``LSMTree`` on a
``FaultyBlockDevice`` must lose zero acknowledged keys and every injected
filter-blob corruption must be reported by ``scrub()``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.clock import Answer, Deadline, DeadlineExceeded, SimulatedClock
from repro.common.records import DurableManifest
from repro.common.storage import BlockDevice
from repro.common.faults import (
    FaultInjector,
    FaultyBlockDevice,
    LatencyInjector,
    RetryPolicy,
    SimulatedCrash,
    TransientIOError,
)
from repro.obs import use_registry
from repro.serve import BreakerDevice, BreakerState


class TestFaultInjector:
    def test_deterministic_given_seed(self):
        a = FaultInjector(seed=5, bit_flip=0.3, torn_write=0.1, transient_read=0.2)
        b = FaultInjector(seed=5, bit_flip=0.3, torn_write=0.1, transient_read=0.2)
        ops = [a.draw_write(("filter", i)) for i in range(200)]
        ops += [a.draw_read(("run", i)) for i in range(200)]
        ops2 = [b.draw_write(("filter", i)) for i in range(200)]
        ops2 += [b.draw_read(("run", i)) for i in range(200)]
        assert ops == ops2
        assert any(op is not None for op in ops[:200])

    def test_per_address_class_rates(self):
        inj = FaultInjector(seed=1, bit_flip={"filter": 1.0})
        assert inj.draw_write(("filter", 3)) == "flip"
        assert inj.draw_write(("run", 3)) is None
        assert inj.draw_write("unrelated") is None

    def test_wildcard_default_rate(self):
        inj = FaultInjector(seed=1, transient_read={"wal": 0.0, "*": 1.0})
        assert not inj.draw_read(("wal", 1))
        assert inj.draw_read(("run", 1))

    def test_flip_changes_exactly_one_bit(self):
        inj = FaultInjector(seed=2)
        payload = bytes(range(64))
        flipped = inj.flip_payload(payload)
        diff = [a ^ b for a, b in zip(payload, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_tear_truncates(self):
        inj = FaultInjector(seed=3)
        payload = bytes(range(64))
        torn = inj.tear_payload(payload)
        assert len(torn) < len(payload)
        assert payload.startswith(torn)


class TestCrashPoints:
    """``crash_after`` arms exactly one simulated crash at a named step."""

    def test_unarmed_is_a_no_op(self):
        inj = FaultInjector(seed=0)
        inj.maybe_crash("reshard.cutover")  # nothing armed: no raise
        assert inj.crashes == 0
        assert inj.armed_crash is None

    def test_fires_only_at_matching_step(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("reshard.backfill")
        assert inj.armed_crash == "reshard.backfill"
        inj.maybe_crash("reshard.planned")  # non-matching step passes through
        inj.maybe_crash("reshard.double_write")
        with pytest.raises(SimulatedCrash) as exc:
            inj.maybe_crash("reshard.backfill")
        assert exc.value.step == "reshard.backfill"

    def test_one_shot_disarms_after_firing(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("reshard.verify")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("reshard.verify")
        assert inj.armed_crash is None
        inj.maybe_crash("reshard.verify")  # second pass survives
        assert inj.crashes == 1

    def test_crashes_counted(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("step.a")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("step.a")
        inj.crash_after("step.b")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("step.b")
        assert inj.crashes == 2

    def test_rearming_replaces_previous_step(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("old.step")
        inj.crash_after("new.step")
        inj.maybe_crash("old.step")  # superseded arming never fires
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("new.step")

    def test_fired_step_stays_disarmed_across_rearm_attempts(self):
        # Recovery paths re-execute setup code verbatim, including the
        # crash_after call that armed the original crash.  Re-arming a
        # step that already fired must be a no-op or recovery crash-loops.
        inj = FaultInjector(seed=0)
        inj.crash_after("handoff.replay")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("handoff.replay")
        inj.crash_after("handoff.replay")  # recovery re-arms verbatim
        assert inj.armed_crash is None
        inj.maybe_crash("handoff.replay")  # replay survives
        assert inj.crashes == 1

    def test_rearm_true_fires_the_same_step_again(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("handoff.replay")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("handoff.replay")
        inj.crash_after("handoff.replay", rearm=True)
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("handoff.replay")
        assert inj.crashes == 2

    def test_fired_step_does_not_block_other_steps(self):
        inj = FaultInjector(seed=0)
        inj.crash_after("step.a")
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("step.a")
        inj.crash_after("step.b")  # a different step arms normally
        with pytest.raises(SimulatedCrash):
            inj.maybe_crash("step.b")


class TestScopedRates:
    """``"class@namespace"`` rate keys target one namespace's devices."""

    def test_scoped_key_wins_over_class_and_wildcard(self):
        inj = FaultInjector(
            seed=1, transient_read={"run@r1": 1.0, "run": 0.0, "*": 0.0}
        )
        # NamespacedDevice address shape: (cls, namespace, *rest).
        assert inj.draw_read(("run", "r1", 0, 4))
        assert not inj.draw_read(("run", "r2", 0, 4))
        assert not inj.draw_read(("wal", "r1", 7))

    def test_unscoped_spec_ignores_namespace(self):
        inj = FaultInjector(seed=1, transient_read={"run": 1.0, "*": 0.0})
        assert inj.draw_read(("run", "r1", 0, 4))
        assert inj.draw_read(("run", 3))
        assert not inj.draw_read(("wal", "r1", 7))

    def test_address_scope_shape(self):
        from repro.common.faults import address_scope

        assert address_scope(("run", "r2", 0, 4)) == "run@r2"
        assert address_scope(("wal", 7)) is None  # no namespace element
        assert address_scope("manifest") is None


class TestFaultyBlockDevice:
    def test_clean_passthrough(self):
        dev = FaultyBlockDevice()
        dev.write("a", b"hello", size=10)
        assert dev.read("a") == b"hello"
        assert dev.stats.writes == 1 and dev.stats.reads == 1
        assert dev.exists("a") and not dev.exists("b")
        assert len(dev) == 1 and dev.used_bytes == 10
        assert dev.corrupted_addresses() == frozenset()

    def test_bit_flip_corrupts_and_tracks(self):
        dev = FaultyBlockDevice(injector=FaultInjector(seed=1, bit_flip=1.0))
        dev.write(("filter", 1), b"\x00" * 32)
        assert dev.read(("filter", 1)) != b"\x00" * 32
        assert dev.corrupted_addresses() == {("filter", 1)}
        assert dev.fault_stats.bit_flips == 1

    def test_clean_overwrite_clears_corruption(self):
        inj = FaultInjector(seed=1, bit_flip=1.0)
        dev = FaultyBlockDevice(injector=inj)
        dev.write("a", b"\x00" * 8)
        inj.bit_flip = 0.0
        dev.write("a", b"\x00" * 8)
        assert dev.corrupted_addresses() == frozenset()
        assert dev.read("a") == b"\x00" * 8

    def test_torn_write_truncates(self):
        dev = FaultyBlockDevice(injector=FaultInjector(seed=4, torn_write=1.0))
        dev.write("a", b"x" * 100)
        assert len(dev.read("a")) < 100
        assert dev.fault_stats.torn_writes == 1
        assert ("torn", "a") in dev.fault_log

    def test_lost_write_keeps_old_content_and_charges_io(self):
        inj = FaultInjector(seed=5)
        dev = FaultyBlockDevice(injector=inj)
        dev.write("a", b"old")
        inj.lost_write = 1.0
        dev.write("a", b"new", size=3)
        assert dev.read("a") == b"old"
        assert dev.stats.writes == 2  # the device acked both
        assert dev.fault_stats.lost_writes == 1

    def test_lost_write_on_fresh_address_leaves_nothing(self):
        dev = FaultyBlockDevice(injector=FaultInjector(seed=6, lost_write=1.0))
        dev.write("a", b"data")
        assert not dev.exists("a")
        with pytest.raises(KeyError):
            dev.read("a")

    def test_transient_read_raises_then_recovers(self):
        inj = FaultInjector(seed=7, transient_read=1.0)
        dev = FaultyBlockDevice(injector=inj)
        dev.write("a", b"payload")
        with pytest.raises(TransientIOError):
            dev.read("a")
        inj.transient_read = 0.0
        assert dev.read("a") == b"payload"

    def test_faults_skip_structured_payloads(self):
        dev = FaultyBlockDevice(injector=FaultInjector(seed=8, bit_flip=1.0, torn_write=1.0))
        dev.write("obj", {"k": 1}, size=4)
        assert dev.read("obj") == {"k": 1}
        assert dev.corrupted_addresses() == frozenset()

    def test_ruin_flips_on_demand(self):
        dev = FaultyBlockDevice()
        dev.write("a", b"\x00" * 16)
        dev.ruin("a")
        assert dev.read("a") != b"\x00" * 16
        assert dev.corrupted_addresses() == {"a"}
        with pytest.raises(TypeError):
            dev.write("obj", 123)
            dev.ruin("obj")

    def test_delete_clears_tracking(self):
        dev = FaultyBlockDevice(injector=FaultInjector(seed=9, bit_flip=1.0))
        dev.write("a", b"\x00" * 8)
        dev.delete("a")
        assert dev.corrupted_addresses() == frozenset()


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("try again")
            return "ok"

        policy = RetryPolicy(max_attempts=4)
        assert policy.call(flaky) == "ok"
        assert policy.stats.attempts == 3
        assert policy.stats.retries == 2
        assert policy.stats.giveups == 0

    def test_gives_up_and_reraises(self):
        policy = RetryPolicy(max_attempts=3)

        def always_fail():
            raise TransientIOError("down")

        with pytest.raises(TransientIOError):
            policy.call(always_fail)
        assert policy.stats.giveups == 1
        assert policy.stats.retries == 2

    def test_backoff_accounting_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_backoff=0.01, multiplier=2.0)

        def always_fail():
            raise TransientIOError("down")

        with pytest.raises(TransientIOError):
            policy.call(always_fail)
        # 0.01 + 0.02 + 0.04 accounted; the final attempt raises.
        assert policy.stats.backoff_seconds == pytest.approx(0.07)

    def test_non_transient_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5)

        def boom():
            policy_calls.append(1)
            raise KeyError("not transient")

        policy_calls = []
        with pytest.raises(KeyError):
            policy.call(boom)
        assert len(policy_calls) == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_rejects_unknown_jitter_mode(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter="thundering-herd")

    def _jitter_schedule(self, seed: int, n: int = 6) -> list[float]:
        policy = RetryPolicy(jitter="decorrelated", base_backoff=0.01,
                             max_backoff=0.5, seed=seed)
        return [policy.next_backoff(i) for i in range(n)]

    def test_decorrelated_jitter_is_seed_deterministic(self):
        # The reproducibility contract: the schedule is a pure function
        # of the seed, so a chaos run replays byte-for-byte.
        assert self._jitter_schedule(seed=42) == self._jitter_schedule(seed=42)
        assert self._jitter_schedule(seed=42) != self._jitter_schedule(seed=43)

    def test_decorrelated_jitter_respects_bounds(self):
        schedule = self._jitter_schedule(seed=7, n=50)
        assert all(0.01 <= b <= 0.5 for b in schedule)
        # Decorrelated jitter must actually vary, unlike fixed backoff.
        assert len(set(schedule)) > 1

    def test_jittered_call_advances_supplied_clock(self):

        clock = SimulatedClock()
        policy = RetryPolicy(max_attempts=3, jitter="decorrelated",
                             base_backoff=0.01, max_backoff=0.5,
                             seed=5, clock=clock)

        def always_fail():
            raise TransientIOError("down")

        with pytest.raises(TransientIOError):
            policy.call(always_fail)
        # Two backoffs (attempts 1 and 2) were accounted on the clock.
        assert clock.now() == pytest.approx(policy.stats.backoff_seconds)
        assert clock.now() >= 2 * 0.01

    def test_each_call_restarts_decorrelated_jitter(self):
        # One policy serves every read of a tree, so a call's first retry
        # must not inherit the delay earlier calls escalated to.
        base = 0.0005
        clock = _StepClock()
        policy = RetryPolicy(max_attempts=3, jitter="decorrelated", base_backoff=base,
                             max_backoff=0.01, seed=1, clock=clock)
        for _ in range(50):
            outcome, backoffs = _one_call(policy, clock, failures=2)
            assert outcome == "ok" and len(backoffs) == 2
            assert base <= backoffs[0] <= 3 * base

    def test_backoff_that_would_reach_the_deadline_gives_up(self):
        clock = SimulatedClock()
        policy = RetryPolicy(max_attempts=4, jitter="decorrelated", base_backoff=0.0005,
                             max_backoff=0.01, clock=clock)
        deadline = Deadline.after(clock, 0.001)

        def always_fail():
            raise TransientIOError("down")

        with use_registry() as registry:
            with pytest.raises(DeadlineExceeded):
                policy.call(always_fail, deadline=deadline)
            attempts = registry.get("repro_retry_attempts_total")
            assert attempts.labels(outcome="deadline").value == 1
            assert attempts.labels(outcome="giveup").value == 0
        assert clock.now() < deadline.expires_at
        assert policy.stats.giveups == 1


class _StepClock(SimulatedClock):
    """A simulated clock that keeps every step it is advanced by."""

    def __init__(self):
        super().__init__()
        self.steps: list[float] = []

    def advance(self, dt: float) -> float:
        self.steps.append(dt)
        return super().advance(dt)


def _one_call(policy: RetryPolicy, clock: _StepClock, failures: int,
              deadline: Deadline | None = None) -> tuple[str, list[float]]:
    """One ``policy.call`` of a read that fails *failures* times, then
    succeeds: how the call ended, and the backoffs it charged the clock."""
    failed = 0

    def read():
        nonlocal failed
        if failed < failures:
            failed += 1
            raise TransientIOError("down")
        return "ok"

    first = len(clock.steps)
    try:
        outcome = policy.call(read) if deadline is None else policy.call(read, deadline=deadline)
    except TransientIOError:
        outcome = "giveup"
    except DeadlineExceeded:
        outcome = "deadline"
    return outcome, clock.steps[first:]


_ATTEMPTS = 4


@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(
        st.tuples(st.integers(0, _ATTEMPTS),
                  st.none() | st.floats(0.0, 0.03, allow_nan=False)),
        max_size=40,
    ),
)
def test_retry_schedule_per_call_and_within_deadline(seed, calls):
    """Any seed, any calls: each fails 0 to ``max_attempts`` times and
    has a deadline budget or none."""
    base, cap = 0.0005, 0.01
    runs = []
    for _ in range(2):
        clock = _StepClock()
        policy = RetryPolicy(max_attempts=_ATTEMPTS, jitter="decorrelated",
                             base_backoff=base, max_backoff=cap, seed=seed, clock=clock)
        run = []
        for failures, budget in calls:
            deadline = None if budget is None else Deadline.after(clock, budget)
            outcome, backoffs = _one_call(policy, clock, failures, deadline)
            assert all(base <= b <= cap for b in backoffs)
            assert not backoffs or backoffs[0] <= 3 * base
            if deadline is not None and backoffs:
                assert clock.now() < deadline.expires_at
            run.append((outcome, backoffs))
        runs.append(run)
    # Same seed, same calls: the same backoffs and the same outcomes.
    assert runs[0] == runs[1]


class TestLatencyInjector:
    def _draws(self, injector, n=200):
        return [injector.draw(0.0) for _ in range(n)]

    def test_deterministic_given_seed(self):
        a = self._draws(LatencyInjector(seed=9, base=0.001, spike_prob=0.1))
        b = self._draws(LatencyInjector(seed=9, base=0.001, spike_prob=0.1))
        c = self._draws(LatencyInjector(seed=10, base=0.001, spike_prob=0.1))
        assert a == b
        assert a != c

    def test_jitter_stays_within_band(self):
        injector = LatencyInjector(seed=1, base=0.001, jitter=0.25)
        for draw in self._draws(injector):
            assert 0.00075 <= draw <= 0.00125

    def test_plateau_window_slows_operations(self):
        injector = LatencyInjector(seed=2, base=0.001, jitter=0.0,
                                   plateaus=((1.0, 2.0, 10.0),))
        assert injector.draw(0.5) == pytest.approx(0.001)
        assert injector.draw(1.5) == pytest.approx(0.010)
        assert injector.draw(2.0) == pytest.approx(0.001)  # window is half-open
        assert injector.stats.plateau_draws == 1

    def test_slowdown_multiplier_is_mutable(self):
        injector = LatencyInjector(seed=3, base=0.001, jitter=0.0)
        assert injector.draw(0.0) == pytest.approx(0.001)
        injector.slowdown = 4.0
        assert injector.draw(0.0) == pytest.approx(0.004)

    def test_spikes_are_rare_and_big(self):
        injector = LatencyInjector(seed=4, base=0.001, jitter=0.0,
                                   spike_prob=0.05, spike_scale=25.0)
        draws = self._draws(injector, n=1000)
        spikes = [d for d in draws if d > 0.01]
        assert len(spikes) == injector.stats.spikes
        assert 10 <= len(spikes) <= 100  # ~50 expected at p=0.05
        assert all(s == pytest.approx(0.025) for s in spikes)

    def test_device_spend_advances_clock_and_busy_seconds(self):
        clock = SimulatedClock()
        latency = LatencyInjector(seed=5, base=0.001)
        device = FaultyBlockDevice(latency=latency, clock=clock)
        device.write("a", b"payload")
        device.read("a")
        assert clock.now() > 0.0
        assert device.stats.busy_seconds == pytest.approx(clock.now())

    def test_failed_read_still_costs_time(self):
        clock = SimulatedClock()
        latency = LatencyInjector(seed=6, base=0.001)
        injector = FaultInjector(seed=6, transient_read=1.0)
        device = FaultyBlockDevice(injector=injector, latency=latency,
                                   clock=clock)
        device.write("a", b"payload")
        before = clock.now()
        with pytest.raises(TransientIOError):
            device.read("a")
        assert clock.now() > before  # the failed I/O still took time

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencyInjector(base=-1.0)
        with pytest.raises(ValueError):
            LatencyInjector(jitter=1.5)


def _insert(tree: LSMTree, rng: random.Random, n: int, acked: dict) -> None:
    for _ in range(n):
        key = rng.randrange(1 << 24)
        value = rng.randrange(1 << 16)
        tree.put(key, value)
        acked[key] = value


class TestRecovery:
    def test_recover_clean_device_restores_everything(self):
        tree = LSMTree(LSMConfig(memtable_entries=16, compaction="tiering", size_ratio=4))
        rng, acked = random.Random(0), {}
        _insert(tree, rng, 500, acked)
        recovered = LSMTree.recover(tree.device)
        assert recovered.recovery_report.runs_lost == 0
        assert recovered.recovery_report.wal_lost == 0
        for key, value in acked.items():
            assert recovered.get(key) == value

    def test_unflushed_memtable_survives_via_wal(self):
        tree = LSMTree(LSMConfig(memtable_entries=1000))  # nothing flushes
        for key in range(40):
            tree.put(key, key * 2)
        recovered = LSMTree.recover(tree.device)
        assert recovered.recovery_report.wal_replayed == 40
        for key in range(40):
            assert recovered.get(key) == key * 2

    def test_tombstones_survive_recovery(self):
        tree = LSMTree(LSMConfig(memtable_entries=16))
        for key in range(100):
            tree.put(key, key)
        for key in range(0, 100, 3):
            tree.delete(key)
        recovered = LSMTree.recover(tree.device)
        for key in range(100):
            expected = "gone" if key % 3 == 0 else key
            assert recovered.get(key, default="gone") == expected

    def test_config_rehydrated_from_manifest(self):
        tree = LSMTree(LSMConfig(memtable_entries=16, compaction="tiering", size_ratio=6))
        rng, acked = random.Random(1), {}
        _insert(tree, rng, 200, acked)
        recovered = LSMTree.recover(tree.device)  # no config passed
        assert recovered.config.compaction == "tiering"
        assert recovered.config.size_ratio == 6

    def test_corrupt_filter_blob_is_rebuilt(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        rng, acked = random.Random(2), {}
        _insert(tree, rng, 300, acked)
        victims = [a for a in dev.addresses() if a[0] == "filter"][:2]
        for victim in victims:
            dev.ruin(victim)
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.filters_rebuilt == len(victims)
        assert recovered.recovery_report.filters_degraded == 0
        for key, value in acked.items():
            assert recovered.get(key) == value
        # The rebuilt blobs are clean again.
        assert not [a for a in dev.corrupted_addresses() if a[0] == "filter"]

    def test_degraded_run_costs_one_extra_read_per_probe(self):
        dev = FaultyBlockDevice()
        config = LSMConfig(
            memtable_entries=32, compaction="tiering", size_ratio=4,
            rebuild_filters_on_recovery=False,
        )
        tree = LSMTree(config, device=dev)
        rng, acked = random.Random(3), {}
        _insert(tree, rng, 600, acked)
        tree.flush()
        victims = [a for a in dev.addresses() if a[0] == "filter"][:2]
        for victim in victims:
            dev.ruin(victim)
        recovered = LSMTree.recover(dev, config)
        assert recovered.recovery_report.filters_degraded == len(victims)
        before = dev.stats.snapshot()
        n_queries = 200
        for q in range(n_queries):
            recovered.get((1 << 30) + q)  # guaranteed-negative keys
        delta = dev.stats - before
        # Every degraded run is probed on every lookup: exactly one device
        # read each, counted in degraded_lookups.
        assert recovered.stats.degraded_lookups == len(victims) * n_queries
        assert delta.reads >= len(victims) * n_queries

    def test_manifest_loss_falls_back_to_device_scan(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        rng, acked = random.Random(4), {}
        _insert(tree, rng, 300, acked)
        for slot in (0, 1):
            dev.delete(("manifest", slot))
        recovered = LSMTree.recover(dev, LSMConfig(memtable_entries=16))
        assert recovered.recovery_report.manifest_fallback
        assert recovered.recovery_report.runs_recovered > 0
        for key, value in acked.items():
            assert recovered.get(key) == value

    def test_corrupt_wal_record_is_detected_not_silent(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=1000), device=dev)
        for key in range(30):
            tree.put(key, key)
        dev.ruin(("wal", 7))
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.wal_lost == 1
        assert recovered.recovery_report.wal_replayed == 29
        assert recovered.stats.integrity_faults >= 1

    def test_unverified_checkpoint_keeps_what_recovery_needs(self):
        # Every manifest write after epoch 1 is lost, so no later
        # checkpoint verifies: the runs it would retire and the WAL
        # records it would free are still the only copy recovery can use.
        inj = FaultInjector(seed=0)
        dev = FaultyBlockDevice(injector=inj)
        tree = LSMTree(LSMConfig(memtable_entries=8), device=dev)
        for key in range(8):
            tree.put(key, key)
        inj.lost_write = {"manifest": 1.0, "*": 0.0}
        for key in range(8, 40):
            tree.put(key, key)
        assert tree.stats.integrity_faults > 0
        inj.lost_write = 0.0
        recovered = LSMTree.recover(dev)
        report = recovered.recovery_report
        assert report.runs_lost == 0 and report.wal_lost == 0
        assert report.wal_replayed == 32
        assert [k for k in range(40) if recovered.get(k) != k] == []
        # The next verified checkpoint keeps the WAL of the memtable, the
        # only copy of the 32 replayed writes; the flush after it frees it.
        recovered.checkpoint()
        assert sorted(a for a in dev.addresses() if a[0] == "wal") == [
            ("wal", seq) for seq in range(8, 40)]
        recovered.flush()
        assert not [a for a in dev.addresses() if a[0] == "wal"]

    def test_a_checkpoint_keeps_the_wal_of_the_memtable(self):
        dev = BlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=100), device=dev)
        for key in range(10):
            tree.put(key, key)
        tree.checkpoint()
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.wal_replayed == 10
        assert [k for k in range(10) if recovered.get(k) != k] == []

    @pytest.mark.parametrize("fault", ["torn", "flipped"])
    def test_an_unreplayable_wal_frame_leaves_with_the_next_checkpoint(self, fault):
        # Recovery cannot replay ("wal", 3), but the floor of the next
        # verified checkpoint passes it, so that checkpoint frees it.  A
        # checkpoint's floor stops at the memtable's first frame, so it is
        # the flush of the replayed frames around it that passes it.
        inj = FaultInjector(seed=0)
        dev = FaultyBlockDevice(injector=inj)
        tree = LSMTree(LSMConfig(memtable_entries=8), device=dev)
        for key in range(5):
            if fault == "torn":
                inj.torn_write = {"wal": 1.0} if key == 3 else 0.0
            tree.put(key, key)
        inj.torn_write = 0.0
        if fault == "flipped":
            dev.ruin(("wal", 3))
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.wal_lost == 1
        for key in range(100, 130):
            recovered.put(key, key)
        recovered.flush()
        floor = DurableManifest(dev, "manifest", version_key="epoch").load()["wal_floor"]
        assert floor > 3
        assert [a for a in dev.addresses() if a[0] == "wal" and a[1] < floor] == []

    def test_a_checkpoint_refused_by_an_open_breaker_does_not_raise(self):
        device = BreakerDevice(BlockDevice(), SimulatedClock())
        tree = LSMTree(LSMConfig(memtable_entries=4), device=device)
        for key in range(4):
            tree.put(key, key)  # flush: checkpoint epoch 1 into slot 1
        breaker = device.breaker_for(("manifest", 0))
        with use_registry():
            while breaker.state is not BreakerState.OPEN:
                breaker.record_failure()
            for key in range(4, 8):
                tree.put(key, key)  # the fourth flushes into slot 0
        # Unverified: the epoch, the retired runs and the WAL all stay.
        assert tree._manifest.version == 1
        assert device.exists(("page", 0, 0))
        assert sorted(a for a in device.addresses() if a[0] == "wal") == [
            ("wal", seq) for seq in range(4, 8)]
        device.reset()
        recovered = LSMTree.recover(device)
        assert [k for k in range(8) if recovered.get(k) != k] == []

    def test_blocks_behind_an_open_breaker_are_lost_not_raised(self):
        # Run 0's page and run 1's filter block sit behind open
        # breakers: the run is lost, the filter is rebuilt.
        device = BreakerDevice(BlockDevice(), SimulatedClock())
        tree = LSMTree(LSMConfig(memtable_entries=4, compaction="tiering"), device=device)
        for key in range(8):
            tree.put(key, key)
        with use_registry():
            for address in (("page", 0, 0), ("filter", 1)):
                breaker = device.breaker_for(address)
                while breaker.state is not BreakerState.OPEN:
                    breaker.record_failure()
            recovered = LSMTree.recover(device)
        report = recovered.recovery_report
        assert (report.runs_lost, report.runs_recovered, report.filters_rebuilt) == (1, 1, 1)
        assert [k for k in range(8) if recovered.get(k) != k] == [0, 1, 2, 3]

    def test_recovery_retries_transient_reads(self):
        inj = FaultInjector(seed=11, transient_read=0.3)
        dev = FaultyBlockDevice(injector=inj)
        tree = LSMTree(LSMConfig(memtable_entries=16, retry_attempts=8), device=dev)
        rng, acked = random.Random(5), {}
        _insert(tree, rng, 300, acked)
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.runs_lost == 0
        for key, value in list(acked.items())[::7]:
            assert recovered.get(key) == value
        assert inj.stats.transient_reads > 0


class TestRunPages:
    """A run's pages are its one durable form, at any page size."""

    def _tree(self, page_entries, device=None):
        config = LSMConfig(memtable_entries=16, compaction="tiering", size_ratio=4,
                           page_entries=page_entries)
        tree = LSMTree(config, device=FaultyBlockDevice() if device is None else device)
        rng, acked = random.Random(page_entries), {}
        _insert(tree, rng, 300, acked)
        return tree, acked

    @pytest.mark.parametrize("page_entries", [0, 16])
    def test_the_device_holds_pages_and_no_run_block(self, page_entries):
        tree, _acked = self._tree(page_entries)
        pages = [a for a in tree.device.addresses() if a[0] == "page"]
        assert {a[0] for a in tree.device.addresses()} == {"page", "filter", "manifest", "wal"}
        assert len(pages) == sum(run.n_pages for level in tree._levels for run in level)
        if page_entries:
            assert len(pages) > tree.n_runs

    @pytest.mark.parametrize("manifest_lost", [False, True])
    def test_recovery_from_pages_alone_restores_every_key(self, manifest_lost):
        tree, acked = self._tree(16)
        if manifest_lost:
            for slot in (0, 1):
                tree.device.delete(("manifest", slot))
        recovered = LSMTree.recover(tree.device, tree.config)
        report = recovered.recovery_report
        assert report.manifest_fallback is manifest_lost
        assert (report.runs_lost, report.wal_lost) == (0, 0)
        assert report.runs_recovered == tree.n_runs
        assert [k for k, v in acked.items() if recovered.get(k) != v] == []
        assert recovered.items() == tree.items()

    @pytest.mark.parametrize("written, reopened", [(0, 16), (16, 0)])
    def test_a_change_of_page_size_reads_every_key(self, written, reopened):
        tree, acked = self._tree(written)
        config = LSMConfig(**{**tree.config.to_manifest(), "page_entries": reopened})
        recovered = LSMTree.recover(tree.device, config)
        assert recovered.recovery_report.runs_lost == 0
        assert [k for k, v in acked.items() if recovered.get(k) != v] == []
        # Old runs keep the layout they were written with, new runs take
        # the new one, and a merge of both reads and writes each right.
        rng = random.Random(1)
        _insert(recovered, rng, 200, acked)
        assert {run.page_entries for level in recovered._levels for run in level} <= {
            written, reopened}
        assert [k for k, v in acked.items() if recovered.get(k) != v] == []
        assert recovered.scrub(repair=False).corrupt == []
        again = LSMTree.recover(tree.device, config)
        assert [k for k, v in acked.items() if again.get(k) != v] == []

    @pytest.mark.parametrize("page_entries", [0, 16])
    @pytest.mark.parametrize("fault", ["lost", "torn"])
    def test_a_page_lost_before_recovery_loses_its_run(self, page_entries, fault):
        tree, acked = self._tree(page_entries)
        victim = max(a for a in tree.device.addresses() if a[0] == "page")
        if fault == "lost":
            tree.device.delete(victim)
        else:
            tree.device.ruin(victim)
        recovered = LSMTree.recover(tree.device, tree.config)
        report = recovered.recovery_report
        assert report.runs_lost == 1 and report.runs_recovered == tree.n_runs - 1
        assert recovered.stats.integrity_faults >= 1
        lost_run = next(run for level in tree._levels for run in level
                        if run.run_id == victim[1])
        assert recovered.n_entries_on_disk == tree.n_entries_on_disk - len(lost_run)


    def test_a_page_dropped_at_flush_answers_maybe_live(self):
        # The eighth put flushes; its page never lands and the flush's
        # checkpoint frees the WAL.  No block is as unreadable as one
        # that fails now: MAYBE, never ABSENT, and no KeyError.
        injector = FaultInjector(seed=0)
        tree = LSMTree(LSMConfig(memtable_entries=8), device=FaultyBlockDevice(injector=injector))
        for key in range(7):
            tree.put(key, f"v{key}")
        injector.lost_write = {"page": 1.0}
        tree.put(7, "v7")
        injector.lost_write = 0.0
        for key in range(8):
            result = tree.lookup(key, degrade_on_error=True)
            assert (result.state, result.reason) == (Answer.MAYBE, "unavailable")
        with pytest.raises(KeyError):
            tree.lookup(3)


class TestWalGaps:
    """A WAL frame the device dropped between two that landed is lost."""

    def test_a_lost_middle_frame_counts_as_lost(self):
        inj = FaultInjector(seed=0)
        dev = FaultyBlockDevice(injector=inj)
        tree = LSMTree(LSMConfig(memtable_entries=1000), device=dev)
        for key in range(10):
            inj.lost_write = {"wal": 1.0} if key == 4 else 0.0
            tree.put(key, key)
        recovered = LSMTree.recover(dev)
        report = recovered.recovery_report
        assert (report.wal_lost, report.wal_replayed) == (1, 9)
        assert recovered.stats.integrity_faults >= 1

    def test_a_gap_above_the_floor_counts_after_a_flush(self):
        inj = FaultInjector(seed=0)
        dev = FaultyBlockDevice(injector=inj)
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        for key in range(24):
            inj.lost_write = {"wal": 1.0} if key in (16, 20) else 0.0
            tree.put(key, key)
        report = LSMTree.recover(dev).recovery_report
        assert (report.wal_lost, report.wal_replayed) == (2, 6)

    @pytest.mark.parametrize("manifest", ["kept", "lost"])
    def test_a_scrubbed_then_recovered_tree_loses_nothing(self, manifest):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        for key in range(40):
            tree.put(key, key)
        dev.ruin(("wal", 35))
        tree.scrub(repair=True)
        if manifest == "lost":
            for slot in (0, 1):
                dev.delete(("manifest", slot))
        recovered = LSMTree.recover(dev, tree.config)
        report = recovered.recovery_report
        assert (report.runs_lost, report.wal_lost, report.wal_replayed) == (0, 0, 8)
        assert [k for k in range(40) if recovered.get(k) != k] == []

    def test_a_lost_manifest_counts_no_gap_below_the_oldest_frame(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        for key in range(40):
            tree.put(key, key)
        for slot in (0, 1):
            dev.delete(("manifest", slot))
        report = LSMTree.recover(dev, tree.config).recovery_report
        assert (report.wal_lost, report.wal_replayed) == (0, 8)


class TestScrub:
    def test_clean_tree_scrubs_clean(self):
        tree = LSMTree(LSMConfig(memtable_entries=16))
        rng, acked = random.Random(6), {}
        _insert(tree, rng, 200, acked)
        report = tree.scrub()
        assert report.blocks_checked > 0
        assert report.corrupt == [] and report.repaired == []

    def test_scrub_reports_and_repairs_filter_corruption(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        rng, acked = random.Random(7), {}
        _insert(tree, rng, 300, acked)
        victims = [a for a in dev.addresses() if a[0] == "filter"][:3]
        for victim in victims:
            dev.ruin(victim)
        report = tree.scrub(repair=False)
        assert set(victims) <= set(report.corrupt)
        assert report.repaired == []
        report = tree.scrub(repair=True)
        assert set(victims) <= set(report.repaired)
        assert dev.corrupted_addresses() == frozenset()
        assert tree.scrub(repair=False).corrupt == []

    def test_scrub_repairs_run_data(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        rng, acked = random.Random(8), {}
        _insert(tree, rng, 200, acked)
        victim = next(a for a in dev.addresses() if a[0] == "page")
        dev.ruin(victim)
        report = tree.scrub(repair=True)
        assert victim in report.corrupt and victim in report.repaired
        recovered = LSMTree.recover(dev)
        assert recovered.recovery_report.runs_lost == 0
        for key, value in acked.items():
            assert recovered.get(key) == value

    def test_scrub_repairs_manifest(self):
        dev = FaultyBlockDevice()
        tree = LSMTree(LSMConfig(memtable_entries=16), device=dev)
        rng, acked = random.Random(9), {}
        _insert(tree, rng, 200, acked)
        victim = next(a for a in dev.addresses() if a[0] == "manifest")
        dev.ruin(victim)
        report = tree.scrub(repair=True)
        assert victim in report.corrupt
        recovered = LSMTree.recover(dev)
        assert not recovered.recovery_report.manifest_fallback


class TestChaos:
    """The acceptance gate: 100 seeded crash/corrupt/recover cycles, with
    one page per run and with eight-entry pages."""

    def test_chaos_cycles_lose_nothing_and_scrub_finds_all(self):
        self._chaos(page_entries=0)

    def test_paged_chaos_cycles_lose_nothing_and_scrub_finds_all(self):
        self._chaos(page_entries=8)

    def _chaos(self, page_entries):
        injector = FaultInjector(
            seed=1234,
            bit_flip={"filter": 1e-3},
            transient_read=1e-2,
        )
        device = FaultyBlockDevice(injector=injector)
        config = LSMConfig(
            memtable_entries=32, compaction="tiering", size_ratio=4,
            retry_attempts=6, page_entries=page_entries,
        )
        rng = random.Random(99)
        acked: dict[int, int] = {}
        deleted: set[int] = set()
        tree = LSMTree(config, device=device)
        for cycle in range(100):
            _insert(tree, rng, 40, acked)
            acked_keys = set(acked) - deleted
            if cycle % 10 == 5:
                for key in rng.sample(sorted(acked_keys), 3):
                    tree.delete(key)
                    deleted.add(key)
            # Inject targeted corruption into a live filter blob (bup's
            # --ruin) on top of the background bit-flip schedule.
            if cycle % 3 == 0:
                filters = [a for a in device.addresses() if a[0] == "filter"]
                if filters:
                    device.ruin(rng.choice(filters))
            # Crash: the in-memory tree is abandoned; only the device
            # survives.  Recover and verify.
            tree = LSMTree.recover(device, config)
            report = tree.recovery_report
            assert report.runs_lost == 0, f"cycle {cycle}: lost runs"
            assert report.wal_lost == 0, f"cycle {cycle}: lost WAL records"
            # Every corrupted live filter blob must be found by scrub.
            corrupted = {
                a for a in device.corrupted_addresses() if a[0] == "filter"
            }
            scrub = tree.scrub(repair=False)
            assert corrupted <= set(scrub.corrupt), f"cycle {cycle}: scrub missed"
            tree.scrub(repair=True)
            # Spot-check acknowledged keys every cycle; full check at end.
            live = sorted(set(acked) - deleted)
            sample = rng.sample(live, min(50, len(live)))
            for key in sample:
                assert tree.get(key) == acked[key], f"cycle {cycle}: lost {key}"
            for key in deleted:
                assert tree.get(key, default="gone") == "gone"
        for key, value in acked.items():
            if key not in deleted:
                assert tree.get(key) == value
        assert injector.stats.bit_flips > 0
        assert injector.stats.transient_reads > 0
