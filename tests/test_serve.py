"""Serving-layer tests: deadlines, breakers, admission, chaos storms.

The contract under test (docs/robustness.md): every degraded path — shed,
timed-out, run-unreachable — answers the conservative MAYBE, so the
one-sided-error guarantee (no false negatives) survives any storm; the
circuit breaker's state machine only ever takes legal transitions; and
shedding is priority-ordered and bounded.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.apps.lsm import LSMConfig, LSMTree
from repro.adaptive.dictionary import FilteredDictionary
from repro.common.clock import (
    Answer,
    Deadline,
    DeadlineExceeded,
    LookupResult,
    SimulatedClock,
)
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    FaultyBlockDevice,
    LatencyInjector,
    RetryPolicy,
    TransientIOError,
)
from repro.filters.bloom import BloomFilter
from repro.obs import use_registry
from repro.serve import (
    CALM_STORM_RECOVERY,
    AdmissionConfig,
    AdmissionController,
    BreakerDevice,
    BreakerState,
    CircuitBreaker,
    Priority,
    ServedFilter,
    ServeOutcome,
    StormPhase,
    build_stack,
    run_storm,
)


class TestClockAndDeadline:
    def test_clock_advances_monotonically(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(1.0) == 1.5  # no-op: already past
        assert clock.advance_to(2.0) == 2.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_deadline_expiry(self):
        clock = SimulatedClock()
        deadline = Deadline.after(clock, 0.5)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.5)
        assert deadline.expired()
        with pytest.raises(ValueError):
            Deadline.after(clock, -1.0)


class TestCircuitBreakerUnit:
    def _breaker(self, **kwargs):
        clock = SimulatedClock()
        defaults = dict(window=8, failure_threshold=0.5, min_samples=4,
                        cooldown=1.0, half_open_probes=2)
        defaults.update(kwargs)
        return CircuitBreaker(clock, **defaults), clock

    def test_trips_at_windowed_failure_rate(self):
        breaker, _clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # below min_samples
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_successes_dilute_the_window(self):
        breaker, _clock = self._breaker()
        for _ in range(6):
            breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        # 3 failures over a window of 8 entries (5 oldest successes kept)
        # is below the 0.5 threshold.
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_open_fast_fails_until_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(0.99)
        assert not breaker.allow()
        clock.advance(0.01)
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_recovers_after_probe_successes(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        # The sick window was cleared: one new failure must not re-trip.
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_and_rearms_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()  # cooldown restarted at the re-open
        clock.advance(1.0)
        assert breaker.allow()

    def test_call_wraps_outcomes(self):
        breaker, clock = self._breaker(min_samples=2, window=2)
        assert breaker.call(lambda: 42) == 42
        with pytest.raises(TransientIOError):
            breaker.call(self._boom)  # [success, failure]: rate 0.5 trips
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: 42)
        clock.advance(1.0)
        assert breaker.call(lambda: 42) == 42  # half-open probe succeeds

    @staticmethod
    def _boom():
        raise TransientIOError("injected")

    def test_rejects_bad_parameters(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, cooldown=-1.0)


class TestBreakerDevice:
    def _device(self):
        clock = SimulatedClock()
        injector = FaultInjector(seed=0)
        faulty = FaultyBlockDevice(injector=injector)
        device = BreakerDevice(faulty, clock, min_samples=2, window=4,
                               cooldown=0.1, half_open_probes=1)
        return device, clock, injector

    def test_one_breaker_per_address_and_isolation(self):
        device, _clock, injector = self._device()
        device.write(("run", 1), b"a")
        device.write(("run", 2), b"b")
        injector.transient_read = {"run": 1.0, "*": 0.0}
        for _ in range(2):
            with pytest.raises(TransientIOError):
                device.read(("run", 1))
        # Only run 1's breaker tripped; run 2 is still served (its read
        # fails transiently here, but through its own closed breaker).
        assert device.breaker_for(("run", 1)).state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            device.read(("run", 1))
        assert device.breaker_for(("run", 2)).state is BreakerState.CLOSED
        injector.transient_read = 0.0
        assert device.read(("run", 2)) == b"b"

    def test_open_breaker_recovers_via_probe(self):
        device, clock, injector = self._device()
        device.write(("run", 1), b"a")
        injector.transient_read = 1.0
        for _ in range(2):
            with pytest.raises(TransientIOError):
                device.read(("run", 1))
        injector.transient_read = 0.0
        with pytest.raises(CircuitOpenError):
            device.read(("run", 1))  # still cooling down
        clock.advance(0.1)
        assert device.read(("run", 1)) == b"a"  # half-open probe closes
        assert device.breaker_for(("run", 1)).state is BreakerState.CLOSED
        assert device.n_transitions(BreakerState.CLOSED) == 1

    def test_writes_pass_through_unguarded(self):
        device, _clock, injector = self._device()
        injector.transient_read = 1.0
        device.write(("run", 1), b"a")  # never breaker-guarded
        assert device.exists(("run", 1))
        assert len(device) == 1


LEGAL_TRANSITIONS = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
}


class BreakerMachine(RuleBasedStateMachine):
    """Random success/failure/clock interleavings against the breaker's
    documented state machine, including half-open probe races (a failure
    landing mid-probe-round must re-open and re-arm the cooldown)."""

    def __init__(self):
        super().__init__()
        self.clock = SimulatedClock()
        self.breaker = CircuitBreaker(
            self.clock, window=8, failure_threshold=0.5,
            min_samples=3, cooldown=0.5, half_open_probes=2,
        )
        self.last_allow_time: float | None = None

    @rule(dt=st.floats(min_value=0.0, max_value=0.7))
    def advance(self, dt):
        self.clock.advance(dt)

    @rule()
    def request(self):
        allowed = self.breaker.allow()
        if self.breaker.state is BreakerState.OPEN:
            # The one hard liveness/safety pair: open breakers refuse
            # requests, and refusal can only happen inside the cooldown.
            assert not allowed
            assert (self.clock.now() - self.breaker._opened_at
                    < self.breaker.cooldown)
        else:
            assert allowed

    @rule()
    def succeed(self):
        before = self.breaker.state
        self.breaker.record_success()
        if before is BreakerState.OPEN:
            assert self.breaker.state is BreakerState.OPEN

    @rule()
    def fail(self):
        before = self.breaker.state
        self.breaker.record_failure()
        if before is BreakerState.HALF_OPEN:
            assert self.breaker.state is BreakerState.OPEN
        elif self.breaker.state is BreakerState.CLOSED:
            # The trip condition is evaluated on every failure: staying
            # closed means the window is genuinely below the trip point.
            assert (self.breaker.samples() < self.breaker.min_samples
                    or self.breaker.failure_rate()
                    < self.breaker.failure_threshold)

    @precondition(lambda self: self.breaker.state is BreakerState.HALF_OPEN)
    @rule(outcomes=st.lists(st.booleans(), min_size=1, max_size=4))
    def probe_round(self, outcomes):
        """A half-open probe round: successes close only when
        ``half_open_probes`` of them land *consecutively*."""
        streak = 0
        for ok in outcomes:
            if self.breaker.state is not BreakerState.HALF_OPEN:
                break
            if ok:
                self.breaker.record_success()
                streak += 1
                if streak >= self.breaker.half_open_probes:
                    assert self.breaker.state is BreakerState.CLOSED
            else:
                self.breaker.record_failure()
                assert self.breaker.state is BreakerState.OPEN

    @invariant()
    def transitions_are_legal(self):
        for _t, src, dst in self.breaker.transitions:
            assert (src, dst) in LEGAL_TRANSITIONS

    @invariant()
    def transition_times_are_monotone(self):
        times = [t for t, _src, _dst in self.breaker.transitions]
        assert times == sorted(times)

    @invariant()
    def open_breakers_have_an_open_transition(self):
        if self.breaker.state is BreakerState.OPEN:
            assert self.breaker.transitions
            assert self.breaker.transitions[-1][2] is BreakerState.OPEN


TestBreakerStateMachine = BreakerMachine.TestCase
TestBreakerStateMachine.settings = settings(max_examples=40, deadline=None)


def _latency_tree(n_keys=300, *, base=0.001, fault_rate=0.0, seed=0,
                  filter_policy="monkey", compaction="leveling"):
    """An LSM-tree over a faulty+slow device on a simulated clock."""
    clock = SimulatedClock()
    injector = FaultInjector(seed=seed)
    latency = LatencyInjector(seed=seed, base=base)
    latency.slowdown = 0.0
    device = FaultyBlockDevice(injector=injector, latency=latency, clock=clock)
    config = LSMConfig(memtable_entries=32, retry_attempts=2, seed=seed,
                       filter_policy=filter_policy, compaction=compaction)
    tree = LSMTree(config, device=device)
    tree.retry = RetryPolicy(max_attempts=2, jitter="decorrelated",
                             base_backoff=1e-4, max_backoff=1e-3,
                             seed=seed, clock=clock)
    for key in range(n_keys):
        tree.put(key, key * 10)
    latency.slowdown = 1.0
    injector.transient_read = {"page": fault_rate, "filter": fault_rate, "*": 0.0}
    return tree, clock, injector, latency


class TestLSMDeadlines:
    def test_no_deadline_is_unchanged(self):
        tree, _clock, _inj, _lat = _latency_tree()
        assert tree.get(7) == 70
        assert tree.get(10_000, default="missing") == "missing"

    def test_expired_deadline_degrades_to_maybe(self):
        tree, clock, _inj, _lat = _latency_tree()
        dead = Deadline.after(clock, 0.0)
        result = tree.lookup(5, deadline=dead)
        assert result.state is Answer.MAYBE
        assert not result.complete and result.reason == "deadline"
        with pytest.raises(DeadlineExceeded):
            tree.get(5, deadline=dead)

    def test_expired_on_entry_skips_the_scan(self):
        # Even a memtable hit carries no value once the budget is gone.
        tree, clock, _inj, _lat = _latency_tree(n_keys=10)  # all in memtable
        result = tree.lookup(3, deadline=Deadline.after(clock, 0.0))
        assert result == LookupResult(Answer.MAYBE, complete=False, reason="deadline")

    def test_memtable_hits_beat_any_deadline(self):
        # Keys still in the memtable resolve without touching the device,
        # so even a nearly-exhausted budget serves them authoritatively.
        tree, clock, _inj, _lat = _latency_tree(n_keys=10)  # all in memtable
        result = tree.lookup(3, deadline=Deadline.after(clock, 1e-12))
        assert result.state is Answer.PRESENT and result.value == 30

    def test_mid_scan_expiry_abandons_remaining_runs(self):
        # With filters off, an absent key probes every run; a budget that
        # covers roughly one device read must cut the scan short.
        tree, clock, _inj, _lat = _latency_tree(filter_policy="none",
                                                compaction="tiering")
        full = tree.lookup(10_000)
        assert full.state is Answer.ABSENT and full.runs_probed >= 2
        result = tree.lookup(10_000, deadline=Deadline.after(clock, 0.0015))
        assert result.state is Answer.MAYBE and result.reason == "deadline"
        assert result.runs_probed < full.runs_probed

    def test_complete_scan_within_budget_is_authoritative(self):
        tree, clock, _inj, _lat = _latency_tree()
        result = tree.lookup(5, deadline=Deadline.after(clock, 10.0))
        assert result.state is Answer.PRESENT
        assert result.complete and result.value == 50

    def test_unreachable_run_degrades_not_raises(self):
        tree, _clock, injector, _lat = _latency_tree()
        injector.transient_read = {"page": 1.0, "*": 0.0}
        target = next(k for k in (5, 6, 7) if k not in tree._memtable)
        with pytest.raises(TransientIOError):
            tree.lookup(target)
        result = tree.lookup(target, degrade_on_error=True)
        assert result.state is Answer.MAYBE
        assert result.reason == "unavailable" and result.runs_skipped >= 1
        injector.transient_read = 0.0
        assert tree.get(target) == target * 10  # device healed: authoritative again

    def test_lookup_many_deadline_keeps_resolved_answers(self):
        # Filters off, so every absent key reads every run: a budget of
        # about one read resolves the memtable keys and the key in the
        # newest run, and leaves the rest MAYBE.
        tree, clock, _inj, _lat = _latency_tree(filter_policy="none",
                                                compaction="tiering")
        newest = max((run for level in tree._levels for run in level),
                     key=lambda run: run.seq)
        in_memtable = sorted(tree._memtable)[:2]
        keys = in_memtable + [newest.keys[0], 10_001, 10_002]
        results = tree.lookup_many(keys, deadline=Deadline.after(clock, 1e-9))
        for key, result in zip(keys[:3], results):
            assert result.state is Answer.PRESENT and result.complete
            assert result.value == key * 10
        for result in results[3:]:
            assert result.state is Answer.MAYBE
            assert not result.complete and result.reason == "deadline"
        assert [r.value for r in tree.lookup_many(keys)] == [k * 10 for k in keys[:3]] + [None, None]

    def _retry_into_deadline(self):
        # Every page read fails, and the first backoff (>= 10 ms) alone
        # outlasts a 5 ms budget.
        tree, clock, injector, _lat = _latency_tree(fault_rate=1.0)
        tree.retry = RetryPolicy(max_attempts=4, jitter="decorrelated",
                                 base_backoff=0.01, max_backoff=0.05, clock=clock)
        return tree, clock, injector

    def test_retry_that_would_reach_the_deadline_answers_maybe(self):
        tree, clock, _inj = self._retry_into_deadline()
        target = next(k for k in range(5, 50) if k not in tree._memtable)
        deadline = Deadline.after(clock, 0.005)
        result = tree.lookup(target, deadline=deadline)
        assert result.state is Answer.MAYBE
        assert not result.complete and result.reason == "deadline"
        assert clock.now() < deadline.expires_at

    def test_retry_deadline_on_a_filter_block_read(self):
        tree, clock, injector = self._retry_into_deadline()
        tree.config.charge_filter_reads = True
        injector.transient_read = {"filter": 1.0, "*": 0.0}
        target = next(k for k in range(5, 50) if k not in tree._memtable)
        deadline = Deadline.after(clock, 0.005)
        result = tree.lookup(target, deadline=deadline)
        assert result.state is Answer.MAYBE and result.reason == "deadline"
        assert clock.now() < deadline.expires_at

    def test_retry_deadline_keeps_resolved_answers_in_a_batch(self):
        tree, clock, _inj = self._retry_into_deadline()
        in_memtable = sorted(tree._memtable)[0]
        on_disk = [k for k in range(5, 50) if k not in tree._memtable][:2]
        deadline = Deadline.after(clock, 0.005)
        results = tree.lookup_many([in_memtable, *on_disk], deadline=deadline)
        assert results[0].state is Answer.PRESENT and results[0].complete
        for result in results[1:]:
            assert result.state is Answer.MAYBE and result.reason == "deadline"
        assert clock.now() < deadline.expires_at


class TestDictionaryDeadlines:
    def _dictionary(self, seed=0):
        clock = SimulatedClock()
        injector = FaultInjector(seed=seed)
        latency = LatencyInjector(seed=seed, base=0.001)
        device = FaultyBlockDevice(injector=injector, latency=latency, clock=clock)
        d = FilteredDictionary(BloomFilter(512, 0.01, seed=seed), device=device)
        for key in range(100):
            d.put(key, f"v{key}")
        return d, clock, injector

    def test_expired_deadline_is_maybe(self):
        d, clock, _inj = self._dictionary()
        result = d.lookup(5, deadline=Deadline.after(clock, 0.0))
        assert result.state is Answer.MAYBE and result.reason == "deadline"
        with pytest.raises(DeadlineExceeded):
            d.get(5, deadline=Deadline.after(clock, 0.0))

    def test_filter_negative_is_authoritative_even_late(self):
        # A filter negative costs no device read — it resolves instantly
        # and stays an authoritative ABSENT under any live deadline.
        d, clock, _inj = self._dictionary()
        absent = next(k for k in range(10_000, 11_000)
                      if not d.filter.may_contain(k))
        result = d.lookup(absent, deadline=Deadline.after(clock, 1e-9))
        assert result.state is Answer.ABSENT and result.complete

    def test_expired_on_entry_consults_nothing(self):
        d, clock, _inj = self._dictionary()
        absent = next(k for k in range(10_000, 11_000)
                      if not d.filter.may_contain(k))
        with use_registry() as registry:
            result = d.lookup(absent, deadline=Deadline.after(clock, 0.0))
        assert result.state is Answer.MAYBE and result.reason == "deadline"
        # No cache or filter verdict was counted, so nothing is registered.
        assert "repro_dict_queries_total" not in registry.snapshot()

    def test_late_confirmed_absence_is_not_cached(self):
        from repro.cache import NegativeLookupCache
        from repro.common.storage import BlockDevice

        class SlowLookups(BlockDevice):
            """Every existence check takes 10 ms of simulated time."""

            def exists(self, address):
                clock.advance(0.01)
                return super().exists(address)

        clock = SimulatedClock()
        cache = NegativeLookupCache(64)
        d = FilteredDictionary(BloomFilter(64, 0.2, seed=0), device=SlowLookups(),
                               negative_cache=cache)
        for key in range(100):
            d.put(key, f"v{key}")
        fp = next(k for k in range(1_000, 100_000) if d.filter.may_contain(k))
        [late] = d.lookup_many([fp], deadline=Deadline.after(clock, 1e-3))
        assert late.state is Answer.ABSENT and late.complete
        assert d.lookup(fp, deadline=Deadline.after(clock, 1e-3)).reason == "deadline"
        assert not cache.known_absent(fp, d.mutation_epoch)
        assert d.lookup(fp).state is Answer.ABSENT  # no deadline: cached
        assert cache.known_absent(fp, d.mutation_epoch)

    def test_late_read_reports_maybe(self):
        d, clock, _inj = self._dictionary()
        # Budget smaller than one device read: the read lands but late.
        result = d.lookup(5, deadline=Deadline.after(clock, 1e-5))
        assert result.state is Answer.MAYBE and result.reason == "deadline"
        assert not result.complete

    def test_unreachable_device_degrades(self):
        d, _clock, injector = self._dictionary()
        injector.transient_read = 1.0
        with pytest.raises(TransientIOError):
            d.lookup(5)
        result = d.lookup(5, degrade_on_error=True)
        assert result.state is Answer.MAYBE and result.reason == "unavailable"

    def test_lookup_many_deadline_keeps_resolved_answers(self):
        d, clock, _inj = self._dictionary()
        absent = next(k for k in range(10_000, 11_000)
                      if not d.filter.may_contain(k))
        # About 1 ms per read: the first read fits the budget, the second
        # starts in it and lands late, and no later read may start.
        results = d.lookup_many([1, 2, 3, absent, 4],
                                deadline=Deadline.after(clock, 1.5e-3))
        assert [r.value for r in results[:2]] == ["v1", "v2"]
        assert all(r.state is Answer.PRESENT and r.complete for r in results[:2])
        for r in (results[2], results[4]):
            assert r.state is Answer.MAYBE
            assert not r.complete and r.reason == "deadline"
        # A filter negative needs no read, so it stays authoritative.
        assert results[3].state is Answer.ABSENT and results[3].complete


class TestAdmission:
    def test_fresh_requests_admitted(self):
        clock = SimulatedClock()
        ctrl = AdmissionController(clock)
        decision = ctrl.admit(clock.now(), Priority.NORMAL)
        assert decision.admitted and decision.queue_delay == 0.0

    def test_sheds_low_priority_first(self):
        clock = SimulatedClock()
        ctrl = AdmissionController(clock)
        arrival = clock.now()
        clock.advance(0.05)  # between LOW (0.030) and NORMAL (0.080) budgets
        assert not ctrl.admit(arrival, Priority.LOW).admitted
        assert ctrl.admit(arrival, Priority.NORMAL).admitted
        assert ctrl.admit(arrival, Priority.HIGH).admitted
        clock.advance(0.10)  # 0.15 total: only HIGH (0.200) survives
        assert not ctrl.admit(arrival, Priority.NORMAL).admitted
        assert ctrl.admit(arrival, Priority.HIGH).admitted

    def test_backlog_bound_sheds_even_high(self):
        clock = SimulatedClock()
        ctrl = AdmissionController(
            clock, AdmissionConfig(queue_capacity=10, initial_service=0.001,
                                   delay_budgets={Priority.HIGH: 10.0,
                                                  Priority.NORMAL: 10.0,
                                                  Priority.LOW: 10.0})
        )
        arrival = clock.now()
        clock.advance(0.05)  # backlog estimate: 0.05 / 0.001 = 50 > 10
        decision = ctrl.admit(arrival, Priority.HIGH)
        assert not decision.admitted and decision.reason == "queue_full"

    def test_ewma_tracks_service_time(self):
        clock = SimulatedClock()
        ctrl = AdmissionController(clock)
        for _ in range(200):
            ctrl.record_service(0.05)
        assert ctrl.service_ewma == pytest.approx(0.05, rel=1e-3)

    def test_shed_rate_accounting(self):
        clock = SimulatedClock()
        ctrl = AdmissionController(clock)
        arrival = clock.now()
        assert ctrl.admit(arrival, Priority.LOW).admitted
        clock.advance(1.0)
        assert not ctrl.admit(arrival, Priority.LOW).admitted
        assert ctrl.stats.shed_rate() == pytest.approx(0.5)


class TestServedFilter:
    def _served(self, **kwargs):
        with use_registry():
            return build_stack(seed=3, n_keys=400, **kwargs)

    def test_query_unpacks_to_answer_and_outcome(self):
        served, *_rest = self._served()
        answer, outcome = served.query(7)
        assert answer is Answer.PRESENT and outcome is ServeOutcome.SERVED

    def test_absent_key_served_absent(self):
        served, *_rest = self._served()
        response = served.query(999_999)
        assert response.answer is Answer.ABSENT
        assert response.outcome is ServeOutcome.SERVED

    def test_expired_budget_times_out_with_maybe(self):
        served, _tree, _device, _inj, _lat, clock = self._served()
        # Queued 0.1 s: within HIGH's admission budget but past the
        # request's own 1 ms deadline — admitted, then timed out.
        response = served.serve(7, deadline=0.001, priority=Priority.HIGH,
                                arrival=clock.now() - 0.1)
        assert response.outcome is ServeOutcome.TIMED_OUT
        assert response.answer is Answer.MAYBE
        assert response.runs_probed == 0  # no work wasted on a dead request

    def test_shed_request_answers_maybe(self):
        served, _tree, _device, _inj, _lat, clock = self._served()
        response = served.serve(
            7, priority=Priority.LOW, arrival=clock.now() - 0.05
        )
        assert response.outcome is ServeOutcome.SHED
        assert response.answer is Answer.MAYBE

    def test_storm_degrades_present_key_to_maybe_not_absent(self):
        served, _tree, _device, injector, _lat, _clock = self._served()
        injector.transient_read = {"page": 1.0, "filter": 1.0, "*": 0.0}
        for key in range(200, 240):
            response = served.query(key, deadline=10.0)
            assert response.answer in (Answer.PRESENT, Answer.MAYBE)
            if response.answer is Answer.MAYBE:
                assert response.outcome in (ServeOutcome.DEGRADED,
                                            ServeOutcome.TIMED_OUT)

    def test_rejects_invalid_construction(self):
        clock = SimulatedClock()
        with pytest.raises(TypeError):
            ServedFilter(object(), clock)

    def test_registry_swap_between_requests_meters_into_the_new_one(self):
        # The facade, admission and retries bind their metric handles
        # once per registry; each request must land in the registry that
        # is the default while it runs, never in a stale one.
        served, _tree, _device, _inj, _lat, clock = self._served()
        registries = []
        for key in (7, 8):
            with use_registry() as registry:
                served.query(key)
                served.serve(key, priority=Priority.LOW, arrival=clock.now() - 0.05)
            registries.append(registry)
        for registry in registries:
            requests = registry.get("repro_serve_requests_total")
            assert requests.labels(outcome="served", priority="normal").value == 1
            assert requests.labels(outcome="shed", priority="low").value == 1
            latency = registry.get("repro_serve_latency_seconds")
            assert latency.labels(outcome="served").count == 1
            assert registry.get("repro_serve_queue_delay_seconds").count == 2
            shed = registry.get("repro_serve_shed_total")
            assert shed.labels(priority="low", reason="queue_delay").value == 1
            attempts = registry.get("repro_retry_attempts_total")
            assert attempts.labels(outcome="ok").value >= 1


CHAOS_SEEDS = [int(os.environ.get("REPRO_CHAOS_SEED", "0")) + i for i in range(3)]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosStorms:
    """Seeded fault+latency storms through the full serving stack."""

    def _run(self, seed):
        with use_registry():
            served, *_rest = build_stack(seed=seed, n_keys=1_000)
            report = run_storm(served, CALM_STORM_RECOVERY,
                               seed=seed, n_keys=1_000)
        return served, report

    def test_never_a_false_negative(self, seed):
        _served, report = self._run(seed)
        assert report.false_negatives == 0

    def test_breaker_trips_and_recovers(self, seed):
        served, report = self._run(seed)
        assert report.breaker_opens >= 1
        assert report.breaker_closes >= 1
        # By the end of recovery no breaker is still refusing traffic
        # outright (half-open, still probing, is acceptable).
        for breaker in served.breaker_device.breakers.values():
            assert breaker.state is not BreakerState.OPEN or breaker.allow()

    def test_shed_rate_bounded_and_storm_scoped(self, seed):
        _served, report = self._run(seed)
        calm, storm, recovery = report.phases
        assert calm.outcomes[ServeOutcome.SHED] == 0
        assert storm.rate(ServeOutcome.SHED) < 0.8
        assert recovery.rate(ServeOutcome.SHED) < 0.05

    def test_served_p99_within_deadline(self, seed):
        served, report = self._run(seed)
        for phase in report.phases:
            if phase.latencies:
                assert phase.latency_quantile(0.99) <= served.default_budget

    def test_calm_and_recovery_mostly_served(self, seed):
        _served, report = self._run(seed)
        calm, _storm, recovery = report.phases
        assert calm.rate(ServeOutcome.SERVED) == 1.0
        assert recovery.rate(ServeOutcome.SERVED) > 0.9

    def test_storm_is_reproducible(self, seed):
        _served1, report1 = self._run(seed)
        _served2, report2 = self._run(seed)
        assert [p.outcomes for p in report1.phases] == [
            p.outcomes for p in report2.phases
        ]
        assert report1.breaker_opens == report2.breaker_opens


class TestStormRetryBackoff:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retries_back_off_from_the_base_delay(self, seed):
        # Each read's retries start from the 0.5 ms base delay, so the
        # storm's mean backoff stays near it rather than escalating
        # towards the 10 ms cap across unrelated reads.
        with use_registry():
            served, tree, *_rest = build_stack(seed=seed, n_keys=2_000)
            run_storm(served, CALM_STORM_RECOVERY, seed=seed, n_keys=2_000)
        stats = tree.retry.stats
        assert stats.retries > 0
        assert stats.backoff_seconds / stats.retries <= 4 * tree.retry.base_backoff


class TestStormPhaseValidation:
    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            StormPhase("bad", -1)
        with pytest.raises(ValueError):
            StormPhase("bad", 1, mean_interarrival=0.0)
        with pytest.raises(ValueError):
            StormPhase("bad", 1, transient_read=1.5)
