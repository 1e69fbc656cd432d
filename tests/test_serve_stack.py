"""Tests for the serving plumbing every storm topology shares.

``repro.serve.stack`` holds the admission gate for background pumps;
``repro.serve.sim`` holds the storm driver, the one crash-recovering
request loop of every storm.  The durable manifest behind the routing
table and the replica node state is tested in tests/test_records.py.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimulatedClock
from repro.common.faults import SimulatedCrash
from repro.obs import use_registry
from repro.serve import AdmissionController, AdmissionDecision
from repro.serve.sim import StormDriver
from repro.serve.stack import BackgroundGate, StackParts


class _FixedAdmission:
    """Admits everything with a fixed queue delay."""

    def __init__(self, queue_delay: float):
        self.queue_delay = queue_delay

    def admit(self, arrival, priority):
        return AdmissionDecision(True, self.queue_delay)


class TestBackgroundGate:
    BUDGET = 0.001

    def _gate(self):
        clock = SimulatedClock()
        return BackgroundGate(AdmissionController(clock), clock, self.BUDGET), clock

    def test_sheds_without_three_budgets_of_runway(self):
        gate, clock = self._gate()
        assert gate.runway() == 3 * self.BUDGET
        assert not gate.admit(clock.now() + 2.9 * self.BUDGET)
        assert gate.admit(clock.now() + 3 * self.BUDGET)

    def test_sheds_when_queue_delay_exceeds_the_lag_cap(self):
        clock = SimulatedClock()
        assert not BackgroundGate(_FixedAdmission(0.002), clock, self.BUDGET).admit()
        assert BackgroundGate(_FixedAdmission(0.001), clock, self.BUDGET).admit()

    def test_budget_override_scales_lag_cap_and_runway(self):
        clock = SimulatedClock()
        gate = BackgroundGate(_FixedAdmission(0.002), clock, self.BUDGET)
        assert gate.admit(budget=0.002)
        assert not gate.admit(clock.now() + 0.005, budget=0.002)

    def test_shed_by_admission_is_shed_by_the_gate(self):
        gate, clock = self._gate()
        # LOW priority's delay budget is 30 ms; this request waited 50.
        assert not gate.admit(clock.now() - 0.050)
        assert gate.admission.stats.shed == 1

    def test_force_and_no_controller_skip_every_check(self):
        gate, clock = self._gate()
        assert gate.admit(clock.now() - 0.050, force=True)
        assert gate.admission.stats.admitted == gate.admission.stats.shed == 0
        assert BackgroundGate(None, clock, self.BUDGET).admit(clock.now())

    def test_runway_check_never_touches_admission(self):
        gate, clock = self._gate()
        assert gate.has_runway(clock.now() + 3 * self.BUDGET)
        assert not gate.has_runway(clock.now() + 2 * self.BUDGET)
        stats = gate.admission.stats
        assert (stats.admitted, stats.shed) == (0, 0)


class _Backend:
    def __init__(self):
        self.puts = []

    def lookup(self, key, **_kwargs):
        raise AssertionError("not served in these tests")

    def put(self, key, value):
        self.puts.append((key, value))


class _Report:
    def __init__(self):
        self.events, self.crashes, self.recoveries = [], 0, 0


class TestStormDriver:
    def _driver(self, tick, write_fraction=0.0, recover=lambda: (_Backend(), "worker")):
        served = StackParts(0, 0.0).serve(_Backend(), budget=0.05)
        report = _Report()
        driver = StormDriver(
            served, seed=0, n_keys=10, report=report, write_fraction=write_fraction,
            tick=tick, recover=recover,
        )
        return driver, served, report

    def test_crash_resets_breakers_and_swaps_the_backend(self):
        def tick(n, _arrival):
            if n == 2:
                raise SimulatedCrash("step")

        driver, served, report = self._driver(tick)
        breaker = served.breaker_device.breaker_for(("page", 0, 0))
        while breaker not in served.breaker_device.open_breakers():
            breaker.record_failure()
        first = served.backend
        with use_registry():
            driver.ticker(0.0)
            driver.ticker(0.0)
        assert served.backend is not first
        assert driver.worker == "worker"
        assert served.breaker_device.open_breakers() == []
        assert [label for _t, label in report.events] == ["crash:step", "recovered:step"]
        assert (report.crashes, report.recoveries) == (1, 1)

    def test_drain_stops_when_done_and_labels_crashes(self):
        calls = []

        def step():
            calls.append(len(calls))
            if len(calls) == 1:
                raise SimulatedCrash("pump")
            return len(calls) == 3

        driver, _served, report = self._driver(lambda n, a: None)
        driver.drain(step, 10)
        assert len(calls) == 3
        assert [label for _t, label in report.events] == [
            "crash:pump", "recovered:drain:pump",
        ]

    def test_foreground_writes_go_to_the_current_backend(self):
        driver, served, _report = self._driver(lambda n, a: None, write_fraction=1.0)
        for _ in range(3):
            driver.ticker(0.0)
        puts = served.backend.puts
        assert [value for _key, value in puts] == [
            f"value-{key}-u{n}" for n, (key, _value) in enumerate(puts, 1)
        ]
        assert len(puts) == 3

    def test_without_recovery_a_crash_propagates(self):
        def tick(_n, _arrival):
            raise SimulatedCrash("churn")

        driver, served, report = self._driver(tick, recover=None)
        first = served.backend
        with pytest.raises(SimulatedCrash):
            driver.ticker(0.0)
        assert served.backend is first
        assert (report.events, report.crashes, report.recoveries) == ([], 0, 0)
