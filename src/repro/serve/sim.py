"""Seeded chaos-under-load storms: the one request loop of every topology.

The serving layer's claims — no false negatives, breakers trip and
recover, shedding stays bounded, tail latency respects deadlines — are
statements about behaviour *under storms*, so this module provides the
storm: :func:`build_stack` assembles the full serving pipeline
(simulated clock → fault + latency injectors → faulty device → circuit
breakers → LSM-tree → admission → :class:`ServedFilter`), and
:class:`StormDriver` drives an open-loop Poisson workload through a
schedule of :class:`StormPhase` s, flipping fault rates and latency
multipliers between phases the way a real incident does.  The driver's
loop is the only request loop: the single-tree storm
(:func:`run_storm`), the sharded, the replicated and the multi-tenant
storms all run it, each adding only its per-request schedule
(``tick``), its crash recovery and its drain step.

Everything is seeded: the same ``(seed, phases)`` pair replays the same
faults, the same latency spikes, the same arrivals, and therefore the
same outcomes — chaos tests assert exact invariants, not luck.  The
report checks the one invariant that must *never* bend: a key that was
loaded is never answered ABSENT, no matter what broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.lsm import LSMConfig, LSMTree
from repro.cache import BlockCache, CachedDevice, NegativeLookupCache
from repro.common.clock import Answer
from repro.common.faults import CircuitOpenError, SimulatedCrash, TransientIOError
from repro.serve.admission import Priority
from repro.serve.breaker import BreakerState
from repro.serve.served import ServedFilter, ServeOutcome
from repro.serve.stack import StackParts, retry_policy


@dataclass
class StormPhase:
    """One segment of a storm schedule.

    ``transient_read`` is the per-read fault probability applied to the
    storm's data reads (:data:`STORM_FAULT_CLASSES`) for the phase;
    ``slowdown`` multiplies the latency injector's service times (a
    slow-disk plateau); ``spike_prob`` overrides the injector's
    tail-spike probability.
    """

    name: str
    n_requests: int
    mean_interarrival: float = 0.002
    transient_read: float = 0.0
    slowdown: float = 1.0
    spike_prob: float = 0.0

    def __post_init__(self):
        if self.n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 <= self.transient_read <= 1.0:
            raise ValueError("transient_read must be a probability")


@dataclass
class PhaseReport:
    """Outcome tallies for one phase."""

    name: str
    outcomes: dict[ServeOutcome, int] = field(
        default_factory=lambda: {o: 0 for o in ServeOutcome}
    )
    latencies: list[float] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return sum(self.outcomes.values())

    def rate(self, outcome: ServeOutcome) -> float:
        n = self.n_requests
        return self.outcomes[outcome] / n if n else 0.0

    def latency_quantile(self, q: float) -> float:
        """Empirical *q*-quantile of served-request latency."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


@dataclass
class StormReport:
    """Whole-storm result: per-phase tallies plus global invariants."""

    phases: list[PhaseReport] = field(default_factory=list)
    false_negatives: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0

    @property
    def n_requests(self) -> int:
        return sum(p.n_requests for p in self.phases)

    def total(self, outcome: ServeOutcome) -> int:
        return sum(p.outcomes[outcome] for p in self.phases)

    def goodput(self) -> float:
        """Fraction of requests answered authoritatively and on time."""
        n = self.n_requests
        return self.total(ServeOutcome.SERVED) / n if n else 0.0

    def record(self, phase: PhaseReport, response, present: bool) -> None:
        """Tally one response to a key that was (not) *present*."""
        phase.outcomes[response.outcome] += 1
        if response.outcome is ServeOutcome.SERVED:
            phase.latencies.append(response.latency)
        if present and response.answer is Answer.ABSENT:
            self.false_negatives += 1

    def failures(self) -> list[str]:
        """The contract's one check: no stored key answered ABSENT."""
        if self.false_negatives:
            return [f"{self.false_negatives} stored keys were answered ABSENT"]
        return []


# The address classes a phase's transient-read rate hits: the LSM's data
# reads and the tenant fleet's index rows and stores.  Every other class
# (manifests, journals, hints) stays healthy.
STORM_FAULT_CLASSES = ("page", "filter", "tenant_row", "tenant_store")
PRIORITIES = (Priority.HIGH, Priority.NORMAL, Priority.LOW)
PRIORITY_WEIGHTS = (0.2, 0.6, 0.2)


class StormDriver:
    """The request loop of every storm: single tree, shards, replicas, tenants.

    :meth:`run` drives a phase schedule through *served*.  Each phase
    sets its transient-read rate on :data:`STORM_FAULT_CLASSES`, its
    latency slowdown and its spike probability.  Each request then draws
    from *rng* (default ``Random(seed ^ 0x570F)``), in this order: its
    Poisson arrival; whatever :meth:`ticker` draws; whether it targets a
    stored key (half do); the key and the tenant billed for it, from
    ``draw(present)`` (default: a loaded key ``0..n_keys-1`` or one of
    ``n_keys`` absent keys, and no tenant); and its priority.  A false
    negative is a stored key answered ABSENT — the invariant the
    one-sided-error contract says can never happen, shed or storm or not.

    :meth:`ticker` is the work before each request: an optional
    foreground write of a loaded key (``Random(seed ^ 0x3317E)``), then
    the topology's ``tick(n, arrival)``.  The driver holds the live
    backend (``served.backend``) and its background ``worker`` (the
    reshard coordinator or the anti-entropy repairer).  A
    :class:`SimulatedCrash` in a tick or in :meth:`drain` discards all
    in-memory state: breakers reset (process state, not durable state),
    ``recover()`` rebuilds ``(backend, worker)`` from the devices, and
    *report* logs ``crash:<step>`` then ``recovered:<where>``.  Without
    *recover* the crash propagates.
    """

    def __init__(self, served: ServedFilter, *, seed: int = 0, n_keys: int = 0,
                 rng: random.Random | None = None,
                 draw: Callable[[bool], tuple[Any, Any]] | None = None,
                 report: Any = None, worker: Any = None, write_fraction: float = 0.0,
                 tick: Callable[[int, float], None] | None = None,
                 recover: Callable[[], tuple[Any, Any]] | None = None):
        self.served = served
        self.report = report
        self.worker = worker
        self.rng = rng if rng is not None else random.Random(seed ^ 0x570F)
        self.requests = self.writes = 0
        self._n_keys = n_keys
        self._draw = draw if draw is not None else self._loaded_key
        self._write_fraction = write_fraction
        self._wrng = random.Random(seed ^ 0x3317E)
        self._tick = tick
        self._recover = recover

    def run(self, phases) -> StormReport:
        """Drive *phases* through *served*, tallying every answer."""
        served, rng = self.served, self.rng
        # The LSM stacks reach their injectors through the breaker bank;
        # the tenant fleet, which has no device, through its store.
        faults = served.breaker_device if served.breaker_device is not None else served.backend
        report = StormReport()
        arrival = served.clock.now()
        for phase in phases:
            faults.injector.transient_read = dict.fromkeys(
                STORM_FAULT_CLASSES, phase.transient_read
            )
            faults.injector.transient_read["*"] = 0.0
            faults.latency.slowdown = phase.slowdown
            faults.latency.spike_prob = phase.spike_prob
            phase_report = PhaseReport(phase.name)
            report.phases.append(phase_report)
            for _ in range(phase.n_requests):
                arrival += rng.expovariate(1.0 / phase.mean_interarrival)
                self.ticker(arrival)
                present = rng.random() < 0.5
                key, tenant = self._draw(present)
                priority = rng.choices(PRIORITIES, weights=PRIORITY_WEIGHTS)[0]
                response = served.serve(key, priority=priority, arrival=arrival, tenant=tenant)
                report.record(phase_report, response, present)
        if served.breaker_device is not None:
            report.breaker_opens = served.breaker_device.n_transitions(BreakerState.OPEN)
            report.breaker_closes = served.breaker_device.n_transitions(BreakerState.CLOSED)
        served.publish_gauges()
        return report

    def _loaded_key(self, present: bool) -> tuple[int, None]:
        n_keys = self._n_keys
        key = self.rng.randrange(n_keys) if present else n_keys + self.rng.randrange(n_keys)
        return key, None

    def ticker(self, arrival: float) -> None:
        """The work before each request: a foreground write, then the tick."""
        self.requests += 1
        if self._write_fraction and self._wrng.random() < self._write_fraction:
            key = self._wrng.randrange(self._n_keys)
            self.writes += 1
            try:
                self.served.backend.put(key, f"value-{key}-u{self.writes}")
            except (TransientIOError, CircuitOpenError):
                pass  # an update lost to a storm; the key stays present
        if self._tick is None:
            return
        try:
            self._tick(self.requests, arrival)
        except SimulatedCrash as crash:
            self._crashed(crash, crash.step)

    def drain(self, step: Callable[[], bool], limit: int) -> None:
        """Call *step* until it returns True, at most *limit* times."""
        for _ in range(limit):
            try:
                if step():
                    return
            except SimulatedCrash as crash:
                self._crashed(crash, f"drain:{crash.step}")

    def _crashed(self, crash: SimulatedCrash, where: str) -> None:
        if self._recover is None:
            raise crash
        clock, report = self.served.clock, self.report
        report.events.append((clock.now(), f"crash:{crash.step}"))
        report.crashes += 1
        if self.served.breaker_device is not None:
            self.served.breaker_device.reset()
        self.served.backend, self.worker = self._recover()
        report.recoveries += 1
        report.events.append((clock.now(), f"recovered:{where}"))


def build_stack(
    seed: int = 0,
    n_keys: int = 2_000,
    *,
    budget: float = 0.050,
    lsm_config: LSMConfig | None = None,
    cache_mb: float = 0.0,
    cache_policy: str = "lru",
    negative_cache_entries: int = 0,
):
    """Assemble a full serving stack over a freshly-loaded LSM-tree.

    Keys ``0..n_keys`` are ingested *before* any faults or latency are
    enabled, so the storm's false-negative check has clean ground truth.
    Returns ``(served, tree, device, injector, latency, clock)``.

    With ``cache_mb > 0`` a :class:`~repro.cache.BlockCache` is
    interposed *above* the circuit breakers: a cache hit skips simulated
    I/O, injected faults/latency, and breaker traffic entirely (reach it
    as ``tree.device.cache``).  With ``negative_cache_entries > 0`` the
    served facade additionally memoizes authoritative ABSENT answers in
    a :class:`~repro.cache.NegativeLookupCache` (``served.negative_cache``).
    """
    parts = StackParts(seed)
    config = lsm_config if lsm_config is not None else LSMConfig(
        memtable_entries=64, retry_attempts=3, seed=seed
    )
    device_stack: object = parts.breaker_device
    if cache_mb > 0:
        block_cache = BlockCache(
            int(cache_mb * 1024 * 1024), policy=cache_policy, seed=seed
        )
        device_stack = CachedDevice(parts.breaker_device, block_cache)
    tree = LSMTree(config, device=device_stack)
    tree.retry = retry_policy(config.retry_attempts, seed, parts.clock)
    served = parts.serve(
        tree, budget=budget, n_keys=n_keys,
        negative_cache=(
            NegativeLookupCache(negative_cache_entries)
            if negative_cache_entries > 0 else None
        ),
    )
    return served, tree, parts.device, parts.injector, parts.latency, parts.clock


CALM_STORM_RECOVERY = (
    StormPhase("calm", 300, transient_read=0.0),
    StormPhase("storm", 400, transient_read=0.6, slowdown=4.0, spike_prob=0.05),
    StormPhase("recovery", 300, transient_read=0.0),
)


def run_storm(
    served: ServedFilter,
    phases=CALM_STORM_RECOVERY,
    *,
    seed: int = 0,
    n_keys: int = 2_000,
) -> StormReport:
    """The single-tree storm: :class:`StormDriver`'s loop over *served*,
    with no schedule, no foreground writes and no crash recovery."""
    return StormDriver(served, seed=seed, n_keys=n_keys).run(phases)
