"""Seeded chaos-under-load storms against a served LSM stack.

The serving layer's claims — no false negatives, breakers trip and
recover, shedding stays bounded, tail latency respects deadlines — are
statements about behaviour *under storms*, so this module provides the
storm: :func:`build_stack` assembles the full serving pipeline
(simulated clock → fault + latency injectors → faulty device → circuit
breakers → LSM-tree → admission → :class:`ServedFilter`), and
:func:`run_storm` drives an open-loop Poisson workload through a
schedule of :class:`StormPhase` s, flipping fault rates and latency
multipliers between phases the way a real incident does.

Everything is seeded: the same ``(seed, phases)`` pair replays the same
faults, the same latency spikes, the same arrivals, and therefore the
same outcomes — chaos tests assert exact invariants, not luck.  The
report checks the one invariant that must *never* bend: a key that was
loaded is never answered ABSENT, no matter what broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.lsm import LSMConfig, LSMTree
from repro.cache import BlockCache, CachedDevice, NegativeLookupCache
from repro.common.clock import Answer
from repro.serve.admission import AdmissionConfig, Priority
from repro.serve.breaker import BreakerState
from repro.serve.served import ServedFilter, ServeOutcome
from repro.serve.stack import StackParts, retry_policy


@dataclass
class StormPhase:
    """One segment of a storm schedule.

    ``transient_read`` is the per-read fault probability applied to run
    and filter blobs for the phase; ``slowdown`` multiplies the latency
    injector's service times (a slow-disk plateau); ``spike_prob``
    overrides the injector's tail-spike probability.
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


def storm_arrivals(phases, rng, report, injector, latency, fault_kinds, arrival):
    """Yield ``(phase_report, arrival)`` for every request of *phases*.

    Each phase first sets its transient-read rate on the *fault_kinds*
    address classes (every other class stays healthy), its latency
    slowdown and its spike probability; arrivals are Poisson with the
    phase's mean interarrival, drawn from *rng*.
    """
    for phase in phases:
        injector.transient_read = dict.fromkeys(fault_kinds, phase.transient_read)
        injector.transient_read["*"] = 0.0
        latency.slowdown = phase.slowdown
        latency.spike_prob = phase.spike_prob
        phase_report = PhaseReport(phase.name)
        report.phases.append(phase_report)
        for _ in range(phase.n_requests):
            arrival += rng.expovariate(1.0 / phase.mean_interarrival)
            yield phase_report, arrival


def build_stack(
    seed: int = 0,
    n_keys: int = 2_000,
    *,
    budget: float = 0.050,
    base_latency: float = 0.0008,
    breaker_kwargs: dict | None = None,
    admission_config: AdmissionConfig | None = None,
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
    parts = StackParts(seed, base_latency, breaker_kwargs)
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
        tree, budget=budget, n_keys=n_keys, admission_config=admission_config,
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
    present_fraction: float = 0.5,
    priority_weights: tuple[float, float, float] = (0.2, 0.6, 0.2),
    ticker=None,
) -> StormReport:
    """Drive a phase schedule through *served* and audit the answers.

    Each request targets a loaded key with probability
    *present_fraction*, else a key guaranteed absent.  A false negative
    is a present key answered ABSENT — the invariant the one-sided-error
    contract says can never happen, shed or storm or not.

    *ticker*, if given, is called as ``ticker(arrival)`` before every
    request — the hook background work (e.g. online-resharding pumps,
    :mod:`repro.serve.reshard`) uses to interleave with live traffic.
    It may swap ``served.backend`` (crash recovery does).
    """
    rng = random.Random(seed ^ 0x570F)
    report = StormReport()
    priorities = (Priority.HIGH, Priority.NORMAL, Priority.LOW)
    for phase_report, arrival in storm_arrivals(
        phases, rng, report, served.breaker_device.injector,
        served.breaker_device.latency, ("run", "page", "filter"), served.clock.now(),
    ):
        if ticker is not None:
            ticker(arrival)
        present = rng.random() < present_fraction
        key = rng.randrange(n_keys) if present else n_keys + rng.randrange(n_keys)
        priority = rng.choices(priorities, weights=priority_weights)[0]
        response = served.serve(key, priority=priority, arrival=arrival)
        report.record(phase_report, response, present)
    report.breaker_opens = served.breaker_device.n_transitions(BreakerState.OPEN)
    report.breaker_closes = served.breaker_device.n_transitions(BreakerState.CLOSED)
    served.publish_gauges()
    return report
