"""Admission control and load shedding for the serving layer.

Under overload the worst policy is FIFO-until-death: every request
queues, every request then misses its deadline, and goodput collapses to
zero even though the backend still has capacity.  The admission
controller sheds *early and selectively* instead, keyed on **queue
delay** — the observable that actually predicts a deadline miss — with
per-priority budgets so background traffic is shed long before
interactive traffic feels anything.

The model matches the repo's single simulated clock: requests carry an
*arrival* timestamp, the server works sequentially, so a request's queue
delay is simply ``clock.now() - arrival`` when it reaches the head of
the line.  Backlog length is estimated as queue delay over an EWMA of
observed service times, giving a bounded-queue cap that adapts as fault
storms make service slower.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import Family, Handles, bind_handles


class Priority(enum.IntEnum):
    """Request priority classes (lower value = more important)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket rate limit applied per tenant.

    ``rate`` tokens refill per simulated second up to ``burst``; a
    request with no token is shed with reason ``"tenant_quota"``.  One
    noisy tenant exhausts its own bucket and nothing else — the global
    queue-delay gates still protect the server as a whole.
    """

    rate: float = 100.0
    burst: float = 20.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")


@dataclass
class AdmissionConfig:
    """Shed thresholds, per priority class.

    ``delay_budgets`` are the maximum tolerated queue delays in simulated
    seconds; a request whose class budget is already blown is shed
    rather than served late.  ``queue_capacity`` bounds the *estimated*
    backlog (queue delay / EWMA service time) — the bounded queue.
    ``tenant_quota``, if set, additionally rate-limits each tenant with
    its own token bucket (multi-tenant isolation: repro.serve.tenant).
    """

    delay_budgets: dict[Priority, float] = field(
        default_factory=lambda: {
            Priority.HIGH: 0.200,
            Priority.NORMAL: 0.080,
            Priority.LOW: 0.030,
        }
    )
    queue_capacity: int = 128
    initial_service: float = 0.004
    ewma_alpha: float = 0.2
    tenant_quota: TenantQuota | None = None


@dataclass
class AdmissionDecision:
    admitted: bool
    queue_delay: float
    reason: str | None = None  # "queue_delay" | "queue_full" when shed


@dataclass
class AdmissionStats:
    admitted: int = 0
    shed: int = 0
    shed_by_priority: dict = field(default_factory=dict)
    shed_by_tenant: dict = field(default_factory=dict)

    def shed_rate(self) -> float:
        total = self.admitted + self.shed
        return self.shed / total if total else 0.0


class _AdmissionMetrics(Handles):
    queue_delay = Family("histogram", "repro_serve_queue_delay_seconds",
                         "simulated queueing delay at admission time")
    shed = Family("counter", "repro_serve_shed_total",
                  "requests shed at admission, by priority and reason", ("priority", "reason"))


class AdmissionController:
    """Queue-delay-driven load shedding over a simulated clock."""

    def __init__(self, clock: Any, config: AdmissionConfig | None = None):
        self.clock = clock
        self.config = config if config is not None else AdmissionConfig()
        self.stats = AdmissionStats()
        self.service_ewma = self.config.initial_service
        # tenant -> (tokens, last refill time); lazily created, dropped
        # again by forget_tenant() when the tenant is deprovisioned.
        self._buckets: dict[Any, tuple[float, float]] = {}
        self._obs: _AdmissionMetrics | None = None

    def queue_delay(self, arrival: float) -> float:
        """How long a request that arrived at *arrival* has waited."""
        return max(0.0, self.clock.now() - arrival)

    def backlog_estimate(self, arrival: float) -> float:
        """Estimated queued requests ahead of one arriving at *arrival*."""
        if self.service_ewma <= 0.0:
            return 0.0
        return self.queue_delay(arrival) / self.service_ewma

    def _take_token(self, tenant: Any) -> bool:
        """Refill *tenant*'s bucket to now, then try to spend one token."""
        quota = self.config.tenant_quota
        now = self.clock.now()
        tokens, last = self._buckets.get(tenant, (quota.burst, now))
        tokens = min(quota.burst, tokens + (now - last) * quota.rate)
        if tokens < 1.0:
            self._buckets[tenant] = (tokens, now)
            return False
        self._buckets[tenant] = (tokens - 1.0, now)
        return True

    def forget_tenant(self, tenant: Any) -> None:
        """Drop *tenant*'s bucket state (tenant deprovisioned)."""
        self._buckets.pop(tenant, None)

    def admit(
        self, arrival: float, priority: Priority, *, tenant: Any = None
    ) -> AdmissionDecision:
        delay = self.queue_delay(arrival)
        m = bind_handles(self, _AdmissionMetrics)
        m.queue_delay.observe(delay)
        reason = None
        if delay > self.config.delay_budgets[priority]:
            reason = "queue_delay"
        elif self.backlog_estimate(arrival) > self.config.queue_capacity:
            reason = "queue_full"
        elif (
            tenant is not None
            and self.config.tenant_quota is not None
            and not self._take_token(tenant)
        ):
            reason = "tenant_quota"
        if reason is not None:
            self.stats.shed += 1
            self.stats.shed_by_priority[priority] = (
                self.stats.shed_by_priority.get(priority, 0) + 1
            )
            if reason == "tenant_quota":
                self.stats.shed_by_tenant[tenant] = (
                    self.stats.shed_by_tenant.get(tenant, 0) + 1
                )
            m.child("shed", priority.name.lower(), reason).inc()
            return AdmissionDecision(False, delay, reason)
        self.stats.admitted += 1
        return AdmissionDecision(True, delay)

    def record_service(self, seconds: float) -> None:
        """Feed one observed service time into the EWMA estimate."""
        alpha = self.config.ewma_alpha
        self.service_ewma = (1.0 - alpha) * self.service_ewma + alpha * seconds
