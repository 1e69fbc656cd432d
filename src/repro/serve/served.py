"""`ServedFilter`: the deadline-aware serving facade (docs/robustness.md).

One call — ``query(key, deadline, priority)`` — runs the full serving
pipeline over any deadline-aware backend (:class:`~repro.apps.lsm.LSMTree`
or :class:`~repro.adaptive.dictionary.FilteredDictionary`, anything with
``lookup(key, deadline=..., degrade_on_error=...)``):

1. **admission** — overloaded queues shed the request (`SHED`);
2. **deadline** — a request times out (`TIMED_OUT`) when its budget is
   gone before the scan starts, when the scan reaches a run or lands
   its answer after expiry, or when a read's retry backoff would reach
   the deadline — an LSM backend's
   :class:`~repro.common.faults.RetryPolicy` then gives up at once;
3. **degradation** — runs behind an open circuit breaker or exhausted
   retries are skipped (`DEGRADED`);
4. otherwise the authoritative answer is returned (`SERVED`).

The safety invariant, inherited from the one-sided-error contract every
filter in this repo obeys: **no path ever answers a definite ABSENT it
cannot prove.**  Shed, timed-out, and degraded requests answer
:data:`~repro.common.clock.Answer.MAYBE` — the same thing a filter
positive means — so chaos can cost the caller extra reads, never a lost
key.  Every outcome is metered through :mod:`repro.obs`
(``repro_serve_requests_total``, ``repro_serve_latency_seconds``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.common.clock import Answer, Deadline, SimulatedClock
from repro.obs.metrics import Family, Handles, bind_handles
from repro.obs.tracing import trace
from repro.serve.admission import AdmissionController, Priority
from repro.serve.breaker import BreakerState


class ServeOutcome(enum.Enum):
    SERVED = "served"          # complete, in-budget, authoritative answer
    DEGRADED = "degraded"      # some runs unreachable: conservative MAYBE
    SHED = "shed"              # refused at admission: conservative MAYBE
    TIMED_OUT = "timed_out"    # deadline expired: conservative MAYBE


@dataclass
class ServedResponse:
    """Everything one served request resolved to."""

    answer: Answer
    outcome: ServeOutcome
    value: Any = None
    priority: Priority = Priority.NORMAL
    arrival: float = 0.0
    finished: float = 0.0
    queue_delay: float = 0.0
    runs_probed: int = 0
    runs_skipped: int = 0

    @property
    def latency(self) -> float:
        """Arrival-to-answer simulated seconds (0 for queue-front sheds)."""
        return max(0.0, self.finished - self.arrival)

    def __iter__(self):
        # Supports the documented two-tuple form:
        #   answer, outcome = served.query(key, ...)
        return iter((self.answer, self.outcome))


class _ServeMetrics(Handles):
    requests = Family("counter", "repro_serve_requests_total",
                      "served-filter requests, by outcome and priority", ("outcome", "priority"))
    latency = Family("histogram", "repro_serve_latency_seconds",
                     "arrival-to-answer simulated latency, by outcome", ("outcome",))
    breakers = Family("gauge", "repro_serve_breakers", "circuit breakers by state", ("state",))
    service_ewma = Family("gauge", "repro_serve_service_ewma_seconds",
                          "admission controller's service-time estimate")
    shed_rate = Family("gauge", "repro_serve_shed_rate", "shed fraction since startup")


class ServedFilter:
    """Deadline/priority serving facade over a deadline-aware backend."""

    def __init__(
        self,
        backend: Any,
        clock: SimulatedClock,
        *,
        admission: AdmissionController | None = None,
        breaker_device: Any = None,
        default_budget: float = 0.050,
        negative_cache: Any = None,
    ):
        if not hasattr(backend, "lookup"):
            raise TypeError(
                "backend must expose lookup(key, deadline=..., degrade_on_error=...)"
            )
        if default_budget <= 0:
            raise ValueError("default_budget must be positive")
        self.backend = backend
        self.clock = clock
        self.admission = admission
        self.breaker_device = breaker_device
        self.default_budget = default_budget
        # Optional repro.cache.NegativeLookupCache: serves memoized
        # authoritative ABSENTs without a backend scan.  Versioned by the
        # backend's mutation_epoch, and populated ONLY from SERVED+ABSENT
        # responses — a degraded, shed, or timed-out MAYBE is not an
        # answer and must never be frozen into one (docs/robustness.md).
        self.negative_cache = negative_cache
        self._obs: _ServeMetrics | None = None

    # -- the serving pipeline ----------------------------------------------------

    def query(
        self,
        key: Any,
        deadline: float | Deadline | None = None,
        priority: Priority = Priority.NORMAL,
    ) -> ServedResponse:
        """Serve one lookup; unpacks as ``(answer, outcome)``.

        *deadline* is either a relative budget in simulated seconds, an
        absolute :class:`~repro.common.clock.Deadline`, or None for the
        facade's default budget.
        """
        return self.serve(key, deadline=deadline, priority=priority)

    def serve(
        self,
        key: Any,
        *,
        deadline: float | Deadline | None = None,
        priority: Priority = Priority.NORMAL,
        arrival: float | None = None,
        tenant: Any = None,
    ) -> ServedResponse:
        """:meth:`query` with explicit arrival time, for load generators.

        *arrival* may lie in the past (the request queued behind slower
        ones — its queue delay counts against the deadline) or in the
        future (the server idles forward to it).  *tenant*, if given, is
        billed against that tenant's quota bucket at admission (a quota
        shed is a MAYBE like any other shed).
        """
        if arrival is None:
            arrival = self.clock.now()
        self.clock.advance_to(arrival)
        if isinstance(deadline, Deadline):
            budget_deadline = deadline
        else:
            budget = self.default_budget if deadline is None else float(deadline)
            budget_deadline = Deadline(self.clock, arrival + budget)
        response = ServedResponse(
            Answer.MAYBE, ServeOutcome.SHED, priority=priority, arrival=arrival
        )

        if self.admission is not None:
            decision = self.admission.admit(arrival, priority, tenant=tenant)
            response.queue_delay = decision.queue_delay
            if not decision.admitted:
                # Shed before any work: the safe answer is always-maybe.
                response.finished = self.clock.now()
                self._meter(response)
                return response
        else:
            response.queue_delay = max(0.0, self.clock.now() - arrival)

        if budget_deadline.expired():
            # Queued past the whole budget: timing out now is cheaper than
            # starting a scan that cannot finish in time.
            response.outcome = ServeOutcome.TIMED_OUT
            response.finished = self.clock.now()
            self._meter(response)
            return response

        epoch = getattr(self.backend, "mutation_epoch", 0)
        if self.negative_cache is not None and self.negative_cache.known_absent(
            key, epoch
        ):
            # Memoized authoritative ABSENT under the current epoch: no
            # backend scan, no device I/O, no breaker traffic.
            response.answer = Answer.ABSENT
            response.outcome = ServeOutcome.SERVED
            response.finished = self.clock.now()
            self._meter(response)
            return response

        started = self.clock.now()
        with trace("serve.query", key=key, priority=priority.name) as span:
            result = self.backend.lookup(
                key, deadline=budget_deadline, degrade_on_error=True
            )
            span.set_tag("state", result.state.value)
        if self.admission is not None:
            self.admission.record_service(self.clock.now() - started)

        response.answer = result.state
        response.value = result.value
        response.runs_probed = result.runs_probed
        response.runs_skipped = result.runs_skipped
        if result.complete:
            response.outcome = ServeOutcome.SERVED
        elif result.reason == "deadline":
            response.outcome = ServeOutcome.TIMED_OUT
        else:
            response.outcome = ServeOutcome.DEGRADED
        response.finished = self.clock.now()
        if (
            self.negative_cache is not None
            and response.outcome is ServeOutcome.SERVED
            and response.answer is Answer.ABSENT
        ):
            self.negative_cache.record_absent(key, epoch)
        self._meter(response)
        return response

    # -- telemetry ---------------------------------------------------------------

    def _meter(self, response: ServedResponse) -> None:
        m = bind_handles(self, _ServeMetrics)
        outcome = response.outcome.value
        m.child("requests", outcome, response.priority.name.lower()).inc()
        m.child("latency", outcome).observe(response.latency)

    def publish_gauges(self) -> None:
        """Point-in-time serving gauges (breaker states, service EWMA)."""
        m = bind_handles(self, _ServeMetrics)
        if self.breaker_device is not None:
            breakers = self.breaker_device.breakers.values()
            for state in BreakerState:
                m.child("breakers", state.value).set(
                    sum(1 for b in breakers if b.state is state)
                )
        if self.admission is not None:
            m.service_ewma.set(self.admission.service_ewma)
            m.shed_rate.set(self.admission.stats.shed_rate())
