"""Circuit breakers for fault-storm isolation (docs/robustness.md).

A fault storm on one run's blocks must not turn every lookup into a
retry pileup: after enough failures the right move is to *stop asking*,
fast-fail reads of the sick region, and periodically probe for recovery.
That is the classic closed/open/half-open circuit breaker, driven here
by the simulated clock so trips and recoveries are reproducible.

* **CLOSED** — normal operation; outcomes feed a rolling window, and the
  breaker opens when the windowed failure rate crosses the threshold
  (with a minimum sample count, so one early failure cannot trip it).
* **OPEN** — every request is refused instantly with
  :class:`~repro.common.faults.CircuitOpenError` (which
  :class:`~repro.common.faults.RetryPolicy` deliberately does not
  retry).  After ``cooldown`` simulated seconds the breaker moves to
  half-open on the next request.
* **HALF_OPEN** — requests are allowed as probes: ``half_open_probes``
  consecutive successes close the breaker (window cleared — the sick
  period's history must not re-trip it); any failure re-opens it and
  re-arms the cooldown.

For the read path the breaker is deployed as :class:`BreakerDevice`: a
device wrapper keeping one breaker per block address (i.e. per run /
filter blob), so one sick run degrades only itself.  A fast-failed read
surfaces to :meth:`LSMTree.lookup` as a skipped run, which degrades the
answer to the always-safe MAYBE — never a false negative.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Sequence
from typing import Any, Callable

from repro.common.faults import CircuitOpenError, TransientIOError
from repro.common.storage import BatchOps
from repro.obs.metrics import Family, Handles, bind_handles


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class _BreakerMetrics(Handles):
    transitions = Family("counter", "repro_breaker_transitions_total",
                         "circuit-breaker state transitions, by destination state", ("to",))
    fast_fails = Family("counter", "repro_breaker_fast_fails_total",
                        "reads refused instantly by an open circuit breaker")


class CircuitBreaker:
    """Failure-rate-windowed breaker on a simulated clock."""

    def __init__(
        self,
        clock: Any,
        name: str = "breaker",
        *,
        window: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 8,
        cooldown: float = 0.25,
        half_open_probes: int = 3,
    ):
        if not 0 < failure_threshold <= 1:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1 or min_samples < 1 or half_open_probes < 1:
            raise ValueError("window, min_samples, half_open_probes must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.clock = clock
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._half_open_successes = 0
        self._obs: _BreakerMetrics | None = None

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def samples(self) -> int:
        return len(self._outcomes)

    def _transition(self, to: BreakerState) -> None:
        self.transitions.append((self.clock.now(), self.state, to))
        bind_handles(self, _BreakerMetrics).child("transitions", to.value).inc()
        self.state = to

    def _open(self) -> None:
        self._opened_at = self.clock.now()
        self._transition(BreakerState.OPEN)

    def allow(self) -> bool:
        """Whether a request may proceed now (may move OPEN → HALF_OPEN)."""
        if self.state is BreakerState.OPEN:
            if self.clock.now() - self._opened_at >= self.cooldown:
                self._half_open_successes = 0
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self.half_open_probes:
                # Recovered: the sick window must not re-trip the breaker.
                self._outcomes.clear()
                self._transition(BreakerState.CLOSED)
        elif self.state is BreakerState.CLOSED:
            self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open()
        elif self.state is BreakerState.CLOSED:
            self._outcomes.append(False)
            if (
                len(self._outcomes) >= self.min_samples
                and self.failure_rate() >= self.failure_threshold
            ):
                self._open()

    def call(self, fn: Callable, *args, **kwargs):
        """Run *fn* through the breaker: fast-fail when open, record the
        outcome otherwise (:class:`TransientIOError` counts as failure)."""
        if not self.allow():
            raise CircuitOpenError(f"circuit {self.name!r} is open")
        try:
            result = fn(*args, **kwargs)
        except TransientIOError:
            self.record_failure()
            raise
        self.record_success()
        return result


class BreakerDevice(BatchOps):
    """A block-device wrapper with one read breaker per address.

    Writes, deletes, and metadata pass straight through; only reads are
    guarded, because the serving read path is what a fault storm turns
    into a retry pileup.  ``key_fn`` maps an address to its breaker key
    (default: the address itself, i.e. one breaker per run/filter blob).
    """

    def __init__(self, device: Any, clock: Any,
                 key_fn: Callable[[Any], Any] | None = None, **breaker_kwargs):
        self.inner = device
        self.clock = clock
        self.breakers: dict[Any, CircuitBreaker] = {}
        self._key_fn = key_fn if key_fn is not None else lambda address: address
        self._breaker_kwargs = breaker_kwargs
        self._obs: _BreakerMetrics | None = None

    def breaker_for(self, address: Any) -> CircuitBreaker:
        key = self._key_fn(address)
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.clock, name=str(key), **self._breaker_kwargs
            )
            self.breakers[key] = breaker
        return breaker

    def read(self, address: Any) -> Any:
        breaker = self.breaker_for(address)
        if not breaker.allow():
            bind_handles(self, _BreakerMetrics).fast_fails.inc()
            raise CircuitOpenError(
                f"circuit open for address {address!r}; fast-failing read"
            )
        try:
            payload = self.inner.read(address)
        except TransientIOError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return payload

    def reset(self) -> None:
        """Forget all breaker state, as a process restart would.

        Breakers are in-memory protection, not durable state: after a
        crash the restarted process starts with every circuit closed and
        must re-learn which addresses are unhealthy.  Recovery paths
        call this so a breaker tripped by the pre-crash storm cannot
        fast-fail the reads that recovery itself depends on.
        """
        self.breakers.clear()

    def open_breakers(self) -> list[CircuitBreaker]:
        return [
            b for b in self.breakers.values() if b.state is not BreakerState.CLOSED
        ]

    def n_transitions(self, to: BreakerState) -> int:
        return sum(
            1
            for b in self.breakers.values()
            for _t, _src, dst in b.transitions
            if dst is to
        )

    # -- passthroughs ------------------------------------------------------------

    def write_many(self, items: Sequence[tuple[Any, Any, int | None]]) -> None:
        self.inner.write_many(items)

    def delete_many(self, addresses: Sequence[Any]) -> int:
        return self.inner.delete_many(addresses)

    def exists(self, address: Any) -> bool:
        return self.inner.exists(address)

    def addresses(self) -> list[Any]:
        return self.inner.addresses()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def stats(self):
        return self.inner.stats

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes

    def __getattr__(self, name: str):
        # Forward faulty-device extras (ruin, fault_stats, injector, ...).
        return getattr(self.inner, name)
