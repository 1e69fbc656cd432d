"""Deterministic fault injection for the simulated storage stack.

Filters guard *persistent* data (§3.1), and persistent data fails in
characteristic ways: bits flip at rest, writes tear or get lost in a
crash, reads fail transiently.  bup ships ``bup bloom --ruin`` purely so
its corruption-recovery path can be exercised; this module is the same
idea as a library, so every layer above the device (codec framing,
LSM recovery, scrubbing) can be driven through seeded fault schedules.

* :class:`FaultInjector` — a seeded policy object deciding, per device
  operation, whether to inject a fault.  Probabilities are configurable
  per *address class* (the first element of a tuple address, e.g.
  ``"filter"`` for ``("filter", 7)``), so a test can corrupt filter blobs
  while leaving the write-ahead log alone.
* :class:`FaultyBlockDevice` — wraps a :class:`BlockDevice` and applies
  the injector's decisions: bit-flip corruption and torn (truncated)
  writes on ``bytes`` payloads, lost writes, and transient read errors
  (:class:`TransientIOError`).  It remembers which live addresses it has
  corrupted, giving tests ground truth to check a scrubber against.
* :class:`RetryPolicy` — bounded retries with deterministic exponential
  backoff *accounting* (simulated seconds; nothing sleeps), so callers
  can express "retry transient faults N times, then degrade".  Optional
  seeded *decorrelated jitter* desynchronises concurrent retriers so
  they cannot thundering-herd a recovering device.  Each call's backoff
  sequence starts afresh at the base delay, and a call given a deadline
  stops retrying rather than back off into it.
* :class:`LatencyInjector` — a seeded service-time model (baseline
  latency, random spikes, slow-disk plateaus, a mutable phase slowdown)
  that advances a :class:`~repro.common.clock.SimulatedClock` on every
  device operation, so chaos schedules can create *overload*, not just
  corruption (docs/robustness.md, serving-layer failure model).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.clock import DeadlineExceeded
from repro.common.storage import BatchOps, BlockDevice, IOStats, _default_size
from repro.obs.metrics import Family, Handles, bind_handles
from repro.obs.tracing import trace


class TransientIOError(OSError):
    """A read that failed now but may succeed if retried."""


class CircuitOpenError(OSError):
    """A read refused fast by an open circuit breaker (:mod:`repro.serve`).

    Deliberately *not* a :class:`TransientIOError`: an open breaker means
    retrying now is pointless, so :class:`RetryPolicy` propagates it
    immediately instead of piling retries onto a struggling device.
    """


class SimulatedCrash(RuntimeError):
    """A simulated process death, raised by :meth:`FaultInjector.maybe_crash`.

    Deliberately not an :class:`OSError`: no retry or degradation layer
    may swallow it — it must unwind the whole "process" so a chaos
    harness can discard all in-memory state and exercise recovery from
    durable storage alone.  ``step`` names the crash point that fired.
    """

    def __init__(self, step: str):
        super().__init__(f"simulated crash at {step!r}")
        self.step = step


# -- fault policy -----------------------------------------------------------------

def address_class(address: Any) -> Any:
    """The address-class key used to look up per-class fault rates."""
    if isinstance(address, tuple) and address:
        return address[0]
    return address


def address_scope(address: Any) -> str | None:
    """The scoped ``"class@namespace"`` rate key for a namespaced address.

    :class:`~repro.common.storage.NamespacedDevice` rewrites ``(cls, *rest)``
    to ``(cls, namespace, *rest)``, so the namespace — a replica id like
    ``"r2"`` — is the second tuple element.  A rate dict may target one
    replica's devices (``{"page@r2": 0.5, "*": 0.0}``) without touching its
    peers; the scoped key wins over the bare class.
    """
    if isinstance(address, tuple) and len(address) >= 2 and isinstance(address[1], str):
        return f"{address[0]}@{address[1]}"
    return None


@dataclass
class FaultStats:
    """Counts of faults actually injected."""

    bit_flips: int = 0
    torn_writes: int = 0
    lost_writes: int = 0
    transient_reads: int = 0

    @property
    def total(self) -> int:
        return self.bit_flips + self.torn_writes + self.lost_writes + self.transient_reads


class _FaultMetrics(Handles):
    faults = Family("counter", "repro_device_faults_total",
                    "faults injected by FaultyBlockDevice, by kind", ("kind",))
    latency_spikes = Family("counter", "repro_device_latency_spikes_total",
                            "latency spikes injected by LatencyInjector")


class FaultInjector:
    """Seeded, deterministic fault schedule.

    Each probability may be a single float (applies to every address) or a
    dict mapping address classes to floats, with ``"*"`` as the default
    for unlisted classes.  The same seed over the same operation sequence
    injects the same faults — chaos tests are reproducible.
    """

    def __init__(
        self,
        seed: int = 0,
        bit_flip: float | dict = 0.0,
        torn_write: float | dict = 0.0,
        lost_write: float | dict = 0.0,
        transient_read: float | dict = 0.0,
    ):
        self.seed = seed
        self.bit_flip = bit_flip
        self.torn_write = torn_write
        self.lost_write = lost_write
        self.transient_read = transient_read
        self.stats = FaultStats()
        self._rng = random.Random(seed)
        self._crash_at: str | None = None
        self._fired_crashes: set[str] = set()
        self.crashes = 0
        self._obs: _FaultMetrics | None = None

    def _rate(self, spec: float | dict, address: Any) -> float:
        if isinstance(spec, dict):
            scope = address_scope(address)
            if scope is not None and scope in spec:
                return spec[scope]
            return spec.get(address_class(address), spec.get("*", 0.0))
        return spec

    def draw_write(self, address: Any) -> str | None:
        """Fault decision for one write: ``"flip" | "torn" | "lost" | None``."""
        roll = self._rng.random()
        threshold = 0.0
        for name, spec in (
            ("flip", self.bit_flip),
            ("torn", self.torn_write),
            ("lost", self.lost_write),
        ):
            # A float rate needs no per-address lookup; this runs per write.
            threshold += self._rate(spec, address) if isinstance(spec, dict) else spec
            if roll < threshold:
                return name
        return None

    def draw_read(self, address: Any) -> bool:
        """Whether this read fails transiently."""
        return self._rng.random() < self._rate(self.transient_read, address)

    def flip_payload(self, payload: bytes) -> bytes:
        """Flip one uniformly random bit of *payload*."""
        bit = self._rng.randrange(len(payload) * 8)
        corrupted = bytearray(payload)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        return bytes(corrupted)

    def tear_payload(self, payload: bytes) -> bytes:
        """Keep only a random proper prefix of *payload* (a torn write)."""
        cut = self._rng.randrange(len(payload))
        return payload[:cut]

    # -- crash points ---------------------------------------------------------------

    def crash_after(self, step_name: str, *, rearm: bool = False) -> None:
        """Arm a one-shot crash at the named step.

        The next :meth:`maybe_crash` call whose ``step_name`` matches
        raises :class:`SimulatedCrash` and *disarms* the trigger, so a
        recovered "process" that replays the same step does not die again
        — chaos tests kill each migration step exactly once and then
        watch recovery converge.

        A step that has already fired stays disarmed even if the arming
        code runs again (recovery paths re-execute setup code verbatim,
        including its ``crash_after`` calls); pass ``rearm=True`` to
        deliberately kill the same step a second time.
        """
        if rearm:
            self._fired_crashes.discard(step_name)
        elif step_name in self._fired_crashes:
            return
        self._crash_at = step_name

    @property
    def armed_crash(self) -> str | None:
        """The step the next matching :meth:`maybe_crash` will die at."""
        return self._crash_at

    def maybe_crash(self, step_name: str) -> None:
        """Crash point: dies iff armed for exactly this *step_name*."""
        if self._crash_at is not None and self._crash_at == step_name:
            self._crash_at = None
            self._fired_crashes.add(step_name)
            self.crashes += 1
            bind_handles(self, _FaultMetrics).child("faults", "crash").inc()
            raise SimulatedCrash(step_name)


# -- latency injection -------------------------------------------------------------

@dataclass
class LatencyStats:
    """Counts and totals of simulated service time actually injected."""

    operations: int = 0
    spikes: int = 0
    plateau_draws: int = 0
    total_seconds: float = 0.0


class LatencyInjector:
    """Seeded service-time model for a simulated device.

    Each operation draws ``base`` seconds with ±``jitter`` relative
    noise, then applies, in order:

    * **plateaus** — ``(start, end, multiplier)`` windows in simulated
      time (a slow-disk episode: every operation in the window is
      uniformly slower);
    * **slowdown** — a mutable phase multiplier, so a storm driver can
      degrade the device between phases without pre-computing absolute
      times;
    * **spikes** — with probability ``spike_prob`` a single operation
      takes ``spike_scale``× longer (GC pause, read retry inside the
      device, a stray slow sector).

    The same seed over the same operation sequence draws the same
    latencies — overload chaos is as reproducible as corruption chaos.
    """

    def __init__(
        self,
        seed: int = 0,
        base: float = 0.001,
        jitter: float = 0.25,
        spike_prob: float = 0.0,
        spike_scale: float = 25.0,
        plateaus: tuple[tuple[float, float, float], ...] = (),
    ):
        if base < 0 or not 0 <= jitter <= 1:
            raise ValueError("need base >= 0 and jitter in [0, 1]")
        self.seed = seed
        self.base = base
        self.jitter = jitter
        self.spike_prob = spike_prob
        self.spike_scale = spike_scale
        self.plateaus = tuple(plateaus)
        self.slowdown = 1.0  # mutable phase multiplier (storm drivers)
        self.stats = LatencyStats()
        self._rng = random.Random(seed ^ 0x1A7E4C)
        self._obs: _FaultMetrics | None = None

    def draw(self, now: float, kind: str = "read", address: Any = None) -> float:
        """Service time in simulated seconds for one operation at *now*."""
        latency = self.base * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))
        for start, end, multiplier in self.plateaus:
            if start <= now < end:
                latency *= multiplier
                self.stats.plateau_draws += 1
                break
        latency *= self.slowdown
        if self.spike_prob and self._rng.random() < self.spike_prob:
            latency *= self.spike_scale
            self.stats.spikes += 1
            bind_handles(self, _FaultMetrics).latency_spikes.inc()
        self.stats.operations += 1
        self.stats.total_seconds += latency
        return latency


# -- faulty device ----------------------------------------------------------------

class FaultyBlockDevice(BatchOps):
    """A :class:`BlockDevice` wrapper that injects the injector's faults.

    Bit flips and torn writes only apply to ``bytes`` payloads (they model
    media corruption of raw blobs); structured payloads can still suffer
    lost writes and transient reads.  I/O is charged for lost writes too —
    the device acknowledged the request; the data just never landed.

    When a :class:`LatencyInjector` and a
    :class:`~repro.common.clock.SimulatedClock` are attached, every
    operation — including a read that then fails transiently; the failed
    I/O still took time — advances the clock by its drawn service time
    and accrues it in ``stats.busy_seconds``.
    """

    def __init__(
        self,
        device: BlockDevice | None = None,
        injector: FaultInjector | None = None,
        latency: LatencyInjector | None = None,
        clock: Any = None,
    ):
        self.inner = device if device is not None else BlockDevice()
        self.injector = injector if injector is not None else FaultInjector()
        self.latency = latency
        self.clock = clock
        self.fault_log: list[tuple[str, Any]] = []
        self._corrupt: set[Any] = set()
        self._obs: _FaultMetrics | None = None

    def _count_fault(self, kind: str) -> None:
        bind_handles(self, _FaultMetrics).child("faults", kind).inc()

    def _spend(self, kind: str, address: Any) -> None:
        if self.latency is None or self.clock is None:
            return
        dt = self.latency.draw(self.clock.now(), kind, address)
        self.clock.advance(dt)
        self.inner.stats.busy_seconds += dt

    @property
    def stats(self) -> IOStats:
        return self.inner.stats

    @property
    def fault_stats(self) -> FaultStats:
        return self.injector.stats

    def corrupted_addresses(self) -> frozenset:
        """Live addresses whose stored payload the device has corrupted —
        ground truth for checking a scrubber's findings."""
        return frozenset(self._corrupt)

    def write_many(self, items: Sequence[tuple[Any, Any, int | None]]) -> None:
        """Write each ``(address, payload, size)`` in order, drawing its
        latency and its fault exactly as one write at a time would.

        Runs of clean items are handed to the inner device together, but
        always before the next faulty item is applied.
        """
        start = 0
        for i, (address, payload, size) in enumerate(items):
            self._spend("write", address)
            action = self.injector.draw_write(address)
            # Flips and tears only land on non-empty blobs.
            faulty = action == "lost" or (
                action is not None and isinstance(payload, (bytes, bytearray)) and payload
            )
            if not faulty:
                continue
            self._write_clean(items[start:i])
            start = i + 1
            if size is None:
                size = _default_size(payload)
            if action == "lost":
                self.injector.stats.lost_writes += 1
                self.fault_log.append(("lost", address))
                self._count_fault("lost_write")
                # Charge the I/O without storing: the old block (if any) survives.
                self.inner._count_writes(1, size)
                continue
            if action == "flip":
                payload = self.injector.flip_payload(bytes(payload))
                self.injector.stats.bit_flips += 1
                self._count_fault("bit_flip")
            else:
                payload = self.injector.tear_payload(bytes(payload))
                self.injector.stats.torn_writes += 1
                self._count_fault("torn_write")
            self.fault_log.append((action, address))
            self.inner.write(address, payload, size)
            self._corrupt.add(address)
        self._write_clean(items[start:] if start else items)

    def _write_clean(self, items: Sequence) -> None:
        if items:
            self.inner.write_many(items)
            if self._corrupt:
                self._corrupt.difference_update([address for address, _, _ in items])

    def read(self, address: Any) -> Any:
        self._spend("read", address)
        if self.injector.draw_read(address):
            self.injector.stats.transient_reads += 1
            self.fault_log.append(("transient", address))
            self._count_fault("transient_read")
            raise TransientIOError(f"transient read failure at address {address!r}")
        return self.inner.read(address)

    def ruin(self, address: Any) -> None:
        """Flip one bit of the blob stored at *address*, out of band (no
        I/O charged) — bup's ``bloom --ruin``, for driving scrub/recovery
        paths deterministically in tests."""
        block = self.inner._blocks[address]
        if not isinstance(block.payload, (bytes, bytearray)) or not block.payload:
            raise TypeError(f"cannot ruin non-blob payload at {address!r}")
        block.payload = self.injector.flip_payload(bytes(block.payload))
        self.injector.stats.bit_flips += 1
        self.fault_log.append(("ruin", address))
        self._count_fault("bit_flip")
        self._corrupt.add(address)

    def delete_many(self, addresses: Sequence[Any]) -> int:
        missing = self.inner.delete_many(addresses)
        self._corrupt.difference_update(addresses)
        return missing

    def exists(self, address: Any) -> bool:
        return self.inner.exists(address)

    def addresses(self) -> list[Any]:
        return self.inner.addresses()

    def size_of(self, address: Any) -> int | None:
        return self.inner.size_of(address)

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes


# -- retries ----------------------------------------------------------------------

class _RetryMetrics(Handles):
    attempts = Family("counter", "repro_retry_attempts_total",
                      "retry-policy call attempts, by outcome", ("outcome",))
    backoff = Family("histogram", "repro_retry_backoff_seconds",
                     "simulated exponential-backoff delay per retry")


@dataclass
class RetryStats:
    attempts: int = 0
    retries: int = 0
    giveups: int = 0  # out of attempts, or out of deadline
    backoff_seconds: float = 0.0


@dataclass
class RetryPolicy:
    """Bounded retry with deterministic backoff accounting.

    ``call(fn, *args)`` invokes *fn*, retrying on
    :class:`TransientIOError` up to ``max_attempts`` total attempts.
    Backoff is *accounted*, not slept: ``stats.backoff_seconds``
    accumulates each delay so experiments can report time-to-recover
    without wall-clock sleeps (when a simulated ``clock`` is attached the
    delay also advances it, so backoff burns real deadline budget).
    After the last attempt the error propagates — the caller decides how
    to degrade.

    ``jitter`` selects the schedule of one call's backoffs:

    * ``"none"`` — pure exponential ``base_backoff * multiplier**i``.
      Deterministic, but every concurrent retrier computes the *same*
      schedule, so a shared fault synchronises them into a thundering
      herd that re-arrives in lockstep.
    * ``"decorrelated"`` — seeded decorrelated jitter (AWS-style):
      ``sleep_0 = min(max_backoff, uniform(base, 3 * base))`` and
      ``sleep_i = min(max_backoff, uniform(base, 3 * sleep_{i-1}))``.
      Retriers with different seeds spread out; the same seed replays
      the same schedule exactly, so chaos tests stay reproducible.

    Either way a backoff sequence belongs to one call: the first retry
    of every call draws from the base delay, whatever earlier calls
    escalated to.  Only the seeded random stream runs on across calls.

    ``call(fn, *args, deadline=d)`` also bounds the retries by a
    :class:`~repro.common.clock.Deadline`: when the backoff just drawn
    would reach *d*, the call gives up at once without advancing the
    clock, counts the attempt with outcome ``"deadline"`` and raises
    :class:`~repro.common.clock.DeadlineExceeded` — a retry that lands
    after the deadline could only serve a late answer.
    """

    max_attempts: int = 3
    base_backoff: float = 0.001
    multiplier: float = 2.0
    jitter: str = "none"  # "none" | "decorrelated"
    max_backoff: float = 1.0
    seed: int = 0
    clock: Any = None
    stats: RetryStats = field(default_factory=RetryStats)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.jitter not in ("none", "decorrelated"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}")
        self._rng = random.Random(self.seed ^ 0xB0FF)
        self._prev_backoff = self.base_backoff
        self._obs: _RetryMetrics | None = None

    def next_backoff(self, attempt: int) -> float:
        """The delay charged after failed attempt *attempt* (0-based) of
        one call; attempt 0 starts the call's sequence afresh."""
        if self.jitter == "none":
            return self.base_backoff * self.multiplier**attempt
        prev = self.base_backoff if attempt == 0 else self._prev_backoff
        self._prev_backoff = min(
            self.max_backoff, self._rng.uniform(self.base_backoff, 3.0 * prev)
        )
        return self._prev_backoff

    def call(self, fn: Callable, *args, deadline: Any = None, **kwargs):
        m = bind_handles(self, _RetryMetrics)
        for attempt in range(self.max_attempts):
            self.stats.attempts += 1
            try:
                with trace("retry.attempt", attempt=attempt):
                    result = fn(*args, **kwargs)
                m.child("attempts", "ok").inc()
                return result
            except TransientIOError:
                if attempt + 1 == self.max_attempts:
                    self.stats.giveups += 1
                    m.child("attempts", "giveup").inc()
                    raise
                backoff = self.next_backoff(attempt)
                if deadline is not None and backoff >= deadline.remaining():
                    self.stats.giveups += 1
                    m.child("attempts", "deadline").inc()
                    raise DeadlineExceeded("retry backoff would reach the deadline")
                self.stats.retries += 1
                m.child("attempts", "retry").inc()
                self.stats.backoff_seconds += backoff
                if self.clock is not None:
                    self.clock.advance(backoff)
                m.backoff.observe(backoff)
        raise AssertionError("unreachable")  # pragma: no cover
