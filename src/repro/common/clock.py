"""Simulated time, request deadlines, and deadline-aware lookup results.

The serving layer (:mod:`repro.serve`, docs/robustness.md) executes
filter and LSM lookups under an *explicit simulated clock*: device
latency, retry backoff, and queueing all advance the same
:class:`SimulatedClock`, so chaos experiments measure latency in
reproducible simulated seconds with no wall-clock sleeps — the same
accounting-not-sleeping stance :class:`~repro.common.faults.RetryPolicy`
already takes.

A :class:`Deadline` is an absolute expiry on such a clock.  Read paths
that accept one (``get/lookup/lookup_many`` on ``LSMTree`` and
``FilteredDictionary``) abandon remaining work when the budget expires:
``lookup_many`` answers its unresolved keys MAYBE, and ``get`` raises.
Because filters are one-sided (no false negatives), a partial lookup
can always degrade to the *always-maybe* answer safely:
:data:`Answer.MAYBE` never breaks the filter contract, it only costs the
caller the read the filter would have saved.  That is the degradation
posture the whole serving layer is built on.

Every serving fan-out (shard double reads, replica quorums, the tenant
fleet) answers through :func:`combine`, the one rule for when ABSENT is
proven.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable


class SimulatedClock:
    """A monotonically advancing clock measured in simulated seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by *dt* seconds; returns the new time."""
        if dt < 0:
            raise ValueError("the simulated clock cannot run backwards")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to time *t* (no-op if *t* is already in the past)."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(t={self._now:.6f})"


class DeadlineExceeded(TimeoutError):
    """A lookup's time budget expired before the scan completed.

    Callers that degrade rather than fail — the serving layer — translate
    this into a conservative :data:`Answer.MAYBE`.
    """


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry time on a :class:`SimulatedClock`."""

    clock: SimulatedClock
    expires_at: float

    @classmethod
    def after(cls, clock: SimulatedClock, budget: float) -> "Deadline":
        """The deadline *budget* seconds from the clock's current time."""
        if budget < 0:
            raise ValueError("deadline budget must be non-negative")
        return cls(clock, clock.now() + budget)

    def remaining(self) -> float:
        return self.expires_at - self.clock.now()

    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at


class Answer(enum.Enum):
    """Tri-state lookup answer under the one-sided-error contract.

    ``PRESENT``/``ABSENT`` are authoritative.  ``MAYBE`` is the safe
    degraded answer: the scan could not rule the key out (deadline
    expired, a run was unreachable), so the caller must treat the key as
    possibly present — exactly what a filter positive already means.
    """

    PRESENT = "present"
    ABSENT = "absent"
    MAYBE = "maybe"


@dataclass
class LookupResult:
    """Outcome of one deadline-aware lookup.

    ``complete`` is True only when every relevant run/record was
    consulted in time; only then can ``state`` be authoritative.
    ``value`` is best-effort: populated on a hit even when a newer run
    was skipped (``state`` stays :data:`Answer.MAYBE` in that case,
    because the skipped run could hold a newer version or a tombstone).
    ``reason`` explains incompleteness: ``"deadline"``,
    ``"unavailable"``, or ``"quorum"`` (every source answered, but too
    few could vouch for absence; see :func:`combine`).
    """

    state: Answer
    value: Any = None
    complete: bool = True
    reason: str | None = None
    runs_probed: int = 0
    runs_skipped: int = 0

    @property
    def found(self) -> bool:
        return self.state is Answer.PRESENT


def combine(evidence: Iterable[tuple[LookupResult, bool]], need: int) -> LookupResult:
    """The one-sided combine rule behind every serving fan-out.

    *evidence* yields one ``(result, eligible)`` pair per source and is
    consumed lazily: no source after the one that decides is consulted.
    The first complete PRESENT wins and carries its value.  ABSENT needs
    *need* complete ABSENTs from eligible sources.  Anything else is
    MAYBE, with reason ``"deadline"`` if any consumed source ran out of
    time, else ``"unavailable"`` if any was incomplete, else
    ``"quorum"``, and the first best-effort value.  ``runs_probed`` and
    ``runs_skipped`` sum over the consumed sources.
    """
    absent = probed = skipped = 0
    value = None
    reasons = set()
    for result, eligible in evidence:
        probed += result.runs_probed
        skipped += result.runs_skipped
        if not result.complete:
            reasons.add(result.reason)
        elif result.state is Answer.PRESENT:
            return LookupResult(Answer.PRESENT, result.value,
                                runs_probed=probed, runs_skipped=skipped)
        elif result.state is Answer.ABSENT and eligible:
            absent += 1
            if absent >= need:
                return LookupResult(Answer.ABSENT, runs_probed=probed, runs_skipped=skipped)
        if value is None:
            value = result.value
    reason = ("deadline" if "deadline" in reasons
              else "unavailable" if reasons else "quorum")
    return LookupResult(Answer.MAYBE, value, complete=False, reason=reason,
                        runs_probed=probed, runs_skipped=skipped)
