"""Serving plumbing shared by every storm topology (docs/robustness.md).

The single-tree, sharded, replicated and multi-tenant stacks differ only
in their backend.  What surrounds it lives here once: the stack's shared
bottom and top (:class:`StackParts`, :func:`retry_policy`), the trees
the sharded and replicated stores keep in device namespaces
(:class:`NamespacedStore`), the :class:`BackgroundGate` for
migration/repair pumps, and :class:`StormSummary`, the one shape of the
storm reports.  The one request loop every storm runs, with its crash
recovery, is :class:`repro.serve.sim.StormDriver`; the durable records
behind every store are :mod:`repro.common.records`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, ClassVar

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.clock import Answer, SimulatedClock
from repro.common.faults import FaultInjector, FaultyBlockDevice, LatencyInjector, RetryPolicy
from repro.obs.metrics import CounterWindow
from repro.serve.admission import AdmissionConfig, AdmissionController, Priority
from repro.serve.breaker import BreakerDevice
from repro.serve.served import ServedFilter


def retry_policy(attempts: int, seed: int, clock: Any) -> RetryPolicy:
    """Seeded decorrelated-jitter retries whose backoff burns simulated time."""
    return RetryPolicy(
        max_attempts=attempts, jitter="decorrelated", base_backoff=0.0005,
        max_backoff=0.01, seed=seed, clock=clock,
    )


def crash_point(injector: FaultInjector | None, name: str) -> None:
    """A named step where chaos tests inject process death."""
    if injector is not None:
        injector.maybe_crash(name)


class StackParts:
    """Clock → fault + latency injectors → faulty device → breakers.

    *base_latency* is a device operation's simulated service time.
    Latency starts switched off, so the backend loads for free and
    storms start at ``t=0``; :meth:`serve` loads keys ``0..n_keys-1``,
    switches latency on and puts admission and the :class:`ServedFilter`
    on top.  The tenant fleet has no block device (``with_device=False``).
    """

    def __init__(self, seed: int, base_latency: float = 0.0008, *,
                 with_device: bool = True):
        self.clock = SimulatedClock()
        self.injector = FaultInjector(seed=seed)
        self.latency = LatencyInjector(seed=seed, base=base_latency)
        self.latency.slowdown = 0.0
        self.device = self.breaker_device = None
        if with_device:
            self.device = FaultyBlockDevice(
                injector=self.injector, latency=self.latency, clock=self.clock
            )
            self.breaker_device = BreakerDevice(
                self.device, self.clock, cooldown=0.05, min_samples=4
            )

    def serve(self, backend: Any, *, budget: float, n_keys: int = 0,
              admission_config: AdmissionConfig | None = None,
              negative_cache: Any = None) -> ServedFilter:
        if n_keys:
            backend.put_many([(key, f"value-{key}") for key in range(n_keys)])
        self.latency.slowdown = 1.0
        return ServedFilter(
            backend, self.clock,
            admission=AdmissionController(self.clock, admission_config),
            breaker_device=self.breaker_device, default_budget=budget,
            negative_cache=negative_cache,
        )


class NamespacedStore:
    """LSM-trees kept in namespaces of one shared device.

    The base of :class:`~repro.serve.reshard.ShardedStore` (one tree per
    shard) and :class:`~repro.serve.replica.ReplicatedStore` (one per
    replica).  Each subclass defines ``put``, ``put_many`` and ``lookup``
    itself and names the salt of its trees' retry seeds in
    ``RETRY_SALT``.  ``put_many`` is the bulk load: it groups the items
    by tree and hands each tree its share in one ``LSMTree.put_many``,
    so every tree sees its own writes in their order and only the
    interleaving across trees changes (docs/performance.md, "Bulk load
    for every topology").
    """

    RETRY_SALT: ClassVar[int]

    def __init__(self, device: Any, config: LSMConfig | None,
                 clock: SimulatedClock | None, seed: int):
        self.device = device
        self.clock = clock
        self.seed = seed
        self.config = config if config is not None else LSMConfig(
            memtable_entries=48, retry_attempts=3, seed=seed
        )

    def _open_tree(self, ns: Any, index: int, *, recover: bool) -> LSMTree:
        """Tree *index* over namespace *ns*: recovered from it, or fresh."""
        tree = LSMTree.recover(ns, self.config) if recover else LSMTree(self.config, device=ns)
        # Seeded per tree so concurrent retriers stay decorrelated.
        tree.retry = retry_policy(
            self.config.retry_attempts, self.seed ^ (self.RETRY_SALT + index), self.clock
        )
        return tree

    def get(self, key: Any, default: Any = None) -> Any:
        result = self.lookup(key)
        return result.value if result.state is Answer.PRESENT else default


# The budget of one background batch: a migration or a repair pump.
PUMP_BUDGET = 0.001


class BackgroundGate:
    """Admission for background batches: shed before any foreground work.

    A batch runs only if admission takes it at ``Priority.LOW``, its
    queue delay is within the lag cap (its budget), and the next arrival
    leaves ``runway = 3 × budget`` idle — a batch can overshoot its
    budget by one flush/compaction burst, so one budget is not enough.
    """

    def __init__(self, admission: AdmissionController | None,
                 clock: SimulatedClock | None, budget: float):
        self.admission = admission
        self.clock = clock
        self.budget = budget

    def runway(self, budget: float | None = None) -> float:
        return 3 * (self.budget if budget is None else budget)

    def has_runway(self, arrival: float) -> bool:
        """The runway test alone; never consults admission."""
        return arrival - self.clock.now() >= self.runway()

    def admit(self, arrival: float | None = None, *, budget: float | None = None,
              force: bool = False) -> bool:
        """``force`` (the post-storm drain) skips every check."""
        if self.admission is None or force:
            return True
        now = self.clock.now() if self.clock else 0.0
        decision = self.admission.admit(now if arrival is None else arrival, Priority.LOW)
        lag_cap = self.budget if budget is None else budget
        runway = self.runway(lag_cap)
        headroom = (arrival - now) if arrival is not None else runway
        return decision.admitted and decision.queue_delay <= lag_cap and headroom >= runway


class StormSummary:
    """The one shape of the reshard, replica and tenant storm reports, each
    a dataclass.  ``COUNTED`` maps a field to the counter family and
    labels it sums (docs/observability.md, "Storm reports"), read as the
    change over the storm.  :meth:`as_dict` is the JSON form: the fields
    not ``INTERNAL``, plus the ``DERIVED`` properties.  :meth:`failures`
    names the failed checks.
    """

    COUNTED: ClassVar[dict[str, tuple[str, dict[str, str]]]] = {}
    DERIVED: ClassVar[tuple[str, ...]] = ()
    INTERNAL: ClassVar[tuple[str, ...]] = ()

    def read_counts(self, window: CounterWindow) -> None:
        for name, (family, labels) in self.COUNTED.items():
            setattr(self, name, window.count(family, **labels))

    def as_dict(self) -> dict:
        names = [f.name for f in dataclasses.fields(self) if f.name not in self.INTERNAL]
        return json.loads(json.dumps({n: getattr(self, n) for n in (*names, *self.DERIVED)}))

    def failures(self) -> list[str]:
        return []
