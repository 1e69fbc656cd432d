"""The five served-request workloads and the harness that runs one of them.

Each workload calls only public entry points of :mod:`repro.serve`
(``build_stack``, ``run_storm``, ``run_reshard_storm``,
``run_replica_storm``, ``run_tenant_storm`` and the public ``build_*``
stack builders they use).  :func:`run_rep` runs one storm: a fresh
metrics registry, a fresh stack, the storm, and, with ``traced=True``,
the :class:`~serve_trace.Tracer` wrapped around every layer.

Timing is taken from outside: ``ServedFilter.serve`` and the
foreground ``ShardedStore.put``/``ReplicatedStore.put`` are wrapped at
class level to time each call and record each answer; the stack
builders are wrapped at module level so set-up time can be split from
the storm's run time.  Every wrapper is removed before :func:`run_rep`
returns.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.lsm import LSMConfig
from repro.obs import use_registry
from repro.serve import (
    ReplicatedStore,
    ServedFilter,
    ShardedStore,
    StormPhase,
    build_stack,
    run_replica_storm,
    run_reshard_storm,
    run_storm,
    run_tenant_storm,
)
import repro.serve.replica as replica_module
import repro.serve.reshard as reshard_module
import repro.serve.tenant as tenant_module

from serve_trace import Patcher, Tracer

# Simulated bytes per LSM entry: what the tree charges the device for
# one key/value in a run or page block.
ENTRY_BYTES = 16
# Keys at or above this are never stored by the tenant workload.
TENANT_ABSENT_BASE = 1 << 40
# A run drives this many storms of a workload, each with its own seed
# derived from the run's seed, and reports medians over them, so a slow
# spell of the machine during one storm does not move the result.
# Request counts below are per storm.  tenant-zipf is the slowest per
# request and its set-up is cheap, so it pools a fourth storm.
STORMS = {
    "point-read": 3,
    "cached-storm": 3,
    "reshard-split": 3,
    "replica-killheal": 3,
    "tenant-zipf": 4,
}


def storm_seeds(name: str, seed: int) -> list[int]:
    """The storm seeds of workload *name*'s run with *seed*; disjoint across run seeds."""
    storms = STORMS[name]
    return [seed * storms + i for i in range(storms)]


def scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


@dataclass
class Outcome:
    """What a workload hands back after its storm."""

    storm: Any  # repro.serve.StormReport
    served: ServedFilter
    device: Any  # FaultyBlockDevice, or None (tenant fleet has none)
    trees: list
    live_keys: int
    space_bytes: float
    absent_from: int  # every queried key below this is stored
    checks: dict[str, bool] = field(default_factory=dict)
    report: dict = field(default_factory=dict)


class Probe:
    """The always-on wrappers: serve calls, foreground puts, set-up."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.in_setup = False
        self.setup_s: list[float] = []
        self.stack: tuple = ()
        self.serve_s: list[float] = []
        self.answers: list[tuple] = []  # (key, answer, outcome, queue_delay)
        self.put_s: list[float] = []
        self.run_s = 0.0
        self.cpu_wall_ratio = 0.0  # process_time / wall over the storm call

    def install(self, patcher: Patcher) -> None:
        perf = time.perf_counter

        def serve(original):
            def wrapper(obj, key, *args, **kwargs):
                start = perf()
                response = original(obj, key, *args, **kwargs)
                self.serve_s.append(perf() - start)
                self.answers.append((
                    key, response.answer.value, response.outcome.value,
                    response.queue_delay,
                ))
                return response
            return wrapper

        def put(original):
            def wrapper(obj, *args, **kwargs):
                if self.in_setup:
                    return original(obj, *args, **kwargs)
                start = perf()
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    self.put_s.append(perf() - start)
            return wrapper

        patcher.wrap(ServedFilter, "serve", serve)
        patcher.wrap(ShardedStore, "put", put)
        patcher.wrap(ReplicatedStore, "put", put)
        for module, name in (
            (reshard_module, "build_sharded_stack"),
            (replica_module, "build_replicated_stack"),
            (tenant_module, "build_tenant_stack"),
        ):
            patcher.wrap(module, name, self._timed_setup)

    def _set_phase(self, setup: bool) -> None:
        self.in_setup = setup
        if self.tracer is not None:
            self.tracer.phase = "setup" if setup else "drive"

    def _timed_setup(self, build: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._set_phase(True)
            start = time.perf_counter()
            try:
                self.stack = build(*args, **kwargs)
            finally:
                self.setup_s.append(time.perf_counter() - start)
                self._set_phase(False)
            return self.stack
        return wrapper

    def setup(self, build: Callable, *args, **kwargs):
        """Run a stack builder directly, timed as set-up."""
        return self._timed_setup(build)(*args, **kwargs)

    def drive(self, storm: Callable, *args, **kwargs):
        """Run a storm; ``run_s`` excludes any set-up the storm does."""
        gc.collect()
        setup_before = sum(self.setup_s)
        cpu = time.process_time()
        start = time.perf_counter()
        result = storm(*args, **kwargs)
        wall = time.perf_counter() - start
        self.run_s = wall - (sum(self.setup_s) - setup_before)
        self.cpu_wall_ratio = (time.process_time() - cpu) / wall
        return result


def _lsm_outcome(served, tree, device, storm, n_keys) -> Outcome:
    return Outcome(
        storm=storm, served=served, device=device, trees=[tree],
        live_keys=n_keys, space_bytes=device.used_bytes, absent_from=n_keys,
    )


# -- the five workloads ---------------------------------------------------------------


def point_read(seed: int, scale: float, probe: Probe) -> Outcome:
    n_keys = scaled(20_000, scale)
    served, tree, device, *_ = probe.setup(build_stack, seed=seed, n_keys=n_keys)
    phases = (StormPhase("calm", scaled(40_000, scale), mean_interarrival=0.004),)
    storm = probe.drive(run_storm, served, phases, seed=seed, n_keys=n_keys)
    return _lsm_outcome(served, tree, device, storm, n_keys)


def cached_storm(seed: int, scale: float, probe: Probe) -> Outcome:
    n_keys = scaled(20_000, scale)
    served, tree, device, *_ = probe.setup(
        build_stack, seed=seed, n_keys=n_keys,
        lsm_config=LSMConfig(
            memtable_entries=64, retry_attempts=3, seed=seed, page_entries=16
        ),
        # Block cache at 10% of the data bytes, so data is 10x the cache.
        cache_mb=0.10 * n_keys * ENTRY_BYTES / 2**20,
        negative_cache_entries=4096,
    )
    n = scaled(13_334, scale)
    phases = (
        StormPhase("calm", n),
        StormPhase("storm", n, transient_read=0.3, slowdown=3.0, spike_prob=0.02),
        StormPhase("recovery", n),
    )
    storm = probe.drive(run_storm, served, phases, seed=seed, n_keys=n_keys)
    return _lsm_outcome(served, tree, device, storm, n_keys)


def reshard_split(seed: int, scale: float, probe: Probe) -> Outcome:
    n_keys = scaled(4_000, scale)
    n = scaled(6_667, scale)
    phases = (
        StormPhase("calm", n),
        StormPhase("storm", n, transient_read=0.2, slowdown=2.0),
        StormPhase("recovery", n),
    )
    storm, report, _coordinator = probe.drive(
        run_reshard_storm, seed, n_keys, 4, phases=phases,
        reshard_at=scaled(1_334, scale), kind="split", write_fraction=0.1, drain=True,
    )
    served, _store, _coord, device, *_ = probe.stack
    store = served.backend
    out = Outcome(
        storm=storm, served=served, device=device,
        trees=list(store.shards.values()), live_keys=n_keys,
        space_bytes=device.used_bytes, absent_from=n_keys,
    )
    out.checks["migration_completed"] = report.completed
    out.report = report.as_dict()
    out.report["owner_reads_per_lookup"] = report.double_read_amplification
    return out


def replica_killheal(seed: int, scale: float, probe: Probe) -> Outcome:
    n_keys = scaled(2_000, scale)
    # Full-length storms: its simulated tail comes from a few background
    # stalls per storm, so shorter storms spread too much across seeds.
    phases = (StormPhase("killheal", scaled(20_000, scale), mean_interarrival=0.002),)
    storm, report, store, _repairer = probe.drive(
        run_replica_storm, seed, n_keys, 3, replication=3, read_quorum=2,
        phases=phases, kill_at=scaled(5_000, scale), heal_at=scaled(15_000, scale),
        write_fraction=0.1, drain=True,
    )
    served, _store, _repairer, device, *_ = probe.stack
    out = Outcome(
        storm=storm, served=served, device=device,
        trees=[node.tree for node in store.nodes.values()], live_keys=n_keys,
        space_bytes=device.used_bytes, absent_from=n_keys,
    )
    out.checks["converged"] = report.converged
    out.checks["backlog_zero"] = report.backlog == 0
    out.report = report.as_dict()
    return out


def tenant_zipf(seed: int, scale: float, probe: Probe) -> Outcome:
    n = scaled(2_000, scale)
    phases = (
        StormPhase("calm", n, mean_interarrival=0.005),
        StormPhase("storm", n, mean_interarrival=0.005,
                   transient_read=0.01, slowdown=1.5, spike_prob=0.02),
        StormPhase("recovery", n, mean_interarrival=0.005),
    )
    storm, report, store = probe.drive(
        run_tenant_storm, seed, n_tenants=scaled(1_000, scale), keys_per_tenant=4,
        mode="router", phases=phases, zipf_skew=1.1, churn_every=100, drain=True,
    )
    served = probe.stack[0]
    out = Outcome(
        storm=storm, served=served, device=None, trees=[],
        live_keys=store.total_keys(), space_bytes=store.router.size_in_bits / 8,
        absent_from=TENANT_ABSENT_BASE,
    )
    out.checks["audit_false_negatives_zero"] = report.audit_false_negatives == 0
    out.checks["invariant_failures_zero"] = report.invariant_failures == 0
    out.report = report.as_dict()
    return out


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, float, Probe], Outcome]] = {
    "point-read": point_read,
    "cached-storm": cached_storm,
    "reshard-split": reshard_split,
    "replica-killheal": replica_killheal,
    "tenant-zipf": tenant_zipf,
}


@dataclass
class Rep:
    """One storm's raw measurements."""

    outcome: Outcome
    probe: Probe
    registry: dict
    tracer: Tracer | None

    @property
    def digest(self) -> str:
        """sha256 over (answer, outcome) of every request, in order."""
        h = hashlib.sha256()
        for _key, answer, outcome, _delay in self.probe.answers:
            h.update(f"{answer}:{outcome}\n".encode())
        return h.hexdigest()


def run_rep(workload: Callable[[int, float, Probe], Outcome], seed: int, scale: float,
            *, traced: bool = False, keep_requests: int = 200) -> Rep:
    """One storm of *workload* (a ``WORKLOADS`` value) in a fresh registry."""
    tracer = Tracer(keep_requests) if traced else None
    probe = Probe(tracer)
    with use_registry() as registry, Patcher() as patcher:
        probe.install(patcher)
        if tracer is not None:
            tracer.install(patcher)
        outcome = workload(seed, scale, probe)
        snapshot = registry.snapshot()
    return Rep(outcome, probe, snapshot, tracer)
