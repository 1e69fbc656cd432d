"""Multi-tenant serving: a Flat-Bloofi filter-of-filters router for the fleet.

The fleet problem: thousands-to-millions of tenants, each with its own
filter, and a global question — *which tenant may hold this key?*
``ShardedFilter`` answers it by probing every shard, O(N) filter reads
per lookup.  This module answers it from one bit-sliced index:

* :class:`TenantRouter` keeps three things: the index
  (:class:`~repro.core.bloofi.BloofiTree`, where each tenant's summary
  Bloom filter is one column of the rows), each tenant's
  *authoritative* filter (any registry family — the differential suite
  runs them all), and the O(N) flat control.  A lookup ANDs the key's k
  rows, ``ceil(S / 512)`` probes over *S* slots, and confirms each
  surviving candidate against its authoritative filter.  Provisioning
  is one path, :meth:`TenantRouter.add_tenants`: the index hashes a
  whole batch of tenants' keys in one pass and scatters the bits in one
  step (``add_tenant`` is a batch of one; docs/performance.md, "Bulk
  load for every topology").  Removing a tenant clears its column.
* :class:`TenantStore` is the deadline-aware backend
  (``lookup(key, deadline=..., degrade_on_error=...)`` →
  :class:`~repro.common.clock.LookupResult`) that charges simulated
  latency per filter probe, draws chaos from the shared
  :class:`~repro.common.faults.FaultInjector`, and resolves candidates
  against ground truth.  Tri-state contract as everywhere else:
  PRESENT on a ground-truth hit, ABSENT only when every tenant was
  ruled out cleanly, MAYBE whenever chaos or the deadline got in the
  way.  An unreadable index line reads as all ones, so its tenants stay
  candidates; a degraded authoritative filter or store read *forces*
  its tenant into the candidate set — degradation can cost probes,
  never a false ABSENT.
* :func:`run_tenant_storm` drives Zipf-distributed multi-tenant traffic
  (per-tenant quota buckets at admission, tenant churn mid-storm) and
  audits the invariants after the drain.

``serve-sim --tenants N --tenant-zipf S`` is the CLI surface;
``benchmarks/bench_r5_tenant.py`` measures router-vs-flat probe counts
and goodput; docs/robustness.md tells the story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.common.clock import Answer, Deadline, LookupResult, SimulatedClock, combine
from repro.common.faults import FaultInjector, LatencyInjector
from repro.core.bloofi import BloofiTree
from repro.filters.bloom import BloomFilter, insert_each
from repro.obs.metrics import CounterWindow, MetricsRegistry, bind_handles, default_registry
from repro.serve.admission import AdmissionConfig, Priority, TenantQuota
from repro.serve.sim import StormPhase, StormReport, storm_arrivals
from repro.serve.stack import StackParts, StormSummary
from repro.workloads.synthetic import zipf_queries


@dataclass(frozen=True)
class TenantConfig:
    """Fleet geometry: every tenant's summary filter is
    ``BloomFilter(leaf_capacity, epsilon, seed=seed)``."""

    leaf_capacity: int = 64
    epsilon: float = 0.01
    seed: int = 0


@dataclass
class TenantLookup:
    """One fleet lookup's candidates plus full probe accounting.

    ``tenants`` is the final candidate set (summary said MAYBE *and* the
    authoritative filter could not rule the tenant out).  ``probes`` is
    every filter test charged: the index's, one per 512-slot line (the
    flat control's, one per tenant), and the authoritative
    confirmations — the number the router-vs-flat benchmark compares.
    ``unreadable`` counts the index reads that faulted and ``forced``
    the tenants whose authoritative filter did; degradation only ever
    adds names to ``tenants``, it never removes them.
    """

    tenants: list = field(default_factory=list)
    probes: int = 0
    auth_probes: int = 0
    unreadable: int = 0
    forced: list = field(default_factory=list)


class TenantRouter:
    """A Flat-Bloofi index over the fleet's summaries, plus each
    tenant's authoritative filter.

    *filter_factory*, if given, builds each tenant's authoritative
    filter (``factory(tenant) -> Filter``); the default is a Bloom
    filter sized like the summaries.  The differential suite injects
    every registry family through this hook.
    """

    def __init__(
        self,
        config: TenantConfig | None = None,
        *,
        filter_factory: Callable[[Any], Any] | None = None,
    ):
        self.config = config if config is not None else TenantConfig()
        self.index = BloofiTree(
            self.config.leaf_capacity, self.config.epsilon, seed=self.config.seed
        )
        self._filter_factory = filter_factory
        self._auth: dict[Any, Any] = {}
        # Bumped on every mutation; versions the flat control's words
        # and any caller-side caches (negative cache epoch).
        self.mutations = 0
        self._flat_cache: tuple[int, list, np.ndarray] | None = None

    # -- fleet membership --------------------------------------------------------

    @property
    def n_tenants(self) -> int:
        return len(self._auth)

    def __contains__(self, tenant) -> bool:
        return tenant in self._auth

    def tenant_ids(self) -> list:
        return list(self._auth)

    def authoritative(self, tenant) -> Any:
        return self._auth[tenant]

    def _make_auth(self, tenant) -> Any:
        if self._filter_factory is not None:
            return self._filter_factory(tenant)
        return BloomFilter(
            self.config.leaf_capacity, self.config.epsilon,
            seed=self.config.seed ^ 0xA07,
        )

    def add_tenant(self, tenant) -> None:
        self.add_tenants([(tenant, ())])

    def add_tenants(self, batch) -> None:
        """Provision every ``(tenant, keys)`` of *batch*, in order.

        The result is what ``add_tenant(tenant)`` then
        ``insert_many(tenant, keys)`` per tenant leaves: the same rows,
        slots, filter words and lengths, and ``mutations`` (one step per
        tenant, plus one if it has keys).  The index hashes the whole
        batch in one pass, and so do the default Bloom authoritative
        filters; a *filter_factory* filter takes one ``insert_many``.

        Nothing changes when the batch fails: every authoritative filter
        is filled (an insert may raise ``FilterFullError``) before the
        index takes the batch, and the index raises :class:`ValueError`
        for a repeated or provisioned tenant before it changes.
        """
        batch = [(tenant, list(keys)) for tenant, keys in batch]
        key_lists = [keys for _tenant, keys in batch]
        auths = [self._make_auth(tenant) for tenant, _keys in batch]
        if self._filter_factory is None:
            insert_each(auths, key_lists)
        else:
            for auth, keys in zip(auths, key_lists):
                if keys:
                    auth.insert_many(keys)
        self.index.add_tenants(batch)
        for (tenant, keys), auth in zip(batch, auths):
            self._auth[tenant] = auth
            self.mutations += 2 if keys else 1

    def remove_tenant(self, tenant) -> None:
        self.index.remove_tenant(tenant)
        del self._auth[tenant]
        self.mutations += 1

    def insert(self, tenant, key) -> None:
        """Insert into both the summary column and the authoritative filter.

        The mutation counter bumps even if the authoritative insert
        throws (e.g. FilterFullError): the summary's bits changed in
        place either way, and stale flat-control words would make the
        flat oracle disagree with the index.
        """
        self.index.insert(tenant, key)
        try:
            self._auth[tenant].insert(key)
        finally:
            self.mutations += 1

    def insert_many(self, tenant, keys) -> None:
        keys = list(keys)
        if not keys:
            return
        self.index.insert_many(tenant, keys)
        try:
            self._auth[tenant].insert_many(keys)
        finally:
            self.mutations += 1

    # -- aggregate properties ----------------------------------------------------

    @property
    def supports_deletes(self) -> bool:
        """True only while *every* authoritative filter still takes
        deletes.  Recomputed from the live fleet on each access — the
        ``ShardedFilter`` lesson: a tenant added (or swapped) after a
        cached answer can silently change it (tests/test_tenant.py).
        """
        return bool(self._auth) and all(
            getattr(f, "supports_deletes", False) for f in self._auth.values()
        )

    @property
    def size_in_bits(self) -> int:
        return self.index.size_in_bits + sum(f.size_in_bits for f in self._auth.values())

    def check_invariants(self) -> list[str]:
        """The index's slot audit, plus its agreement with the
        authoritative registry."""
        failures = self.index.check_invariants()
        if sorted(self.index.tenant_ids(), key=repr) != sorted(self._auth, key=repr):
            failures.append("index and authoritative registry disagree")
        return failures

    # -- lookups -----------------------------------------------------------------

    def query(
        self,
        key,
        *,
        fault: Callable[[str, Any], bool] | None = None,
    ) -> TenantLookup:
        """Which tenants may hold *key*?  ``ceil(S / 512)`` index probes
        over *S* slots, then one authoritative probe per candidate.

        *fault*, if given, is called as ``fault(kind, detail)`` with
        ``kind`` in ``{"row", "auth"}``; a True return degrades that
        read.  An unreadable index line reads as all ones (its tenants
        stay candidates); a degraded authoritative filter keeps its
        tenant a candidate (listed in ``forced``).  The candidate set
        under faults is always a superset of the fault-free one.
        """
        look = self.index.candidates(key, fault=fault)
        result = TenantLookup(probes=look.probes, unreadable=look.unreadable)
        for tenant in look.tenants:
            if fault is not None and fault("auth", tenant):
                result.tenants.append(tenant)
                result.forced.append(tenant)
                continue
            result.probes += 1
            result.auth_probes += 1
            if self._auth[tenant].may_contain(key):
                result.tenants.append(tenant)
        return result

    def query_flat(self, key) -> TenantLookup:
        """The O(N) control: test every tenant's summary on its own,
        confirm positives against their authoritative filters.  Same
        bits, read tenant by tenant instead of row by row — the oracle
        the differential suite and the R5 benchmark compare
        :meth:`query` against.
        """
        result = TenantLookup()
        cache = self._flat_cache
        if cache is None or cache[0] != self.mutations:
            cache = self._flat_cache = (self.mutations, *self.index.tenant_words())
        _mutations, order, words = cache
        if not order:
            return result
        result.probes = len(order)
        pos = self.index.positions(key)
        masks = np.uint64(1) << (pos & 63).astype(np.uint64)
        hits = ((words[:, pos >> 6] & masks) == masks).all(axis=1)
        for i in np.flatnonzero(hits):
            tenant = order[int(i)]
            result.probes += 1
            result.auth_probes += 1
            if self._auth[tenant].may_contain(key):
                result.tenants.append(tenant)
        return result


class _TenantMetrics:
    """Default-registry handles for one lookup mode, rebound when the
    registry is swapped."""

    __slots__ = ("registry", "lookups", "probes")

    def __init__(self, registry: MetricsRegistry, mode: str):
        self.registry = registry
        self.lookups = registry.counter(
            "repro_tenant_lookups_total",
            "fleet lookups answered by the tenant store, by mode",
            labels=("mode",),
        ).labels(mode=mode)
        self.probes = registry.counter(
            "repro_tenant_probes_total",
            "filter probes spent answering fleet lookups, by mode",
            labels=("mode",),
        ).labels(mode=mode)


class TenantStore:
    """Deadline-aware ground-truth store behind a :class:`TenantRouter`.

    ``mode`` picks the lookup path — ``"router"`` (the bit-sliced index) or
    ``"flat"`` (full fan-out control); both resolve candidates against
    the same per-tenant ground-truth sets, so both answer PRESENT/ABSENT
    identically when nothing degrades — flat just pays O(N) probe
    latency for it.
    """

    def __init__(
        self,
        router: TenantRouter,
        clock: SimulatedClock,
        *,
        injector: FaultInjector | None = None,
        latency: LatencyInjector | None = None,
        mode: str = "router",
    ):
        if mode not in ("router", "flat"):
            raise ValueError("mode must be 'router' or 'flat'")
        self.router = router
        self.clock = clock
        self.injector = injector
        self.latency = latency
        self.mode = mode
        self.truth: dict[Any, set] = {}
        self._obs: _TenantMetrics | None = None

    def _handles(self, registry: MetricsRegistry) -> _TenantMetrics:
        return _TenantMetrics(registry, self.mode)

    # -- mutations (epoch-versioned for the negative cache) ----------------------

    @property
    def mutation_epoch(self) -> int:
        return self.router.mutations

    def add_tenant(self, tenant, keys=()) -> None:
        self.add_tenants([(tenant, keys)])

    def add_tenants(self, batch) -> None:
        """Provision every ``(tenant, keys)`` through
        :meth:`TenantRouter.add_tenants`; each tenant's ground truth is
        its keys."""
        batch = [(tenant, list(keys)) for tenant, keys in batch]
        self.router.add_tenants(batch)
        for tenant, keys in batch:
            self.truth[tenant] = set(keys)

    def remove_tenant(self, tenant) -> None:
        self.router.remove_tenant(tenant)
        del self.truth[tenant]

    def put(self, tenant, key) -> None:
        self.router.insert(tenant, key)
        self.truth[tenant].add(key)

    @property
    def n_tenants(self) -> int:
        return self.router.n_tenants

    def total_keys(self) -> int:
        return sum(len(s) for s in self.truth.values())

    # -- the deadline-aware lookup ----------------------------------------------

    def _charge(self, kind: str, deadline: Deadline | None) -> bool:
        """Advance the clock by one probe's latency; True if still in
        budget (or no deadline)."""
        if self.latency is not None:
            self.clock.advance(
                self.latency.draw(self.clock.now(), "probe", (kind,))
            )
        return deadline is None or not deadline.expired()

    def lookup(
        self,
        key,
        *,
        deadline: Deadline | None = None,
        degrade_on_error: bool = True,
    ) -> LookupResult:
        """Resolve *key* across the fleet under a deadline, through
        :func:`~repro.common.clock.combine`.  The evidence is the index
        lookup (incomplete when a read degraded) followed by each
        candidate's ground truth, and ABSENT needs all of it: a ground-truth hit is
        PRESENT even if other candidates degraded.  ``runs_probed``
        counts filter probes charged, ``runs_skipped`` counts candidates
        left unresolved.
        """
        m = bind_handles(self, self._handles)
        m.lookups.inc()
        fault = None
        if self.injector is not None and self.mode == "router":
            def fault(kind, detail):
                return self.injector.draw_read((f"tenant_{kind}", detail))

        look = (
            self.router.query(key, fault=fault) if self.mode == "router"
            else self.router.query_flat(key)
        )
        m.probes.inc(look.probes)
        evidence = ((result, True) for result in self._sources(key, look, deadline))
        return combine(evidence, 1 + len(look.tenants))

    def _sources(self, key, look: TenantLookup, deadline: Deadline | None):
        """One :class:`LookupResult` per source of :meth:`lookup`: the
        index lookup, then each candidate, charging each probe's latency only
        when the combine rule asks for that source."""
        # Charge simulated time probe by probe; the deadline can expire
        # mid-scan, which in flat mode at fleet scale it routinely does.
        for charged in range(look.probes):
            if not self._charge("filter", deadline):
                yield LookupResult(
                    Answer.MAYBE, complete=False, reason="deadline",
                    runs_probed=charged + 1, runs_skipped=len(look.tenants),
                )
                return
        degraded = look.unreadable > 0 or bool(look.forced)
        yield LookupResult(
            Answer.MAYBE if degraded else Answer.ABSENT, complete=not degraded,
            reason="unavailable" if degraded else None, runs_probed=look.probes,
        )
        for i, tenant in enumerate(look.tenants):
            if not self._charge("store", deadline):
                yield LookupResult(
                    Answer.MAYBE, complete=False, reason="deadline",
                    runs_probed=1, runs_skipped=len(look.tenants) - i,
                )
                return
            if self.injector is not None and self.injector.draw_read(
                ("tenant_store", tenant)
            ):
                yield LookupResult(
                    Answer.MAYBE, complete=False, reason="unavailable",
                    runs_probed=1, runs_skipped=1,
                )
            elif key in self.truth.get(tenant, ()):
                yield LookupResult(Answer.PRESENT, tenant, runs_probed=1)
            else:
                yield LookupResult(Answer.ABSENT, runs_probed=1)


# -- the storm harness ---------------------------------------------------------


@dataclass
class TenantReport(StormSummary):
    """Fleet-level outcome of one tenant storm; ``lookups`` and ``probes``
    leave out the post-drain audit's."""

    COUNTED = {
        "lookups": ("repro_tenant_lookups_total", {}),
        "probes": ("repro_tenant_probes_total", {}),
    }
    DERIVED = ("mean_probes",)
    INTERNAL = ("lookups", "probes")

    n_tenants_start: int = 0
    n_tenants_final: int = 0
    tenants_added: int = 0
    tenants_removed: int = 0
    quota_sheds: int = 0
    lookups: int = 0
    probes: int = 0
    invariant_failures: int = 0
    audit_false_negatives: int = 0
    audited_keys: int = 0

    @property
    def mean_probes(self) -> float:
        """Filter probes per fleet lookup."""
        return self.probes / self.lookups if self.lookups else 0.0

    def failures(self) -> list[str]:
        failed = []
        if self.audit_false_negatives:
            failed.append(f"{self.audit_false_negatives} audited keys were lost")
        if self.invariant_failures:
            failed.append(f"{self.invariant_failures} index invariant failures")
        return failed


TENANT_STORM = (
    StormPhase("calm", 200, transient_read=0.0),
    StormPhase("storm", 300, transient_read=0.4, slowdown=3.0, spike_prob=0.05),
    StormPhase("recovery", 200, transient_read=0.0),
)


def build_tenant_stack(
    seed: int = 0,
    *,
    n_tenants: int = 64,
    keys_per_tenant: int = 8,
    mode: str = "router",
    quota: TenantQuota | None = None,
    budget: float = 0.050,
    probe_latency: float = 2e-5,
    admission_config: AdmissionConfig | None = None,
):
    """Assemble the multi-tenant serving stack, fleet pre-loaded.

    Tenant *t* (ints ``0..n_tenants-1``) owns keys
    ``t*keys_per_tenant .. (t+1)*keys_per_tenant - 1`` — ground truth
    the storm's false-negative audit can recompute.  *probe_latency* is
    the per-filter-probe base cost: small (a memory read, not an I/O),
    but at fleet scale it is exactly what makes O(N) flat fan-out blow
    its deadline while the router cruises.
    Returns ``(served, store, injector, latency, clock)``.
    """
    parts = StackParts(seed, probe_latency, with_device=False)
    router = TenantRouter(TenantConfig(leaf_capacity=max(64, keys_per_tenant), seed=seed))
    store = TenantStore(
        router, parts.clock, injector=parts.injector, latency=parts.latency,
        mode=mode,
    )
    store.add_tenants(
        (tenant, range(tenant * keys_per_tenant, (tenant + 1) * keys_per_tenant))
        for tenant in range(n_tenants)
    )
    if admission_config is None:
        admission_config = AdmissionConfig(tenant_quota=quota)
    elif quota is not None and admission_config.tenant_quota is None:
        admission_config.tenant_quota = quota
    served = parts.serve(store, budget=budget, admission_config=admission_config)
    return served, store, parts.injector, parts.latency, parts.clock


def run_tenant_storm(
    seed: int = 0,
    *,
    n_tenants: int = 64,
    keys_per_tenant: int = 8,
    mode: str = "router",
    phases=TENANT_STORM,
    zipf_skew: float = 1.1,
    churn_every: int = 0,
    quota: TenantQuota | None = None,
    budget: float = 0.050,
    probe_latency: float = 2e-5,
    present_fraction: float = 0.5,
    priority_weights: tuple[float, float, float] = (0.2, 0.6, 0.2),
    drain: bool = True,
) -> tuple[StormReport, TenantReport, TenantStore]:
    """Zipf multi-tenant traffic with optional churn; audit at the end.

    Every request is attributed to a Zipf(*zipf_skew*)-picked requesting
    tenant (billed against its quota bucket); the queried key is a live
    tenant's key with probability *present_fraction*, else guaranteed
    absent.  With ``churn_every > 0``, every that-many requests one
    tenant is deprovisioned (its quota bucket dropped) and a fresh one
    provisioned with new keys — mid-storm, under fire.

    The audit after the (optional) *drain*: zero invariant failures in
    the index, and — with chaos switched off — every surviving
    ground-truth key still answered PRESENT (sampled at fleet scale).
    A present key answered ABSENT mid-storm counts as a false negative
    in the :class:`~repro.serve.sim.StormReport`, exactly like every
    other storm harness in this repo.
    """
    window = CounterWindow()
    served, store, injector, latency, clock = build_tenant_stack(
        seed,
        n_tenants=n_tenants, keys_per_tenant=keys_per_tenant,
        mode=mode, quota=quota, budget=budget,
        probe_latency=probe_latency,
    )
    rng = random.Random(seed ^ 0x7E4A47)
    report = StormReport()
    tenant_report = TenantReport(n_tenants_start=store.n_tenants)
    priorities = (Priority.HIGH, Priority.NORMAL, Priority.LOW)

    live = list(range(n_tenants))
    next_tenant = n_tenants
    next_key = n_tenants * keys_per_tenant
    keys_of = {t: list(store.truth[t]) for t in live}
    absent_base = 1 << 40  # disjoint from every key the fleet will ever own

    total_requests = sum(p.n_requests for p in phases)
    # Zipf ranks over the *initial* fleet; churned-in tenants inherit a
    # departed rank slot (live list index) so the skew profile persists.
    rank_seq = zipf_queries(
        list(range(max(1, n_tenants))), max(1, total_requests),
        zipf_skew, seed=seed,
    )

    def churn(arrival: float) -> None:
        nonlocal next_tenant, next_key
        if len(live) > 1:
            victim = live.pop(rng.randrange(len(live)))
            store.remove_tenant(victim)
            del keys_of[victim]
            if served.admission is not None:
                served.admission.forget_tenant(victim)
            tenant_report.tenants_removed += 1
        fresh_keys = range(next_key, next_key + keys_per_tenant)
        store.add_tenant(next_tenant, fresh_keys)
        keys_of[next_tenant] = list(fresh_keys)
        live.append(next_tenant)
        next_tenant += 1
        next_key += keys_per_tenant
        tenant_report.tenants_added += 1
        default_registry().counter(
            "repro_tenant_churn_total",
            "tenant provision/deprovision events during storms",
            labels=("op",),
        ).labels(op="cycle").inc()

    arrivals = storm_arrivals(
        phases, rng, report, injector, latency,
        ("tenant_row", "tenant_store"), clock.now(),
    )
    for request_index, (phase_report, arrival) in enumerate(arrivals):
        if churn_every and request_index and request_index % churn_every == 0:
            churn(arrival)
        requester = live[rank_seq[request_index] % len(live)]
        present = rng.random() < present_fraction
        if present:
            owner = live[rng.randrange(len(live))]
            key = keys_of[owner][rng.randrange(len(keys_of[owner]))]
        else:
            key = absent_base + rng.randrange(1 << 30)
        priority = rng.choices(priorities, weights=priority_weights)[0]
        response = served.serve(
            key, priority=priority, arrival=arrival, tenant=requester,
        )
        report.record(phase_report, response, present)

    tenant_report.quota_sheds = (
        sum(served.admission.stats.shed_by_tenant.values())
        if served.admission is not None else 0
    )
    tenant_report.n_tenants_final = store.n_tenants
    tenant_report.read_counts(window)

    if drain:
        # Chaos off for the audit: what must hold is a property of the
        # structures, not of a lucky fault draw.
        injector.transient_read = 0.0
        latency.slowdown = 0.0
        latency.spike_prob = 0.0
        tenant_report.invariant_failures = len(store.router.check_invariants())
        all_keys = [(t, k) for t in live for k in keys_of[t]]
        sample = (
            all_keys if len(all_keys) <= 2_000
            else rng.sample(all_keys, 2_000)
        )
        for tenant, key in sample:
            result = store.lookup(key)
            tenant_report.audited_keys += 1
            if result.state is Answer.ABSENT or (
                result.state is Answer.PRESENT and result.value != tenant
            ):
                tenant_report.audit_false_negatives += 1

    registry = default_registry()
    registry.gauge(
        "repro_tenant_fleet_size", "live tenants in the fleet"
    ).set(store.n_tenants)
    served.publish_gauges()
    return report, tenant_report, store
