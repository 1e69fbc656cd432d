"""Online resharding: crash-safe shard split/merge under live traffic.

ROADMAP #4.  A :class:`ShardedStore` spreads keys across per-shard
LSM-trees that share one (faulty, breaker-guarded) device through
:class:`~repro.common.storage.NamespacedDevice` views, routed by a
versioned :class:`~repro.core.routing.Router`.  A
:class:`ReshardCoordinator` migrates ownership online through a durable
state machine::

    PLANNED -> DOUBLE_WRITE -> BACKFILL -> VERIFY -> CUTOVER -> RETIRE -> DONE

Every transition and every few batches of copy progress are journaled
to the meta namespace (a :class:`~repro.common.records.Journal` of
``("reshard", seq)`` records, trimmed once the migration is DONE) and
the routing table itself is a
:class:`~repro.common.records.DurableManifest`, so a crash at
*any* point recovers via :meth:`ShardedStore.recover` +
:meth:`ReshardCoordinator.recover` and the migration resumes where the
journal left off — every step is idempotent, so replaying a half-done
step converges.

Safety invariant (the same one-sided-error contract the rest of the repo
obeys): while a migration is in flight, writes **double-apply** to the
old and new owner and reads **double-read** both, answering ABSENT only
when *both* authoritative scans agree — so mid-migration degradation can
cost a MAYBE or a duplicate copy, never an ABSENT-while-present.

Migration I/O is background work: :meth:`ReshardCoordinator.pump` runs
one bounded batch per call, gated through the admission controller at
``Priority.LOW`` (shed first when the stack is overloaded) and bounded
by a deadline budget, so a storm slows resharding down instead of
resharding amplifying the storm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.apps.lsm import LSMConfig, LSMTree, ScrubReport
from repro.common.clock import (
    Deadline,
    DeadlineExceeded,
    LookupResult,
    SimulatedClock,
    combine,
)
from repro.common.faults import (
    CircuitOpenError,
    FaultInjector,
    RetryPolicy,
    TransientIOError,
)
from repro.common.records import JSON, META_ATTEMPTS, DurableManifest, Journal, scrub_block
from repro.common.storage import NamespacedDevice
from repro.core.routing import HashRangeRouter, Router, router_from_manifest
from repro.obs.metrics import CounterWindow, Family, Handles, bind_handles
from repro.serve.admission import AdmissionController
from repro.serve.sim import CALM_STORM_RECOVERY, StormDriver
from repro.serve.stack import (
    PUMP_BUDGET,
    BackgroundGate,
    NamespacedStore,
    StackParts,
    StormSummary,
    crash_point,
)


_META_NS = "meta"


class MigrationStep(enum.Enum):
    PLANNED = "planned"          # plan journaled, target shard exists
    DOUBLE_WRITE = "double_write"  # writes double-apply, reads double-read
    BACKFILL = "backfill"        # copy moving keys old owner -> new owner
    VERIFY = "verify"            # re-scan: every moving key present+equal
    CUTOVER = "cutover"          # swap routing table, persist new epoch
    RETIRE = "retire"            # rewrite the old side without moved keys / drop it
    DONE = "done"


# Steps during which both owners are written / consulted.  RETIRE is
# single-owner on purpose: cutover has landed, the new routing table is
# authoritative, and the old copies are being dropped.
_BOTH_OWNER_STEPS = frozenset({
    MigrationStep.DOUBLE_WRITE, MigrationStep.BACKFILL,
    MigrationStep.VERIFY, MigrationStep.CUTOVER,
})

_MISSING = object()  # _batched_get sentinel: absent-or-tombstoned


class _ReshardMetrics(Handles):
    """The store's and the coordinator's families."""

    lookups = Family("counter", "repro_reshard_lookups_total",
                     "lookups served by the sharded store")
    owner_reads = Family("counter", "repro_reshard_owner_reads_total",
                         "shard scans by sharded lookups (two per double read)")
    double_reads = Family("counter", "repro_reshard_double_reads_total",
                          "lookups that consulted both the old and new owner")
    pump_sheds = Family("counter", "repro_reshard_pump_sheds_total",
                        "migration batches shed by admission control")
    cutovers = Family("counter", "repro_reshard_cutover_epoch_bumps_total",
                      "routing-table epoch bumps at cutover")
    steps = Family("counter", "repro_reshard_steps_total",
                   "migration state-machine transitions, by step entered", ("step",))
    keys = Family("counter", "repro_reshard_keys_total",
                  "keys processed by migration, by action", ("action",))
    migration_active = Family("gauge", "repro_reshard_migration_active",
                              "1 while a migration is in flight")
    routing_epoch = Family("gauge", "repro_reshard_routing_epoch", "active routing-table epoch")
    scan_remaining = Family("gauge", "repro_reshard_scan_remaining",
                            "keys left in the current migration scan step")


@dataclass
class MigrationState:
    """One in-flight migration: an (old_router, new_router) pair plus
    journal-backed progress.  A key must move iff the routers disagree
    about its owner."""

    kind: str                     # "split" | "merge"
    source: int
    target: int
    old_router: Router
    new_router: Router
    step: MigrationStep = MigrationStep.PLANNED
    floor: Any = None             # last key durably copied or verified in this step

    def moving(self, key: Any) -> bool:
        return self.old_router.owner(key) != self.new_router.owner(key)


class ShardedStore(NamespacedStore):
    """Per-shard LSM-trees behind a versioned router, one shared device.

    Exposes the deadline-aware ``lookup(key, deadline=...,
    degrade_on_error=...)`` contract, so it can sit directly behind a
    :class:`~repro.serve.served.ServedFilter`.
    """

    RETRY_SALT = 0x51ED

    def __init__(
        self,
        device: Any,
        router: Router,
        *,
        shard_ids=(),
        config: LSMConfig | None = None,
        clock: SimulatedClock | None = None,
        seed: int = 0,
        write_manifest: bool = True,
    ):
        super().__init__(device, config, clock, seed)
        self.router = router
        self._meta = NamespacedDevice(device, _META_NS)
        self._routing = DurableManifest(self._meta, "routing")
        # The coordinator's journal, read (by scans and scrubs) with retries.
        retry = RetryPolicy(max_attempts=META_ATTEMPTS, clock=clock)
        self.journal = Journal(self._meta, "reshard", read=partial(retry.call, self._meta.read))
        self.shards: dict[int, LSMTree] = {}
        self.migration: MigrationState | None = None
        self._epoch_base = 0
        self._obs: _ReshardMetrics | None = None
        for sid in shard_ids:
            self.open_shard(sid)
        if write_manifest:
            self._write_routing_manifest()

    @classmethod
    def create(
        cls,
        device: Any,
        n_shards: int,
        *,
        seed: int = 0,
        config: LSMConfig | None = None,
        clock: SimulatedClock | None = None,
    ) -> "ShardedStore":
        """Fresh store: uniform hash-range routing over ``0..n_shards-1``."""
        router = HashRangeRouter.uniform(range(n_shards), seed=seed)
        return cls(
            device, router, shard_ids=range(n_shards),
            config=config, clock=clock, seed=seed,
        )

    # -- shard plumbing ----------------------------------------------------------

    def open_shard(self, shard_id: int, *, recover: bool = False) -> LSMTree:
        """Create (or recover) the LSM-tree backing *shard_id*."""
        ns = NamespacedDevice(self.device, f"s{shard_id}")
        tree = self._open_tree(ns, shard_id, recover=recover)
        self.shards[shard_id] = tree
        return tree

    def drop_shard(self, shard_id: int) -> None:
        """Remove a retired shard and free its blocks.

        The dropped tree's durable write cursor folds into
        ``_epoch_base`` so :attr:`mutation_epoch` stays monotone.
        """
        tree = self.shards.pop(shard_id)
        self._epoch_base += tree.wal_position + tree.mutation_epoch + 1
        ns = tree.device
        for address in ns.addresses():
            ns.delete(address)

    def shard_sizes(self) -> dict[int, int]:
        """Live entry count per shard (memtable + runs)."""
        return {
            sid: tree.n_entries_on_disk + len(tree._memtable)
            for sid, tree in self.shards.items()
        }

    @property
    def mutation_epoch(self) -> int:
        """Version token for negative caches; never repeats across a crash.

        Built from each shard's *durable* WAL cursor (plus the session
        counter only when the WAL is off), the routing epoch, and a base
        bumped when shards are dropped — monotone within a session and
        across recovery, so an ABSENT memoized before a crash can never
        be replayed against a state that re-reached the same number.
        """
        per_shard = sum(
            t.wal_position if t.config.wal_enabled else t.mutation_epoch
            for t in self.shards.values()
        )
        return self._epoch_base + self.router.epoch + per_shard

    # -- routing manifest (double-buffered, like the LSM manifest) ---------------

    def _routing_doc(self) -> dict:
        return {
            "epoch": self.router.epoch,
            "router": self.router.to_manifest(),
            "shards": sorted(self.shards),
            "epoch_base": self._epoch_base,
            "config": self.config.to_manifest(),
        }

    def _write_routing_manifest(self) -> None:
        self._routing.write(self._routing_doc())

    @classmethod
    def recover(
        cls,
        device: Any,
        *,
        clock: SimulatedClock | None = None,
        config: LSMConfig | None = None,
        seed: int = 0,
    ) -> "ShardedStore":
        """Reopen a store from its devices alone (post-crash).

        Reads the routing manifest, recovers every listed shard's tree
        (manifest + runs + WAL replay), and restores the router at its
        persisted epoch.  Migration state, if any, is reattached by
        :meth:`ReshardCoordinator.recover` from the journal.
        """
        routing = DurableManifest(NamespacedDevice(device, _META_NS), "routing")
        manifest = routing.load()
        if manifest is None:
            raise RuntimeError("no valid routing manifest; cannot recover")
        if config is None:
            config = LSMConfig.from_manifest(manifest["config"])
        router = router_from_manifest(manifest["router"])
        store = cls(
            device, router, shard_ids=(), config=config, clock=clock,
            seed=seed, write_manifest=False,
        )
        store._epoch_base = manifest["epoch_base"]
        store._routing = routing
        for sid in manifest["shards"]:
            store.open_shard(sid, recover=True)
        return store

    # -- reads and writes --------------------------------------------------------

    def _secondary_router(self, mig: MigrationState) -> Router:
        """The inactive router of the migration pair (pre-cutover: new;
        post-cutover: old)."""
        if self.router.epoch == mig.old_router.epoch:
            return mig.new_router
        return mig.old_router

    def _owners(self, key: Any) -> tuple[int, ...]:
        mig = self.migration
        primary = self.router.owner(key)
        if mig is None or mig.step not in _BOTH_OWNER_STEPS:
            return (primary,)
        secondary = self._secondary_router(mig).owner(key)
        return (primary,) if secondary == primary else (primary, secondary)

    def put(self, key: Any, value: Any) -> None:
        for sid in self._owners(key):
            self.shards[sid].put(key, value)

    def put_many(self, items) -> None:
        """Put every ``(key, value)`` with one ``LSMTree.put_many`` per
        shard; a key in a migration's double-write window goes to both
        owners, as :meth:`put` sends it."""
        by_shard: dict[int, list] = {}
        for key, value in items:
            for sid in self._owners(key):
                by_shard.setdefault(sid, []).append((key, value))
        for sid, batch in by_shard.items():
            self.shards[sid].put_many(batch)

    def delete(self, key: Any) -> None:
        for sid in self._owners(key):
            self.shards[sid].delete(key)

    def lookup(
        self,
        key: Any,
        *,
        deadline: Deadline | None = None,
        degrade_on_error: bool = True,
    ) -> LookupResult:
        """Tri-state lookup across every current owner of *key*, through
        :func:`~repro.common.clock.combine` with every owner eligible and
        all of them needed for ABSENT.  During the double-read window
        neither owner alone is trusted for absence: the old one may be
        mid-retirement, the new one mid-backfill.
        """
        m = bind_handles(self, _ReshardMetrics)
        m.lookups.inc()
        owners = self._owners(key)
        m.owner_reads.inc(len(owners))
        if len(owners) > 1:
            m.double_reads.inc()
        results = (
            self.shards[sid].lookup(key, deadline=deadline, degrade_on_error=degrade_on_error)
            for sid in owners
        )
        return combine(((result, True) for result in results), len(owners))

    # -- maintenance -------------------------------------------------------------

    def checkpoint(self) -> None:
        for tree in self.shards.values():
            tree.checkpoint()

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Scrub every shard plus the meta namespace (routing + journal).

        A corrupt routing slot is repaired from the in-memory routing
        table; a corrupt journal record is dropped (each step record is
        superseded by its successor and every step is idempotent, so
        losing one record can only make recovery redo work, never skip
        it).
        """
        report = ScrubReport()
        for sid in sorted(self.shards):
            shard_report = self.shards[sid].scrub(repair=repair)
            report.blocks_checked += shard_report.blocks_checked
            report.corrupt.extend(shard_report.corrupt)
            report.repaired.extend(shard_report.repaired)
            report.unreadable.extend(shard_report.unreadable)
        meta_addrs = [
            a for a in self._meta.addresses()
            if isinstance(a, tuple) and a[0] in ("routing", "reshard")
        ]
        for address in sorted(meta_addrs, key=str):
            fix = partial(self.journal.trim, [address[1:]])
            if address[0] == "routing":  # rewritten from the live routing table
                fix = lambda a=address: self._meta.write(
                    a, self._routing.encode(self._routing_doc()))
            scrub_block(report, self.journal.read, address, JSON.decode, fix if repair else None)
        return report


class ReshardCoordinator:
    """Drives one migration at a time through the journaled state machine.

    All the work happens in :meth:`pump` — one bounded, admission-gated,
    deadline-budgeted batch per call — so the caller (a serving loop, the
    storm driver) interleaves migration I/O with live traffic at
    background priority.  ``injector.maybe_crash("reshard.<step>")``
    runs after each step transition's journal write, which is where
    chaos tests inject process death.
    """

    def __init__(
        self,
        store: ShardedStore,
        *,
        clock: SimulatedClock | None = None,
        admission: AdmissionController | None = None,
        injector: FaultInjector | None = None,
        batch_keys: int = 8,
    ):
        self.store = store
        self.clock = clock if clock is not None else store.clock
        self.gate = BackgroundGate(admission, self.clock, PUMP_BUDGET)
        self.injector = injector
        self.batch_keys = batch_keys
        self._commits_since_journal = 0
        self._obs: _ReshardMetrics | None = None
        self.last_migration: MigrationState | None = None
        self._moving: list[Any] | None = None  # keys left in the current scan
        # VERIFY's source read of the batch it has not committed:
        # (batch, the source's mutation_epoch, values).
        self._carry: tuple[list[Any], int, list[Any]] | None = None
        self._records: list[dict] = []  # what journal_records() returns

    # -- planning ----------------------------------------------------------------

    def plan_split(
        self, source: int | None = None, target: int | None = None
    ) -> MigrationState:
        """Split the hottest (or given) shard's widest range at its
        geometric midpoint onto a new shard."""
        router = self._require_idle()
        if not isinstance(router, HashRangeRouter):
            raise TypeError("split requires a HashRangeRouter")
        if source is None:
            sizes = self.store.shard_sizes()
            source = max(sorted(sizes), key=sizes.__getitem__)
        if target is None:
            target = max(self.store.shards) + 1
        new_router = router.split(source, target)
        mig = MigrationState("split", source, target, router, new_router)
        self._install_plan(mig, open_target=True)
        return mig

    def plan_merge(self, source: int, dest: int) -> MigrationState:
        """Merge *source*'s ranges into *dest* and retire the shard."""
        router = self._require_idle()
        if not isinstance(router, HashRangeRouter):
            raise TypeError("merge requires a HashRangeRouter")
        new_router = router.merge(source, dest)
        mig = MigrationState("merge", source, dest, router, new_router)
        self._install_plan(mig, open_target=False)
        return mig

    def _require_idle(self) -> Router:
        if self.store.migration is not None:
            raise RuntimeError("a migration is already in progress")
        return self.store.router

    def _install_plan(self, mig: MigrationState, *, open_target: bool) -> None:
        # A fresh migration supersedes the previous journal wholesale.
        self.store.journal.trim()
        self._records = []
        self._journal({
            "kind": "plan",
            "step": MigrationStep.PLANNED.value,
            "plan": {
                "kind": mig.kind,
                "source": mig.source,
                "target": mig.target,
                "old_router": mig.old_router.to_manifest(),
                "new_router": mig.new_router.to_manifest(),
            },
        }, verified=True)
        if open_target and mig.target not in self.store.shards:
            self.store.open_shard(mig.target)
        # Persist the widened shard list so post-crash recovery opens the
        # target's tree before the journal is even consulted.
        self.store._write_routing_manifest()
        self.store.migration = mig
        self._moving = self._carry = None
        self._commits_since_journal = 0
        self._meter_step(MigrationStep.PLANNED)
        crash_point(self.injector, "reshard.planned")

    # -- the pump ----------------------------------------------------------------

    def pump(
        self,
        arrival: float | None = None,
        *,
        budget: float | None = None,
        force: bool = False,
    ) -> bool:
        """Run one background batch of migration work.

        Returns True iff work was attempted.  With an admission
        controller attached, the batch is gated at ``Priority.LOW`` —
        under overload, migration is shed before any foreground request.
        With *arrival* (the next foreground request's arrival time), the
        batch additionally requires at least one pump budget of idle
        headroom before that arrival, so migration I/O soaks up idle
        gaps instead of queueing ahead of live traffic.  ``force=True``
        (post-storm drain) skips both gates.
        """
        mig = self.store.migration
        if mig is None:
            return False
        if not self.gate.admit(arrival, budget=budget, force=force):
            bind_handles(self, _ReshardMetrics).pump_sheds.inc()
            return False
        deadline = None
        if self.clock is not None:
            deadline = Deadline.after(
                self.clock, self.gate.budget if budget is None else budget
            )
        try:
            self._advance(mig, deadline)
        except (TransientIOError, CircuitOpenError, DeadlineExceeded):
            # Transient device trouble, a tripped breaker, or budget
            # exhausted: everything is idempotent, so just resume on the
            # next pump.
            pass
        return True

    def _advance(self, mig: MigrationState, deadline: Deadline | None) -> None:
        step = mig.step
        if step is MigrationStep.PLANNED:
            self._enter(mig, MigrationStep.DOUBLE_WRITE)
        elif step is MigrationStep.DOUBLE_WRITE:
            # Nothing to wait for in the simulation (no in-flight ops);
            # the step exists so recovery lands writes in both owners
            # before any copying starts.
            self._enter(mig, MigrationStep.BACKFILL)
        elif step is MigrationStep.BACKFILL:
            self._pump_backfill(mig, deadline)
        elif step is MigrationStep.VERIFY:
            self._pump_verify(mig, deadline)
        elif step is MigrationStep.CUTOVER:
            self._do_cutover(mig)
        elif step is MigrationStep.RETIRE:
            self._pump_retire(mig)

    def _enter(self, mig: MigrationState, step: MigrationStep) -> None:
        mig.step = step
        mig.floor = None
        self._moving = self._carry = None
        self._commits_since_journal = 0
        self._journal({"kind": "step", "step": step.value})
        self._meter_step(step)
        crash_point(self.injector, f"reshard.{step.value}")

    # -- scan-step machinery -----------------------------------------------------

    def _snapshot_moving(self, mig: MigrationState) -> list[Any]:
        """Keys that still need processing in the current scan step.

        Recomputed from the live trees after a crash; the journaled
        ``floor`` skips work that is already durable.  Keys written after
        DOUBLE_WRITE began are double-applied on arrival, so re-copying
        any of them is merely redundant, never wrong.
        """
        ordered = sorted(
            key for key, _value in self.store.shards[mig.source].items()
            if mig.old_router.owner(key) == mig.source and mig.moving(key)
        )
        if mig.floor is not None:
            ordered = [k for k in ordered if k > mig.floor]
        return ordered

    def _next_batch(self, mig: MigrationState) -> list[Any]:
        if self._moving is None:
            self._moving = self._snapshot_moving(mig)
        return self._moving[: self.batch_keys]

    def _commit_batch(self, mig: MigrationState, batch: list[Any]) -> None:
        mig.floor = batch[-1]
        del self._moving[: len(batch)]
        # The floor is a pure optimisation (everything below it is merely
        # re-done on replay), so it is journaled every few batches — one
        # meta write per batch would double the pump's I/O bill.
        self._commits_since_journal += 1
        if not self._moving or self._commits_since_journal >= 4:
            self._journal({
                "kind": "progress", "step": mig.step.value, "floor": mig.floor,
            })
            self._commits_since_journal = 0

    def _pump_backfill(self, mig: MigrationState, deadline) -> None:
        batch = self._next_batch(mig)
        if not batch:
            self._enter(mig, MigrationStep.VERIFY)
            return
        source_values = self._batched_get(mig, batch, deadline, donors=True)
        moved = done = 0
        for key, value in zip(batch, source_values):
            # Budget check between keys: always make progress on at least
            # one, then yield the rest of the batch to the next pump.
            if done and deadline is not None and deadline.expired():
                break
            done += 1
            if value is _MISSING:
                continue  # deleted while we scanned; tombstone double-applied
            self.store.shards[mig.new_router.owner(key)].put(key, value)
            moved += 1
        self._meter_keys("moved", moved)
        self._commit_batch(mig, batch[:done])
        crash_point(self.injector, "reshard.backfill:batch")

    def _pump_verify(self, mig: MigrationState, deadline) -> None:
        batch = self._next_batch(mig)
        if not batch:
            self._enter(mig, MigrationStep.CUTOVER)
            return
        # A source read whose target read missed its deadline stands for
        # the same batch while the source takes no write: any write to a
        # moving key double-applies and bumps the source's epoch.
        epoch = self.store.shards[mig.source].mutation_epoch
        if self._carry is None or self._carry[:2] != (batch, epoch):
            self._carry = (batch, epoch, self._batched_get(mig, batch, deadline, donors=True))
        target_values = self._batched_get(mig, batch, deadline, donors=False)
        source_values, self._carry = self._carry[2], None
        repaired = 0
        for key, src, dst in zip(batch, source_values, target_values):
            if src is _MISSING:
                continue  # concurrently deleted: nothing to verify
            if dst is _MISSING or dst != src:
                # The copy is missing or stale — re-copy before cutover.
                self.store.shards[mig.new_router.owner(key)].put(key, src)
                repaired += 1
        self._meter_keys("verified", len(batch))
        self._meter_keys("repaired", repaired)
        self._commit_batch(mig, batch)

    def _batched_get(self, mig, batch, deadline, *, donors: bool) -> list[Any]:
        """Current values for *batch*, read from the old owners
        (``donors=True``) or the new owners, grouped one ``lookup_many``
        per shard.

        Raises :class:`DeadlineExceeded` as soon as a shard leaves a key
        unresolved, so the pump abandons the batch: an unresolved key
        must never read as ``_MISSING``, or backfill would skip it.
        """
        router = mig.old_router if donors else mig.new_router
        by_shard: dict[int, list[int]] = {}
        for i, key in enumerate(batch):
            by_shard.setdefault(router.owner(key), []).append(i)
        out: list[Any] = [_MISSING] * len(batch)
        for sid, indices in by_shard.items():
            results = self.store.shards[sid].lookup_many(
                [batch[i] for i in indices], deadline=deadline
            )
            for i, result in zip(indices, results):
                if not result.complete:
                    raise DeadlineExceeded("migration batch missed its deadline")
                if result.found:
                    out[i] = result.value
        return out

    def _do_cutover(self, mig: MigrationState) -> None:
        """Swap the routing table and persist it.

        The cutover step was already journaled on entry, so a crash
        between the swap and the manifest write replays this method —
        both actions are idempotent.  Only a VERIFY-complete migration
        reaches here, which is why cutover is safe: the new owner has
        been proven to hold every moving key.
        """
        self.store.router = mig.new_router
        self.store._write_routing_manifest()
        bind_handles(self, _ReshardMetrics).cutovers.inc()
        crash_point(self.injector, "reshard.cutover:manifest")
        self._enter(mig, MigrationStep.RETIRE)

    def _pump_retire(self, mig: MigrationState) -> None:
        """Free what the source no longer owns: a merge drops the shard,
        a split's source takes one purge step, which needs no floor."""
        if mig.kind == "merge":
            if mig.source in self.store.shards:
                self.store.drop_shard(mig.source)
                self.store._write_routing_manifest()
            self._finish(mig)
            return
        dropped = self.store.shards[mig.source].purge_step(
            lambda key: mig.new_router.owner(key) != mig.source)
        if dropped is None:
            self._finish(mig)
        else:
            self._meter_keys("retired", dropped)

    def _finish(self, mig: MigrationState) -> None:
        mig.step = MigrationStep.DONE
        self._journal({"kind": "step", "step": MigrationStep.DONE.value})
        self._meter_step(MigrationStep.DONE)
        self.last_migration = mig
        self.store.migration = None
        self._moving = None
        crash_point(self.injector, "reshard.done")
        # Nothing is left to resume; a recovery that finds DONE trims too.
        self.store.journal.trim()

    # -- journal -----------------------------------------------------------------

    def _journal(self, record: dict, *, verified: bool = False) -> None:
        keys = self.store.journal.keys
        seq = keys[-1][0] + 1 if keys else 0
        record = {**record, "seq": seq, "t": self.clock.now() if self.clock else 0.0}
        if verified:
            self.store.journal.append_verified((seq,), record)
        else:
            self.store.journal.append([((seq,), record)])
        self._records.append(record)

    def journal_records(self) -> list[dict]:
        """The records of the current or last migration that recovery
        read (intact ones; it tolerates holes) or this coordinator wrote,
        in order.  The device keeps none after DONE."""
        return list(self._records)

    @classmethod
    def recover(
        cls,
        store: ShardedStore,
        *,
        clock: SimulatedClock | None = None,
        admission: AdmissionController | None = None,
        injector: FaultInjector | None = None,
        **kwargs,
    ) -> "ReshardCoordinator":
        """Rebuild the coordinator (and the store's migration state) from
        the journal; the resumed step re-executes idempotently."""
        coord = cls(
            store, clock=clock if clock is not None else store.clock,
            admission=admission, injector=injector, **kwargs,
        )
        records = coord._records = [record for _key, record in store.journal.scan()]
        plan = next((r for r in records if r["kind"] == "plan"), None)
        if plan is None:
            return coord
        step = MigrationStep.PLANNED
        floor = None
        for record in records:
            if record["kind"] == "step":
                step = MigrationStep(record["step"])
                floor = None
            elif record["kind"] == "progress" and record["step"] == step.value:
                floor = record["floor"]
        if step is MigrationStep.DONE:
            store.journal.trim()  # the trim a crash cut off
            return coord
        spec = plan["plan"]
        mig = MigrationState(
            spec["kind"],
            spec["source"],
            spec["target"],
            router_from_manifest(spec["old_router"]),
            router_from_manifest(spec["new_router"]),
            step=step,
            floor=floor,
        )
        # A lost manifest write could leave the target tree unopened.
        if mig.kind != "merge" and mig.target not in store.shards:
            store.open_shard(mig.target, recover=True)
        if step is MigrationStep.CUTOVER:
            # The journal says cutover began; the manifest says whether it
            # landed.  Either way re-running _do_cutover converges.
            store.router = (
                mig.new_router
                if store.router.epoch >= mig.new_router.epoch
                else mig.old_router
            )
        store.migration = mig
        return coord

    # -- crash points and telemetry ----------------------------------------------

    def _meter_step(self, step: MigrationStep) -> None:
        bind_handles(self, _ReshardMetrics).child("steps", step.value).inc()

    def _meter_keys(self, action: str, n: int) -> None:
        if n:
            bind_handles(self, _ReshardMetrics).child("keys", action).inc(n)

    def publish_gauges(self) -> None:
        """Point-in-time migration gauges for ``python -m repro stats``."""
        m = bind_handles(self, _ReshardMetrics)
        m.migration_active.set(0 if self.store.migration is None else 1)
        m.routing_epoch.set(self.store.router.epoch)
        m.scan_remaining.set(len(self._moving) if self._moving is not None else 0)


# -- storm integration -------------------------------------------------------------


def build_sharded_stack(
    seed: int = 0,
    n_keys: int = 2_000,
    n_shards: int = 4,
    *,
    budget: float = 0.050,
):
    """The sharded sibling of :func:`repro.serve.sim.build_stack`.

    One clock, one fault/latency injector pair, one faulty device, and
    one breaker bank are shared by every shard (each shard's tree sees a
    :class:`~repro.common.storage.NamespacedDevice` view), so storms and
    breakers behave exactly as in the single-tree stack.  Returns
    ``(served, store, coordinator, device, injector, latency, clock)``.
    """
    parts = StackParts(seed)
    store = ShardedStore.create(parts.breaker_device, n_shards, seed=seed, clock=parts.clock)
    served = parts.serve(store, budget=budget, n_keys=n_keys)
    coordinator = ReshardCoordinator(
        store, clock=parts.clock, admission=served.admission,
        injector=parts.injector,
    )
    return (
        served, store, coordinator, parts.device, parts.injector, parts.latency,
        parts.clock,
    )


@dataclass
class ReshardReport(StormSummary):
    """What one resharded storm did: step timeline, crashes, amplification.

    ``requested`` says a migration was asked for; it then fails the
    storm unless ``completed``.
    """

    COUNTED = {
        "keys_moved": ("repro_reshard_keys_total", {"action": "moved"}),
        "keys_verified": ("repro_reshard_keys_total", {"action": "verified"}),
        "keys_retired": ("repro_reshard_keys_total", {"action": "retired"}),
        "repairs": ("repro_reshard_keys_total", {"action": "repaired"}),
        "lookups": ("repro_reshard_lookups_total", {}),
        "double_reads": ("repro_reshard_double_reads_total", {}),
        "owner_reads": ("repro_reshard_owner_reads_total", {}),
        "pump_sheds": ("repro_reshard_pump_sheds_total", {}),
    }
    DERIVED = ("double_read_amplification",)
    INTERNAL = ("owner_reads", "requested")

    events: list[tuple[float, str]] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    requested: bool = False
    completed: bool = False
    keys_moved: int = 0
    keys_verified: int = 0
    keys_retired: int = 0
    repairs: int = 0
    lookups: int = 0
    double_reads: int = 0
    owner_reads: int = 0
    pump_sheds: int = 0
    final_epoch: int = 0
    final_shards: tuple[int, ...] = ()

    @property
    def double_read_amplification(self) -> float:
        """Owner scans per lookup (1.0 outside the double-read window)."""
        return self.owner_reads / self.lookups if self.lookups else 0.0

    def failures(self) -> list[str]:
        if self.requested and not self.completed:
            return ["the migration did not complete"]
        return []


def run_reshard_storm(
    seed: int = 0,
    n_keys: int = 2_000,
    n_shards: int = 4,
    *,
    phases=CALM_STORM_RECOVERY,
    reshard_at: int = 250,
    kind: str = "split",
    source: int | None = None,
    crash_at_step: str | None = None,
    drain: bool = True,
    write_fraction: float = 0.0,
    budget: float = 0.050,
):
    """A chaos storm with a live migration (and optionally a crash) in it.

    Runs the :class:`~repro.serve.sim.StormDriver` loop over a sharded
    stack; at request *reshard_at* a split/merge is planned, and every
    subsequent request pumps one background batch.  With
    *crash_at_step* set, a one-shot
    :class:`~repro.common.faults.SimulatedCrash` is armed at
    ``reshard.<step>``; when it fires, all in-memory state is discarded
    and the stack is recovered from the devices (store + coordinator +
    scrub), after which the storm — and the migration — continue.

    *write_fraction* mixes seeded foreground updates of loaded keys into
    the drive (the write load that makes resharding necessary in the
    first place), so steady-vs-migration comparisons see the same lumpy
    flush/compaction behaviour in both runs.
    Returns ``(storm_report, reshard_report, coordinator)``.
    """
    window = CounterWindow()
    served, store, coordinator, device, injector, latency, clock = (
        build_sharded_stack(seed, n_keys, n_shards, budget=budget)
    )
    report = ReshardReport(requested=reshard_at > 0)
    planned = False

    def recover() -> tuple[ShardedStore, ReshardCoordinator]:
        old_store = served.backend
        new_store = ShardedStore.recover(
            old_store.device, clock=clock, config=old_store.config, seed=seed
        )
        coord = ReshardCoordinator.recover(
            new_store, clock=clock,
            admission=served.admission, injector=injector,
        )
        new_store.scrub(repair=True)
        return new_store, coord

    def tick(n: int, arrival: float) -> None:
        nonlocal planned
        coord = driver.worker
        # reshard_at <= 0 disables the migration (plain sharded storm).
        if reshard_at > 0 and not planned and n >= reshard_at:
            planned = True
            if crash_at_step:
                injector.crash_after(f"reshard.{crash_at_step}")
            try:
                if kind == "merge":
                    shards = sorted(coord.store.shards)
                    coord.plan_merge(
                        shards[-1] if source is None else source, shards[0]
                    )
                else:
                    coord.plan_split(source=source)
            except (TransientIOError, CircuitOpenError):
                # The plan never became durable: plan again next request.
                planned = False
                report.events.append((clock.now(), "plan_failed"))
                return
            report.events.append((clock.now(), "planned"))
            return
        mig = coord.store.migration
        if mig is None:
            return
        before = mig.step
        coord.pump(arrival)
        after = coord.store.migration.step if coord.store.migration \
            else MigrationStep.DONE
        if after is not before:
            report.events.append((clock.now(), after.value))

    def drain_step() -> bool:
        if driver.worker.store.migration is None:
            return True
        driver.worker.pump(budget=0.050, force=True)
        return False

    driver = StormDriver(
        served, seed=seed, n_keys=n_keys, report=report, worker=coordinator,
        write_fraction=write_fraction, tick=tick, recover=recover,
    )
    storm = driver.run(phases)
    if drain:
        driver.drain(drain_step, 50_000)

    coordinator = driver.worker
    store = coordinator.store
    report.read_counts(window)
    report.completed = store.migration is None and planned
    report.final_epoch = store.router.epoch
    report.final_shards = tuple(sorted(store.shards))
    coordinator.publish_gauges()
    return storm, report, coordinator
