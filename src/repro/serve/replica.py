"""Replicated filter serving: quorum reads, hinted handoff, anti-entropy.

ROADMAP #1's replica fan-out, grown into a full replication layer.  A
:class:`ReplicatedStore` places every key on R *nodes* (replicas) using
:meth:`~repro.core.routing.Router.preference_list` over a
:class:`~repro.core.routing.ConsistentHashRouter` ring, each node a
per-namespace LSM-tree over the shared (faulty, breaker-guarded)
device.  Reads fan out in *suspicion order* — healthiest replica first,
as judged by a phi-accrual-style :class:`FailureDetector` — and combine
under a quorum rule that preserves the repo-wide one-sided-error
contract:

======================  =======================================  ========
evidence                condition                                answer
======================  =======================================  ========
live record             any replica, complete scan               PRESENT
absence (no record or   >= ``read_quorum`` *eligible* replicas,  ABSENT
tombstone)              each a complete scan
anything else           —                                        MAYBE
======================  =======================================  ========

A replica is **eligible** to vote ABSENT only while it is alive, not
*tainted* (wiped and not yet repaired), and has no pending handoff
hints — three gates that together make the no-false-negative argument
inductive: every write lands on each of its R replicas either directly,
as a durable hint (replica ineligible until the hint replays), or not
at all because hint journaling failed (replica durably tainted until
anti-entropy re-verifies it).  In every case a replica that might be
missing the key is barred from testifying to its absence.

Convergence machinery:

* **Hinted handoff** (:class:`HintedHandoff`) — writes destined for a
  suspected or unreachable replica are journaled durably (CRC-framed
  ``("hint", seq, node)`` records) and replayed in order on recovery,
  crash-safely and idempotently like the reshard journal: records carry
  a monotone write sequence and replay applies a hint only when it is
  newer than what the replica already holds.
* **Anti-entropy** (:class:`AntiEntropyRepairer`) — a background
  scrubber compares per-node, per-bucket digests (CRC chains over the
  serialized records, the same framing BBF2 uses) against the union-
  resolved expected state and streams repairs, admission-gated at
  ``Priority.LOW`` exactly like reshard pumps.  A tainted replica's
  taint clears only after a full clean digest round re-verified against
  the live tree.

Deletes are tombstone *records* (``{"s": seq, "t": true}``) written
through the same replicated path, so max-seq-wins resolution converges
them like any other write; a stale live copy can answer PRESENT during
convergence (a false positive, which the contract allows), never the
reverse.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any

from repro.apps.lsm import LSMConfig, LSMTree
from repro.common.clock import (
    Answer,
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
from repro.common.hashing import hash_to_range
from repro.common.storage import NamespacedDevice
from repro.core.errors import ChecksumError
from repro.core.routing import ConsistentHashRouter, Router
from repro.core.serialize import frame, unframe
from repro.obs.metrics import (
    CounterWindow,
    LazyCounters,
    bind_handles,
    counter_spec,
    default_registry,
)
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.sim import CALM_STORM_RECOVERY, run_storm
from repro.serve.stack import (
    BackgroundGate,
    DurableManifest,
    NamespacedStore,
    StackParts,
    StormDriver,
    StormSummary,
    crash_point,
)

_META_NS = "replmeta"
_HANDOFF_NS = "handoff"
_DIGEST_SALT = 0xB0C6


class _ReplicaMetrics(LazyCounters):
    """The store's, the handoff's and the repairer's counters, each
    registered when first counted."""

    SPEC = {
        **counter_spec("outcome_", "repro_replica_quorum_outcomes_total",
                       "replicated lookups by combine-rule outcome", "outcome",
                       ("lookups", "present", "absent", "maybe")),
        **counter_spec("node_", "repro_replica_node_events_total",
                       "replica lifecycle events (kill/heal/taint)", "event",
                       ("kill", "kill_wipe", "heal", "taint", "taint_cleared",
                        "boot_taint")),
        **counter_spec("hints_", "repro_replica_hints_total",
                       "hinted-handoff records, by action", "action",
                       ("journaled", "replayed", "dropped")),
        **counter_spec("repairs_", "repro_replica_repairs_total",
                       "anti-entropy repair records, by action", "action",
                       ("streamed",)),
        **counter_spec("repair_sheds", "repro_replica_repair_sheds_total",
                       "anti-entropy pumps shed by admission control"),
        **counter_spec("buckets_checked", "repro_replica_buckets_checked_total",
                       "anti-entropy (replica, bucket) digest checks"),
        **counter_spec("repair_bytes", "repro_replica_repair_bytes_total",
                       "serialized bytes streamed by anti-entropy repair"),
        **counter_spec("repair_rounds", "repro_replica_repair_rounds_total",
                       "anti-entropy snapshot rounds started"),
    }


# -- failure detection -------------------------------------------------------------


class FailureDetector:
    """Phi-accrual-style failure detector on the simulated clock.

    Every successful operation against a replica is a heartbeat; every
    failed one bumps a consecutive-failure count.  ``suspicion`` grows
    with the time since the last heartbeat relative to the observed
    heartbeat interval (the accrual part) plus the failure streak, so a
    silent replica and a loudly-failing replica both climb.  There is no
    binary up/down output — callers pick thresholds per decision, which
    is the phi-accrual design point: fan-out ordering can react at low
    suspicion while write diversion waits for high.
    """

    def __init__(self, clock: SimulatedClock, *, window: int = 8,
                 min_interval: float = 0.002):
        self.clock = clock
        self.window = window
        # Floor for the learned heartbeat interval.  Bulk loading runs
        # with zero simulated latency, so learned intervals can collapse
        # to ~0 — and then the first real gap in traffic makes every
        # healthy replica look silent for "millions" of intervals.
        # Standard phi-accrual implementations clamp the distribution
        # for exactly this reason.
        self.min_interval = min_interval
        self._last_beat: dict[int, float] = {}
        self._intervals: dict[int, list[float]] = {}
        self._failures: dict[int, int] = {}

    def heartbeat(self, node_id: int) -> None:
        now = self.clock.now()
        last = self._last_beat.get(node_id)
        if last is not None:
            history = self._intervals.setdefault(node_id, [])
            history.append(max(now - last, 1e-9))
            del history[: -self.window]
        self._last_beat[node_id] = now
        self._failures[node_id] = 0

    def record_failure(self, node_id: int) -> None:
        self._failures[node_id] = self._failures.get(node_id, 0) + 1

    def mean_interval(self, node_id: int) -> float:
        history = self._intervals.get(node_id)
        if not history:
            return 0.0
        return sum(history) / len(history)

    def suspicion(self, node_id: int) -> float:
        """Accrued suspicion: 0 for a freshly-heartbeaten replica,
        unbounded growth while it stays silent or failing."""
        phi = float(self._failures.get(node_id, 0))
        last = self._last_beat.get(node_id)
        mean = self.mean_interval(node_id)
        if last is not None and mean > 0.0:
            elapsed = self.clock.now() - last
            # -log10 P(no heartbeat for `elapsed`) under an exponential
            # inter-arrival model: elapsed/mean * log10(e).
            phi += (elapsed / max(mean, self.min_interval)) * 0.4343
        return phi

    def suspected(self, node_id: int, threshold: float = 3.0) -> bool:
        return self.suspicion(node_id) > threshold

    def publish_gauges(self, node_ids) -> None:
        gauge = default_registry().gauge(
            "repro_replica_suspicion",
            "failure-detector suspicion level per replica",
            labels=("replica",),
        )
        for node_id in node_ids:
            gauge.labels(replica=f"r{node_id}").set(self.suspicion(node_id))


# -- replica nodes -----------------------------------------------------------------


@dataclass
class ReplicaNode:
    """One replica: a namespaced LSM-tree plus liveness/taint flags.

    ``alive`` models the network (a dead node's tree is unreachable, its
    durable namespace persists).  ``tainted`` is the durable safety
    flag: set before a wipe and by hint-journaling failures, cleared
    only by a clean anti-entropy round — while set, the node may serve
    PRESENT evidence but never testify to absence.
    """

    node_id: int
    tree: LSMTree
    alive: bool = True
    tainted: bool = False

    @property
    def name(self) -> str:
        return f"r{self.node_id}"


def _is_tombstone(record: Any) -> bool:
    return isinstance(record, dict) and record.get("t") is True


def _record_seq(record: Any, default: int = 0) -> int:
    return int(record.get("s", default)) if isinstance(record, dict) else default


class ReplicatedStore(NamespacedStore):
    """R-way replicated key store behind the ServedFilter backend contract.

    Exposes ``lookup(key, deadline=..., degrade_on_error=...)`` plus
    ``mutation_epoch``, so it drops into
    :class:`~repro.serve.served.ServedFilter` exactly like an LSM-tree
    or a :class:`~repro.serve.reshard.ShardedStore`.
    """

    RETRY_SALT = 0x4E0D

    def __init__(
        self,
        device: Any,
        *,
        n_nodes: int = 3,
        replication: int | None = None,
        read_quorum: int | None = None,
        config: LSMConfig | None = None,
        clock: SimulatedClock | None = None,
        detector: FailureDetector | None = None,
        injector: FaultInjector | None = None,
        seed: int = 0,
        write_manifest: bool = True,
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        replication = min(3, n_nodes) if replication is None else replication
        if not 1 <= replication <= n_nodes:
            raise ValueError("replication must be in [1, n_nodes]")
        read_quorum = replication // 2 + 1 if read_quorum is None else read_quorum
        if not 1 <= read_quorum <= replication:
            raise ValueError("read_quorum must be in [1, replication]")
        super().__init__(device, config, clock, seed)
        self.injector = injector
        self.replication = replication
        self.read_quorum = read_quorum
        self.router: Router = ConsistentHashRouter(range(n_nodes), seed=seed)
        self.detector = detector if detector is not None else FailureDetector(
            clock if clock is not None else SimulatedClock()
        )
        self._state = DurableManifest(NamespacedDevice(device, _META_NS), "nodestate")
        self.nodes: dict[int, ReplicaNode] = {}
        self.write_seq = 0
        self._seq_floor = 0
        self._epoch_base = 0
        self._obs: _ReplicaMetrics | None = None
        self.handoff = HintedHandoff(self, injector=injector)
        for node_id in range(n_nodes):
            self._open_node(node_id)
        if write_manifest:
            self._write_state_manifest()

    # -- node plumbing -----------------------------------------------------------

    def _node_tree(self, node_id: int, *, recover: bool = False) -> LSMTree:
        """The node's tree: recovered from its namespace if asked and it
        holds anything, else fresh."""
        ns = NamespacedDevice(self.device, f"r{node_id}")
        return self._open_tree(ns, node_id, recover=recover and bool(ns.addresses()))

    def _open_node(self, node_id: int, *, recover: bool = False) -> ReplicaNode:
        node = ReplicaNode(node_id, self._node_tree(node_id, recover=recover))
        self.nodes[node_id] = node
        return node

    def replicas_of(self, key: Any) -> tuple[int, ...]:
        return self.router.preference_list(key, self.replication)

    @property
    def mutation_epoch(self) -> int:
        """Negative-cache version token: monotone across writes, hint
        replays (hints carry sequences already counted), and heals."""
        return self._epoch_base + self.write_seq

    # -- durable node-state manifest (double-buffered, like routing) -------------

    def _write_state_manifest(self) -> None:
        self._state.write({
            "n_nodes": len(self.nodes),
            "replication": self.replication,
            "read_quorum": self.read_quorum,
            "seed": self.seed,
            "epoch_base": self._epoch_base,
            "alive": sorted(n.node_id for n in self.nodes.values() if n.alive),
            "tainted": sorted(n.node_id for n in self.nodes.values() if n.tainted),
            "seq_floor": self._seq_floor,
            "config": self.config.to_manifest(),
        })

    @classmethod
    def recover(
        cls,
        device: Any,
        *,
        clock: SimulatedClock | None = None,
        detector: FailureDetector | None = None,
        injector: FaultInjector | None = None,
        config: LSMConfig | None = None,
        seed: int | None = None,
    ) -> "ReplicatedStore":
        """Reopen the whole fleet from its devices alone (post-crash).

        Node trees recover from their namespaces (manifest + WAL
        replay), liveness and taint flags come back from the durable
        node-state manifest, pending hints from the handoff journal, and
        the write sequence restores as the max over every record and
        hint — so post-crash writes keep winning max-seq resolution.
        """
        state = DurableManifest(NamespacedDevice(device, _META_NS), "nodestate")
        manifest = state.load()
        if manifest is None:
            raise RuntimeError("no valid node-state manifest; cannot recover")
        if config is None:
            config = LSMConfig.from_manifest(manifest["config"])
        store = cls(
            device,
            n_nodes=manifest["n_nodes"],
            replication=manifest["replication"],
            read_quorum=manifest["read_quorum"],
            config=config,
            clock=clock,
            detector=detector,
            injector=injector,
            seed=manifest["seed"] if seed is None else seed,
            write_manifest=False,
        )
        store._epoch_base = manifest["epoch_base"]
        store._state = state
        alive = set(manifest["alive"])
        tainted = set(manifest["tainted"])
        for node_id in list(store.nodes):
            store.nodes.pop(node_id)
            try:
                node = store._open_node(node_id, recover=True)
            except (TransientIOError, CircuitOpenError, ChecksumError):
                # A replica whose namespace cannot be read at boot must
                # not block fleet recovery.  Bring it up empty, dead,
                # and tainted — barred from ABSENT votes — and let
                # heal() re-recover the tree (its durable blocks are
                # untouched) with anti-entropy re-verifying after.  The
                # taint is safe to hold only in memory: a re-crash
                # re-runs this open and re-derives it.
                node = store._open_node(node_id)
                node.alive = False
                node.tainted = True
                store._count_node_event("boot_taint")
                continue
            node.alive = node_id in alive
            node.tainted = node_id in tainted
        max_seq = store.handoff.max_hint_seq()
        for node in store.nodes.values():
            try:
                for _key, record in node.tree.items():
                    max_seq = max(max_seq, _record_seq(record))
            except (TransientIOError, CircuitOpenError, ChecksumError):
                node.alive = False
                node.tainted = True
                store._count_node_event("boot_taint")
        # The durable floor keeps sequences strictly monotone even when
        # the highest-seq record lives only on a boot-tainted replica we
        # could not scan — without it, post-crash writes could reuse
        # sequences and lose max-seq-wins resolution to stale records.
        store.write_seq = max(max_seq, manifest.get("seq_floor", 0))
        store._seq_floor = store.write_seq
        return store

    # -- kill / heal -------------------------------------------------------------

    def kill(self, node_id: int, *, wipe: bool = False) -> None:
        """Take a replica off the network (optionally destroying its data).

        A wipe persists the taint flag *before* deleting a single block,
        so even a crash mid-wipe leaves the replica barred from ABSENT
        votes until anti-entropy has rebuilt and re-verified it.
        """
        node = self.nodes[node_id]
        node.alive = False
        node.tainted |= wipe
        self._write_state_manifest()
        if wipe:
            ns = node.tree.device
            for address in list(ns.addresses()):
                ns.delete(address)
            node.tree = self._node_tree(node_id)
        self._count_node_event("kill_wipe" if wipe else "kill")

    def heal(self, node_id: int) -> None:
        """Bring a replica back: recover its tree from its namespace (WAL
        replay restores anything durable) and rejoin the read/write path.
        Taint, if set, stays until anti-entropy clears it."""
        node = self.nodes[node_id]
        node.tree = self._node_tree(node_id, recover=True)
        node.alive = True
        # The heal itself is an observation that the node is back.
        self.detector.heartbeat(node_id)
        self._epoch_base += 1  # conservatively invalidate memoized ABSENTs
        self._write_state_manifest()
        self._count_node_event("heal")

    def set_tainted(self, node_id: int, tainted: bool) -> None:
        node = self.nodes[node_id]
        if node.tainted == tainted:
            return
        node.tainted = tainted
        self._write_state_manifest()
        self._count_node_event("taint" if tainted else "taint_cleared")

    def _count_node_event(self, event: str) -> None:
        getattr(bind_handles(self, _ReplicaMetrics), "node_" + event).inc()

    # -- writes ------------------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        self._write(key, {"s": self._next_seq(), "v": value})

    def put_many(self, items) -> None:
        """Bulk-load every ``(key, value)``: sequences are issued key by
        key, as :meth:`put` issues them, and a dead or suspected replica's
        writes are hinted in key order, as :meth:`_write` hints them.
        Each other replica then takes its share in one ``LSMTree.put_many``
        followed by one heartbeat per write.

        The fault rule (docs/robustness.md, "Bulk load"): a replica whose
        ``put_many`` raises records one failure and has every write of
        its batch hinted, which is safe because :meth:`apply_record`
        skips a record that already landed.  A floor bump that cannot be
        persisted fails the batch before any write.  After the whole
        batch, a write that reached no replica and no verified hint
        raises :class:`TransientIOError`, naming its keys, as
        :meth:`_write` does.
        """
        writes = [(key, {"s": self._next_seq(), "v": value}) for key, value in items]
        landed: set[int] = set()  # writes held by a replica or a verified hint
        by_node: dict[int, list[int]] = {}
        for i, (key, record) in enumerate(writes):
            for node_id in self.replicas_of(key):
                if self._reachable(node_id):
                    by_node.setdefault(node_id, []).append(i)
                elif self.handoff.add(node_id, key, record):
                    landed.add(i)
        for node_id, batch in by_node.items():
            try:
                self.nodes[node_id].tree.put_many([writes[i] for i in batch])
            except (TransientIOError, CircuitOpenError):
                self.detector.record_failure(node_id)
                landed.update(i for i in batch if self.handoff.add(node_id, *writes[i]))
            else:
                landed.update(batch)
                for _write in batch:
                    self.detector.heartbeat(node_id)
        lost = [key for i, (key, _record) in enumerate(writes) if i not in landed]
        if lost:
            raise TransientIOError(f"writes of {lost!r} reached no replica and no durable hint")

    def delete(self, key: Any) -> None:
        # A tombstone *record*, not an LSM delete: anti-entropy needs the
        # delete to exist as data so max-seq-wins can converge it.
        self._write(key, {"s": self._next_seq(), "t": True})

    # Sequences per durable high-water-mark bump: one manifest write per
    # _SEQ_SLACK writes buys crash-proof seq monotonicity (see recover).
    _SEQ_SLACK = 64

    def _next_seq(self) -> int:
        if self.write_seq >= self._seq_floor:
            # Never issue a sequence at or above the durable floor:
            # recovery restores write_seq from the floor, so a sequence
            # issued past it could be reused after a crash and stale
            # records would tie fresh ones under max-seq-wins.  If the
            # floor bump cannot be persisted the write fails whole —
            # an honest storm loss, not a silent monotonicity hole.
            prev = self._seq_floor
            self._seq_floor = self.write_seq + self._SEQ_SLACK
            try:
                self._write_state_manifest()
            except TransientIOError:
                self._seq_floor = prev
                raise
        self.write_seq += 1
        return self.write_seq

    def _reachable(self, node_id: int) -> bool:
        """Whether a write goes to the replica now, not to a hint: not
        if it is dead (a failure the detector counts) or suspected."""
        if not self.nodes[node_id].alive:
            self.detector.record_failure(node_id)
            return False
        return not self.detector.suspected(node_id)

    def _write(self, key: Any, record: dict) -> None:
        """Write *record* to every replica of *key*, hinting the ones it
        cannot reach.  A write that reached no replica and no verified
        hint raises :class:`TransientIOError` once every replica was
        tried: acknowledged, anti-entropy would converge on a union
        state without it, and the key would read ABSENT."""
        landed = False
        for node_id in self.replicas_of(key):
            if not self._reachable(node_id):
                landed |= self.handoff.add(node_id, key, record)
                continue
            try:
                self.nodes[node_id].tree.put(key, record)
            except (TransientIOError, CircuitOpenError):
                self.detector.record_failure(node_id)
                landed |= self.handoff.add(node_id, key, record)
            else:
                self.detector.heartbeat(node_id)
                landed = True
        if not landed:
            raise TransientIOError(f"write of {key!r} reached no replica and no durable hint")

    def apply_record(self, node_id: int, key: Any, record: dict) -> bool:
        """Idempotently land *record* on a replica (hint replay, repair):
        applied only if strictly newer than what the replica holds.

        The read-before-write must be authoritative — an incomplete scan
        cannot prove the replica holds nothing newer — so transient
        trouble raises and the caller retries the whole (idempotent)
        apply later.
        """
        node = self.nodes[node_id]
        current = node.tree.lookup(key, degrade_on_error=True)
        if not current.complete:
            raise TransientIOError(
                f"replica r{node_id} read incomplete; apply deferred"
            )
        if _record_seq(current.value, -1) >= _record_seq(record):
            return False
        node.tree.put(key, record)
        return True

    # -- quorum reads ------------------------------------------------------------

    def _eligible_absent_voter(self, node: ReplicaNode) -> bool:
        return (
            node.alive
            and not node.tainted
            and self.handoff.pending_for(node.node_id) == 0
        )

    def _fanout_order(self, replicas) -> list[int]:
        # Stagger: healthiest replica first, stable tie-break on id so
        # the same seed replays the same probe order.
        return sorted(replicas, key=lambda r: (self.detector.suspicion(r), r))

    def lookup(
        self,
        key: Any,
        *,
        deadline: Deadline | None = None,
        degrade_on_error: bool = True,
    ) -> LookupResult:
        """Suspicion-ordered fan-out through
        :func:`~repro.common.clock.combine`: the first complete live
        record answers PRESENT (no waiting on slower replicas), and
        absence needs ``read_quorum`` complete scans from eligible
        replicas, where a tombstone counts as absence evidence.
        """
        m = bind_handles(self, _ReplicaMetrics)
        m.outcome_lookups.inc()
        result = combine(self._evidence(key, deadline, degrade_on_error),
                         self.read_quorum)
        getattr(m, "outcome_" + result.state.value).inc()
        return result

    def _evidence(self, key: Any, deadline: Deadline | None,
                  degrade_on_error: bool):
        """One ``(result, eligible)`` pair per replica, in fan-out order;
        a dead replica or an expired deadline is incomplete evidence."""
        for node_id in self._fanout_order(self.replicas_of(key)):
            node = self.nodes[node_id]
            if deadline is not None and deadline.expired():
                yield LookupResult(Answer.MAYBE, complete=False,
                                   reason="deadline"), False
                return
            if not node.alive:
                self.detector.record_failure(node_id)
                yield LookupResult(Answer.MAYBE, complete=False,
                                   reason="unavailable"), False
                continue
            result = node.tree.lookup(
                key, deadline=deadline, degrade_on_error=degrade_on_error
            )
            if result.complete:
                self.detector.heartbeat(node_id)
            if result.complete and _is_tombstone(result.value):
                result.state = Answer.ABSENT
            if isinstance(result.value, dict):
                result.value = result.value.get("v")
            # Only absence evidence needs the (hint-journal) eligibility test.
            yield result, (result.state is Answer.ABSENT
                           and self._eligible_absent_voter(node))

    # -- maintenance -------------------------------------------------------------

    def checkpoint(self) -> None:
        for node in self.nodes.values():
            if node.alive:
                node.tree.checkpoint()

    def publish_gauges(self) -> None:
        registry = default_registry()
        registry.gauge(
            "repro_replica_handoff_backlog", "hints journaled but not yet replayed"
        ).set(self.handoff.pending())
        by_state = registry.gauge(
            "repro_replica_nodes", "replica nodes by state", labels=("state",)
        )
        by_state.labels(state="alive").set(
            sum(1 for n in self.nodes.values() if n.alive)
        )
        by_state.labels(state="down").set(
            sum(1 for n in self.nodes.values() if not n.alive)
        )
        by_state.labels(state="tainted").set(
            sum(1 for n in self.nodes.values() if n.tainted)
        )
        self.detector.publish_gauges(sorted(self.nodes))


# -- hinted handoff ----------------------------------------------------------------


class HintedHandoff:
    """Durable hint journal plus crash-safe, idempotent replay.

    A hint is one missed write: ``("hint", seq, node)`` in the handoff
    namespace, CRC-framed like every other meta record.  Replay walks
    hints in sequence order, applies each to its (now reachable) target
    through :meth:`ReplicatedStore.apply_record` — a no-op when the
    replica already holds something newer, which is what makes replaying
    a half-completed batch after a crash safe — and only then deletes
    the journal record.  Crash points: ``handoff.replay`` (batch entry),
    ``handoff.replay:applied`` (records applied, journal not yet
    trimmed), ``handoff.replay:batch`` (batch complete).

    If journaling a hint itself fails past retries, the target replica
    is durably *tainted* — the write is lost, so the replica must not
    testify to absence until anti-entropy has re-verified it.  That
    safety net is what lets the no-false-negative proof treat "hint
    write failed" as a closed case.
    """

    def __init__(self, store: ReplicatedStore, *, injector: FaultInjector | None):
        self.store = store
        self.injector = injector
        self._journal = NamespacedDevice(store.device, _HANDOFF_NS)
        self._retry = RetryPolicy(max_attempts=4, clock=store.clock)
        # Every hint address on the journal, sorted (seq, then node):
        # scanned once here, since recovery builds a new handoff, then
        # kept in step by add() and the replay trim.
        self._addresses: list[tuple] = sorted(
            a for a in self._journal.addresses()
            if isinstance(a, tuple) and a[0] == "hint"
        )
        self._pending: dict[int, int] | None = None  # node_id -> hint count
        self._obs: _ReplicaMetrics | None = None

    # -- journaling --------------------------------------------------------------

    def max_hint_seq(self) -> int:
        return self._addresses[-1][1] if self._addresses else 0

    def add(self, node_id: int, key: Any, record: dict) -> bool:
        """Journal one missed write; returns whether its frame verified."""
        doc = {"node": node_id, "key": key, "record": record}
        payload = frame(json.dumps(doc, sort_keys=True).encode())
        address = ("hint", record["s"], node_id)
        try:
            self._retry.call(
                self._journal.write, address, payload, size=len(payload)
            )
            # Verify the frame landed intact: a torn/lost hint is a lost
            # write in disguise and must taint the target.
            unframe(self._retry.call(self._journal.read, address))
        except (TransientIOError, ChecksumError, KeyError):
            # A torn or flipped frame stays on the journal, where replay
            # skips it, so the list keeps whatever landed.
            if self._journal.exists(address):
                insort(self._addresses, address)
            self.store.set_tainted(node_id, True)
            self._count("dropped")
            return False
        insort(self._addresses, address)
        if self._pending is not None:
            self._pending[node_id] = self._pending.get(node_id, 0) + 1
        self._count("journaled")
        return True

    def _scan_pending(self) -> dict[int, int]:
        pending: dict[int, int] = {}
        for address in self._addresses:
            pending[address[2]] = pending.get(address[2], 0) + 1
        return pending

    def pending(self) -> int:
        return sum(self.pending_by_node().values())

    def pending_by_node(self) -> dict[int, int]:
        if self._pending is None:
            self._pending = self._scan_pending()
        return self._pending

    def pending_for(self, node_id: int) -> int:
        return self.pending_by_node().get(node_id, 0)

    # -- replay ------------------------------------------------------------------

    def replay(self, *, batch: int = 8, force: bool = False) -> int:
        """Replay up to *batch* hints whose targets are reachable.

        Returns the number of hints applied-and-trimmed.  ``force``
        replays even to suspected (but alive) targets — the post-storm
        drain.  Hints for dead targets stay journaled; hints that hit
        transient trouble are skipped this round and retried later.
        """
        crash_point(self.injector, "handoff.replay")
        applied: list[tuple] = []
        for address in self._addresses:
            if len(applied) >= batch:
                break
            node_id = address[2]
            node = self.store.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            if not force and self.store.detector.suspected(node_id):
                continue
            try:
                raw = self._retry.call(self._journal.read, address)
                doc = json.loads(unframe(raw).decode())
                self.store.apply_record(node_id, doc["key"], doc["record"])
            except (TransientIOError, CircuitOpenError, ChecksumError,
                    ValueError, KeyError):
                continue
            self.store.detector.heartbeat(node_id)
            applied.append((address, node_id))
        if not applied:
            return 0
        crash_point(self.injector, "handoff.replay:applied")
        for address, node_id in applied:
            self._journal.delete(address)
            del self._addresses[bisect_left(self._addresses, address)]
            if self._pending is not None and self._pending.get(node_id):
                self._pending[node_id] -= 1
                if not self._pending[node_id]:
                    del self._pending[node_id]
        self._count("replayed", len(applied))
        crash_point(self.injector, "handoff.replay:batch")
        return len(applied)

    def _count(self, action: str, n: int = 1) -> None:
        getattr(bind_handles(self, _ReplicaMetrics), "hints_" + action).inc(n)


# -- anti-entropy ------------------------------------------------------------------


class AntiEntropyRepairer:
    """Background digest comparison and repair streaming.

    The key space is carved into ``n_buckets`` hash buckets.  Each
    repair *round* starts with one snapshot scan of every alive
    replica's records (the round's I/O bill, charged through the normal
    device path); each :meth:`pump` then checks one ``(node, bucket)``
    cell against the snapshot: the replica's *actual* digest (CRC chain
    over its serialized records in the bucket) versus the *expected*
    digest (the max-seq winner per key, unioned across alive replicas,
    restricted to keys the replica is responsible for).  On mismatch the
    winners stream into the replica.  A tainted replica's taint clears
    only after a full clean round *and* a live re-verification of its
    digests — the snapshot alone is not trusted for a safety flag.

    Pumps are admission-gated at ``Priority.LOW`` with the same idle-
    runway rule as reshard pumps, so repair I/O soaks up slack instead
    of competing with foreground reads — and every pump does one
    *time-bounded* unit of work (scan one replica into the round's
    snapshot, or check one bucket with repair streaming cut off at
    ``pump_io_budget`` of simulated time, resuming the same cell next
    pump).  The device is serial: a pump that charged 100 ms of
    simulated I/O would stall every foreground request that arrived
    meanwhile, so boundedness here *is* the availability story.  Unless
    ``continuous=True``, pumps are no-ops while no replica is tainted —
    steady-state repair tax is zero until something actually needs
    repair.
    """

    def __init__(
        self,
        store: ReplicatedStore,
        *,
        admission: AdmissionController | None = None,
        injector: FaultInjector | None = None,
        n_buckets: int = 16,
        pump_budget: float = 0.001,
        pump_io_budget: float = 0.005,
        continuous: bool = False,
    ):
        self.store = store
        self.clock = store.clock
        self.gate = BackgroundGate(admission, self.clock, pump_budget)
        self.injector = injector
        self.n_buckets = n_buckets
        self.pump_io_budget = pump_io_budget
        self.continuous = continuous
        # Round state machine: scan alive replicas one per pump, then
        # check (node, bucket) cells one per pump.
        self._scan_queue: list[int] = []
        self._cells: list[tuple[int, int]] = []
        self._building: dict[int, dict[Any, Any]] = {}
        # The round's snapshot, split by bucket: node -> one {key: record}
        # per bucket, in scan order.
        self._snapshot: dict[int, list[dict[Any, Any]]] | None = None
        self._clean_streak: dict[int, int] = {}
        self._obs: _ReplicaMetrics | None = None

    # -- digests -----------------------------------------------------------------

    def bucket_of(self, key: Any) -> int:
        return hash_to_range(key, self.n_buckets, self.store.seed ^ _DIGEST_SALT)

    @staticmethod
    def _chain(records) -> int:
        digest = 0
        for key, record in sorted(records, key=lambda kr: str(kr[0])):
            payload = frame(
                json.dumps([key, record], sort_keys=True, default=repr).encode()
            )
            digest = zlib.crc32(payload, digest)
        return digest

    def _digests(self, records) -> dict[int, int]:
        """Per-bucket CRC chains over *records*."""
        buckets: dict[int, list[tuple]] = {}
        for key, record in records:
            buckets.setdefault(self.bucket_of(key), []).append((key, record))
        return {b: self._chain(buckets.get(b, [])) for b in range(self.n_buckets)}

    def node_digests(self, node_id: int) -> dict[int, int]:
        """Live per-bucket digests of one replica's stored records (one
        full scan, charged through the device)."""
        return self._digests(self.store.nodes[node_id].tree.items())

    def expected_digests(self, node_id: int) -> dict[int, int]:
        """Live per-bucket digests of the union-resolved state this
        replica *should* hold."""
        winners = self._winners(node_id, (
            pair for other in self.store.nodes.values() if other.alive
            for pair in other.tree.items()
        ))
        return self._digests(winners.items())

    def _winners(self, node_id: int, pairs) -> dict[Any, Any]:
        """The max-seq record per key among *pairs*, for the keys
        *node_id* is a replica of."""
        winners: dict[Any, Any] = {}
        for key, record in pairs:
            if node_id not in self.store.replicas_of(key):
                continue
            if key not in winners or _record_seq(record) > _record_seq(winners[key]):
                winners[key] = record
        return winners

    def _split(self, snapshot: dict[int, dict[Any, Any]]) -> dict[int, list[dict[Any, Any]]]:
        """Each replica's scanned records, split by bucket in scan order."""
        split = {}
        for node_id, records in snapshot.items():
            buckets: list[dict[Any, Any]] = [{} for _ in range(self.n_buckets)]
            for key, record in records.items():
                buckets[self.bucket_of(key)][key] = record
            split[node_id] = buckets
        return split

    def converged(self) -> bool:
        """Every alive replica's live digests equal its expected digests."""
        return all(
            self.node_digests(node_id) == self.expected_digests(node_id)
            for node_id, node in self.store.nodes.items()
            if node.alive
        )

    # -- the pump ----------------------------------------------------------------

    def _active(self) -> bool:
        return self.continuous or any(
            n.tainted for n in self.store.nodes.values()
        )

    @property
    def idle(self) -> bool:
        """True between rounds (no scan or cell in flight)."""
        return not self._scan_queue and not self._cells

    def pump(
        self,
        arrival: float | None = None,
        *,
        budget: float | None = None,
        force: bool = False,
    ) -> bool:
        """One bounded unit of repair work; returns True iff attempted.

        Gating mirrors the reshard pump: admitted at LOW priority, with
        idle runway before the next arrival.  A unit is one replica scan
        (building the round's snapshot) or one bucket check; repair
        streaming inside a bucket stops at ``pump_io_budget`` of
        simulated time and the cell is retried next pump, so no single
        pump can stall the serial device for long.
        """
        if not force and not self._active():
            return False
        if not self.gate.admit(arrival, budget=budget, force=force):
            bind_handles(self, _ReplicaMetrics).repair_sheds.inc()
            return False
        if not self._scan_queue and not self._cells:
            alive = [
                n for n in sorted(self.store.nodes)
                if self.store.nodes[n].alive
            ]
            if not alive:
                return False
            self._scan_queue = alive
            self._building = {}
        if self._scan_queue:
            node_id = self._scan_queue[0]
            node = self.store.nodes.get(node_id)
            if node is None or not node.alive:
                self._scan_queue.pop(0)
            else:
                try:
                    self._building[node_id] = dict(node.tree.items())
                except (TransientIOError, CircuitOpenError, DeadlineExceeded):
                    return True
                self._scan_queue.pop(0)
            if not self._scan_queue:
                self._snapshot = self._split(self._building)
                self._cells = [
                    (n, b) for n in self._snapshot for b in range(self.n_buckets)
                ]
                bind_handles(self, _ReplicaMetrics).repair_rounds.inc()
            return True
        node_id, bucket = self._cells[0]
        node = self.store.nodes.get(node_id)
        if node is None or not node.alive:
            self._cells.pop(0)
            return True
        try:
            done = self._check_bucket(node_id, bucket)
        except (TransientIOError, CircuitOpenError, DeadlineExceeded):
            return True
        if done:
            self._cells.pop(0)
        return True

    def _io_deadline(self) -> Deadline | None:
        if self.clock is None:
            return None
        return Deadline.after(self.clock, self.pump_io_budget)

    def _check_bucket(self, node_id: int, bucket: int) -> bool:
        """Digest-check one cell against the round snapshot, streaming
        repairs under a time budget.  Returns True when the cell is done
        (clean or fully streamed), False to resume next pump."""
        m = bind_handles(self, _ReplicaMetrics)
        m.buckets_checked.inc()
        snapshot = self._snapshot or {}
        if node_id not in snapshot:
            return True
        winners = self._winners(node_id, (
            pair for buckets in snapshot.values() for pair in buckets[bucket].items()
        ))
        actual = snapshot[node_id][bucket]
        if self._chain(winners.items()) == self._chain(actual.items()):
            self._mark_clean(node_id)
            return True
        crash_point(self.injector, "repair.stream")
        deadline = self._io_deadline()
        repaired = repair_bytes = 0
        exhausted = True
        for key, record in sorted(winners.items(), key=lambda kr: str(kr[0])):
            if _record_seq(actual.get(key), -1) >= _record_seq(record):
                continue
            if deadline is not None and deadline.expired():
                exhausted = False  # resume this cell next pump
                break
            actual[key] = record
            # The snapshot can predate a newer write to this replica, so
            # the record lands only if it beats what the replica holds now.
            if not self.store.apply_record(node_id, key, record):
                continue
            repaired += 1
            repair_bytes += len(
                frame(json.dumps([key, record], sort_keys=True,
                                 default=repr).encode())
            )
        if repaired:
            m.repairs_streamed.inc(repaired)
            m.repair_bytes.inc(repair_bytes)
        if not exhausted:
            return False
        # Streaming only adds newer records; a replica holding spurious
        # extras still mismatches, resets the streak, and gets re-checked
        # next round.
        if self._chain(winners.items()) == self._chain(actual.items()):
            self._mark_clean(node_id)
        else:
            self._clean_streak[node_id] = 0
        return True

    def _mark_clean(self, node_id: int) -> None:
        streak = self._clean_streak.get(node_id, 0) + 1
        self._clean_streak[node_id] = streak
        node = self.store.nodes[node_id]
        if not node.tainted or streak < self.n_buckets \
                or self.store.handoff.pending_for(node_id):
            return
        # A taint clear re-enables ABSENT votes, so it must not rest on a
        # possibly-stale snapshot: re-verify against the live trees.
        self._clean_streak[node_id] = 0
        if self.node_digests(node_id) == self.expected_digests(node_id):
            self.store.set_tainted(node_id, False)


# -- storm integration -------------------------------------------------------------


def build_replicated_stack(
    seed: int = 0,
    n_keys: int = 2_000,
    n_nodes: int = 3,
    *,
    replication: int | None = None,
    read_quorum: int | None = None,
    budget: float = 0.050,
    base_latency: float = 0.0008,
    breaker_kwargs: dict | None = None,
    admission_config: AdmissionConfig | None = None,
    lsm_config: LSMConfig | None = None,
):
    """The replicated sibling of :func:`repro.serve.sim.build_stack`.

    One clock, one fault/latency injector pair, one faulty device, and
    one breaker bank are shared by every replica (each node's tree sees
    a :class:`~repro.common.storage.NamespacedDevice` view, so scoped
    fault rates like ``{"run@r1": 0.5}`` target one replica).  Returns
    ``(served, store, repairer, device, injector, latency, clock)``.
    """
    parts = StackParts(seed, base_latency, breaker_kwargs)
    store = ReplicatedStore(
        parts.breaker_device,
        n_nodes=n_nodes,
        replication=replication,
        read_quorum=read_quorum,
        config=lsm_config,
        clock=parts.clock,
        detector=FailureDetector(parts.clock),
        injector=parts.injector,
        seed=seed,
    )
    served = parts.serve(
        store, budget=budget, n_keys=n_keys, admission_config=admission_config
    )
    repairer = AntiEntropyRepairer(
        store, admission=served.admission, injector=parts.injector
    )
    return (
        served, store, repairer, parts.device, parts.injector, parts.latency,
        parts.clock,
    )


@dataclass
class ReplicaReport(StormSummary):
    """What one replicated storm did: lifecycle events, handoff and
    repair volumes, convergence."""

    COUNTED = {
        "hints_journaled": ("repro_replica_hints_total", {"action": "journaled"}),
        "hints_replayed": ("repro_replica_hints_total", {"action": "replayed"}),
        "hints_dropped": ("repro_replica_hints_total", {"action": "dropped"}),
        "repairs": ("repro_replica_repairs_total", {"action": "streamed"}),
        "repair_bytes": ("repro_replica_repair_bytes_total", {}),
        "buckets_checked": ("repro_replica_buckets_checked_total", {}),
        "repair_sheds": ("repro_replica_repair_sheds_total", {}),
    }

    events: list[tuple[float, str]] = field(default_factory=list)
    kills: int = 0
    heals: int = 0
    crashes: int = 0
    recoveries: int = 0
    hints_journaled: int = 0
    hints_replayed: int = 0
    hints_dropped: int = 0
    repairs: int = 0
    repair_bytes: int = 0
    buckets_checked: int = 0
    repair_sheds: int = 0
    converged: bool = False
    backlog: int = 0

    def failures(self) -> list[str]:
        failed = []
        if not self.converged:
            failed.append("the replica digests did not converge")
        if self.backlog:
            failed.append(f"{self.backlog} hints were never replayed")
        if self.hints_dropped:
            failed.append(f"{self.hints_dropped} hints were dropped")
        return failed


def run_replica_storm(
    seed: int = 0,
    n_keys: int = 2_000,
    n_nodes: int = 3,
    *,
    replication: int | None = None,
    read_quorum: int | None = None,
    phases=None,
    kill_at: int = 0,
    heal_at: int = 0,
    kill_node: int | None = None,
    wipe: bool = False,
    crash_at_step: str | None = None,
    write_fraction: float = 0.0,
    drain: bool = True,
    **stack_kwargs,
):
    """A chaos storm over a replicated fleet, with a kill/heal in it.

    At request *kill_at* one replica dies (``wipe=True`` destroys its
    data too); at *heal_at* it comes back.  Every request tick pumps
    hinted-handoff replay and anti-entropy repair at background
    priority.  With *crash_at_step* a one-shot crash is armed at that
    step (e.g. ``handoff.replay:applied``); when it fires, all in-memory
    state is discarded and the fleet recovers from its devices.  After
    the storm (``drain=True``) hints replay to exhaustion and repair
    rounds run until digests converge.
    Returns ``(storm_report, replica_report, store, repairer)``.
    """
    window = CounterWindow()
    served, store, repairer, device, injector, latency, clock = (
        build_replicated_stack(
            seed, n_keys, n_nodes,
            replication=replication, read_quorum=read_quorum, **stack_kwargs,
        )
    )
    phases = CALM_STORM_RECOVERY if phases is None else phases
    report = ReplicaReport()
    victim = kill_node if kill_node is not None else (1 % n_nodes)
    state = {"store": store, "repairer": repairer}

    def recover() -> ReplicatedStore:
        old_store = state["store"]
        new_store = ReplicatedStore.recover(
            old_store.device, clock=clock,
            detector=FailureDetector(clock), injector=injector,
            config=old_store.config,
        )
        state["store"], state["repairer"] = new_store, AntiEntropyRepairer(
            new_store, admission=served.admission, injector=injector
        )
        return new_store

    def tick(n: int, arrival: float) -> None:
        if kill_at > 0 and n == kill_at:
            if crash_at_step:
                injector.crash_after(crash_at_step)
            state["store"].kill(victim, wipe=wipe)
            report.kills += 1
            report.events.append((clock.now(), f"kill:r{victim}"))
        elif heal_at > 0 and n == heal_at:
            state["store"].heal(victim)
            report.heals += 1
            report.events.append((clock.now(), f"heal:r{victim}"))
        elif n % 2:
            # Alternate the two background pumps so neither starves.
            # Replay gets the repair pump's idle-runway rule: background
            # convergence I/O must not stall the serial device while
            # foreground traffic is hot.
            if state["repairer"].gate.has_runway(arrival):
                state["store"].handoff.replay(batch=4)
        else:
            state["repairer"].pump(arrival)

    driver = StormDriver(
        served, report, seed=seed, n_keys=n_keys,
        write_fraction=write_fraction, tick=tick, recover=recover,
    )
    storm = run_storm(
        served, phases, seed=seed, n_keys=n_keys, ticker=driver.ticker
    )

    def drain_step() -> bool:
        if state["store"].handoff.replay(batch=16, force=True):
            return False
        state["repairer"].pump(force=True)
        # One converged check per completed round keeps the drain's own
        # scan bill bounded.
        return state["repairer"].idle and state["repairer"].converged()

    if drain:
        # Full convergence is the drain's contract, and a dead replica
        # can neither take its hints nor be digest-checked (converged()
        # is alive-only) — so first bring back every node still down,
        # including any boot-tainted by a mid-storm crash recovery.
        for node_id, node in sorted(state["store"].nodes.items()):
            if not node.alive:
                state["store"].heal(node_id)
                report.heals += 1
                report.events.append((clock.now(), f"drain-heal:r{node_id}"))
        driver.drain(drain_step, 10_000)

    final_store, final_repairer = state["store"], state["repairer"]
    report.read_counts(window)
    report.converged = final_repairer.converged()
    report.backlog = final_store.handoff.pending()
    final_store.publish_gauges()
    return storm, report, final_store, final_repairer
