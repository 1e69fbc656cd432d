"""The dictionary problem harness: filter + backing store + I/O accounting.

§2.3 frames adaptivity in the *dictionary* setting: a filter guards an
on-disk key/value store, every positive filter answer costs a device read,
and a false positive costs a wasted read.  This class wires any filter to a
simulated :class:`~repro.common.storage.BlockDevice`, confirms false
positives against the ground truth, and — when the filter is adaptive —
feeds them back via ``report_false_positive``.

Experiments T5/F3 measure exactly the quantity the tutorial highlights:
the number of wasted negative-lookup I/Os under adversarial and Zipfian
query streams.

Telemetry: lookups accrue to ``repro_dict_queries_total{outcome=
negative|hit|false_positive}`` and adaptation events to
``repro_dict_adaptations_total`` in the default :mod:`repro.obs`
registry; ``dict.get`` / ``filter.probe`` / ``filter.adapt`` spans are
emitted when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.clock import Answer, DeadlineExceeded, LookupResult
from repro.common.faults import CircuitOpenError, TransientIOError
from repro.common.storage import BlockDevice
from repro.core.interfaces import AdaptiveFilter, Key, KeyBatch, as_key_list
from repro.obs.metrics import Family, Handles, bind_handles
from repro.obs.tracing import trace


@dataclass
class DictionaryStats:
    queries: int = 0
    positive_hits: int = 0
    false_positives: int = 0
    disk_reads: int = 0
    adaptations_fed_back: int = 0

    @property
    def wasted_read_rate(self) -> float:
        """False-positive disk reads per query — the §2.3 cost metric."""
        return self.false_positives / self.queries if self.queries else 0.0


class _DictMetrics(Handles):
    queries = Family("counter", "repro_dict_queries_total",
                     "filtered-dictionary lookups, by outcome", ("outcome",))
    adaptations = Family("counter", "repro_dict_adaptations_total",
                         "false positives fed back to an adaptive filter")


class FilteredDictionary:
    """A key/value dictionary guarded by a (possibly adaptive) filter.

    An optional :class:`~repro.cache.NegativeLookupCache` memoizes
    authoritative ABSENT answers (filter negatives and confirmed false
    positives), versioned by ``mutation_epoch`` — every :meth:`put` /
    :meth:`remove` bumps the epoch, so a cached ABSENT can never survive
    a mutation that might contradict it.  Late (deadline-expired) and
    degraded MAYBE results never populate it (docs/robustness.md).
    """

    def __init__(self, filt, *, device: BlockDevice | None = None,
                 negative_cache: Any = None):
        self._filter = filt
        self._device = device if device is not None else BlockDevice()
        self._adaptive = isinstance(filt, AdaptiveFilter)
        self.stats = DictionaryStats()
        self.mutation_epoch = 0
        self.negative_cache = negative_cache
        self._obs: _DictMetrics | None = None

    @property
    def filter(self):
        return self._filter

    @property
    def device(self) -> BlockDevice:
        return self._device

    def put(self, key: Key, value: Any) -> None:
        self.mutation_epoch += 1
        self._filter.insert(key)
        self._device.write(("kv", key), value, size=64)

    def remove(self, key: Key) -> None:
        self.mutation_epoch += 1
        self._device.delete(("kv", key))
        self._filter.delete(key)

    def get(self, key: Key, default: Any = None, *, deadline: Any = None) -> Any:
        """Point lookup.  Disk is touched only when the filter says maybe.

        With a :class:`~repro.common.clock.Deadline`, raises
        :class:`~repro.common.clock.DeadlineExceeded` when the budget
        expires before the lookup resolves; :meth:`lookup` is the
        non-raising tri-state form the serving layer uses.
        """
        with trace("dict.get", key=key):
            result = self.lookup(key, deadline=deadline)
        if not result.complete and result.reason == "deadline":
            raise DeadlineExceeded(f"lookup of key {key!r} missed its deadline")
        return result.value if result.found else default

    def lookup(self, key: Key, *, deadline: Any = None,
               degrade_on_error: bool = False) -> LookupResult:
        """Deadline-aware tri-state lookup (docs/robustness.md): a batch
        of one, plus an entry check and a late rule, so a late answer can
        never masquerade as meeting its SLO."""
        if deadline is not None and deadline.expired():
            self.stats.queries += 1
            return LookupResult(Answer.MAYBE, complete=False, reason="deadline")
        result = self.lookup_many(
            (key,), deadline=deadline, degrade_on_error=degrade_on_error)[0]
        if result.complete and deadline is not None and deadline.expired():
            result.state, result.complete, result.reason = (
                Answer.MAYBE, False, "deadline")
        return result

    def lookup_many(self, keys: KeyBatch, *, deadline: Any = None,
                    degrade_on_error: bool = False) -> list[LookupResult]:
        """The read scan: one tri-state :class:`LookupResult` per key.

        Each key consults the negative cache, then the filter, and only
        a filter positive reads the device.  Keys go one at a time, in
        order, because a confirmed false positive adapts the filter and
        fills the cache: each key sees both as a loop of :meth:`lookup`
        calls would.  *deadline* is checked before each device read; a
        key that still needs one after expiry answers MAYBE
        (``"deadline"``), and an ABSENT whose read lands late is
        returned but not cached.  With ``degrade_on_error=True`` an
        unreadable device answers MAYBE (``"unavailable"``).
        """
        m = bind_handles(self, _DictMetrics)
        keys = as_key_list(keys)
        self.stats.queries += len(keys)
        cache = self.negative_cache
        results = []
        for key in keys:
            result = LookupResult(Answer.ABSENT)
            results.append(result)
            if cache is not None and cache.known_absent(key, self.mutation_epoch):
                # A memoized authoritative ABSENT under the current epoch —
                # no filter probe, no device read, and no adaptive feedback
                # (the first confirmation already fed the filter).
                m.child("queries", "negative").inc()
                continue
            with trace("filter.probe"):
                maybe = self._filter.may_contain(key)
            if not maybe:
                m.child("queries", "negative").inc()
                if cache is not None:
                    cache.record_absent(key, self.mutation_epoch)
                continue
            if deadline is not None and deadline.expired():
                result.state, result.complete, result.reason = (
                    Answer.MAYBE, False, "deadline")
                continue
            self.stats.disk_reads += 1
            try:
                present = self._device.exists(("kv", key))
                value = self._device.read(("kv", key)) if present else None
            except (TransientIOError, CircuitOpenError):
                if not degrade_on_error:
                    raise
                result.state, result.complete, result.reason = (
                    Answer.MAYBE, False, "unavailable")
                result.runs_skipped = 1
                continue
            result.runs_probed = 1
            if present:
                self.stats.positive_hits += 1
                m.child("queries", "hit").inc()
                result.state, result.value = Answer.PRESENT, value
                continue
            # Confirmed false positive: this is the moment the paper's
            # adaptive loop closes — the expensive read already happened,
            # so reporting back to the filter is free.
            self.stats.false_positives += 1
            m.child("queries", "false_positive").inc()
            if self._adaptive:
                with trace("filter.adapt"):
                    self._filter.report_false_positive(key)
                self.stats.adaptations_fed_back += 1
                m.adaptations.inc()
            if cache is not None and (deadline is None or not deadline.expired()):
                cache.record_absent(key, self.mutation_epoch)
        return results

    def __contains__(self, key: Key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel
