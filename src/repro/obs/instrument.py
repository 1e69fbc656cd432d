"""`InstrumentedFilter`: observe any filter without touching its internals.

"How to Train Your Filter" compares learn/stack/adapt strategies on
per-query telemetry — probe counts, positive/negative split, and (when
ground truth is available) the realised false-positive rate.  This
wrapper produces exactly that for *any* object implementing the
:class:`~repro.core.interfaces.Filter` protocol, by interception rather
than modification, so every one of the repo's ~40 filter families is
observable for free (``make_filter(..., instrument=True)`` is the
registry hook).

Metrics (all labelled ``filter=<name>`` in the target registry):

* ``repro_filter_probes_total{result=positive|negative}``
* ``repro_filter_false_positives_total`` — only when ground truth is
  supplied (a set/container or a ``key -> bool`` predicate)
* ``repro_filter_inserts_total`` / ``repro_filter_deletes_total``
* ``repro_filter_insert_seconds`` — insert latency histogram

Metric children are bound once at construction, so the per-probe cost is
one dict-free counter increment (EXPERIMENTS.md O1 measures the ratio).
"""

from __future__ import annotations

import time
from typing import Callable, Container

import numpy as np

from repro.core.interfaces import Key, KeyBatch, as_key_list
from repro.obs.metrics import Family, Handles, MetricsRegistry, default_registry


class _FilterMetrics(Handles):
    probes = Family("counter", "repro_filter_probes_total",
                    "membership probes against instrumented filters", ("filter", "result"))
    false_positives = Family("counter", "repro_filter_false_positives_total",
                             "positive probes contradicted by supplied ground truth", ("filter",))
    inserts = Family("counter", "repro_filter_inserts_total",
                     "keys inserted through instrumented filters", ("filter",))
    deletes = Family("counter", "repro_filter_deletes_total",
                     "keys deleted through instrumented filters", ("filter",))
    insert_seconds = Family("histogram", "repro_filter_insert_seconds",
                            "wall-clock insert latency", ("filter",))


class InstrumentedFilter:
    """Transparent observing proxy around a point filter.

    Forwards the full dynamic-filter surface (``insert``, ``delete``,
    ``may_contain``, plus anything else via ``__getattr__``) and counts
    as it goes.  With ``ground_truth`` — a container of the true key set
    or a predicate — positive probes are classified as true or false
    positives, giving a *measured* FP rate with no filter cooperation.
    """

    def __init__(
        self,
        inner,
        *,
        name: str | None = None,
        registry: MetricsRegistry | None = None,
        ground_truth: Container[Key] | Callable[[Key], bool] | None = None,
    ):
        self.inner = inner
        self.name = name or type(inner).__name__
        reg = registry if registry is not None else default_registry()
        self.registry = reg
        m = reg.handles(_FilterMetrics)
        self._positive = m.bind("probes", self.name, "positive")
        self._negative = m.bind("probes", self.name, "negative")
        self._false_pos = m.bind("false_positives", self.name)
        self._inserts = m.bind("inserts", self.name)
        self._deletes = m.bind("deletes", self.name)
        self._insert_seconds = m.bind("insert_seconds", self.name)
        if ground_truth is None:
            self._truth = None
        elif callable(ground_truth):
            self._truth = ground_truth
        else:
            self._truth = ground_truth.__contains__

    # -- observed filter protocol ---------------------------------------------------

    def may_contain(self, key: Key) -> bool:
        result = self.inner.may_contain(key)
        if result:
            self._positive.inc()
            if self._truth is not None and not self._truth(key):
                self._false_pos.inc()
        else:
            self._negative.inc()
        return result

    def __contains__(self, key: Key) -> bool:
        return self.may_contain(key)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Batched probe: one inner kernel call, counters bumped by batch
        totals so per-op metrics stay additive with the scalar path."""
        inner_many = getattr(self.inner, "may_contain_many", None)
        if inner_many is not None:
            results = np.asarray(inner_many(keys), dtype=bool)
        else:
            key_list = as_key_list(keys)
            results = np.fromiter(
                (self.inner.may_contain(k) for k in key_list),
                dtype=bool,
                count=len(key_list),
            )
        positives = int(results.sum())
        self._positive.inc(positives)
        self._negative.inc(len(results) - positives)
        if self._truth is not None and positives:
            key_list = as_key_list(keys)
            false_pos = sum(
                1
                for key, hit in zip(key_list, results.tolist())
                if hit and not self._truth(key)
            )
            if false_pos:
                self._false_pos.inc(false_pos)
        return results

    def insert(self, key: Key) -> None:
        start = time.perf_counter()
        self.inner.insert(key)
        self._insert_seconds.observe(time.perf_counter() - start)
        self._inserts.inc()

    def insert_many(self, keys: KeyBatch) -> None:
        """Batched insert: counts every key; the latency histogram records
        the batch's mean per-key latency (one observation per batch)."""
        n = len(keys)
        if not n:
            return
        inner_many = getattr(self.inner, "insert_many", None)
        start = time.perf_counter()
        if inner_many is not None:
            inner_many(keys)
        else:
            for key in as_key_list(keys):
                self.inner.insert(key)
        self._insert_seconds.observe((time.perf_counter() - start) / n)
        self._inserts.inc(n)

    def delete(self, key: Key) -> None:
        self.inner.delete(key)
        self._deletes.inc()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def size_in_bits(self) -> int:
        return self.inner.size_in_bits

    @property
    def bits_per_key(self) -> float:
        return self.inner.bits_per_key

    def __getattr__(self, attr: str):
        # Everything not intercepted (count, expand, report_false_positive,
        # epsilon, supports_deletes, ...) passes straight through.
        return getattr(self.inner, attr)

    # -- derived readings -----------------------------------------------------------

    @property
    def probes(self) -> int:
        return self._positive.value + self._negative.value

    @property
    def positives(self) -> int:
        return self._positive.value

    @property
    def negatives(self) -> int:
        return self._negative.value

    @property
    def false_positives(self) -> int:
        return self._false_pos.value

    @property
    def observed_fp_rate(self) -> float:
        """FP probes over probes for truly-absent keys (needs ground truth).

        Truly-absent probes = filter negatives (never false) plus the
        positives ground truth contradicted.
        """
        absent = self._negative.value + self._false_pos.value
        return self._false_pos.value / absent if absent else 0.0

    @property
    def positive_rate(self) -> float:
        n = self.probes
        return self._positive.value / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InstrumentedFilter {self.name} probes={self.probes}>"


def instrument(
    filt,
    *,
    name: str | None = None,
    registry: MetricsRegistry | None = None,
    ground_truth: Container[Key] | Callable[[Key], bool] | None = None,
) -> InstrumentedFilter:
    """Wrap *filt* (idempotent: an already-instrumented filter is returned
    as-is when the target registry matches)."""
    if isinstance(filt, InstrumentedFilter) and (
        registry is None or filt.registry is registry
    ):
        return filt
    return InstrumentedFilter(
        filt, name=name, registry=registry, ground_truth=ground_truth
    )
