"""Metric primitives: counters, gauges, log-bucketed histograms, registry.

The tutorial's thesis is that filter choice should follow *measured*
workload behaviour — negative-lookup rates, per-level probe costs,
adaptivity hit patterns.  This module is the measurement substrate: a
dependency-free, thread-safe metrics registry in the Prometheus data
model (labelled counters / gauges / histograms), small enough to sit in
the hot path of a pure-Python simulator.

Naming convention (docs/observability.md): ``repro_<subsystem>_<what>``
with ``_total`` for counters and ``_seconds`` / ``_bytes`` unit suffixes,
e.g. ``repro_device_reads_total``, ``repro_retry_backoff_seconds``.
Names and label names must be valid Prometheus identifiers — the
registry rejects anything else at registration time, and registering the
same name twice with a different type or label set raises
:class:`MetricError`.

A process-wide *default registry* (:func:`default_registry`) lets
library code emit metrics without threading a registry through every
constructor; tests swap it with :func:`use_registry`.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Iterator

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric name, duplicate registration, or label misuse."""


def validate_metric_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise MetricError(f"invalid Prometheus metric name {name!r}")
    return name


def validate_label_name(name: str) -> str:
    if not _LABEL_RE.match(name or "") or name.startswith("__"):
        raise MetricError(f"invalid Prometheus label name {name!r}")
    return name


class _Metric:
    """Base for one named metric family (shared by all its label series)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: tuple[str, ...] = ()):
        self.name = validate_metric_name(name)
        self.help = help
        self.labelnames = tuple(validate_label_name(l) for l in labels)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _label_key(self, kwargs: dict) -> tuple[str, ...]:
        if set(kwargs) != set(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(kwargs)}"
            )
        return tuple(str(kwargs[l]) for l in self.labelnames)

    def labels(self, **kwargs):
        """The child series for one combination of label values."""
        key = self._label_key(kwargs)
        child = self._series.get(key)
        if child is None:
            with self._lock:
                child = self._series.setdefault(key, self._new_child())
        return child

    def _default_child(self):
        # Hot path (every WAL append, every device write): the unlabelled
        # child, once created, needs no label re-validation.  A labelled
        # family never has a () series, so it still raises below.
        child = self._series.get(())
        if child is not None:
            return child
        if self.labelnames:
            raise MetricError(f"{self.name} is labelled: call .labels(...) first")
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> list[tuple[dict[str, str], object]]:
        """All (labels-dict, child) pairs, label-sorted for stable output."""
        with self._lock:
            items = sorted(self._series.items())
        return [(dict(zip(self.labelnames, key)), child) for key, child in items]


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, probes)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: int | float = 1) -> None:
        self._default_child().inc(amount)

    @property
    def value(self):
        """Unlabelled shortcut; labelled counters expose per-child values."""
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class Gauge(_Metric):
    """A value that can go up and down (occupancy, rates, bits/key)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


def log_buckets(start: float, growth: float, count: int) -> tuple[float, ...]:
    """Exponentially spaced upper bounds: ``start * growth**i``."""
    if start <= 0 or growth <= 1 or count < 1:
        raise MetricError("log buckets need start > 0, growth > 1, count >= 1")
    return tuple(start * growth**i for i in range(count))


# Spans 1µs .. ~68s in ×4 steps — wide enough for both simulated backoff
# seconds and real insert/probe latencies.
DEFAULT_BUCKETS = log_buckets(1e-6, 4.0, 14)


class _HistogramChild:
    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]):
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = overflow (+Inf)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def merge(self, other: "_HistogramChild") -> None:
        """Fold *other* into this child (shards, per-thread histograms)."""
        if other.bounds != self.bounds:
            raise MetricError("cannot merge histograms with different buckets")
        with self._lock:
            for i, c in enumerate(other.counts):
                self.counts[i] += c
            self.sum += other.sum
            self.count += other.count

    def quantile(self, q: float) -> float:
        """Upper bucket bound at quantile *q* (0 when empty).

        Log-bucketed histograms answer quantiles to one bucket's
        resolution — the standard Prometheus estimate, taken at the
        bucket's upper bound so it never under-reports.
        """
        if not 0 <= q <= 1:
            raise MetricError("quantile must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            seen = 0
            for i, c in enumerate(self.counts):
                seen += c
                if seen >= rank and c:
                    return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - defensive


class Histogram(_Metric):
    """Log-bucketed distribution (latencies, backoff, batch sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise MetricError("histogram bucket bounds must be strictly increasing")
        super().__init__(name, help, labels)
        self.bounds = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum


class WindowedRate:
    """Events per tick over a trailing window — a burst detector.

    Callers :meth:`record` one event at a monotonically non-decreasing
    *tick* (any counter that advances with normal activity, e.g. a
    request count) and get back the current rate: events whose tick
    falls inside the trailing ``window`` ticks, divided by the window
    length.  The cache tier uses this to flag invalidation storms —
    invalidations recorded against the request counter spike when a
    compaction churns addresses faster than lookups consume them.
    """

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._events: deque[float] = deque()

    def record(self, tick: float, n: int = 1) -> float:
        """Mark *n* events at *tick*; returns the updated rate."""
        self._events.extend(repeat(tick, n))
        return self.rate(tick)

    def rate(self, tick: float) -> float:
        """Events per tick over ``[tick - window, tick]``."""
        cutoff = tick - self.window
        while self._events and self._events[0] <= cutoff:
            self._events.popleft()
        return len(self._events) / self.window


@contextmanager
def timed(histogram, clock: Any = None) -> Iterator[None]:
    """Observe a block's duration into *histogram* (or a labelled child).

    *clock* is anything with ``now()`` — normally a
    :class:`~repro.common.clock.SimulatedClock`, so instrumented code
    measures accounted simulated time; defaults to wall time.  The
    duration is recorded even when the block raises: a failed operation
    still took that long.
    """
    now = clock.now if clock is not None else time.perf_counter
    start = now()
    try:
        yield
    finally:
        histogram.observe(now() - start)


class MetricsRegistry:
    """A namespace of metrics with get-or-create registration.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered *with the same type and labels*, so
    library call sites can bind metrics lazily without coordinating
    creation order.  A name collision across types (or label sets, or
    histogram buckets) is a programming error and raises
    :class:`MetricError` — ``python -m repro stats --selftest`` checks
    exactly this invariant.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._handles: dict[type, Handles] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help, tuple(labels), **kwargs)
                    self._metrics[name] = metric
                    return metric
        if type(metric) is not cls:
            raise MetricError(
                f"{name} already registered as {metric.kind}, not {cls.kind}"
            )
        if metric.labelnames != tuple(labels):
            raise MetricError(
                f"{name} already registered with labels {metric.labelnames}"
            )
        if kwargs.get("buckets") is not None and metric.bounds != tuple(
            float(b) for b in kwargs["buckets"]
        ):
            raise MetricError(f"{name} already registered with different buckets")
        return metric

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets or DEFAULT_BUCKETS
        )

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def handles(self, cls: type[Handles]) -> Handles:
        """The one instance of :class:`Handles` subclass *cls* in this
        registry, shared by every object that emits its families."""
        handles = self._handles.get(cls)
        if handles is None:
            handles = self._handles.setdefault(cls, cls(self))
        return handles

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def names(self) -> list[str]:
        return [m.name for m in self.metrics()]

    def unregister(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)

    def snapshot(self) -> dict:
        """JSON-serializable dump of every series (the JSON export body)."""
        out: dict = {}
        for metric in self.metrics():
            entry: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": [],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.bounds)
            for labelvals, child in metric.series():
                if isinstance(child, _HistogramChild):
                    entry["series"].append(
                        {
                            "labels": labelvals,
                            "count": child.count,
                            "sum": child.sum,
                            "bucket_counts": list(child.counts),
                        }
                    )
                else:
                    entry["series"].append({"labels": labelvals, "value": child.value})
            out[metric.name] = entry
        return out


def registry_from_snapshot(snap: dict) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` output."""
    reg = MetricsRegistry()
    for name, entry in snap.items():
        labels = tuple(entry.get("labelnames", ()))
        kind = entry.get("kind")
        if kind == "counter":
            metric = reg.counter(name, entry.get("help", ""), labels)
            for s in entry["series"]:
                metric.labels(**s["labels"]).inc(s["value"])
        elif kind == "gauge":
            metric = reg.gauge(name, entry.get("help", ""), labels)
            for s in entry["series"]:
                metric.labels(**s["labels"]).set(s["value"])
        elif kind == "histogram":
            metric = reg.histogram(
                name, entry.get("help", ""), labels, buckets=tuple(entry["buckets"])
            )
            for s in entry["series"]:
                child = metric.labels(**s["labels"])
                child.counts = list(s["bucket_counts"])
                child.count = s["count"]
                child.sum = s["sum"]
        else:
            raise MetricError(f"unknown metric kind {kind!r} for {name}")
    return reg


# -- process-wide default registry -------------------------------------------------

_default = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The registry library code emits into unless told otherwise."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default
    with _default_lock:
        previous, _default = _default, registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Temporarily make *registry* (default: a fresh one) the default —
    the isolation idiom for tests and the CLI."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


# -- metric handles ------------------------------------------------------------------


class Family:
    """One metric family, declared once as an attribute of a
    :class:`Handles` subclass: its kind (``"counter"``, ``"gauge"`` or
    ``"histogram"``), name, help and label names."""

    KINDS = ("counter", "gauge", "histogram")

    def __init__(self, kind: str, name: str, help: str, labels: tuple[str, ...] = ()):
        if kind not in self.KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.name = validate_metric_name(name)
        self.help = help
        self.labels = tuple(validate_label_name(label) for label in labels)
        self.attr = ""

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, handles: Any, owner: type | None = None):
        # An unlabelled family bound on *handles* is an instance attribute
        # (the child itself), which wins over this non-data descriptor.
        if handles is None:
            return self
        if self.labels:
            raise MetricError(f"{self.name} is labelled: use child({self.attr!r}, ...)")
        return _Unbound(handles, self.attr, ())


class _Unbound:
    """A child nothing has counted yet: counting, setting or observing
    binds it, and reading its value binds nothing."""

    __slots__ = ("_handles", "_attr", "_values")

    def __init__(self, handles: "Handles", attr: str, values: tuple):
        self._handles = handles
        self._attr = attr
        self._values = values

    def _bind(self):
        return self._handles.bind(self._attr, *self._values)

    def inc(self, amount: int | float = 1) -> None:
        self._bind().inc(amount)

    def set(self, value: float) -> None:
        self._bind().set(value)

    def observe(self, value: float) -> None:
        self._bind().observe(value)

    @property
    def value(self) -> int | float:
        """The series' value in the registry (0 while unregistered)."""
        family = type(self._handles).FAMILIES[self._attr]
        metric = self._handles.registry.get(family.name)
        if metric is None:
            return 0
        child = metric._series.get(tuple(str(v) for v in self._values))
        return child.value if child is not None else 0


class Handles:
    """A module's metric families, each declared once as a :class:`Family`
    class attribute, and their children in one registry.

    An unlabelled family is read as an attribute (``m.reads.inc()``); a
    labelled family's child is ``m.child(attr, *label_values)``, cached
    per values so a hit does no label validation.  A family is
    registered, and a child bound, when first counted, set or observed,
    so a registry lists only what happened; reading a value binds
    nothing.  :meth:`bind` binds a child at once, for a holder that
    keeps its children itself.  Subclasses only declare families; a
    registry keeps one instance of each (:meth:`MetricsRegistry.handles`),
    which :func:`bind_handles` hands to every object emitting into it.
    """

    FAMILIES: dict[str, Family] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.FAMILIES = {
            attr: value for attr, value in vars(cls).items() if isinstance(value, Family)
        }

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._families: dict[str, _Metric] = {}
        self._bound: dict[str, dict[tuple, Any]] = {attr: {} for attr in self.FAMILIES}

    def child(self, attr: str, *values):
        """The child of family *attr* for label *values*."""
        bound = self._bound[attr].get(values)
        return bound if bound is not None else _Unbound(self, attr, values)

    def bind(self, attr: str, *values):
        """Register family *attr* if need be and bind its child for *values*."""
        children = self._bound[attr]
        bound = children.get(values)
        if bound is not None:
            return bound
        metric = self._families.get(attr)
        if metric is None:
            family = self.FAMILIES[attr]
            register = getattr(self.registry, family.kind)
            metric = self._families[attr] = register(family.name, family.help, family.labels)
        if len(values) != len(metric.labelnames):
            raise MetricError(f"{metric.name} expects labels {metric.labelnames}, got {values}")
        bound = children[values] = metric.labels(**dict(zip(metric.labelnames, values)))
        if not values:
            setattr(self, attr, bound)
        return bound


def declared_families() -> dict[str, list[type[Handles]]]:
    """Every family name the :class:`Handles` subclasses of ``repro``
    declare, with the classes declaring it.  Imports every ``repro``
    module first, so that each subclass is defined."""
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    declared: dict[str, list[type[Handles]]] = {}
    for cls in Handles.__subclasses__():
        if cls.__module__.startswith("repro."):
            for family in cls.FAMILIES.values():
                declared.setdefault(family.name, []).append(cls)
    return declared


def bind_handles(holder: Any, cls: type[Handles]) -> Any:
    """``holder._obs``: the default registry's instance of :class:`Handles`
    subclass *cls*, looked up again only when the default registry has
    been swapped since, so a hot path reaches each family once per
    registry instead of by name per event."""
    obs = holder._obs
    if obs is None or obs.registry is not _default:
        obs = holder._obs = _default.handles(cls)
    return obs


class CounterWindow:
    """What a registry's counters counted since the window opened.

    Storm reports read their counts through one, opened before the stack
    is built: the registry is the only record of a storm's counts, and
    the window subtracts whatever it held before (another storm, a
    test's set-up).  Counts survive crash recovery because the registry
    does; no object has to carry them across.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else default_registry()
        self._start = {
            (metric.name, tuple(labels.items())): child.value
            for metric in self.registry.metrics() if isinstance(metric, Counter)
            for labels, child in metric.series()
        }

    def count(self, name: str, **labels: str) -> int | float:
        """The change in counter *name*, summed over its series that
        match *labels* (0 while the family is unregistered)."""
        metric = self.registry.get(name)
        if metric is None:
            return 0
        total = 0
        for values, child in metric.series():
            if all(values[k] == v for k, v in labels.items()):
                total += child.value - self._start.get((name, tuple(values.items())), 0)
        return total
