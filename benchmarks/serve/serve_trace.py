"""Spans recorded from outside the program, by wrapping public methods.

The benchmark never edits the code it measures.  :class:`Patcher` swaps
a class's (or module's) attribute for a wrapper and puts the original
back on exit; :class:`Tracer` is the wrapper factory that turns every
call into a span: name, wall start and end, parent, request id and, when
the instance carries a ``clock``, the simulated seconds that passed.

Spans are folded into per-name aggregates as they close (count, total
and self time, split by phase and by whether the span ran for a request,
that is below a ``serve`` span), so a full-size traced run needs
constant memory.  Whole span records, each with its own self time, are
kept only for the first ``keep_requests`` requests; that sample is what
``--out`` writes.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable


class Patcher:
    """Replace attributes of classes or modules; restore them in reverse."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Install ``make(current)`` as ``owner.attr``."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def traced_methods() -> list[tuple[type, str, str]]:
    """Every ``(class, method, span name)`` a traced run wraps."""
    from repro.cache import CachedDevice, NegativeLookupCache
    from repro.apps.lsm import LSMTree
    from repro.common.faults import FaultyBlockDevice, RetryPolicy
    from repro.core.bloofi import BloofiTree
    from repro.filters.bloom import BloomFilter
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import (
        AdmissionController,
        AntiEntropyRepairer,
        BreakerDevice,
        HintedHandoff,
        ReplicatedStore,
        ReshardCoordinator,
        ServedFilter,
        ShardedStore,
        TenantRouter,
        TenantStore,
    )

    return [
        (ServedFilter, "serve", "serve"),
        (AdmissionController, "admit", "admission.admit"),
        (NegativeLookupCache, "known_absent", "cache.known_absent"),
        (CachedDevice, "read", "cache.read"),
        (BreakerDevice, "read", "breaker.read"),
        (FaultyBlockDevice, "read", "device.read"),
        (RetryPolicy, "call", "retry.call"),
        (LSMTree, "lookup", "lsm.lookup"),
        (LSMTree, "put", "lsm.put"),
        (BloomFilter, "may_contain", "filter.may_contain"),
        (BloomFilter, "insert", "filter.insert"),
        (ShardedStore, "lookup", "reshard.lookup"),
        (ShardedStore, "put", "reshard.put"),
        (ReshardCoordinator, "pump", "reshard.pump"),
        (ReplicatedStore, "lookup", "replica.lookup"),
        (ReplicatedStore, "put", "replica.put"),
        (HintedHandoff, "replay", "replica.replay"),
        (AntiEntropyRepairer, "pump", "replica.repair"),
        (TenantStore, "lookup", "tenant.lookup"),
        (TenantStore, "add_tenant", "tenant.add_tenant"),
        (TenantStore, "remove_tenant", "tenant.remove_tenant"),
        (TenantRouter, "query", "tenant.query"),
        (BloofiTree, "candidates", "bloofi.candidates"),
        (MetricsRegistry, "counter", "obs.counter"),
        (MetricsRegistry, "gauge", "obs.gauge"),
        (MetricsRegistry, "histogram", "obs.histogram"),
    ]


# Counts read from a span's return value, by span name: the work a call
# did that no span boundary shows (Bloofi node probes are bit tests, not
# calls).
RESULT_COUNTS: dict[str, Callable[[Any], tuple[tuple[str, int], ...]]] = {
    "tenant.query": lambda look: (
        ("bloofi.tree_probes", look.probes - look.auth_probes),
        ("bloofi.auth_probes", look.auth_probes),
    ),
}


class _Frame:
    __slots__ = ("span_id", "name", "start", "child", "request", "in_request",
                 "clock", "sim0")

    def __init__(self, span_id, name, start, request, in_request, clock, sim0):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0  # wall seconds covered by direct children
        self.request = request
        self.in_request = in_request  # below (or is) a serve span
        self.clock = clock
        self.sim0 = sim0


class Stat:
    """Per-name aggregate: calls, inclusive wall seconds, self wall seconds."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder; install with :meth:`install` inside a :class:`Patcher`.

    ``phase`` ("setup" or "drive") labels the aggregates a span lands
    in.  A ``serve`` span opens a new request id; a root span outside
    ``serve`` (a background pump or write run by the storm's ticker
    before the next request, or an audit after the storm) takes the id
    of that next request, and its aggregates are kept apart from work
    done for a request.
    """

    ROOT_REQUEST = "serve"

    def __init__(self, keep_requests: int = 200):
        self.keep_requests = keep_requests
        self.phase = "setup"
        self.request = 0
        self.stats: dict[tuple[str, str, bool], Stat] = {}
        self.edges: dict[tuple[str, str, str], int] = {}
        self.counts: dict[tuple[str, str, bool], int] = {}
        self.root_seconds = {"setup": 0.0, "drive": 0.0}
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def install(self, patcher: Patcher) -> None:
        for cls, attr, name in traced_methods():
            patcher.wrap(cls, attr, functools.partial(self._wrapper, name))

    def _wrapper(self, name: str, original: Callable) -> Callable:
        opens_request = name == self.ROOT_REQUEST
        result_counts = RESULT_COUNTS.get(name)
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            stack = self._stack
            if stack:
                request = stack[-1].request
                in_request = stack[-1].in_request
            elif opens_request:
                self.request += 1
                request = self.request
                in_request = True
            else:
                request = self.request + 1
                in_request = False
            clock = getattr(obj, "clock", None)
            sim0 = clock.now() if clock is not None else 0.0
            self._next_id += 1
            frame = _Frame(self._next_id, name, perf(), request, in_request, clock, sim0)
            stack.append(frame)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                self._close(stack.pop(), perf())
            if result_counts is not None:
                for counted, n in result_counts(result):
                    key = (self.phase, counted, in_request)
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return wrapper

    def _close(self, frame: _Frame, end: float) -> None:
        duration = end - frame.start
        own = duration - frame.child
        key = (self.phase, frame.name, frame.in_request)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.count += 1
        stat.total += duration
        stat.self_time += own
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent.child += duration
            edge = (self.phase, parent.name, frame.name)
            self.edges[edge] = self.edges.get(edge, 0) + 1
            parent_id = parent.span_id
        else:
            self.root_seconds[self.phase] += duration
            parent_id = None
        if frame.request <= self.keep_requests and self.phase == "drive":
            self.spans.append({
                "id": frame.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": parent_id,
                "request": frame.request,
                "self": own,
                "sim_s": (frame.clock.now() - frame.sim0
                          if frame.clock is not None else None),
            })

    def stat(self, name: str, phases=("drive",), in_request=(True, False)) -> Stat:
        """One name's aggregate over the given phases and request flags.

        ``in_request=(True,)`` keeps only work done below a ``serve``
        span; the default adds background work such as pumps and audits.
        """
        out = Stat()
        for phase in phases:
            for flag in in_request:
                s = self.stats.get((phase, name, flag))
                if s is not None:
                    out.count += s.count
                    out.total += s.total
                    out.self_time += s.self_time
        return out

    def both(self, name: str) -> Stat:
        """One name's aggregate over set-up and drive together."""
        return self.stat(name, ("setup", "drive"))

    def count(self, name: str, in_request=(True, False)) -> int:
        """A :data:`RESULT_COUNTS` total over the drive phase."""
        return sum(self.counts.get(("drive", name, flag), 0) for flag in in_request)

    def children(self, parent: str, child: str, phase: str = "drive") -> int:
        return self.edges.get((phase, parent, child), 0)
