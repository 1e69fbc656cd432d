"""A simulated block device with I/O accounting.

Every application in :mod:`repro.apps` (LSM-tree, circular log, joins, the
dictionary harness used for adaptivity experiments) reads and writes through
a :class:`BlockDevice` so that experiments can report *device I/Os*, the
metric the tutorial's storage claims are stated in.

Telemetry: alongside the per-device :class:`IOStats`, every operation
increments process-wide counters in the default
:class:`~repro.obs.metrics.MetricsRegistry` (``repro_device_reads_total``,
``repro_device_writes_total``, ``repro_device_bytes_{read,written}_total``),
so device traffic shows up in ``python -m repro stats`` without any
plumbing.  Counter handles are rebound when the default registry is
swapped (tests scope registries with ``obs.use_registry()``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Any

from repro.obs.metrics import Family, Handles, bind_handles


@dataclass
class IOStats:
    """Running counters of simulated device traffic.

    ``as_dict`` is the single source of truth for the field set;
    ``reset``/``snapshot``/``__add__``/``__sub__`` all derive from it, so
    a new counter field cannot be silently dropped by one of them.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    # Simulated seconds the device spent servicing operations — accrued by
    # the latency-injection layer (repro.common.faults.LatencyInjector);
    # stays 0.0 on a device with no latency model attached.
    busy_seconds: float = 0.0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        for name in self.as_dict():
            setattr(self, name, 0)

    def snapshot(self) -> "IOStats":
        return IOStats(**self.as_dict())

    def __sub__(self, other: "IOStats") -> "IOStats":
        theirs = other.as_dict()
        return IOStats(**{k: v - theirs[k] for k, v in self.as_dict().items()})

    def __add__(self, other: "IOStats") -> "IOStats":
        theirs = other.as_dict()
        return IOStats(**{k: v + theirs[k] for k, v in self.as_dict().items()})


class _DeviceMetrics(Handles):
    reads = Family("counter", "repro_device_reads_total",
                   "block reads across all simulated devices")
    writes = Family("counter", "repro_device_writes_total",
                    "block writes across all simulated devices")
    bytes_read = Family("counter", "repro_device_bytes_read_total", "simulated bytes read")
    bytes_written = Family("counter", "repro_device_bytes_written_total",
                           "simulated bytes written")


@dataclass
class _Block:
    payload: Any
    size: int


class BatchOps:
    """Scalar ``write``/``delete`` as batch-of-one calls.

    Every device layer implements ``write_many(items)`` over a sequence
    of ``(address, payload, size)`` items and ``delete_many(addresses)
    -> n_missing`` over a sequence of addresses in its own class body,
    and inherits these, so each layer keeps one copy of its write and
    free logic.  The wrappers forward unknown attributes to the device they
    wrap, so a layer without its own batch methods would silently skip
    its work instead of failing.
    """

    def write(self, address: Any, payload: Any, size: int | None = None) -> None:
        """Write *payload* at *address*; counts one device write."""
        self.write_many(((address, payload, size),))

    def delete(self, address: Any, missing_ok: bool = True) -> None:
        """Drop a block (free space; no I/O charged).

        With ``missing_ok=False`` a delete of an absent block raises
        ``KeyError`` — recovery code uses this to detect double-frees and
        lost writes instead of silently masking them.
        """
        if self.delete_many((address,)) and not missing_ok:
            raise KeyError(f"delete of missing block at address {address!r}")


class BlockDevice(BatchOps):
    """An addressable store of named blocks with read/write counters.

    Blocks hold arbitrary Python payloads; ``size`` is the *simulated* size
    in bytes (callers state how big the block would be on a real device).
    """

    def __init__(self):
        self._blocks: dict[Any, _Block] = {}
        self.stats = IOStats()
        self._obs: _DeviceMetrics | None = None

    def write_many(self, items: Sequence[tuple[Any, Any, int | None]]) -> None:
        """Write every ``(address, payload, size)`` in order; counts one
        device write per item (``size=None`` means the default size)."""
        blocks = self._blocks
        n = total = 0
        for address, payload, size in items:
            if size is None:
                size = _default_size(payload)
            blocks[address] = _Block(payload, size)
            n += 1
            total += size
        self._count_writes(n, total)

    def _count_writes(self, n: int, total_bytes: int) -> None:
        if not n:
            return  # an empty batch is no I/O and registers no metrics
        self.stats.writes += n
        self.stats.bytes_written += total_bytes
        m = bind_handles(self, _DeviceMetrics)
        m.writes.inc(n)
        m.bytes_written.inc(total_bytes)

    def read(self, address: Any) -> Any:
        """Read the block at *address*; counts one device read."""
        block = self._blocks.get(address)
        if block is None:
            raise KeyError(f"no block at address {address!r}")
        self.stats.reads += 1
        self.stats.bytes_read += block.size
        m = bind_handles(self, _DeviceMetrics)
        m.reads.inc()
        m.bytes_read.inc(block.size)
        return block.payload

    def delete_many(self, addresses: Sequence[Any]) -> int:
        """Drop every block in *addresses* (free space; no I/O charged);
        returns how many were missing — a lost write or a double free
        that happened earlier, which callers count instead of masking."""
        blocks = self._blocks
        missing = 0
        for address in addresses:
            if blocks.pop(address, None) is None:
                missing += 1
        return missing

    def exists(self, address: Any) -> bool:
        """Metadata check; no I/O charged (directories are cached in RAM)."""
        return address in self._blocks

    def addresses(self) -> list[Any]:
        """All live block addresses; metadata, no I/O charged."""
        return list(self._blocks)

    def size_of(self, address: Any) -> int | None:
        """Declared simulated size of a block (``None`` when absent).

        Metadata only — no I/O is charged; the cache tier uses this to
        account cached payloads in the same simulated bytes the device
        itself charges.
        """
        block = self._blocks.get(address)
        return None if block is None else block.size

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def used_bytes(self) -> int:
        return sum(block.size for block in self._blocks.values())


def _default_size(payload: Any) -> int:
    """Simulated byte size when the caller does not specify one."""
    try:
        return max(1, len(payload))
    except TypeError:
        return 1


class NamespacedDevice(BatchOps):
    """A namespace-scoped view of a shared device (stack).

    Maps a tuple address ``(cls, *rest)`` to ``(cls, namespace, *rest)``
    on the wrapped device — the address *class stays first*, so per-class
    fault rates (:mod:`repro.common.faults`) and per-address circuit
    breakers (:mod:`repro.serve.breaker`) keep working unchanged, while
    many tenants (e.g. the shards of one sharded store) share a single
    faulty device, latency model, and breaker bank without address
    collisions.  Non-tuple addresses wrap as ``(address, namespace)``.

    Attribute access falls through to the wrapped device, so stack
    plumbing like ``.injector`` / ``.latency`` / ``.ruin`` remains
    reachable (``ruin`` and ``corrupted_addresses`` are translated).
    """

    def __init__(self, inner: Any, namespace: str):
        self.inner = inner
        self.namespace = namespace

    def _wrap(self, address: Any) -> Any:
        if isinstance(address, tuple) and address:
            return (address[0], self.namespace) + address[1:]
        return (address, self.namespace)

    def _owns(self, address: Any) -> bool:
        return (
            isinstance(address, tuple)
            and len(address) >= 2
            and address[1] == self.namespace
        )

    def _unwrap(self, address: Any) -> Any:
        rest = address[2:]
        return (address[0],) + rest if rest else address[0]

    def write_many(self, items: Sequence[tuple[Any, Any, int | None]]) -> None:
        wrap = self._wrap
        self.inner.write_many([(wrap(a), payload, size) for a, payload, size in items])

    def read(self, address: Any) -> Any:
        return self.inner.read(self._wrap(address))

    def delete_many(self, addresses: Sequence[Any]) -> int:
        return self.inner.delete_many([self._wrap(a) for a in addresses])

    def exists(self, address: Any) -> bool:
        return self.inner.exists(self._wrap(address))

    def addresses(self) -> list[Any]:
        return [
            self._unwrap(a) for a in self.inner.addresses() if self._owns(a)
        ]

    def size_of(self, address: Any) -> int | None:
        return self.inner.size_of(self._wrap(address))

    def ruin(self, address: Any) -> None:
        self.inner.ruin(self._wrap(address))

    def corrupted_addresses(self) -> list[Any]:
        return [
            self._unwrap(a)
            for a in self.inner.corrupted_addresses()
            if self._owns(a)
        ]

    def __len__(self) -> int:
        return sum(1 for a in self.inner.addresses() if self._owns(a))

    @property
    def used_bytes(self) -> int:
        return sum(
            self.inner.size_of(a) or 0
            for a in self.inner.addresses()
            if self._owns(a)
        )

    @property
    def stats(self) -> IOStats:
        """Shared: all namespaces accrue to the one underlying device."""
        return self.inner.stats

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
