"""Durable records: one format for everything that must survive a crash.

A record is a CRC32 frame around a JSON or pickle body (a :class:`Codec`)
at a tuple address: a slot of a :class:`DurableManifest` (the LSM run
set, the routing table, the replica node state) or a :class:`Journal`
record (the LSM write-ahead log, the reshard and hint journals).  Their
rules are in docs/robustness.md, "Durable records".
"""

from __future__ import annotations

import json
import pickle
from bisect import insort
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, NamedTuple

from repro.common.faults import CircuitOpenError, RetryPolicy, TransientIOError
from repro.common.storage import BatchOps
from repro.core.errors import ChecksumError
from repro.core.serialize import frame, unframe

# Tries of a meta-record read-back, and of every retried meta read.
META_ATTEMPTS = 4
# A frame that fails its checksum (ChecksumError is a ValueError) or its codec.
_TORN = (ValueError, pickle.PickleError)
# A read that failed now, was refused by an open breaker, or found no block.
_UNREADABLE = (TransientIOError, CircuitOpenError, KeyError)


class Codec(NamedTuple):
    """A record body's format inside its frame."""

    dumps: Callable[[Any], bytes]
    loads: Callable[[bytes], Any]

    def encode(self, record: Any) -> bytes:
        return frame(self.dumps(record))

    def decode(self, raw: bytes) -> Any:
        return self.loads(unframe(raw))


JSON = Codec(lambda doc: json.dumps(doc, sort_keys=True).encode(),
             lambda body: json.loads(body.decode()))
PICKLE = Codec(pickle.dumps, pickle.loads)


def write_verified(device: Any, address: Any, payload: bytes, *,
                   read: Callable[[Any], Any] | None = None,
                   attempts: int = META_ATTEMPTS) -> int:
    """Write *payload* and read it back through *read* (default: a bare
    ``device.read``) until it verifies; returns how many tries failed.
    Raises :class:`TransientIOError` after *attempts*."""
    read = device.read if read is None else read
    last_error: Exception | None = None
    for failed in range(attempts):
        device.write(address, payload, size=len(payload))
        try:
            if read(address) == payload:
                return failed
            last_error = ChecksumError("read-back differs from the write")
        except (TransientIOError, KeyError) as e:
            last_error = e
    raise TransientIOError(f"write of {address!r} could not be verified: {last_error}")


def scrub_block(report: Any, read: Callable[[Any], Any], address: Any,
                check: Callable[[Any], Any], repair: Callable[[], Any] | None) -> bool:
    """The frame check of scrubs: list one block in *report* (a
    ``ScrubReport``) as unreadable, or as corrupt (then *repair* it) when
    it is gone or *check*, say ``Codec.decode``, fails; True if corrupt."""
    report.blocks_checked += 1
    try:
        intact = check(read(address))
    except TransientIOError:
        report.unreadable.append(address)
        return False
    except (KeyError, *_TORN):
        intact = False
    if intact:
        return False
    report.corrupt.append(address)
    if repair is not None:
        repair()
        report.repaired.append(address)
    return True


class DurableManifest:
    """A versioned JSON document double-buffered over ``(name, 0|1)``.

    :meth:`write` bumps the version (the document's *version_key*) and
    writes slot ``version % 2`` through :func:`write_verified`, returning
    how many tries failed.  A write
    that raises puts the version back, so failed writes in a row reuse
    the failed slot and never reach the last good version.  :meth:`load`
    returns the highest-version slot that still decodes.
    """

    def __init__(self, meta: Any, name: str, *, version_key: str = "version",
                 read: Callable[[Any], Any] | None = None, attempts: int = META_ATTEMPTS):
        self.meta, self.name, self.version_key = meta, name, version_key
        self.read, self.attempts = read, attempts
        self.version = 0

    def encode(self, doc: dict) -> bytes:
        return JSON.encode({**doc, self.version_key: self.version})

    def write(self, doc: dict) -> int:
        self.version += 1
        try:
            return write_verified(self.meta, (self.name, self.version % 2), self.encode(doc),
                                  read=self.read, attempts=self.attempts)
        except (TransientIOError, CircuitOpenError):
            self.version -= 1
            raise

    def load(self) -> dict | None:
        retry = RetryPolicy(max_attempts=META_ATTEMPTS)
        best = None
        for slot in (0, 1):
            address = (self.name, slot)
            if not self.meta.exists(address):
                continue
            try:
                doc = JSON.decode(retry.call(self.meta.read, address))
            except (TransientIOError, KeyError, *_TORN):
                continue
            if best is None or doc[self.version_key] > best[self.version_key]:
                best = doc
        if best is not None:
            self.version = best[self.version_key]
        return best


class RetriedDevice(BatchOps):
    """A device view that sends each read and write through *retry*."""

    def __init__(self, device: Any, retry: RetryPolicy):
        self.device, self.retry = device, retry

    def read(self, address: Any) -> Any:
        return self.retry.call(self.device.read, address)

    def write_many(self, items: Sequence) -> None:
        self.retry.call(self.device.write_many, items)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.device, name)


class Scan:
    """One ordered pass over journal keys.  Iterating reads each frame
    and yields ``(key, record)`` for each intact one; the keys of torn
    and unreadable frames collect in :attr:`torn` and :attr:`unreadable`."""

    def __init__(self, journal: Journal, keys: Iterable[tuple]):
        self.journal, self.keys = journal, keys
        self.torn, self.unreadable = [], []

    def __iter__(self) -> Iterator[tuple[tuple, Any]]:
        journal = self.journal
        for key in self.keys:
            try:
                record = journal.codec.decode(journal.read((journal.kind, *key)))
            except _UNREADABLE:
                self.unreadable.append(key)
            except _TORN:
                self.torn.append(key)
            else:
                yield key, record


class Journal:
    """Records at ``(kind, *key)`` behind a sorted index of their tuple
    keys (:attr:`keys`), read from *device* once at open.  Scans read
    through *read* (default ``device.read``); a record's simulated size
    is *size*, or its frame's length."""

    def __init__(self, device: Any, kind: str, codec: Codec = JSON, *,
                 read: Callable[[Any], Any] | None = None, size: int | None = None):
        self.device, self.kind, self.codec, self.size = device, kind, codec, size
        self.read = device.read if read is None else read
        self.keys: list[tuple] = sorted(
            a[1:] for a in device.addresses() if isinstance(a, tuple) and a and a[0] == kind)

    def append(self, items: Sequence[tuple[tuple, Any]]) -> None:
        """Write every ``(key, record)`` with one ``write_many``; the keys
        ascend past the index's last."""
        kind, size, dumps = self.kind, self.size, self.codec.dumps
        blocks = []
        for key, record in items:
            payload = frame(dumps(record))
            blocks.append(((kind, *key), payload, size or len(payload)))
        self.device.write_many(blocks)
        self.keys += [key for key, _record in items]

    def append_verified(self, key: tuple, record: Any, *, attempts: int = META_ATTEMPTS) -> None:
        """One record through :func:`write_verified`.  If that raises, what
        landed is deleted: the writer gave up on it, so no scan may find it."""
        address = (self.kind, *key)
        try:
            write_verified(self.device, address, self.codec.encode(record), attempts=attempts)
        except (TransientIOError, CircuitOpenError):
            self.device.delete(address)
            raise
        insort(self.keys, key)

    def scan(self, keys: Iterable[tuple] | None = None) -> Scan:
        """A :class:`Scan` of *keys*, by default every key in order."""
        return Scan(self, list(self.keys) if keys is None else keys)

    def trim(self, keys: Iterable[tuple] | None = None) -> int:
        """Delete the frames at *keys* (by default all) and drop them from
        the index; returns how many were already gone."""
        keys = list(self.keys if keys is None else keys)
        gone = set(keys)
        self.keys = [key for key in self.keys if key not in gone]
        return self.device.delete_many([(self.kind, *key) for key in keys])
