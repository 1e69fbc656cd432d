"""Seeded 64-bit hashing primitives.

All filters in this library derive their randomness from the functions in
this module.  Hashing is deterministic given ``(key, seed)``, which makes
every experiment in ``benchmarks/`` reproducible.

Keys may be ``int``, ``str`` or ``bytes``.  Integers (numpy integer
scalars included) are mixed directly (cheap, and the common case for
synthetic workloads); strings and bytes are folded with a 64-bit FNV-1a
pass before mixing.

Batch kernels
-------------
Every scalar function here has a ``*_many`` twin operating on numpy
``uint64`` arrays, bit-for-bit identical to mapping the scalar over the
batch (the property tests in ``tests/test_batch.py`` enforce this).  The
batch entry point is :func:`as_key_array`, which folds a heterogeneous
key batch into the pre-mix ``uint64`` representation once, so the three
or more hash derivations a filter needs per probe all reuse it.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Golden-ratio increment used by splitmix64.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (Steele et al.).

    A fast, high-quality 64-bit finalizer: every input bit affects every
    output bit.  Used both as an integer hash and as a seed sequencer.
    """
    x = (x + _SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _fold_bytes(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def hash64(key: int | str | bytes, seed: int = 0) -> int:
    """Hash *key* to a uniform 64-bit integer under *seed*."""
    if isinstance(key, str):
        key = _fold_bytes(key.encode("utf-8"))
    elif isinstance(key, bytes):
        key = _fold_bytes(key)
    elif not isinstance(key, int):
        if not isinstance(key, np.integer):
            raise TypeError(f"unhashable filter key type: {type(key).__name__}")
        # Fold numpy integer scalars as as_key_array does, so a key probes
        # the same bits through the scalar and the batch path.
        key = int(key)
    return splitmix64((key & MASK64) ^ splitmix64(seed & MASK64))


def hash_pair(key: int | str | bytes, seed: int = 0) -> tuple[int, int]:
    """Two independent 64-bit hashes of *key* (for double hashing)."""
    h = hash64(key, seed)
    return h, splitmix64(h)


def hash_to_range(key: int | str | bytes, n: int, seed: int = 0) -> int:
    """Hash *key* into ``[0, n)``.

    Uses the multiply-shift range reduction on the top bits, which avoids the
    modulo bias of ``h % n`` and matches what fast C implementations do.
    """
    return (hash64(key, seed) * n) >> 64


def fingerprint(key: int | str | bytes, bits: int, seed: int = 0) -> int:
    """Derive a *bits*-wide nonzero fingerprint of *key*.

    Fingerprint-based filters reserve the all-zero pattern to mean "empty
    slot", so the fingerprint is forced into ``[1, 2**bits)``.
    """
    if bits <= 0:
        raise ValueError("fingerprint width must be positive")
    fp = hash64(key, seed ^ 0xF1A9) & ((1 << bits) - 1)
    if fp == 0:
        fp = 1
    return fp


# -- batch (vectorised) kernels -------------------------------------------------
#
# numpy uint64 arithmetic wraps modulo 2^64, which is exactly the `& MASK64`
# discipline of the scalar code above, so each kernel is the scalar formula
# transcribed onto arrays.

_NP_GAMMA = np.uint64(_SPLITMIX_GAMMA)
_NP_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S32 = (np.uint64(s) for s in (30, 27, 31, 32))
_LOW32 = np.uint64(0xFFFFFFFF)


def splitmix64_many(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a ``uint64`` array."""
    x = np.asarray(x, dtype=np.uint64)
    x = x + _NP_GAMMA
    x = (x ^ (x >> _S30)) * _NP_MIX1
    x = (x ^ (x >> _S27)) * _NP_MIX2
    return x ^ (x >> _S31)


def as_key_array(keys) -> np.ndarray:
    """Fold a key batch into the pre-mix ``uint64`` representation.

    Integer keys become ``key & MASK64``; str/bytes keys are FNV-1a folded
    exactly as :func:`hash64` does, so ``splitmix64_many(arr ^
    splitmix64(seed))`` over the result equals ``hash64(key, seed)``
    element-wise.  Accepts lists, tuples, and numpy integer arrays.

    A batch of plain ``int`` keys that all fit in int64 (the LSM ingest
    case) converts in one numpy call: the int64 → uint64 wrap is exactly
    ``k & MASK64``.  Anything else — wider ints, ``bool``, str/bytes,
    numpy scalars, mixed batches — takes the per-key fold.
    """
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        return keys.astype(np.uint64, copy=False)
    if isinstance(keys, (list, tuple)) and keys and set(map(type, keys)) == {int}:
        try:
            return np.fromiter(keys, dtype=np.int64, count=len(keys)).view(np.uint64)
        except OverflowError:
            pass
    folded = [
        _fold_bytes(k.encode("utf-8")) if isinstance(k, str)
        else _fold_bytes(k) if isinstance(k, bytes)
        else (int(k) & MASK64) if isinstance(k, (int, np.integer))
        else _reject_key(k)
        for k in keys
    ]
    return np.asarray(folded, dtype=np.uint64)


def _reject_key(key) -> int:
    raise TypeError(f"unhashable filter key type: {type(key).__name__}")


def hash64_many(keys, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`hash64`: one uniform 64-bit hash per key."""
    arr = as_key_array(keys)
    return splitmix64_many(arr ^ np.uint64(splitmix64(seed & MASK64)))


def hash_pair_many(keys, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`hash_pair`."""
    h = hash64_many(keys, seed)
    return h, splitmix64_many(h)


def mulhi64(h: np.ndarray, n: int) -> np.ndarray:
    """High 64 bits of ``h * n`` for ``n < 2**32`` via 32-bit limbs.

    numpy has no 128-bit product, so split ``h = a·2^32 + b``:
    ``(h·n) >> 64 == (a·n + ((b·n) >> 32)) >> 32``, every term < 2^64.
    """
    if n >= 1 << 32:
        raise ValueError("mulhi64 supports ranges below 2**32")
    nn = np.uint64(n)
    a, b = h >> _S32, h & _LOW32
    return (a * nn + ((b * nn) >> _S32)) >> _S32


def hash_to_range_many(keys, n: int, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`hash_to_range`: hash each key into ``[0, n)``."""
    return mulhi64(hash64_many(keys, seed), n)


def fingerprint_many(keys, bits: int, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`fingerprint`: nonzero *bits*-wide fingerprints."""
    if bits <= 0:
        raise ValueError("fingerprint width must be positive")
    fp = hash64_many(keys, seed ^ 0xF1A9) & np.uint64((1 << bits) - 1)
    return np.where(fp == 0, np.uint64(1), fp)


def derived_seeds(seed: int, count: int) -> list[int]:
    """A reproducible family of *count* seeds derived from *seed*."""
    seeds = []
    state = seed & MASK64
    for _ in range(count):
        state = splitmix64(state)
        seeds.append(state)
    return seeds
