"""Lexicographically-comparable (memcmp) key encodings — paper §4.2.

Umzi stores all ordering columns (hash, equality columns, sort columns,
beginTS) "in lexicographically comparable formats, similar to LevelDB, so
that keys can be compared by simply using memory compare operations".

Our columns are 64-bit integers (the paper's experiments use 8-byte longs
for every column). The order-preserving trick is the standard sign-flip:
``uint64(x) ^ 2^63`` maps signed int64 order onto unsigned order, and a
big-endian byte dump of a uint64 compares bytewise exactly like the
integer. :func:`memcmp_keys` dumps whole key columns that way, one
fixed-width byte string per row: an index run stores its ordering fields
in exactly this form (``repro.core.run``), and :func:`key_words` views
such strings back as their uint64 fields without a copy. The search
kernel binary-searches the stored strings and encodes only its probes;
``key_bytes`` is the scalar form, used by tests to prove that bytewise
order equals tuple order.

beginTS is sorted *descending* (paper §4.2: "to facilitate the access of
more recent versions"): we encode it as the bitwise complement so that a
plain ascending sort yields descending timestamps.
"""
from __future__ import annotations

import numpy as np

_SIGN = np.uint64(1) << np.uint64(63)

# splitmix64 constants (Steele et al.) — a high-quality 64-bit mixer; the
# paper only requires *a* hash of the equality columns (§4.1).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def to_ordered_u64(col: np.ndarray) -> np.ndarray:
    """Map an int64 column to uint64 preserving signed order."""
    return col.astype(np.int64).view(np.uint64) ^ _SIGN


def from_ordered_u64(col: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_ordered_u64`."""
    return (np.asarray(col, dtype=np.uint64) ^ _SIGN).view(np.int64)


def invert_ts(ts: np.ndarray) -> np.ndarray:
    """Complement an order-encoded uint64 so ascending sort == descending ts."""
    return ~np.asarray(ts, dtype=np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping arithmetic)."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x += _SM_GAMMA
    x ^= x >> np.uint64(30)
    x *= _SM_M1
    x ^= x >> np.uint64(27)
    x *= _SM_M2
    x ^= x >> np.uint64(31)
    return x


def hash_columns(cols: list[np.ndarray], n: int = 0) -> np.ndarray:
    """64-bit hash of the equality-column values (paper §4.1).

    Combines one splitmix64 round per column; with zero equality columns
    (pure range index) returns ``n`` zeros, one per row, so the physical
    layout is uniform.
    """
    if not cols:
        return np.zeros(n, dtype=np.uint64)
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h = splitmix64(h ^ splitmix64(to_ordered_u64(np.asarray(c))))
    return h


def hash_scalar(values: tuple[int, ...]) -> int:
    """Hash of a single equality-key tuple (query-side probe)."""
    arrs = [np.asarray([v], dtype=np.int64) for v in values]
    return int(hash_columns(arrs, 1)[0])


def key_bytes(*ordered_u64_parts: int) -> bytes:
    """Concatenated big-endian dump — the actual memcmp-comparable key.

    The scalar form of :func:`memcmp_keys`, used by tests to prove
    bytewise comparison equals columnwise comparison.
    """
    return b"".join(int(p).to_bytes(8, "big") for p in ordered_u64_parts)


def memcmp_keys(cols: list[np.ndarray]) -> np.ndarray:
    """Row-wise :func:`key_bytes` of equal-length uint64 columns, as a
    fixed-width bytes array: numpy orders it bytewise, so one
    ``np.searchsorted`` over it is a lexicographic search on the tuples."""
    out = np.empty((len(cols[0]), len(cols)), dtype=">u8")
    for i, c in enumerate(cols):
        out[:, i] = c
    return out.view(f"S{8 * len(cols)}").ravel()


def key_words(keys: np.ndarray) -> np.ndarray:
    """The 8-byte words of contiguous :func:`memcmp_keys`, as a zero-copy
    ``(len(keys), itemsize // 8)`` big-endian uint64 view: column i is the
    key's i-th column."""
    return keys.view(">u8").reshape(len(keys), keys.itemsize // 8)
