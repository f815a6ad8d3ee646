"""Mergeable sketches for approximate aggregates at crawl scale: the
count-min sketch (frequencies) and the Bloom filter (membership).

Both follow one pattern: one serialized sketch per batch emitted from
``map_batches`` (map-side), merged in a tiny final stage, so only the
fixed-size counters or bits move, never the values.  Deterministic (one
stable hash family, pandas' keyed siphash, for every input type).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data import Dataset


# --- count-min sketch (Cormode & Muthukrishnan 2005, public paper) ---
#
# Frequency estimation over key spaces too large to count exactly
# (urls, shingles, hosts at 10^12 rows): a d x w int64 counter matrix
# whose merge is elementwise addition — associative and commutative, so
# the distributed per-batch-partial plan produces EXACTLY the matrix the
# single-process pass does, and every estimate is deterministic.
# Guarantee: est >= true, and est <= true + eps*N with prob 1-delta for
# w = ceil(e/eps), d = ceil(ln 1/delta).  Hash family: one stable
# siphash per value (the dedup kernel family), mixed into d row indexes
# with fixed odd multipliers (splitmix-style) — vectorized, no per-row
# Python.

CMS_DEPTH = 4
CMS_WIDTH = 2048
_CMS_MULT = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                      0x94D049BB133111EB, 0xD6E8FEB86659FD93],
                     dtype=np.uint64)


def cms_indexes(values: pd.Series, *, depth: int = CMS_DEPTH,
                width: int = CMS_WIDTH) -> np.ndarray:
    """(depth, n) column indexes for each value, from one stable hash."""
    h = pd.util.hash_pandas_object(
        values.astype(str), index=False).to_numpy(np.uint64)
    mixed = h[None, :] * _CMS_MULT[:depth, None]
    mixed ^= mixed >> np.uint64(31)
    return (mixed % np.uint64(width)).astype(np.int64)


def cms_from_values(values: pd.Series, *, depth: int = CMS_DEPTH,
                    width: int = CMS_WIDTH) -> np.ndarray:
    """One (depth, width) int64 sketch of a value series."""
    m = np.zeros((depth, width), dtype=np.int64)
    idx = cms_indexes(values, depth=depth, width=width)
    for j in range(depth):
        m[j] += np.bincount(idx[j], minlength=width)
    return m


def cms_estimate(m: np.ndarray, values: pd.Series) -> np.ndarray:
    """Point estimates (min over rows) for each value."""
    depth, width = m.shape
    idx = cms_indexes(values, depth=depth, width=width)
    return np.min(
        np.stack([m[j, idx[j]] for j in range(depth)]), axis=0)


def cms_sketch(ds: Dataset, col: str, *, depth: int = CMS_DEPTH,
               width: int = CMS_WIDTH) -> np.ndarray:
    """Distributed sketch: one (depth*width) int64 partial per batch
    (map-side), summed — only ``depth*width*8`` bytes per batch move."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = cms_from_values(b[col].dropna(), depth=depth, width=width)
        return pd.DataFrame({"sketch": [m.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").take_all()
    acc = np.zeros((depth, width), dtype=np.int64)
    for r in parts:
        acc += np.frombuffer(r["sketch"], dtype=np.int64).reshape(
            depth, width)
    return acc


# ---------------------------------------------------------------------------
# Bloom filter — set-membership sketch (Bloom 1970, public): the crawl
# frontier's "url seen before?" primitive and the cheap pre-filter in
# front of exact dedup at 100 TB.  Merge is bitwise OR — associative,
# commutative, idempotent — so the distributed per-batch-partial build is
# bit-identical on any topology (same contract as the CMS above).
# ---------------------------------------------------------------------------

BLOOM_BITS = 1 << 20   # 128 KiB filter; ~1e5 keys -> <1% FP at k=7
BLOOM_K = 7
_BLOOM_MULT = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
     0xD6E8FEB86659FD93, 0xA0761D6478BD642F, 0xE7037ED1A0B428DB,
     0x8EBC6AF09C88C6E3], dtype=np.uint64)


def bloom_bit_indexes(values: pd.Series, *, bits: int = BLOOM_BITS,
                      k: int = BLOOM_K) -> np.ndarray:
    """(k, n) bit positions per value from one stable hash + k
    splitmix-style mixes (the CMS index family)."""
    h = pd.util.hash_pandas_object(
        values.astype(str), index=False).to_numpy(np.uint64)
    mixed = h[None, :] * _BLOOM_MULT[:k, None]
    mixed ^= mixed >> np.uint64(31)
    return (mixed % np.uint64(bits)).astype(np.int64)


def bloom_from_values(values: pd.Series, *, bits: int = BLOOM_BITS,
                      k: int = BLOOM_K) -> np.ndarray:
    """One ``bits/64``-word uint64 filter of a value series."""
    words = np.zeros(bits // 64, dtype=np.uint64)
    if len(values):
        pos = bloom_bit_indexes(values, bits=bits, k=k).ravel()
        np.bitwise_or.at(words, pos // 64,
                         np.uint64(1) << (pos % 64).astype(np.uint64))
    return words


def bloom_contains(words: np.ndarray, values: pd.Series, *,
                   k: int = BLOOM_K) -> np.ndarray:
    """Membership probes: True may be a false positive (rate bounded by
    the fill factor), False is exact."""
    bits = len(words) * 64
    idx = bloom_bit_indexes(values, bits=bits, k=k)
    hit = np.ones(len(values), dtype=bool)
    for j in range(k):
        pos = idx[j]
        bit = (words[pos // 64] >> (pos % 64).astype(np.uint64)) \
            & np.uint64(1)
        hit &= bit.astype(bool)
    return hit


def bloom_sketch(ds: Dataset, col: str, *, bits: int = BLOOM_BITS,
                 k: int = BLOOM_K) -> np.ndarray:
    """Distributed build: one ``bits/8``-byte partial per batch
    (map-side), OR-merged on the driver — only filter bytes move,
    never keys."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = bloom_from_values(b[col].dropna(), bits=bits, k=k)
        return pd.DataFrame({"sketch": [w.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").take_all()
    acc = np.zeros(bits // 64, dtype=np.uint64)
    for r in parts:
        acc |= np.frombuffer(r["sketch"], dtype=np.uint64)
    return acc
