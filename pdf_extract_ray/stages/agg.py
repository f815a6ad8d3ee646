"""Bucketed grouped execution: the high-cardinality groupby pattern.

``Dataset.groupby(keys).map_groups(fn)`` and ``.aggregate(...)`` pay
per-group Python overhead inside Ray Data (~0.1-0.2 ms per group), which
dominates when there are 10^4+ groups of a few rows each — exactly the
shape of per-url reassembly, per-(user,window) rollups and dedup keys at
crawl scale.

The pattern here: hash rows into a bounded number of COARSE buckets, sort
on the bucket id (one range-partitioned shuffle, same data movement as the
naive groupby), then make ONE ``fn`` call per sorted block.  A sorted
block holds whole buckets, and ``fn``'s body is vectorized pandas/pyarrow
over all of their groups.  Neither group count nor bucket count appears
in the task count or the call count.

The bucket hash is deterministic (pandas.util.hash_pandas_object with the
default hash key), so the same key always lands in the same bucket at any
parallelism level — outputs stay byte-identical.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset


def _bucket_of(frame: pd.DataFrame, keys: Sequence[str], num_buckets: int) -> np.ndarray:
    h = pd.util.hash_pandas_object(
        frame[list(keys)] if len(keys) > 1 else frame[keys[0]], index=False
    )
    return (h % np.uint64(num_buckets)).astype(np.int64).to_numpy()


def _hash_numpy_col(arr: np.ndarray) -> np.ndarray:
    """hash_pandas_object-identical per-column hash, vectorized in numpy.

    Numeric / bool / datetime columns reproduce pandas' bit-view +
    splitmix64 finalizer exactly (verified by tests/test_agg_arrow.py);
    object columns (strings) fall back to pandas' C siphash on just this
    column — the one conversion the zero-copy path can't avoid."""
    if arr.dtype.kind in "OUS":
        return pd.util.hash_pandas_object(pd.Series(arr), index=False).to_numpy()
    if arr.dtype.kind == "b":
        v = arr.astype("u8")
    elif arr.dtype.kind in "mM":
        v = arr.view("i8").astype("u8")
    elif arr.dtype.kind in "iuf" and arr.dtype.itemsize <= 8:
        v = arr.view(f"u{arr.dtype.itemsize}").astype("u8")
    else:
        return pd.util.hash_pandas_object(pd.Series(arr), index=False).to_numpy()
    # splitmix64 finalizer (pandas.core.util.hashing._hash_ndarray)
    v ^= v >> 30
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> 27
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> 31
    return v


def _combine_hashes(arrays: list[np.ndarray]) -> np.ndarray:
    """pandas.core.util.hashing.combine_hash_arrays, vectorized."""
    mult = np.uint64(1000003)
    out = np.full_like(arrays[0], np.uint64(0x345678))
    n = len(arrays)
    for i, a in enumerate(arrays):
        inverse_i = n - i
        out = (out ^ a) * mult
        mult += np.uint64(82520 + inverse_i + inverse_i)
    return out + np.uint64(97531)


def _bucket_of_arrow(table: pa.Table, keys: Sequence[str], num_buckets: int) -> np.ndarray:
    """Bucket ids for an Arrow batch WITHOUT converting the batch to pandas.

    Produces bit-identical values to ``_bucket_of`` on the pandas view of
    the same batch (single key -> hash_array of the column; multiple keys
    -> per-column hashes combined pandas-style), so either tagging path
    yields the same bucket assignment and byte-identical downstream
    output at any parallelism."""
    old = np.seterr(over="ignore")
    try:
        cols = [
            _hash_numpy_col(table.column(k).to_numpy(zero_copy_only=False))
            for k in keys
        ]
        h = cols[0] if len(cols) == 1 else _combine_hashes(cols)
        return (h % np.uint64(num_buckets)).astype(np.int64)
    finally:
        np.seterr(**old)


def default_num_buckets() -> int:
    try:
        import ray

        if ray.is_initialized():
            return max(32, 2 * int(ray.cluster_resources().get("CPU", 16)))
    except Exception:
        pass
    return 32


def bucketed_group_apply(
    ds: Dataset,
    keys: Sequence[str],
    fn: Callable,
    *,
    num_buckets: int | None = None,
    drop_bucket: bool = True,
    pre_batch_size: int | None = None,
    body_format: str = "pandas",
) -> Dataset:
    """Co-locate rows by ``keys`` into coarse hash buckets, then apply ``fn``
    once per sorted block.  The shuffle is a range-partitioned sort on the
    bucket id, which keeps each bucket's rows in one output block, and the
    map takes each block whole (``batch_size=None``).  So ``fn`` receives
    ALL rows of one or SEVERAL buckets per call (a superset of whole
    key-groups, never a partial group, in no promised row order) and
    should use vectorized pandas (``g.groupby(keys)...``) / pyarrow
    internally; it must not assume one bucket per call.

    The bucket-tagging map is Arrow-native: the batch never converts to
    pandas on the map side (``_bucket_of_arrow`` appends one int64 column
    zero-copy) — on wide rows (full document text) the old pandas
    round-trip copied every string twice per batch.  Tag values are
    bit-identical to the pandas hash, so outputs are unchanged.

    ``pre_batch_size``: batch size for the bucket-tagging map.  Small
    upstream blocks (Ray's 2x-CPU read floor fragments small inputs into
    ~80-row blocks) multiply both the map task count and the sort
    operator's input-block count; a larger pre-batch coalesces them,
    cutting the all-to-all's fixed cost.  Set it for narrow-row streams
    (ids/hashes); leave None when rows are wide (documents).

    ``body_format``: ``"pandas"`` (default — ``fn`` takes/returns a
    DataFrame) or ``"pyarrow"`` (``fn`` takes/returns a ``pa.Table``;
    skips the per-block pandas conversion for Arrow-native bodies)."""
    nb = num_buckets or default_num_buckets()
    keys = list(keys)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(_bucket_of_arrow(t, keys, nb), type=pa.int64())
        )

    if body_format == "pandas":
        def apply(block: pd.DataFrame) -> pd.DataFrame:
            return fn(block.drop(columns=["__bucket"]) if drop_bucket else block)
    else:
        def apply(block: pa.Table) -> pa.Table:
            return fn(block.drop_columns(["__bucket"]) if drop_bucket else block)

    return (
        ds.map_batches(
            add_bucket, batch_format="pyarrow", batch_size=pre_batch_size,
        )
        .sort("__bucket")
        .map_batches(apply, batch_format=body_format, batch_size=None)
    )


def stratified_sample(
    ds: Dataset,
    keys: Sequence[str],
    id_col: str,
    k: int,
    *,
    num_buckets: int | None = None,
    order: str = "fast",
) -> Dataset:
    """Deterministic per-key sample: the k rows with the smallest
    ``hash(id)`` within each key group — a seedless, order-independent
    "random" sample (the hash of the id is uniform but fixed, so every
    run and every parallelism picks the same rows; balanced
    per-domain/per-language corpus sampling at crawl scale).

    One bucketed shuffle; rank computed vectorized per bucket.

    ``order`` picks the rank key: ``"fast"`` (default) ranks by the
    vectorized numpy hash family used for bucket tagging — the right
    default at corpus scale, where a per-row ``hashlib.md5`` loop in a
    full-corpus pass is the bottleneck.  ``"md5"`` is the SQL-mirrorable
    oracle mode (same determinism contract — seedless,
    order/parallelism independent — different sample membership); pin
    it explicitly where a DuckDB oracle must reproduce the sample."""
    import hashlib

    keys = list(keys)
    if order not in ("md5", "fast"):
        raise ValueError(f"order must be 'md5' or 'fast', got {order!r}")

    def pick(bucket: pd.DataFrame) -> pd.DataFrame:
        if order == "md5":
            ids = bucket[id_col].astype(str).to_numpy()
            h: object = [hashlib.md5(s.encode()).hexdigest() for s in ids]
        else:
            h = _hash_numpy_col(bucket[id_col].to_numpy())
        b = bucket.assign(__h=h).sort_values(
            keys + ["__h"], kind="mergesort")
        out = b.groupby(keys, as_index=False, sort=False).head(k)
        return out.drop(columns=["__h"])

    return bucketed_group_apply(ds, keys, pick, num_buckets=num_buckets)


def grouped_aggregate(
    ds: Dataset,
    keys: Sequence[str],
    agg_spec: dict[str, tuple[str, str]],
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """High-cardinality grouped aggregate with map-side partials.

    ``agg_spec``: output_col -> (input_col, op) with op in
    {sum, count, min, max}.  Two-phase: vectorized per-batch partials
    (shrinks the shuffle), then bucketed vectorized final merge.
    count partials re-aggregate as sums.
    """
    keys = list(keys)
    spec = dict(agg_spec)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        named = {}
        for out, (col, op) in spec.items():
            if op == "count":
                b = b.assign(__one=1)
                named[out] = ("__one", "sum")
            else:
                named[out] = (col, op)
        return b.groupby(keys, as_index=False).agg(**named)

    merge_ops = {
        out: (out, "sum" if spec[out][1] in ("sum", "count") else spec[out][1])
        for out in spec
    }

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).agg(**merge_ops)

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_group_apply(partials, keys, final, num_buckets=num_buckets)


def grouped_top_k(
    ds: Dataset,
    keys: Sequence[str],
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tie_col: str | None = None,
    num_buckets: int | None = None,
) -> Dataset:
    """Top-k rows PER GROUP by ``order_col`` (the classic "best 3
    orders per customer" / "top pages per host by score") — the
    grouped counterpart of global ``sort().limit()``.

    Selection decomposes: each group's global top-k is a subset of the
    union of its per-batch top-k's, so the map side pre-trims every
    batch to <= k rows per group BEFORE the shuffle (a group with a
    million rows ships k × #blocks rows, not a million), then ONE
    bucketed final top-k.

    DETERMINISM CONTRACT (same as ``dedup_exact``): pass ``tie_col``
    such that ``(keys, order_col, tie_col)`` orders rows uniquely;
    without it, rows tied on the boundary fall to arrival order, which
    a shuffle does not fix."""
    keys = list(keys)
    sort_cols = keys + [order_col] + ([tie_col] if tie_col else [])
    asc = ([True] * len(keys) + [not descending]
           + ([True] if tie_col else []))

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        g = b.sort_values(sort_cols, ascending=asc, kind="mergesort")
        return g.groupby(keys, sort=False).head(k)

    partials = ds.map_batches(topk, batch_format="pandas")
    return bucketed_group_apply(partials, keys, topk,
                                num_buckets=num_buckets)


def grouped_top_k_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tie_col: str | None = None,
) -> str:
    """DuckDB window mirror of :func:`grouped_top_k`."""
    part = ", ".join(keys)
    direc = "DESC" if descending else "ASC"
    order = f"{order_col} {direc}" + (f", {tie_col}" if tie_col else "")
    return (
        f"SELECT * EXCLUDE (__rn) FROM ("
        f"SELECT *, row_number() OVER (PARTITION BY {part} "
        f"ORDER BY {order}) AS __rn FROM ({table_sql})) WHERE __rn <= {k}")


def grouped_standardize(
    ds: Dataset,
    keys: Sequence[str],
    col: str,
    *,
    out_col: str = "zscore",
    num_buckets: int | None = None,
) -> Dataset:
    """Per-group z-score — ``(v - mean_g) / stddev_pop_g`` — the score
    calibrator for mixing quality signals with different scales.

    Two narrow passes, broadcast join back (never a row shuffle):
    pass 1 computes per-group (n, sum, sumsq) moments with map-side
    partials (one tiny row per group per batch), merged in a small
    bucketed stage; the merged moment table (one row per group — small
    by assumption, e.g. languages / event types / quality buckets) is
    broadcast via ``ray.put`` and looked up vectorized inside a second
    ``map_batches`` over the raw rows.  Groups with zero variance get a
    NULL z-score (SQL ``x / 0.0`` semantics differ per engine; NULL is
    the portable contract — filter or coalesce downstream).
    """
    import ray

    keys = list(keys)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        f = pd.DataFrame({k: b[k] for k in keys})
        f["__n"], f["__s"], f["__ss"] = 1.0, v, v * v
        return f.groupby(keys, as_index=False).sum()

    merged = bucketed_group_apply(
        ds.map_batches(moments, batch_format="pandas"), keys,
        lambda g: g.groupby(keys, as_index=False).sum(),
        num_buckets=num_buckets)
    mom = merged.to_pandas()  # one row per group: the broadcast side
    mean = (mom["__s"] / mom["__n"]).to_numpy()
    var = mom["__ss"].to_numpy() / mom["__n"].to_numpy() - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    lut = mom[keys].copy()
    lut["__mean"], lut["__std"] = mean, std
    lut_ref = ray.put(lut)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized broadcast join: left merge preserves row order
        j = b.merge(ray.get(lut_ref), on=keys, how="left", sort=False)
        m = j["__mean"].to_numpy(dtype=np.float64)
        s = j["__std"].to_numpy(dtype=np.float64)
        v = b[col].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v - m) / s
        b[out_col] = np.where(s > 0.0, z, np.nan)
        return b

    return ds.map_batches(score, batch_format="pandas")


def grouped_standardize_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    col: str,
    *,
    out_col: str = "zscore",
) -> str:
    """DuckDB mirror of :func:`grouped_standardize` that reproduces the
    engine's moment formula BIT-FOR-BIT on integer-valued inputs: sums of
    exactly-representable doubles are exact in any summation order, and
    every remaining op (``s/n``, ``mean*mean``, subtract, ``sqrt``,
    divide) is a single correctly-rounded IEEE op evaluated identically
    here and in numpy.  (``stddev_pop`` would use Welford's recurrence —
    near-equal but not bit-equal.)  NULL where the variance is <= 0."""
    part = ", ".join(keys)
    var = "(__ss / __n - (__s / __n) * (__s / __n))"
    return (
        f"WITH __t AS (SELECT * FROM {table_sql}), "
        f"__m AS (SELECT {part}, CAST(count(*) AS DOUBLE) AS __n, "
        f"sum(CAST({col} AS DOUBLE)) AS __s, "
        f"sum(CAST({col} AS DOUBLE) * CAST({col} AS DOUBLE)) AS __ss "
        f"FROM __t GROUP BY {part}) "
        f"SELECT __t.*, CASE WHEN {var} > 0 THEN "
        f"(CAST({col} AS DOUBLE) - __s / __n) / sqrt({var}) "
        f"END AS {out_col} FROM __t JOIN __m USING ({part})")


def global_rank(
    ds: Dataset,
    cols: Sequence[str],
    *,
    out_col: str = "rank",
    num_buckets: int | None = None,
) -> Dataset:
    """Global 1-based row numbers by a total ordering — the distributed
    ``row_number() OVER (ORDER BY cols)`` / zipWithIndex-by-sort-key
    primitive Ray Data lacks (stable sample ids, deterministic train
    ordering, resumable cursors).

    CONTRACT: ``cols`` must order rows uniquely (ties would fall to
    arrival order, which no shuffle fixes).  ``cols[0]`` must be numeric
    — it drives the range partition.

    Scale shape — three passes, none moving more than it must:
      A. per-batch (min, max) partials of ``cols[0]`` -> driver (one
         row per batch, bounded by block count);
      B. per-batch per-range-bucket counts -> driver prefix sums (at
         most ``num_buckets`` rows per batch; the offsets table is
         O(num_buckets) and broadcast once via ``ray.put``);
      C. ONE bucketed shuffle by range-bucket id, then per bucket a
         vectorized sort + ``arange`` + offset.
    Equal-width range buckets: skewed value distributions concentrate
    rows in few buckets (the ranks stay CORRECT — a bucket is a
    contiguous key range — but one worker does more of the sort); raise
    ``num_buckets`` or pre-transform the key if ``cols[0]`` is heavily
    skewed.
    """
    import ray

    cols = list(cols)
    first = cols[0]
    nb = num_buckets or default_num_buckets()

    def mm(b: pd.DataFrame) -> pd.DataFrame:
        v = b[first].to_numpy()
        return pd.DataFrame({"mn": [v.min()], "mx": [v.max()]})

    mmt = ds.map_batches(mm, batch_format="pandas").to_pandas()
    mn = float(mmt["mn"].min())
    mx = float(mmt["mx"].max())
    width = (mx - mn) / nb if mx > mn else 1.0

    def bucket_id(v: np.ndarray) -> np.ndarray:
        # correctly-rounded ops are weakly monotone, so equal values
        # always share a bucket and buckets are contiguous key ranges
        return np.clip(((v.astype(np.float64) - mn) / width).astype(
            np.int64), 0, nb - 1)

    def cnt(b: pd.DataFrame) -> pd.DataFrame:
        ids = bucket_id(b[first].to_numpy())
        u, c = np.unique(ids, return_counts=True)
        return pd.DataFrame({"__rb": u.astype(np.int64),
                             "__c": c.astype(np.int64)})

    counts = ds.map_batches(cnt, batch_format="pandas").to_pandas()
    per = counts.groupby("__rb")["__c"].sum()
    full = np.zeros(nb, dtype=np.int64)
    full[per.index.to_numpy()] = per.to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])
    off_ref = ray.put(offsets)

    def route(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__rb"] = bucket_id(b[first].to_numpy())
        return b

    def body(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        parts = []
        for rb, sub in g.groupby("__rb", sort=True):
            sub = sub.sort_values(cols, kind="mergesort").drop(
                columns="__rb")
            sub[out_col] = off[int(rb)] + np.arange(
                1, len(sub) + 1, dtype=np.int64)
            parts.append(sub)
        return pd.concat(parts, ignore_index=True)

    return bucketed_group_apply(
        ds.map_batches(route, batch_format="pandas"), ["__rb"], body,
        num_buckets=num_buckets)


def global_rank_oracle_sql(
    table_sql: str,
    cols: Sequence[str],
    *,
    out_col: str = "rank",
) -> str:
    """DuckDB mirror of :func:`global_rank`."""
    return (f"SELECT *, row_number() OVER (ORDER BY "
            f"{', '.join(cols)}) AS {out_col} FROM {table_sql}")


def weighted_sample(
    ds: Dataset,
    id_col: str,
    weight_col: str,
    k: int,
    *,
    method: str = "fast",
    num_buckets: int | None = None,
) -> Dataset:
    """Deterministic weighted sampling WITHOUT replacement (A-ES,
    Efraimidis & Spirakis 2006): each row gets ``key = u ** (1 / w)``
    with ``u`` a seedless uniform in [0, 1) derived from ``hash(id)``;
    the k LARGEST keys are exactly a weighted sample without
    replacement.  Seedless-hash determinism contract as
    :func:`stratified_sample`: every run and every parallelism picks
    the same rows.  Rows with ``w <= 0`` are excluded (A-ES domain).

    Scale shape: one narrow key map, per-batch top-k pre-trim (only
    ``k x #blocks`` rows reach the single final reduce — the global
    analogue of ``grouped_top_k``'s pre-trim).  ``method="fast"``
    (default) uses the vectorized numpy hash; ``"md5"`` is the
    SQL-parity mode (``u`` = first 8 md5 hex chars / 2^32 — the
    division by a power of two is exact, so engine and oracle feed
    ``pow`` identical doubles).
    """
    import hashlib

    if method not in ("md5", "fast"):
        raise ValueError(f"method must be 'md5' or 'fast', got {method!r}")

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        w = b[weight_col].to_numpy(np.float64)
        if method == "md5":
            ids = b[id_col].astype(str).to_numpy()
            pref = np.array(
                [int(hashlib.md5(s.encode()).hexdigest()[:8], 16)
                 for s in ids], dtype=np.float64)
        else:
            pref = (_hash_numpy_col(b[id_col].to_numpy())
                    >> np.uint64(32)).astype(np.float64)
        u = pref / 4294967296.0
        b = b.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            b["__sk"] = np.power(u, 1.0 / w)
        b = b.loc[w > 0.0]
        return b.sort_values(["__sk", id_col], ascending=[False, True],
                             kind="mergesort").head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__sk", id_col], ascending=[False, True],
                          kind="mergesort").head(k)
        return g.drop(columns=["__sk", "__g"])

    trimmed = ds.map_batches(keyed, batch_format="pandas")
    tagged = trimmed.map_batches(lambda b: b.assign(__g=np.int64(0)),
                                 batch_format="pandas")
    return bucketed_group_apply(tagged, ["__g"], final,
                                num_buckets=num_buckets)


def weighted_sample_oracle_sql(
    table_sql: str,
    id_col: str,
    weight_col: str,
    k: int,
) -> str:
    """DuckDB mirror of ``weighted_sample(method="md5")`` (identical
    float expression: exact power-of-two division, correctly-rounded
    ``1.0 / w``, one ``pow``)."""
    u = (f"CAST(CAST('0x' || substr(md5(CAST({id_col} AS VARCHAR)), "
         f"1, 8) AS UBIGINT) AS DOUBLE) / 4294967296.0")
    return (
        f"SELECT * EXCLUDE (__sk) FROM ("
        f"SELECT *, pow({u}, 1.0 / {weight_col}) AS __sk "
        f"FROM ({table_sql}) WHERE {weight_col} > 0.0) "
        f"ORDER BY __sk DESC, {id_col} LIMIT {k}")


def grouped_corr(
    ds: Dataset,
    keys: Sequence[str],
    x_col: str,
    y_col: str,
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """Per-group Pearson correlation — ``r = (n·Σxy − Σx·Σy) /
    sqrt((n·Σx² − (Σx)²)·(n·Σy² − (Σy)²))`` — the feature-association
    check (is quality correlated with length within each
    host/language?).

    Scale shape: one narrow pass of per-batch moment
    partials ``(keys, n, Σx, Σy, Σxy, Σx², Σy²)`` (tiny rows), ONE
    bucketed merge, final formula vectorized over the merged table.  On
    integer-valued inputs every sum is exact in float64 (any summation
    order) and the finish is one frozen chain of correctly-rounded IEEE
    ops mirrored verbatim by :func:`grouped_corr_oracle_sql` —
    bit-identical parity (NOT ``corr()``, whose streaming recurrence is
    near- but not bit-equal).  Groups where either variance term is
    ≤ 0 get NULL.  Output: ``keys + (n, corr)``.
    """
    keys = list(keys)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b[x_col].to_numpy(dtype=np.float64)
        y = b[y_col].to_numpy(dtype=np.float64)
        f = pd.DataFrame({c: b[c] for c in keys})
        f["__n"], f["__sx"], f["__sy"] = 1.0, x, y
        f["__sxy"], f["__sxx"], f["__syy"] = x * y, x * x, y * y
        return f.groupby(keys, as_index=False).sum()

    def final(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(keys, as_index=False).sum()
        n = m["__n"].to_numpy()
        sx, sy = m["__sx"].to_numpy(), m["__sy"].to_numpy()
        sxy = m["__sxy"].to_numpy()
        sxx, syy = m["__sxx"].to_numpy(), m["__syy"].to_numpy()
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (n * sxy - sx * sy) / np.sqrt(denx * deny)
        out = m[keys].copy()
        out["n"] = n.astype(np.int64)
        out["corr"] = np.where((denx > 0.0) & (deny > 0.0), r, np.nan)
        return out

    partials = ds.map_batches(moments, batch_format="pandas")
    return bucketed_group_apply(partials, keys, final,
                                num_buckets=num_buckets)


def grouped_corr_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    x_col: str,
    y_col: str,
) -> str:
    """DuckDB mirror of :func:`grouped_corr` — the SAME moment formula
    with the SAME operation tree (sqrt of the product of the two
    variance terms, one final division)."""
    part = ", ".join(keys)
    x = f"CAST({x_col} AS DOUBLE)"
    y = f"CAST({y_col} AS DOUBLE)"
    denx = "(__n * __sxx - __sx * __sx)"
    deny = "(__n * __syy - __sy * __sy)"
    return (
        f"WITH __m AS (SELECT {part}, CAST(count(*) AS DOUBLE) AS __n, "
        f"sum({x}) AS __sx, sum({y}) AS __sy, sum({x} * {y}) AS __sxy, "
        f"sum({x} * {x}) AS __sxx, sum({y} * {y}) AS __syy "
        f"FROM {table_sql} GROUP BY {part}) "
        f"SELECT {part}, CAST(__n AS BIGINT) AS n, "
        f"CASE WHEN {denx} > 0 AND {deny} > 0 THEN "
        f"(__n * __sxy - __sx * __sy) / sqrt({denx} * {deny}) END "
        f"AS corr FROM __m")


def serpentine_assign(
    ds: Dataset,
    weight_col: str,
    n_shards: int,
    *,
    tie_cols: Sequence[str],
    out_col: str = "shard",
    num_buckets: int | None = None,
) -> Dataset:
    """Weight-balanced shard assignment by SERPENTINE (boustrophedon)
    placement over the descending-weight order — the deterministic,
    shuffle-friendly stand-in for greedy LPT when building equal-weight
    training shards (equal token counts per file, equal bytes per
    partition).  Row at 1-based weight-rank ``rn`` goes to::

        block = (rn - 1) // K;  pos = (rn - 1) % K
        shard = pos               on even blocks
              = K - 1 - pos       on odd blocks

    so each consecutive block of K rows hits every shard once, and the
    direction flips each block (the shard that got the heaviest row of
    one block gets the lightest of the next) — shard weight sums differ
    by at most the largest single weight.

    CONTRACT: ``(weight_col DESC, tie_cols)`` must order rows uniquely
    (``global_rank``'s contract).

    Scale shape: exactly :func:`global_rank`'s three bounded passes +
    one narrow arithmetic map; no extra shuffle."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    k = int(n_shards)

    def neg(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__negw=-b[weight_col])

    ranked = global_rank(
        ds.map_batches(neg, batch_format="pandas"),
        ["__negw", *tie_cols], out_col="__rank", num_buckets=num_buckets)

    def place(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["__rank"].to_numpy() - 1
        blk, pos = rn // k, rn % k
        shard = np.where(blk % 2 == 0, pos, k - 1 - pos)
        return b.drop(columns=["__negw", "__rank"]).assign(
            **{out_col: shard.astype(np.int64)})

    return ranked.map_batches(place, batch_format="pandas")


def serpentine_assign_oracle_sql(
    table_sql: str,
    weight_col: str,
    n_shards: int,
    *,
    tie_cols: Sequence[str],
    out_col: str = "shard",
) -> str:
    """DuckDB window mirror of :func:`serpentine_assign`."""
    k = int(n_shards)
    order = f"{weight_col} DESC, " + ", ".join(tie_cols)
    return (
        f"SELECT * EXCLUDE (__rn), "
        f"CASE WHEN ((__rn - 1) // {k}) % 2 = 0 THEN (__rn - 1) % {k} "
        f"ELSE {k} - 1 - ((__rn - 1) % {k}) END AS {out_col} "
        f"FROM (SELECT *, row_number() OVER (ORDER BY {order}) AS __rn "
        f"FROM ({table_sql}))")


def grouped_value_histogram(
    ds: Dataset,
    keys: Sequence[str],
    col: str,
    lo: float,
    hi: float,
    nbins: int,
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """Fixed-width histogram of ``col`` PER GROUP — the per-language /
    per-source distribution report behind per-group threshold tuning.
    Frozen bin rule, so parity stays exact: ``lo <= v < hi``,
    ``bin = floor((v - lo) / w)``, the identical IEEE double expression
    in both engines.

    Scale shape: per-batch groupby + ``np.bincount`` partials (at most
    ``groups-in-batch x nbins`` rows per batch), ONE tiny grouped
    merge on ``(keys, bin)``.  Output: ``(*keys, bin, bin_lo, n)``,
    zero-count bins omitted."""
    from pdf_extract_ray.util import round_half_away

    keys = list(keys)
    w = (float(hi) - float(lo)) / int(nbins)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = {k: [] for k in keys}
        bins_out, n_out = [], []
        for kv, g in b.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            v = g[col].to_numpy(np.float64)
            v = v[(v >= lo) & (v < hi)]
            if not len(v):
                continue
            bins = np.floor((v - lo) / w).astype(np.int64)
            cnt = np.bincount(bins, minlength=nbins)
            nz = np.nonzero(cnt)[0]
            for k, val in zip(keys, kv):
                rows[k].extend([val] * len(nz))
            bins_out.append(nz.astype(np.int64))
            n_out.append(cnt[nz].astype(np.int64))
        rows["bin"] = (np.concatenate(bins_out)
                       if bins_out else np.array([], np.int64))
        rows["n"] = (np.concatenate(n_out)
                     if n_out else np.array([], np.int64))
        return pd.DataFrame(rows)

    merged = grouped_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        keys + ["bin"], {"n": ("n", "sum")}, num_buckets=num_buckets)

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        bins = b["bin"].to_numpy(np.int64)
        out = b[keys].copy()
        out["bin"] = bins
        out["bin_lo"] = round_half_away(lo + bins * w, 6)
        out["n"] = b["n"].to_numpy(np.int64)
        return out

    return merged.map_batches(edges, batch_format="pandas")


def grouped_value_histogram_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    col: str,
    lo: float,
    hi: float,
    nbins: int,
) -> str:
    """DuckDB mirror of :func:`grouped_value_histogram`."""
    part = ", ".join(keys)
    w = (float(hi) - float(lo)) / int(nbins)
    return f"""
SELECT {part},
       CAST(floor((CAST({col} AS DOUBLE) - {lo!r}) / {w!r}) AS BIGINT)
         AS bin,
       round({lo!r} + CAST(floor((CAST({col} AS DOUBLE) - {lo!r})
                                 / {w!r}) AS BIGINT) * {w!r}, 6)
         AS bin_lo,
       CAST(count(*) AS BIGINT) AS n
FROM ({table_sql})
WHERE {col} >= {lo!r} AND {col} < {hi!r}
GROUP BY ALL
"""


def grouped_percent_rank(
    ds: Dataset,
    keys: Sequence[str],
    val_col: str,
    *,
    out_col: str = "pct_rank",
    num_buckets: int | None = None,
) -> Dataset:
    """Per-group ``percent_rank()`` — corpus-relative score calibration
    WITHIN each group (per-language quality percentiles: a 0.9 means
    "better than 90% of its own language", where the global percentile
    would just rank languages against each other).

    Frozen to DuckDB's window semantics (probed): ties take the
    minimum rank, ``pct = (rank - 1) / (n - 1)``, single-row groups
    get 0.0.  The two operands are exact ints, so the one IEEE
    division is bit-identical to the SQL mirror.

    Scale shape: ONE bucketed shuffle of the projected rows, a
    vectorized per-group rank per bucket.  Project ``ds`` to
    ``keys + [val_col] + carried ids`` first — every projected column
    rides the shuffle."""
    keys = list(keys)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(keys, sort=False, dropna=False)
        r = grp[val_col].rank(method="min").to_numpy(np.float64)
        n = grp[val_col].transform("size").to_numpy(np.float64)
        out = g.copy()
        out[out_col] = np.where(n > 1, (r - 1) / np.maximum(n - 1, 1), 0.0)
        return out

    return bucketed_group_apply(ds, keys, body, num_buckets=num_buckets)


def grouped_percent_rank_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    val_col: str,
    *,
    out_col: str = "pct_rank",
) -> str:
    """DuckDB mirror of :func:`grouped_percent_rank`."""
    part = ", ".join(keys)
    return (f"SELECT *, percent_rank() OVER (PARTITION BY {part} "
            f"ORDER BY {val_col}) AS {out_col} FROM ({table_sql})")


def rendezvous_assign(
    ds: Dataset,
    key_col: str,
    n_workers: int,
    *,
    method: str = "fast",
    out_col: str = "worker",
    num_buckets: int | None = None,
) -> Dataset:
    """Rendezvous / highest-random-weight assignment (Thaler &
    Ravishankar 1998 — the consistent-placement rule behind sticky
    crawler politeness queues and cache sharding): each DISTINCT key
    goes to ``argmax_w score(key, w)`` — adding or removing a worker
    moves only the keys whose argmax changes (1/W of them in
    expectation), unlike modulo placement which reshuffles everything.

    Output: one row per distinct key — ``(key_col, out_col)``.

    ``method="fast"`` (default, full-corpus-safe): vectorized numpy
    hash of (key-hash, worker) pairs.  ``"md5"`` is the SQL-parity
    mode: ``score = int(md5(key || '|' || w)[:8], 16)``, ties to the
    lowest worker — mirrored exactly by
    :func:`rendezvous_assign_oracle_sql`.  Same md5-only-for-oracles
    convention as ``stratified_sample``/``weighted_sample``.

    Scale shape: ONE grouped key dedup (map-side pre-dedup), then a
    narrow map computing the W scores per key (W is small); no
    replication, no extra shuffle."""
    import hashlib

    if method not in ("md5", "fast"):
        raise ValueError(f"method must be 'md5' or 'fast', got {method!r}")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key_col]].drop_duplicates()

    distinct = bucketed_group_apply(
        ds.map_batches(pre, batch_format="pandas"), [key_col],
        lambda g: g.drop_duplicates(), num_buckets=num_buckets)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        keys = b[key_col].astype(str).to_numpy()
        n = len(keys)
        if method == "md5":
            scores = np.empty((n_workers, n), dtype=np.uint64)
            for w in range(n_workers):
                scores[w] = [int(hashlib.md5(
                    f"{k}|{w}".encode()).hexdigest()[:8], 16)
                    for k in keys]
        else:
            hk = _hash_numpy_col(keys)
            scores = np.empty((n_workers, n), dtype=np.uint64)
            for w in range(n_workers):
                hw = _hash_numpy_col(np.full(n, w, dtype=np.int64))
                scores[w] = _combine_hashes([hk, hw])
        # argmax over workers; np.argmax takes the FIRST max -> the
        # lowest worker wins ties (the frozen rule)
        worker = scores.argmax(axis=0).astype(np.int64)
        return pd.DataFrame({key_col: b[key_col].to_numpy(),
                             out_col: worker})

    return distinct.map_batches(assign, batch_format="pandas")


def rendezvous_assign_oracle_sql(
    table_sql: str,
    key_col: str,
    n_workers: int,
    *,
    out_col: str = "worker",
) -> str:
    """DuckDB mirror of ``rendezvous_assign(method="md5")``."""
    h = (f"CAST('0x' || substr(md5(key || '|' || CAST(w AS VARCHAR)), "
         f"1, 8) AS UBIGINT)")
    return f"""
WITH __rv_k AS (SELECT DISTINCT {key_col} AS key FROM ({table_sql})),
__rv_s AS (
  SELECT key, w, {h} AS h
  FROM __rv_k, unnest(range({int(n_workers)})) AS t(w)
),
__rv_r AS (
  SELECT key, w,
         row_number() OVER (PARTITION BY key ORDER BY h DESC, w) AS rn
  FROM __rv_s
)
SELECT key AS {key_col}, CAST(w AS BIGINT) AS {out_col}
FROM __rv_r WHERE rn = 1
"""


def grouped_minmax_scale(
    ds: Dataset,
    keys: Sequence[str],
    col: str,
    *,
    out_col: str = "scaled",
    num_buckets: int | None = None,
) -> Dataset:
    """Per-group min-max scaling — ``(v - min_g) / (max_g - min_g)`` —
    the [0, 1] calibrator next to :func:`grouped_standardize` (quality
    ensembles mix signals of different scales; min-max preserves rank
    AND bounded range, which threshold rules want).

    Same two-pass broadcast shape as :func:`grouped_standardize`:
    per-group (min, max) partials (one tiny row per group per batch),
    one small bucketed merge, broadcast lookup, narrow map.  min/max
    are exact (no summation), so the mirror is bit-for-bit on ANY
    float input — the final expression is two single IEEE ops.
    Constant groups (``max == min``) get NULL."""
    import ray

    keys = list(keys)

    def extremes(b: pd.DataFrame) -> pd.DataFrame:
        f = pd.DataFrame({k: b[k] for k in keys})
        f["__lo"] = b[col].to_numpy(dtype=np.float64)
        f["__hi"] = f["__lo"]
        return f.groupby(keys, as_index=False).agg(
            __lo=("__lo", "min"), __hi=("__hi", "max"))

    merged = bucketed_group_apply(
        ds.map_batches(extremes, batch_format="pandas"), keys,
        lambda g: g.groupby(keys, as_index=False).agg(
            __lo=("__lo", "min"), __hi=("__hi", "max")),
        num_buckets=num_buckets)
    lut_ref = ray.put(merged.to_pandas())

    def scale(b: pd.DataFrame) -> pd.DataFrame:
        j = b.merge(ray.get(lut_ref), on=keys, how="left", sort=False)
        lo = j["__lo"].to_numpy(dtype=np.float64)
        hi = j["__hi"].to_numpy(dtype=np.float64)
        v = b[col].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (v - lo) / (hi - lo)
        b[out_col] = np.where(hi > lo, x, np.nan)
        return b

    return ds.map_batches(scale, batch_format="pandas")


def grouped_minmax_scale_oracle_sql(
    table_sql: str,
    keys: Sequence[str],
    col: str,
    *,
    out_col: str = "scaled",
) -> str:
    """DuckDB mirror of :func:`grouped_minmax_scale` — min/max window
    aggregates + the same two IEEE ops; NULL for constant groups."""
    part = ", ".join(keys)
    v = f"CAST({col} AS DOUBLE)"
    lo = f"min({v}) OVER (PARTITION BY {part})"
    hi = f"max({v}) OVER (PARTITION BY {part})"
    return (
        f"SELECT *, CASE WHEN {hi} > {lo} THEN "
        f"({v} - {lo}) / ({hi} - {lo}) END AS {out_col} "
        f"FROM ({table_sql})")
