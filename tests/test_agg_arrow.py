"""Arrow-native bucket tagging (stages/agg.py): the zero-copy hash must be
bit-identical to pandas.util.hash_pandas_object so bucket assignment — and
therefore every bucketed operator's output — is unchanged by the migration."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extract_ray.stages.agg import (
    _bucket_of,
    _bucket_of_arrow,
    bucketed_group_apply,
)


def _frame(n=2000, seed=7):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "i64": rng.integers(-2**62, 2**62, n),
        "i32": rng.integers(-2**31, 2**31, n).astype("int32"),
        "u64": rng.integers(0, 2**63, n).astype("uint64"),
        "f64": np.where(rng.random(n) < 0.1, np.nan, rng.standard_normal(n)),
        "s": np.array([f"https://host-{x}.example/p/{x%17}" for x in rng.integers(0, n // 3, n)], dtype=object),
        "b": rng.random(n) < 0.5,
        "ts_us": pd.to_datetime(rng.integers(0, 10**15, n), unit="us"),
        "ts_ns": pd.to_datetime(rng.integers(0, 10**18, n), unit="ns"),
    })


KEY_SETS = [
    ["i64"], ["i32"], ["u64"], ["f64"], ["s"], ["b"], ["ts_us"], ["ts_ns"],
    ["i64", "s"], ["s", "ts_us", "f64"], ["u64", "i32", "b"],
]


@pytest.mark.parametrize("keys", KEY_SETS, ids=["+".join(k) for k in KEY_SETS])
def test_arrow_hash_matches_pandas(keys):
    df = _frame()
    t = pa.Table.from_pandas(df, preserve_index=False)
    assert np.array_equal(_bucket_of(df, keys, 64), _bucket_of_arrow(t, keys, 64))


def test_arrow_hash_matches_on_chunked_and_large_string():
    df = _frame(1200)
    t = pa.Table.from_pandas(df, preserve_index=False)
    # multi-chunk table (what map_batches actually sees after unions)
    chunked = pa.concat_tables([t.slice(0, 500), t.slice(500)])
    assert np.array_equal(
        _bucket_of(df, ["s", "i64"], 32), _bucket_of_arrow(chunked, ["s", "i64"], 32))
    # Ray blocks sometimes carry large_string — same object-array fallback
    big = t.set_column(t.schema.get_field_index("s"), "s",
                       t.column("s").cast(pa.large_string()))
    assert np.array_equal(_bucket_of(df, ["s"], 32), _bucket_of_arrow(big, ["s"], 32))


def test_bucketed_apply_output_identical_to_pandas_tagging(ray_session):
    """A/B: Arrow-native tagging vs the legacy pandas round-trip tagging
    must produce byte-identical grouped output (same buckets, same order).

    A call holds every bucket of one sorted block, and which buckets share
    a block follows the sort's sampled boundaries, so the body keeps the
    bucket column and orders by (bucket, key): the global row order is
    then fixed by the tags alone."""
    import ray.data as rd

    df = _frame(3000, seed=11)[["s", "i64", "f64"]]
    ds = rd.from_pandas(df).repartition(7)

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["__bucket", "s", "i64"], kind="mergesort")
                 .groupby(["__bucket", "s"], as_index=False)
                 .agg(n=("i64", "count"), lo=("i64", "min"), tot=("f64", "sum")))

    new = bucketed_group_apply(ds, ["s"], roll, num_buckets=16,
                               drop_bucket=False).to_pandas()

    # legacy path: tag via pandas hash, group the same way
    def add_bucket_pandas(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = _bucket_of(b, ["s"], 16)
        return b

    old = (rd.from_pandas(df).repartition(7)
           .map_batches(add_bucket_pandas, batch_format="pandas")
           .sort("__bucket")
           .map_batches(roll, batch_format="pandas", batch_size=None)
           .to_pandas())
    pd.testing.assert_frame_equal(new, old)


@pytest.mark.parametrize("body_format", ["pandas", "pyarrow"])
def test_fn_called_once_per_sorted_block_of_whole_buckets(ray_session,
                                                          body_format):
    """With more buckets than blocks, ``fn`` runs once per sorted block:
    every key's rows arrive in exactly one call, there are at most as many
    calls as sort output blocks, and the output equals the per-key
    reference."""
    import uuid

    import ray.data as rd

    df = _frame(3000, seed=5)[["s", "i64"]]
    n_blocks, n_buckets = 7, 24
    ds = rd.from_pandas(df).repartition(n_blocks)

    def record(b):
        t = b if body_format == "pyarrow" else pa.Table.from_pandas(
            b, preserve_index=False)
        out = t.group_by("s").aggregate([("i64", "count"), ("i64", "sum")])
        out = out.append_column(
            "call", pa.array([uuid.uuid4().hex] * out.num_rows, pa.string()))
        return out if body_format == "pyarrow" else out.to_pandas()

    got = bucketed_group_apply(ds, ["s"], record, num_buckets=n_buckets,
                               body_format=body_format).to_pandas()
    n_sorted = (ds.map_batches(lambda t: t.append_column(
                    "__bucket", pa.array(_bucket_of_arrow(t, ["s"], n_buckets))),
                    batch_format="pyarrow")
                .sort("__bucket").materialize().num_blocks())
    assert n_sorted < n_buckets
    # one output row per key: no key's rows were split over two calls
    assert got["s"].is_unique
    assert got["call"].nunique() <= n_sorted
    ref = df.groupby("s").agg(n=("i64", "count"), tot=("i64", "sum"))
    got = got.set_index("s").sort_index()
    assert got["i64_count"].tolist() == ref["n"].tolist()
    assert got["i64_sum"].tolist() == ref["tot"].tolist()


def test_body_format_pyarrow(ray_session):
    """pyarrow bucket bodies: fn receives a pa.Table (no pandas conversion)
    and the result matches the pandas-body equivalent."""
    import pyarrow.compute as pc
    import ray.data as rd

    df = _frame(2000, seed=3)[["s", "i64"]]
    ds = rd.from_pandas(df).repartition(5)

    def arrow_body(t: pa.Table) -> pa.Table:
        assert isinstance(t, pa.Table)
        return t.group_by("s").aggregate([("i64", "min")]).rename_columns(["s", "lo"])

    def pandas_body(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("s", as_index=False).agg(lo=("i64", "min"))

    a = (bucketed_group_apply(ds, ["s"], arrow_body, num_buckets=8,
                              body_format="pyarrow")
         .to_pandas().sort_values("s").reset_index(drop=True))
    b = (bucketed_group_apply(ds, ["s"], pandas_body, num_buckets=8)
         .to_pandas().sort_values("s").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
