"""Bucketed grouped execution under key skew + session windows."""

import numpy as np
import pandas as pd
import pytest

from pdf_extract_ray.stages.agg import bucketed_group_apply, grouped_aggregate
from pdf_extract_ray.stages.windows import sessionize


@pytest.fixture(scope="module")
def skewed(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(1)
    # Zipf-hot key: key 0 owns ~half the rows (host-skew analogue)
    keys = np.where(rng.rand(20000) < 0.5, 0, rng.randint(1, 500, 20000))
    df = pd.DataFrame({"k": keys, "v": rng.rand(20000)})
    return rd.from_pandas(df).repartition(8), df


def test_grouped_aggregate_correct_under_skew(skewed):
    ds, df = skewed
    out = (
        grouped_aggregate(ds, ["k"], {"n": ("k", "count"), "s": ("v", "sum")})
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("k", as_index=False)
        .agg(n=("k", "count"), s=("v", "sum"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["n"].tolist() == exp["n"].tolist()
    assert np.allclose(out["s"], exp["s"])


def test_bucket_count_does_not_change_result(skewed):
    ds, df = skewed

    def f(g):
        return g.groupby("k", as_index=False).agg(n=("k", "count"))

    a = bucketed_group_apply(ds, ["k"], f, num_buckets=4).to_pandas()
    b = bucketed_group_apply(ds, ["k"], f, num_buckets=64).to_pandas()
    a = a.sort_values("k").reset_index(drop=True)
    b = b.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_sessionize_semantics(ray_session):
    import ray.data as rd

    t0 = pd.Timestamp("2024-01-01")
    rows = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2, 2],
        "ts": [t0, t0 + pd.Timedelta(minutes=10), t0 + pd.Timedelta(minutes=90),
               t0 + pd.Timedelta(minutes=95), t0, t0 + pd.Timedelta(hours=3)],
        "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    })
    out = sessionize(rd.from_pandas(rows)).to_pandas().sort_values(
        ["user_id", "session_id"]).reset_index(drop=True)
    assert out[["user_id", "session_id", "n_events", "sum_value"]].values.tolist() == [
        [1, 1, 2, 3.0],   # minutes 0,10
        [1, 2, 2, 7.0],   # minutes 90,95 (gap 80 > 30)
        [2, 1, 1, 5.0],
        [2, 2, 1, 6.0],
    ]


def test_hll_accuracy_and_merge(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.sketch import HyperLogLog, approx_distinct

    # direct accuracy: p=12 -> ~1.6% std error
    h = HyperLogLog(12)
    h.add(range(50_000))
    assert abs(h.estimate() - 50_000) / 50_000 < 0.05
    # merge == union
    a, b = HyperLogLog(12), HyperLogLog(12)
    a.add(range(0, 30_000))
    b.add(range(20_000, 50_000))
    assert abs(a.merge(b).estimate() - 50_000) / 50_000 < 0.05
    # distributed path vs exact
    df = pd.DataFrame({"u": np.random.RandomState(2).randint(0, 7000, 40_000)})
    exact = df["u"].nunique()
    est = approx_distinct(rd.from_pandas(df).repartition(8), "u", p=12)
    assert abs(est - exact) / exact < 0.05


def test_hopping_window_semantics(ray_session):
    """Every event is counted in exactly size/hop windows, and each
    window's sum equals the pandas rollup over its [start, start+size)."""
    import ray.data as rd

    from pdf_extract_ray.stages.windows import hopping_window

    rng = np.random.RandomState(9)
    df = pd.DataFrame({
        "user_id": rng.randint(0, 5, 500),
        "ts": pd.to_datetime(rng.randint(0, 6 * 3600, 500), unit="s"),
        "value": rng.standard_normal(500).round(3),
    })
    out = hopping_window(rd.from_pandas(df).repartition(4)).to_pandas()
    # total event-window memberships = 2 x events (1h windows, 30min hop)
    assert out["n_events"].sum() == 2 * len(df)
    # spot-check one (user, window)
    row = out.sort_values(["user_id", "window_start"]).iloc[7]
    lo = row["window_start"]
    hi = lo + pd.Timedelta(hours=1)
    sub = df[(df.user_id == row["user_id"]) & (df.ts >= lo) & (df.ts < hi)]
    assert row["n_events"] == len(sub)
    assert row["sum_value"] == round(sub["value"].sum(), 2)


def test_grouped_lag_matches_pandas(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.windows import grouped_lag

    rng = np.random.RandomState(6)
    df = pd.DataFrame({
        "event_id": np.arange(3000),
        "user_id": rng.randint(0, 40, 3000),
        "ts": rng.randint(0, 10_000, 3000),
        "value": rng.standard_normal(3000),
    })
    got = (grouped_lag(rd.from_pandas(df).repartition(6),
                       ["user_id"], ["ts", "event_id"], "value")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    exp = df.sort_values(["user_id", "ts", "event_id"]).copy()
    exp["prev_value"] = exp.groupby("user_id")["value"].shift(1)
    exp = exp.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_series_equal(got["prev_value"], exp["prev_value"])


def test_adjacent_pairs_equals_self_join(ray_session):
    """The ghost-row range-bucket pairing must produce exactly the inner
    self-join on order+1 — including across block and partition
    boundaries, with gaps, at several block sizes."""
    import ray.data as rd

    from pdf_extract_ray.stages.windows import adjacent_pairs

    rng = np.random.RandomState(7)
    ids = np.sort(rng.choice(20_000, size=5_000, replace=False))
    df = pd.DataFrame({"doc_id": ids, "text": [f"t{i}" for i in ids]})
    expect = {
        (i, f"t{i}", f"t{i + 1}") for i in ids if (i + 1) in set(ids.tolist())
    }
    for block in (1, 7, 4096):
        got = adjacent_pairs(
            rd.from_pandas(df).repartition(5), "doc_id", "text",
            out_left="a", out_right="b", block=block,
        ).take_all()
        got_set = {(r["doc_id"], r["a"], r["b"]) for r in got}
        assert len(got) == len(got_set), f"duplicate pairs at block={block}"
        assert got_set == expect, f"mismatch at block={block}"


def test_hll_one_hash_family_across_input_types():
    """Sketches built from a Series, an ndarray and a plain list of the
    same values must be register-identical — merge() of sketches from
    different hash families would silently produce garbage."""
    from pdf_extract_ray.stages.sketch import HyperLogLog

    vals = list(range(1000))
    hs, ha, hl = HyperLogLog(10), HyperLogLog(10), HyperLogLog(10)
    hs.add(pd.Series(vals))
    ha.add(np.array(vals))
    hl.add(vals)  # generic iterable path
    assert (hs.registers == ha.registers).all()
    assert (hs.registers == hl.registers).all()
    # int32 vs int64 containers of the same values also agree
    h32 = HyperLogLog(10)
    h32.add(np.array(vals, dtype=np.int32))
    assert (hs.registers == h32.registers).all()


def test_parse_stats(ray_session):
    import ray.data as rd

    from pdf_extract_ray.util import parse_stats

    mat = rd.range(1000).map_batches(lambda b: b, batch_format="pyarrow").materialize()
    ops = parse_stats(mat.stats())
    assert ops and all("name" in o and "wall_s" in o for o in ops)
    assert any("MapBatches" in o["name"] for o in ops)
    op = next(o for o in ops if "MapBatches" in o["name"])
    assert op["tasks"] >= 1 and op["peak_heap_mib"] > 0


def test_parse_stats_multi_suboperator(ray_session):
    import ray.data as rd

    from pdf_extract_ray.util import parse_stats

    mat = (
        rd.range(1000)
        .map_batches(lambda b: {"k": b["id"] % 7, "v": b["id"]}, batch_format="numpy")
        .groupby("k").sum("v").materialize()
    )
    ops = parse_stats(mat.stats())
    agg = next((o for o in ops if "ggregate" in o["name"] or "Sort" in o["name"]), None)
    assert agg is not None
    # suboperator sections are parsed (remote wall present and positive)
    assert agg.get("remote_wall_total_s", 0) > 0


def test_seeded_sampling_and_shuffle(ray_session):
    """§2.6: random_sample / random_shuffle with an explicit seed are the
    only sanctioned sampling ops (order-by-construction everywhere else)."""
    import ray.data as rd

    ds = rd.range(10_000)
    a = sorted(r["id"] for r in ds.random_sample(0.01, seed=7).take_all())
    b = sorted(r["id"] for r in rd.range(10_000).random_sample(0.01, seed=7).take_all())
    assert a == b and 30 < len(a) < 300  # deterministic under a fixed seed

    s1 = [r["id"] for r in rd.range(1000).random_shuffle(seed=3).take_all()]
    s2 = [r["id"] for r in rd.range(1000).random_shuffle(seed=3).take_all()]
    assert s1 == s2 and sorted(s1) == list(range(1000))


def test_stratified_sample_deterministic_and_balanced(ray_session):
    """Per-key sample: exactly min(k, group size) rows per key, identical
    at different partitionings (md5-of-id order is parallelism-free)."""
    import ray.data as rd

    from pdf_extract_ray.stages.agg import stratified_sample

    rng = np.random.RandomState(3)
    df = pd.DataFrame({"doc_id": range(500),
                       "lang": rng.choice(["ko", "en", "zz"], 500,
                                          p=[0.6, 0.39, 0.01])})
    outs = []
    for nparts in (2, 7):
        got = (stratified_sample(rd.from_pandas(df).repartition(nparts),
                                 ["lang"], "doc_id", 10)
               .to_pandas().sort_values(["lang", "doc_id"]).reset_index(drop=True))
        outs.append(got)
        sizes = got.groupby("lang").size().to_dict()
        full = df.groupby("lang").size().to_dict()
        for lang, n in full.items():
            assert sizes.get(lang, 0) == min(10, n)
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_adjacent_pairs_negative_order_values(ray_session):
    """The contract only requires unique ints: boundary pairs straddling
    block 0 from below (e.g. (-1, 0)) must not be lost (ADVICE r2)."""
    import ray.data as rd

    from pdf_extract_ray.stages.windows import adjacent_pairs

    ids = list(range(-10, 10))
    df = pd.DataFrame({"doc_id": ids, "text": [f"t{i}" for i in ids]})
    for block in (1, 4, 4096):
        got = adjacent_pairs(
            rd.from_pandas(df).repartition(3), "doc_id", "text",
            out_left="a", out_right="b", block=block,
        ).take_all()
        got_set = {(r["doc_id"], r["a"], r["b"]) for r in got}
        expect = {(i, f"t{i}", f"t{i + 1}") for i in range(-10, 9)}
        assert got_set == expect, f"mismatch at block={block}"
        assert len(got) == len(got_set)


# ---------------------------------------------------------------------------
# Arrow-native bucket-body migration (round-3 judge item 8): byte-identity
# A/B vs the previous pandas bodies, reimplemented inline as references
# ---------------------------------------------------------------------------

def _events_df(n=3000, seed=3):
    import numpy as np
    import pandas as pd

    rng = np.random.RandomState(seed)
    return pd.DataFrame({
        "user_id": rng.randint(0, 40, n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**7, n), unit="s"),
        "value": np.round(rng.uniform(0, 100, n), 3),
    })


def test_sessionize_arrow_body_matches_pandas_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.windows import sessionize
    from pdf_extract_ray.util import round_half_away

    df = _events_df()
    gap = pd.Timedelta(minutes=30)
    got = sessionize(rd.from_pandas(df).repartition(5), gap=gap) \
        .to_pandas().sort_values(["user_id", "session_id"]) \
        .reset_index(drop=True)

    # the pre-migration pandas body, single-process
    b = df.sort_values(["user_id", "ts"], kind="mergesort")
    new_key = b["user_id"] != b["user_id"].shift()
    gap_break = (b["ts"] - b["ts"].shift()) > gap
    b = b.assign(__s=(new_key | gap_break).cumsum())
    first = b.groupby("user_id")["__s"].transform("min")
    b["session_id"] = b["__s"] - first + 1
    exp = b.groupby(["user_id", "session_id"], as_index=False).agg(
        session_start=("ts", "min"), session_end=("ts", "max"),
        n_events=("ts", "count"), sum_value=("value", "sum"))
    exp["sum_value"] = round_half_away(exp["sum_value"], 2)
    exp = exp.sort_values(["user_id", "session_id"]).reset_index(drop=True)

    assert list(got.columns) == list(exp.columns)
    for c in exp.columns:
        assert np.array_equal(got[c].to_numpy(), exp[c].to_numpy()), c


def test_grouped_lag_arrow_body_matches_pandas_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.windows import grouped_lag

    df = _events_df(n=2000, seed=9)
    df["event_id"] = np.arange(2000)          # unique order col
    df["kind"] = np.where(df["value"] > 50, "hi", "lo")  # string 2nd key
    got = grouped_lag(rd.from_pandas(df).repartition(4),
                      ["user_id", "kind"], ["ts", "event_id"], "value") \
        .to_pandas().sort_values("event_id").reset_index(drop=True)

    b = df.sort_values(["user_id", "kind", "ts", "event_id"],
                       kind="mergesort")
    b["prev_value"] = b.groupby(["user_id", "kind"], sort=False)["value"] \
        .shift(1)
    exp = b.sort_values("event_id").reset_index(drop=True)

    assert list(got.columns) == list(exp.columns)
    ge, ee = got["prev_value"], exp["prev_value"]
    assert (ge.isna() == ee.isna()).all()
    assert np.array_equal(ge.dropna().to_numpy(), ee.dropna().to_numpy())
    for c in ("user_id", "kind", "ts", "value"):
        assert np.array_equal(got[c].to_numpy(), exp[c].to_numpy()), c


def test_grouped_lag_string_value_column(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.windows import grouped_lag

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2],
        "o": [1, 2, 3, 1, 2],
        "v": ["a", "b", "c", "x", "y"],
    })
    got = grouped_lag(rd.from_pandas(df), ["k"], ["o"], "v") \
        .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    assert list(got["prev_value"]) == [None, "a", "b", None, "x"]


def test_crawl_diff_arrow_body_matches_pandas_reference(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.crawldiff import crawl_diff

    rng = np.random.RandomState(5)
    urls = [f"http://h{i % 17}.example/p/{i}" for i in range(400)]
    old = pd.DataFrame({
        "url": urls[:350],
        "text": [f"body {i} v1" if i % 3 else f"body {i}" for i in
                 range(350)],
    })
    new = pd.DataFrame({
        "url": urls[50:],
        "text": [f"body {i} v1" if i % 2 else f"body {i}" for i in
                 range(50, 400)],
    })
    got = crawl_diff(rd.from_pandas(old).repartition(3),
                     rd.from_pandas(new).repartition(3)) \
        .to_pandas().sort_values("url").reset_index(drop=True)

    # single-process reference of the frozen rules
    import hashlib

    def hmax(df):
        h = df["text"].map(
            lambda v: hashlib.md5(("" if v is None else str(v)).encode())
            .hexdigest())
        return df.assign(h=h).groupby("url")["h"].max()

    o, n = hmax(old), hmax(new)
    all_urls = sorted(set(o.index) | set(n.index))
    rows = []
    for u in all_urls:
        oh = o.get(u)
        nh = n.get(u)
        st = ("added" if oh is None else
              "removed" if nh is None else
              "unchanged" if oh == nh else "changed")
        rows.append({"url": u, "status": st, "old_hash": oh,
                     "new_hash": nh})
    exp = pd.DataFrame(rows)
    assert list(got.columns) == list(exp.columns)
    for c in exp.columns:
        assert list(got[c].where(got[c].notna(), None)) == list(exp[c]), c


def test_grouped_top_k_and_sql_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_top_k,
        grouped_top_k_oracle_sql,
    )

    rng = np.random.default_rng(47)
    df = pd.DataFrame({
        "g": [f"g{int(x)}" for x in rng.integers(0, 30, size=400)],
        "score": rng.integers(0, 6, size=400),  # heavy boundary ties
        "id": np.arange(400),
    })
    got = (grouped_top_k(rd.from_pandas(df).repartition(7),
                         ["g"], "score", 3, tie_col="id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_top_k_oracle_sql(
        "SELECT g, score, id FROM t", ["g"], "score", 3, tie_col="id"))
        .df().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)
    # every group has at most k rows, and groups with >= 3 rows have 3
    sizes = got.groupby("g").size()
    assert (sizes <= 3).all()
    full = df.groupby("g").size()
    assert (sizes[full[full >= 3].index] == 3).all()
    # ascending mode: k smallest
    asc = (grouped_top_k(rd.from_pandas(df), ["g"], "score", 2,
                         descending=False, tie_col="id").to_pandas())
    ref = (df.sort_values(["g", "score", "id"], kind="mergesort")
           .groupby("g").head(2))
    assert sorted(asc["id"]) == sorted(ref["id"])


def test_grouped_quantile_disc_and_sql_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_quantile_disc,
        grouped_quantile_disc_oracle_sql,
    )

    rng = np.random.default_rng(53)
    df = pd.DataFrame({
        "g": [f"g{int(x)}" for x in rng.integers(0, 25, size=500)],
        "v": rng.integers(0, 40, size=500),
    })
    for q in (0.5, 0.25, 0.9):
        got = (grouped_quantile_disc(
            rd.from_pandas(df).repartition(6), ["g"], "v", q)
            .to_pandas().sort_values("g").reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", df)
        want = (con.sql(grouped_quantile_disc_oracle_sql(
            "SELECT g, v FROM t", ["g"], "v", q))
            .df().sort_values("g").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_dtype=False)
    # singleton and tiny groups hit the ceil boundary exactly
    tiny = pd.DataFrame({"g": ["a", "b", "b", "c", "c", "c"],
                         "v": [7, 1, 2, 5, 6, 9]})
    got = (grouped_quantile_disc(rd.from_pandas(tiny), ["g"], "v", 0.5)
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert got["v_q"].tolist() == [7, 1, 6]


def test_value_histogram_exact_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        value_histogram,
        value_histogram_oracle_sql,
    )

    rng = np.random.default_rng(71)
    df = pd.DataFrame({"v": np.concatenate([
        rng.exponential(30, size=3000),
        [-5.0, 0.0, 99.999999, 100.0, 250.0],  # boundary + out-of-range
    ])})
    got = (value_histogram(rd.from_pandas(df).repartition(6),
                           "v", 0.0, 100.0, 10)
           .to_pandas().sort_values("bin").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(value_histogram_oracle_sql(
        "SELECT v FROM t", "v", 0.0, 100.0, 10))
        .df().sort_values("bin").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # frozen range rule: v < lo and v >= hi dropped, lo itself counted
    assert got["n"].sum() == ((df["v"] >= 0) & (df["v"] < 100)).sum()
    assert got["bin"].between(0, 9).all()


def test_grouped_rolling_matches_pandas_and_sql(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        grouped_rolling,
        grouped_rolling_oracle_sql,
    )

    rng = np.random.default_rng(83)
    df = pd.DataFrame({
        "k": rng.integers(0, 25, size=600),
        "o": np.arange(600),  # unique ordering within any key
        "v": rng.integers(-10, 100, size=600).astype(np.float64),
    })
    ops = {"s3": "sum", "m3": "mean", "lo3": "min", "hi3": "max"}
    got = (grouped_rolling(rd.from_pandas(df).repartition(7),
                           ["k"], ["o"], "v", ops, window=3)
           .to_pandas().sort_values("o").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_rolling_oracle_sql(
        "(SELECT k, o, v FROM t)", ["k"], ["o"], "v", ops, window=3))
        .df().sort_values("o").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)
    # integer inputs: sliding sums are exact -> bit-identical values
    assert (got["s3"].to_numpy() == want["s3"].to_numpy()).all()
    # plain-pandas reference for one key
    sub = df[df["k"] == df["k"].iloc[0]].sort_values("o")
    ref = sub["v"].rolling(3, min_periods=1).sum().to_numpy()
    chk = got[got["k"] == df["k"].iloc[0]].sort_values("o")["s3"].to_numpy()
    assert (chk == ref).all()


def test_grouped_rolling_expanding_and_topology(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        grouped_rolling,
        grouped_rolling_oracle_sql,
    )

    rng = np.random.default_rng(84)
    df = pd.DataFrame({
        "k": rng.integers(0, 8, size=300),
        "o": np.arange(300),
        "v": rng.integers(0, 50, size=300).astype(np.float64),
    })
    ops = {"run_sum": "sum", "run_max": "max"}
    # window=None -> cumulative (ROWS UNBOUNDED PRECEDING)
    a = (grouped_rolling(rd.from_pandas(df).repartition(3), ["k"], ["o"],
                         "v", ops, num_buckets=4)
         .to_pandas().sort_values("o").reset_index(drop=True))
    b = (grouped_rolling(rd.from_pandas(df).repartition(11), ["k"], ["o"],
                         "v", ops, num_buckets=32)
         .to_pandas().sort_values("o").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)  # topology-independent
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_rolling_oracle_sql(
        "(SELECT k, o, v FROM t)", ["k"], ["o"], "v", ops))
        .df().sort_values("o").reset_index(drop=True))
    pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)
    # cumulative sum for one key equals cumsum
    sub = df[df["k"] == 3].sort_values("o")
    assert (a[a["k"] == 3].sort_values("o")["run_sum"].to_numpy()
            == sub["v"].cumsum().to_numpy()).all()
    with pytest.raises(ValueError):
        grouped_rolling(rd.from_pandas(df), ["k"], ["o"], "v",
                        {"x": "median"})
    with pytest.raises(ValueError):
        grouped_rolling(rd.from_pandas(df), ["k"], ["o"], "v",
                        {"x": "sum"}, window=0)


def test_grouped_standardize_sql_parity_and_null_variance(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_standardize,
        grouped_standardize_oracle_sql,
    )

    rng = np.random.default_rng(85)
    df = pd.DataFrame({
        "g": [f"g{int(x)}" for x in rng.integers(0, 6, size=500)],
        "v": rng.integers(0, 1000, size=500).astype(np.int64),
        "id": np.arange(500),
    })
    # one constant group: variance 0 -> NULL z-score
    df.loc[df["g"] == "g0", "v"] = 7
    got = (grouped_standardize(rd.from_pandas(df).repartition(5),
                               ["g"], "v", out_col="z")
           .to_pandas().sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_standardize_oracle_sql(
        "(SELECT g, v, id FROM t)", ["g"], "v", out_col="z"))
        .df().sort_values("id").reset_index(drop=True))
    # int inputs -> exact moments -> bit-identical z-scores vs SQL
    gz, wz = got["z"].to_numpy(), want["z"].to_numpy()
    assert (np.isnan(gz) == np.isnan(wz)).all()
    assert (gz[~np.isnan(gz)] == wz[~np.isnan(wz)]).all()
    assert got.loc[got["g"] == "g0", "z"].isna().all()
    assert (~got.loc[got["g"] != "g0", "z"].isna()).all()
    # per-group z-scores: mean ~ 0, pop-std ~ 1
    for g, sub in got[got["g"] != "g0"].groupby("g"):
        assert abs(sub["z"].mean()) < 1e-12
        assert abs(sub["z"].std(ddof=0) - 1.0) < 1e-12
    # topology independence
    again = (grouped_standardize(rd.from_pandas(df).repartition(13),
                                 ["g"], "v", out_col="z", num_buckets=32)
             .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_grouped_rolling_time_sql_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        grouped_rolling_time,
        grouped_rolling_time_oracle_sql,
    )

    rng = np.random.default_rng(91)
    t0 = pd.Timestamp("2024-03-01")
    # unique ts within key (the RANGE-frame peer contract)
    offs = rng.choice(100_000, size=400, replace=False)
    df = pd.DataFrame({
        "k": rng.integers(0, 10, size=400),
        "ts": t0 + pd.to_timedelta(offs, unit="s"),
        "v": rng.integers(0, 50, size=400).astype(np.float64),
        "id": np.arange(400),
    })
    ops = {"n1h": "count", "s1h": "sum", "m1h": "mean", "hi1h": "max"}
    got = (grouped_rolling_time(rd.from_pandas(df).repartition(5),
                                ["k"], "ts", "v", ops, "1h")
           .to_pandas().sort_values("id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_rolling_time_oracle_sql(
        "(SELECT k, ts, v, id FROM t)", ["k"], "ts", "v", ops,
        "INTERVAL 1 HOUR"))
        .df().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)
    # integer values: sliding sums exact -> bit-identical
    assert (got["s1h"].to_numpy() == want["s1h"].to_numpy()).all()
    # boundary rule is inclusive both ends ([ts - 1h, ts])
    sub = pd.DataFrame({
        "k": [0, 0], "ts": [t0, t0 + pd.Timedelta(hours=1)],
        "v": [3.0, 4.0], "id": [0, 1]})
    two = (grouped_rolling_time(rd.from_pandas(sub), ["k"], "ts", "v",
                                {"s": "sum"}, "1h")
           .to_pandas().sort_values("id"))
    assert two["s"].tolist() == [3.0, 7.0]
    # topology independence
    again = (grouped_rolling_time(rd.from_pandas(df).repartition(13),
                                  ["k"], "ts", "v", ops, "1h",
                                  num_buckets=32)
             .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)
    with pytest.raises(ValueError):
        grouped_rolling_time(rd.from_pandas(df), ["k"], "ts", "v",
                             {"x": "median"}, "1h")
    with pytest.raises(ValueError):
        grouped_rolling_time(rd.from_pandas(df), ["k"], "ts", "v",
                             {"x": "sum"}, pd.Timedelta(0))


def test_grouped_mode_tie_rule_and_sql(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import grouped_mode, grouped_mode_oracle_sql

    df = pd.DataFrame({
        "g": ["x"] * 5 + ["y"] * 4,
        "v": ["b", "b", "a", "a", "c", "q", "p", "q", "p"],
    })
    got = (grouped_mode(rd.from_pandas(df).repartition(3), ["g"], "v")
           .to_pandas().sort_values("g").reset_index(drop=True))
    # x: a and b tie at 2 -> smallest value wins; y: p/q tie -> p
    assert got["v"].tolist() == ["a", "p"]
    assert got["n"].tolist() == [2, 2]
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_mode_oracle_sql("SELECT g, v FROM t",
                                            ["g"], "v"))
            .df().sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_global_rank_matches_sorted_arange(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import global_rank, global_rank_oracle_sql

    rng = np.random.default_rng(97)
    # heavy duplication in the range column; id breaks ties uniquely
    df = pd.DataFrame({
        "v": rng.integers(0, 40, size=700).astype("int64"),
        "id": rng.permutation(700).astype("int64"),
    })
    got = (global_rank(rd.from_pandas(df).repartition(6), ["v", "id"])
           .to_pandas().sort_values("rank").reset_index(drop=True))
    ref = df.sort_values(["v", "id"], kind="mergesort").reset_index(drop=True)
    assert got["rank"].tolist() == list(range(1, 701))
    assert got["v"].tolist() == ref["v"].tolist()
    assert got["id"].tolist() == ref["id"].tolist()
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(global_rank_oracle_sql("(SELECT v, id FROM t)",
                                           ["v", "id"]))
            .df().sort_values("rank").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # topology independence
    again = (global_rank(rd.from_pandas(df).repartition(13), ["v", "id"],
                         num_buckets=8)
             .to_pandas().sort_values("rank").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_global_rank_constant_range_column(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.agg import global_rank

    # mn == mx: every row lands in bucket 0, ranks still correct
    df = pd.DataFrame({"v": np.zeros(50, dtype="int64"),
                       "id": np.arange(50, dtype="int64")[::-1].copy()})
    got = (global_rank(rd.from_pandas(df).repartition(4), ["v", "id"])
           .to_pandas().sort_values("rank").reset_index(drop=True))
    assert got["rank"].tolist() == list(range(1, 51))
    assert got["id"].tolist() == list(range(50))


def test_weighted_sample_aes_properties(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        weighted_sample,
        weighted_sample_oracle_sql,
    )

    # 900 light rows (w=1) vs 100 heavy rows (w=100): heavy dominates
    df = pd.DataFrame({
        "id": np.arange(1000, dtype="int64"),
        "w": np.where(np.arange(1000) % 10 == 0, 100.0, 1.0),
    })
    got = (weighted_sample(rd.from_pandas(df).repartition(5),
                           "id", "w", 50, method="md5")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert len(got) == 50
    heavy = (got["w"] == 100.0).mean()
    assert heavy > 0.6  # expected ~0.9 under A-ES
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(weighted_sample_oracle_sql(
        "SELECT id, w FROM t", "id", "w", 50))
        .df().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # topology independence (fast mode too)
    for method in ("md5", "fast"):
        a = (weighted_sample(rd.from_pandas(df).repartition(3), "id", "w",
                             20, method=method)
             .to_pandas().sort_values("id").reset_index(drop=True))
        b = (weighted_sample(rd.from_pandas(df).repartition(11), "id", "w",
                             20, method=method, num_buckets=16)
             .to_pandas().sort_values("id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
    # non-positive weights are excluded entirely
    dfz = pd.DataFrame({"id": np.arange(10, dtype="int64"),
                        "w": [0.0, -1.0] + [1.0] * 8})
    out = weighted_sample(rd.from_pandas(dfz), "id", "w", 10).to_pandas()
    assert len(out) == 8 and not set(out["id"]) & {0, 1}
    with pytest.raises(ValueError, match="method"):
        weighted_sample(rd.from_pandas(dfz), "id", "w", 5, method="xx")


def test_fill_window_gaps_crafted_and_sql(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        fill_window_gaps,
        fill_window_gaps_oracle_sql,
    )

    t0 = pd.Timestamp("2024-02-01")
    df = pd.DataFrame({
        "k": ["a", "a", "a", "b"],
        "win": [t0, t0 + pd.Timedelta(days=3), t0 + pd.Timedelta(days=5),
                t0 + pd.Timedelta(days=2)],
        "n": np.array([4, 2, 1, 7], dtype="int64"),
    })
    got = (fill_window_gaps(rd.from_pandas(df).repartition(2), ["k"],
                            "win", "1D", {"n": 0})
           .to_pandas().sort_values(["k", "win"]).reset_index(drop=True))
    # a spans 6 days (2 gaps filled with 0), b is a single day
    assert len(got) == 7
    assert got.loc[got["k"] == "a", "n"].tolist() == [4, 0, 0, 2, 0, 1]
    assert got.loc[got["k"] == "b", "n"].tolist() == [7]
    assert str(got["n"].dtype) == "int64"  # fill preserves the dtype
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(fill_window_gaps_oracle_sql(
        "(SELECT k, win, n FROM t)", ["k"], "win", "INTERVAL 1 DAY",
        {"n": 0}))
        .df().sort_values(["k", "win"]).reset_index(drop=True))
    want["win"] = want["win"].astype("datetime64[us]")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # misaligned window raises
    bad = df.copy()
    bad.loc[1, "win"] = t0 + pd.Timedelta(days=3, hours=7)
    with pytest.raises(Exception, match="aligned|duplicate"):
        fill_window_gaps(rd.from_pandas(bad), ["k"], "win", "1D",
                         {"n": 0}).materialize()
    # duplicate (key, window) raises
    dup = pd.concat([df, df.iloc[[0]]], ignore_index=True)
    with pytest.raises(Exception, match="duplicate"):
        fill_window_gaps(rd.from_pandas(dup), ["k"], "win", "1D",
                         {"n": 0}).materialize()


def test_grouped_linreg_exact_and_sql_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_linreg,
        grouped_linreg_oracle_sql,
    )

    rng = np.random.default_rng(101)
    # group a: exact line y = 3x + 7; group b: noisy ints; group c:
    # constant x (zero variance -> NULL slope)
    xa = np.arange(50, dtype=np.int64)
    df = pd.concat([
        pd.DataFrame({"g": "a", "x": xa, "y": 3 * xa + 7}),
        pd.DataFrame({"g": "b", "x": rng.integers(0, 100, 80),
                      "y": rng.integers(-50, 50, 80)}),
        pd.DataFrame({"g": "c", "x": np.full(5, 9), "y": np.arange(5)}),
    ], ignore_index=True).astype({"x": "float64", "y": "float64"})
    got = (grouped_linreg(rd.from_pandas(df).repartition(5), ["g"],
                          "x", "y")
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert got.loc[0, "slope"] == 3.0 and got.loc[0, "intercept"] == 7.0
    assert pd.isna(got.loc[2, "slope"]) and pd.isna(got.loc[2, "intercept"])
    # numpy polyfit agreement on the noisy group
    sub = df[df["g"] == "b"]
    ref = np.polyfit(sub["x"], sub["y"], 1)
    assert abs(got.loc[1, "slope"] - ref[0]) < 1e-9
    assert abs(got.loc[1, "intercept"] - ref[1]) < 1e-9
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_linreg_oracle_sql("(SELECT g, x, y FROM t)",
                                              ["g"], "x", "y"))
            .df().sort_values("g").reset_index(drop=True))
    # integer-valued inputs: bit-identical to the SQL moment mirror
    for c in ("slope", "intercept"):
        gv, wv = got[c].to_numpy(), want[c].to_numpy()
        assert (np.isnan(gv) == np.isnan(wv)).all()
        assert (gv[~np.isnan(gv)] == wv[~np.isnan(wv)]).all()
    assert got["n"].tolist() == want["n"].tolist()
    # topology independence
    again = (grouped_linreg(rd.from_pandas(df).repartition(13), ["g"],
                            "x", "y", num_buckets=32)
             .to_pandas().sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_serpentine_assign_sql_parity_and_balance(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        serpentine_assign,
        serpentine_assign_oracle_sql,
    )

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"doc_id": np.arange(257, dtype="int64"),
                       "w": rng.integers(1, 5000, 257).astype("int64")})
    con = duckdb.connect()
    con.register("t", df)
    for k in (1, 8):
        got = (serpentine_assign(
            rd.from_pandas(df).repartition(5), "w", k,
            tie_cols=["doc_id"])
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
        want = (con.sql(serpentine_assign_oracle_sql(
            "SELECT doc_id, w FROM t", "w", k, tie_cols=["doc_id"])).df()
            .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["doc_id", "w", "shard"]],
            want[["doc_id", "w", "shard"]], check_dtype=False)
        sums = got.groupby("shard")["w"].sum()
        assert len(sums) == k
        # serpentine guarantee: shard sums within the largest weight
        assert sums.max() - sums.min() <= df["w"].max()
    with pytest.raises(ValueError):
        serpentine_assign(rd.from_pandas(df), "w", 0, tie_cols=["doc_id"])


def test_grouped_value_histogram_sql_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_value_histogram,
        grouped_value_histogram_oracle_sql,
    )

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "g": rng.choice(["x", "y"], 2000),
        "v": rng.uniform(-10, 110, 2000),
    })
    got = (grouped_value_histogram(
        rd.from_pandas(df).repartition(6), ["g"], "v", 0.0, 100.0, 10)
        .to_pandas().sort_values(["g", "bin"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_value_histogram_oracle_sql(
        "SELECT * FROM t", ["g"], "v", 0.0, 100.0, 10)).df()
        .sort_values(["g", "bin"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # out-of-range rows were dropped on both sides
    in_range = ((df["v"] >= 0) & (df["v"] < 100)).sum()
    assert got.groupby("g")["n"].sum().sum() == in_range


def test_grouped_mad_outliers_sql_parity_and_robustness(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_mad_outliers,
        grouped_mad_outliers_oracle_sql,
    )

    rng = np.random.default_rng(29)
    # group a: tight cluster + planted extreme; group b: all-constant
    # (mad=0 -> every off-median value flags)
    va = np.concatenate([rng.integers(95, 106, 300), [500, -400]])
    df = pd.DataFrame({
        "g": ["a"] * len(va) + ["b"] * 50,
        "v": np.concatenate([va, np.full(50, 7)]).astype("float64"),
    })
    got = (grouped_mad_outliers(
        rd.from_pandas(df.sample(frac=1.0, random_state=0)
                       .reset_index(drop=True)).repartition(5),
        ["g"], "v", k=3.0)
        .to_pandas().sort_values(["g", "v"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_mad_outliers_oracle_sql(
        "SELECT * FROM t", ["g"], "v", k=3.0)).df()
        .sort_values(["g", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the planted extremes flag; the tight cluster's median does not
    a = got[got["g"] == "a"]
    assert a.loc[a["v"] == 500, "is_outlier"].all()
    assert a.loc[a["v"] == -400, "is_outlier"].all()
    assert not a.loc[a["v"] == a["grp_median"].iloc[0], "is_outlier"].any()
    # constant group: mad == 0, nothing off-median exists, nothing flags
    b = got[got["g"] == "b"]
    assert (b["grp_mad"] == 0).all() and not b["is_outlier"].any()


def test_grouped_count_distinct_sql_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_count_distinct,
        grouped_count_distinct_oracle_sql,
    )

    rng = np.random.default_rng(43)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c", "d"], 3000),
        "v": rng.integers(0, 50, 3000).astype("int64"),
    })
    got = (grouped_count_distinct(
        rd.from_pandas(df).repartition(7), ["g"], "v")
        .to_pandas().sort_values("g").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_count_distinct_oracle_sql(
        "SELECT * FROM t", ["g"], "v")).df()
        .sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # equals the pandas exact nunique
    exact = df.groupby("g")["v"].nunique()
    for _, r in got.iterrows():
        assert r["n_distinct"] == exact[r["g"]]


def test_grouped_percent_rank_sql_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_percent_rank,
        grouped_percent_rank_oracle_sql,
    )

    rng = np.random.default_rng(61)
    df = pd.DataFrame({
        "g": list(rng.choice(["a", "b"], 299)) + ["solo"],
        "v": rng.integers(0, 40, 300).astype("int64"),  # heavy ties
        "i": np.arange(300, dtype="int64"),
    })
    got = (grouped_percent_rank(
        rd.from_pandas(df).repartition(6), ["g"], "v")
        .to_pandas().sort_values("i").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_percent_rank_oracle_sql(
        "SELECT * FROM t", ["g"], "v")).df()
        .sort_values("i").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["g", "v", "i", "pct_rank"]],
        want[["g", "v", "i", "pct_rank"]], check_dtype=False)
    # bit parity, not approximate
    assert (got["pct_rank"].to_numpy()
            == want["pct_rank"].to_numpy()).all()
    # singleton group pins to 0.0
    assert got.loc[got["g"] == "solo", "pct_rank"].iloc[0] == 0.0


def test_impute_by_group_median_sql_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        impute_by_group_median,
        impute_by_group_median_oracle_sql,
    )

    df = pd.DataFrame({
        "g": ["a"] * 6 + ["b"] * 3 + ["allnull"] * 2,
        "v": [1.0, None, 3.0, 9.0, None, 5.0,
              10.0, None, 20.0, None, None],
        "i": np.arange(11, dtype="int64"),
    })
    got = (impute_by_group_median(
        rd.from_pandas(df).repartition(4), ["g"], "v")
        .to_pandas().sort_values("i").reset_index(drop=True))
    # group a: non-null sorted [1,3,5,9] -> quantile_disc(0.5) = ceil(2)=2nd = 3
    assert got.loc[1, "v"] == 3.0 and got.loc[1, "was_imputed"]
    assert got.loc[4, "v"] == 3.0
    # group b: [10,20] -> lower median 10
    assert got.loc[7, "v"] == 10.0
    # all-null group: stays NULL, not imputed
    assert pd.isna(got.loc[9, "v"]) and not got.loc[9, "was_imputed"]
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(impute_by_group_median_oracle_sql(
        "SELECT * FROM t", ["g"], "v")).df()
        .sort_values("i").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["g", "i", "v", "was_imputed"]],
        want[["g", "i", "v", "was_imputed"]], check_dtype=False)


def test_grouped_corr_exact_and_sql_parity(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_corr,
        grouped_corr_oracle_sql,
    )

    rng = np.random.default_rng(202)
    xa = np.arange(40, dtype=np.int64)
    df = pd.concat([
        # perfect positive / perfect negative / noisy / zero-variance
        pd.DataFrame({"g": "a", "x": xa, "y": 2 * xa + 1}),
        pd.DataFrame({"g": "b", "x": xa, "y": -5 * xa + 3}),
        pd.DataFrame({"g": "c", "x": rng.integers(0, 100, 80),
                      "y": rng.integers(-50, 50, 80)}),
        pd.DataFrame({"g": "d", "x": np.full(6, 4), "y": np.arange(6)}),
    ], ignore_index=True).astype({"x": "float64", "y": "float64"})
    got = (grouped_corr(rd.from_pandas(df).repartition(5), ["g"], "x", "y")
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert got.loc[0, "corr"] == 1.0
    assert got.loc[1, "corr"] == -1.0
    assert pd.isna(got.loc[3, "corr"])
    sub = df[df["g"] == "c"]
    ref = np.corrcoef(sub["x"], sub["y"])[0, 1]
    assert abs(got.loc[2, "corr"] - ref) < 1e-12
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_corr_oracle_sql("(SELECT g, x, y FROM t)",
                                            ["g"], "x", "y"))
            .df().sort_values("g").reset_index(drop=True))
    gv, wv = got["corr"].to_numpy(), want["corr"].to_numpy()
    assert (np.isnan(gv) == np.isnan(wv)).all()
    # integer-valued inputs: bit-identical to the SQL moment mirror
    assert (gv[~np.isnan(gv)] == wv[~np.isnan(wv)]).all()
    assert got["n"].tolist() == want["n"].tolist()
    again = (grouped_corr(rd.from_pandas(df).repartition(13), ["g"],
                          "x", "y", num_buckets=32)
             .to_pandas().sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


# --- interval merge ----------------------------------------------------------

def _merge_ref(rows):
    """Plain per-key interval merge (touching merges)."""
    out = []
    by_key = {}
    for k, s, e in rows:
        by_key.setdefault(k, []).append((s, e))
    for k, iv in by_key.items():
        iv.sort()
        cur_s, cur_e, n = iv[0][0], iv[0][1], 1
        for s, e in iv[1:]:
            if s <= cur_e:
                cur_e = max(cur_e, e)
                n += 1
            else:
                out.append((k, cur_s, cur_e, n))
                cur_s, cur_e, n = s, e, 1
        out.append((k, cur_s, cur_e, n))
    return sorted(out)


@pytest.mark.parametrize("blocks", [1, 6])
def test_merge_intervals_matches_reference_and_sql(ray_session, blocks):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        merge_intervals, merge_intervals_oracle_sql)

    rng = np.random.default_rng(14)
    df = pd.DataFrame({
        "k": rng.integers(0, 8, 250).astype(np.int64),
        "s": rng.integers(0, 1000, 250).astype(np.int64)})
    df["e"] = df["s"] + rng.integers(1, 60, 250)
    got = (merge_intervals(rd.from_pandas(df).repartition(blocks),
                           ["k"], "s", "e")
           .to_pandas()
           .sort_values(["k", "interval_start", "interval_end"])
           .reset_index(drop=True))
    want = pd.DataFrame(
        _merge_ref(list(zip(df["k"], df["s"], df["e"]))),
        columns=["k", "interval_start", "interval_end", "n_rows"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    con = duckdb.connect()
    con.register("t", df)
    sql = merge_intervals_oracle_sql("SELECT * FROM t", ["k"], "s", "e")
    want_sql = (con.sql(sql).df()
                .sort_values(["k", "interval_start", "interval_end"])
                .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)


def test_merge_intervals_touching_merge_rule(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.windows import merge_intervals

    # [0,10] and [10,20] touch -> ONE interval; [21,30] stays separate
    df = pd.DataFrame({"k": [1, 1, 1], "s": [0, 10, 21],
                       "e": [10, 20, 30]})
    got = (merge_intervals(rd.from_pandas(df), ["k"], "s", "e")
           .to_pandas().sort_values("interval_start")
           .reset_index(drop=True))
    assert got["interval_start"].tolist() == [0, 21]
    assert got["interval_end"].tolist() == [20, 30]
    assert got["n_rows"].tolist() == [2, 1]


# --- CUSUM control chart -----------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 6])
def test_grouped_cusum_matches_recurrence_and_sql(ray_session, blocks):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        grouped_cusum, grouped_cusum_oracle_sql)

    rng = np.random.default_rng(20)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 200),
        "i": np.arange(200, dtype=np.int64),
        "v": rng.integers(0, 20, 200).astype(np.int64)})
    # plant a drift: key 'a' rows past i=120 run hot
    df.loc[(df["k"] == "a") & (df["i"] > 120), "v"] += 15
    got = (grouped_cusum(rd.from_pandas(df).repartition(blocks),
                         ["k"], ["i"], "v", target=10, slack=2,
                         threshold=40)
           .to_pandas().sort_values(["k", "i"]).reset_index(drop=True))
    # reference: the literal sequential recurrence
    want_rows = []
    for k, g in df.sort_values(["k", "i"]).groupby("k"):
        c = 0
        for _, r in g.iterrows():
            c = max(0, c + int(r["v"]) - 10 - 2)
            want_rows.append((k, r["i"], r["v"], c, c >= 40))
    want = pd.DataFrame(want_rows,
                        columns=["k", "i", "v", "cusum", "alarm"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["alarm"].any()  # the planted drift fires
    # and pre-drift rows stay quiet for key b
    assert not got[(got["k"] == "b")]["alarm"].any()
    con = duckdb.connect()
    con.register("t", df)
    sql = grouped_cusum_oracle_sql("SELECT * FROM t", ["k"], ["i"], "v",
                                   target=10, slack=2, threshold=40)
    want_sql = (con.sql(sql).df()
                .sort_values(["k", "i"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)


# --- tumbling-window distinct ------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 6])
def test_window_distinct_matches_reference_and_sql(ray_session, blocks):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.windows import (
        window_distinct, window_distinct_oracle_sql)

    rng = np.random.default_rng(22)
    base = np.datetime64("2024-03-01T00:00:00", "us")
    df = pd.DataFrame({
        "ts": base + rng.integers(0, 6 * 3_600_000_000, 500).astype(
            "timedelta64[us]"),
        "uid": rng.integers(0, 30, 500).astype(np.int64)})
    got = (window_distinct(rd.from_pandas(df).repartition(blocks),
                           "ts", "uid", size_us=3_600_000_000)
           .to_pandas().sort_values("window_start")
           .reset_index(drop=True))
    us = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
    w = us // 3_600_000_000 * 3_600_000_000
    want = (pd.DataFrame({"window_start": w, "uid": df["uid"]})
            .groupby("window_start")["uid"].nunique()
            .rename("n_distinct").reset_index())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    con = duckdb.connect()
    con.register("t", df)
    sql = window_distinct_oracle_sql("SELECT * FROM t", "ts", "uid",
                                     size_us=3_600_000_000)
    want_sql = (con.sql(sql).df().sort_values("window_start")
                .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)


# --- rendezvous (HRW) assignment ----------------------------------------------

@pytest.mark.parametrize("blocks", [1, 5])
def test_rendezvous_assign_md5_matches_reference_and_sql(ray_session,
                                                         blocks):
    import hashlib

    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        rendezvous_assign, rendezvous_assign_oracle_sql)

    df = pd.DataFrame({"host": [f"h{i % 37}.example" for i in range(200)]})
    got = (rendezvous_assign(rd.from_pandas(df).repartition(blocks),
                             "host", 8, method="md5")
           .to_pandas().sort_values("host").reset_index(drop=True))
    assert len(got) == 37  # one row per DISTINCT key
    want = {}
    for h in sorted(df["host"].unique()):
        scores = [int(hashlib.md5(f"{h}|{w}".encode()).hexdigest()[:8],
                      16) for w in range(8)]
        want[h] = int(np.argmax(scores))
    assert dict(zip(got["host"], got["worker"])) == want
    con = duckdb.connect()
    con.register("t", df)
    sql = rendezvous_assign_oracle_sql("SELECT host FROM t", "host", 8)
    want_sql = (con.sql(sql).df().sort_values("host")
                .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)


def test_rendezvous_minimal_disruption_on_resize(ray_session):
    # the point of HRW: going 8 -> 9 workers moves ~1/9 of keys, and
    # every key that moves lands on the NEW worker
    import ray.data as rd

    from pdf_extract_ray.stages.agg import rendezvous_assign

    df = pd.DataFrame({"host": [f"site{i}.org" for i in range(400)]})
    a8 = (rendezvous_assign(rd.from_pandas(df), "host", 8)
          .to_pandas().set_index("host")["worker"])
    a9 = (rendezvous_assign(rd.from_pandas(df), "host", 9)
          .to_pandas().set_index("host")["worker"])
    moved = a8[a8 != a9.reindex(a8.index)]
    assert 0 < len(moved) < len(a8) * 0.3  # ~1/9 expected
    assert (a9.reindex(moved.index) == 8).all()  # movers go to worker 8
    with pytest.raises(ValueError):
        rendezvous_assign(rd.from_pandas(df), "host", 0)
    with pytest.raises(ValueError):
        rendezvous_assign(rd.from_pandas(df), "host", 4, method="nope")


# --- grouped weighted median -------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 6])
def test_grouped_weighted_median_matches_reference_and_sql(ray_session,
                                                           blocks):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_weighted_median, grouped_weighted_median_oracle_sql)

    rng = np.random.default_rng(27)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 300),
        "v": rng.integers(-20, 20, 300).astype(np.int64),
        "w": rng.integers(-1, 6, 300).astype(np.int64)})  # some w<=0
    got = (grouped_weighted_median(
        rd.from_pandas(df).repartition(blocks), ["k"], "v", "w")
        .to_pandas().sort_values("k").reset_index(drop=True))
    # reference: literal expansion — median of v repeated w times
    want_rows = []
    for k, g in df[df["w"] > 0].groupby("k"):
        exp = np.sort(np.repeat(g["v"].to_numpy(), g["w"].to_numpy()))
        lower = exp[int(np.ceil(len(exp) / 2)) - 1]
        want_rows.append((k, lower, int(g["w"].sum())))
    want = pd.DataFrame(want_rows,
                        columns=["k", "weighted_median", "total_w"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    con = duckdb.connect()
    con.register("t", df)
    sql = grouped_weighted_median_oracle_sql("SELECT * FROM t", ["k"],
                                             "v", "w")
    want_sql = con.sql(sql).df().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)
    # unit weights == the plain lower median
    uni = df.assign(w=1)
    g1 = (grouped_weighted_median(rd.from_pandas(uni), ["k"], "v", "w")
          .to_pandas().set_index("k"))
    for k, g in uni.groupby("k"):
        exp = np.sort(g["v"].to_numpy())
        assert g1.loc[k, "weighted_median"] == exp[
            int(np.ceil(len(exp) / 2)) - 1]


class TestNtile:
    def test_sql_parity_with_heavy_ties(self, ray_session):
        import duckdb
        import ray.data as rd

        from pdf_extract_ray.stages.agg import ntile, ntile_oracle_sql

        rng = np.random.RandomState(7)
        df = pd.DataFrame({"id": np.arange(1000),
                           "v": rng.randint(0, 20, 1000)})
        for n in (1, 3, 4, 7):
            got = (ntile(rd.from_pandas(df).repartition(5), ["v", "id"], n)
                   .to_pandas().sort_values("id").reset_index(drop=True))
            con = duckdb.connect()
            con.register("t", df)
            want = (con.execute(ntile_oracle_sql("t", ["v", "id"], n))
                    .df().sort_values("id").reset_index(drop=True))
            pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_tile_sizes_differ_by_at_most_one(self, ray_session):
        import ray.data as rd

        from pdf_extract_ray.stages.agg import ntile

        df = pd.DataFrame({"id": np.arange(103), "v": np.arange(103) % 11})
        sizes = (ntile(rd.from_pandas(df), ["v", "id"], 5)
                 .to_pandas()["ntile"].value_counts())
        assert sorted(sizes.tolist()) == [20, 20, 21, 21, 21]

    def test_fewer_rows_than_tiles(self, ray_session):
        import ray.data as rd

        from pdf_extract_ray.stages.agg import ntile

        df = pd.DataFrame({"id": [3, 1, 2], "v": [30.0, 10.0, 20.0]})
        got = (ntile(rd.from_pandas(df), ["v", "id"], 10)
               .to_pandas().sort_values("id"))
        assert got["ntile"].tolist() == [1, 2, 3]


class TestRateLimit:
    def test_burst_trimmed_keep_first(self, ray_session):
        import ray.data as rd

        from pdf_extract_ray.stages.windows import rate_limit

        ts = pd.to_datetime([
            "2026-01-01 10:00:05", "2026-01-01 10:00:01",
            "2026-01-01 10:30:00", "2026-01-01 10:59:59",
            "2026-01-01 11:00:00",  # next window resets the budget
            "2026-01-01 10:00:30",  # other user unaffected
        ])
        df = pd.DataFrame({"event_id": [1, 2, 3, 4, 5, 6],
                           "user_id": [7, 7, 7, 7, 7, 8], "ts": ts})
        got = (rate_limit(rd.from_pandas(df).repartition(3),
                          "user_id", "ts", 2, tie_col="event_id")
               .to_pandas().sort_values("event_id"))
        # user 7 hour-10 burst: earliest two (ids 2 then 1) survive
        assert got["event_id"].tolist() == [1, 2, 5, 6]

    def test_sql_parity(self, ray_session):
        import duckdb
        import ray.data as rd

        from pdf_extract_ray.stages.windows import (
            rate_limit,
            rate_limit_oracle_sql,
        )

        rng = np.random.RandomState(3)
        df = pd.DataFrame({
            "event_id": np.arange(500),
            "user_id": rng.randint(0, 5, 500),
            "ts": pd.Timestamp("2026-01-01")
            + pd.to_timedelta(rng.randint(0, 4 * 3600, 500), unit="s"),
        })
        got = (rate_limit(rd.from_pandas(df).repartition(4),
                          "user_id", "ts", 3, tie_col="event_id")
               .to_pandas().sort_values("event_id").reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", df)
        want = (con.execute(rate_limit_oracle_sql(
                    "t", "user_id", "ts", 3, tie_col="event_id",
                    cols="event_id, user_id, ts"))
                .df().sort_values("event_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_dtype=False)


def test_out_of_order_query_sql_parity(ray_session):
    # composition audit: per-user backward-timestamp fraction — checked
    # end-to-end by the driver oracle; here a known-value fixture
    import ray.data as rd

    from pdf_extract_ray.stages.agg import grouped_aggregate
    from pdf_extract_ray.stages.windows import grouped_lag

    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5],
        "user_id": [7, 7, 7, 8, 8],
        "ts": pd.to_datetime(["2026-01-01 10:00", "2026-01-01 09:00",
                              "2026-01-01 11:00", "2026-01-01 08:00",
                              "2026-01-01 08:30"]),
    })
    lag = grouped_lag(rd.from_pandas(df).repartition(2), ["user_id"],
                      ["event_id"], "ts", out_col="prev_ts")
    out = lag.to_pandas().sort_values("event_id")
    back = (pd.to_datetime(out["prev_ts"]) > out["ts"]).fillna(False)
    assert back.tolist() == [False, True, False, False, False]


def test_grouped_minmax_scale_window_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import (
        grouped_minmax_scale,
        grouped_minmax_scale_oracle_sql,
    )

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype="int64"),
        "lang": rng.choice(["en", "de", "fr"], 200),
        "n_chars": rng.integers(0, 5000, 200).astype("int64"),
    })
    # a constant group -> NULL scaled
    df.loc[df["lang"] == "fr", "n_chars"] = 1234
    got = (grouped_minmax_scale(rd.from_pandas(df).repartition(4),
                                ["lang"], "n_chars")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_minmax_scale_oracle_sql(
                "SELECT * FROM t", ["lang"], "n_chars")).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got.loc[got["lang"] == "fr", "scaled"].isna().all()
    ok = got.loc[got["lang"] != "fr", "scaled"]
    assert ok.between(0.0, 1.0).all()


def test_grouped_hhi_known_values_and_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.agg import grouped_hhi, grouped_hhi_oracle_sql

    df = pd.DataFrame({
        "g": ["a"] * 4 + ["b"] * 4,
        "cat": ["x", "x", "x", "x", "x", "y", "x", "y"],
    })
    got = (grouped_hhi(rd.from_pandas(df).repartition(3), ["g"], "cat")
           .to_pandas().sort_values("g").reset_index(drop=True))
    # group a: one category -> 1.0; group b: 50/50 -> 0.5
    assert got["hhi"].tolist() == [1.0, 0.5]
    assert got["n_total"].tolist() == [4, 4]
    assert got["n_cats"].tolist() == [1, 2]
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(grouped_hhi_oracle_sql("SELECT * FROM t", ["g"],
                                           "cat")).df()
            .sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
