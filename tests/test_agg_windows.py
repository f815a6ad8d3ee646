"""Bucketed grouped execution under key skew, grouped statistics and the
ordered self-pairing in stages/windows.py."""

import numpy as np
import pandas as pd
import pytest

from pdf_extract_ray.stages.agg import bucketed_group_apply, grouped_aggregate


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
