"""Mergeable sketches (stages/sketch.py: count-min, Bloom) and the
corpus-statistics fits (token coverage, Zipf,
Heaps): exact agreement between the distributed plans and their
single-process or SQL references."""

import numpy as np
import pandas as pd


# --- count-min sketch ---


def test_cms_guarantees_and_merge_determinism(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.sketch import (cms_estimate,
                                               cms_from_values, cms_sketch)

    rng = np.random.default_rng(13)
    # zipf-ish: few heavy values + a long tail
    vals = (["heavy"] * 5000 + ["medium"] * 500
            + [f"tail{i}" for i in rng.integers(0, 50000, size=20000)])
    s = pd.Series(vals)
    single = cms_from_values(s)
    dist = cms_sketch(
        rd.from_pandas(pd.DataFrame({"v": vals})).repartition(7), "v")
    assert (single == dist).all()  # merge is vector addition: exact

    probe = pd.Series(["heavy", "medium", "absent-value"])
    est = cms_estimate(dist, probe)
    true = np.array([5000, 500, 0])
    assert (est >= true).all()                      # never underestimates
    assert (est - true <= 0.01 * len(vals)).all()   # eps*N bound (w=2048)


# ---------------------------------------------------------------------------
# Bloom filter (set-membership sketch)
# ---------------------------------------------------------------------------

def test_bloom_no_false_negatives_and_fp_bound():
    import numpy as np
    import pandas as pd

    from pdf_extract_ray.stages.sketch import (
        bloom_contains,
        bloom_from_values,
    )

    keys = pd.Series([f"http://h{i}.example/p/{i}" for i in range(100_000)])
    w = bloom_from_values(keys)
    assert bloom_contains(w, keys).all()          # never a false negative
    absent = pd.Series([f"http://absent{i}.example/x"
                        for i in range(100_000)])
    fp = bloom_contains(w, absent).mean()
    # k=7, 2^20 bits, 1e5 keys -> theoretical ~0.6%; assert a safe bound
    assert fp < 0.02, fp
    fill = np.unpackbits(w.view(np.uint8)).mean()
    assert 0.3 < fill < 0.6  # the theory-predicted fill factor


def test_bloom_merge_is_topology_independent():
    import numpy as np
    import pandas as pd

    from pdf_extract_ray.stages.sketch import bloom_from_values

    keys = pd.Series([f"k{i}" for i in range(10_000)])
    whole = bloom_from_values(keys)
    acc = np.zeros_like(whole)
    for lo in range(0, 10_000, 777):             # uneven batch boundaries
        acc |= bloom_from_values(keys[lo:lo + 777])
    assert np.array_equal(whole, acc)


def test_bloom_distributed_equals_single_process(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.sketch import bloom_from_values, bloom_sketch

    keys = pd.Series([f"url{i}" for i in range(5_000)])
    dist = bloom_sketch(
        rd.from_pandas(pd.DataFrame({"u": keys})).repartition(7), "u")
    assert np.array_equal(dist, bloom_from_values(keys))


def test_bloom_empty_and_null_values(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.sketch import bloom_contains, bloom_sketch

    w = bloom_sketch(rd.from_pandas(
        pd.DataFrame({"u": [None, "a", None]})), "u")
    assert bloom_contains(w, pd.Series(["a"]))[0]
    assert not bloom_contains(w, pd.Series(["b"]))[0]


def test_token_coverage_sql_parity_and_total(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.textquality import (
        token_coverage,
        token_coverage_oracle_sql,
    )

    rng = np.random.default_rng(31)
    vocab = ["alpha", "beta", "gamma", "delta", "x1", "y2"]
    probs = np.array([0.4, 0.25, 0.15, 0.1, 0.07, 0.03])
    docs = pd.DataFrame({
        "doc_id": np.arange(80, dtype="int64"),
        "text": [" ".join(rng.choice(vocab, size=rng.integers(0, 25),
                                     p=probs)) for _ in range(80)],
    })
    got = token_coverage(rd.from_pandas(docs).repartition(4), top_k=4)
    con = duckdb.connect()
    con.register("documents", docs)
    want = (con.sql(token_coverage_oracle_sql(top_k=4)).df()
            .sort_values("rank").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False)
    # with top_k >= vocab the curve ends at exactly 1
    full = token_coverage(rd.from_pandas(docs), top_k=100)
    assert full["cum_share"].iloc[-1] == 1.0
    # monotone non-decreasing counts ordering
    assert (np.diff(full["n"].to_numpy()) <= 0).all()


def test_zipf_fit_sql_parity_and_known_slope(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.textquality import (
        zipf_fit,
        zipf_fit_oracle_sql,
    )

    # exact power law: word w{r} occurs 1024 >> (r-1) times -> counts
    # 1024, 512, 256, ... halve each rank, so ln(n) on ln(rank) is NOT
    # a perfect line, but a seeded random corpus checks SQL parity and
    # a frozen dyadic one checks the slope sign/range.
    words = [f"w{r}" for r in range(1, 9)]
    body = " ".join(
        " ".join([w] * (1024 >> (r - 1))) for r, w in enumerate(words, 1))
    docs = pd.DataFrame({"doc_id": [0], "text": [body]})
    got = zipf_fit(rd.from_pandas(docs).repartition(2), top_k=8)
    assert got["n_words"].iloc[0] == 8
    # counts halve per rank (exponential in rank), so the log-log fit
    # is steeper than the natural-text ~-1
    assert -3.0 < got["slope"].iloc[0] < -1.5

    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(30)]
    p = 1.0 / np.arange(1, 31)
    p /= p.sum()
    rnd = pd.DataFrame({
        "doc_id": np.arange(60, dtype="int64"),
        "text": [" ".join(rng.choice(vocab, size=rng.integers(0, 40),
                                     p=p)) for _ in range(60)],
    })
    for frame, k in ((docs, 8), (rnd, 20)):
        eng = zipf_fit(rd.from_pandas(frame).repartition(3), top_k=k)
        con = duckdb.connect()
        con.register("documents", frame)
        sql = con.sql(zipf_fit_oracle_sql(top_k=k)).df()
        pd.testing.assert_frame_equal(
            eng.reset_index(drop=True), sql, check_dtype=False)
    # degenerate: empty corpus -> NULL fit
    empty = pd.DataFrame({"doc_id": [0], "text": [""]})
    e = zipf_fit(rd.from_pandas(empty), top_k=5)
    assert e["n_words"].iloc[0] == 0 and pd.isna(e["slope"].iloc[0])


def test_knn_join_within_cell_exact(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.similarity import knn_join

    # two well-separated blobs -> two cells; within-blob neighbors exact
    rng = np.random.RandomState(2)
    a = rng.normal(0, 0.05, (20, 8)) + np.r_[[1.0] + [0.0] * 7]
    b = rng.normal(0, 0.05, (20, 8)) + np.r_[[0.0] * 7 + [1.0]]
    df = pd.DataFrame({
        "vec_id": np.arange(40),
        "embedding": [v.astype("float32") for v in np.vstack([a, b])],
    })
    got = (knn_join(rd.from_pandas(df).repartition(4), k=2, n_cells=2,
                    sample_n=40)
           .to_pandas())
    # every vector got exactly 2 neighbors, neighbors stay in-blob
    assert (got.groupby("vec_id").size() == 2).all()
    same_blob = (got["vec_id"] < 20) == (got["neighbor_id"] < 20)
    assert same_blob.all()
    assert (got["neighbor_id"] != got["vec_id"]).all()
    # brute-force check for one vector: ranks ordered by cosine desc
    g0 = got[got["vec_id"] == 0].sort_values("rank")
    assert g0["cosine"].is_monotonic_decreasing or len(g0) < 2


def test_heaps_fit_growth_curve_and_sql_parity(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.textquality import (
        heaps_fit,
        heaps_fit_oracle_sql,
    )

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(400)]
    docs = pd.DataFrame({
        "doc_id": np.arange(120, dtype="int64"),
        "text": [" ".join(rng.choice(vocab,
                                     size=rng.integers(5, 40)))
                 for _ in range(120)],
    })
    for parts in (1, 5):
        got = (heaps_fit(rd.from_pandas(docs).repartition(parts))
               .sort_values("ckpt").reset_index(drop=True))
        # curve is monotone in both tokens and vocabulary
        assert (np.diff(got["n_tokens"].to_numpy()) >= 0).all()
        assert (np.diff(got["vocab"].to_numpy()) >= 0).all()
        # natural growth: 0 < beta < 1 for a sampled zipf-free vocab
        assert 0.0 < got["beta"].iloc[0] < 1.0
        con = duckdb.connect()
        con.register("documents", docs)
        want = (con.sql(heaps_fit_oracle_sql()).df()
                .sort_values("ckpt").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # last checkpoint covers the whole corpus
    total_tokens = docs["text"].str.split().str.len().sum()
    assert got["n_tokens"].iloc[-1] == total_tokens


def test_heaps_fit_zero_row_block(ray_session):
    """A zero-row block contributes no id-range partial: the fit equals
    the fit of the same rows without it."""
    import ray.data as rd

    from pdf_extract_ray.stages.textquality import _id_range, heaps_fit

    empty = _id_range(pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                    "text": []}), "doc_id")
    assert len(empty) == 0 and list(empty.dtypes) == ["int64", "int64"]

    docs = pd.DataFrame({
        "doc_id": np.arange(30, dtype="int64"),
        "text": [f"w{i % 7} w{i % 11} w{i}" for i in range(30)],
    })
    with_empty = rd.from_pandas([docs.iloc[:15], docs.iloc[:0],
                                 docs.iloc[15:]])
    assert with_empty.num_blocks() == 3
    pd.testing.assert_frame_equal(heaps_fit(with_empty),
                                  heaps_fit(rd.from_pandas(docs)))
