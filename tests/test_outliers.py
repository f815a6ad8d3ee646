"""Corpus-relative length-outlier trim (stages/outliers.py)."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from pdf_extract_ray.stages.outliers import (
    length_outlier_oracle_sql,
    length_outlier_trim,
    percentile_thresholds,
)


def test_percentile_thresholds_known_values():
    counts = {1: 10, 2: 10, 3: 80}  # N = 100, cum 10/20/100
    assert percentile_thresholds(counts, 5, 95) == (1, 3)
    assert percentile_thresholds(counts, 15, 95) == (2, 3)
    assert percentile_thresholds(counts, 0, 100) == (1, 3)
    assert percentile_thresholds(counts, 21, 21) == (3, 3)
    # ceil rank: k = ceil(100 * 10 / 100) = 10 -> still the first value
    assert percentile_thresholds(counts, 10, 95)[0] == 1
    with pytest.raises(ValueError):
        percentile_thresholds({}, 5, 95)
    with pytest.raises(ValueError):
        percentile_thresholds(counts, 60, 40)


def test_percentile_thresholds_match_sorted_rank():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 50, size=1000)
    v, c = np.unique(vals, return_counts=True)
    counts = dict(zip(v.tolist(), c.tolist()))
    s = np.sort(vals)
    for lo_p, hi_p in [(5, 95), (1, 99), (25, 75), (0, 100)]:
        lo, hi = percentile_thresholds(counts, lo_p, hi_p)
        k_lo = max(-(-len(s) * lo_p // 100), 1)
        k_hi = max(-(-len(s) * hi_p // 100), 1)
        assert lo == s[k_lo - 1] and hi == s[k_hi - 1]


def test_length_outlier_trim_dataset(ray_session):
    texts = (["w"] * 5                      # 1 word
             + ["one two three"] * 90       # 3 words
             + ["lots " * 40] * 5)          # 40 words
    df = pd.DataFrame({"doc_id": range(100), "text": texts})
    got = (length_outlier_trim(rd.from_pandas(df).repartition(4),
                               lower_pct=10, upper_pct=90)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # 10th/90th percentile both land on the 3-word block
    assert (got["n_words"] == 3).all() and len(got) == 90


def test_length_outlier_sql_parity(ray_session):
    rng = np.random.default_rng(3)
    texts = [" ".join(["tok"] * int(rng.integers(0, 30)))
             for _ in range(300)] + ["", None, "  spaced   out  "]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = (length_outlier_trim(rd.from_pandas(df).repartition(3),
                               lower_pct=5, upper_pct=95)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    import os
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from __ray_entry__ import _word_count_sql

    con = duckdb.connect()
    con.register("documents", df)
    want = (con.sql(length_outlier_oracle_sql(
        "documents", lower_pct=5, upper_pct=95,
        word_count_sql=_word_count_sql))
        .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype({"n_words": "int64"}),
        want.astype({"n_words": "int64"}))


def test_score_percentile_matches_sql_and_reference(ray_session):
    import duckdb

    import ray.data as rd

    from pdf_extract_ray.stages.outliers import (
        score_percentile,
        score_percentile_oracle_sql,
    )

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "doc_id": np.arange(400),
        "score": rng.integers(0, 50, size=400),  # heavy ties
    })
    got = (score_percentile(rd.from_pandas(df).repartition(5),
                            score_col="score")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(score_percentile_oracle_sql(
        "SELECT doc_id, score FROM t", score_col="score"))
        .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # top-10% selection via the rank column matches the sort definition
    top = set(got.loc[got["pct_rank"] >= 0.9, "doc_id"])
    n_below = (df["score"].to_numpy()[:, None]
               > df["score"].to_numpy()[None, :]).sum(1)
    expect = set(df.loc[np.round(n_below / 399, 4) >= 0.9, "doc_id"])
    assert top == expect


def test_score_percentile_single_row_and_constant(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.outliers import score_percentile

    one = score_percentile(
        rd.from_pandas(pd.DataFrame({"doc_id": [7], "score": [3]})),
        score_col="score").to_pandas()
    assert one["pct_rank"].tolist() == [0.0]
    const = score_percentile(
        rd.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3],
                                     "score": [5, 5, 5]})),
        score_col="score").to_pandas()
    assert const["pct_rank"].tolist() == [0.0, 0.0, 0.0]


def test_winsorize_values_clips_at_exact_percentiles(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.outliers import (
        winsorize_oracle_sql,
        winsorize_values,
    )

    rng = np.random.default_rng(13)
    vals = np.concatenate([rng.integers(100, 200, 180),
                           [1, 2, 3], [9999, 8888]]).astype("int64")
    df = pd.DataFrame({"doc_id": np.arange(len(vals), dtype="int64"),
                       "n_chars": vals})
    got = (winsorize_values(rd.from_pandas(df).repartition(4),
                            value_col="n_chars")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # the planted tails are clipped, the bulk untouched
    assert got.loc[got["n_chars"] >= 9999 - 1, "was_clipped"].all()
    assert got.loc[got["n_chars"] <= 3, "was_clipped"].all()
    assert (got["clipped"].to_numpy() >= got["clipped"].min()).all()
    # winsorizing never drops rows
    assert len(got) == len(df)
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(winsorize_oracle_sql("SELECT * FROM t",
                                         value_col="n_chars")).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
