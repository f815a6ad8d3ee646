"""Corpus profile — the one-scan summary report a corpus build runs
before anything else: document counts, size totals/averages and the
script-language histogram, computed as MAP-SIDE PARTIALS in a single
fused pass over the corpus (a 100 TB profile must not scan once per
metric; the reference computes its distribution reports per run the
same single-pass way, SURVEY.md §2.5 A6).

Scale shape: one ``map_batches`` emits a ~12-row (metric, value)
partial per batch -> one tiny grouped merge -> a single-block finalize
that derives the ratio metrics.  Nothing but partial rows ever moves;
the merged table is O(metrics), not O(corpus)."""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from pdf_extract_ray.util import round_half_away

LANGS = ("ko", "zh", "ru", "en", "und")


def profile_partial(batch: pd.DataFrame,
                    text_col: str = "text") -> pd.DataFrame:
    """(metric, value) sums for one batch — all additive, so any merge
    order/topology gives identical totals."""
    from pdf_extract_ray.stages.textquality import _TOKEN_RE, lang_id_batch

    t = batch[text_col].fillna("")
    lang = lang_id_batch(batch.copy(), text_col)["lang_id"]
    rows: dict[str, float] = {
        "n_docs": float(len(batch)),
        "n_empty": float((t == "").sum()),
        "total_chars": float(t.str.len().sum()),
        "total_words": float(t.str.split().str.len().fillna(0).sum()),
        "total_tokens": float(t.str.count(_TOKEN_RE).sum()),
    }
    for code in LANGS:
        rows[f"lang_{code}"] = float((lang == code).sum())
    return pd.DataFrame({"metric": list(rows),
                         "value": np.array(list(rows.values()),
                                           dtype=np.float64)})


def corpus_profile(ds: Dataset, text_col: str = "text") -> Dataset:
    """(metric, value) rows: the additive totals above plus derived
    ``avg_chars`` / ``avg_words`` (round-half-away 4)."""
    from pdf_extract_ray.stages.agg import grouped_aggregate

    merged = grouped_aggregate(
        ds.map_batches(lambda b: profile_partial(b, text_col),
                       batch_format="pandas"),
        ["metric"], {"value": ("value", "sum")},
    ).repartition(1)  # O(metrics) rows: the finalize needs them together

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        vals = dict(zip(b["metric"], b["value"]))
        n = max(vals.get("n_docs", 0.0), 1.0)
        extra = pd.DataFrame({
            "metric": ["avg_chars", "avg_words"],
            "value": [float(round_half_away(vals.get("total_chars", 0.0)
                                            / n, 4)),
                      float(round_half_away(vals.get("total_words", 0.0)
                                            / n, 4))],
        })
        return pd.concat([b, extra], ignore_index=True)

    return merged.map_batches(finalize, batch_format="pandas")


def corpus_profile_oracle_sql(table: str = "documents",
                              text_expr: str = "coalesce(text,'')") -> str:
    """DuckDB mirror: same metrics, same v1 script-language rule, same
    whitespace-word / ASCII-token definitions as the token_stats
    oracle."""
    ws = r"[\t\n\x0b\x0c\r ]"
    trim = (f"regexp_replace({text_expr}, "
            f"'^{ws}+|{ws}+$', '', 'g')")
    words = (f"CASE WHEN {trim} = '' THEN 0 ELSE "
             f"len(regexp_split_to_array({trim}, '{ws}+')) END")
    tokens = (f"len(regexp_extract_all({text_expr}, "
              "'[A-Za-z0-9_]+|[^A-Za-z0-9_ ]'))")
    return f"""
WITH c AS (
  SELECT {text_expr} AS t, {words} AS w, {tokens} AS tok,
    length(regexp_replace({text_expr}, '[^가-힣ㄱ-ㆎ]', '', 'g')) AS h,
    length(regexp_replace({text_expr}, '[^一-鿿]', '', 'g')) AS z,
    length(regexp_replace({text_expr}, '[^Ѐ-ӿ]', '', 'g')) AS r,
    length(regexp_replace({text_expr}, '[^A-Za-z]', '', 'g')) AS l
  FROM {table}),
lc AS (
  SELECT *, CASE WHEN h=0 AND z=0 AND r=0 AND l=0 THEN 'und'
                 WHEN h>=z AND h>=r AND h>=l THEN 'ko'
                 WHEN z>=r AND z>=l THEN 'zh'
                 WHEN r>=l THEN 'ru' ELSE 'en' END AS lang FROM c)
SELECT 'n_docs' AS metric, CAST(count(*) AS DOUBLE) AS value FROM lc
UNION ALL SELECT 'n_empty', CAST(sum(CASE WHEN t='' THEN 1 ELSE 0 END)
  AS DOUBLE) FROM lc
UNION ALL SELECT 'total_chars', CAST(sum(length(t)) AS DOUBLE) FROM lc
UNION ALL SELECT 'total_words', CAST(sum(w) AS DOUBLE) FROM lc
UNION ALL SELECT 'total_tokens', CAST(sum(tok) AS DOUBLE) FROM lc
UNION ALL SELECT 'lang_ko', CAST(sum(CASE WHEN lang='ko' THEN 1 ELSE 0
  END) AS DOUBLE) FROM lc
UNION ALL SELECT 'lang_zh', CAST(sum(CASE WHEN lang='zh' THEN 1 ELSE 0
  END) AS DOUBLE) FROM lc
UNION ALL SELECT 'lang_ru', CAST(sum(CASE WHEN lang='ru' THEN 1 ELSE 0
  END) AS DOUBLE) FROM lc
UNION ALL SELECT 'lang_en', CAST(sum(CASE WHEN lang='en' THEN 1 ELSE 0
  END) AS DOUBLE) FROM lc
UNION ALL SELECT 'lang_und', CAST(sum(CASE WHEN lang='und' THEN 1 ELSE 0
  END) AS DOUBLE) FROM lc
UNION ALL SELECT 'avg_chars', round(sum(length(t)) /
  greatest(count(*), 1), 4) FROM lc
UNION ALL SELECT 'avg_words', round(sum(w) /
  greatest(count(*), 1), 4) FROM lc
"""
