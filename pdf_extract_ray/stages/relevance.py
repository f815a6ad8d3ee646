"""Corpus-relevance scoring (TF-IDF / Okapi BM25) against a small query
term set — the retrieval-style scoring a training-data pipeline uses to
mine topical documents out of a web crawl.

Scale shape (the part that matters at 100 TB):

* Phase A (corpus statistics) is a narrow ``map_batches`` emitting ONE
  tiny partial row per block (N docs, total token length, per-term
  document frequencies) — the only materialization is #blocks rows of
  scalars on the driver.  No shuffle.
* The per-term IDF table is tiny (|query terms| floats) and travels to
  phase B inside the closure — broadcast once, never re-shipped per row.
* Phase B scores each batch independently.  No shuffle anywhere.

Tokenization is frozen as regex ``[a-z0-9]+`` over lowercased text and a
term's tf is the count of ``\\b<term>\\b`` matches — both expressible
verbatim in DuckDB (``regexp_extract_all``), so the driver oracle checks
the whole pipeline including the IDF math (floats rounded to 4 digits on
both sides, the repo's oracle convention).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
from ray.data import Dataset

from pdf_extract_ray.util import round_half_away

_WORD = r"[a-z0-9]+"


def _term_pattern(term: str) -> str:
    return rf"\b{re.escape(term.lower())}\b"


def corpus_stats(ds: Dataset, terms: list[str],
                 text_col: str = "text") -> dict:
    """{"n_docs", "avgdl", "df": {term: df}} via per-block scalar
    partials (bounded driver materialization: one row per block)."""
    terms = [t.lower() for t in terms]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        low = batch[text_col].fillna("").str.lower()
        row = {
            "n_docs": len(batch),
            "len_sum": int(low.str.count(_WORD).sum()),
        }
        for i, t in enumerate(terms):
            row[f"df_{i}"] = int((low.str.count(_term_pattern(t)) > 0).sum())
        return pd.DataFrame([row])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n_docs"].sum())
    return {
        "n_docs": n,
        "avgdl": float(parts["len_sum"].sum()) / n if n else 0.0,
        "df": {t: int(parts[f"df_{i}"].sum()) for i, t in enumerate(terms)},
    }


def bm25_idf(n_docs: int, df: int) -> float:
    """Okapi BM25 IDF with the +1 shift (never negative for df > n/2)."""
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def bm25_scores(ds: Dataset, terms: list[str], *,
                id_cols: tuple[str, ...] = ("doc_id",),
                text_col: str = "text",
                k1: float = 1.2, b: float = 0.75,
                ndigits: int = 4) -> Dataset:
    """Per-document BM25 score for ``terms``: id columns + ``dl`` (token
    count) + ``bm25``.  Two narrow passes, zero shuffles."""
    terms = [t.lower() for t in terms]
    stats = corpus_stats(ds, terms, text_col)
    n, avgdl = stats["n_docs"], stats["avgdl"]
    idf = {t: bm25_idf(n, stats["df"][t]) for t in terms}

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        low = batch[text_col].fillna("").str.lower()
        dl = low.str.count(_WORD).to_numpy(dtype=np.float64)
        total = np.zeros(len(batch))
        norm = k1 * (1.0 - b + b * dl / avgdl) if avgdl else k1
        for t in terms:
            tf = low.str.count(_term_pattern(t)).to_numpy(dtype=np.float64)
            total += idf[t] * tf * (k1 + 1.0) / (tf + norm)
        out = batch[list(id_cols)].copy()
        out["dl"] = dl.astype(np.int64)
        out["bm25"] = round_half_away(total, ndigits)
        return out

    return ds.map_batches(score, batch_format="pandas")


def tfidf_scores(ds: Dataset, terms: list[str], *,
                 id_cols: tuple[str, ...] = ("doc_id",),
                 text_col: str = "text", ndigits: int = 4) -> Dataset:
    """Classic tf-idf (tf * ln(N/df), df-smoothed by +1) for ``terms``;
    same two-pass zero-shuffle shape as :func:`bm25_scores`."""
    terms = [t.lower() for t in terms]
    stats = corpus_stats(ds, terms, text_col)
    n = stats["n_docs"]
    idf = {t: math.log(n / (stats["df"][t] + 1.0)) for t in terms}

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        low = batch[text_col].fillna("").str.lower()
        total = np.zeros(len(batch))
        for t in terms:
            tf = low.str.count(_term_pattern(t)).to_numpy(dtype=np.float64)
            total += tf * idf[t]
        out = batch[list(id_cols)].copy()
        out["tfidf"] = round_half_away(total, ndigits)
        return out

    return ds.map_batches(score, batch_format="pandas")


def tfidf_oracle_sql(table: str, terms: list[str], *,
                     id_cols: str = "doc_id", text_col: str = "text",
                     ndigits: int = 4) -> str:
    """DuckDB SQL computing exactly :func:`tfidf_scores`."""
    terms = [t.lower() for t in terms]
    tf_cols = ", ".join(
        f"len(regexp_extract_all(low, e'\\\\b{re.escape(t)}\\\\b')) AS tf_{i}"
        for i, t in enumerate(terms))
    df_cols = ", ".join(
        f"sum(CASE WHEN tf_{i} > 0 THEN 1 ELSE 0 END) AS df_{i}"
        for i in range(len(terms)))
    score_terms = " + ".join(
        f"s.tf_{i} * ln(c.n / (c.df_{i} + 1.0))"
        for i in range(len(terms)))
    return f"""
WITH docs AS (
  SELECT {id_cols}, lower(coalesce({text_col}, '')) AS low FROM {table}
), s AS (
  SELECT {id_cols}, {tf_cols} FROM docs
), c AS (
  SELECT count(*) AS n, {df_cols} FROM s
)
SELECT s.{id_cols}, round({score_terms}, {ndigits}) AS tfidf FROM s, c
"""


def bm25_oracle_sql(table: str, terms: list[str], *,
                    id_cols: str = "doc_id", text_col: str = "text",
                    k1: float = 1.2, b: float = 0.75,
                    ndigits: int = 4) -> str:
    """DuckDB SQL computing exactly :func:`bm25_scores` (same
    tokenization, same idf formula, same expression shape, same
    rounding)."""
    terms = [t.lower() for t in terms]
    tf_cols = ", ".join(
        f"len(regexp_extract_all(low, e'\\\\b{re.escape(t)}\\\\b')) AS tf_{i}"
        for i, t in enumerate(terms))
    df_cols = ", ".join(
        f"sum(CASE WHEN tf_{i} > 0 THEN 1 ELSE 0 END) AS df_{i}"
        for i in range(len(terms)))
    score_terms = " + ".join(
        f"ln((c.n - c.df_{i} + 0.5) / (c.df_{i} + 0.5) + 1.0)"
        f" * s.tf_{i} * ({k1} + 1.0)"
        f" / (s.tf_{i} + {k1} * (1.0 - {b} + {b} * s.dl / c.avgdl))"
        for i in range(len(terms)))
    return f"""
WITH docs AS (
  SELECT {id_cols}, lower(coalesce({text_col}, '')) AS low FROM {table}
), s AS (
  SELECT {id_cols},
         len(regexp_extract_all(low, '[a-z0-9]+')) AS dl,
         {tf_cols}
  FROM docs
), c AS (
  SELECT count(*) AS n,
         sum(dl)::DOUBLE / count(*) AS avgdl,
         {df_cols}
  FROM s
)
SELECT s.{id_cols}, s.dl,
       round({score_terms}, {ndigits}) AS bm25
FROM s, c
"""


def term_postings(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    max_df: int | None = None,
    num_buckets: int | None = None,
) -> Dataset:
    """Inverted-index postings: ``(word, df, postings)`` where postings
    is the comma-joined ascending doc-id list — the IR-side index build
    over a crawl corpus.

    Frozen rules: words are ``[a-z0-9]+`` runs over lowercased text,
    DEDUPLICATED per document (presence, not term frequency); doc ids
    sort ascending numerically; ``max_df`` DROPS terms present in more
    than that many documents (the stop-term/posting-explosion guard —
    same capped-bucket discipline as minhash's max_band_freq).

    Scale shape: the narrow explode emits per-doc-deduped (word, id)
    rows only — texts never shuffle; ONE bucketed merge builds each
    term's postings, and hot stop-terms are dropped by the cap instead
    of materializing unbounded lists.
    """
    import re as _re

    from pdf_extract_ray.stages.agg import bucketed_group_apply

    word_re = _re.compile(r"[a-z0-9]+")

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        words: list[str] = []
        for i, t in zip(b[id_col], b[text_col].fillna("")):
            for w in set(word_re.findall(t.lower())):
                ids.append(i)
                words.append(w)
        return pd.DataFrame({"word": words, id_col: ids})

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["word", id_col], kind="mergesort")
        agg = g.groupby("word", sort=False)[id_col].agg(
            df="size",
            postings=lambda s: ",".join(str(v) for v in s))
        agg = agg.reset_index()
        agg["df"] = agg["df"].astype("int64")
        if max_df is not None:
            agg = agg[agg["df"] <= max_df]
        return agg[["word", "df", "postings"]]

    return bucketed_group_apply(
        ds.map_batches(explode, batch_format="pandas"), ["word"], body,
        num_buckets=num_buckets)


def pmi_terms(
    ds: Dataset,
    group_col: str,
    *,
    text_col: str = "text",
    min_count: int = 5,
    top_k: int = 20,
    num_buckets: int | None = None,
) -> Dataset:
    """Distinctive terms per group by pointwise mutual information —
    ``pmi(g, w) = ln(c_gw * N / (c_w * c_g))`` over the frozen
    ``[a-z0-9]+`` tokenization: the "which words characterize this
    language/source/host" report behind corpus-mix debugging.

    Scale shape: per-batch ``(group, word, count)`` partials (raw text
    never shuffles), ONE bucketed merge keyed by word (each word's rows
    co-locate, so ``c_w`` is an in-bucket transform-sum); the per-group
    totals and ``N`` come from a tiny grouped aggregate materialized on
    the driver (O(groups) rows — comment-bounded) and broadcast in the
    closure.  Final per-group top-k reuses the pre-trimmed
    :func:`~pdf_extract_ray.stages.agg.grouped_top_k`.

    PMI is rounded half-away to 6 digits on BOTH sides (engine and SQL
    oracle) before ranking, so the top-k selection is deterministic and
    oracle-stable: counts are exact int64, every product stays under
    2^53, and the single ``ln`` is the only non-exact op.  Output:
    ``(group_col, word, n, pmi)`` with ``n = c_gw >= min_count``.
    """
    from pdf_extract_ray.stages.agg import (
        bucketed_group_apply,
        grouped_aggregate,
        grouped_top_k,
    )

    word_re = re.compile(_WORD)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        groups, words = [], []
        for g, t in zip(b[group_col].tolist(),
                        b[text_col].fillna("").str.lower().tolist()):
            ws = word_re.findall(t)
            groups.extend([g] * len(ws))
            words.extend(ws)
        f = pd.DataFrame({group_col: groups, "word": words})
        return (f.groupby([group_col, "word"], as_index=False).size()
                .rename(columns={"size": "n"}))

    partials = ds.map_batches(partial, batch_format="pandas")

    # tiny side: per-group token totals + grand total (O(groups) rows)
    gt = grouped_aggregate(partials, [group_col],
                           {"c_g": ("n", "sum")},
                           num_buckets=num_buckets).to_pandas()
    c_g = dict(zip(gt[group_col], gt["c_g"].astype(np.int64)))
    n_total = int(gt["c_g"].sum())

    def per_word_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby([group_col, "word"], as_index=False)["n"].sum()
        c_w = g.groupby("word")["n"].transform("sum").to_numpy(np.int64)
        g = g[g["n"] >= min_count].copy()
        if not len(g):
            return pd.DataFrame({group_col: pd.Series([], dtype=object),
                                 "word": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64),
                                 "pmi": pd.Series([], dtype=np.float64)})
        cw = c_w[g.index.to_numpy()]
        cgw = g["n"].to_numpy(np.int64)
        cg = np.array([c_g[x] for x in g[group_col]], dtype=np.int64)
        pmi = np.log(cgw.astype(np.float64) * n_total
                     / (cw.astype(np.float64) * cg))
        g["pmi"] = round_half_away(pmi, 6)
        return g

    scored = bucketed_group_apply(partials, ["word"], per_word_bucket,
                                  num_buckets=num_buckets)
    return grouped_top_k(scored, [group_col], "pmi", top_k,
                         tie_col="word", num_buckets=num_buckets)


def pmi_terms_oracle_sql(
    table_sql: str,
    group_col: str,
    *,
    text_col: str = "text",
    min_count: int = 5,
    top_k: int = 20,
) -> str:
    """DuckDB mirror of :func:`pmi_terms` (identical float expression,
    both sides round to 6 before ranking)."""
    g = group_col
    return f"""
WITH w AS (SELECT {g}, unnest(regexp_extract_all(
             lower(coalesce({text_col}, '')), '{_WORD}')) AS word
           FROM ({table_sql})),
gw AS (SELECT {g}, word, CAST(count(*) AS BIGINT) AS n
       FROM w GROUP BY 1, 2),
wt AS (SELECT word, CAST(sum(n) AS BIGINT) AS c_w FROM gw GROUP BY 1),
gt AS (SELECT {g}, CAST(sum(n) AS BIGINT) AS c_g FROM gw GROUP BY 1),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS n_total FROM gw),
p AS (SELECT {g}, word, n,
             round(ln(CAST(n AS DOUBLE) * n_total
                      / (CAST(c_w AS DOUBLE) * c_g)), 6) AS pmi
      FROM gw JOIN wt USING (word) JOIN gt USING ({g}) CROSS JOIN tot
      WHERE n >= {min_count})
SELECT * EXCLUDE (__rn) FROM (
  SELECT *, row_number() OVER (PARTITION BY {g}
             ORDER BY pmi DESC, word) AS __rn FROM p)
WHERE __rn <= {top_k}
"""


def doc_keywords(ds: Dataset, *, id_col: str = "doc_id",
                 text_col: str = "text", k: int = 3, min_df: int = 1,
                 ndigits: int = 4) -> Dataset:
    """Per-document top-``k`` TF-IDF keywords over the FULL corpus
    vocabulary (not a fixed query set like :func:`tfidf_scores`) — the
    keyword-extraction / topic-labeling pass of a curation pipeline.

    Frozen rules: tokens = ``[a-z0-9]+`` over lowercased text; idf =
    ``ln(n_docs / (df + 1))`` (same smoothing as :func:`tfidf_scores`);
    rank = row_number ordered by (score DESC, word ASC); words with
    ``df < min_df`` are excluded BEFORE ranking.

    Scale shape: phase A builds the (word, df) table with per-batch
    distinct-word value_counts partials -> ONE grouped merge; the table
    is vocabulary-bounded (raise ``min_df`` at crawl scale to cap it)
    and broadcast ONCE via ``ray.put``.  Phase B re-tokenizes each
    batch and ranks in-batch (each document's rows live in its own
    row), so no second shuffle — bodies never move.
    """
    import ray as _ray

    from pdf_extract_ray.stages.agg import grouped_aggregate

    n_docs = ds.count()

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        low = b[text_col].fillna("").astype(str).str.lower()
        ex = low.str.findall(_WORD).explode().dropna()
        pairs = pd.DataFrame({"__i": ex.index, "word": ex.to_numpy()})
        vc = (pairs.drop_duplicates().groupby("word", as_index=False)
              .size().rename(columns={"size": "df"}))
        vc["df"] = vc["df"].astype("int64")
        return vc

    df_tab = grouped_aggregate(
        ds.map_batches(df_partial, batch_format="pandas"),
        ["word"], {"df": ("df", "sum")}).to_pandas()
    df_ref = _ray.put(pd.Series(df_tab["df"].to_numpy(np.int64),
                                index=df_tab["word"]))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dfs = _ray.get(df_ref)
        b = b.reset_index(drop=True)
        low = b[text_col].fillna("").astype(str).str.lower()
        ex = low.str.findall(_WORD).explode().dropna()
        flat = pd.DataFrame({"__i": ex.index, "word": ex.to_numpy()})
        tf = (flat.groupby(["__i", "word"], as_index=False)
              .size().rename(columns={"size": "tf"}))
        wdf = dfs.reindex(tf["word"]).to_numpy(np.float64)
        tf = tf[wdf >= min_df]
        wdf = wdf[wdf >= min_df]
        sc = tf["tf"].to_numpy(np.float64) * np.log(
            float(n_docs) / (wdf + 1.0))
        tf = tf.assign(score=sc, df=wdf.astype(np.int64))
        tf = tf.sort_values(["__i", "score", "word"],
                            ascending=[True, False, True],
                            kind="mergesort")
        tf["kw_rank"] = tf.groupby("__i").cumcount() + 1
        tf = tf[tf["kw_rank"] <= k]
        out = pd.DataFrame({
            id_col: b[id_col].to_numpy()[tf["__i"].to_numpy()],
            "kw_rank": tf["kw_rank"].to_numpy(np.int64),
            "word": tf["word"].to_numpy(),
            "tf": tf["tf"].to_numpy(np.int64),
            "df": tf["df"].to_numpy(np.int64),
            "score": round_half_away(tf["score"].to_numpy(), ndigits),
        })
        return out

    return ds.map_batches(score, batch_format="pandas")


def doc_keywords_oracle_sql(table: str, *, id_col: str = "doc_id",
                            text_col: str = "text", k: int = 3,
                            min_df: int = 1, ndigits: int = 4) -> str:
    """DuckDB mirror of :func:`doc_keywords` (same tokenization,
    smoothing, tie rule and rounding)."""
    return f"""
WITH __kw_t AS (
  SELECT {id_col}, lower(coalesce({text_col}, '')) AS low FROM {table}
), __kw_w AS (
  SELECT {id_col}, unnest(regexp_extract_all(low, '[a-z0-9]+')) AS word
  FROM __kw_t
), __kw_tf AS (
  SELECT {id_col}, word, CAST(count(*) AS BIGINT) AS tf
  FROM __kw_w GROUP BY {id_col}, word
), __kw_df AS (
  SELECT word, CAST(count(*) AS BIGINT) AS df
  FROM (SELECT DISTINCT {id_col}, word FROM __kw_w) GROUP BY word
), __kw_n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM {table}),
__kw_s AS (
  SELECT t.{id_col}, t.word, t.tf, d.df,
         CAST(t.tf AS DOUBLE) * ln(n / (CAST(d.df AS DOUBLE) + 1.0))
           AS score
  FROM __kw_tf t JOIN __kw_df d USING (word), __kw_n
  WHERE d.df >= {min_df}
), __kw_r AS (
  SELECT *, row_number() OVER (PARTITION BY {id_col}
                               ORDER BY score DESC, word) AS kw_rank
  FROM __kw_s
)
SELECT {id_col}, CAST(kw_rank AS BIGINT) AS kw_rank, word, tf, df,
       round(score, {ndigits}) AS score
FROM __kw_r WHERE kw_rank <= {k}
"""


def unigram_js_drift(
    ds: Dataset,
    snap_col: str,
    *,
    text_col: str = "text",
    min_count: int = 5,
    num_buckets: int | None = None,
) -> Dataset:
    """Per-word Jensen-Shannon drift terms between two corpus slices:
    "which words moved between crawl A and crawl B / source A and
    source B".
    ``snap_col`` must be 0/1 integers (A = 0, B = 1).

    Per word, with exact int64 counts ``n_a``/``n_b`` and slice token
    totals ``N_a``/``N_b``::

        p = n_a / N_a            q = n_b / N_b          m = (p + q) / 2
        js_term = 0.5 * p * ln(p / m) + 0.5 * q * ln(q / m)

    (a zero-count side contributes 0 to its half — the JS convention
    ``0 ln 0 = 0`` — so one-sided words are finite, unlike KL/PSI).
    The per-word term is rounded to 6 digits on BOTH sides, the repo's
    libm-ulp convention; total JS divergence = sum of terms, left to
    the reader (a float sum over the vocabulary is order-sensitive).

    Scale shape: per-batch ``(snap, word, n)`` partials — raw text
    never shuffles — then ONE bucketed merge keyed by word (each
    word's two slice counts co-locate, so the pivot is in-bucket);
    the two slice totals are a 2-row grouped aggregate broadcast in
    the closure.  Output: ``(word, n_a, n_b, js_term)`` for words with
    ``n_a + n_b >= min_count``.
    """
    from pdf_extract_ray.stages.agg import (
        bucketed_group_apply, grouped_aggregate)

    word_re = re.compile(_WORD)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        snaps, words = [], []
        for s, t in zip(b[snap_col].tolist(),
                        b[text_col].fillna("").str.lower().tolist()):
            ws = word_re.findall(t)
            snaps.extend([int(s)] * len(ws))
            words.extend(ws)
        f = pd.DataFrame({"snap": pd.Series(snaps, dtype=np.int64),
                          "word": pd.Series(words, dtype=object)})
        return (f.groupby(["snap", "word"], as_index=False).size()
                .rename(columns={"size": "n"}))

    partials = ds.map_batches(partial, batch_format="pandas")

    tot = grouped_aggregate(partials, ["snap"], {"n": ("n", "sum")},
                            num_buckets=num_buckets).to_pandas()
    totals = dict(zip(tot["snap"].astype(int), tot["n"].astype(np.int64)))
    na_tot = float(totals.get(0, 0))
    nb_tot = float(totals.get(1, 0))

    def per_word_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["word", "snap"], as_index=False)["n"].sum()
        wide = g.pivot_table(index="word", columns="snap", values="n",
                             aggfunc="first", fill_value=0)
        na = (wide[0] if 0 in wide.columns
              else pd.Series(0, index=wide.index)).to_numpy(np.int64)
        nb = (wide[1] if 1 in wide.columns
              else pd.Series(0, index=wide.index)).to_numpy(np.int64)
        keep = (na + nb) >= min_count
        na, nb = na[keep], nb[keep]
        words = wide.index.to_numpy()[keep]
        p = na / na_tot
        q = nb / nb_tot
        m = (p + q) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.where(na > 0, p * np.log(
                np.where(na > 0, p, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
            tb = np.where(nb > 0, q * np.log(
                np.where(nb > 0, q, 1.0) / np.where(m > 0, m, 1.0)), 0.0)
        js = round_half_away(0.5 * ta + 0.5 * tb, 6)
        return pd.DataFrame({
            "word": words,
            "n_a": na, "n_b": nb,
            "js_term": js.astype(np.float64),
        })

    return bucketed_group_apply(partials, ["word"], per_word_bucket,
                                num_buckets=num_buckets,
                                pre_batch_size=16384)


def unigram_js_drift_oracle_sql(
    table_sql: str,
    snap_expr: str,
    *,
    text_col: str = "text",
    min_count: int = 5,
) -> str:
    """DuckDB mirror of :func:`unigram_js_drift` (identical float
    expression tree; round-6 absorbs libm ``ln`` last-ulp noise)."""
    return f"""
WITH __js_w AS (SELECT {snap_expr} AS snap, unnest(regexp_extract_all(
                  lower(coalesce({text_col}, '')), '{_WORD}')) AS word
                FROM ({table_sql})),
__js_c AS (SELECT word, snap, count(*) AS n FROM __js_w GROUP BY 1, 2),
__js_p AS (SELECT word,
       coalesce(max(CASE WHEN snap = 0 THEN n END), 0) AS n_a,
       coalesce(max(CASE WHEN snap = 1 THEN n END), 0) AS n_b
       FROM __js_c GROUP BY word),
__js_tot AS (SELECT CAST(sum(n_a) AS DOUBLE) AS na_tot,
                    CAST(sum(n_b) AS DOUBLE) AS nb_tot FROM __js_p)
SELECT word, CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
  round(
    0.5 * (CASE WHEN n_a > 0 THEN (n_a / na_tot)
           * ln((n_a / na_tot)
                / ((n_a / na_tot + n_b / nb_tot) / 2)) ELSE 0 END)
  + 0.5 * (CASE WHEN n_b > 0 THEN (n_b / nb_tot)
           * ln((n_b / nb_tot)
                / ((n_a / na_tot + n_b / nb_tot) / 2)) ELSE 0 END),
  6) AS js_term
FROM __js_p, __js_tot
WHERE n_a + n_b >= {min_count}
"""


def collocations(
    ds: Dataset,
    *,
    text_col: str = "text",
    min_count: int = 5,
    top_k: int = 50,
    num_buckets: int | None = None,
) -> Dataset:
    """Collocation mining: top-``k`` adjacent word bigrams ranked by
    pointwise mutual information — the classic "new york" / multi-word-
    expression detector (Church & Hanks 1990, public paper), used to
    build tokenizer merge seeds and boilerplate phrase lists.

    Frozen semantics: tokens = ``[a-z0-9]+`` over lowercased text;
    bigrams are adjacent pairs WITHIN a document; with exact int64
    counts ``c12`` (bigram), ``c1``/``c2`` (unigram), ``N`` (total
    unigrams) and ``B`` (total bigrams)::

        pmi = ln( c12 · N · N / (B · c1 · c2) )   -- == ln(P12 / P1·P2)

    computed in double with the SAME association order in SQL, rounded
    to 6 (the libm-ulp convention); output rows ordered by
    ``(pmi DESC, w1, w2)``, ``row_number``-style cut at ``top_k``.

    Scale shape — the vocabulary NEVER materializes on the driver
    (unlike the per-group totals of :func:`pmi_terms`, a web-scale
    vocab is 10^7+ rows): per-batch unigram and bigram count partials
    stream out of one text scan; attaching ``c1`` is a tag-union-bucket
    cogroup keyed by ``w1`` (each word's unigram rows co-locate with
    the bigrams that start with it, so the unigram total is an
    in-bucket sum); attaching ``c2`` repeats the same shape keyed by
    ``w2``.  Two narrow bucketed exchanges over count rows; the two
    grand totals are single-scalar driver aggregates; the final top-k
    is a sort+limit over the min_count-trimmed table.
    """
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    word_re = re.compile(_WORD)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        uni: dict[str, int] = {}
        big: dict[tuple, int] = {}
        for t in b[text_col].fillna("").str.lower().tolist():
            ws = word_re.findall(t)
            for w in ws:
                uni[w] = uni.get(w, 0) + 1
            for a, c in zip(ws, ws[1:]):
                big[(a, c)] = big.get((a, c), 0) + 1
        # w2 == "" marks a unigram-count row (tokens are [a-z0-9]+, so
        # the empty string cannot collide with a real word; an all-None
        # object column would become Arrow null type and break union)
        u = pd.DataFrame({"w1": list(uni), "w2": "",
                          "n": pd.Series(list(uni.values()),
                                         dtype=np.int64)})
        bg = pd.DataFrame({"w1": [k[0] for k in big],
                           "w2": [k[1] for k in big],
                           "n": pd.Series(list(big.values()),
                                          dtype=np.int64)})
        return pd.concat([u, bg], ignore_index=True)

    counts = ds.map_batches(partial, batch_format="pandas").materialize()

    # grand totals: two scalars, map-side partials only
    def tot(b: pd.DataFrame) -> pd.DataFrame:
        is_uni = b["w2"] == ""
        return pd.DataFrame({
            "n_uni": [int(b.loc[is_uni, "n"].sum())],
            "n_big": [int(b.loc[~is_uni, "n"].sum())],
        })

    tots = counts.map_batches(tot, batch_format="pandas").to_pandas()
    n_tot = float(tots["n_uni"].sum())
    b_tot = float(tots["n_big"].sum())

    def attach_c1(g: pd.DataFrame) -> pd.DataFrame:
        # the bucket holds MANY words' groups: per-word unigram totals,
        # mapped onto the bigrams that start with each word
        is_uni = g["w2"] == ""
        uni = g.loc[is_uni].groupby("w1")["n"].sum()
        bg = (g.loc[~is_uni].groupby(["w1", "w2"], as_index=False)["n"]
              .sum())
        bg["c1"] = uni.reindex(bg["w1"]).to_numpy(np.int64)
        return bg

    with_c1 = bucketed_group_apply(counts, ["w1"], attach_c1,
                                   num_buckets=num_buckets,
                                   pre_batch_size=16384)

    def tag_c2(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__k"] = b["w2"].where(b["w2"] != "", b["w1"])
        return b

    u2 = (counts.map_batches(
        lambda b: tag_c2(b.loc[b["w2"] == ""].assign(c1=np.int64(-1))),
        batch_format="pandas")
        .union(with_c1.map_batches(tag_c2, batch_format="pandas")))

    def attach_c2(g: pd.DataFrame) -> pd.DataFrame:
        is_uni = g["w2"] == ""
        uni = g.loc[is_uni].groupby("__k")["n"].sum()
        bg = g.loc[~is_uni, ["w1", "w2", "n", "c1", "__k"]].copy()
        bg = bg[bg["n"] >= min_count]
        if not len(bg):
            return pd.DataFrame({
                "w1": pd.Series([], dtype=object),
                "w2": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "pmi": pd.Series([], dtype=np.float64)})
        c2 = uni.reindex(bg["__k"]).to_numpy(np.int64)
        pmi = np.log(bg["n"].to_numpy(np.float64) * n_tot * n_tot
                     / (b_tot * bg["c1"].to_numpy(np.float64)
                        * c2.astype(np.float64)))
        return pd.DataFrame({
            "w1": bg["w1"].to_numpy(), "w2": bg["w2"].to_numpy(),
            "n": bg["n"].to_numpy(np.int64),
            "pmi": round_half_away(pmi, 6),
        })

    scored = bucketed_group_apply(u2, ["__k"], attach_c2,
                                  num_buckets=num_buckets,
                                  pre_batch_size=16384)
    return (scored.sort(["pmi", "w1", "w2"],
                        descending=[True, False, False]).limit(top_k))


def collocations_oracle_sql(
    table_sql: str,
    *,
    text_col: str = "text",
    min_count: int = 5,
    top_k: int = 50,
) -> str:
    """DuckDB mirror of :func:`collocations` (identical float
    expression tree; round-6 absorbs libm ``ln`` last-ulp noise)."""
    return f"""
WITH __co_d AS (SELECT regexp_extract_all(lower(coalesce({text_col},
                  '')), '{_WORD}') AS ws FROM ({table_sql})),
__co_u AS (SELECT unnest(ws) AS w FROM __co_d),
__co_b AS (SELECT ws[i] AS w1, ws[i + 1] AS w2
           FROM __co_d, (SELECT unnest(generate_series(1,
                len(ws) - 1)) AS i) WHERE len(ws) >= 2),
__co_uc AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM __co_u
            GROUP BY w),
__co_bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n FROM __co_b
            GROUP BY w1, w2),
__co_t AS (SELECT CAST((SELECT sum(c) FROM __co_uc) AS DOUBLE) AS n_tot,
                  CAST((SELECT sum(n) FROM __co_bc) AS DOUBLE) AS b_tot),
__co_s AS (SELECT w1, w2, n,
       round(ln(CAST(n AS DOUBLE) * n_tot * n_tot
                / (b_tot * CAST(u1.c AS DOUBLE) * CAST(u2.c AS DOUBLE))),
             6) AS pmi
       FROM __co_bc JOIN __co_uc u1 ON u1.w = w1
                    JOIN __co_uc u2 ON u2.w = w2, __co_t
       WHERE n >= {min_count})
SELECT w1, w2, n, pmi FROM (
  SELECT *, row_number() OVER (ORDER BY pmi DESC, w1, w2) AS __rn
  FROM __co_s) WHERE __rn <= {top_k}
"""


def rrf_fusion(
    ds: Dataset,
    id_col: str,
    score_cols,
    *,
    k: int = 60,
    num_buckets: int | None = None,
) -> Dataset:
    """Reciprocal Rank Fusion (Cormack et al. 2009 — public paper): merge
    several relevance rankings of the SAME row set into one score,
    ``rrf = sum_i 1 / (k + rank_i)`` — the standard way to combine a
    lexical ranking (BM25) with a link-quality ranking (PageRank) or an
    embedding ranking without score calibration.

    Frozen rules: ``rank_i`` = row_number ordered by (score_i DESC,
    id ASC) — a total order, so ranks are exact; the fused score is ONE
    frozen IEEE expression (terms added in ``score_cols`` order),
    rounded to 6.  Output: ``(id, rank_<col>..., rrf_score)``.

    Scale shape: one :func:`agg.global_rank` per ranking (its 3-pass
    narrow shape; only (id, score) projections move), then ONE bucketed
    cogroup keyed on the id stitches the rank columns together."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply, global_rank
    from pdf_extract_ray.util import round_half_away

    score_cols = list(score_cols)
    if not score_cols:
        raise ValueError("need at least one score column")

    tagged = []
    for si, col in enumerate(score_cols):
        def neg(b: pd.DataFrame, _c=col) -> pd.DataFrame:
            return pd.DataFrame({
                id_col: b[id_col].to_numpy(np.int64),
                "__neg": -b[_c].to_numpy(np.float64)})

        ranked = global_rank(
            ds.map_batches(neg, batch_format="pandas"),
            ["__neg", id_col], num_buckets=num_buckets)

        def tag(b: pd.DataFrame, _si=si) -> pd.DataFrame:
            return pd.DataFrame({
                id_col: b[id_col].to_numpy(np.int64),
                "__src": np.int64(_si),
                "__rank": b["rank"].to_numpy(np.int64)})

        tagged.append(ranked.map_batches(tag, batch_format="pandas"))

    unioned = tagged[0]
    for t in tagged[1:]:
        unioned = unioned.union(t)

    rank_names = [f"rank_{c}" for c in score_cols]
    kk = float(k)

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        wide = g.pivot_table(index=id_col, columns="__src",
                             values="__rank", aggfunc="first")
        out = pd.DataFrame({id_col: wide.index.to_numpy(np.int64)})
        score = np.zeros(len(wide), dtype=np.float64)
        for si, nm in enumerate(rank_names):
            r = wide[si].to_numpy(np.int64)
            out[nm] = r
            score = score + 1.0 / (kk + r)
        out["rrf_score"] = round_half_away(score, 6)
        return out

    return bucketed_group_apply(unioned, [id_col], stitch,
                                num_buckets=num_buckets)


def rrf_fusion_oracle_sql(
    table_sql: str,
    id_col: str,
    score_cols,
    *,
    k: int = 60,
) -> str:
    """DuckDB mirror of :func:`rrf_fusion` (identical term order in the
    fused expression; round-6)."""
    score_cols = list(score_cols)
    ranks = []
    for c in score_cols:
        ranks.append(
            f"__rrf_{c} AS (SELECT {id_col}, row_number() OVER "
            f"(ORDER BY CAST({c} AS DOUBLE) DESC, {id_col}) AS rank_{c} "
            f"FROM __rrf_t)")
    joins = " ".join(
        f"JOIN __rrf_{c} USING ({id_col})" for c in score_cols[1:])
    terms = " + ".join(f"1.0 / ({float(k)} + rank_{c})"
                       for c in score_cols)
    rank_sel = ", ".join(f"rank_{c}" for c in score_cols)
    first = score_cols[0]
    return f"""
WITH __rrf_t AS ({table_sql}),
{", ".join(ranks)}
SELECT {id_col}, {rank_sel}, round({terms}, 6) AS rrf_score
FROM __rrf_{first} {joins}
"""


# ---------------------------------------------------------------------------
# TextRank keywords (Mihalcea & Tarau 2004, public paper): graph-based
# per-document keyword extraction — the unsupervised complement to the
# corpus-statistical doc_keywords (TF-IDF): a word matters because the
# words it CO-OCCURS with matter, not because it is rare corpus-wide.
# ---------------------------------------------------------------------------

_TEXTRANK_RE = re.compile(_WORD)


def textrank_scores(tokens: list, *, window: int = 2, d: float = 0.85,
                    n_iter: int = 10, min_len: int = 4) -> dict:
    """Frozen per-document TextRank kernel.  Candidate vertices are
    tokens with ``len >= min_len`` (the cheap content-word proxy of the
    paper's POS filter); undirected edges connect candidates whose
    positions in the ORIGINAL token stream differ by at most
    ``window``, weighted by co-occurrence count; scores follow the
    paper's unnormalized recurrence ``s(v) = (1-d) + d * sum_u
    w(u,v)/wdeg(u) * s(u)`` from all-ones init, ``n_iter`` synchronous
    iterations, vertices ordered by sorted word (deterministic
    ``np.add.at`` scatter — the same float op order everywhere, so
    distributed == single-process bit-for-bit)."""
    pos = [(i, t) for i, t in enumerate(tokens) if len(t) >= min_len]
    if not pos:
        return {}
    words = sorted({t for _, t in pos})
    idx = {w: i for i, w in enumerate(words)}
    n = len(words)
    # edge multiset over vertex-index pairs (u < v)
    counts: dict = {}
    for a in range(len(pos)):
        ia, wa = pos[a]
        for b in range(a + 1, len(pos)):
            ib, wb = pos[b]
            if ib - ia > window:
                break
            if wa == wb:
                continue
            u, v = idx[wa], idx[wb]
            if u > v:
                u, v = v, u
            counts[(u, v)] = counts.get((u, v), 0) + 1
    score = np.ones(n, dtype=np.float64)
    if counts:
        items = sorted(counts.items())
        eu = np.fromiter((k[0] for k, _ in items), dtype=np.int64)
        ev = np.fromiter((k[1] for k, _ in items), dtype=np.int64)
        ew = np.fromiter((w for _, w in items), dtype=np.float64)
        wdeg = np.zeros(n, dtype=np.float64)
        np.add.at(wdeg, eu, ew)
        np.add.at(wdeg, ev, ew)
        for _ in range(n_iter):
            nxt = np.full(n, 1.0 - d, dtype=np.float64)
            np.add.at(nxt, ev, d * ew / wdeg[eu] * score[eu])
            np.add.at(nxt, eu, d * ew / wdeg[ev] * score[ev])
            score = nxt
    else:
        score = np.full(n, 1.0 - d, dtype=np.float64)
    return dict(zip(words, score))


def textrank_keywords(ds: Dataset, *, id_col: str = "doc_id",
                      text_col: str = "text", k: int = 3,
                      window: int = 2, d: float = 0.85,
                      n_iter: int = 10, min_len: int = 4) -> Dataset:
    """Top-``k`` TextRank keywords per document:
    ``(id_col, rank, word, score)`` with ``score`` rounded to 6 and the
    deterministic (rounded score desc, word asc) ranking.  One narrow
    map, zero shuffles — the graph never leaves the document, so this
    is embarrassingly parallel at any corpus size (the per-doc kernel
    is bounded by document length, not corpus size)."""
    def kw(b: pd.DataFrame) -> pd.DataFrame:
        ids, ranks, ws, ss = [], [], [], []
        for i, t in zip(b[id_col], b[text_col].fillna("")):
            sc = textrank_scores(_TEXTRANK_RE.findall(t.lower()),
                                 window=window, d=d, n_iter=n_iter,
                                 min_len=min_len)
            top = sorted(((round_half_away(v, 6), w) for w, v in sc.items()),
                         key=lambda t2: (-t2[0], t2[1]))[:k]
            for r, (v, w) in enumerate(top, 1):
                ids.append(i)
                ranks.append(r)
                ws.append(w)
                ss.append(v)
        return pd.DataFrame({
            id_col: pd.Series(ids, dtype="int64"),
            "rank": pd.Series(ranks, dtype="int64"),
            "word": pd.Series(ws, dtype=object),
            "score": pd.Series(ss, dtype="float64"),
        })

    return ds.map_batches(kw, batch_format="pandas")
