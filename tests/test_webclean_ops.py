"""Mojibake repair, Flesch readability, URL blocklist, within-doc line
dedup (stages/mojibake.py, textquality.readability_batch,
stages/urlfilter.py, boilerplate.dedup_lines_in_doc)."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

# ---------------------------------------------------------------- #
# mojibake


def test_mojibake_known_values():
    from pdf_extract_ray.stages.mojibake import repair_mojibake_batch

    b = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["cafÃ© â€” naÃ¯ve â€œquoteâ€\x9d donâ€™t",
                 "plain ascii stays", None,
                 "Ã‰cole franÃ§aise Â« lÃ\xa0 Â»"],
    })
    out = repair_mojibake_batch(b)
    assert out["text_fixed"].tolist()[0] == "café — naïve “quote” don’t"
    assert out["text_fixed"].tolist()[1] == "plain ascii stays"
    assert out["text_fixed"].tolist()[2] == ""
    assert out["text_fixed"].tolist()[3] == "École française « là »"
    assert out["changed"].tolist() == [True, False, False, True]


def test_mojibake_idempotent_on_repaired_text():
    from pdf_extract_ray.stages.mojibake import repair_mojibake_batch

    once = repair_mojibake_batch(pd.DataFrame({
        "doc_id": [0], "text": ["rÃ©sumÃ© â€” naÃ¯ve donâ€™t"]}))
    twice = repair_mojibake_batch(
        once.rename(columns={"text_fixed": "text"})[["doc_id", "text"]])
    assert twice["text_fixed"].iloc[0] == once["text_fixed"].iloc[0]
    assert not twice["changed"].iloc[0]


def test_mojibake_double_encoding_chain_quirk():
    # Å + â€™ (the double-encoded Œ) repairs all the way to Œ — the
    # frozen chain-order behavior documented in the module
    from pdf_extract_ray.stages.mojibake import repair_mojibake_batch

    out = repair_mojibake_batch(
        pd.DataFrame({"doc_id": [0], "text": ["Åâ€™uvre"]}))
    assert out["text_fixed"].iloc[0] == "Œuvre"


def test_mojibake_sql_parity_randomized():
    from pdf_extract_ray.stages.mojibake import (
        MOJIBAKE_TABLE,
        mojibake_oracle_sql,
        repair_mojibake_batch,
    )

    rng = np.random.default_rng(7)
    keys = [k for k, _ in MOJIBAKE_TABLE]
    words = ["word", "cafÃ©", "â€œx", "yâ€\x9d", "Ã¼ber", "Âµ", "", "Å¡"]
    texts = [" ".join(rng.choice(words + keys, size=rng.integers(0, 12)))
             for _ in range(200)]
    df = pd.DataFrame({"doc_id": np.arange(200), "text": texts})
    got = repair_mojibake_batch(df.copy())
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(mojibake_oracle_sql("SELECT doc_id, text FROM t")).df()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        want.sort_values("doc_id").reset_index(drop=True))


# ---------------------------------------------------------------- #
# readability


def test_readability_known_values():
    from pdf_extract_ray.stages.textquality import readability_batch

    b = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["The cat sat. It ran!", "tv tv", "12345 !!!"],
    })
    out = readability_batch(b)
    r0 = out.iloc[0]
    # words: The cat sat It ran = 5; sentences: '.' '!' = 2
    # syllables: each word one vowel group = 5
    assert (r0["n_words_rd"], r0["n_sentences"], r0["n_syllables"]) == (5, 2, 5)
    assert r0["flesch"] == round(206.835 - 1.015 * 2.5 - 84.6 * 1.0, 4)
    r1 = out.iloc[1]
    # vowel-less words count 1 syllable each; sentence floor 1
    assert (r1["n_words_rd"], r1["n_sentences"], r1["n_syllables"]) == (2, 1, 2)
    # no letters at all -> NaN flesch
    assert np.isnan(out.iloc[2]["flesch"]) and out.iloc[2]["n_words_rd"] == 0


def test_readability_sql_parity_randomized():
    from pdf_extract_ray.stages.textquality import (
        readability_batch,
        readability_oracle_sql,
    )

    rng = np.random.default_rng(3)
    vocab = ["Hello", "rhythm", "queueing", "a", "I", "Dr.", "x!",
             "beautiful", "tv", "?!", "one.two", "CRT", ""]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 25)))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300), "text": texts})
    got = readability_batch(df.copy())
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        readability_oracle_sql("SELECT doc_id, text FROM t")).df()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        want.sort_values("doc_id").reset_index(drop=True),
        check_dtype=False)


# ---------------------------------------------------------------- #
# url blocklist


def _url_frame():
    return pd.DataFrame({
        "doc_id": np.arange(8),
        "url": [
            "http://bad.example.com/x",        # subdomain of blocked
            "http://example.com/y",            # exact blocked
            "https://good.org/page",           # kept
            "http://notexample.com/z",         # NOT a subdomain (no dot)
            "https://Ads.Tracker.NET:443/a",   # blocked host, case/port
            "http://good.org/buy-cheap-pills", # pattern hit
            None,                              # not a url -> kept
            "http://sub.good.org/ok",          # kept
        ],
    })


def test_url_blocklist_semantics_and_modes(ray_session):
    from pdf_extract_ray.stages.urlfilter import filter_by_url_blocklist

    df = _url_frame()
    ds = rd.from_pandas(df).repartition(3)
    hosts = ["example.com", "ads.tracker.net"]
    pats = ["cheap-pills"]
    kept_suffix = filter_by_url_blocklist(
        ds, hosts, pats, method="suffix").to_pandas()
    kept_regex = filter_by_url_blocklist(
        ds, hosts, pats, method="regex").to_pandas()
    assert sorted(kept_suffix["doc_id"]) == [2, 3, 6, 7]
    assert sorted(kept_regex["doc_id"]) == sorted(kept_suffix["doc_id"])
    blocked = filter_by_url_blocklist(
        ds, hosts, pats, method="suffix", invert=True).to_pandas()
    assert sorted(blocked["doc_id"]) == [0, 1, 4, 5]
    with pytest.raises(ValueError):
        filter_by_url_blocklist(ds, hosts, method="bloom")


def test_url_blocklist_sql_parity(ray_session):
    from pdf_extract_ray.functions.url import canonicalize_oracle_sql
    from pdf_extract_ray.stages.urlfilter import (
        filter_by_url_blocklist,
        url_blocklist_oracle_sql,
    )

    df = _url_frame()
    hosts = ["example.com", "ads.tracker.net"]
    pats = ["cheap-pills"]
    got = (filter_by_url_blocklist(rd.from_pandas(df), hosts, pats)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    src = "SELECT doc_id, url FROM t"
    can = canonicalize_oracle_sql(src)
    joined = (f"SELECT s.doc_id, s.url, c.url_host FROM ({src}) s "
              f"JOIN ({can}) c USING (doc_id)")
    want = (con.sql("SELECT doc_id, url FROM ("
                    + url_blocklist_oracle_sql(joined, hosts, pats) + ")")
            .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


# ---------------------------------------------------------------- #
# within-doc line dedup


def test_doc_line_dedup_known_values(ray_session):
    from pdf_extract_ray.stages.boilerplate import dedup_lines_in_doc

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a\nb\na\nc\nb", "x\n\n\nx\n", None],
    })
    out = (dedup_lines_in_doc(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["cleaned_text"].tolist() == ["a\nb\nc", "x\n", ""]
    assert out["n_lines"].tolist() == [5, 5, 1]
    assert out["n_removed_lines"].tolist() == [2, 3, 0]


def test_doc_line_dedup_sql_parity_randomized(ray_session):
    from pdf_extract_ray.stages.boilerplate import (
        dedup_lines_in_doc,
        dedup_lines_in_doc_oracle_sql,
    )

    rng = np.random.default_rng(9)
    lines = ["nav", "menu", "", "body text", "© footer", "x"]
    texts = ["\n".join(rng.choice(lines, size=rng.integers(1, 10)))
             for _ in range(250)]
    df = pd.DataFrame({"doc_id": np.arange(250), "text": texts})
    got = (dedup_lines_in_doc(rd.from_pandas(df).repartition(4))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(dedup_lines_in_doc_oracle_sql("t"))
            .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ---------------------------------------------------------------- #
# host template stats


def test_host_template_stats_and_sql_parity(ray_session):
    from pdf_extract_ray.functions.url import canonicalize_oracle_sql
    from pdf_extract_ray.stages.links import (
        host_template_stats,
        host_template_stats_oracle_sql,
    )
    from pdf_extract_ray.stages.textquality import fingerprint_batch

    rng = np.random.default_rng(17)
    n = 300
    df = pd.DataFrame({
        "doc_id": np.arange(n),
        "url": ["http://h" + str(int(x)) + ".example/p" + str(i)
                for i, x in enumerate(rng.integers(0, 6, size=n))],
        # host h0 is a template farm: few distinct bodies
        "text": ["body " + str(int(x)) for x in rng.integers(0, 8, size=n)],
    })
    got = (host_template_stats(rd.from_pandas(df).repartition(5))
           .to_pandas().sort_values("url_host").reset_index(drop=True))
    # independent reference
    ref = df.copy()
    ref["url_host"] = ref["url"].str.extract(r"http://([^/]+)/")[0]
    ref["fp"] = fingerprint_batch(ref[["text"]].copy())["fingerprint"]
    want = (ref.groupby("url_host")
            .agg(n_docs=("fp", "size"), n_templates=("fp", "nunique"))
            .reset_index())
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    assert got["n_templates"].tolist() == want["n_templates"].tolist()
    assert (got["dup_frac"] == np.round(
        1.0 - want["n_templates"].to_numpy()
        / want["n_docs"].to_numpy(), 4)).all()
    # SQL parity
    con = duckdb.connect()
    con.register("t", df)
    can = canonicalize_oracle_sql("SELECT doc_id, url FROM t")
    pages = (
        "SELECT c.url_host, md5(lower(trim(regexp_replace("
        "coalesce(d.text, ''), '\\s+', ' ', 'g')))) AS fingerprint "
        f"FROM ({can}) c JOIN t d USING (doc_id)")
    sql = (con.sql(host_template_stats_oracle_sql(pages)).df()
           .sort_values("url_host").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, sql, check_dtype=False)


# ---------------------------------------------------------------- #
# paragraph-level corpus dedup (dedup_lines sep="\n\n")


def test_para_dedup_corpus_wide_and_sql_parity(ray_session):
    from pdf_extract_ray.stages.boilerplate import (
        dedup_lines,
        dedup_lines_oracle_sql,
    )

    rng = np.random.default_rng(23)
    paras = ["unique body " + str(i) for i in range(300)]
    texts = []
    for i in range(120):
        parts = [paras[i], paras[120 + i]]
        if i % 2 == 0:
            parts.append("shared promo\nwith inner newline")  # corpus dup
        rng.shuffle(parts)
        texts.append("\n\n".join(parts))
    df = pd.DataFrame({"doc_id": np.arange(120), "text": texts})
    got = (dedup_lines(rd.from_pandas(df).repartition(4),
                       key="text", sep="\n\n")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # the shared paragraph vanished everywhere; unique bodies survive
    assert not got["cleaned_text"].str.contains("shared promo").any()
    assert (got.loc[got["doc_id"] % 2 == 0, "n_removed_lines"] == 1).all()
    assert (got.loc[got["doc_id"] % 2 == 1, "n_removed_lines"] == 0).all()
    con = duckdb.connect()
    con.register("pages", df)
    want = (con.sql(dedup_lines_oracle_sql(
        "pages", sep_sql="chr(10) || chr(10)"))
        .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # hash mode = same kept set at scale (uint64 segment hashes)
    hashed = (dedup_lines(rd.from_pandas(df), key="hash", sep="\n\n")
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, hashed, check_dtype=False)


# ---------------------------------------------------------------- #
# control-character sanitization


def test_sanitize_controls_known_values():
    from pdf_extract_ray.stages.mojibake import sanitize_controls_batch

    b = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["keep\ttabs\nand\rreturns\x00strip\x9fthese",
                 "plain", "", None],
    })
    out = sanitize_controls_batch(b)
    assert out["text_clean"].tolist()[0] == "keep\ttabs\nand\rreturnsstripthese"
    assert out["n_control"].tolist() == [2, 0, 0, 0]
    assert out["control_frac"].tolist()[1:] == [0.0, 0.0, 0.0]


def test_sanitize_controls_sql_parity_randomized():
    from pdf_extract_ray.stages.mojibake import (
        sanitize_controls_batch,
        sanitize_controls_oracle_sql,
    )

    rng = np.random.default_rng(13)
    pool = list("abc \t\n\r\x00\x07\x0b\x1f\x7f\x85\x9f é漢")
    texts = ["".join(rng.choice(pool, size=rng.integers(0, 60)))
             for _ in range(300)]
    texts[0], texts[1] = "", None
    df = pd.DataFrame({"doc_id": np.arange(300), "text": texts})
    got = (sanitize_controls_batch(df)
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", df)
    want = (con.sql(sanitize_controls_oracle_sql()).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ---------------------------------------------------------------- #
# casing cues


def test_casing_stats_known_values():
    from pdf_extract_ray.stages.textquality import casing_stats_batch

    b = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["BUY NOW Cheap Pills online", "", None,
                 "I a MiXeD x9y"],
    })
    out = casing_stats_batch(b)
    r = out.iloc[0]
    # words: BUY NOW Cheap Pills online -> caps 2/5, title 2/5
    assert r["n_alpha_words"] == 5
    assert r["caps_word_frac"] == 0.4
    assert r["title_word_frac"] == 0.4
    # "I" (len 1) is neither caps (needs 2+) nor title (needs a tail);
    # words in doc 3: I a MiXeD x y -> 5 alpha words, 0 caps, 0 title
    r3 = out.iloc[3]
    assert r3["n_alpha_words"] == 5
    assert r3["caps_word_frac"] == 0.0 and r3["title_word_frac"] == 0.0
    assert (out.iloc[1][1:] == 0.0).all() and (out.iloc[2][1:] == 0.0).all()


def test_casing_stats_sql_parity_randomized():
    from pdf_extract_ray.stages.textquality import (
        casing_stats_batch,
        casing_stats_oracle_sql,
    )

    rng = np.random.default_rng(61)
    pool = ["HELLO", "World", "spam", "BUY", "Now", "a", "I", "x9y",
            "MiXeD", "Éclair"]
    texts = [" ".join(rng.choice(pool, size=rng.integers(0, 30)))
             for _ in range(300)]
    texts[0], texts[1] = "", None
    df = pd.DataFrame({"doc_id": np.arange(300), "text": texts})
    got = (casing_stats_batch(df)
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", df)
    want = (con.sql(casing_stats_oracle_sql()).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_normalize_typography_known_values_and_sql(ray_session):
    import duckdb

    from pdf_extract_ray.stages.mojibake import (
        normalize_typography_batch,
        normalize_typography_oracle_sql,
    )

    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype="int64"),
        "text": [
            "“Hi” — it’s fine…",
            "plain ascii stays",
            "a b–c­d",      # NBSP, en dash, soft hyphen
            "",
            None,
        ],
    })
    out = normalize_typography_batch(df)
    assert out["text_typo"].tolist() == [
        '"Hi" - it\'s fine...', "plain ascii stays", "a b-cd", "", ""]
    assert out["n_typo"].tolist() == [5, 0, 3, 0, 0]

    # randomized SQL parity over planted + clean rows
    rng = np.random.default_rng(77)
    chars = list("ab “”’— …­–")
    rnd = pd.DataFrame({
        "doc_id": np.arange(300, dtype="int64"),
        "text": ["".join(rng.choice(chars, size=rng.integers(0, 30)))
                 for _ in range(300)],
    })
    con = duckdb.connect()
    con.register("documents", rnd)
    want = (con.sql(normalize_typography_oracle_sql()).df()
            .sort_values("doc_id").reset_index(drop=True))
    got = (normalize_typography_batch(rnd)
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestUrlTraps:
    def test_trap_rules(self):
        from pdf_extract_ray.stages.urlfilter import url_trap_signals

        sig = url_trap_signals(pd.Series([
            "http://x.com/a/b/a/1",          # repeated segment
            "http://x.com/" + "d/" * 7 + "9",  # depth 8 > 6
            "http://x.com/p?a=1&b=2&c=3&d=4&e=5&f=6",  # 6 params > 5
            "http://x.com/x/1?a=1",           # clean
            "not a url",
        ]))
        assert sig["is_trap"].tolist() == [True, True, True, False, False]
        assert sig["repeated_segment"].tolist() == [
            True, True, False, False, False]
        assert sig["path_depth"].tolist() == [4, 8, 1, 2, 0]
        assert sig["n_params"].tolist() == [0, 0, 6, 1, 0]

    def test_sql_parity_randomized(self, ray_session):
        from pdf_extract_ray.stages.urlfilter import (
            url_trap_batch,
            url_trap_oracle_sql,
        )

        rng = np.random.RandomState(13)
        segs = np.array(["a", "b", "cal", "2024", "a"])
        urls = []
        for i in range(300):
            d = rng.randint(0, 9)
            path = "/".join(segs[rng.randint(0, len(segs), d)])
            q = "&".join(f"k{j}={j}" for j in range(rng.randint(0, 8)))
            urls.append(f"http://h{i % 5}.example/{path}"
                        + (f"?{q}" if q else ""))
        df = pd.DataFrame({"doc_id": range(300), "url": urls})
        got = (url_trap_batch(rd.from_pandas(df).repartition(3))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        con = duckdb.connect()
        con.register("src", df)
        want = (con.execute(url_trap_oracle_sql("SELECT * FROM src"))
                .df().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestPdfTextCleanup:
    def test_known_values(self):
        from pdf_extract_ray.stages.mojibake import pdf_text_cleanup_batch

        b = pd.DataFrame({"doc_id": [0, 1, 2, 3], "text": [
            "eﬃcient ﬁrst",           # ffi + fi ligatures
            "exam-\nple of hyphen-\nation",      # two joins
            "self-\nAssembly stays",             # uppercase: kept
            None,
        ]})
        got = pdf_text_cleanup_batch(b)
        assert got["text_clean"].tolist() == [
            "efficient first",
            "example of hyphenation",
            "self-\nAssembly stays",
            "",
        ]
        assert got["n_ligatures"].tolist() == [2, 0, 0, 0]
        assert got["n_dehyphenated"].tolist() == [0, 2, 0, 0]

    def test_ligature_then_dehyphenation_order(self):
        from pdf_extract_ray.stages.mojibake import pdf_text_cleanup_batch

        # the folded ligature's trailing letter enables the join:
        # "e<fi>-\nx" -> "efi-\nx" -> "efix"
        b = pd.DataFrame({"doc_id": [0], "text": ["eﬁ-\nx"]})
        got = pdf_text_cleanup_batch(b)
        assert got["text_clean"].tolist() == ["efix"]
        assert got["n_dehyphenated"].tolist() == [1]

    def test_sql_parity(self, ray_session):
        from pdf_extract_ray.stages.mojibake import (
            pdf_text_cleanup_batch,
            pdf_text_cleanup_oracle_sql,
        )

        rng = np.random.RandomState(19)
        pieces = np.array(["word", "ﬁn", "line-\nbreak", "A-\nB",
                           "ﬄow", "stﬆone", "x-\ny"])
        texts = [" ".join(pieces[rng.randint(0, len(pieces), 6)])
                 for _ in range(200)]
        df = pd.DataFrame({"doc_id": range(200), "text": texts})
        got = (pdf_text_cleanup_batch(df)
               .sort_values("doc_id").reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", df)
        want = (con.execute(pdf_text_cleanup_oracle_sql("t"))
                .df().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_term_blocklist_token_semantics_and_sql_parity(ray_session):
    from pdf_extract_ray.stages.urlfilter import (
        term_blocklist_oracle_sql,
        term_blocklist_signals,
    )

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype="int64"),
        "text": [
            "visit our casino tonight",        # word hit
            "classic assassin classes",        # substrings only: no hit
            "get free money fast now, free money fast",  # phrase x2
            "CASINO in caps still counts",     # lowercased first
            "",
            None,
        ],
    })
    got = (term_blocklist_signals(rd.from_pandas(docs).repartition(3),
                                  ["casino", "ass"], ["free money fast"])
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["n_banned_words"].tolist() == [1, 0, 0, 1, 0, 0]
    assert got["n_banned_phrases"].tolist() == [0, 0, 2, 0, 0, 0]
    assert got["blocked"].tolist() == [True, False, True, True, False,
                                       False]
    con = duckdb.connect()
    con.register("documents", docs)
    sql = (con.sql(term_blocklist_oracle_sql(
               "SELECT doc_id, text FROM documents",
               ["casino", "ass"], ["free money fast"])).df()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, sql, check_dtype=False)


def test_term_blocklist_sql_parity_on_dotted_capital_i(ray_session):
    """``"İ".lower()`` is two characters in Python (``i`` + U+0307) and one
    in DuckDB: the SQL mirror still counts words and phrases like
    :func:`term_blocklist_signals`."""
    from pdf_extract_ray.stages.urlfilter import (
        term_blocklist_oracle_sql,
        term_blocklist_signals,
    )

    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype="int64"),
        "text": ["İzmir and İzmir and İzmir",
                 "i\u0307zmir spelled in lowercase",
                 "İ İ İ İ",
                 "no hit here"],
    })
    words, phrases = ["zmir"], ["İzmir", "İ"]
    got = (term_blocklist_signals(rd.from_pandas(docs), words, phrases)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["n_banned_words"].tolist() == [3, 1, 0, 0]
    assert got["n_banned_phrases"].tolist() == [6, 2, 4, 0]
    con = duckdb.connect()
    con.register("documents", docs)
    sql = (con.sql(term_blocklist_oracle_sql(
               "SELECT doc_id, text FROM documents", words, phrases)).df()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, sql, check_dtype=False)
