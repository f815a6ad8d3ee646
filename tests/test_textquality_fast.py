"""The vectorized quality/repetition kernels must be bit-identical to the
original (slower) pandas reference implementations — frozen copies here —
on representative and adversarial inputs.  The kernels feed oracle-checked
queries (`quality_scores`, `repetition_stats`, `webtext_tiers`), so any
drift is an oracle break."""

import re

import numpy as np
import pandas as pd
import pytest

from pdf_extract_ray.stages.textquality import (
    STOPWORDS,
    _WORD_ONLY_RE,
    quality_score_batch,
    repetition_stats_batch,
)
from pdf_extract_ray.util import round_half_away

_PUNCT_RE = re.compile(r"[.,!?;:]")
_DIGIT_RE = re.compile(r"[0-9]")


def quality_reference(batch: pd.DataFrame, text_col: str = "text"):
    """Frozen copy of the original quality_score_batch (pandas regex path)."""
    t = batch[text_col].fillna("")
    n_chars = t.str.len().astype("float64")
    n_words = t.str.split().str.len().fillna(0).astype("float64")
    safe_chars = n_chars.where(n_chars > 0, 1.0)
    safe_words = n_words.where(n_words > 0, 1.0)
    stop_rx = re.compile(r"\b(?:" + "|".join(STOPWORDS) + r")\b")
    punct = t.str.count(_PUNCT_RE).astype("float64")
    digits = t.str.count(_DIGIT_RE).astype("float64")
    stops = t.str.lower().str.count(stop_rx).astype("float64")
    word_chars = t.str.replace(r"\s+", "", regex=True).str.len().astype("float64")
    batch["punct_ratio"] = round_half_away(punct / safe_chars, 4)
    batch["digit_ratio"] = round_half_away(digits / safe_chars, 4)
    batch["stop_ratio"] = round_half_away(stops / safe_words, 4)
    batch["mean_word_len"] = round_half_away(word_chars / safe_words, 4)
    return batch


def repetition_reference(batch: pd.DataFrame, text_col: str = "text"):
    """Frozen copy of the original repetition_stats_batch (string groupbys)."""
    low = batch[text_col].fillna("").str.lower().reset_index(drop=True)
    words = low.str.findall(_WORD_ONLY_RE)
    n = words.str.len().to_numpy(dtype=np.int64)
    ex = words.explode().dropna()
    pos = pd.RangeIndex(len(low))
    if len(ex):
        df = pd.DataFrame({"i": ex.index.to_numpy(), "w": ex.to_numpy()})
        counts = df.groupby(["i", "w"], sort=False).size()
        per_doc = counts.groupby(level=0)
        distinct = per_doc.size().reindex(pos, fill_value=0).to_numpy()
        top = per_doc.max().reindex(pos, fill_value=0).to_numpy()
        w2 = df.groupby("i", sort=False)["w"].shift(-1)
        bi = df.assign(w2=w2).dropna(subset=["w2"])
        if len(bi):
            btop = (bi.groupby(["i", "w", "w2"], sort=False).size()
                    .groupby(level=0).max()
                    .reindex(pos, fill_value=0).to_numpy())
        else:
            btop = np.zeros(len(low), dtype=np.int64)
        new_run = (df["w"].ne(df["w"].shift())
                   | df["i"].ne(df["i"].shift())).cumsum()
        runs = df.groupby(new_run, sort=False).agg(
            i=("i", "first"), L=("w", "size"))
        max_run = (runs.groupby("i")["L"].max()
                   .reindex(pos, fill_value=0).to_numpy())
    else:
        distinct = top = btop = max_run = np.zeros(len(low), dtype=np.int64)
    nf = n.astype(np.float64)
    safe = np.maximum(nf, 1.0)
    safe_bi = np.maximum(nf - 1.0, 1.0)
    out = batch.reset_index(drop=True).copy()
    out["n_words"] = n
    out["dup_word_frac"] = np.where(
        n > 0, round_half_away(1.0 - distinct / safe, 4), 0.0)
    out["top_word_frac"] = np.where(
        n > 0, round_half_away(top / safe, 4), 0.0)
    out["top_bigram_frac"] = np.where(
        n > 1, round_half_away(btop / safe_bi, 4), 0.0)
    out["max_word_run"] = max_run.astype(np.int64)
    return out


EDGE_TEXTS = [
    "",                                     # empty
    None,                                   # null
    "   \t\n  ",                            # whitespace only
    "　  ideographic　space",  # unicode whitespace
    "the the the the",                      # pure stopword repetition
    "a",                                    # single 1-char stopword
    "that",                                 # stopword == whole text
    "toto is not to to",                    # stopword substrings
    "the_and for-on a.b",                   # \w joins, boundaries
    "한국어 문장 the 문서 and 품질",            # hangul + stopwords
    "THE AND Of A To IN",                   # case folding
    "x" * 5000,                             # one long word
    "word " * 300,                          # long repetition run
    "1 22 333 4444 55555 1 22",             # digits as words
    "a b, c. d! e? f; g:",                  # punctuation battery
    "İstanbul mixes the case",              # lower() changes length
    "ab­cd the­and",              # soft hyphen (non-space, non-word)
    "tab\tsep\nline\rreturn\x0bvt\x0cff",   # ascii control whitespace
    "o" * 3 + " " + "to to to to to",       # bigram repetition
    "étude the café and",        # combining mark + latin-1
]


def _mixed_frame():
    rng = np.random.default_rng(7)
    vocab = ["the", "and", "data", "pipeline", "ray", "arrow", "문서",
             "품질", "to", "in", "x1", "run_on", "99", "..."]
    rand = [" ".join(rng.choice(vocab, size=rng.integers(0, 40)))
            for _ in range(200)]
    return pd.DataFrame({"text": EDGE_TEXTS + rand})


def test_quality_matches_reference():
    df = _mixed_frame()
    fast = quality_score_batch(df.copy(), "text")
    ref = quality_reference(df.copy(), "text")
    for col in ("punct_ratio", "digit_ratio", "stop_ratio", "mean_word_len"):
        np.testing.assert_array_equal(
            fast[col].to_numpy(), ref[col].to_numpy(), err_msg=col)


def test_repetition_matches_reference():
    df = _mixed_frame()
    fast = repetition_stats_batch(df.copy(), "text")
    ref = repetition_reference(df.copy(), "text")
    for col in ("n_words", "dup_word_frac", "top_word_frac",
                "top_bigram_frac", "max_word_run"):
        np.testing.assert_array_equal(
            fast[col].to_numpy(), ref[col].to_numpy(), err_msg=col)


# a mixed alphabet: ASCII (both cases), digits, punctuation, whitespace,
# Hangul, and the codepoints whose lowercase is special
_FUZZ_ALPHABET = (list("abcdeiklmnorstTHEANDOFISKZ0123456789_.,!?;: -\n\t")
                  + list("한국어문서") + ["\u3000", "\u00a0", "\u0130",
                                     "\u212a", "\u03a3", "\u03c3", "\u01c5",
                                     "\ufb03", "\u0663", "\u0307", "\u00e9"]
                  + ["the ", "and ", " a ", "of", "to", " in ", "is"])


def _fuzz_frame(rng) -> pd.DataFrame:
    texts = ["".join(rng.choice(_FUZZ_ALPHABET,
                                size=int(rng.integers(0, 120))))
             for _ in range(300)]
    for i in rng.choice(300, size=5, replace=False):
        texts[i] = None
    return pd.DataFrame({"text": texts})


def test_kernel_matches_reference_on_unicode_fuzz():
    from pdf_extract_ray.stages.textquality import text_signals

    rng = np.random.default_rng(20261019)
    for _ in range(30):
        df = _fuzz_frame(rng)
        ref = repetition_reference(df.copy(), "text")
        ref = quality_reference(ref, "text")
        fast = text_signals(df["text"])
        assert list(fast) == list(ref.columns[1:])
        for col, got in fast.items():
            np.testing.assert_array_equal(got, ref[col].to_numpy(),
                                          err_msg=col)
        rep = repetition_stats_batch(df.copy(), "text")
        qual = quality_score_batch(df.copy(), "text")
        for col, got in fast.items():
            src = rep if col in rep else qual
            np.testing.assert_array_equal(src[col].to_numpy(), got,
                                          err_msg=col)


def test_lowering_once_facts_hold_for_every_codepoint():
    """The kernel lowercases a whole batch as one string and reads every
    signal off the lowered codes; that is exact only while str.lower()
    keeps the whitespace/punctuation/digit classes and changes a length
    only for U+0130."""
    from pdf_extract_ray.util import PY_WS

    kept = set(PY_WS) | set(".,!?;:0123456789")
    longer = []
    for c in range(0x110000):
        if 0xD800 <= c < 0xE000:
            continue
        ch = chr(c)
        low = ch.lower()
        if len(low) != 1:
            longer.append(c)
        if ch in kept:
            assert low == ch, hex(c)
        else:
            assert not kept & set(low), hex(c)
    assert longer == [0x130]


@pytest.mark.parametrize("fn_pair", [
    (quality_score_batch, quality_reference),
    (repetition_stats_batch, repetition_reference),
])
def test_empty_batch(fn_pair):
    fast_fn, ref_fn = fn_pair
    empty = pd.DataFrame({"text": pd.Series([], dtype="object")})
    fast = fast_fn(empty.copy(), "text")
    ref = ref_fn(empty.copy(), "text")
    assert list(fast.columns) == list(ref.columns)
    assert len(fast) == 0


def test_quality_preserves_index():
    # the kernel assigns positionally; the caller's index must survive
    df = pd.DataFrame({"text": ["the cat", "and dog"]}, index=[10, 20])
    out = quality_score_batch(df, "text")
    assert list(out.index) == [10, 20]
    assert out.loc[10, "stop_ratio"] == 0.5


def test_compression_ratio_rules():
    import zlib

    import pandas as pd

    from pdf_extract_ray.stages.textquality import compression_ratio_batch

    b = pd.DataFrame({"text": ["spam " * 200, None, "", "x"]})
    out = compression_ratio_batch(b)
    assert out.loc[0, "n_bytes"] == 1000
    assert out.loc[0, "n_compressed"] == len(zlib.compress(("spam " * 200).encode(), 6))
    assert out.loc[0, "compression_ratio"] < 0.05   # repetitive compresses hard
    assert out.loc[1, "compression_ratio"] == 0.0   # null -> empty -> 0.0
    assert out.loc[2, "compression_ratio"] == 0.0
    assert out.loc[3, "compression_ratio"] > 1.0    # tiny doc: header dominates


# ---------------------------------------------------------------------------
# corpus profile (stages/profile.py): one-scan additive summary
# ---------------------------------------------------------------------------

def test_corpus_profile_values_and_topology_independence(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.profile import corpus_profile

    df = pd.DataFrame({"text": [
        "hello world two words",     # en, 4 words
        "안녕 하세요",                  # ko, 2 words
        "привет мир",                 # ru
        "你好",                        # zh
        "", None,                     # two empties
        "12345 !!!",                  # und
    ]})

    def run(n_parts):
        got = corpus_profile(rd.from_pandas(df).repartition(n_parts)) \
            .to_pandas()
        return dict(zip(got["metric"], got["value"]))

    v = run(3)
    assert v["n_docs"] == 7 and v["n_empty"] == 2
    assert v["total_words"] == 4 + 2 + 2 + 1 + 0 + 0 + 2
    assert v["lang_ko"] == 1 and v["lang_zh"] == 1 and v["lang_ru"] == 1
    assert v["lang_en"] == 1 and v["lang_und"] == 3  # empties are 'und'
    assert v["avg_words"] == round(v["total_words"] / 7, 4)
    # additive partials: any block layout gives identical totals
    assert run(1) == v and run(7) == v


# ---------------------------------------------------------------- #
# character-entropy signal


def _entropy_ref(s: str) -> float:
    # independent plain-Python reference: Counter + math.log2
    import math
    from collections import Counter

    n = len(s)
    if n == 0:
        return 0.0
    return round_half_away(
        np.array([sum((k / n) * math.log2(n / k)
                      for k in Counter(s).values())]), 4)[0]


def test_char_entropy_known_values():
    from pdf_extract_ray.stages.textquality import char_entropy_batch

    df = pd.DataFrame({
        "doc_id": range(6),
        "text": ["aaaa", "ab", "abcd", "", None, "añ漢b"],
    })
    out = char_entropy_batch(df)
    assert list(out["char_entropy"]) == [0.0, 1.0, 2.0, 0.0, 0.0, 2.0]
    assert list(out["n_chars"]) == [4, 2, 4, 0, 0, 4]
    assert list(out["n_unique_chars"]) == [1, 2, 4, 0, 0, 4]


def test_char_entropy_matches_plain_reference():
    from pdf_extract_ray.stages.textquality import char_entropy_batch

    rng = np.random.default_rng(5)
    alphabet = list("abcdefg XYZ.,!0123") + ["ñ", "漢", "é"]
    texts = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 200))))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = char_entropy_batch(df)
    for t, got in zip(texts, out["char_entropy"]):
        assert got == _entropy_ref(t), t


def test_char_entropy_sql_oracle_parity():
    import duckdb

    from pdf_extract_ray.stages.textquality import (
        char_entropy_batch,
        char_entropy_oracle_sql,
    )

    rng = np.random.default_rng(9)
    alphabet = list("abc def.!?") + ["ü", "汉"]
    texts = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 80))))
             for _ in range(200)] + ["", "aaaa", "a"]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ours = char_entropy_batch(df).sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", df)
    got = (con.sql(char_entropy_oracle_sql()).df()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        ours.astype({"n_unique_chars": "int64", "n_chars": "int64"}),
        got.astype({"n_unique_chars": "int64", "n_chars": "int64"}))


# ---------------------------------------------------------------- #
# duplicate-segment (Gopher dup line/paragraph) signal


def test_dup_segment_known_values():
    from pdf_extract_ray.stages.textquality import dup_segment_stats_batch

    df = pd.DataFrame({
        "doc_id": range(5),
        "text": [
            "ab\nab\ncd",        # 'ab' duplicated: 4 of 6 chars
            "x\n\nx",            # lines: x,'',x -> dup 2/2; paras: x,x -> dup 2/2
            "",                  # single empty segment, 0 chars -> 0.0
            None,                # NULL == empty
            "abc\ndef",          # no dups
        ],
    })
    out = dup_segment_stats_batch(df)
    assert list(out["n_lines"]) == [3, 3, 1, 1, 2]
    assert list(out["dup_line_char_frac"]) == [
        round(4 / 6, 4), 1.0, 0.0, 0.0, 0.0]
    assert list(out["n_paras"]) == [1, 2, 1, 1, 1]
    assert list(out["dup_para_char_frac"]) == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_dup_segment_sql_oracle_parity():
    import duckdb

    from pdf_extract_ray.stages.textquality import (
        dup_segment_oracle_sql,
        dup_segment_stats_batch,
    )

    rng = np.random.default_rng(13)
    words = ["aa", "bb", "cc", "dd"]
    texts = []
    for _ in range(200):
        n = int(rng.integers(0, 12))
        parts = [str(rng.choice(words)) for _ in range(n)]
        seps = [str(rng.choice(["\n", "\n\n", " ", "\n\n\n"]))
                for _ in range(max(n - 1, 0))]
        texts.append("".join(p + s for p, s in zip(parts, seps + [""])))
    texts += ["", "\n", "\n\n", "a\n\n\nb", None]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ours = (dup_segment_stats_batch(df)
            .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    got = (con.sql(dup_segment_oracle_sql("SELECT doc_id, text FROM t"))
           .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(ours, got)


# ---------------------------------------------------------------- #
# Gopher line-level cues (ellipsis/bullet lines, symbol ratio, alpha)


def test_gopher_line_signals_known_values():
    from pdf_extract_ray.stages.textquality import gopher_line_signals_batch

    df = pd.DataFrame({
        "doc_id": range(6),
        "text": [
            "hello...\nworld",       # 1 of 2 lines ends ..., 1 '...' / 2 words
            "- b\n• c\nplain",       # 2 of 3 bullet starts
            "# x # y",               # 2 '#' / 4 words
            "w.....…",               # '.....'->1 + '…'->1 = 2 symbols, ends …
            "",                      # 1 empty line, no words
            None,
        ],
    })
    out = gopher_line_signals_batch(df)
    assert list(out["frac_lines_end_ellipsis"]) == [0.5, 0.0, 0.0, 1.0,
                                                    0.0, 0.0]
    assert list(out["frac_lines_start_bullet"]) == [0.0, round(2 / 3, 4),
                                                    0.0, 0.0, 0.0, 0.0]
    assert list(out["symbol_word_ratio"]) == [0.5, 0.0, 0.5, 2.0, 0.0, 0.0]
    # doc 1: words are ['-','b','•','c','plain'] -> 3 of 5 alphabetic
    assert list(out["frac_words_alpha"]) == [1.0, 0.6, 0.5, 1.0, 0.0, 0.0]


def test_gopher_line_signals_sql_parity_random():
    import duckdb

    from pdf_extract_ray.stages.textquality import (
        gopher_line_oracle_sql,
        gopher_line_signals_batch,
    )

    rng = np.random.default_rng(17)
    atoms = ["word", "abc...", "…", "#", "- item", "• pt", "123", "..", "a"]
    seps = ["\n", " ", "\n\n", "  "]
    texts = []
    for _ in range(250):
        n = int(rng.integers(0, 10))
        parts = [str(rng.choice(atoms)) for _ in range(n)]
        s = [str(rng.choice(seps)) for _ in range(max(n - 1, 0))]
        texts.append("".join(p + q for p, q in zip(parts, s + [""])))
    texts += ["", "...", "…\n…", "#", None]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ours = (gopher_line_signals_batch(df)
            .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    got = (con.sql(gopher_line_oracle_sql("SELECT doc_id, text FROM t"))
           .df().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(ours, got)
