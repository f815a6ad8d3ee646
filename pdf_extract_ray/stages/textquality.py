"""Text-analysis operators for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

These extend the reference's row-level quality analyzers
(reference: euaa_사례/sentences/metadata_generator.py:92-461,
add_metadata.py:155-193) to the single-document web-text setting.  Every
rule here is deliberately expressible in ANSI SQL so the driver's DuckDB
oracle can check it exactly (SURVEY.md §5.2.6); character classes are
explicit ASCII/Hangul ranges, never locale-dependent ``\\w``.

All functions are vectorized map_batches bodies over pyarrow/pandas —
no Python loop over rows in the hot path.  The tier signals
(``text_signals``: ``repetition_stats_batch`` + ``quality_score_batch``)
share one kernel that reads an Arrow text column directly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pdf_extract_ray.util import PY_WS, round_half_away

# frozen stopword list (quality scoring; mirror in oracle SQL literally)
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "that", "for", "on")

# ---------------------------------------------------------------------------
# The tier-signal kernel: the quality and repetition signals of one text
# column.  A batch is lowercased ONCE, as one string in which every
# document is prefixed with a space.  The space is whitespace, not \w and
# not [a-z0-9], so every run a signal counts ends at a document edge, and
# it is uncased, so lowering one document cannot see its neighbour's
# letters.  That string becomes ONE UTF-32 code array, classified by one
# lookup into ``_FLAGS``, and every per-document count is a searchsorted
# of sorted code offsets against the document bounds: no per-character
# doc-id array.  The ``[a-z0-9]+`` words are cut out of the code array
# into one Arrow string array and dictionary-encoded in Arrow: no Python
# object per word.  Semantics are EXACTLY Python re's over
# ``str.lower()`` (the oracle SQL mirrors the whitespace class via PY_WS;
# \w is resolved through re itself).
#
# Lowering first is exact for the quality counts too: str.lower() maps
# whitespace, the sentence punctuation and the ASCII digits to themselves,
# maps nothing else to them, and changes a length only for U+0130
# (İ -> "i" + U+0307).  tests/test_textquality_fast.py checks these facts
# over every codepoint.
# ---------------------------------------------------------------------------

_WS, _PUNCT, _DIGIT, _ALNUM, _WORD, _KNOWN = 1, 2, 4, 8, 16, 32
# class bits per codepoint; ``_KNOWN`` marks a resolved \w bit, so a code
# whose flags are 0 has not been classified yet
_FLAGS = np.zeros(0x110000, dtype=np.uint8)
_W_RE = re.compile(r"\w")
_I_DOT = "İ"  # İ, the one codepoint whose lowercase is two chars


def _resolve_word(codes) -> None:
    for c in codes:
        _FLAGS[c] |= _KNOWN | (_WORD if _W_RE.match(chr(c)) else 0)


for _c in PY_WS:
    _FLAGS[ord(_c)] |= _WS
for _c in ".,!?;:":
    _FLAGS[ord(_c)] |= _PUNCT
for _c in "0123456789":
    _FLAGS[ord(_c)] |= _DIGIT
for _c in "abcdefghijklmnopqrstuvwxyz0123456789":
    _FLAGS[ord(_c)] |= _ALNUM
# \w eagerly for the Latin/Cyrillic BMP head, lazily (``_classify``) for
# any higher codepoint a batch contains: each worker probes a script once
# (a whitespace char above the head has its bit already and is not \w)
_resolve_word(range(0x600))


def _classify(codes: np.ndarray) -> np.ndarray:
    flags = np.empty(len(codes) + 1, dtype=np.uint8)
    np.take(_FLAGS, codes, out=flags[:-1])
    flags[-1] = _WS | _KNOWN   # a sentinel that ends every run
    if not flags.all():
        _resolve_word(np.unique(codes[flags[:-1] == 0]).tolist())
        np.take(_FLAGS, codes, out=flags[:-1])
    return flags


class LoweredDocs(NamedTuple):
    """One batch of texts lowercased once and laid out for the signals."""
    codes: np.ndarray     # uint32 codepoints of " " + doc0.lower() + " " ...
    flags: np.ndarray     # class bits of ``codes``, then a whitespace sentinel
    bounds: np.ndarray    # int64 [start0, end0, start1, end1, ...] in codes
    n_chars: np.ndarray   # int64 length of each document before lowering
    start: np.ndarray     # code offset of each [a-z0-9]+ word ...
    end: np.ndarray       # ... and of the char after it
    doc: np.ndarray       # the document of each word
    wid: np.ndarray       # int64 id of each word, dense: vocab[wid] == word
    vocab: pa.Array       # the distinct words

    @property
    def nb(self) -> int:
        return len(self.n_chars)

    def per_doc(self, pos: np.ndarray) -> np.ndarray:
        """How many of the sorted code offsets ``pos`` fall in each doc."""
        return _count_in(pos, self.bounds)


def _count_in(pos: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(pos, bounds)
    return (idx[1::2] - idx[0::2]).astype(np.int64)


def _text_array(text) -> pa.Array:
    """A pandas Series or Arrow (chunked) array of texts as one Arrow
    string array, nulls as empty strings."""
    if isinstance(text, pd.Series):
        text = pa.array(text.to_numpy(dtype=object), pa.large_string(),
                        from_pandas=True)
    elif isinstance(text, pa.ChunkedArray):
        text = (text.chunk(0) if text.num_chunks == 1
                else text.combine_chunks())
    if not (pa.types.is_string(text.type)
            or pa.types.is_large_string(text.type)):
        text = text.cast(pa.large_string())
    return pc.fill_null(text, pa.scalar("", text.type))


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) offsets of the maximal True runs of ``mask``, which
    starts and ends False."""
    edges = np.flatnonzero(np.diff(mask.view(np.int8))) + 1
    return edges[0::2], edges[1::2]


def lowered_docs(text) -> LoweredDocs:
    """Lowercase a text column (pandas Series or Arrow array) once and cut
    out its words."""
    text = _text_array(text)
    n_chars = pc.utf8_length(text).to_numpy().astype(np.int64)
    nb = len(n_chars)
    low = ""
    if nb:
        joined = pc.binary_join_element_wise(
            pa.scalar(" ", text.type), text, pa.scalar("", text.type))
        _, offsets, data = joined.buffers()
        width = np.int64 if pa.types.is_large_string(text.type) else np.int32
        a, b = np.frombuffer(offsets, dtype=width)[
            [joined.offset, joined.offset + nb]]
        low = str(memoryview(data)[a:b], "utf-8")
    low_chars = n_chars
    if _I_DOT in low:
        low_chars = n_chars + pc.count_substring(text, _I_DOT).to_numpy()
    codes = np.frombuffer(low.lower().encode("utf-32-le"), dtype=np.uint32)
    ends = np.cumsum(low_chars + 1)
    if nb and ends[-1] != len(codes):
        raise AssertionError("str.lower() changed the length of a char "
                             "other than U+0130")
    bounds = np.empty(2 * nb, dtype=np.int64)
    bounds[0::2] = ends - low_chars
    bounds[1::2] = ends
    flags = _classify(codes)

    alnum = (flags & _ALNUM) != 0
    start, end = _runs(alnum)
    length = end - start
    offsets = np.zeros(len(start) + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    words = pa.LargeStringArray.from_buffers(
        len(start), pa.py_buffer(offsets),
        pa.py_buffer(codes[alnum[:-1]].astype(np.uint8)))
    enc = pc.dictionary_encode(words)
    doc = np.repeat(np.arange(nb, dtype=np.int64), _count_in(start, bounds))
    return LoweredDocs(codes, flags, bounds, n_chars, start, end, doc,
                       enc.indices.to_numpy().astype(np.int64),
                       enc.dictionary)


def check_stop_profile(words) -> tuple[str, ...]:
    """A frozen stopword profile, checked: every word must be lowercase
    ``[a-z0-9]+``, so that a stopword match is one of the batch's words
    with no other \\w char on either side (``stop_counts``)."""
    words = tuple(words)
    bad = [w for w in words if not re.fullmatch(r"[a-z0-9]+", w)]
    if bad or not words:
        raise ValueError(f"stopwords must be [a-z0-9]+: {bad or words}")
    return words


def _is_in(vocab: pa.Array, words) -> np.ndarray:
    return pc.is_in(vocab, value_set=pa.array(words, vocab.type)).to_numpy(
        zero_copy_only=False)


def stop_counts(docs: LoweredDocs, words=STOPWORDS,
                lang_of_doc: np.ndarray | None = None,
                profiles: dict | None = None) -> np.ndarray:
    """Occurrences of ``\\b(?:stopword)\\b`` in each lowercased document.

    Inside a maximal \\w run no \\b exists, so a match is exactly a \\w
    run whose whole content is a stopword; as stopwords are
    ``[a-z0-9]+``, that is a word of ``docs`` with no \\w char next to
    it.  ``words`` is the profile of every document, unless
    ``lang_of_doc`` names a language per document: then each document
    counts its language's ``profiles`` entry, ``words`` for the rest."""
    if lang_of_doc is None:
        is_stop = _is_in(docs.vocab, words)[docs.wid]
    else:
        lang, langs = pd.factorize(np.asarray(lang_of_doc, dtype=object))
        table = np.array(
            [_is_in(docs.vocab, profiles.get(lg, words)) for lg in langs],
            dtype=bool).reshape(len(langs), len(docs.vocab))
        is_stop = table[lang[docs.doc], docs.wid]
    edge = docs.flags[docs.start - 1] | docs.flags[docs.end]
    return docs.per_doc(docs.start[is_stop & ((edge & _WORD) == 0)])


def quality_signals(docs: LoweredDocs) -> dict[str, np.ndarray]:
    """``punct_ratio``, ``digit_ratio``, ``stop_ratio``, ``mean_word_len``
    (see ``quality_score_batch``)."""
    pos = np.flatnonzero(docs.flags & (_WS | _PUNCT | _DIGIT))
    cls = docs.flags[pos]
    ws = pos[(cls & _WS) != 0]
    punct = docs.per_doc(pos[(cls & _PUNCT) != 0])
    digits = docs.per_doc(pos[(cls & _DIGIT) != 0])
    # len(s.split()) == number of non-\s runs, each of which starts right
    # after a whitespace char (a doc's leading space at the latest)
    n_words = docs.per_doc(ws[:-1][np.diff(ws) > 1] + 1)
    word_chars = docs.n_chars - docs.per_doc(ws)
    stops = stop_counts(docs)
    safe_chars = np.maximum(docs.n_chars, 1).astype(np.float64)
    safe_words = np.maximum(n_words, 1).astype(np.float64)
    return {
        "punct_ratio": round_half_away(punct / safe_chars, 4),
        "digit_ratio": round_half_away(digits / safe_chars, 4),
        "stop_ratio": round_half_away(stops / safe_words, 4),
        "mean_word_len": round_half_away(word_chars / safe_words, 4),
    }


def _per_doc_max(doc: np.ndarray, vals: np.ndarray, nb: int) -> np.ndarray:
    """Per-document max of ``vals`` grouped by the sorted ``doc``."""
    out = np.zeros(nb, dtype=np.int64)
    if len(doc):
        first = np.flatnonzero(np.diff(doc, prepend=-1))
        out[doc[first]] = np.maximum.reduceat(vals, first)
    return out


def repetition_signals(docs: LoweredDocs) -> dict[str, np.ndarray]:
    """``n_words``, ``dup_word_frac``, ``top_word_frac``,
    ``top_bigram_frac``, ``max_word_run`` (see ``repetition_stats_batch``)
    over the ``[a-z0-9]+`` words of each lowercased document."""
    nb, doc, wid = docs.nb, docs.doc, docs.wid
    n = docs.per_doc(docs.start)
    distinct = top = btop = max_run = np.zeros(nb, dtype=np.int64)
    if len(wid):
        # every grouped count is a composite-integer np.unique, sorted by
        # doc, so per-doc maxima are reduceats
        C = np.int64(len(docs.vocab))
        uk, cnt = np.unique(doc * C + wid, return_counts=True)
        distinct = np.bincount(uk // C, minlength=nb)
        top = _per_doc_max(uk // C, cnt, nb)

        # adjacent bigrams: consecutive word pairs within the same doc
        same = doc[1:] == doc[:-1]
        if same.any():
            pk, pinv = np.unique(wid[:-1][same] * C + wid[1:][same],
                                 return_inverse=True)
            P = np.int64(len(pk))
            bk, bcnt = np.unique(doc[1:][same] * P + pinv, return_counts=True)
            btop = _per_doc_max(bk // P, bcnt, nb)

        # longest consecutive run: a new run where the word or doc changes
        brk = np.empty(len(wid), dtype=bool)
        brk[0] = True
        brk[1:] = (wid[1:] != wid[:-1]) | ~same
        ridx = np.flatnonzero(brk)
        max_run = _per_doc_max(doc[ridx], np.diff(ridx, append=len(wid)), nb)

    nf = n.astype(np.float64)
    safe = np.maximum(nf, 1.0)
    safe_bi = np.maximum(nf - 1.0, 1.0)
    return {
        "n_words": n,
        "dup_word_frac": np.where(
            n > 0, round_half_away(1.0 - distinct / safe, 4), 0.0),
        "top_word_frac": np.where(n > 0, round_half_away(top / safe, 4), 0.0),
        "top_bigram_frac": np.where(
            n > 1, round_half_away(btop / safe_bi, 4), 0.0),
        "max_word_run": max_run,
    }


def text_signals(text) -> dict[str, np.ndarray]:
    """The nine tier signals of a text column (pandas Series or Arrow
    array), in ``repetition_stats_batch`` then ``quality_score_batch``
    column order, from one lowering of the text."""
    docs = lowered_docs(text)
    return {**repetition_signals(docs), **quality_signals(docs)}


# text bytes per kernel call.  The kernel's heap grows with the text it is
# given: its numpy peak is ~18 B per char (tracemalloc: 7.1 MiB on a
# 512 KiB slice of 412k chars of the perfbench webtext docs; 44 B per char
# for the pandas kernel it replaced), plus Arrow's copy of the slice and
# its word dictionary.  Callers cut a batch into slices of this size, so
# the heap does not grow with the batch.
TIER_SLICE_BYTES = 512 << 10


def text_slices(text: pa.Array, limit: int) -> list[tuple[int, int]]:
    """``(start, stop)`` row ranges of a null-free text array holding at
    most ``limit`` bytes each (a longer row gets a range of its own);
    zero rows get one empty range."""
    ends = np.cumsum(pc.binary_length(text).to_numpy())
    bounds = [0]
    while bounds[-1] < len(text):
        start = bounds[-1]
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + limit, side="right"))
        bounds.append(max(stop, start + 1))
    return list(zip(bounds, bounds[1:])) or [(0, 0)]


def sliced_columns(fn, text) -> dict[str, np.ndarray]:
    """``fn`` over slices of at most ``TIER_SLICE_BYTES`` of a text column
    (pandas Series or Arrow array; nulls become empty strings), its
    per-row columns concatenated."""
    text = _text_array(text)
    parts = [fn(text.slice(a, b - a))
             for a, b in text_slices(text, TIER_SLICE_BYTES)]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _joined_codes(vals: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(utf-32 code array, per-doc char counts, doc start offsets)."""
    n_chars = np.fromiter((len(s) for s in vals), dtype=np.int64,
                          count=len(vals))
    starts = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(n_chars, out=starts[1:])
    joined = "".join(vals)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    return codes, n_chars, starts


# ASCII-word-or-single-symbol tokenizer ("BPE-ish"): matches DuckDB
# regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_ ]')
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_ ]")
_HANGUL_RE = re.compile(r"[가-힣ㄱ-ㆎ]")
_LATIN_RE = re.compile(r"[A-Za-z]")
_CJK_RE = re.compile(r"[一-鿿]")
_CYRILLIC_RE = re.compile(r"[Ѐ-ӿ]")
_PUNCT_RE = re.compile(r"[.,!?;:]")
_DIGIT_RE = re.compile(r"[0-9]")


def _count(series: pd.Series, rx: re.Pattern) -> pd.Series:
    return series.str.count(rx)


def lang_id_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Heuristic script-based language ID over character classes.

    Rule (frozen; SQL-mirrored): among {hangul, cjk, cyrillic, latin}
    character counts, the largest non-zero class wins with priority order
    hangul > cjk > cyrillic > latin on ties; all zero -> 'und'.
    Labels: ko / zh / ru / en / und.
    """
    t = batch[text_col].fillna("")
    hangul = _count(t, _HANGUL_RE)
    cjk = _count(t, _CJK_RE)
    cyr = _count(t, _CYRILLIC_RE)
    latin = _count(t, _LATIN_RE)
    best = pd.concat(
        {"ko": hangul, "zh": cjk, "ru": cyr, "en": latin}, axis=1
    )
    lang = best.idxmax(axis=1)  # ties resolve in column order = priority
    lang[best.max(axis=1) == 0] = "und"
    batch["lang_id"] = lang
    return batch


def token_stats_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Whitespace word count + ASCII-regex token count + char length."""
    t = batch[text_col].fillna("")
    batch["n_words"] = t.str.split().str.len().fillna(0).astype("int64")
    batch["n_tokens"] = t.str.count(_TOKEN_RE).astype("int64")
    batch["n_chars_out"] = t.str.len().astype("int64")
    return batch


def quality_score_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Length/punctuation/stopword quality profile (all ratios rounded to 4
    decimals so float math matches the SQL oracle bit-for-bit).

    quality components (reference analogues: word/char stats
    add_metadata.py:155-193, content filters metadata_generator.py:430-461):
      * punct_ratio  = sentence-punct chars / chars
      * digit_ratio  = digit chars / chars
      * stop_ratio   = stopword occurrences / whitespace words
      * mean_word_len = chars-in-words / words

    Computed by the tier-signal kernel (``quality_signals``) over slices
    of the batch; the batch's index is kept."""
    cols = sliced_columns(lambda t: quality_signals(lowered_docs(t)),
                          batch[text_col])
    for name, col in cols.items():
        batch[name] = col
    return batch


def char_entropy_batch(batch: pd.DataFrame, text_col: str = "text",
                       id_col: str = "doc_id") -> pd.DataFrame:
    """``(id_col, n_chars, n_unique_chars, char_entropy)`` — Shannon
    entropy in bits over each document's character (codepoint)
    distribution, the classic gibberish/randomness cue (near-zero for
    single-char runs, ~log2(alphabet) for keyboard mash / random
    bytes; natural prose sits in a stable per-language band).  Public
    heuristic family: RefinedWeb / Dolma-style quality filtering.

    Fully vectorized over the batch: one utf-32 code array for all
    texts (``_joined_codes``), per-(doc, codepoint) counts via a single
    ``np.unique`` on the packed ``doc << 21 | code`` key (codepoints
    are < 2^21 by Unicode's definition), then per-doc scatter-adds of
    the ``(k/n)·log2(n/k)`` terms.  Empty/NULL text scores 0.0 with 0
    unique chars.  Entropy is rounded to 4 places — summation order
    differs between engines, so the last-ulp noise is quantized away
    (same convention as the perplexity oracle)."""
    vals = batch[text_col].fillna("").tolist()
    codes, n_chars, _starts = _joined_codes(vals)
    n_docs = len(vals)
    ent = np.zeros(n_docs)
    nuniq = np.zeros(n_docs, dtype=np.int64)
    if len(codes):
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_chars)
        key = (doc_of << np.int64(21)) | codes.astype(np.int64)
        uniq, cnt = np.unique(key, return_counts=True)
        d = (uniq >> np.int64(21)).astype(np.int64)
        n_d = n_chars[d].astype(np.float64)
        np.add.at(ent, d, (cnt / n_d) * np.log2(n_d / cnt))
        np.add.at(nuniq, d, 1)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_chars": n_chars,
        "n_unique_chars": nuniq,
        "char_entropy": round_half_away(ent, 4),
    })


def word_entropy_batch(batch: pd.DataFrame, text_col: str = "text",
                       id_col: str = "doc_id") -> pd.DataFrame:
    """``(id_col, n_words, n_unique_words, word_entropy)`` — Shannon
    entropy in bits over each document's unigram WORD distribution
    (words = ``[a-z0-9]+`` runs of the lowercased text, the corpus word
    rule shared with ``repetition_stats_batch``).  The lexical-diversity
    twin of :func:`char_entropy_batch`: SEO keyword-stuffing and
    template spam repeat a tiny vocabulary (entropy near 0 despite
    normal char entropy), while natural prose sits near
    ``log2(n_unique_words)``-ish bands.  Public heuristic family:
    Gopher / RefinedWeb-style repetition+diversity filters.

    Vectorized: one ``pd.factorize`` over the batch's flattened words,
    per-(doc, word) counts via a single ``np.unique`` on the packed
    ``doc*C + code`` key, then per-doc scatter-adds of the
    ``(k/n)·log2(n/k)`` terms.  Empty/NULL text scores 0.0.  Entropy is
    rounded to 4 places (sum-order ulp convention, as char entropy)."""
    low = batch[text_col].fillna("").str.lower().reset_index(drop=True)
    words = low.str.findall(_WORD_ONLY_RE)
    n = words.str.len().to_numpy(dtype=np.int64)
    nb = len(low)
    flat = [w for lst in words for w in lst]
    ent = np.zeros(nb)
    nuniq = np.zeros(nb, dtype=np.int64)
    if flat:
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        codes = codes.astype(np.int64)
        i = np.repeat(np.arange(nb, dtype=np.int64), n)
        C = np.int64(len(uniq))
        uk, cnt = np.unique(i * C + codes, return_counts=True)
        d = uk // C
        n_d = n[d].astype(np.float64)
        np.add.at(ent, d, (cnt / n_d) * np.log2(n_d / cnt))
        np.add.at(nuniq, d, 1)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_words": n,
        "n_unique_words": nuniq,
        "word_entropy": round_half_away(ent, 4),
    })


def word_entropy_oracle_sql(table: str = "documents",
                            text_expr: str = "text",
                            id_col: str = "doc_id") -> str:
    """DuckDB mirror of :func:`word_entropy_batch` (same shape as the
    char-entropy oracle, words via ``regexp_extract_all``)."""
    return f"""
WITH b AS (SELECT {id_col},
                  regexp_extract_all(lower(coalesce({text_expr}, '')),
                                     '[a-z0-9]+') AS arr
           FROM {table}),
tot AS (SELECT {id_col}, len(arr) AS n FROM b),
wc AS (
  SELECT {id_col}, w, count(*) AS k
  FROM (SELECT {id_col}, unnest(arr) AS w FROM b)
  GROUP BY 1, 2
),
ag AS (
  SELECT wc.{id_col}, count(*) AS nu,
         sum((k / CAST(n AS DOUBLE)) * log2(CAST(n AS DOUBLE) / k)) AS h
  FROM wc JOIN tot USING ({id_col}) GROUP BY wc.{id_col}
)
SELECT tot.{id_col}, tot.n AS n_words,
       coalesce(ag.nu, 0) AS n_unique_words,
       round(coalesce(ag.h, 0.0), 4) AS word_entropy
FROM tot LEFT JOIN ag USING ({id_col})
"""


def casing_stats_batch(batch: pd.DataFrame, text_col: str = "text",
                       id_col: str = "doc_id") -> pd.DataFrame:
    """``(id_col, n_alpha_words, caps_word_frac, title_word_frac,
    upper_char_frac)`` — casing cues: ALL-CAPS shouting (spam/ads),
    Title-Case-Every-Word headlines and listicles, and the raw
    upper/letter ratio.  Frozen ASCII rules: words are maximal
    ``[A-Za-z]+`` runs; a caps word fully matches ``[A-Z]{2,}``; a
    title word fully matches ``[A-Z][a-z]+``; fractions divide by
    ``max(count, 1)`` and round to 4.  One vectorized explode +
    fullmatch pass, zero shuffles; every rule mirrors in DuckDB
    (``list_filter`` + anchored ``regexp_matches``)."""
    t = batch[text_col].fillna("").astype(str)
    words = t.str.findall(r"[A-Za-z]+")
    n = words.str.len().to_numpy(np.int64)
    nb = len(t)
    flat = words.explode().dropna()
    caps = np.zeros(nb, dtype=np.int64)
    title = np.zeros(nb, dtype=np.int64)
    if len(flat):
        idx = flat.index.to_numpy()
        np.add.at(caps, idx,
                  flat.str.fullmatch(r"[A-Z]{2,}").to_numpy(bool))
        np.add.at(title, idx,
                  flat.str.fullmatch(r"[A-Z][a-z]+").to_numpy(bool))
    upper = t.str.count(r"[A-Z]").to_numpy(np.int64)
    letters = t.str.count(r"[A-Za-z]").to_numpy(np.int64)
    safe_n = np.maximum(n, 1)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_alpha_words": n,
        "caps_word_frac": round_half_away(caps / safe_n, 4),
        "title_word_frac": round_half_away(title / safe_n, 4),
        "upper_char_frac": round_half_away(
            upper / np.maximum(letters, 1), 4),
    })


def casing_stats_oracle_sql(table: str = "documents",
                            text_expr: str = "text",
                            id_col: str = "doc_id") -> str:
    """DuckDB mirror of :func:`casing_stats_batch` (anchored
    regexp_matches inside list_filter — no lookarounds, RE2-safe)."""
    return f"""
WITH b AS (SELECT {id_col}, coalesce({text_expr}, '') AS t FROM {table}),
c AS (
  SELECT {id_col},
         regexp_extract_all(t, '[A-Za-z]+') AS ws,
         len(regexp_extract_all(t, '[A-Z]')) AS nup,
         len(regexp_extract_all(t, '[A-Za-z]')) AS nlet
  FROM b
)
SELECT {id_col},
       CAST(len(ws) AS BIGINT) AS n_alpha_words,
       round(len(list_filter(ws, x -> regexp_matches(x, '^[A-Z]{{2,}}$')))
             / CAST(greatest(len(ws), 1) AS DOUBLE), 4) AS caps_word_frac,
       round(len(list_filter(ws, x -> regexp_matches(x, '^[A-Z][a-z]+$')))
             / CAST(greatest(len(ws), 1) AS DOUBLE), 4) AS title_word_frac,
       round(nup / CAST(greatest(nlet, 1) AS DOUBLE), 4) AS upper_char_frac
FROM c
"""


def gopher_ngram_stats_batch(
    batch: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5, 6, 7, 8, 9, 10),
) -> pd.DataFrame:
    """The remaining Gopher §A1.1 repetition battery (Rae et al. 2021,
    public paper): per document,

    - ``top_{n}gram_char_frac`` (n in ``top_ns``): word-characters in
      occurrences of the MOST FREQUENT n-gram divided by total word
      characters (overlapping occurrences double-count, the public
      reimplementation convention; ties on count break to the larger
      character coverage — a frozen deterministic rule);
    - ``dup_{n}gram_char_frac`` (n in ``dup_ns``): word-characters
      COVERED by at least one n-gram occurring >= 2 times in the doc,
      divided by total word characters (union coverage — overlapping
      duplicate grams never double-count, per the paper's "taking care
      not to count characters twice").

    Frozen accounting: words are ``[a-z0-9]+`` runs of the lowercased
    text; "characters" = word characters only (separators excluded), so
    the DuckDB oracle's space-joined gram strings are injective.

    Vectorized: ONE factorize of the batch's words, then gram codes for
    k = 2..max(n) built incrementally by packing (prev-gram code, next
    word code) through ``np.unique`` — every count/coverage after that
    is integer scatter-add / reduceat work.  No corpus state, zero
    shuffles."""
    low = batch[text_col].fillna("").str.lower().reset_index(drop=True)
    words = low.str.findall(_WORD_ONLY_RE)
    n = words.str.len().to_numpy(dtype=np.int64)
    nb = len(low)
    flat = [w for lst in words for w in lst]
    max_n = max((*top_ns, *dup_ns), default=0)
    top_out = {k: np.zeros(nb) for k in top_ns}
    dup_out = {k: np.zeros(nb) for k in dup_ns}
    if flat and max_n:
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        codes = codes.astype(np.int64)
        L = len(codes)
        i = np.repeat(np.arange(nb, dtype=np.int64), n)
        wlen = np.fromiter((len(u) for u in uniq), np.int64,
                           len(uniq))[codes]
        pref = np.concatenate(([np.int64(0)], np.cumsum(wlen)))
        tot = np.zeros(nb, dtype=np.int64)
        np.add.at(tot, i, wlen)
        totf = np.maximum(tot.astype(np.float64), 1.0)
        C = np.int64(len(uniq))

        starts = np.arange(L, dtype=np.int64)  # k=1 grams: every word
        gcode = codes
        for k in range(2, max_n + 1):
            # extend the (k-1)-grams at `starts` by the next word:
            # valid where that word exists and stays in the doc
            keep = starts + (k - 1) < L
            s2 = starts[keep]
            same = i[s2] == i[s2 + (k - 1)]
            s2 = s2[same]
            if not len(s2):
                starts = s2
                gcode = s2
                continue
            pack = gcode[keep][same] * C + codes[s2 + (k - 1)]
            _, inv = np.unique(pack, return_inverse=True)
            starts, gcode = s2, inv.astype(np.int64)
            if k not in top_ns and k not in dup_ns:
                continue
            G = np.int64(gcode.max()) + 1
            key = i[starts] * G + gcode
            uk, inv2, cnt = np.unique(key, return_inverse=True,
                                      return_counts=True)
            doc_of = (uk // G).astype(np.int64)
            glen = pref[starts + k] - pref[starts]
            if k in dup_ns:
                dstart = starts[cnt[inv2] >= 2]
                delta = np.zeros(L + 1, dtype=np.int64)
                np.add.at(delta, dstart, 1)
                np.add.at(delta, dstart + k, -1)
                covered = np.cumsum(delta[:L]) > 0
                cov = np.zeros(nb, dtype=np.int64)
                np.add.at(cov, i[covered], wlen[covered])
                dup_out[k] = cov / totf
            if k in top_ns:
                glen_g = np.zeros(len(uk), dtype=np.int64)
                glen_g[inv2] = glen  # all occurrences share the length
                mx = np.zeros(nb, dtype=np.int64)
                np.maximum.at(mx, doc_of, cnt)
                cand = np.where(cnt == mx[doc_of], cnt * glen_g, 0)
                best = np.zeros(nb, dtype=np.int64)
                np.maximum.at(best, doc_of, cand)
                top_out[k] = best / totf
    out = {id_col: batch[id_col].to_numpy(), "n_words": n}
    for k in top_ns:
        out[f"top_{k}gram_char_frac"] = round_half_away(top_out[k], 4)
    for k in dup_ns:
        out[f"dup_{k}gram_char_frac"] = round_half_away(dup_out[k], 4)
    return pd.DataFrame(out)


def gopher_ngram_oracle_sql(
    table: str = "documents",
    text_expr: str = "text",
    id_col: str = "doc_id",
    top_ns: tuple[int, ...] = (2, 3, 4),
    dup_ns: tuple[int, ...] = (5, 6, 7, 8, 9, 10),
) -> str:
    """DuckDB mirror of :func:`gopher_ngram_stats_batch`: grams are the
    space-joined word windows (injective — words never contain spaces),
    duplicate-gram coverage is the DISTINCT covered word-position set
    joined back to per-word lengths, top-gram ties break to
    ``max(count * gram_chars)`` exactly like the engine."""
    ctes, joins, sel = [], [], []
    for k in sorted(set(top_ns) | set(dup_ns)):
        leads = ", ".join(
            f"lead(word, {j}) OVER (PARTITION BY d ORDER BY pos) AS w{j}"
            for j in range(1, k))
        gram = " || ' ' || ".join(["word"] + [f"w{j}" for j in range(1, k)])
        glen = " + ".join(["length(word)"]
                          + [f"length(w{j})" for j in range(1, k)])
        ctes.append(f"""g{k} AS (
  SELECT d, pos, {gram} AS gram, {glen} AS glen
  FROM (SELECT d, pos, word, {leads} FROM w)
  WHERE w{k - 1} IS NOT NULL
)""")
        if k in dup_ns:
            ctes.append(f"""dup{k} AS (
  SELECT d, gram FROM g{k} GROUP BY d, gram HAVING count(*) >= 2
), cov{k} AS (
  SELECT DISTINCT d, p FROM (
    SELECT g.d AS d, unnest(range(g.pos, g.pos + {k})) AS p
    FROM g{k} g JOIN dup{k} USING (d, gram))
), dupc{k} AS (
  SELECT c.d, sum(length(w.word)) AS v
  FROM cov{k} c JOIN w ON w.d = c.d AND w.pos = c.p GROUP BY c.d
)""")
            joins.append(f"LEFT JOIN dupc{k} USING (d)")
        if k in top_ns:
            ctes.append(f"""gc{k} AS (
  SELECT d, gram, count(*) AS c, min(glen) AS glen
  FROM g{k} GROUP BY d, gram
), mt{k} AS (SELECT d, max(c) AS mc FROM gc{k} GROUP BY d),
topc{k} AS (
  SELECT gc.d, max(c * glen) AS v
  FROM gc{k} gc JOIN mt{k} USING (d) WHERE c = mc GROUP BY gc.d
)""")
            joins.append(f"LEFT JOIN topc{k} USING (d)")
    for k in top_ns:
        sel.append(f"round(coalesce(topc{k}.v, 0) "
                   f"/ greatest(chars, 1.0), 4) AS top_{k}gram_char_frac")
    for k in dup_ns:
        sel.append(f"round(coalesce(dupc{k}.v, 0) "
                   f"/ greatest(chars, 1.0), 4) AS dup_{k}gram_char_frac")
    body = ",\n".join(ctes)
    return f"""
WITH s AS (SELECT {id_col} AS d,
                  regexp_extract_all(lower(coalesce({text_expr}, '')),
                                     '[a-z0-9]+') AS arr
           FROM {table}),
w AS (SELECT d, unnest(arr) AS word,
             unnest(range(1, len(arr) + 1)) AS pos
      FROM s),
tot AS (SELECT s.d, len(s.arr) AS n_words,
               CAST(coalesce(t.c, 0) AS DOUBLE) AS chars
        FROM s LEFT JOIN (SELECT d, sum(length(word)) AS c FROM w
                          GROUP BY d) t USING (d)),
{body}
SELECT tot.d AS {id_col}, tot.n_words,
       {", ".join(sel)}
FROM tot {" ".join(joins)}
"""


def dup_segment_stats_batch(batch: pd.DataFrame, text_col: str = "text",
                            id_col: str = "doc_id") -> pd.DataFrame:
    """``(id_col, n_lines, dup_line_char_frac, n_paras,
    dup_para_char_frac)`` — the Gopher duplicate-segment signals (Rae
    et al. 2021 §A1.1, public paper): the fraction of a document's
    characters sitting inside lines (split on ``\\n``) / paragraphs
    (split on ``\\n\\n``) that occur more than once IN THAT DOCUMENT.

    Frozen accounting: separators are excluded from both numerator and
    denominator; empty segments (consecutive separators) count like any
    other segment — Python ``str.split(sep)`` and DuckDB
    ``string_split`` agree on them; a document whose segments hold zero
    characters scores 0.0.  All-integer arithmetic until the final
    division, so the SQL oracle is exact (round 4 by convention)."""
    vals = batch[text_col].fillna("").astype(str)
    out = {id_col: batch[id_col].to_numpy()}
    for name, sep in (("line", "\n"), ("para", "\n\n")):
        segs = vals.str.split(sep)
        n_seg = segs.str.len().to_numpy(np.int64)
        d = np.repeat(np.arange(len(vals), dtype=np.int64), n_seg)
        flat = segs.explode()
        df = pd.DataFrame({"d": d, "s": flat.to_numpy(),
                           "L": flat.str.len().to_numpy(np.int64)})
        g = df.groupby(["d", "s"], sort=False, as_index=False).agg(
            n=("L", "size"), L=("L", "first"))
        occ_chars = g["n"].to_numpy(np.int64) * g["L"].to_numpy(np.int64)
        tot = np.zeros(len(vals), dtype=np.int64)
        dup = np.zeros(len(vals), dtype=np.int64)
        gd = g["d"].to_numpy(np.int64)
        np.add.at(tot, gd, occ_chars)
        np.add.at(dup, gd, np.where(g["n"].to_numpy() > 1, occ_chars, 0))
        out[f"n_{name}s"] = n_seg
        out[f"dup_{name}_char_frac"] = round_half_away(
            dup / np.maximum(tot, 1), 4)
    return pd.DataFrame(out)[
        [id_col, "n_lines", "dup_line_char_frac",
         "n_paras", "dup_para_char_frac"]]


_BULLET_CHARS = ("•", "‣", "▪", "-", "*", "–")


def gopher_line_signals_batch(batch: pd.DataFrame, text_col: str = "text",
                              id_col: str = "doc_id") -> pd.DataFrame:
    """The remaining Gopher line-level quality cues (Rae et al. 2021
    §A1.1, public paper): ``(id_col, n_lines, frac_lines_end_ellipsis,
    frac_lines_start_bullet, symbol_word_ratio, frac_words_alpha)``.

    Frozen rules (all SQL-mirrorable, judged on the RAW line — no
    trimming, sidestepping the Unicode-vs-ASCII ``\\s`` divergence):
      * a line "ends with ellipsis" iff it ends with ``...`` or ``…``;
      * a line "starts with a bullet" iff its first character is one of
        ``• ‣ ▪ - * –``;
      * ``symbol_word_ratio`` = (count('#') + count('…') +
        non-overlapping count('...')) / max(words, 1);
      * ``frac_words_alpha`` = fraction of whitespace words containing
        at least one ASCII letter (ASCII by design — see the
        text-density ASCII caveat).
    Ratios rounded to 4 places; words = ``len(s.split())``."""
    t = batch[text_col].fillna("").astype(str)
    n_docs = len(t)
    # --- line cues ---------------------------------------------------
    segs = t.str.split("\n")
    n_lines = segs.str.len().to_numpy(np.int64)
    d = np.repeat(np.arange(n_docs, dtype=np.int64), n_lines)
    flat = segs.explode()
    ell = flat.str.endswith(("...", "…")).to_numpy(bool)
    first = flat.str.slice(0, 1)
    bul = first.isin(_BULLET_CHARS).to_numpy(bool)
    n_ell = np.zeros(n_docs, dtype=np.int64)
    n_bul = np.zeros(n_docs, dtype=np.int64)
    np.add.at(n_ell, d, ell)
    np.add.at(n_bul, d, bul)
    safe_lines = np.maximum(n_lines, 1).astype(np.float64)
    # --- word cues ---------------------------------------------------
    words = t.str.split()
    n_words = words.str.len().fillna(0).to_numpy(np.int64)
    wd = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
    wflat = words.explode().dropna()
    alpha = wflat.str.contains("[A-Za-z]", regex=True).to_numpy(bool)
    n_alpha = np.zeros(n_docs, dtype=np.int64)
    np.add.at(n_alpha, wd, alpha)
    symbols = (t.str.count("#", ).to_numpy(np.int64)
               + t.str.count("…").to_numpy(np.int64)
               + t.str.count(r"\.\.\.").to_numpy(np.int64))
    safe_words = np.maximum(n_words, 1).astype(np.float64)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_lines": n_lines,
        "frac_lines_end_ellipsis": round_half_away(n_ell / safe_lines, 4),
        "frac_lines_start_bullet": round_half_away(n_bul / safe_lines, 4),
        "symbol_word_ratio": round_half_away(symbols / safe_words, 4),
        "frac_words_alpha": round_half_away(n_alpha / safe_words, 4),
    })


def gopher_line_oracle_sql(source_sql: str, id_col: str = "doc_id",
                           word_count_sql=None) -> str:
    """DuckDB mirror of ``gopher_line_signals_batch`` over ``source_sql``
    (producing ``(id_col, text)``).  ``word_count_sql`` is a callable
    rendering Python ``len(s.split())`` for a SQL expression (the
    engine-wide convention, ``__ray_entry__._word_count_sql``)."""
    wc = word_count_sql("t") if word_count_sql else "len(regexp_split_to_array(trim(t), '\\s+'))"
    bullets = ", ".join(f"'{c}'" for c in _BULLET_CHARS)
    return f"""
WITH src AS ({source_sql}),
b AS (SELECT {id_col}, coalesce(text, '') AS t FROM src),
ln AS (
  SELECT {id_col}, CAST(count(*) AS BIGINT) AS n_lines,
    CAST(sum(CASE WHEN s LIKE '%...' OR s LIKE '%…' THEN 1 ELSE 0 END)
         AS BIGINT) AS n_ell,
    CAST(sum(CASE WHEN substr(s, 1, 1) IN ({bullets}) THEN 1 ELSE 0 END)
         AS BIGINT) AS n_bul
  FROM (SELECT {id_col}, unnest(string_split(t, chr(10))) AS s FROM b)
  GROUP BY {id_col}
),
wa AS (
  -- plain ASCII trim here (the text-density ASCII caveat): parity with
  -- the Unicode-aware Python .split() holds on ASCII-whitespace input
  SELECT {id_col},
    CAST(sum(CASE WHEN regexp_matches(w, '[A-Za-z]') THEN 1 ELSE 0 END)
         AS BIGINT) AS n_alpha
  FROM (SELECT {id_col},
               unnest(regexp_split_to_array(trim(t), '\\s+')) AS w
        FROM b WHERE trim(t) <> '')
  GROUP BY {id_col}
),
sy AS (
  SELECT {id_col}, {wc} AS words,
    (length(t) - length(replace(t, '#', '')))
    + (length(t) - length(replace(t, '…', '')))
    + (length(t) - length(replace(t, '...', ''))) / 3 AS symbols
  FROM b
)
SELECT b.{id_col}, ln.n_lines,
  round(ln.n_ell / CAST(ln.n_lines AS DOUBLE), 4)
    AS frac_lines_end_ellipsis,
  round(ln.n_bul / CAST(ln.n_lines AS DOUBLE), 4)
    AS frac_lines_start_bullet,
  round(sy.symbols / CAST(greatest(sy.words, 1) AS DOUBLE), 4)
    AS symbol_word_ratio,
  round(coalesce(wa.n_alpha, 0)
        / CAST(greatest(sy.words, 1) AS DOUBLE), 4)
    AS frac_words_alpha
FROM b JOIN ln USING ({id_col}) JOIN sy USING ({id_col})
LEFT JOIN wa USING ({id_col})
"""


def dup_segment_oracle_sql(source_sql: str,
                           id_col: str = "doc_id") -> str:
    """DuckDB mirror of ``dup_segment_stats_batch`` over ``source_sql``
    (a query producing ``(id_col, text)``)."""

    def one(sep_sql: str, name: str) -> str:
        return f"""
  SELECT {id_col}, CAST(sum(n) AS BIGINT) AS n_{name}s,
         round(sum(CASE WHEN n > 1 THEN n * L ELSE 0 END)
               / CAST(greatest(sum(n * L), 1) AS DOUBLE), 4)
           AS dup_{name}_char_frac
  FROM (
    SELECT {id_col}, s, count(*) AS n, length(s) AS L
    FROM (SELECT {id_col}, unnest(string_split(coalesce(text, ''),
                                               {sep_sql})) AS s
          FROM src)
    GROUP BY {id_col}, s
  ) GROUP BY {id_col}"""

    return f"""
WITH src AS ({source_sql}),
lines AS ({one("chr(10)", "line")}),
paras AS ({one("chr(10) || chr(10)", "para")})
SELECT {id_col}, n_lines, dup_line_char_frac, n_paras, dup_para_char_frac
FROM lines JOIN paras USING ({id_col})
"""


def char_entropy_oracle_sql(table: str = "documents",
                            text_expr: str = "text",
                            id_col: str = "doc_id") -> str:
    """DuckDB mirror of ``char_entropy_batch``: ``string_split(t, '')``
    splits to codepoints exactly like Python iteration (and ``length``
    counts codepoints, matching ``len``); the empty string splits to
    ``['']`` in DuckDB, filtered by ``c <> ''`` (a real character is
    never the empty string)."""
    return f"""
WITH b AS (SELECT {id_col}, coalesce({text_expr}, '') AS t FROM {table}),
tot AS (SELECT {id_col}, length(t) AS n FROM b),
cc AS (
  SELECT {id_col}, c, count(*) AS k
  FROM (SELECT {id_col}, unnest(string_split(t, '')) AS c FROM b)
  WHERE c <> '' GROUP BY 1, 2
),
ag AS (
  SELECT cc.{id_col}, count(*) AS nu,
         sum((k / CAST(n AS DOUBLE)) * log2(CAST(n AS DOUBLE) / k)) AS h
  FROM cc JOIN tot USING ({id_col}) GROUP BY cc.{id_col}
)
SELECT tot.{id_col}, tot.n AS n_chars,
       coalesce(ag.nu, 0) AS n_unique_chars,
       round(coalesce(ag.h, 0.0), 4) AS char_entropy
FROM tot LEFT JOIN ag USING ({id_col})
"""


_RD_WORD_RE = re.compile(r"[A-Za-z]+")
_RD_VOWEL_RE = re.compile(r"[aeiouyAEIOUY]+")
_RD_VOWEL_WORD_RE = re.compile(r"[A-Za-z]*[aeiouyAEIOUY][A-Za-z]*")
_RD_SENT_RE = re.compile(r"[.!?]+")


def readability_batch(batch: pd.DataFrame, text_col: str = "text",
                      id_col: str = "doc_id") -> pd.DataFrame:
    """Flesch reading-ease score (Flesch 1948; the readability gate of
    education-quality corpus filters) under FROZEN ASCII rules so the
    SQL oracle mirrors it exactly:

    - words     = maximal ``[A-Za-z]+`` runs
    - sentences = maximal ``[.!?]+`` runs, floor 1
    - syllables = maximal vowel-group runs ``[aeiouy]+`` (case-blind),
      with vowel-less words (``tv``) counting 1: since every vowel sits
      inside some letter run, total vowel groups in the TEXT equals the
      per-word sum, and the vowel-less-word count is ``n_words`` minus
      matches of ``[A-Za-z]*[aeiouy][A-Za-z]*`` (regex leftmost-longest
      over a letter run == "the run contains a vowel" — identical in
      Python re and RE2).

    ``flesch = round(206.835 - 1.015*(w/s) - 84.6*(syll/w), 4)`` with
    the exact same IEEE expression shape as the SQL; NULL (NaN) when a
    doc has no words.  One narrow vectorized map, zero shuffles.
    """
    t = batch[text_col].fillna("").astype(str)
    nw = t.str.count(_RD_WORD_RE).to_numpy(np.int64)
    vg = t.str.count(_RD_VOWEL_RE).to_numpy(np.int64)
    vw = t.str.count(_RD_VOWEL_WORD_RE).to_numpy(np.int64)
    ns = np.maximum(t.str.count(_RD_SENT_RE).to_numpy(np.int64), 1)
    syll = vg + (nw - vw)
    with np.errstate(divide="ignore", invalid="ignore"):
        flesch = np.round(
            206.835 - 1.015 * (nw / ns) - 84.6 * (syll / nw), 4)
    flesch = np.where(nw > 0, flesch, np.nan)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_words_rd": nw,
        "n_sentences": ns,
        "n_syllables": syll,
        "flesch": flesch,
    })


def readability_oracle_sql(source_sql: str, text_col: str = "text",
                           id_col: str = "doc_id") -> str:
    """DuckDB mirror of :func:`readability_batch` (same counts via
    ``len(regexp_extract_all(...))``, same expression shape)."""
    t = f"coalesce({text_col}, '')"
    nw = f"len(regexp_extract_all({t}, '[A-Za-z]+'))"
    vg = f"len(regexp_extract_all({t}, '[aeiouyAEIOUY]+'))"
    vw = (f"len(regexp_extract_all({t}, "
          f"'[A-Za-z]*[aeiouyAEIOUY][A-Za-z]*'))")
    ns = f"greatest(len(regexp_extract_all({t}, '[.!?]+')), 1)"
    return f"""
WITH c AS (
  SELECT {id_col}, {nw} AS nw, {vg} + ({nw} - {vw}) AS syll, {ns} AS ns
  FROM ({source_sql})
)
SELECT {id_col}, nw AS n_words_rd, ns AS n_sentences,
       syll AS n_syllables,
       CASE WHEN nw > 0 THEN round(
         206.835 - 1.015*(nw / CAST(ns AS DOUBLE))
                 - 84.6*(syll / CAST(nw AS DOUBLE)), 4)
       END AS flesch
FROM c
"""


def compression_ratio_batch(batch: pd.DataFrame,
                            text_col: str = "text",
                            level: int = 6) -> pd.DataFrame:
    """zlib compression ratio — the classic "too repetitive / too random"
    quality signal (Dolma/RedPajama family): natural prose compresses to
    ~0.3-0.5, boilerplate and repeated spans far lower, random ids far
    higher.  Per-doc zlib is one C call per row (the same inherent
    per-document cost class as parsing); deterministic for a pinned zlib,
    so the driver check is a golden determinism freeze.

    Emits ``n_bytes`` (utf-8), ``n_compressed`` and ``compression_ratio``
    (compressed/raw, 0.0 for empty docs, rounded to 4)."""
    import zlib

    from pdf_extract_ray.util import round_half_away

    t = batch[text_col].fillna("")
    raw = [s.encode("utf-8") for s in t]
    comp = np.fromiter((len(zlib.compress(b, level)) for b in raw),
                       dtype=np.int64, count=len(raw))
    nb = np.fromiter((len(b) for b in raw), dtype=np.int64, count=len(raw))
    batch["n_bytes"] = nb
    batch["n_compressed"] = comp
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nb > 0, comp / np.maximum(nb, 1), 0.0)
    batch["compression_ratio"] = round_half_away(ratio, 4)
    return batch


def fingerprint_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Normalized-content fingerprint: md5(lower(whitespace-collapsed text)).

    SQL mirror: md5(lower(regexp_replace(trim(text), '\\s+', ' ', 'g'))).
    Used as the exact-dedup key (D1) and for cross-run content lineage.
    """
    import hashlib

    t = (
        batch[text_col]
        .fillna("")
        .str.replace(r"\s+", " ", regex=True)
        .str.strip()
        .str.lower()
    )
    batch["fingerprint"] = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t]
    return batch


def nfc_normalize_batch(batch: pd.DataFrame, text_col: str = "text",
                        out_col: str = "text_nfc") -> pd.DataFrame:
    """Unicode NFC normalization (canonical composition) — the standard
    first cleaning pass over crawled text, where the same visible string
    arrives in mixed composed/decomposed forms and breaks exact-dedup /
    grouping keys downstream.

    ``unicodedata.is_normalized`` short-circuits the (overwhelmingly
    common) already-NFC case without allocating; only non-NFC rows pay
    the normalize call.  SQL mirror: DuckDB ``nfc_normalize`` (verified
    parity — both implement UAX#15).  Adds ``out_col`` plus ``changed``.
    """
    import unicodedata

    t = batch[text_col].fillna("")
    norm = [s if unicodedata.is_normalized("NFC", s)
            else unicodedata.normalize("NFC", s) for s in t]
    batch[out_col] = norm
    batch["changed"] = [o is not s for o, s in zip(norm, t)]
    return batch


_WORD_ONLY_RE = re.compile(r"[a-z0-9]+")


def repetition_stats_batch(batch: pd.DataFrame,
                           text_col: str = "text") -> pd.DataFrame:
    """Gopher-style repetition signals per document (Rae et al. 2021,
    "Scaling Language Models", §A1.1 quality filters — public paper):
    ``dup_word_frac`` (1 - distinct/total words), ``top_word_frac`` /
    ``top_bigram_frac`` (share of the most frequent word / adjacent
    bigram) and ``max_word_run`` (longest consecutive same-word run).
    Heavily repeated boilerplate scores high and gets filtered before
    training.

    Batch-local, no corpus state, no shuffle: the tier-signal kernel
    (``repetition_signals``) over slices of the batch; every rule mirrors
    in DuckDB SQL (unnest + window functions) for the oracle."""
    out = batch.reset_index(drop=True).copy()
    cols = sliced_columns(lambda t: repetition_signals(lowered_docs(t)),
                          out[text_col])
    for name, col in cols.items():
        out[name] = col
    return out


REPETITION_ORACLE_SQL = """
WITH s AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text,'')), '[a-z0-9]+') AS arr
  FROM documents
), w AS (
  SELECT doc_id, unnest(arr) AS word,
         unnest(range(1, len(arr) + 1)) AS pos
  FROM s
), wc AS (
  SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word
), agg AS (
  SELECT doc_id, count(*) AS n_distinct, max(c) AS top_c
  FROM wc GROUP BY doc_id
), b AS (
  SELECT doc_id, word,
         lead(word) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
  FROM w
), bagg AS (
  SELECT doc_id, max(c) AS top_b FROM (
    SELECT doc_id, word, nxt, count(*) AS c FROM b
    WHERE nxt IS NOT NULL GROUP BY doc_id, word, nxt)
  GROUP BY doc_id
), r AS (
  SELECT doc_id,
         pos - row_number() OVER (PARTITION BY doc_id, word ORDER BY pos)
           AS grp, word
  FROM w
), ragg AS (
  SELECT doc_id, max(runlen) AS max_run FROM (
    SELECT doc_id, count(*) AS runlen FROM r GROUP BY doc_id, word, grp)
  GROUP BY doc_id
)
SELECT s.doc_id, len(s.arr) AS n_words,
  CASE WHEN len(s.arr) > 0
       THEN round(1.0 - agg.n_distinct / len(s.arr)::DOUBLE, 4)
       ELSE 0.0 END AS dup_word_frac,
  CASE WHEN len(s.arr) > 0
       THEN round(agg.top_c / len(s.arr)::DOUBLE, 4)
       ELSE 0.0 END AS top_word_frac,
  CASE WHEN len(s.arr) > 1
       THEN round(bagg.top_b / (len(s.arr) - 1)::DOUBLE, 4)
       ELSE 0.0 END AS top_bigram_frac,
  coalesce(ragg.max_run, 0) AS max_word_run
FROM s
LEFT JOIN agg USING (doc_id)
LEFT JOIN bagg USING (doc_id)
LEFT JOIN ragg USING (doc_id)
"""


# winnowing fingerprints live in functions/fingerprint.py (scalar, not
# SQL-mirrorable); re-exported here for discoverability next to the md5
# content fingerprint
from pdf_extract_ray.functions.fingerprint import (  # noqa: E402,F401
    winnow_fingerprints,
    winnow_overlap,
)


def word_counts(ds, text_col: str = "text", *, top_k: int | None = None):
    """Corpus word frequencies — the canonical distributed wordcount
    (stopword discovery, vocab stats): words are ``[a-z0-9]+`` runs over
    the lowercased text (the repetition kernel's word rule).

    Scale shape: per-batch findall + np.unique pre-count (map-side
    combine — a batch contributes at most one row per distinct word),
    ONE (word, n) grouped merge; with ``top_k`` a final sort over the
    vocab-sized count table (n desc, word asc tie-break) + limit.
    """
    import re as _re

    from pdf_extract_ray.stages.agg import grouped_aggregate

    word_re = _re.compile(r"[a-z0-9]+")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        joined = "\n".join(b[text_col].fillna("").str.lower())
        words, counts = np.unique(word_re.findall(joined),
                                  return_counts=True)
        return pd.DataFrame({"word": words, "n": counts.astype(np.int64)})

    merged = grouped_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["word"], {"n": ("n", "sum")})
    if top_k is not None:
        merged = merged.sort(["n", "word"],
                             descending=[True, False]).limit(top_k)
    return merged


def ngram_counts(ds, n: int, text_col: str = "text",
                 *, top_k: int | None = None):
    """Corpus n-gram frequencies — boilerplate-phrase mining (the most
    frequent 3/5-grams of a crawl are its cookie banners, share
    widgets and nav chrome; feed them back as cleaning rules).  Words
    are the corpus rule (``[a-z0-9]+`` over lowercased text); grams
    never straddle documents; gram strings are space-joined
    (injective).

    Scale shape: per-batch vectorized gram build + ``np.unique``
    pre-count (map-side combine), ONE (gram, n) grouped merge, then
    the deterministic (count desc, gram asc) top-k.  The shuffle moves
    DISTINCT grams per block — exact counts over a 100 TB corpus are
    heavy by nature; for frequency ESTIMATES use the CMS sketch
    (`stages/sketch.py`) instead."""
    import re as _re

    from pdf_extract_ray.stages.agg import grouped_aggregate

    word_re = _re.compile(r"[a-z0-9]+")
    empty = pd.DataFrame({"gram": pd.Series([], dtype=object),
                          "n": pd.Series([], dtype=np.int64)})

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lists = b[text_col].fillna("").str.lower().str.findall(word_re)
        ns = lists.str.len().to_numpy(np.int64)
        flat = np.array([w for lst in lists for w in lst], dtype=object)
        if len(flat) < n:
            return empty.copy()
        i = np.repeat(np.arange(len(lists), dtype=np.int64), ns)
        m = len(flat) - n + 1
        ok = i[:m] == i[n - 1:]
        if not ok.any():
            return empty.copy()
        parts = flat[:m][ok]
        for j in range(1, n):
            parts = parts + " " + flat[j:m + j][ok]
        grams, counts = np.unique(parts, return_counts=True)
        return pd.DataFrame({"gram": grams,
                             "n": counts.astype(np.int64)})

    merged = grouped_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["gram"], {"n": ("n", "sum")})
    if top_k is not None:
        merged = merged.sort(["n", "gram"],
                             descending=[True, False]).limit(top_k)
    return merged


def ngram_counts_oracle_sql(n: int, table: str = "documents",
                            text_expr: str = "text",
                            id_col: str = "doc_id",
                            top_k: int | None = None) -> str:
    """DuckDB mirror of :func:`ngram_counts` (lead() windows build the
    same space-joined grams; ties break (count desc, gram asc))."""
    leads = ", ".join(
        f"lead(word, {j}) OVER (PARTITION BY d ORDER BY pos) AS w{j}"
        for j in range(1, n))
    gram = " || ' ' || ".join(["word"] + [f"w{j}" for j in range(1, n)])
    lim = f"ORDER BY n DESC, gram LIMIT {top_k}" if top_k else ""
    return f"""
WITH s AS (SELECT {id_col} AS d,
                  regexp_extract_all(lower(coalesce({text_expr}, '')),
                                     '[a-z0-9]+') AS arr
           FROM {table}),
w AS (SELECT d, unnest(arr) AS word,
             unnest(range(1, len(arr) + 1)) AS pos
      FROM s),
g AS (SELECT {gram} AS gram
      FROM (SELECT d, pos, word, {leads} FROM w)
      WHERE w{n - 1} IS NOT NULL)
SELECT gram, CAST(count(*) AS BIGINT) AS n FROM g GROUP BY gram {lim}
"""


def token_coverage(ds, text_col: str = "text", *, top_k: int):
    """Vocabulary coverage curve: the ``top_k`` most frequent words
    with their CUMULATIVE share of all token occurrences — the
    tokenizer-sizing / vocabulary-pruning report ("the top 5k words
    cover 92% of the corpus", the Zipf head a byte-level BPE spends
    its merges on).

    Counts come from :func:`ngram_counts` at n=1 (per-batch
    ``np.unique`` map-side combine, ONE grouped merge, deterministic
    (count desc, word asc) top-k); the corpus token total is a
    separate per-batch scalar partial (one int per batch to the
    driver); the curve itself touches only the ``top_k`` surviving
    rows — bounded by contract, so the driver-side cumsum is O(top_k).

    Output: ``(rank, word, n, cum_share)`` with ``cum_share =
    round(cumsum(n) / total_tokens, 6)``."""
    import re as _re

    from pdf_extract_ray.util import round_half_away

    word_re = _re.compile(r"[a-z0-9]+")

    def tot_partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("").str.lower().str.count(word_re)
        return pd.DataFrame({"t": [np.int64(t.sum())]})

    total = int(ds.map_batches(tot_partial, batch_format="pandas")
                .to_pandas()["t"].sum())
    top = ngram_counts(ds, 1, text_col, top_k=top_k).to_pandas()
    top = top.sort_values(["n", "gram"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    cum = np.cumsum(top["n"].to_numpy(np.int64))
    return pd.DataFrame({
        "rank": np.arange(1, len(top) + 1, dtype=np.int64),
        "word": top["gram"].to_numpy(),
        "n": top["n"].to_numpy(np.int64),
        "cum_share": round_half_away(cum / max(total, 1), 6),
    })


def token_coverage_oracle_sql(table: str = "documents",
                              text_expr: str = "text",
                              *, top_k: int) -> str:
    """DuckDB mirror of :func:`token_coverage` — the same word rule,
    the same (n DESC, word) ranking, the same single int/int division
    (DuckDB ``/`` on integers is double division)."""
    return f"""
WITH w AS (SELECT unnest(regexp_extract_all(lower(coalesce({text_expr},
           '')), '[a-z0-9]+')) AS word FROM {table}),
c AS (SELECT word, CAST(count(*) AS BIGINT) AS n FROM w GROUP BY word),
t AS (SELECT CAST(count(*) AS BIGINT) AS tot FROM w),
r AS (SELECT word, n,
             row_number() OVER (ORDER BY n DESC, word) AS rank FROM c)
SELECT rank, word, n,
       round(CAST(sum(n) OVER (ORDER BY rank) AS BIGINT)
             / greatest((SELECT tot FROM t), 1), 6) AS cum_share
FROM r WHERE rank <= {int(top_k)}
"""


def zipf_fit(ds, text_col: str = "text", *, top_k: int):
    """Zipf-law fit over the corpus's top-``top_k`` word frequencies —
    the tokenizer/corpus-health scalar ("natural text has slope ≈ −1;
    a slope near 0 means boilerplate-flattened counts, a cliff below
    −1.5 means a tiny template vocabulary dominates").  OLS of
    ``ln(n)`` on ``ln(rank)`` over the (count desc, word asc) ranking
    that :func:`token_coverage` freezes.

    Scale shape: the heavy work is the ONE distributed wordcount
    (per-batch ``np.unique`` map-side combine + one grouped merge);
    the regression itself touches only the bounded ``top_k`` rows on
    the driver.  ``slope``/``intercept`` are rounded to 4 decimals —
    the repo's sum-order-ulp convention (char entropy): the moment
    sums are float sums of logs, equal to the SQL mirror's only up to
    summation order.

    Output: one row ``(n_words, slope, intercept)`` where ``n_words =
    min(top_k, vocabulary)``; NULL slope/intercept when fewer than two
    distinct words exist."""
    top = ngram_counts(ds, 1, text_col, top_k=top_k).to_pandas()
    if "n" in top.columns:
        top = top.sort_values(["n", "gram"], ascending=[False, True],
                              kind="mergesort").reset_index(drop=True)
    k = len(top)
    if k < 2:
        return pd.DataFrame({"n_words": pd.Series([k], dtype="int64"),
                             "slope": [np.nan], "intercept": [np.nan]})
    x = np.log(np.arange(1, k + 1, dtype=np.float64))
    y = np.log(top["n"].to_numpy(np.float64))
    n = float(k)
    sx, sy = float(x.sum()), float(y.sum())
    sxy, sxx = float((x * y).sum()), float((x * x).sum())
    den = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / den
    intercept = (sy - slope * sx) / n
    return pd.DataFrame({
        "n_words": pd.Series([k], dtype="int64"),
        "slope": [round(slope, 4)],
        "intercept": [round(intercept, 4)],
    })


def zipf_fit_oracle_sql(table: str = "documents",
                        text_expr: str = "text", *, top_k: int) -> str:
    """DuckDB mirror of :func:`zipf_fit` — same word rule, same
    (n DESC, word) ranking, same OLS moment formula over ln(rank) /
    ln(n), both sides rounded to 4 (absorbs float-sum order)."""
    return f"""
WITH __z_w AS (SELECT unnest(regexp_extract_all(lower(coalesce(
               {text_expr}, '')), '[a-z0-9]+')) AS word FROM {table}),
__z_c AS (SELECT word, CAST(count(*) AS BIGINT) AS n FROM __z_w
          GROUP BY word),
__z_r AS (SELECT n, row_number() OVER (ORDER BY n DESC, word) AS rank
          FROM __z_c ORDER BY n DESC, word LIMIT {int(top_k)}),
__z_m AS (SELECT CAST(count(*) AS DOUBLE) AS nn,
                 sum(ln(CAST(rank AS DOUBLE))) AS sx,
                 sum(ln(CAST(n AS DOUBLE))) AS sy,
                 sum(ln(CAST(rank AS DOUBLE)) * ln(CAST(n AS DOUBLE)))
                   AS sxy,
                 sum(ln(CAST(rank AS DOUBLE)) * ln(CAST(rank AS DOUBLE)))
                   AS sxx
          FROM __z_r)
SELECT CAST(nn AS BIGINT) AS n_words,
       CASE WHEN nn >= 2 THEN
         round((nn * sxy - sx * sy) / (nn * sxx - sx * sx), 4) END
         AS slope,
       CASE WHEN nn >= 2 THEN
         round((sy - ((nn * sxy - sx * sy) / (nn * sxx - sx * sx)) * sx)
               / nn, 4) END AS intercept
FROM __z_m
"""


def vocab_filter(ds, text_col: str = "text", *, top_k: int,
                 id_col: str = "doc_id", unk: str = "<unk>"):
    """Replace out-of-vocabulary words with ``unk`` — the classic LM
    preprocessing step (fixed-vocab n-gram models, UNK-rate reports,
    vocabulary-truncation ablations).  The vocabulary is the corpus's
    own ``top_k`` most frequent words (the :func:`token_coverage`
    ranking: count desc, word asc), computed in the same job.

    Output: ``(id_col, text_unk, n_tokens, n_unk)`` where ``text_unk``
    is the SPACE-JOINED token stream (the frozen word rule
    ``[a-z0-9]+`` over lowered text — original spacing/punctuation is
    not preserved, documented).

    Scale shape: one counts pass (map-side ``np.unique`` combine + ONE
    grouped merge) -> bounded top-k vocab broadcast via ``ray.put`` ->
    one narrow vectorized rewrite (explode + isin + join), zero
    further shuffles."""
    import re as _re

    import ray as _ray

    word_re = _re.compile(r"[a-z0-9]+")
    top = ngram_counts(ds, 1, text_col, top_k=top_k).to_pandas()
    top = top.sort_values(["n", "gram"], ascending=[False, True],
                          kind="mergesort")
    vocab_ref = _ray.put(frozenset(top["gram"].tolist()))

    def rewrite(b: pd.DataFrame) -> pd.DataFrame:
        vocab = _ray.get(vocab_ref)
        toks = b[text_col].fillna("").str.lower().str.findall(word_re)
        lens = toks.str.len().to_numpy(np.int64)
        flat = pd.Series([w for lst in toks for w in lst], dtype=object)
        keep = flat.isin(vocab).to_numpy() if len(flat) else \
            np.array([], dtype=bool)
        out_flat = np.where(keep, flat.to_numpy(), unk) if len(flat) \
            else np.array([], dtype=object)
        texts, n_unk = [], []
        pos = 0
        for ln in lens:
            texts.append(" ".join(out_flat[pos:pos + ln]))
            n_unk.append(int((~keep[pos:pos + ln]).sum()))
            pos += ln
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "text_unk": texts,
            "n_tokens": lens,
            "n_unk": pd.Series(n_unk, dtype="int64"),
        })

    return ds.map_batches(rewrite, batch_format="pandas")


def vocab_filter_oracle_sql(table: str = "documents",
                            text_expr: str = "text",
                            *, top_k: int, id_col: str = "doc_id",
                            unk: str = "<unk>") -> str:
    """DuckDB mirror of :func:`vocab_filter` — the same counts CTE and
    top-k ranking, vocabulary applied via a joined list value."""
    return f"""
WITH __vf_w AS (SELECT unnest(regexp_extract_all(lower(coalesce(
                {text_expr}, '')), '[a-z0-9]+')) AS word FROM {table}),
__vf_c AS (SELECT word, count(*) AS n FROM __vf_w GROUP BY word),
__vf_v AS (SELECT list(word ORDER BY n DESC, word) AS vl FROM (
             SELECT word, n FROM __vf_c
             ORDER BY n DESC, word LIMIT {int(top_k)})),
__vf_d AS (SELECT {id_col},
                  regexp_extract_all(lower(coalesce({text_expr}, '')),
                                     '[a-z0-9]+') AS arr
           FROM {table})
SELECT {id_col},
       coalesce(array_to_string(list_transform(arr,
         w -> CASE WHEN list_contains(vl, w) THEN w
                   ELSE '{unk}' END), ' '), '') AS text_unk,
       CAST(len(arr) AS BIGINT) AS n_tokens,
       CAST(len(list_filter(arr,
         w -> NOT list_contains(vl, w))) AS BIGINT) AS n_unk
FROM __vf_d, __vf_v
"""


def lexical_diversity_batch(batch: pd.DataFrame, *,
                            id_col: str = "doc_id",
                            text_col: str = "text") -> pd.DataFrame:
    """Per-doc lexical-diversity signals with INTEGER-EXACT moments:
    ``n_words``, ``n_distinct``, ``n_hapax`` (type/token/once-only
    counts) plus two single-division floats — ``ttr`` (type-token
    ratio) and ``simpson`` (repeat-token collision probability
    ``sum c*(c-1) / (n*(n-1))``, the concentration twin of entropy:
    high = a few tokens dominate, the keyword-stuffing cue).

    Frozen rules: tokens ``[a-z0-9]+`` over lowercased text; docs with
    zero tokens emit NO row (the SQL unnest drops them identically);
    ``ttr`` NULL when n = 0 (unreachable), ``simpson`` NULL when n < 2.
    Narrow per-batch kernel, zero shuffles; every shuffle-free moment
    is an int64, so the only floats are the two mirrored divisions.
    """
    low = batch[text_col].fillna("").astype(str).str.lower()
    ex = low.str.findall(r"[a-z0-9]+").explode().dropna()
    if not len(ex):
        return pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "n_words": pd.Series([], dtype="int64"),
            "n_distinct": pd.Series([], dtype="int64"),
            "n_hapax": pd.Series([], dtype="int64"),
            "ttr": pd.Series([], dtype="float64"),
            "simpson": pd.Series([], dtype="float64"),
        })
    tf = (pd.DataFrame({"__i": ex.index, "word": ex.to_numpy()})
          .groupby(["__i", "word"], as_index=False).size())
    c = tf["size"].to_numpy(np.int64)
    per = pd.DataFrame({
        "__i": tf["__i"].to_numpy(),
        "c": c, "one": (c == 1).astype(np.int64), "rep": c * (c - 1),
    }).groupby("__i", as_index=False).agg(
        n_words=("c", "sum"), n_distinct=("c", "count"),
        n_hapax=("one", "sum"), rep=("rep", "sum"))
    n = per["n_words"].to_numpy(np.float64)
    d = per["n_distinct"].to_numpy(np.float64)
    rep = per["rep"].to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ttr = np.where(n > 0, d / n, np.nan)
        simpson = np.where(n > 1, rep / (n * (n - 1.0)), np.nan)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy()[per["__i"].to_numpy()],
        "n_words": per["n_words"].to_numpy(np.int64),
        "n_distinct": per["n_distinct"].to_numpy(np.int64),
        "n_hapax": per["n_hapax"].to_numpy(np.int64),
        "ttr": ttr,
        "simpson": simpson,
    })


def lexical_diversity_oracle_sql(table: str = "documents", *,
                                 id_col: str = "doc_id",
                                 text_col: str = "text") -> str:
    """DuckDB mirror of :func:`lexical_diversity_batch`."""
    return f"""
WITH __ld_w AS (
  SELECT {id_col}, unnest(regexp_extract_all(
           lower(coalesce({text_col}, '')), '[a-z0-9]+')) AS word
  FROM {table}
), __ld_tf AS (
  SELECT {id_col}, word, CAST(count(*) AS BIGINT) AS c
  FROM __ld_w GROUP BY {id_col}, word
), __ld_a AS (
  SELECT {id_col},
         CAST(sum(c) AS BIGINT) AS n_words,
         CAST(count(*) AS BIGINT) AS n_distinct,
         CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_hapax,
         CAST(sum(c * (c - 1)) AS BIGINT) AS rep
  FROM __ld_tf GROUP BY {id_col}
)
SELECT {id_col}, n_words, n_distinct, n_hapax,
       CASE WHEN n_words > 0
            THEN CAST(n_distinct AS DOUBLE) / n_words END AS ttr,
       CASE WHEN n_words > 1
            THEN CAST(rep AS DOUBLE)
                 / (CAST(n_words AS DOUBLE) * (n_words - 1)) END
         AS simpson
FROM __ld_a
"""


QUOTE_RE = r'"([^"\n]{1,400})"'


def quoted_spans_batch(batch: pd.DataFrame, text_col: str = "text",
                       id_col: str = "doc_id",
                       min_words: int = 3) -> pd.DataFrame:
    """Quotation mining — one row per double-quoted span of at least
    ``min_words`` whitespace words: ``(id, pos, quote, n_words)`` with
    ``pos`` the 1-based index among the doc's KEPT quotes.  The
    attribution / reuse-tracing primitive (who is quoted where; which
    exact strings recur across the corpus — compose with the line-dedup
    or word-overlap machinery downstream).

    Frozen rules (SQL-mirrorable): spans are non-overlapping matches of
    ``"..."`` with no inner quote or newline, 1..400 chars
    (:data:`QUOTE_RE`); word count = ``\\S+`` runs inside the span.
    One vectorized ``str.extractall`` + one count, zero shuffles."""
    t = batch[text_col].fillna("").astype(str)
    m = t.str.extractall(QUOTE_RE)
    if not len(m):
        return pd.DataFrame({
            id_col: pd.Series([], dtype=batch[id_col].dtype),
            "pos": pd.Series([], dtype="int64"),
            "quote": pd.Series([], dtype=object),
            "n_words": pd.Series([], dtype="int64")})
    q = m[0]
    nw = q.str.count(r"\S+").to_numpy("int64")
    keep = nw >= min_words
    doc_idx = m.index.get_level_values(0).to_numpy()[keep]
    out = pd.DataFrame({
        id_col: batch[id_col].to_numpy()[doc_idx],
        "quote": q.to_numpy()[keep],
        "n_words": nw[keep],
    })
    out["pos"] = out.groupby(id_col, sort=False).cumcount() + 1
    return out[[id_col, "pos", "quote", "n_words"]]


def quoted_spans_oracle_sql(table: str = "documents",
                            text_expr: str = "text",
                            id_col: str = "doc_id",
                            min_words: int = 3) -> str:
    """DuckDB mirror of :func:`quoted_spans_batch` (RE2 shares the
    non-overlapping left-to-right match rule with Python re)."""
    return f"""
WITH s AS (
  SELECT {id_col},
         regexp_extract_all(coalesce({text_expr}, ''),
                            '{QUOTE_RE.replace("'", "''")}', 1) AS qs
  FROM {table}
), q AS (
  SELECT {id_col}, unnest(qs) AS quote,
         unnest(range(1, len(qs) + 1)) AS idx
  FROM s
), n AS (
  SELECT {id_col}, quote, idx,
         CAST(len(regexp_extract_all(quote, '\\S+')) AS BIGINT)
           AS n_words
  FROM q
), f AS (
  SELECT {id_col}, quote, n_words,
         CAST(row_number() OVER (PARTITION BY {id_col} ORDER BY idx)
              AS BIGINT) AS pos
  FROM n WHERE n_words >= {min_words}
)
SELECT {id_col}, pos, quote, n_words FROM f
"""


def _id_range(b: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """Per-batch (min, max) of ``id_col``; no row for a batch without
    ids, so an empty block adds nothing to the global range."""
    if b[id_col].count() == 0:
        return pd.DataFrame({"mn": pd.Series([], dtype="int64"),
                             "mx": pd.Series([], dtype="int64")})
    return pd.DataFrame({"mn": [np.int64(b[id_col].min())],
                         "mx": [np.int64(b[id_col].max())]})


def heaps_fit(ds, *, id_col: str = "doc_id", text_col: str = "text",
              k_checkpoints: int = 8):
    """Heaps'-law vocabulary-growth fit — the tokenizer-sizing twin of
    :func:`zipf_fit`: distinct-word count V grows ~ K * n^beta with
    corpus token count n (beta ~ 0.4-0.6 for natural text; a beta near
    0 means a closed template vocabulary, near 1 means id-like noise
    tokens).  The curve is sampled at ``k_checkpoints`` document-id
    thresholds ``T_i = min_id - 1 + ceil((max_id - min_id + 1) * i /
    K)`` (a frozen VALUE rule — no distinct-id table needed), counting
    documents in ``id_col`` order as "the corpus so far".

    Scale shape: one grouped min merge builds the vocab-bounded
    ``word -> first doc id`` table; checkpoint vocab/token counts are
    per-batch K-vector integer partials summed on the driver (K ints
    per batch); the OLS over the K-row ln-ln curve happens on the
    driver.  ``beta``/``log_k`` are rounded to 4 (the float-sum-order
    convention).

    Output: K rows ``(ckpt, max_doc_id, n_tokens, vocab, beta,
    log_k)`` — the fit constants repeat on every row (one result
    table; checkpoints with zero tokens are excluded from the fit)."""
    import re as _re

    from pdf_extract_ray.stages.agg import grouped_aggregate

    word_re = _re.compile(r"[a-z0-9]+")
    ids_mm = ds.map_batches(_id_range, fn_args=(id_col,),
                            batch_format="pandas").to_pandas()
    if len(ids_mm) == 0:
        return pd.DataFrame({c: [] for c in
                             ("ckpt", "max_doc_id", "n_tokens", "vocab",
                              "beta", "log_k")})
    mn, mx = int(ids_mm["mn"].min()), int(ids_mm["mx"].max())
    span = mx - mn + 1
    ks = list(range(1, k_checkpoints + 1))
    ts = [mn - 1 + (span * i + k_checkpoints - 1) // k_checkpoints
          for i in ks]

    def first_doc_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").astype(str).str.lower() \
            .str.findall(word_re)
        lens = toks.str.len().to_numpy(np.int64)
        flat = np.array([w for lst in toks for w in lst], dtype=object)
        did = np.repeat(b[id_col].to_numpy(np.int64), lens)
        if len(flat) == 0:
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "md": pd.Series([], dtype="int64")})
        f = pd.DataFrame({"word": flat, "md": did})
        return f.groupby("word", as_index=False).min()

    first = grouped_aggregate(
        ds.map_batches(first_doc_partial, batch_format="pandas"),
        ["word"], {"md": ("md", "min")})

    def vocab_partial(b: pd.DataFrame) -> pd.DataFrame:
        md = b["md"].to_numpy(np.int64)
        return pd.DataFrame({f"v{i}": [np.int64((md <= t).sum())]
                             for i, t in zip(ks, ts)})

    vrow = first.map_batches(vocab_partial,
                             batch_format="pandas").to_pandas().sum()

    def token_partial(b: pd.DataFrame) -> pd.DataFrame:
        n = (b[text_col].fillna("").astype(str).str.lower()
             .str.count(word_re).to_numpy(np.int64))
        did = b[id_col].to_numpy(np.int64)
        return pd.DataFrame({f"t{i}": [np.int64(n[did <= t].sum())]
                             for i, t in zip(ks, ts)})

    trow = ds.map_batches(token_partial,
                          batch_format="pandas").to_pandas().sum()

    vocab = np.array([int(vrow[f"v{i}"]) for i in ks], dtype=np.int64)
    ntok = np.array([int(trow[f"t{i}"]) for i in ks], dtype=np.int64)
    ok = (ntok > 0) & (vocab > 0)
    if ok.sum() >= 2:
        x = np.log(ntok[ok].astype(np.float64))
        y = np.log(vocab[ok].astype(np.float64))
        n = float(ok.sum())
        sx, sy = float(x.sum()), float(y.sum())
        sxy, sxx = float((x * y).sum()), float((x * x).sum())
        den = n * sxx - sx * sx
        if den > 0.0:
            beta = round((n * sxy - sx * sy) / den, 4)
            log_k = round((sy - ((n * sxy - sx * sy) / den) * sx) / n, 4)
        else:
            beta = log_k = np.nan
    else:
        beta = log_k = np.nan
    return pd.DataFrame({
        "ckpt": pd.Series(ks, dtype="int64"),
        "max_doc_id": pd.Series(ts, dtype="int64"),
        "n_tokens": ntok,
        "vocab": vocab,
        "beta": np.full(len(ks), beta),
        "log_k": np.full(len(ks), log_k),
    })


def heaps_fit_oracle_sql(table: str = "documents",
                         text_expr: str = "text",
                         *, id_col: str = "doc_id",
                         k_checkpoints: int = 8) -> str:
    """DuckDB mirror of :func:`heaps_fit` — same frozen checkpoint
    rule, same first-doc-per-word min, same OLS moment formula over
    the ln-ln curve (round 4)."""
    k = int(k_checkpoints)
    t = f"lower(coalesce({text_expr}, ''))"
    return f"""
WITH __hp_b AS (SELECT CAST(min({id_col}) AS BIGINT) AS mn,
                       CAST(max({id_col}) AS BIGINT) AS mx
                FROM {table}),
__hp_k AS (SELECT CAST(i AS BIGINT) AS ckpt,
                  mn - 1 + ((mx - mn + 1) * i + {k} - 1) // {k} AS tmax
           FROM __hp_b, unnest(range(1, {k} + 1)) AS r(i)),
__hp_w AS (SELECT {id_col} AS d,
                  unnest(regexp_extract_all({t}, '[a-z0-9]+')) AS word
           FROM {table}),
__hp_f AS (SELECT word, min(d) AS md FROM __hp_w GROUP BY word),
__hp_c AS (SELECT ckpt, tmax,
                  (SELECT CAST(count(*) AS BIGINT) FROM __hp_f
                   WHERE md <= tmax) AS vocab,
                  (SELECT CAST(coalesce(count(*), 0) AS BIGINT)
                   FROM __hp_w WHERE d <= tmax) AS n_tokens
           FROM __hp_k),
__hp_m AS (SELECT CAST(count(*) AS DOUBLE) AS nn,
                  sum(ln(CAST(n_tokens AS DOUBLE))) AS sx,
                  sum(ln(CAST(vocab AS DOUBLE))) AS sy,
                  sum(ln(CAST(n_tokens AS DOUBLE))
                      * ln(CAST(vocab AS DOUBLE))) AS sxy,
                  sum(ln(CAST(n_tokens AS DOUBLE))
                      * ln(CAST(n_tokens AS DOUBLE))) AS sxx
           FROM __hp_c WHERE n_tokens > 0 AND vocab > 0)
SELECT ckpt, tmax AS max_doc_id, n_tokens, vocab,
       CASE WHEN nn >= 2 AND (nn * sxx - sx * sx) > 0 THEN
         round((nn * sxy - sx * sy) / (nn * sxx - sx * sx), 4) END
         AS beta,
       CASE WHEN nn >= 2 AND (nn * sxx - sx * sx) > 0 THEN
         round((sy - ((nn * sxy - sx * sy) / (nn * sxx - sx * sx)) * sx)
               / nn, 4) END AS log_k
FROM __hp_c, __hp_m
"""


def sentence_stats_batch(batch: pd.DataFrame, *, id_col: str = "doc_id",
                         text_col: str = "text") -> pd.DataFrame:
    """Per-doc sentence statistics through the REAL rule-based sentence
    splitter (`stages/splitter.split_complete` — the flagship
    pipeline's own segmentation, frozen bracket-depth + terminal-punct
    semantics; reference analogue: pdf_extract's sentence_composer):
    ``n_sentences``, ``mean_sentence_words`` (round 4; the engine word
    rule ``len(s.split())``), ``max_sentence_words``.  Sentence-shape
    signals are a standard quality cue (C4 requires >= 3 sentences;
    Gopher gates on mean-words bands).  One narrow map, zero
    shuffles."""
    from pdf_extract_ray.stages.splitter import split_complete
    from pdf_extract_ray.util import round_half_away

    n_s = np.zeros(len(batch), dtype=np.int64)
    mean_w = np.full(len(batch), np.nan)
    max_w = np.zeros(len(batch), dtype=np.int64)
    for r, t in enumerate(batch[text_col].fillna("")):
        sents = split_complete(t)
        if not sents:
            continue
        wc = [len(s.split()) for s in sents]
        n_s[r] = len(sents)
        mean_w[r] = float(round_half_away(sum(wc) / len(wc), 4))
        max_w[r] = max(wc)
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy(),
        "n_sentences": n_s,
        "mean_sentence_words": mean_w,
        "max_sentence_words": max_w,
    })


def sentence_stats(ds, *, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Dataset wrapper: one narrow map."""
    return ds.map_batches(
        lambda b: sentence_stats_batch(b, id_col=id_col,
                                       text_col=text_col),
        batch_format="pandas")
