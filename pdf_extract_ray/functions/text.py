"""Scalar text functions shared by the extraction and quality stages.

These are the frozen, deterministic re-implementations of the reference's
string rules (reference: euaa_사례/pdf_to_json/main.py:33 dot-leaders;
layout_analyzer.py:88 whitespace collapse; sentence_composer.py:375-377
bracket spacing; sentences/metadata_generator.py:76-83 quote
normalization, :510-543 cleaning chain).  Everything here is pure and
independent of batch boundaries so Ray task retries and any parallelism
level produce byte-identical output.
"""

from __future__ import annotations

import re
import unicodedata

_WS_RE = re.compile(r"\s+")
_DOT_LEADER_RE = re.compile(r"\.{5,}")
_LEADING_BULLET_RE = re.compile(r"^[-‐–—−·•○:.]\s*")
_STAR_RE = re.compile(r"\s*\*\s*")
_IGC_IBC_RE = re.compile(r"\s*\((IGC|IBC) Code \d+\.\d+\)")
_HYPHEN_RUN_RE = re.compile(r"-{2,}")
_HANGUL_RE = re.compile(r"[ㄱ-ㆎ가-힣]")

# curly double quotes -> ", curly single quotes / backtick -> '
# (reference metadata_generator.py:76-83)
_QUOTE_MAP = str.maketrans(
    {0x201C: '"', 0x201D: '"', 0x201E: '"', 0x201F: '"',
     0x2018: "'", 0x2019: "'", 0x0060: "'"}
)


def collapse_ws(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip (layout_analyzer.py:88).

    ``" ".join(text.split())`` is semantically identical to
    ``re.sub(r"\\s+", " ", text).strip()`` (both treat any Unicode
    whitespace run as one separator) and ~3x faster in the hot path."""
    return " ".join(text.split())


def clean_markup_text(text: str) -> str:
    """Frozen inline-markup cleaning shared by anchor text, table cells
    and page metadata: strip tags, unescape entities AFTER the strip (so
    `&lt;b&gt;` survives as literal text), collapse whitespace, trim."""
    from html import unescape

    return _WS_RE.sub(" ", unescape(_TAG_STRIP_RE.sub("", text))).strip()


_TAG_STRIP_RE = re.compile(r"<[^>]*>")


def strip_dot_leaders(text: str) -> str:
    """Remove TOC dot-leader runs of >=5 dots (pdf_to_json/main.py:33)."""
    if "....." not in text:  # fast path: the regex scan is the hot cost
        return text
    return _DOT_LEADER_RE.sub("", text)


def normalize_quotes(text: str) -> str:
    """Map curly quotes / backtick to ASCII (metadata_generator.py:76-83)."""
    return text.translate(_QUOTE_MAP)


def strip_leading_bullet(text: str) -> str:
    """Drop one leading bullet/dash/colon marker (metadata_generator.py:524)."""
    return _LEADING_BULLET_RE.sub("", text)


def clean_pair_text(text: str) -> str:
    """The reference's "cleaned" chain (metadata_generator.py:520-540):

    leading bullet strip -> ``*`` runs to space -> IGC/IBC code tag drop ->
    quote normalization -> hyphen-run drop -> strip ``:;* `` edges.
    (numbering-pattern removal is config-injected and empty by default,
    add_metadata.py:82 comment: "빈 패턴이므로 실제로는 아무것도 제거 안 됨").
    """
    t = _LEADING_BULLET_RE.sub("", text)
    t = _STAR_RE.sub(" ", t).strip()
    t = _IGC_IBC_RE.sub("", t)
    t = normalize_quotes(t)
    t = _HYPHEN_RUN_RE.sub("", t).strip()
    return t.strip(":;* ")


def nfkc(text: str) -> str:
    """NFKC normalization (metadata_generator.py:542-543)."""
    return unicodedata.normalize("NFKC", text)


def has_hangul(text: str) -> bool:
    """Hangul presence check (metadata_generator.py:417)."""
    return bool(_HANGUL_RE.search(text))


def tidy_bracket_spacing(text: str) -> str:
    """``( text )`` -> ``(text)``, collapse whitespace, and drop the space
    before closing punctuation (sentence_composer.py:375-377 cleanup rules;
    the space-before-punct rule is frozen from the prompt's worked example
    ``...분석하였다 .`` -> ``...분석하였다.``, sentence_composer.py:389-399)."""
    t = collapse_ws(text)
    # only single spaces are left, so the regex can only match at one of
    # these pairs; most sentences hold none
    if ("( " in t or "[ " in t or " )" in t or " ]" in t or " ." in t
            or " ," in t or " !" in t or " ?" in t or " ;" in t or " :" in t):
        # one pass: drop whitespace after openers and before closers/punctuation
        return _BRACKET_SPACE_RE.sub("", t)
    return t


# equivalent to the three separate subs: "([(\[])\s+"->"\1",
# "\s+([)\]])"->"\1", "\s+([.,!?;:])"->"\1"
_BRACKET_SPACE_RE = re.compile(r"(?<=[(\[])\s+|\s+(?=[)\].,!?;:])")


def remove_numbering(text: str, patterns: tuple[str, ...] = ()) -> str:
    """Strip ONE leading numbering marker using a config-injected pattern
    list: the first pattern that matches at the start is substituted once
    and no further patterns apply (metadata_generator.py:44-74; pattern
    lists are config pack data, X2).  Default pack is empty — the
    reference's shipped config removes nothing (add_metadata.py:82)."""
    if not text:
        return text
    for pat in patterns:
        rx = _NUMBERING_CACHE.get(pat)
        if rx is None:
            rx = _NUMBERING_CACHE[pat] = re.compile(pat, re.IGNORECASE)
        if rx.match(text):
            text = rx.sub(" ", text, count=1)
            break
    return text.lstrip()


_NUMBERING_CACHE: dict = {}


# --- Soundex (frozen simplified American variant) -----------------------------

_SOUNDEX_CLASSES = (
    ("[bfpv]", "1"), ("[cgjkqsxz]", "2"), ("[dt]", "3"), ("l", "4"),
    ("[mn]", "5"), ("r", "6"), ("[aeiouyhw]", "0"),
)


def soundex_batch(words: "pd.Series") -> "pd.Series":
    """Vectorized Soundex codes for a Series of LOWERCASE ``[a-z]+``
    words — the phonetic-blocking key for entity/name dedup (records
    whose names sound alike land in one candidate block).

    Frozen simplified American Soundex (this repo's rule, mirrored in
    the SQL oracle builder): every letter maps to its digit class
    (vowels + h/w/y to 0), ADJACENT equal digits collapse (h/w are NOT
    transparent — the classic transparency subtlety is deliberately
    out of the frozen subset), the first letter survives as itself
    (uppercased), zeros drop from the tail, pad/truncate to 4 chars.
    Empty strings map to NULL (pd.NA); callers feed ``[a-z]+`` tokens
    so no cleaning pass is needed.

    All ops are C-level pandas str kernels (compiled regex chains) —
    no Python loop."""
    import pandas as pd

    w = words.astype("string")
    nonempty = w.str.len() > 0
    code = w
    for pat, rep in _SOUNDEX_CLASSES:
        code = code.str.replace(pat, rep, regex=True)
    code = code.str.replace(r"(.)\1+", r"\1", regex=True)
    tail = code.str[1:].str.replace("0", "", regex=False)
    out = (w.str[0].str.upper() + (tail + "000").str[:3])
    return out.where(nonempty, pd.NA)


def soundex_oracle_expr(word_expr: str) -> str:
    """DuckDB expression mirroring :func:`soundex_batch` for a
    lowercase ``[a-z]+`` word column — the digit-class chain as nested
    regexp_replace; run-collapse via the caller's lag-window idiom is
    NOT needed because this builder returns the PRE-collapse code
    string; see :func:`soundex_oracle_sql` for the full mirror."""
    e = word_expr
    for pat, rep in _SOUNDEX_CLASSES:
        e = f"regexp_replace({e}, '{pat}', '{rep}', 'g')"
    return e


def soundex_oracle_sql(table_sql: str, word_col: str = "word",
                       payload_cols: tuple = ()) -> str:
    """Full DuckDB mirror of :func:`soundex_batch` over a table of
    lowercase words: digit-class regexp chain, adjacent-run collapse
    via a lag window over the exploded characters (RE2 has no
    backreferences), zero-drop + pad to 4.  ``payload_cols`` ride
    along (max-aggregated per word; callers pass per-word metrics).
    Empty/NULL words yield NULL soundex."""
    pay_sel = "".join(f", {c}" for c in payload_cols)
    pay_max = "".join(f", max({c}) AS {c}" for c in payload_cols)
    code = soundex_oracle_expr(word_col)
    return f"""
WITH __sx_t AS (SELECT {word_col}{pay_sel} FROM ({table_sql})),
__sx_c AS (SELECT {word_col}{pay_sel}, {code} AS code FROM __sx_t),
__sx_e AS (SELECT {word_col}{pay_sel},
                  unnest(string_split(code, '')) AS ch,
                  generate_subscripts(string_split(code, ''), 1) AS i
           FROM __sx_c),
__sx_l AS (SELECT *, lag(ch) OVER (PARTITION BY {word_col} ORDER BY i)
                     AS prev
           FROM __sx_e),
__sx_g AS (SELECT {word_col}{pay_max},
                  string_agg(ch, '' ORDER BY i)
                    FILTER (WHERE prev IS NULL OR ch <> prev)
                    AS collapsed
           FROM __sx_l GROUP BY {word_col})
SELECT {word_col}{pay_sel},
       CASE WHEN {word_col} IS NULL OR length({word_col}) = 0 THEN NULL
            ELSE upper(substr({word_col}, 1, 1))
                 || substr(replace(substr(collapsed, 2), '0', '')
                           || '000', 1, 3) END AS soundex
FROM __sx_g
"""
