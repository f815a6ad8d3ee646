"""URL blocklist filtering — the very first gate of web-corpus
pipelines (RefinedWeb Penedo et al. 2023 §3.1 filters against the
public UT1 blocklist of ~4.6M adult/malicious hosts before any content
work; C4 applies a banned-word URL screen).  Dropping a page here is
~free; every later stage pays full price.

Semantics (frozen, SQL-mirrorable):

* a page is BLOCKED iff its canonical host (``functions.url``
  canonicalization: lowercased, port stripped) equals a blocked host or
  is a subdomain of one (``host == b`` or ``host ends with "." + b``),
  OR its lowercased url contains any blocked substring pattern;
* everything else passes through unchanged.

Scale shape: ONE narrow map, zero shuffles.  Two probe modes:

* ``method="suffix"`` (default; the 100-TB path): the blocklist ships
  once as a broadcast frozenset (``ray.put`` outside, plain closure
  capture here — Ray serializes the function once per task, and the
  set is shared per-node via the object store when passed through
  ``fn_constructor_kwargs``-style capture); each host probes the set
  with its O(#labels) dot-suffix chain — list size does not matter.
* ``method="regex"`` (small lists / SQL parity): a single compiled
  alternation applied as one C-level vectorized ``str.contains`` per
  batch.  This is the mode the DuckDB oracle mirrors.

Pattern matching is always the single compiled alternation (pattern
lists are small in practice — UT1-scale lists are host lists).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
from ray.data import Dataset


def _host_suffixes(host: str) -> list[str]:
    """All dot-suffix chains of a host: a.b.c -> [a.b.c, b.c, c]."""
    parts = host.split(".")
    return [".".join(parts[i:]) for i in range(len(parts))]


def filter_by_url_blocklist(
    ds: Dataset,
    blocked_hosts: list[str],
    blocked_patterns: list[str] = (),
    *,
    url_col: str = "url",
    method: str = "suffix",
    invert: bool = False,
) -> Dataset:
    """Drop rows whose url hits the blocklist (keep only hits when
    ``invert=True`` — the audit view).  Hosts are canonicalized with the
    engine's url canonicalizer before probing."""
    from pdf_extract_ray.functions.url import canonicalize_urls

    hosts = frozenset(h.lower().strip(".") for h in blocked_hosts)
    pat_rx = (re.compile("|".join(re.escape(p.lower())
                                  for p in blocked_patterns))
              if blocked_patterns else None)
    if method == "suffix":
        def blocked_host(hs: pd.Series) -> np.ndarray:
            uniq = hs.fillna("").unique()
            bad = {h for h in uniq
                   if any(s in hosts for s in _host_suffixes(h))}
            return hs.isin(bad).to_numpy()
    elif method == "regex":
        host_rx = (re.compile(
            r"(?:^|\.)(?:" + "|".join(re.escape(h) for h in sorted(hosts))
            + r")$") if hosts else None)

        def blocked_host(hs: pd.Series) -> np.ndarray:
            if host_rx is None:
                return np.zeros(len(hs), dtype=bool)
            return hs.fillna("").str.contains(host_rx).to_numpy()
    else:
        raise ValueError(f"method must be 'suffix' or 'regex', got {method!r}")

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        canon = canonicalize_urls(b[url_col].fillna(""))
        hit = blocked_host(canon["url_host"])
        if pat_rx is not None:
            hit |= (b[url_col].fillna("").str.lower()
                    .str.contains(pat_rx).to_numpy())
        return b[hit] if invert else b[~hit]

    return ds.map_batches(filt, batch_format="pandas")


def url_blocklist_oracle_sql(
    source_sql: str,
    blocked_hosts: list[str],
    blocked_patterns: list[str] = (),
    *,
    url_col: str = "url",
    host_col: str = "url_host",
    invert: bool = False,
) -> str:
    """DuckDB mirror of :func:`filter_by_url_blocklist`.  ``source_sql``
    must already expose the canonical host as ``host_col`` (compose with
    ``functions.url.canonicalize_oracle_sql``, exactly like the engine
    composes with ``canonicalize_urls``)."""
    hc = f"coalesce({host_col}, '')"  # engine fillna('') on non-urls
    conds = []
    for h in sorted(set(x.lower().strip(".") for x in blocked_hosts)):
        lit = h.replace("'", "''")
        conds.append(f"{hc} = '{lit}'")
        like = h.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        conds.append(
            f"{hc} LIKE '%.{like}' ESCAPE '\\'")
    for p in blocked_patterns:
        lit = p.lower().replace("'", "''")
        conds.append(f"contains(lower(coalesce({url_col}, '')), '{lit}')")
    hit = "(" + " OR ".join(conds) + ")" if conds else "FALSE"
    keep = hit if invert else f"NOT {hit}"
    return f"SELECT * FROM ({source_sql}) WHERE {keep}"


def url_trap_signals(
    urls: pd.Series,
    *,
    max_depth: int = 6,
    max_params: int = 5,
) -> pd.DataFrame:
    """Crawler-trap cues per url — the stage-1 frontier gate that keeps
    calendar pages, session-id loops and parameter explosions out of
    the fetch queue (RefinedWeb §3.1-style URL filtering, public
    heuristics):

    * ``path_depth`` — non-empty ``/``-segments of the path;
    * ``n_params`` — ``&``-separated query parts (0 when no query);
    * ``repeated_segment`` — ANY path segment occurring twice
      (``/a/b/a/`` — the classic self-linking loop shape);
    * ``is_trap`` — ``repeated_segment OR path_depth > max_depth OR
      n_params > max_params``.

    Frozen parse = :data:`functions.url.URL_PARTS_RE` (the
    canonicalize family's regexes, SQL-mirrored by
    :func:`url_trap_oracle_sql`); non-urls get all-zero / False.
    Vectorized, zero shuffles."""
    from pdf_extract_ray.functions.url import URL_PARTS_RE

    s = urls.fillna("").astype(str).str.strip().reset_index(drop=True)
    parts = s.str.extract(URL_PARTS_RE)
    scheme = parts[0].fillna("")
    path = parts[2].fillna("")
    query = parts[3].fillna("")
    is_url = (scheme != "").to_numpy()

    ex = path.str.split("/").explode()
    ex = ex[ex != ""]
    grp = ex.groupby(level=0)
    idx = pd.RangeIndex(len(s))
    depth = (grp.size().reindex(idx).fillna(0).to_numpy()
             .astype(np.int64))
    uniq = (grp.nunique().reindex(idx).fillna(0).to_numpy()
            .astype(np.int64))
    depth = np.where(is_url, depth, 0)
    uniq = np.where(is_url, uniq, 0)
    n_params = np.where(
        is_url & (query != "").to_numpy(),
        query.str.split("&").str.len().fillna(0).to_numpy(), 0
    ).astype(np.int64)
    repeated = depth > uniq
    is_trap = repeated | (depth > max_depth) | (n_params > max_params)
    return pd.DataFrame({
        "path_depth": depth,
        "n_params": n_params,
        "repeated_segment": repeated,
        "is_trap": is_trap,
    }, index=urls.index)


def url_trap_batch(
    ds,
    *,
    url_col: str = "url",
    id_col: str = "doc_id",
    max_depth: int = 6,
    max_params: int = 5,
):
    """Dataset wrapper for :func:`url_trap_signals` — one narrow map."""

    def batch(b: pd.DataFrame) -> pd.DataFrame:
        sig = url_trap_signals(b[url_col], max_depth=max_depth,
                               max_params=max_params)
        sig.index = b.index
        out = b[[id_col, url_col]].copy()
        return pd.concat([out, sig], axis=1)

    return ds.map_batches(batch, batch_format="pandas")


def url_trap_oracle_sql(
    source_sql: str,
    *,
    url_expr: str = "url",
    id_col: str = "doc_id",
    max_depth: int = 6,
    max_params: int = 5,
) -> str:
    """DuckDB mirror of :func:`url_trap_batch` (same regexes as
    :func:`functions.url.canonicalize_oracle_sql`)."""
    return f"""
WITH u AS (
  SELECT {id_col}, trim({url_expr}) AS url FROM ({source_sql})
), p AS (
  SELECT {id_col}, url,
    lower(regexp_extract(url,
      '^([A-Za-z][A-Za-z0-9+.\\-]*)://', 1)) AS scheme,
    regexp_extract(url,
      '^[A-Za-z][A-Za-z0-9+.\\-]*://[^/?#]*([^?#]*)', 1) AS path,
    regexp_extract(url,
      '^[A-Za-z][A-Za-z0-9+.\\-]*://[^?#]*\\?([^#]*)', 1) AS query
  FROM u
), s AS (
  SELECT {id_col}, url, scheme <> '' AS is_url,
    list_filter(string_split(path, '/'), x -> x <> '') AS segs, query
  FROM p
), f AS (
  SELECT {id_col}, url,
    CASE WHEN is_url THEN len(segs) ELSE 0 END AS path_depth,
    CASE WHEN is_url THEN len(list_distinct(segs)) ELSE 0 END AS n_uniq,
    CASE WHEN is_url AND query <> ''
         THEN len(string_split(query, '&')) ELSE 0 END AS n_params
  FROM s
)
SELECT {id_col}, url,
       CAST(path_depth AS BIGINT) AS path_depth,
       CAST(n_params AS BIGINT) AS n_params,
       path_depth > n_uniq AS repeated_segment,
       (path_depth > n_uniq OR path_depth > {max_depth}
        OR n_params > {max_params}) AS is_trap
FROM f
"""


def term_blocklist_signals(
    ds: Dataset,
    banned_words: list[str],
    banned_phrases: list[str] = (),
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Content-level banned-term gate — the C4 "bad words" screen (the
    paper filters pages containing any term from a public blocklist;
    RefinedWeb keeps a softer count-based variant).  The policy LIST is
    the caller's; this operator gives the counts and the flag.

    Frozen rules (SQL-mirrored bit-for-bit):

    * ``n_banned_words`` — tokens of ``lower(text)`` under the corpus
      word rule ``[a-z0-9]+`` that equal a banned word EXACTLY (token
      semantics, not substring: "class" never hits "ass");
    * ``n_banned_phrases`` — non-overlapping literal occurrences of
      each lowercased phrase in ``lower(text)``, summed;
    * ``blocked`` — any hit.

    One narrow vectorized map, zero shuffles: token isin against a
    frozenset + one compiled literal scan per phrase (blocklists are
    small by nature; for ~100k-phrase lists use the CMS/set-probe
    machinery instead)."""
    words = frozenset(w.lower() for w in banned_words)
    phrases = [p.lower() for p in banned_phrases]
    word_re = re.compile(r"[a-z0-9]+")
    phrase_res = [re.compile(re.escape(p)) for p in phrases]

    def sig(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("").astype(str).str.lower()
        toks = t.str.findall(word_re)
        nw = np.fromiter(
            (sum(1 for w in lst if w in words) for lst in toks),
            dtype=np.int64, count=len(toks))
        np_ = np.zeros(len(t), dtype=np.int64)
        for rx in phrase_res:
            np_ += t.str.count(rx).to_numpy(np.int64)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "n_banned_words": nw,
            "n_banned_phrases": np_,
            "blocked": (nw + np_) > 0,
        })

    return ds.map_batches(sig, batch_format="pandas")


def filter_by_term_blocklist(
    ds: Dataset,
    banned_words: list[str],
    banned_phrases: list[str] = (),
    *,
    text_col: str = "text",
) -> Dataset:
    """Drop rows hit by the banned-term rules of
    :func:`term_blocklist_signals` (same frozen token/phrase
    semantics); the production gate `webtext_run(banned_words=...)`
    fuses.  One narrow map, zero shuffles."""
    words = frozenset(w.lower() for w in banned_words)
    phrase_res = [re.compile(re.escape(p.lower())) for p in banned_phrases]
    word_re = re.compile(r"[a-z0-9]+")

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("").astype(str).str.lower()
        hit = np.zeros(len(b), dtype=bool)
        if words:
            toks = t.str.findall(word_re)
            hit |= np.fromiter(
                (any(w in words for w in lst) for lst in toks),
                dtype=bool, count=len(toks))
        for rx in phrase_res:
            hit |= t.str.contains(rx).to_numpy()
        return b[~hit]

    return ds.map_batches(keep, batch_format="pandas")


def term_blocklist_oracle_sql(
    source_sql: str,
    banned_words: list[str],
    banned_phrases: list[str] = (),
    *,
    id_col: str = "doc_id",
    text_expr: str = "text",
) -> str:
    """DuckDB mirror of :func:`term_blocklist_signals` — token
    list_filter for words, replace-length arithmetic for phrase
    counts (non-overlapping, the Python ``str.count`` rule).

    Python's ``str.lower`` maps ``İ`` (U+0130) to two characters,
    ``i`` + U+0307, where DuckDB's ``lower`` gives one; the text spells
    it out before lowering, and each phrase's count divides by the
    length of the lowered literal it replaces."""
    t = f"lower(replace(coalesce({text_expr}, ''), '\u0130', 'i\u0307'))"
    wl = ", ".join("'" + w.lower().replace("'", "''") + "'"
                   for w in sorted(set(banned_words)))
    nw = (f"len(list_filter(regexp_extract_all({t}, '[a-z0-9]+'), "
          f"w -> list_contains([{wl}], w)))") if banned_words else "0"
    terms = []
    for p in banned_phrases:
        lit = p.lower().replace("'", "''")
        terms.append(f"(length({t}) - length(replace({t}, '{lit}', '')))"
                     f" // {len(p.lower())}")
    np_sql = " + ".join(terms) if terms else "0"
    return f"""
SELECT {id_col},
  CAST({nw} AS BIGINT) AS n_banned_words,
  CAST({np_sql} AS BIGINT) AS n_banned_phrases,
  (CAST({nw} AS BIGINT) + CAST({np_sql} AS BIGINT)) > 0 AS blocked
FROM ({source_sql})
"""
