"""Per-language webtext quality rules (round-4 judge gap #1).

The corpus-wide tier rule (pipelines/webtext.py) gates ``tier1`` on an
ENGLISH stopword ratio — with ``split_by_lang=True`` routing de/fr/es/…
to their own directories, every non-English document still failed the
English ``stop_ratio >= 0.06`` gate by construction and landed in
``tier2``.  CCNet (Wenzek et al. 2019, public paper) is per-language for
exactly this reason: quality gates must be evaluated against the
document's OWN language profile.

This module freezes:

* ``LANG_STOPWORDS`` — per-language ASCII stop profiles for the 8
  Latin-script languages the v2 classifier separates
  (stages/langid.py).  Drawn from the same public function-word
  inventories as the langid profiles, restricted to ``[a-z0-9]+`` words
  so the corpus stop-count kernel (stages/textquality.stop_counts)
  applies unchanged: every profile is one ``is_in`` over the batch's
  word dictionary.  ``en`` IS the corpus-wide
  ``STOPWORDS`` tuple, so English documents tier bit-identically under
  both rule packs (the compatibility invariant the pytest freezes).
* ``LANG_TIER_RULES`` — per-language ``min_stop_ratio`` thresholds
  (the CCNet shape: one calibrated threshold per language; all start at
  the corpus default and are overridable per deployment).
* ``tier_columns_lang`` / ``webtext_tiers_lang`` — the fused stage:
  language ID + repetition + quality signals + per-language stop ratio
  + tier label, ONE narrow ``map_batches`` over Arrow blocks (zero
  shuffles; the signals share one lowering of the text with the English
  stop count, and each language present adds one ``is_in`` over the
  word dictionary).  ``tier_batch_lang`` is the same over pandas.

Fallback rule (frozen): a document whose language has no profile
(ko/zh/ru/ja/el/ar/he/th/und — non-Latin scripts where a Latin stopword
ratio is meaningless) is gated against the DEFAULT English profile and
threshold — the corpus-wide status quo, kept deliberately conservative;
script-language packs are a deployment concern (add a profile + rule
and the machinery picks it up).

Scale shape: identical to ``webtext_tiers`` — embarrassingly parallel,
no new shuffle, no broadcast (profiles are module constants).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from pdf_extract_ray.stages.langid import lang_id_v2_labels
from pdf_extract_ray.stages.textquality import (
    STOPWORDS,
    check_stop_profile,
    lowered_docs,
    quality_signals,
    repetition_signals,
    sliced_columns,
    stop_counts,
)
from pdf_extract_ray.util import round_half_away

# frozen per-language stop profiles ([a-z0-9]+ words — asserted by
# check_stop_profile).  en == textquality.STOPWORDS by construction.
LANG_STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": STOPWORDS,
    "de": ("der", "die", "das", "und", "ist", "nicht", "von", "mit",
           "dem", "den", "ein", "eine", "auf", "im", "sich", "werden"),
    "fr": ("le", "la", "les", "des", "une", "est", "et", "dans", "que",
           "qui", "pas", "pour", "sur", "avec", "par", "plus"),
    "es": ("el", "la", "los", "las", "es", "en", "que", "de", "no",
           "se", "por", "con", "para", "como", "una", "del"),
    "pt": ("o", "a", "os", "as", "um", "uma", "e", "do", "da", "dos",
           "das", "em", "que", "se", "por", "com", "para", "como"),
    "it": ("il", "lo", "la", "i", "gli", "le", "un", "una", "e", "di",
           "che", "non", "per", "con", "del", "della", "si", "sono"),
    "nl": ("de", "het", "een", "en", "van", "is", "dat", "op", "te",
           "zijn", "met", "voor", "niet", "aan", "er", "ook"),
    "sv": ("och", "att", "det", "som", "en", "ett", "av", "med", "den",
           "till", "inte", "om", "har", "de", "eller", "men"),
}

# per-language tier1 gate (CCNet shape: calibrate per language; the
# frozen default matches the corpus-wide rule so single-language corpora
# behave identically until deliberately re-calibrated)
DEFAULT_MIN_STOP_RATIO = 0.06
LANG_TIER_RULES: dict[str, float] = {
    lang: DEFAULT_MIN_STOP_RATIO for lang in LANG_STOPWORDS
}

for _words in LANG_STOPWORDS.values():
    check_stop_profile(_words)


def tier_columns_lang(
    text,
    rules: dict | None = None,
    lang_rules: dict[str, float] = LANG_TIER_RULES,
    nb_model: dict | None = None,
) -> dict[str, np.ndarray]:
    """Per-language tier columns of one Arrow text slice (see
    ``textquality.sliced_columns``), in output order: ``lang_id_v2``, the
    corpus signal columns, ``stop_ratio_lang``, then
    ``webtext.label_tiers``' columns.

    Rule order is the frozen ``webtext.tier_columns`` order; only the
    ``tier1`` gate changes: ``stop_ratio_lang >= lang_rules[lang]``
    (default threshold for unprofiled languages), where
    ``stop_ratio_lang`` counts the document's own language's stopwords
    (English for a language without a profile).  All other rejects stay
    language-independent (short/repetitive are script-agnostic
    signals)."""
    from pdf_extract_ray.pipelines.webtext import TIER_RULES, label_tiers

    rules = TIER_RULES if rules is None else rules
    lang = lang_id_v2_labels(text.to_pandas())
    docs = lowered_docs(text)
    cols = {"lang_id_v2": lang, **repetition_signals(docs),
            **quality_signals(docs)}
    stops = stop_counts(docs, STOPWORDS, lang, LANG_STOPWORDS)
    cols["stop_ratio_lang"] = round_half_away(
        stops / np.maximum(cols["n_words"], 1), 4)
    thr = np.array([lang_rules.get(lg, DEFAULT_MIN_STOP_RATIO)
                    for lg in lang], dtype=np.float64)
    return label_tiers(cols, rules, cols["stop_ratio_lang"] >= thr, text,
                       nb_model)


def tier_batch_lang(
    batch: pd.DataFrame,
    text_col: str = "text",
    rules: dict | None = None,
    lang_rules: dict[str, float] = LANG_TIER_RULES,
    nb_model: dict | None = None,
) -> pd.DataFrame:
    """``batch`` (index reset) with the :func:`tier_columns_lang` of its
    ``text_col`` appended, computed slice by slice."""
    out = batch.reset_index(drop=True).copy()
    cols = sliced_columns(
        lambda t: tier_columns_lang(t, rules, lang_rules, nb_model),
        out[text_col])
    for name, col in cols.items():
        out[name] = col
    return out


def webtext_tiers_lang(
    ds: Dataset,
    text_col: str = "text",
    rules: dict | None = None,
    lang_rules: dict[str, float] = LANG_TIER_RULES,
    nb_model: dict | None = None,
    *,
    keep_rejects: bool = True,
) -> Dataset:
    """Dataset-level per-language tiering: ONE narrow fused stage
    (language ID + signals + tier — nothing shuffles, nothing
    materializes), over bounded row slices of each Arrow block like
    ``webtext.webtext_tiers``; ``keep_rejects=False`` drops the reject
    tiers in the same map.  The optional NB model is broadcast once."""
    import ray

    from pdf_extract_ray.pipelines.webtext import tier_slices

    ref = None if nb_model is None else ray.put(nb_model)

    def tiers(t: pa.Table) -> pa.Table:
        model = None if ref is None else ray.get(ref)
        return tier_slices(
            t, lambda text: tier_columns_lang(text, rules, lang_rules, model),
            text_col, keep_rejects=keep_rejects)

    return ds.map_batches(tiers, batch_format="pyarrow")


def reference_signals(text: str, lang: str) -> dict:
    """Independent plain-Python reference for one document's signals +
    tier (collections.Counter + ``re`` — shares NO code with the
    vectorized kernels).  Used by the SQL-oracle builder and the A/B
    pytest; NOT a hot path."""
    import re
    from collections import Counter

    from pdf_extract_ray.pipelines.webtext import TIER_RULES as R

    words = text.split()
    n_words = len(words)
    low = [w.lower() for w in words]
    counts = Counter(low)
    dup_word_frac = (round_half_away(
        np.array([1.0 - len(counts) / n_words]), 4)[0] if n_words else 0.0)
    bigrams = Counter(zip(low, low[1:]))
    top_bigram_frac = (round_half_away(
        np.array([max(bigrams.values()) / (n_words - 1)]), 4)[0]
        if n_words > 1 else 0.0)
    max_run = run = 0
    prev = None
    for w in low:
        run = run + 1 if w == prev else 1
        prev = w
        max_run = max(max_run, run)
    stop_words = LANG_STOPWORDS.get(lang, STOPWORDS)
    rx = re.compile(r"\b(?:" + "|".join(stop_words) + r")\b")
    stops = len(rx.findall(text.lower()))
    stop_ratio_lang = float(round_half_away(
        np.array([stops / max(n_words, 1)]), 4)[0])
    thr = LANG_TIER_RULES.get(lang, DEFAULT_MIN_STOP_RATIO)
    if n_words < R["min_words"]:
        tier = "reject_short"
    elif (dup_word_frac > R["max_dup_word_frac"]
          or max_run >= R["max_word_run"]
          or top_bigram_frac > R["max_top_bigram_frac"]):
        tier = "reject_repetitive"
    elif stop_ratio_lang >= thr:
        tier = "tier1"
    else:
        tier = "tier2"
    return {"n_words": n_words, "stop_ratio_lang": stop_ratio_lang,
            "tier": tier}
