"""KR<->EN document alignment: the reference's alignment subsystem
re-expressed as a Ray Data cogroup pipeline.

Semantics re-implemented (not copied) from euaa_사례/sentences/aligner.py:

* header matching, hybrid (J1-J3): keyword pattern anchors (:44-134) ->
  similarity first-match (cos >= 0.8, type-index distance <= 5, :325-371)
  -> per-type Hungarian assignment with cost
  ``(1 - cos) + order_weight * |i-j| / max_len`` (:136-164) and a
  monotonic-in-en-index constraint applied in kr order (:166-211);
  the anchor is deduplicated against Hungarian output (:305-309) and the
  final list is sorted by kr global index (:316-317).
* section split between consecutive matched headers (J5 analogue,
  :380-430): P items with original indices.
* greedy paragraph matching within sections (J4, :442-507): all pairs with
  cos >= threshold (0.5 at the call site, :586-590), sorted by similarity
  descending (stable -> candidate order kr-major breaks ties), each side
  used at most once.

Physical plan: both language streams are tagged and unioned, cogrouped by
``doc_key`` via the bucketed shuffle (stages/agg.py), and each document
pair aligns inside one task with the embedder held in a per-worker cache
(T2 stateful-scorer pattern; euaa_사례/sentences/aligner.py:24-38).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from pdf_extract_ray.functions.embed import HashEmbedder
from pdf_extract_ray.functions.hungarian import linear_sum_assignment

HEADER_TYPES = ("H1", "H2", "H3")

# anchor keyword lists (semantic constants of the reference, aligner.py:45-50)
ANCHOR_PATTERNS = (
    {"kr": ("목차", "차례"), "en": ("contents", "table of contents")},
    {"kr": ("약어", "생략"), "en": ("abbreviation", "acronym")},
    {"kr": ("주요", "하이라이트"), "en": ("main", "highlights")},
    {"kr": ("일러두기", "참고", "주석"), "en": ("note", "reference")},
)


@dataclass
class AlignConfig:
    first_match_distance: int = 5
    first_match_threshold: float = 0.8
    paragraph_threshold: float = 0.5
    order_weight: float = 0.5


class DocumentAligner:
    """Aligns one KR/EN document pair (lists of {idx, text, source_type})."""

    def __init__(self, embedder=None, cfg: AlignConfig | None = None):
        self.embedder = embedder or HashEmbedder()
        self.cfg = cfg or AlignConfig()

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _headers_by_type(items: list[dict]) -> dict[str, list[tuple[int, dict]]]:
        out = {t: [] for t in HEADER_TYPES}
        for i, item in enumerate(items):
            if item.get("source_type") in out:
                out[item["source_type"]].append((i, item))
        return out

    def _encode(self, texts: list[str]) -> np.ndarray:
        return self.embedder.encode(texts)

    def _pattern_anchor(self, kr_h, en_h):
        anchors = []
        for pattern in ANCHOR_PATTERNS:
            for t in HEADER_TYPES:
                kr_list, en_list = kr_h[t], en_h[t]
                if not kr_list or not en_list:
                    continue
                kr_match = next(
                    ((ti, gi, it) for ti, (gi, it) in enumerate(kr_list)
                     if any(k in it["text"].lower() for k in pattern["kr"])),
                    None,
                )
                en_match = next(
                    ((ti, gi, it) for ti, (gi, it) in enumerate(en_list)
                     if any(k in it["text"].lower() for k in pattern["en"])),
                    None,
                )
                if kr_match and en_match:
                    anchors.append({
                        "kr_idx": kr_match[1], "en_idx": en_match[1],
                        "type": t, "similarity": 1.0,
                        "kr_type_idx": kr_match[0], "en_type_idx": en_match[0],
                        "method": "pattern",
                    })
        return min(anchors, key=lambda a: a["kr_idx"]) if anchors else None

    def _similarity_anchor(self, kr_h, en_h):
        c = self.cfg
        candidates = []
        for t in HEADER_TYPES:
            kr_list, en_list = kr_h[t], en_h[t]
            if not kr_list or not en_list:
                continue
            kr_emb = self._encode([it["text"] for _, it in kr_list])
            en_emb = self._encode([it["text"] for _, it in en_list])
            sims = kr_emb @ en_emb.T
            for ki, (kg, _) in enumerate(kr_list):
                for ei, (eg, _) in enumerate(en_list):
                    if abs(ki - ei) > c.first_match_distance:
                        continue
                    s = float(sims[ki, ei])
                    if s >= c.first_match_threshold:
                        candidates.append({
                            "kr_idx": kg, "en_idx": eg, "type": t,
                            "similarity": s, "kr_type_idx": ki,
                            "en_type_idx": ei, "method": "similarity",
                        })
        return min(candidates, key=lambda a: a["kr_idx"]) if candidates else None

    def _hungarian_type(self, kr_list, en_list, t: str) -> list[dict]:
        if not kr_list or not en_list:
            return []
        c = self.cfg
        kr_emb = self._encode([it["text"] for _, it in kr_list])
        en_emb = self._encode([it["text"] for _, it in en_list])
        sims = kr_emb @ en_emb.T
        n, m = len(kr_list), len(en_list)
        max_len = max(n, m)
        i_idx = np.arange(n)[:, None]
        j_idx = np.arange(m)[None, :]
        cost = (1.0 - sims) + c.order_weight * np.abs(i_idx - j_idx) / max_len
        rows, cols = linear_sum_assignment(cost)
        matches = sorted(zip(rows.tolist(), cols.tolist()))
        out = []
        last_en = -1
        for ki, ei in matches:  # monotonic-in-en constraint, kr order
            if ei > last_en:
                kg, kit = kr_list[ki]
                eg, eit = en_list[ei]
                out.append({
                    "kr_idx": kg, "en_idx": eg, "type": t,
                    "similarity": float(sims[ki, ei]),
                    "kr_type_idx": ki, "en_type_idx": ei,
                    "method": "hungarian",
                })
                last_en = ei
        return out

    # -- main ---------------------------------------------------------------
    def header_matches(self, kr_items, en_items):
        kr_h = self._headers_by_type(kr_items)
        en_h = self._headers_by_type(en_items)
        first = self._pattern_anchor(kr_h, en_h) or self._similarity_anchor(kr_h, en_h)
        if first is None:
            return None, []
        matched = []
        for t in HEADER_TYPES:
            for m in self._hungarian_type(kr_h[t], en_h[t], t):
                if not (m["kr_idx"] == first["kr_idx"] and m["en_idx"] == first["en_idx"]):
                    matched.append(m)
        matched.append(first)
        matched.sort(key=lambda m: m["kr_idx"])
        return first, matched

    def _greedy_paragraphs(self, kr_ps, en_ps):
        """kr_ps/en_ps: [(orig_idx, item)].  Returns matched tuples."""
        if not kr_ps or not en_ps:
            return []
        c = self.cfg
        kr_emb = self._encode([it["text"] for _, it in kr_ps])
        en_emb = self._encode([it["text"] for _, it in en_ps])
        sims = kr_emb @ en_emb.T
        candidates = []
        for ki, (kg, kit) in enumerate(kr_ps):
            for ei, (eg, eit) in enumerate(en_ps):
                s = float(sims[ki, ei])
                if s >= c.paragraph_threshold:
                    candidates.append((ki, ei, kg, eg, s))
        candidates.sort(key=lambda x: -x[4])  # stable: ties keep kr-major order
        used_k, used_e, out = set(), set(), []
        for ki, ei, kg, eg, s in candidates:
            if ki not in used_k and ei not in used_e:
                out.append((kg, eg, s))
                used_k.add(ki)
                used_e.add(ei)
        return out

    def align(self, kr_items: list[dict], en_items: list[dict]) -> list[dict]:
        """Full alignment of one document pair -> list of pair dicts."""
        first, headers = self.header_matches(kr_items, en_items)
        if not headers:
            return []
        pairs = []
        for i, m in enumerate(headers):
            kr_start, en_start = m["kr_idx"] + 1, m["en_idx"] + 1
            if i < len(headers) - 1:
                kr_end = headers[i + 1]["kr_idx"]
                en_end = headers[i + 1]["en_idx"]
            else:
                kr_end, en_end = len(kr_items), len(en_items)
            pairs.append({
                "kr_idx": m["kr_idx"], "en_idx": m["en_idx"],
                "kr_text": kr_items[m["kr_idx"]]["text"],
                "en_text": en_items[m["en_idx"]]["text"],
                "match_type": "header", "similarity": round(m["similarity"], 6),
            })
            kr_ps = [(j, kr_items[j]) for j in range(kr_start, kr_end)
                     if kr_items[j].get("source_type") == "P"]
            en_ps = [(j, en_items[j]) for j in range(en_start, en_end)
                     if en_items[j].get("source_type") == "P"]
            for kg, eg, s in self._greedy_paragraphs(kr_ps, en_ps):
                pairs.append({
                    "kr_idx": kg, "en_idx": eg,
                    "kr_text": kr_items[kg]["text"],
                    "en_text": en_items[eg]["text"],
                    "match_type": "paragraph", "similarity": round(s, 6),
                })
        pairs.sort(key=lambda p: p["kr_idx"])
        # pair_seq = position in the final sorted list: the reference's
        # merge builds dict[kr_idx] over this exact order with last-wins
        # overwrite (create_csv.py:64-75), so downstream dedup must be able
        # to reproduce "last" deterministically at any batch boundary
        for seq, p in enumerate(pairs):
            p["pair_seq"] = seq
        return pairs


# ---------------------------------------------------------------------------
# Ray pipeline: cogroup by doc_key
# ---------------------------------------------------------------------------

_ALIGNER_CACHE: dict = {}


def align_documents(
    kr_sents: Dataset,
    en_sents: Dataset,
    *,
    doc_key_col: str = "doc_key",
    order_col: str = "sent_no",
    embedder_factory=None,
    cfg: AlignConfig | None = None,
) -> Dataset:
    """Cogroup the two language streams by document key and align each pair.

    Inputs: sentence tables (doc_key, order_col, text, source_type).
    Output: (doc_key, kr_idx, en_idx, kr_text, en_text, match_type,
    similarity).  THE cogroup shuffle of the alignment subsystem (J5);
    the embedder builds once per worker (T2)."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    cols = [doc_key_col, order_col, "text", "source_type"]

    def tag(side):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            out = b[cols].copy()
            out["side"] = side
            return out
        return f

    unioned = kr_sents.map_batches(tag("kr"), batch_format="pandas").union(
        en_sents.map_batches(tag("en"), batch_format="pandas")
    )

    factory = embedder_factory or HashEmbedder
    acfg = cfg or AlignConfig()

    # cache key carries the factory + config identity so concurrent or
    # successive pipelines with different embedders/thresholds never share
    # a stale aligner in warm workers
    cache_key = (repr(factory), repr(acfg))

    def align_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        aligner = _ALIGNER_CACHE.get(cache_key)
        if aligner is None:
            _ALIGNER_CACHE.clear()
            aligner = _ALIGNER_CACHE[cache_key] = DocumentAligner(factory(), acfg)
        out_rows = []
        for doc_key, g in bucket.groupby(doc_key_col, sort=True):
            g = g.sort_values(order_col, kind="mergesort")
            gk = g[g["side"] == "kr"]
            ge = g[g["side"] == "en"]
            kr = [{"text": t, "source_type": s}
                  for t, s in zip(gk["text"], gk["source_type"])]
            en = [{"text": t, "source_type": s}
                  for t, s in zip(ge["text"], ge["source_type"])]
            kr_orders = gk[order_col].tolist()
            en_orders = ge[order_col].tolist()
            for p in aligner.align(kr, en):
                # translate list POSITIONS into the stream's actual order
                # keys so downstream joins work on gapped/global sent_no
                p["kr_idx"] = kr_orders[p["kr_idx"]]
                p["en_idx"] = en_orders[p["en_idx"]]
                p[doc_key_col] = doc_key
                out_rows.append(p)
        if not out_rows:
            return pd.DataFrame({
                doc_key_col: pd.Series([], dtype="object"),
                "kr_idx": pd.Series([], dtype="int64"),
                "en_idx": pd.Series([], dtype="int64"),
                "kr_text": pd.Series([], dtype="object"),
                "en_text": pd.Series([], dtype="object"),
                "match_type": pd.Series([], dtype="object"),
                "similarity": pd.Series([], dtype="float64"),
                "pair_seq": pd.Series([], dtype="int64"),
            })
        df = pd.DataFrame(out_rows)
        return df[[doc_key_col, "kr_idx", "en_idx", "kr_text", "en_text",
                   "match_type", "similarity", "pair_seq"]]

    return bucketed_group_apply(unioned, [doc_key_col], align_bucket)


# pair columns and their types as the merges read them (align_documents'
# output; a pairs table built elsewhere is cast to these)
PAIR_TYPES = {
    "kr_idx": pa.int64(), "en_idx": pa.int64(), "kr_text": pa.string(),
    "en_text": pa.string(), "match_type": pa.string(),
    "similarity": pa.float64(), "pair_seq": pa.int64(),
}


def _cogroup_merge(sides, pairs, body, *, doc_key_col: str,
                   order_col: str) -> Dataset:
    """Cogroup sentence streams and the pairs by document key with the
    sort-based bucketed shuffle (the plan of :func:`align_documents`), not
    Ray's hash-shuffle ``Dataset.join``, whose per-partition aggregator
    actors hold CPUs and can stall a small session.  ``sides`` are tagged
    ``__side`` 0, 1, ...; pair rows are tagged -1 and cast to
    ``PAIR_TYPES``.  ``body(sents_by_side, pairs)`` gets one bucket: a
    list of per-side Arrow tables and the bucket's pairs."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8)))
        return f

    def tag_pairs(t: pa.Table) -> pa.Table:
        return tag(-1)(pa.table(
            {doc_key_col: t[doc_key_col],
             **{c: t[c].cast(ty) for c, ty in PAIR_TYPES.items()}}))

    u = pairs.map_batches(tag_pairs, batch_format="pyarrow")
    for i, ds in enumerate(sides):
        u = u.union(ds.map_batches(tag(i), batch_format="pyarrow"))

    def apply(g: pa.Table) -> pa.Table:
        if order_col not in g.column_names:
            # pairs of documents without sentences
            return g.slice(0, 0).select([doc_key_col])
        # a bucket without pair rows lacks the pair columns (the shuffle
        # fills only columns some block of the bucket carries)
        for c, ty in PAIR_TYPES.items():
            if c not in g.column_names:
                g = g.append_column(c, pa.nulls(g.num_rows, ty))
        sent_cols = [c for c in g.column_names
                     if c not in PAIR_TYPES and c != "__side"]
        side = g["__side"]
        p = g.filter(pc.equal(side, -1)).select([doc_key_col, *PAIR_TYPES])
        return body([g.filter(pc.equal(side, i)).select(sent_cols)
                     for i in range(len(sides))], p)

    return bucketed_group_apply(u, [doc_key_col], apply, body_format="pyarrow")


def _left_merge(sents: pa.Table, pairs: pa.Table, *, side: str,
                doc_key_col: str, order_col: str) -> pa.Table:
    """One bucket of :func:`merge_aligned`."""
    idx_col = f"{side}_idx"
    other = "en" if side == "kr" else "kr"
    # one pair per source sentence: if the anchor and the Hungarian
    # assignment disagree on the same kr header, the LAST pair (by
    # pair_seq, the aligner's emit order) wins — the reference's
    # dict-overwrite semantics (create_csv.py:64-75).  Done per bucket,
    # which holds every pair of its documents: a per-batch dedup would
    # let duplicates that straddle a batch boundary both survive and fan
    # out the join (one-row-per-sentence contract).
    cols = [doc_key_col, idx_col, f"{other}_idx", f"{other}_text",
            "match_type", "similarity"]
    dd = (pairs.to_pandas().sort_values("pair_seq", kind="mergesort")
          .drop_duplicates([doc_key_col, idx_col], keep="last"))
    right = pa.Table.from_pandas(dd[cols], schema=pairs.select(cols).schema,
                                 preserve_index=False)
    right = right.set_column(1, idx_col, right[idx_col].cast(
        sents.schema.field(order_col).type))
    out = sents.join(right, keys=[doc_key_col, order_col],
                     right_keys=[doc_key_col, idx_col], join_type="left outer")
    return out.set_column(
        out.schema.get_field_index("match_type"), "match_type",
        pc.fill_null(out["match_type"], "unmatched"))


def merge_aligned(
    sents: Dataset,
    pairs: Dataset,
    *,
    side: str = "kr",
    doc_key_col: str = "doc_key",
    order_col: str = "sent_no",
) -> Dataset:
    """LEFT JOIN of a language stream onto the aligned pairs (J6/J7,
    create_csv.py:47-199): every source sentence appears; unmatched rows
    get match_type='unmatched'.  One cogroup shuffle by document key."""
    return _cogroup_merge(
        [sents], pairs,
        lambda s, p: _left_merge(s[0], p, side=side, doc_key_col=doc_key_col,
                                 order_col=order_col),
        doc_key_col=doc_key_col, order_col=order_col)


def merge_full_outer(
    kr_sents: Dataset,
    en_sents: Dataset,
    pairs: Dataset,
    *,
    doc_key_col: str = "doc_key",
    order_col: str = "sent_no",
) -> Dataset:
    """FULL OUTER view (J8, create_csv.py:202-319): the KR-driven merge plus
    EN sentences that matched nothing, appended with match_type='unmatched'.
    One cogroup shuffle of both streams and the pairs by document key."""

    def body(s, p):
        kr, en = s
        view = _left_merge(kr, p, side="kr", doc_key_col=doc_key_col,
                           order_col=order_col)
        matched = p.select([doc_key_col]).append_column(
            "en_idx", p["en_idx"].cast(en.schema.field(order_col).type))
        un = en.join(matched, keys=[doc_key_col, order_col],
                     right_keys=[doc_key_col, "en_idx"], join_type="left anti")
        extra = {"en_idx": un[order_col], "en_text": un["text"],
                 "match_type": pa.array(["unmatched"] * un.num_rows),
                 "similarity": pa.nulls(un.num_rows, pa.float64())}
        for c, col in extra.items():
            un = un.append_column(c, col)
        return pa.concat_tables([view, un.select(view.column_names)
                                 .cast(view.schema)])

    return _cogroup_merge([kr_sents, en_sents], pairs, body,
                          doc_key_col=doc_key_col, order_col=order_col)
