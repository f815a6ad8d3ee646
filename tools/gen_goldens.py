"""Golden-oracle generator: SINGLE-PROCESS (no Ray) reference outputs for
the driver queries whose semantics are not expressible in plain SQL over
the input tables (DOM extraction, alignment, sketch-based near-dup).

Each golden is produced by an independent single-process implementation —
a plain Python loop over the rows using the frozen per-document/pair
kernels (``oracle_extract``, ``DocumentAligner``, the signature
functions) with dict-based candidate generation instead of distributed
shuffles.  The distributed pipelines must match these byte-for-byte,
which turns the rows-only driver checks into full rows+schema+hash
checks: ``oracle_sql()`` reads the committed parquet via DuckDB
``read_parquet`` and the driver compares it against the live Ray run.

Reference invariant being surfaced (BASELINE.json): "byte-identical
extracted text per url" — previously only asserted in pytest goldens,
now checked by the driver's own gate.

Usage: python tools/gen_goldens.py [sf_dir ...]
Writes /root/repo/goldens/<sf_name>/<query>.parquet
"""

from __future__ import annotations

import os
import re
import sys
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

GOLDEN_ROOT = os.path.join(_REPO, "goldens")


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.01


# ---------------------------------------------------------------------------
# extraction (flagship/staged/sentences)
# ---------------------------------------------------------------------------

def gen_extract(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.corpus import pages_from_documents
    from pdf_extract_ray.pipelines.extract import oracle_extract

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = pages_from_documents(docs).to_pylist()
    res = oracle_extract(pages)

    flagship = pa.table({
        "url": pa.array([r["url"] for r in res], pa.string()),
        "warc_ts": pa.array([r["warc_ts"] for r in res], pa.timestamp("us")),
        "lang": pa.array([r["lang"] for r in res], pa.string()),
        "extracted_text": pa.array([r["extracted_text"] for r in res],
                                   pa.large_string()),
        "n_sentences": pa.array([r["n_sentences"] for r in res], pa.int32()),
        "n_pages": pa.array([r["n_pages"] for r in res], pa.int32()),
        "status": pa.array([r["status"] for r in res], pa.string()),
    })

    cols = {k: [] for k in ("url", "page_no", "frag_id", "sent_no", "text",
                            "source_type")}
    for r in res:
        for s in r["sentences"]:
            cols["url"].append(r["url"])
            cols["page_no"].append(s.page_no)
            cols["frag_id"].append(s.frag_id)
            cols["sent_no"].append(s.sent_no)
            cols["text"].append(s.text)
            cols["source_type"].append(s.source_type)
    sentences = pa.table({
        "url": pa.array(cols["url"], pa.string()),
        "page_no": pa.array(cols["page_no"], pa.int32()),
        "frag_id": pa.array(cols["frag_id"], pa.int32()),
        "sent_no": pa.array(cols["sent_no"], pa.int32()),
        "text": pa.array(cols["text"], pa.large_string()),
        "source_type": pa.array(cols["source_type"], pa.string()),
    })
    # the staged plan is byte-identical to the fused plan by contract
    return {"extract_flagship": flagship, "extract_staged": flagship,
            "extract_sentences": sentences}


# ---------------------------------------------------------------------------
# alignment (pairs / merged-kr / full-outer)
# ---------------------------------------------------------------------------

def gen_align(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.corpus import PSEUDO_TRANSLATIONS, paired_sentence_tables
    from pdf_extract_ray.functions.embed import HashEmbedder
    from pdf_extract_ray.pipelines.align import DocumentAligner

    n_docs = max(8, int(2000 * _sf_of(sf_dir)))
    kr_t, en_t = paired_sentence_tables(n_docs)
    kr_df, en_df = kr_t.to_pandas(), en_t.to_pandas()
    aligner = DocumentAligner(HashEmbedder(vocab_map=PSEUDO_TRANSLATIONS))

    rows = []
    for doc_key in sorted(kr_df["doc_key"].unique()):
        gk = kr_df[kr_df.doc_key == doc_key].sort_values("sent_no")
        ge = en_df[en_df.doc_key == doc_key].sort_values("sent_no")
        kr_items = gk[["text", "source_type"]].to_dict("records")
        en_items = ge[["text", "source_type"]].to_dict("records")
        kr_orders = gk["sent_no"].tolist()
        en_orders = ge["sent_no"].tolist()
        for p in aligner.align(kr_items, en_items):
            p["kr_idx"] = kr_orders[p["kr_idx"]]
            p["en_idx"] = en_orders[p["en_idx"]]
            p["doc_key"] = doc_key
            rows.append(p)
    pairs = pd.DataFrame(
        rows, columns=["doc_key", "kr_idx", "en_idx", "kr_text", "en_text",
                       "match_type", "similarity", "pair_seq"])

    # merged-kr: keep-last per (doc, kr_idx) by pair_seq (dict-overwrite),
    # LEFT join onto the KR sentence stream
    dd = pairs.sort_values("pair_seq", kind="mergesort").drop_duplicates(
        ["doc_key", "kr_idx"], keep="last")
    merged = kr_df.merge(
        dd[["doc_key", "kr_idx", "en_idx", "en_text", "match_type", "similarity"]],
        left_on=["doc_key", "sent_no"], right_on=["doc_key", "kr_idx"], how="left",
    ).drop(columns=["kr_idx"])
    merged["match_type"] = merged["match_type"].fillna("unmatched")

    # full outer: merged-kr plus EN sentences matched by nothing
    matched_en = set(zip(pairs["doc_key"], pairs["en_idx"]))
    un = en_df[~pd.Series(list(zip(en_df["doc_key"], en_df["sent_no"])),
                          index=en_df.index).isin(matched_en)].copy()
    un["en_idx"] = un["sent_no"]
    un["en_text"] = un["text"]
    un["match_type"] = "unmatched"
    un["similarity"] = np.nan
    full = pd.concat([merged, un[merged.columns]], ignore_index=True)

    return {
        "align_pairs": pa.Table.from_pandas(pairs, preserve_index=False),
        "align_merged_kr": pa.Table.from_pandas(merged, preserve_index=False),
        "align_full_outer": pa.Table.from_pandas(full, preserve_index=False),
    }


# ---------------------------------------------------------------------------
# near-dup family (minhash / simhash / winnow) — dict-based single-process
# candidate generation, same frozen signature kernels
# ---------------------------------------------------------------------------

def gen_minhash(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.stages.dedup import (
        _hash_perm_params, minhash_band_keys, minhash_signatures)
    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    ids = docs["doc_id"].to_numpy()
    a, b = _hash_perm_params(128)
    sig = minhash_signatures(docs["text"].tolist(), a, b, k=3)
    keys = minhash_band_keys(sig, 32)
    buckets: dict = defaultdict(list)
    for pos in range(len(ids)):
        for band in range(32):
            buckets[keys[pos, band]].append(pos)
    cand = set()
    for members in buckets.values():
        if len(members) < 2 or len(members) > 1000:  # max_band_freq mirror
            continue
        ms = np.sort(ids[members])
        pos_by_id = {i: p for p, i in zip(members, ids[members])}
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                cand.add((pos_by_id[ms[x]], pos_by_id[ms[y]]))
    out = {"id_a": [], "id_b": [], "jaccard": []}
    for pa_, pb_ in cand:
        ia, ib = int(ids[pa_]), int(ids[pb_])
        if ia > ib:
            ia, ib, pa_, pb_ = ib, ia, pb_, pa_
        jac = float(round_half_away((sig[pa_] == sig[pb_]).mean(), 4))
        if jac >= 0.5:
            out["id_a"].append(ia)
            out["id_b"].append(ib)
            out["jaccard"].append(jac)
    df = pd.DataFrame(out).sort_values(["id_a", "id_b"]).reset_index(drop=True)

    # transitive clusters of the same pairs via plain union-find
    parent: dict = {}

    def find(u):
        parent.setdefault(u, u)
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for ia, ib in zip(df["id_a"], df["id_b"]):
        ra, rb = find(int(ia)), find(int(ib))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = sorted((n, find(n)) for n in parent)
    clusters = pd.DataFrame(comp, columns=["node", "component"])
    dropped = {n for n, c in comp if n != c}
    kept = pd.DataFrame({"doc_id": [int(i) for i in ids if int(i) not in dropped]})
    return {"minhash_near_dup": pa.Table.from_pandas(df, preserve_index=False),
            "near_dup_clusters": pa.Table.from_pandas(clusters,
                                                      preserve_index=False),
            "near_dup_dedup_docs": pa.Table.from_pandas(kept,
                                                        preserve_index=False)}


def gen_simhash(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.stages.dedup import simhash_signatures

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    ids = docs["doc_id"].to_numpy()
    h = simhash_signatures(docs["text"].fillna("").tolist())
    max_hamming, max_bucket = 3, 1000
    n_bands = max_hamming + 1
    width = 64 // n_bands
    masks, pos = [], 0
    for bnd in range(n_bands):
        w = width + (1 if bnd < 64 % n_bands else 0)
        masks.append((pos, (1 << w) - 1))
        pos += w
    buckets: dict = defaultdict(list)
    for p in range(len(ids)):
        for bnd, (shift, mask) in enumerate(masks):
            buckets[(bnd, (int(h[p]) >> shift) & mask)].append(p)
    out = {"id_a": [], "id_b": [], "hamming": []}
    for (band_no, _), members in buckets.items():
        if len(members) < 2 or len(members) > max_bucket:
            continue
        order = np.argsort(ids[members], kind="stable")
        ms = [members[i] for i in order]
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                xo = int(h[ms[x]]) ^ int(h[ms[y]])
                d = bin(xo).count("1")
                if d > max_hamming:
                    continue
                first = next((bb for bb, (sh, mk) in enumerate(masks)
                              if ((xo >> sh) & mk) == 0), band_no)
                if first == band_no:
                    ia, ib = int(ids[ms[x]]), int(ids[ms[y]])
                    out["id_a"].append(min(ia, ib))
                    out["id_b"].append(max(ia, ib))
                    out["hamming"].append(d)
    df = pd.DataFrame(out).sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return {"simhash_near_dup": pa.Table.from_pandas(df, preserve_index=False)}


def gen_winnow(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.functions.fingerprint import winnow_fingerprints
    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    k, window, max_fp_freq, threshold = 5, 4, 200, 0.2
    fp_sets = {int(r.doc_id): set(winnow_fingerprints(r.text or "", k, window))
               for r in docs.itertuples()}
    freq: dict = defaultdict(int)
    for s in fp_sets.values():
        for fp in s:
            freq[fp] += 1
    surviving = {i: {fp for fp in s if freq[fp] <= max_fp_freq}
                 for i, s in fp_sets.items()}
    by_fp: dict = defaultdict(list)
    for i, s in surviving.items():
        for fp in s:
            by_fp[fp].append(i)
    cand = set()
    for members in by_fp.values():
        ms = sorted(members)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                cand.add((ms[x], ms[y]))
    out = {"id_a": [], "id_b": [], "shared": [], "overlap": []}
    for ia, ib in sorted(cand):
        shared = len(surviving[ia] & surviving[ib])
        union = len(surviving[ia] | surviving[ib])
        ov = float(round_half_away(shared / union, 4)) if union else 0.0
        if ov >= threshold:
            out["id_a"].append(ia)
            out["id_b"].append(ib)
            out["shared"].append(shared)
            out["overlap"].append(ov)
    return {"winnow_near_dup": pa.Table.from_pandas(
        pd.DataFrame(out), preserve_index=False)}


# ---------------------------------------------------------------------------
# pair analyzers / layout / media / sketch
# ---------------------------------------------------------------------------

def gen_pair_analyzers(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.stages.analyzers import PairAnalyzer

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    nxt = docs.rename(columns={"doc_id": "pair_id", "text": "en_text"})
    nxt["pair_id"] = nxt["pair_id"] - 1
    pairs = docs.rename(columns={"text": "kr_text"}).merge(
        nxt, left_on="doc_id", right_on="pair_id", how="inner")
    out = PairAnalyzer("kr_text", "en_text")(pairs)
    cols = ["doc_id", "punct_match_type", "number_match_status",
            "eng_word_match_status", "symbol_match_status",
            "only_eng_korean_sentence"]
    return {"pair_analyzers": pa.Table.from_pandas(out[cols], preserve_index=False)}


def gen_layout(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.corpus import synth_layout_rows
    from pdf_extract_ray.stages.layout import tag_page_lines

    rows = synth_layout_rows(4)
    df = pd.DataFrame(rows)
    out = []
    for (url, page), g in df.groupby(["url", "page_no"], sort=True):
        for blk in tag_page_lines(g.to_dict("records"), 600.0, 800.0, int(page)):
            out.append({"url": url, "page_no": blk.page_no,
                        "block_no": blk.block_no, "tag": blk.tag,
                        "text": blk.text})
    return {"layout_tagging": pa.Table.from_pandas(
        pd.DataFrame(out), preserve_index=False)}


def gen_media(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.stages.multimodal import synth_media_table

    n = max(50, int(10000 * _sf_of(sf_dir)))
    t = synth_media_table(n)
    return {"media_features": t.select(["media_id", "kind"])}


def gen_media_pixels(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of media_pixel_features: decode every payload
    with the raw codec functions (not the batch stage) in a plain loop."""
    import numpy as np

    from pdf_extract_ray.functions.bmp import (
        decode_bmp, decode_wav, split_bmp_stream)
    from pdf_extract_ray.stages.multimodal import synth_bmp_media_table

    n = max(50, int(10000 * _sf_of(sf_dir)))
    t = synth_bmp_media_table(n)
    rows = []
    for mid, kind, payload in zip(t["media_id"].to_pylist(),
                                  t["kind"].to_pylist(),
                                  t["payload"].to_pylist()):
        r = dict(media_id=mid, kind=kind, width=0, height=0, n_frames=0,
                 n_samples=0, sample_rate=0, mean_lum=0.0, std_lum=0.0,
                 rms=0.0)
        if kind == "image":
            px = decode_bmp(payload)
            r.update(width=px.shape[1], height=px.shape[0], n_frames=1,
                     mean_lum=round(float(px.mean()), 6),
                     std_lum=round(float(px.std()), 6))
        elif kind == "video":
            frames = [decode_bmp(f) for f in split_bmp_stream(payload)]
            allpx = np.concatenate([f.reshape(-1) for f in frames])
            r.update(width=frames[0].shape[1], height=frames[0].shape[0],
                     n_frames=len(frames),
                     mean_lum=round(float(allpx.mean()), 6),
                     std_lum=round(float(allpx.std()), 6))
        else:
            samples, rate = decode_wav(payload)
            s = samples.astype(np.float64) / 32768.0
            r.update(n_samples=len(samples), sample_rate=rate,
                     rms=round(float(np.sqrt(np.mean(s * s))), 6))
        rows.append(r)
    df = pd.DataFrame(rows)
    return {"media_pixel_features": pa.table({
        "media_id": pa.array(df["media_id"], pa.int64()),
        "kind": pa.array(df["kind"], pa.string()),
        "width": pa.array(df["width"], pa.int32()),
        "height": pa.array(df["height"], pa.int32()),
        "n_frames": pa.array(df["n_frames"], pa.int32()),
        "n_samples": pa.array(df["n_samples"], pa.int64()),
        "sample_rate": pa.array(df["sample_rate"], pa.int32()),
        "mean_lum": pa.array(df["mean_lum"], pa.float64()),
        "std_lum": pa.array(df["std_lum"], pa.float64()),
        "rms": pa.array(df["rms"], pa.float64()),
    })}


def gen_compression_ratio(sf_dir: str) -> dict[str, pa.Table]:
    # plain-loop single-process implementation of the frozen rules
    # (utf-8 encode, zlib level 6, empty -> 0.0 ratio, round-half-away 4)
    import zlib

    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    nb, nc, ratio = [], [], []
    for t in docs["text"]:
        raw = ("" if t is None else t).encode("utf-8")
        c = len(zlib.compress(raw, 6))
        nb.append(len(raw))
        nc.append(c)
        ratio.append(float(round_half_away(c / len(raw), 4)) if raw else 0.0)
    out = pd.DataFrame({"doc_id": docs["doc_id"], "n_bytes": nb,
                        "n_compressed": nc, "compression_ratio": ratio})
    return {"compression_ratio_docs": pa.Table.from_pandas(
        out, preserve_index=False)}


def gen_bpe(sf_dir: str) -> dict[str, pa.Table]:
    # single-process path: plain-Counter wordcount (no Ray, no shuffles)
    # -> the frozen trainer -> plain-loop encoding.  The cap and the
    # tie-break are frozen semantics, so the distributed plan must match
    # exactly (determinism freeze; the wordcount itself has a full SQL
    # oracle via top_words).
    import re
    from collections import Counter

    from pdf_extract_ray.stages.bpe import (bpe_encode_word,
                                            learn_bpe_from_counts)

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    word_re = re.compile(r"[a-z0-9]+")
    c = Counter()
    for t in docs["text"]:
        c.update(word_re.findall(("" if t is None else t).lower()))
    top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:20_000]
    merges = learn_bpe_from_counts(top, n_merges=100)
    ranks = {m: i for i, m in enumerate(merges)}
    mt = pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([a for a, _ in merges], pa.string()),
        "right": pa.array([b for _, b in merges], pa.string()),
    })
    counts = [sum(len(bpe_encode_word(w, ranks))
                  for w in word_re.findall(("" if t is None else t).lower()))
              for t in docs["text"]]
    st = pa.table({"doc_id": pa.array(docs["doc_id"], pa.int64()),
                   "n_bpe_tokens": pa.array(counts, pa.int64())})
    return {"bpe_merges": mt, "bpe_token_stats": st}


def gen_similarity_ivf(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of ivf_topk: same centroid pick (hash-spread
    sample + farthest-point traversal), same cell assignment, same probe
    sets, brute-force cosine within probed cells, (cosine desc, id asc)
    tie-break, round(6)."""
    from pdf_extract_ray.stages.similarity import _kmeanspp_lite
    from pdf_extract_ray.util import round_half_away

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    ids = emb["vec_id"].to_numpy()
    v = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    q = v[ids < 5]
    # hash-spread sample, mirroring similarity._centroid_sample:
    # stride filter, then the 2048 smallest (hash, id)
    stride = max(1, len(emb) // 2048)
    h = pd.util.hash_pandas_object(emb["vec_id"], index=False).to_numpy()
    mask = (h % np.uint64(stride)) == 0
    if mask.sum() < 16:
        sample = v[:2048]
    else:
        order = np.lexsort((ids[mask], h[mask]))[:2048]
        sample = v[mask][order]
    cents = _kmeanspp_lite(sample, 16)
    cents_sq = (cents ** 2).sum(axis=1)
    cell = (cents_sq[None, :] - 2.0 * (v @ cents.T)).argmin(axis=1)
    qd = np.linalg.norm(q[:, None, :] - cents[None, :, :], axis=2)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    vn = v / norms
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    out = {"query_id": [], "vec_id": [], "cosine": []}
    for qi in range(len(q)):
        probe = set(np.argsort(qd[qi])[:4].tolist())
        keep = np.isin(cell, list(probe))
        sims = vn[keep] @ qn[qi]
        kids = ids[keep]
        order = np.lexsort((kids, -sims))[:10]
        for i in order:
            out["query_id"].append(qi)
            out["vec_id"].append(int(kids[i]))
            out["cosine"].append(float(round_half_away(sims[i], 6)))
    return {"similarity_topk_ivf": pa.Table.from_pandas(
        pd.DataFrame(out), preserve_index=False)}


def gen_embedding_lsh(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of the LSH multi-probe embedding near-dup
    (num_buckets=32, Hamming-1 probes, threshold 0.4)."""
    from pdf_extract_ray.util import round_half_away

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    ids = emb["vec_id"].to_numpy()
    v = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    bits = 5  # log2(32)
    rng = np.random.RandomState(11)
    planes = rng.standard_normal((v.shape[1], bits))
    code = ((v @ planes) > 0).dot(1 << np.arange(bits)).astype(np.int64)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    vn = v / norms
    buckets: dict = defaultdict(set)
    for p, c in enumerate(code):
        buckets[int(c)].add(p)
        for i in range(bits):
            buckets[int(c) ^ (1 << i)].add(p)
    seen = {}
    for members in buckets.values():
        ms = sorted(members, key=lambda p: ids[p])
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                a, b = ms[x], ms[y]
                key = (int(ids[a]), int(ids[b]))
                if key in seen:
                    continue
                cos = float(vn[a] @ vn[b])
                if cos >= 0.4:
                    seen[key] = float(round_half_away(cos, 6))
    df = pd.DataFrame(
        [(a, b, c) for (a, b), c in sorted(seen.items())],
        columns=["id_a", "id_b", "cosine"])
    return {"embedding_near_dup_lsh": pa.Table.from_pandas(
        df, preserve_index=False)}


def gen_pdf_extract(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of the PDF query: synthesize the same PDFs
    and run oracle_extract (a plain loop) over them."""
    from pdf_extract_ray.corpus import pdfs_from_documents
    from pdf_extract_ray.pipelines.extract import oracle_extract

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    out = oracle_extract(pdfs_from_documents(docs).to_pylist())
    return {"pdf_extract_docs": pa.table({
        "url": pa.array([d["url"] for d in out], pa.string()),
        "extracted_text": pa.array([d["extracted_text"] for d in out],
                                   pa.large_string()),
        "n_sentences": pa.array([d["n_sentences"] for d in out], pa.int32()),
        "n_pages": pa.array([d["n_pages"] for d in out], pa.int32()),
        "status": pa.array([d["status"] for d in out], pa.string()),
    })}


def gen_substr_dedup(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of stages/substr.dedup_substrings(k=8):
    plain dict counting of literal 8-word shingles, inline span merge +
    token removal — topology-independent of the Ray rolling-hash path
    (which must agree since its hash keys collide only at ~2^-64)."""
    k = 8
    word = re.compile(r"[a-z0-9]+")
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    toks: dict[int, list[str]] = {}
    counts: defaultdict[str, int] = defaultdict(int)
    for r in docs.itertuples(index=False):
        t = word.findall((r.text or "").lower())
        toks[int(r.doc_id)] = t
        for i in range(len(t) - k + 1):
            counts[" ".join(t[i : i + k])] += 1
    rows = []
    for did, t in toks.items():
        starts = [i + 1 for i in range(len(t) - k + 1)
                  if counts[" ".join(t[i : i + k])] >= 2]
        drop = [False] * len(t)
        for s in starts:
            for j in range(s - 1, min(s - 1 + k, len(t))):
                drop[j] = True
        kept = [w for w, d in zip(t, drop) if not d]
        rows.append((did, " ".join(kept), len(t), len(t) - len(kept)))
    df = pd.DataFrame(rows, columns=["doc_id", "cleaned_text", "n_tokens",
                                     "n_removed_tokens"])
    return {"substr_dedup_docs": pa.Table.from_pandas(
        df, preserve_index=False)}


def gen_pagerank(sf_dir: str) -> dict[str, pa.Table]:
    """Golden for `host_pagerank`: edges derived ARITHMETICALLY from the
    documents table (mirroring __ray_entry__._link_edges_oracle — no
    regex, no urljoin, so the derivation is independent of the Ray
    extraction path), ranked by the dense-numpy reference
    implementation (independent of the distributed iteration)."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    src = "host" + (docs["doc_id"] % 13).astype(str) + ".example"
    edges = pd.concat([
        pd.DataFrame({"src_host": src,
                      "dst_host": docs["source"].astype(str) + ".example"}),
        pd.DataFrame({"src_host": src, "dst_host": src}),
        pd.DataFrame({"src_host": src, "dst_host": "ads.example"}),
    ])
    weighted = (edges.groupby(["src_host", "dst_host"], as_index=False)
                .size().rename(columns={"size": "n_links"}))

    from pdf_extract_ray.stages.pagerank import pagerank_reference

    r = pagerank_reference(weighted, weight_col="n_links", n_iter=8,
                           tol=None)
    return {"host_pagerank": pa.Table.from_pandas(r, preserve_index=False)}


def gen_trustrank(sf_dir: str) -> dict[str, pa.Table]:
    """Golden for `host_trustrank`: the SAME arithmetic weighted edges
    as gen_pagerank, with the random jump seeded on the three vetted
    hosts host{0,1,2}.example (frozen seed set), ranked by the
    independent dense-numpy reference under the frozen TrustRank
    conventions (seed-normalized teleport, dangling mass to seeds,
    start from the seed distribution)."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    src = "host" + (docs["doc_id"] % 13).astype(str) + ".example"
    edges = pd.concat([
        pd.DataFrame({"src_host": src,
                      "dst_host": docs["source"].astype(str) + ".example"}),
        pd.DataFrame({"src_host": src, "dst_host": src}),
        pd.DataFrame({"src_host": src, "dst_host": "ads.example"}),
    ])
    weighted = (edges.groupby(["src_host", "dst_host"], as_index=False)
                .size().rename(columns={"size": "n_links"}))

    from pdf_extract_ray.stages.pagerank import pagerank_reference

    r = pagerank_reference(
        weighted, weight_col="n_links", n_iter=8, tol=None,
        teleport={f"host{k}.example": 1.0 for k in range(3)},
    ).rename(columns={"rank": "trust"})
    return {"host_trustrank": pa.Table.from_pandas(r, preserve_index=False)}


def gen_hits(sf_dir: str) -> dict[str, pa.Table]:
    """Golden for `host_hits`: same arithmetic edge derivation as
    gen_pagerank, collapsed to DISTINCT (src, dst) pairs (the rolled-up
    host graph the query feeds), ranked by the independent dense-numpy
    HITS reference."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    src = "host" + (docs["doc_id"] % 13).astype(str) + ".example"
    edges = pd.concat([
        pd.DataFrame({"src_host": src,
                      "dst_host": docs["source"].astype(str) + ".example"}),
        pd.DataFrame({"src_host": src, "dst_host": src}),
        pd.DataFrame({"src_host": src, "dst_host": "ads.example"}),
    ]).drop_duplicates()

    from pdf_extract_ray.stages.pagerank import hits_reference

    r = hits_reference(edges, n_iter=8)
    return {"host_hits": pa.Table.from_pandas(r, preserve_index=False)}


def gen_cms(sf_dir: str) -> dict[str, pa.Table]:
    # single-process path: one flat word list -> one CMS build -> probe
    # at the exact top-20 (plain Counter).  Matrix merge is addition, so
    # the distributed per-batch-partial sketch equals this exactly.
    import re
    from collections import Counter

    from pdf_extract_ray.stages.sketch import cms_estimate, cms_from_values

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["text"]).to_pandas()
    word_re = re.compile(r"[a-z0-9]+")
    all_words = []
    for t in docs["text"]:
        all_words.extend(word_re.findall(("" if t is None else t).lower()))
    c = Counter(all_words)
    top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    words = pd.Series([w for w, _ in top])
    m = cms_from_values(pd.Series(all_words))
    return {"cms_word_probe": pa.table({
        "word": pa.array(words, pa.string()),
        "n_exact": pa.array([n for _, n in top], pa.int64()),
        "n_cms": pa.array(cms_estimate(m, words).astype("int64"),
                          pa.int64()),
    })}


def gen_bloom(sf_dir: str) -> dict[str, pa.Table]:
    # single-process build over the same synthesized url set; merge is
    # bitwise OR (associative/commutative/idempotent) so the distributed
    # per-batch-partial build equals this exactly — determinism freeze;
    # the no-false-negative and FP-rate bounds are asserted in pytest.
    from pdf_extract_ray.stages.sketch import bloom_contains, bloom_from_values

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"]).to_pandas()
    urls = "http://h" + (docs["doc_id"] % 13).astype(str) + ".example/p/" \
        + docs["doc_id"].astype(str)
    w = bloom_from_values(urls)
    probes = pd.Series(
        [f"http://h{i % 13}.example/p/{i}" for i in range(10)]
        + [f"http://absent{i}.example/x" for i in range(10)])
    return {"bloom_url_probe": pa.table({
        "key": pa.array(probes, pa.string()),
        "in_filter": pa.array(bloom_contains(w, probes), pa.bool_()),
    })}


def gen_nb_quality(sf_dir: str) -> dict[str, pa.Table]:
    # single-process reference: dict-based count training + per-token
    # scoring loop over the shared deterministic labeled set
    # (corpus.nb_train_frame); the distributed closed-form NB must match
    # byte-for-byte (same frozen hash, same summation order).
    from pdf_extract_ray.corpus import nb_train_frame
    from pdf_extract_ray.stages.nbquality import nb_quality_reference

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id")
    train = nb_train_frame(docs["doc_id"].to_numpy())
    ref = nb_quality_reference(train["text"], train["label"], docs["text"])
    ref.insert(0, "doc_id", docs["doc_id"].to_numpy())
    return {"nb_quality_docs": pa.Table.from_pandas(
        ref, preserve_index=False)}


def gen_nb_topic(sf_dir: str) -> dict[str, pa.Table]:
    # single-process multiclass reference over the shared 3-class
    # arithmetic labeled set (corpus.nb_topic_frame)
    from pdf_extract_ray.corpus import nb_topic_frame
    from pdf_extract_ray.stages.nbquality import nb_classify_reference

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id")
    train = nb_topic_frame(docs["doc_id"].to_numpy())
    ref = nb_classify_reference(train["text"], train["label"],
                                docs["text"])
    ref.insert(0, "doc_id", docs["doc_id"].to_numpy())
    return {"nb_topic_docs": pa.Table.from_pandas(ref,
                                                  preserve_index=False)}


def gen_image_dup(sf_dir: str) -> dict[str, pa.Table]:
    """Brute-force all-pairs Hamming over per-image dHash — independent
    of the banding/shuffle path (pigeonhole guarantees the LSH output
    equals the full <=max_hamming pair set when no bucket overflows,
    which the synth corpus can't at this size)."""
    from pdf_extract_ray.functions.bmp import decode_bmp
    from pdf_extract_ray.stages.multimodal import (
        dhash64,
        image_dup_n,
        synth_image_dup_table,
    )

    t = synth_image_dup_table(image_dup_n(_sf_of(sf_dir)))
    ids = t["media_id"].to_pylist()
    hs = [dhash64(decode_bmp(p)) for p in t["payload"].to_pylist()]
    out = {"id_a": [], "id_b": [], "hamming": []}
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            d = bin(hs[x] ^ hs[y]).count("1")
            if d <= 5:
                out["id_a"].append(ids[x])
                out["id_b"].append(ids[y])
                out["hamming"].append(d)
    df = (pd.DataFrame(out).astype(np.int64)
          .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    return {"image_near_dup": pa.Table.from_pandas(df,
                                                   preserve_index=False)}


def gen_dsir(sf_dir: str) -> dict[str, pa.Table]:
    # single-process DSIR reference: dict-count target/raw distributions
    # + per-feature scoring loop (stages/dsir.dsir_reference); target =
    # the English slice, raw = all documents — matching q_dsir_weights
    from pdf_extract_ray.stages.dsir import dsir_reference

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"]).to_pandas() \
        .sort_values("doc_id")
    ref = dsir_reference(docs.loc[docs["lang"] == "en", "text"],
                         docs["text"], docs["text"])
    ref.insert(0, "doc_id", docs["doc_id"].to_numpy())
    return {"dsir_weights_docs": pa.Table.from_pandas(
        ref, preserve_index=False)}


def gen_semdedup(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of semantic_dedup (threshold 0.4, 16 cells):
    same deterministic centroid pick (the shared frozen constant, like
    dhash64 for the image golden), but cluster assignment, centroid
    cosine and the greedy farthest-from-centroid-first keep sweep are
    re-derived here with plain per-row loops — independent of BOTH the
    engine's bucketed shuffle and semdedup.sweep_cluster."""
    from pdf_extract_ray.stages.similarity import _kmeanspp_lite
    from pdf_extract_ray.util import round_half_away

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    ids = emb["vec_id"].to_numpy()
    v = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    stride = max(1, len(emb) // 2048)
    h = pd.util.hash_pandas_object(emb["vec_id"], index=False).to_numpy()
    mask = (h % np.uint64(stride)) == 0
    if mask.sum() < 16:
        sample = v[:2048]
    else:
        order = np.lexsort((ids[mask], h[mask]))[:2048]
        sample = v[mask][order]
    cents = _kmeanspp_lite(sample, 16)
    # cell assignment + centroid cosine use the engine's exact float
    # expressions (frozen constants of the operator, like the centroid
    # pick itself — bit-equality matters for the argmin); the SWEEP below
    # is the independently re-derived part
    cents_sq = (cents ** 2).sum(axis=1)
    dots = v @ cents.T
    cell_of = (cents_sq[None, :] - 2.0 * dots).argmin(axis=1)
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0] = 1.0
    vn = v / norms[:, None]
    cn = np.linalg.norm(cents, axis=1)
    cn[cn == 0] = 1.0
    all_ccos = round_half_away(
        dots[np.arange(len(v)), cell_of] / (norms * cn[cell_of]), 6)
    rows = []
    for c in range(len(cents)):
        members = sorted(
            (float(all_ccos[i]), int(ids[i]), i)
            for i in range(len(ids)) if cell_of[i] == c)
        kept_rows = []  # (id, row index) in keep order
        for ccos, id_, i in members:
            best, dup = -2.0, None
            for kid, kidx in kept_rows:
                cos = float(round_half_away(float(vn[i] @ vn[kidx]), 6))
                if cos > best:
                    best, dup = cos, kid
            if kept_rows and best >= 0.4:
                rows.append((id_, c, ccos, False, dup))
            else:
                kept_rows.append((id_, i))
                rows.append((id_, c, ccos, True, -1))
    df = pd.DataFrame(rows, columns=["vec_id", "cluster", "centroid_cos",
                                     "kept", "dup_of"])
    df = df.astype({"vec_id": np.int64, "cluster": np.int64,
                    "centroid_cos": np.float64, "kept": bool,
                    "dup_of": np.int64})
    return {"semdedup_embeddings": pa.Table.from_pandas(
        df, preserve_index=False)}


def gen_markdown(sf_dir: str) -> dict[str, pa.Table]:
    from pdf_extract_ray.corpus import pages_from_documents
    from pdf_extract_ray.stages.markdown import html_to_markdown

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = pages_from_documents(docs).to_pylist()
    md = [html_to_markdown(p["html"]) for p in pages]
    return {"markdown_docs": pa.table({
        "url": pa.array([p["url"] for p in pages], pa.string()),
        "markdown": pa.array(md, pa.string()),
        "n_md_chars": pa.array([len(m) for m in md], pa.int64()),
    })}


def gen_porter(sf_dir: str) -> dict[str, pa.Table]:
    # plain single-process vocabulary stem: Counter over a regex
    # findall loop + per-word porter_stem — the independent reference
    # for the distributed grouped-count + stem-map plan
    import re
    from collections import Counter

    from pdf_extract_ray.functions.stemmer import porter_stem

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["text"]).to_pandas()
    c: Counter = Counter()
    for t in docs["text"].fillna(""):
        c.update(re.findall(r"[a-z]+", t.lower()))
    words = sorted(c)
    return {"porter_stems": pa.table({
        "word": pa.array(words, pa.string()),
        "n": pa.array([c[w] for w in words], pa.int64()),
        "stem": pa.array([porter_stem(w) for w in words], pa.string()),
    })}


def gen_kmeans(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process dense-numpy mirror of stages/kmeans.kmeans
    (k=8, n_iters=4, scale=1000): same frozen rules — floor-quantized
    int vectors, k-smallest-id init, BLAS-free per-cluster distance,
    first-hit argmin, exact integer-sum centroid means, empty clusters
    keep their centroid — re-derived here as one flat loop over the
    full matrix, independent of the engine's batching and shuffles.
    Integer sums are exact under any order, so bit-equality is a
    THEOREM for the update step; the distance reduction is a fixed
    per-row 64-term numpy sum on both sides."""
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    order = np.argsort(emb["vec_id"].to_numpy(np.int64), kind="stable")
    ids = emb["vec_id"].to_numpy(np.int64)[order]
    v = np.stack(emb["embedding"].to_numpy())[order].astype(np.float64)
    xq = np.floor(v * 1000.0)
    k, n_iters = 8, 4
    cents = xq[:k].copy()

    def assign(c):
        best = np.full(len(xq), np.inf)
        cl = np.zeros(len(xq), dtype=np.int64)
        for j in range(k):
            d = xq - c[j]
            dist = (d * d).sum(axis=1)
            hit = dist < best
            best[hit] = dist[hit]
            cl[hit] = j
        return cl, best

    for _ in range(n_iters):
        cl, _ = assign(cents)
        nxt = cents.copy()
        for j in range(k):
            m = cl == j
            if m.any():
                nxt[j] = xq[m].sum(axis=0) / np.float64(m.sum())
        cents = nxt
    cl, dist = assign(cents)
    return {"kmeans_embeddings": pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "cluster": pa.array(cl, pa.int64()),
        "dist": pa.array(dist, pa.float64()),
    })}


def gen_kcore(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process queue-based peeler for `k_core_docs` (k=6 over an
    arithmetic dense-core + pendant-chain doc_id graph) — independent
    of the engine's round-based
    distributed peel: the k-core is the unique maximal subgraph with all
    degrees >= k, so ANY peel order converges to the same node set and
    the same in-core degrees."""
    from collections import deque

    d = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id"]).to_pandas()["doc_id"].to_numpy()
    co, ch = d[d < 120], d[d < 30]
    a = np.concatenate([co % 30, 100 + ch, [0]])
    b = np.concatenate([(13 * co + 7) % 31 % 30, 101 + ch, [100]])
    edges = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
    adj: dict[int, set] = {}
    for lo, hi in edges:
        adj.setdefault(lo, set()).add(hi)
        adj.setdefault(hi, set()).add(lo)
    k = 6
    q = deque(n for n, nb in adj.items() if len(nb) < k)
    dead = set()
    while q:
        n = q.popleft()
        if n in dead:
            continue
        dead.add(n)
        for m in adj[n]:
            if m not in dead:
                adj[m].discard(n)
                if len(adj[m]) < k:
                    q.append(m)
    rows = sorted((n, len(nb)) for n, nb in adj.items()
                  if n not in dead and len(nb) > 0)
    return {"k_core_docs": pa.table({
        "node": pa.array([r[0] for r in rows], pa.int64()),
        "degree": pa.array([r[1] for r in rows], pa.int64()),
    })}


def gen_host_mirror(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process mirror of `host_mirror_docs`: same frozen minhash
    kernels (the determinism-freeze convention of gen_minhash), but the
    per-host union signature, banding and candidate generation are
    dict-based plain loops — independent of the engine's grouped
    elementwise-min shuffle."""
    from pdf_extract_ray.stages.dedup import (
        _hash_perm_params, minhash_band_keys, minhash_signatures)
    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    d = docs["doc_id"].to_numpy()
    mir = d < 50
    rows = pd.concat([
        pd.DataFrame({"host": "h" + pd.Series(d[~mir] % 25).astype(str),
                      "text": docs["text"].to_numpy()[~mir]}),
        pd.DataFrame({"host": "mirror-a",
                      "text": docs["text"].to_numpy()[mir]}),
        pd.DataFrame({"host": "mirror-b",
                      "text": docs["text"].to_numpy()[mir]}),
    ], ignore_index=True)
    a, b = _hash_perm_params(128)
    sig = minhash_signatures(rows["text"].tolist(), a, b, k=3)
    hosts = sorted(rows["host"].unique())
    hsig = np.stack([
        sig[(rows["host"] == h).to_numpy()].min(axis=0) for h in hosts])
    keys = minhash_band_keys(hsig, 32)
    buckets: dict = defaultdict(list)
    for pos in range(len(hosts)):
        for band in range(32):
            buckets[keys[pos, band]].append(pos)
    cand = set()
    for members in buckets.values():
        if len(members) < 2 or len(members) > 1000:
            continue
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                lo, hi = sorted((hosts[members[x]], hosts[members[y]]))
                cand.add((lo, hi))
    out = {"id_a": [], "id_b": [], "jaccard": []}
    pos_of = {h: i for i, h in enumerate(hosts)}
    for ha, hb in sorted(cand):
        jac = float(round_half_away(
            (hsig[pos_of[ha]] == hsig[pos_of[hb]]).mean(), 4))
        if jac >= 0.8:
            out["id_a"].append(ha)
            out["id_b"].append(hb)
            out["jaccard"].append(jac)
    df = pd.DataFrame(out)
    return {"host_mirror_docs": pa.Table.from_pandas(
        df, preserve_index=False)}


def gen_label_prop(sf_dir: str) -> dict[str, pa.Table]:
    """Dict-based synchronous LPA reference for `label_prop_docs` —
    identical frozen rule (sync rounds, self-vote, smallest-label tie,
    early stop on no change, max_iters=10) as
    graph.label_propagation; parity is bit-exact."""
    sys.path.insert(0, _REPO)
    from pdf_extract_ray.stages.graph import label_propagation_reference

    d = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id"]).to_pandas()["doc_id"].to_numpy()
    d = d[d < 200].astype(np.int64)
    com = d // 40
    ring = com * 40 + (d % 40 + 1) % 40
    chord = com * 40 + (d % 40 + 3) % 40
    br = d[d % 40 == 0]
    pairs = (list(zip(d, ring)) + list(zip(d, chord))
             + list(zip(br, (br + 40) % 200)))
    labels = label_propagation_reference(pairs, max_iters=10)
    rows = sorted(labels.items())
    return {"label_prop_docs": pa.table({
        "node": pa.array([r[0] for r in rows], pa.int64()),
        "label": pa.array([r[1] for r in rows], pa.int64()),
    })}


def gen_knn_join(sf_dir: str) -> dict[str, pa.Table]:
    """Single-process reference for `knn_join_embeddings`: the same
    frozen centroid sample / assignment expressions (shared kernels,
    the golden convention) with a plain per-cell double loop for the
    neighbor search — independent of the distributed bucketed plan."""
    sys.path.insert(0, _REPO)
    from pdf_extract_ray.stages.similarity import (
        _kmeanspp_lite,
        _topk_indices,
    )
    from pdf_extract_ray.util import round_half_away

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    n_cells, sample_n, k = 8, 2048, 3
    stride = max(1, len(emb) // sample_n)
    h = pd.util.hash_pandas_object(emb["vec_id"], index=False).to_numpy()
    cand = emb[(h % np.uint64(stride)) == 0].copy()
    cand["__h"] = h[(h % np.uint64(stride)) == 0]
    if len(cand) < n_cells:
        sample = np.stack(emb["embedding"].head(sample_n).to_numpy())
    else:
        cand = cand.sort_values(["__h", "vec_id"]).head(sample_n)
        sample = np.stack(cand["embedding"].to_numpy())
    cents = _kmeanspp_lite(sample.astype(np.float64), n_cells)
    csq = (cents ** 2).sum(axis=1)
    v_all = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    cell = (csq[None, :] - 2.0 * (v_all @ cents.T)).argmin(axis=1)
    out = {"vec_id": [], "neighbor_id": [], "rank": [], "cosine": []}
    for c in sorted(set(cell.tolist())):
        sub = emb[cell == c].sort_values("vec_id")
        if len(sub) < 2:
            continue
        ids = sub["vec_id"].to_numpy()
        v = np.stack(sub["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vn = v / norms
        sim = round_half_away(vn @ vn.T, 6)
        np.fill_diagonal(sim, -np.inf)
        kk = min(k, len(sub) - 1)
        for i in range(len(sub)):
            top = _topk_indices(ids, sim[i], kk)
            out["vec_id"].extend([ids[i]] * len(top))
            out["neighbor_id"].extend(ids[top].tolist())
            out["rank"].extend(range(1, len(top) + 1))
            out["cosine"].extend(sim[i][top].tolist())
    return {"knn_join_embeddings": pa.table({
        "vec_id": pa.array(out["vec_id"], pa.int64()),
        "neighbor_id": pa.array(out["neighbor_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int64()),
        "cosine": pa.array(out["cosine"], pa.float64()),
    })}


def gen_central(sf_dir: str) -> dict[str, pa.Table]:
    """Golden for `central_embeddings`: the knn-join reference's pairs
    (gen_knn_join) ranked by the dense-numpy PageRank reference —
    independent of both distributed plans."""
    sys.path.insert(0, _REPO)
    from pdf_extract_ray.stages.pagerank import pagerank_reference

    pairs = gen_knn_join(sf_dir)["knn_join_embeddings"].to_pandas()
    edges = pd.DataFrame({
        "src_host": pairs["vec_id"].to_numpy(),
        "dst_host": pairs["neighbor_id"].to_numpy(),
        "n_links": np.ones(len(pairs), dtype=np.int64),
    })
    r = pagerank_reference(edges, weight_col="n_links", n_iter=8,
                           tol=None)
    return {"central_embeddings": pa.Table.from_pandas(
        r, preserve_index=False)}


def gen_cdc(sf_dir: str) -> dict[str, pa.Table]:
    """Dict-based single-process reference for `cdc_dedup_docs`: the
    frozen CDC chunk kernel (cdc_chunk_rows) + Counter frequencies —
    independent of the distributed bucketed plan."""
    sys.path.insert(0, _REPO)
    from collections import Counter

    from pdf_extract_ray.stages.substr import cdc_chunk_rows

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    footer = ("accept our cookies and subscribe to the newsletter "
              "for the latest updates from this site. ") * 3
    texts = (docs["text"].fillna("").astype(str) + footer).tolist()
    rows = cdc_chunk_rows(texts)
    freq = Counter(rows["h"])
    dup = rows["h"].map(freq).to_numpy() >= 2
    rows["doc_id"] = docs["doc_id"].to_numpy()[rows["__doc"].to_numpy()]
    agg = (pd.DataFrame({
        "doc_id": rows["doc_id"],
        "n_chunks": 1,
        "n_bytes": rows["clen"],
        "n_dup_chunks": dup.astype("int64"),
        "dup_bytes": np.where(dup, rows["clen"], 0),
    }).groupby("doc_id", as_index=False).sum()
      .sort_values("doc_id"))
    return {"cdc_dedup_docs": pa.table({
        "doc_id": pa.array(agg["doc_id"].to_numpy(), pa.int64()),
        "n_chunks": pa.array(agg["n_chunks"].astype("int64"),
                             pa.int64()),
        "n_bytes": pa.array(agg["n_bytes"].astype("int64"), pa.int64()),
        "n_dup_chunks": pa.array(agg["n_dup_chunks"].astype("int64"),
                                 pa.int64()),
        "dup_bytes": pa.array(agg["dup_bytes"].astype("int64"),
                              pa.int64()),
    })}


def gen_silhouette(sf_dir: str) -> dict[str, pa.Table]:
    """Independent reference for `silhouette_embeddings`: full n x k
    distance matrix over the SAME frozen quantized kmeans (mirrors
    gen_kmeans), a = dist to own centroid (first-hit argmin), b = min
    over the other centroids, s = (b-a)/max(a,b), 0 on zero denom."""
    sys.path.insert(0, _REPO)
    from pdf_extract_ray.util import round_half_away

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pandas()
    order = np.argsort(emb["vec_id"].to_numpy(np.int64), kind="stable")
    ids = emb["vec_id"].to_numpy(np.int64)[order]
    v = np.stack(emb["embedding"].to_numpy())[order].astype(np.float64)
    xq = np.floor(v * 1000.0)
    k, n_iters = 8, 4
    cents = xq[:k].copy()

    def dists(c):
        return np.stack([((xq - c[j]) ** 2).sum(axis=1)
                         for j in range(k)], axis=1)

    for _ in range(n_iters):
        cl = dists(cents).argmin(axis=1)
        nxt = cents.copy()
        for j in range(k):
            m = cl == j
            if m.any():
                nxt[j] = xq[m].sum(axis=0) / np.float64(m.sum())
        cents = nxt
    dm = dists(cents)
    cl = dm.argmin(axis=1)
    a = dm[np.arange(len(xq)), cl]
    dm2 = dm.copy()
    dm2[np.arange(len(xq)), cl] = np.inf
    b = dm2.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / denom, 0.0)
    return {"silhouette_embeddings": pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "cluster": pa.array(cl.astype(np.int64), pa.int64()),
        "silhouette": pa.array(round_half_away(s, 6), pa.float64()),
    })}


def gen_textrank(sf_dir: str) -> dict[str, pa.Table]:
    # single-process TextRank keywords: plain loop over documents through
    # the frozen per-doc kernel (determinism freeze — the graph never
    # leaves the document, so distributed == this loop bit-for-bit)
    import re

    from pdf_extract_ray.stages.relevance import textrank_scores
    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    word_re = re.compile(r"[a-z0-9]+")
    ids, ranks, ws, ss = [], [], [], []
    for i, t in zip(docs["doc_id"], docs["text"]):
        sc = textrank_scores(
            word_re.findall(("" if t is None else t).lower()))
        top = sorted(((round_half_away(v, 6), w) for w, v in sc.items()),
                     key=lambda t2: (-t2[0], t2[1]))[:3]
        for r, (v, w) in enumerate(top, 1):
            ids.append(int(i))
            ranks.append(r)
            ws.append(w)
            ss.append(float(v))
    return {"textrank_keywords": pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "word": pa.array(ws, pa.string()),
        "score": pa.array(ss, pa.float64()),
    })}


def gen_sentence_stats(sf_dir: str) -> dict[str, pa.Table]:
    # single-process sentence stats: plain loop over documents through
    # the REAL rule-based splitter (determinism freeze — split_complete
    # is a pure frozen kernel, so the distributed narrow map must match
    # bit-for-bit)
    from pdf_extract_ray.stages.splitter import split_complete
    from pdf_extract_ray.util import round_half_away

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    n_s, mean_w, max_w = [], [], []
    for t in docs["text"]:
        sents = split_complete("" if t is None else t)
        wc = [len(s.split()) for s in sents]
        n_s.append(len(sents))
        mean_w.append(float(round_half_away(sum(wc) / len(wc), 4))
                      if wc else None)
        max_w.append(max(wc) if wc else 0)
    return {"sentence_stats_docs": pa.table({
        "doc_id": pa.array(docs["doc_id"], pa.int64()),
        "n_sentences": pa.array(n_s, pa.int64()),
        "mean_sentence_words": pa.array(mean_w, pa.float64()),
        "max_sentence_words": pa.array(max_w, pa.int64()),
    })}


def gen_unigram(sf_dir: str) -> dict[str, pa.Table]:
    # single-process unigram-LM tokenizer (Kudo 2018): plain-Counter
    # wordcount -> driver seed/EM loops over the frozen kernels -> memoized
    # Viterbi encode.  The kernels quantize per-(word, piece) expectations
    # to int64 BEFORE summation, so the distributed plan (broadcast probs,
    # grouped integer merges) must match bit-for-bit (determinism freeze —
    # the BPE-golden convention).
    import math
    import re
    from collections import Counter

    from pdf_extract_ray.stages.unigram import (
        _quantized_estep,
        _vocab_from_counts,
        logprobs_from_vocab,
        probs_from_vocab,
        seed_substring_counts,
        viterbi_n_pieces,
    )

    vocab_size, seed_size, max_piece_len, n_iter, max_words = \
        256, 1024, 5, 2, 20_000
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    word_re = re.compile(r"[a-z0-9]+")
    c = Counter()
    for t in docs["text"]:
        c.update(word_re.findall(("" if t is None else t).lower()))
    top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:max_words]
    counts_df = pd.DataFrame({"word": [w for w, _ in top],
                              "n": [n for _, n in top]})
    chars = sorted({ch for w in counts_df["word"] for ch in w})

    seed_all: dict = {}
    for w, n in zip(counts_df["word"], counts_df["n"]):
        seed_substring_counts(w, int(n), max_piece_len, seed_all)
    cut = sorted(seed_all.items(),
                 key=lambda kv: (-kv[1], kv[0]))[:seed_size + len(chars)]
    seed_counts = dict(cut)
    for ch in chars:
        seed_counts.setdefault(ch, 1)
    multi = {p: q for p, q in seed_counts.items() if len(p) > 1}
    kept = dict(sorted(multi.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:seed_size])
    kept.update({ch: seed_counts[ch] for ch in chars})
    vocab = _vocab_from_counts(kept, chars, len(chars) + seed_size)
    for _ in range(n_iter):
        probs = probs_from_vocab(vocab)
        new_counts = _quantized_estep(counts_df, probs, max_piece_len)
        vocab = _vocab_from_counts(new_counts, chars, vocab_size)
    total = int(vocab["count_q"].sum())
    vocab = vocab.copy()
    vocab["logprob"] = [round(math.log(int(q) / total), 6)
                        for q in vocab["count_q"]]
    vt = pa.table({"piece": pa.array(vocab["piece"], pa.string()),
                   "count_q": pa.array(vocab["count_q"], pa.int64()),
                   "logprob": pa.array(vocab["logprob"], pa.float64())})

    logp = logprobs_from_vocab(vocab)
    memo: dict = {}
    n_words_l, n_pieces_l = [], []
    for t in docs["text"]:
        tot = wn = 0
        for w in word_re.findall(("" if t is None else t).lower()):
            wn += 1
            k = memo.get(w)
            if k is None:
                k = memo[w] = viterbi_n_pieces(w, logp, max_piece_len)
            tot += k
        n_words_l.append(wn)
        n_pieces_l.append(tot)
    st = pa.table({"doc_id": pa.array(docs["doc_id"], pa.int64()),
                   "n_words": pa.array(n_words_l, pa.int64()),
                   "n_pieces": pa.array(n_pieces_l, pa.int64())})
    return {"unigram_vocab_docs": vt, "unigram_token_stats": st}


GENERATORS = (gen_extract, gen_align, gen_minhash, gen_simhash, gen_winnow,
              gen_pair_analyzers, gen_layout, gen_media, gen_media_pixels,
              gen_compression_ratio, gen_bpe,
              gen_similarity_ivf, gen_embedding_lsh, gen_pdf_extract,
              gen_substr_dedup, gen_pagerank, gen_trustrank, gen_hits,
              gen_cms,
              gen_nb_quality, gen_bloom, gen_nb_topic, gen_image_dup,
              gen_semdedup, gen_dsir, gen_markdown, gen_porter,
              gen_kmeans, gen_kcore,
              gen_host_mirror, gen_label_prop, gen_knn_join, gen_central,
              gen_cdc, gen_silhouette, gen_unigram, gen_textrank,
              gen_sentence_stats)


def generate_all(sf_dir: str) -> dict[str, pa.Table]:
    out: dict[str, pa.Table] = {}
    for g in GENERATORS:
        out.update(g(sf_dir))
    return out


def main():
    sf_dirs = sys.argv[1:] or ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
    for sf_dir in sf_dirs:
        name = os.path.basename(sf_dir.rstrip("/"))
        dest = os.path.join(GOLDEN_ROOT, name)
        os.makedirs(dest, exist_ok=True)
        for qname, table in generate_all(sf_dir).items():
            path = os.path.join(dest, f"{qname}.parquet")
            pq.write_table(table, path)
            print(f"wrote {path}: {table.num_rows} rows")


if __name__ == "__main__":
    main()
