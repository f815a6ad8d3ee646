"""The flagship extraction pipeline: pages -> blocks -> fragments ->
sentences -> per-url extracted text.

Two physical plans over the same frozen per-document semantics
(``extract_document``), which therefore must produce byte-identical
output at any parallelism level:

* **fused** (default): one ``map_batches`` actor runs the whole chain per
  document.  When one input row holds one document (the ``input_hint``
  table shape) the per-url "group" is a single row, so the groupby would
  shuffle every byte for nothing — the fused plan is the scale-optimal
  plan and is embarrassingly parallel with zero all-to-all movement.
* **staged**: parse explodes pages into per-page block rows
  (``flat_map``-style batch fn), then an explicit
  ``groupby("url").map_groups`` reassembles documents.  This is the plan
  for inputs where a document's pages arrive as separate rows (the
  general crawl case) and is the pipeline's one wide shuffle; group size
  is bounded by pages-per-document so the key is skew-safe by
  construction (host-level input skew is decoupled by the hash shuffle
  itself — SURVEY.md §4.2).  ORDER CONTRACT for multi-row documents:
  rows of one url are ordered by ``warc_ts`` (then per-row page/block
  numbers), so multi-row urls must carry distinct warc_ts values.

Reference lifecycle being re-expressed: SURVEY.md §3.3/§3.4
(pdf_to_json/main.py page loop -> merge_consecutive_tags ->
sentence_composer -> per-document reassembly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from pdf_extract_ray.config import DEFAULT_CONFIG, ExtractConfig
from pdf_extract_ray.stages.agg import _bucket_of_arrow, bucketed_group_apply
from pdf_extract_ray.stages.assemble import assemble_sentences
from pdf_extract_ray.stages.html_parser import Block, fallback_blocks, parse_html
from pdf_extract_ray.stages.merge import merge_blocks
from pdf_extract_ray.stages.splitter import Sentence, compose_document


EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("extracted_text", pa.large_string()),
        ("n_sentences", pa.int32()),
        ("n_pages", pa.int32()),
        ("status", pa.string()),  # html | fallback | rejected
    ]
)

SENTENCES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("page_no", pa.int32()),
        ("frag_id", pa.int32()),
        ("sent_no", pa.int32()),
        ("text", pa.large_string()),
        ("source_type", pa.string()),
    ]
)


# ---------------------------------------------------------------------------
# frozen per-document semantics (pure; shared by both physical plans and by
# the single-process oracle used for golden tests)
# ---------------------------------------------------------------------------

def document_blocks(html, text, cfg: ExtractConfig) -> tuple[list[Block], str]:
    """Parse a document into blocks; returns (blocks, status)."""
    blocks = parse_html(html, cfg)
    if blocks:
        return blocks, "html"
    blocks = fallback_blocks(text)
    if blocks:
        return blocks, "fallback"
    return [], "rejected"


def sentences_from_blocks(blocks: list[Block], cfg: ExtractConfig) -> list[Sentence]:
    return compose_document(merge_blocks(blocks), cfg)


def extract_document(url, html, text, lang, cfg: ExtractConfig = DEFAULT_CONFIG) -> dict:
    """The complete frozen per-document extraction. Returns a dict with
    ``sentences`` (list[Sentence]) and the assembled ``extracted_text``."""
    blocks, status = document_blocks(html, text, cfg)
    sents = sentences_from_blocks(blocks, cfg)
    extracted_text, n_sents, n_pages = assemble_sentences(sents, cfg)
    return {
        "url": url,
        "lang": lang,
        "status": status,
        "sentences": sents,
        "extracted_text": extracted_text,
        "n_sentences": n_sents,
        "n_pages": n_pages,
    }


def oracle_extract(rows: list[dict], cfg: ExtractConfig = DEFAULT_CONFIG) -> list[dict]:
    """Single-process oracle: plain loop over rows, no Ray.  Golden tests
    freeze its output; the Ray plans must match it byte-for-byte."""
    out = []
    for r in rows:
        d = extract_document(r["url"], r.get("html"), r.get("text"), r.get("lang"), cfg)
        d["warc_ts"] = r.get("warc_ts")
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# fused plan
# ---------------------------------------------------------------------------

class ExtractDocuments:
    """Actor-pool stage: whole extraction chain per document.

    Stateful-stage pattern (SURVEY.md §2.3 T1): config compiled once per
    actor in ``__init__``, batches of pages in, batches of extracted rows
    out.  ``batch_format="pyarrow"`` keeps the fat ``html`` binary column
    zero-copy until the per-row parse."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * len(urls)
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(urls)
        ts = (
            batch["warc_ts"]
            if "warc_ts" in batch.column_names
            else pa.nulls(len(urls), pa.timestamp("us"))
        )

        out = {k: [] for k in ("url", "lang", "extracted_text", "n_sentences", "n_pages", "status")}
        for url, html, text, lang in zip(urls, htmls, texts, langs):
            d = extract_document(url, html, text, lang, self.cfg)
            out["url"].append(d["url"])
            out["lang"].append(d["lang"])
            out["extracted_text"].append(d["extracted_text"])
            out["n_sentences"].append(d["n_sentences"])
            out["n_pages"].append(d["n_pages"])
            out["status"].append(d["status"])
        return pa.table(
            {
                "url": pa.array(out["url"], pa.string()),
                "warc_ts": ts,
                "lang": pa.array(out["lang"], pa.string()),
                "extracted_text": pa.array(out["extracted_text"], pa.large_string()),
                "n_sentences": pa.array(out["n_sentences"], pa.int32()),
                "n_pages": pa.array(out["n_pages"], pa.int32()),
                "status": pa.array(out["status"], pa.string()),
            }
        )


class ExtractSentences:
    """Fused plan variant that emits the per-sentence table instead of the
    per-document rollup (1 page row -> N sentence rows)."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * len(urls)
        cols = {k: [] for k in ("url", "page_no", "frag_id", "sent_no", "text", "source_type")}
        for url, html, text in zip(urls, htmls, texts):
            blocks, _status = document_blocks(html, text, self.cfg)
            for s in sentences_from_blocks(blocks, self.cfg):
                cols["url"].append(url)
                cols["page_no"].append(s.page_no)
                cols["frag_id"].append(s.frag_id)
                cols["sent_no"].append(s.sent_no)
                cols["text"].append(s.text)
                cols["source_type"].append(s.source_type)
        return pa.table(
            {
                "url": pa.array(cols["url"], pa.string()),
                "page_no": pa.array(cols["page_no"], pa.int32()),
                "frag_id": pa.array(cols["frag_id"], pa.int32()),
                "sent_no": pa.array(cols["sent_no"], pa.int32()),
                "text": pa.array(cols["text"], pa.large_string()),
                "source_type": pa.array(cols["source_type"], pa.string()),
            }
        )



# per-worker stage cache for stateless-task execution: state (compiled
# config) builds once per worker PROCESS and is reused across tasks; unlike
# an actor pool this lets Ray fuse the stage with the read (no object-store
# round trip) and reuse warm workers across pipeline runs
_STAGE_CACHE: dict = {}


def _cached(cls, cfg):
    def fn(batch):
        inst = _STAGE_CACHE.get(cls)
        if inst is None or inst.cfg is not cfg and inst.cfg != cfg:
            inst = _STAGE_CACHE[cls] = cls(cfg)
        return inst(batch)
    return fn


def extract_pages_fused(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
    concurrency=None,
) -> "ray.data.Dataset":
    """pages -> extracted, zero shuffles.

    Default execution is stateless tasks with a per-worker stage cache
    (fuses with the read; elastic).  Pass ``concurrency`` to pin an actor
    pool instead (useful when stage state becomes heavy, e.g. a model).
    ``batch_size=None`` processes whole blocks zero-copy; size the BLOCKS
    at the read (``override_num_blocks`` ~ 2x CPUs, or
    ``target_max_block_size``) — 10^2+ tiny blocks pay ~0.2 s Ray Data
    per-task overhead each (SURVEY.md §7.4.4)."""
    if concurrency:
        return pages.map_batches(
            ExtractDocuments,
            fn_constructor_args=(cfg,),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=1,
        )
    return pages.map_batches(
        _cached(ExtractDocuments, cfg), batch_format="pyarrow", batch_size=batch_size
    )


# ---------------------------------------------------------------------------
# staged plan (explicit wide shuffle)
# ---------------------------------------------------------------------------

class ParsePagesToBlocks:
    """pages -> per-block rows (explode).  Carries warc_ts/lang through so
    the downstream group has everything it needs."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * len(urls)
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(urls)
        tss = (
            batch["warc_ts"].to_pylist()
            if "warc_ts" in batch.column_names
            else [None] * len(urls)
        )
        cols = {k: [] for k in
                ("url", "warc_ts", "lang", "status", "page_no", "block_no",
                 "block_ord", "tag", "text")}
        for url, html, text, lang, ts in zip(urls, htmls, texts, langs, tss):
            blocks, status = document_blocks(html, text, self.cfg)
            if not blocks:
                # keep one sentinel row so rejected documents still appear
                blocks = [Block(0, 0, "P", "", False)]
            for ord_, b in enumerate(blocks):
                cols["url"].append(url)
                cols["warc_ts"].append(ts)
                cols["lang"].append(lang)
                cols["status"].append(status)
                cols["page_no"].append(b.page_no)
                cols["block_no"].append(b.block_no)
                # DOM order within the row: the fused plan consumes blocks
                # in parse order, and <section data-page> values need not be
                # monotonic, so page_no is NOT a valid order key
                cols["block_ord"].append(ord_)
                cols["tag"].append(b.tag)
                cols["text"].append(b.text)
        return pa.table(
            {
                "url": pa.array(cols["url"], pa.string()),
                "warc_ts": pa.array(cols["warc_ts"], pa.timestamp("us")),
                "lang": pa.array(cols["lang"], pa.string()),
                "status": pa.array(cols["status"], pa.string()),
                "page_no": pa.array(cols["page_no"], pa.int32()),
                "block_no": pa.array(cols["block_no"], pa.int32()),
                "block_ord": pa.array(cols["block_ord"], pa.int32()),
                "tag": pa.array(cols["tag"], pa.string()),
                "text": pa.array(cols["text"], pa.large_string()),
            }
        )


def _run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """First row of each run of equal ``keys`` in ``t``, which is sorted on
    them (nulls compare equal to each other, as the sort groups them)."""
    n = t.num_rows
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    if n > 1:
        for k in keys:
            a, b = t[k].slice(1), t[k].slice(0, n - 1)
            ne = pc.coalesce(pc.not_equal(a, b),
                             pc.not_equal(pc.is_null(a), pc.is_null(b)))
            change[1:] |= ne.to_numpy()
    return np.flatnonzero(change)


def _sorted(t: pa.Table, keys: list[str]) -> pa.Table:
    # Arrow's sort_indices is stable, so ties keep their arrival order
    return t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))


def _assemble_bucket(bucket: pa.Table, cfg: ExtractConfig) -> pa.Table:
    """A hash bucket of block rows (whole url-groups, many urls) -> one
    ``EXTRACTED_SCHEMA`` row per url.  Explicit sort inside the bucket:
    Ray Data does not guarantee row order across the shuffle
    (SURVEY.md §1.1)."""
    # order = (crawl-record order, DOM order): warc_ts disambiguates
    # multi-row documents (rows of one url must differ in warc_ts);
    # block_ord is the DOM position within a row — the same order the
    # fused plan consumes, regardless of <section data-page> values
    bucket = _sorted(bucket, ["url", "warc_ts", "block_ord"])
    starts = _run_starts(bucket, ["url"])
    ends = np.append(starts[1:], bucket.num_rows)
    pages = bucket["page_no"].to_pylist()
    blnos = bucket["block_no"].to_pylist()
    tags = bucket["tag"].to_pylist()
    texts = bucket["text"].to_pylist()
    out_text, out_sents, out_pages = [], [], []
    for s, e in zip(starts.tolist(), ends.tolist()):
        blocks = [Block(pages[i], blnos[i], tags[i], texts[i], False)
                  for i in range(s, e) if texts[i]]
        text, n_sents, n_pages = assemble_sentences(
            sentences_from_blocks(blocks, cfg), cfg)
        out_text.append(text)
        out_sents.append(n_sents)
        out_pages.append(n_pages)
    first = bucket.take(starts)
    return pa.table({
        "url": first["url"],
        "warc_ts": first["warc_ts"],
        "lang": first["lang"],
        "extracted_text": pa.array(out_text, pa.large_string()),
        "n_sentences": pa.array(out_sents, pa.int32()),
        "n_pages": pa.array(out_pages, pa.int32()),
        "status": first["status"],
    }).cast(EXTRACTED_SCHEMA)


# hot-key pre-compaction (``salt=K``), shared by the HTML and PDF staged
# plans: block rows are tagged with a salt derived from one column, each
# (url, salt) group is packed into one row of list columns, and the
# per-url reducer flattens the packed rows before assembling
_PACKED = ("warc_ts", "lang", "status", "page_no", "block_no", "block_ord",
           "tag", "text")


def add_salt(t: pa.Table, salt_col: str, salt: int) -> pa.Table:
    """Append ``__salt`` = hash(``salt_col``) mod ``salt``.  Any
    deterministic value works: the rebuild re-sorts on the order key."""
    return t.append_column(
        "__salt", pa.array(_bucket_of_arrow(t, [salt_col], salt), pa.int64()))


def compact_blocks(t: pa.Table) -> pa.Table:
    """Block rows -> one row per (url, __salt): ``url`` plus one list
    column per ``_PACKED`` column, each list in (warc_ts, block_ord) order.
    One stable sort for the whole bucket, not one per group."""
    t = _sorted(t, ["url", "__salt", "warc_ts", "block_ord"])
    starts = _run_starts(t, ["url", "__salt"])
    offsets = pa.array(np.append(starts, t.num_rows), pa.int32())
    return pa.table(
        {"url": t["url"].take(starts),
         **{c: pa.ListArray.from_arrays(offsets, t[c].combine_chunks())
            for c in _PACKED}})


def rebuild_blocks(t: pa.Table) -> pa.Table:
    """Inverse of ``compact_blocks``, up to row order: one block row per
    packed list element."""
    counts = pc.list_value_length(t["text"]).to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(t.num_rows), counts)
    return pa.table(
        {"url": t["url"].take(rows),
         **{c: pc.list_flatten(t[c]) for c in _PACKED}})


def reassemble_blocks(blocks: "ray.data.Dataset", assemble, *, salt,
                      salt_col: str) -> "ray.data.Dataset":
    """The staged plans' wide step: block rows -> ``assemble(bucket)`` per
    hash bucket of urls.  With ``salt=K > 1``, a first grouped pass on
    (url, salt-of-``salt_col``) compacts each url's rows into at most K
    packed rows, so the per-url reducer never handles every raw row of a
    hot url."""
    if not salt or salt <= 1:
        return bucketed_group_apply(blocks, ["url"], assemble,
                                    body_format="pyarrow")
    salted = blocks.map_batches(lambda t: add_salt(t, salt_col, salt),
                                batch_format="pyarrow")
    compacted = bucketed_group_apply(salted, ["url", "__salt"],
                                     compact_blocks, body_format="pyarrow")
    return bucketed_group_apply(compacted, ["url"],
                                lambda t: assemble(rebuild_blocks(t)),
                                body_format="pyarrow")


def extract_pages_staged(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
    concurrency=None,
    salt: int | None = None,
) -> "ray.data.Dataset":
    """pages -> blocks (explode) -> groupby(url) -> extracted.

    THE wide step (SURVEY.md §2.5 A7): the groupby hash-partitions block
    rows by url.  Must produce byte-identical output to the fused plan.

    ``salt``: hot-key pre-compaction (SURVEY.md §4.2 "salt skewed
    hosts").  Per-url group size is bounded by pages-per-document for
    normal crawls, but a redirect storm / mirror farm can repeat ONE url
    across millions of rows, landing them all on one reducer.  With
    ``salt=K``, a first grouped pass on ``(url, salt-of-warc_ts)``
    compacts each url's rows into at most K list-packed partial rows IN
    PARALLEL (sorting each partial by the order contract), and the final
    per-url reducer merges K compact partials instead of handling every
    raw row.  Byte-identical to the unsalted plan by construction: the
    rebuild flattens the partials and runs the SAME ``_assemble_bucket``
    (which re-sorts on the full order key)."""
    if concurrency:
        blocks = pages.map_batches(
            ParsePagesToBlocks, fn_constructor_args=(cfg,),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1,
        )
    else:
        blocks = pages.map_batches(
            _cached(ParsePagesToBlocks, cfg), batch_format="pyarrow",
            batch_size=batch_size,
        )
    # salt on warc_ts: rows of one crawl record stay together
    return reassemble_blocks(blocks, lambda t: _assemble_bucket(t, cfg),
                             salt=salt, salt_col="warc_ts")


def extract_sentences(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
    concurrency=None,
) -> "ray.data.Dataset":
    """pages -> per-sentence rows (fused, no shuffle)."""
    if concurrency:
        return pages.map_batches(
            ExtractSentences, fn_constructor_args=(cfg,),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1,
        )
    return pages.map_batches(
        _cached(ExtractSentences, cfg), batch_format="pyarrow",
        batch_size=batch_size,
    )

