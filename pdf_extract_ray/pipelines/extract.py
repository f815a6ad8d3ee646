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
  (``flat_map``-style batch fn) and, in the same map task, packs each
  url's rows of the block into one row of list columns
  (``compact_blocks``); one sort-based shuffle on url
  (``bucketed_group_apply``) then reassembles documents, one call per
  sorted block.  This is the plan for inputs where a document's pages
  arrive as separate rows (the general crawl case) and is the pipeline's
  one wide shuffle.  Host-level
  input skew is decoupled by the hash shuffle itself, and a hot url
  (redirect storm, mirror farm) reaches its reducer as at most one packed
  row per input block, never as every raw block row (SURVEY.md §4.2).
  On perfbench ``staged_multirow_skew`` (seed 3, traced, 1 Ray CPU, host
  nproc 1, median of six runs) ``staged_s`` is 0.46 s; it was 0.53 s
  with one reassembly call per bucket.
  ORDER CONTRACT for multi-row documents: rows of one url are ordered by
  ``warc_ts`` (then DOM order within the row), so multi-row urls must
  carry distinct warc_ts values.

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
from pdf_extract_ray.stages.agg import bucketed_group_apply
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
        ("status", pa.string()),  # pdf | html | fallback | rejected
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

def document_blocks(html, text, cfg: ExtractConfig, pdf=None) -> tuple[list[Block], str]:
    """Parse a document into blocks; returns (blocks, status).  Sources in
    order: the ``pdf`` bytes (per-page spans -> layout tagging), the
    ``html``, the pre-extracted ``text``; a row none of them yields a
    block from is rejected."""
    if pdf:
        # imported here: HTML-only workers never load the PDF reader
        from pdf_extract_ray.sources.pdf import pdf_pages_spans
        from pdf_extract_ray.stages.layout import tag_page_lines

        blocks = [b for p in pdf_pages_spans(pdf)
                  for b in tag_page_lines(p["lines"], p["width"], p["height"],
                                          p["page_no"], cfg)]
        if blocks:
            return blocks, "pdf"
    blocks = parse_html(html, cfg)
    if blocks:
        return blocks, "html"
    blocks = fallback_blocks(text)
    if blocks:
        return blocks, "fallback"
    return [], "rejected"


def sentences_from_blocks(blocks: list[Block], cfg: ExtractConfig) -> list[Sentence]:
    return compose_document(merge_blocks(blocks), cfg)


def extract_document(url, html, text, lang, cfg: ExtractConfig = DEFAULT_CONFIG,
                     pdf=None) -> dict:
    """The complete frozen per-document extraction. Returns a dict with
    ``sentences`` (list[Sentence]) and the assembled ``extracted_text``."""
    blocks, status = document_blocks(html, text, cfg, pdf)
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
        d = extract_document(r["url"], r.get("html"), r.get("text"), r.get("lang"),
                             cfg, r.get("pdf"))
        d["warc_ts"] = r.get("warc_ts")
        out.append(d)
    return out


# a page batch's per-row inputs besides ``url``: the three sources of
# ``document_blocks`` and the two carried columns; a batch may lack any
_PAGE_COLUMNS = {"html": pa.binary(), "pdf": pa.binary(), "text": pa.string(),
                 "lang": pa.string(), "warc_ts": pa.timestamp("us")}


def _page_columns(batch: pa.Table) -> dict:
    """``url`` and every ``_PAGE_COLUMNS`` column of ``batch``, a null
    column where the batch has none."""
    cols = {"url": batch["url"]}
    for c, t in _PAGE_COLUMNS.items():
        cols[c] = batch[c] if c in batch.column_names else pa.nulls(batch.num_rows, t)
    # one warc_ts rule for every plan: Arrow's safe cast passes whole-µs
    # values of any unit and raises ArrowInvalid on a sub-µs value rather
    # than truncating it
    cols["warc_ts"] = cols["warc_ts"].cast(pa.timestamp("us"))
    return cols


# ---------------------------------------------------------------------------
# fused plan
# ---------------------------------------------------------------------------

class ExtractDocuments:
    """Batch stage: the whole extraction chain per document.

    Batches of pages in, batches of ``EXTRACTED_SCHEMA`` rows out.
    ``batch_format="pyarrow"`` keeps the fat ``html``/``pdf`` binary
    columns zero-copy until the per-row parse.  The plans map the bound
    ``__call__``, a plain callable that Ray runs as tasks."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = _page_columns(batch)
        out = {k: [] for k in ("extracted_text", "n_sentences", "n_pages", "status")}
        for url, html, pdf, text, lang in zip(
                *(c[k].to_pylist() for k in ("url", "html", "pdf", "text", "lang"))):
            d = extract_document(url, html, text, lang, self.cfg, pdf)
            for k, v in out.items():
                v.append(d[k])
        return pa.table(
            {
                "url": c["url"].cast(pa.string()),
                "warc_ts": c["warc_ts"],
                "lang": c["lang"].cast(pa.string()),
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
        c = _page_columns(batch)
        cols = {k: [] for k in ("url", "page_no", "frag_id", "sent_no", "text", "source_type")}
        for url, html, pdf, text in zip(
                *(c[k].to_pylist() for k in ("url", "html", "pdf", "text"))):
            blocks, _status = document_blocks(html, text, self.cfg, pdf)
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


def extract_pages_fused(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    """pages -> extracted, zero shuffles.

    Execution is stateless tasks (fuses with the read; elastic).
    ``batch_size=None`` processes whole blocks
    zero-copy; size the BLOCKS at the read (``override_num_blocks`` ~ 2x
    CPUs, or ``target_max_block_size``) — 10^2+ tiny blocks pay ~0.2 s Ray
    Data per-task overhead each (SURVEY.md §7.4.4)."""
    return pages.map_batches(
        ExtractDocuments(cfg).__call__, batch_format="pyarrow", batch_size=batch_size
    )


# ---------------------------------------------------------------------------
# staged plan (explicit wide shuffle)
# ---------------------------------------------------------------------------

class ParsePagesToBlocks:
    """pages -> per-block rows (explode).  Carries warc_ts/lang through so
    the downstream group has everything it needs.

    Only the per-block columns are built in Python; ``url``, ``warc_ts``,
    ``lang`` and the per-row ``status`` are taken in Arrow by each block
    row's source-row index."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = _page_columns(batch)
        status, counts, flat = [], [], []
        for html, pdf, text in zip(*(c[k].to_pylist() for k in ("html", "pdf", "text"))):
            blocks, st = document_blocks(html, text, self.cfg, pdf)
            # keep one sentinel row so rejected documents still appear
            blocks = blocks or [Block(0, 0, "P", "", False)]
            status.append(st)
            counts.append(len(blocks))
            flat.extend(blocks)
        counts = np.asarray(counts, dtype=np.int64)
        rows = pa.array(np.repeat(np.arange(batch.num_rows), counts))
        # DOM order within the row: the fused plan consumes blocks in parse
        # order, and <section data-page> values need not be monotonic, so
        # page_no is NOT a valid order key
        block_ord = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
        return pa.table(
            {
                "url": c["url"].cast(pa.string()).take(rows),
                "warc_ts": c["warc_ts"].take(rows),
                "lang": c["lang"].cast(pa.string()).take(rows),
                "status": pa.array(status, pa.string()).take(rows),
                "page_no": pa.array([b.page_no for b in flat], pa.int32()),
                "block_no": pa.array([b.block_no for b in flat], pa.int32()),
                "block_ord": pa.array(block_ord, pa.int32()),
                "tag": pa.array([b.tag for b in flat], pa.string()),
                "text": pa.array([b.text for b in flat], pa.large_string()),
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
    """The block rows of one sorted block (whole url-groups of one or more
    hash buckets, many urls) -> one ``EXTRACTED_SCHEMA`` row per url.  One
    explicit sort for the whole block, one ``take`` and one cast: Ray Data
    does not guarantee row order across the shuffle (SURVEY.md §1.1)."""
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


# map-side packing, shared by the HTML and PDF staged plans: inside each
# parse-map output block every url's block rows become one row of list
# columns, and the per-url reducer flattens the packed rows before
# assembling
_PACKED = ("warc_ts", "lang", "status", "page_no", "block_no", "block_ord",
           "tag", "text")


def compact_blocks(t: pa.Table) -> pa.Table:
    """Block rows -> one row per url: ``url`` plus one list column per
    ``_PACKED`` column, each list in (warc_ts, block_ord) order.  One
    stable sort for the whole block, not one per url."""
    t = _sorted(t, ["url", "warc_ts", "block_ord"])
    starts = _run_starts(t, ["url"])
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


def reassemble_blocks(blocks: "ray.data.Dataset", assemble) -> "ray.data.Dataset":
    """The staged plans' wide step, one shuffle: block rows ->
    ``assemble(block)`` once per sorted block of whole url buckets.
    ``compact_blocks`` runs first on every block, in the same task as the
    parse map and the shuffle's bucket-tag map; a hot url reaches its
    reducer as at most one packed row per input block, never as every raw
    block row."""
    return bucketed_group_apply(
        blocks.map_batches(compact_blocks, batch_format="pyarrow"), ["url"],
        lambda t: assemble(rebuild_blocks(t)), body_format="pyarrow")


def extract_pages_staged(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
    salt: int | None = None,
) -> "ray.data.Dataset":
    """pages -> blocks (explode, packed per url per block) ->
    groupby(url) -> extracted.

    THE wide step (SURVEY.md §2.5 A7): one sort-based shuffle
    hash-partitions the packed block rows by url.  Must produce
    byte-identical output to the fused plan.

    Skew (SURVEY.md §4.2 "salt skewed hosts"): a redirect storm / mirror
    farm can repeat ONE url across millions of rows.  The parse map task
    packs each url's rows of its block into one list row, so the per-url
    reducer merges one partial per input block of that url instead of
    every raw row; the reducer flattens the partials and re-sorts on the
    full order key, so packing cannot change the output.  One shuffle,
    then one reassembly call per sorted block of whole url buckets:
    perfbench ``staged_multirow_skew`` ``staged_s`` 0.53 s -> 0.46 s
    against one call per bucket (seed 3, 1 Ray CPU, median of six traced
    runs each).

    ``salt`` is accepted and ignored: map-side packing replaced the
    salted two-pass plan, and the keyword no longer changes the plan."""
    blocks = pages.map_batches(
        ParsePagesToBlocks(cfg).__call__, batch_format="pyarrow",
        batch_size=batch_size,
    )
    return reassemble_blocks(blocks, lambda t: _assemble_bucket(t, cfg))


def extract_sentences(
    pages: "ray.data.Dataset",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    """pages -> per-sentence rows (fused, no shuffle)."""
    return pages.map_batches(
        ExtractSentences(cfg).__call__, batch_format="pyarrow",
        batch_size=batch_size,
    )

