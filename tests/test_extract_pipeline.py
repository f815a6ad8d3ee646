"""End-to-end extraction: fused plan == staged (shuffle) plan == oracle,
byte-identical per url at any parallelism (the north-rule invariant)."""

import pyarrow as pa
import pytest

from pdf_extract_ray.corpus import build_doc, pages_table
from pdf_extract_ray.pipelines.extract import (
    extract_pages_fused,
    extract_pages_staged,
    extract_sentences,
    oracle_extract,
)

N_DOCS = 120
SEED = 42


@pytest.fixture(scope="module")
def pages(ray_session):
    import ray.data as rd

    return rd.from_arrow(pages_table(N_DOCS, SEED)).repartition(8)


@pytest.fixture(scope="module")
def oracle_rows():
    tbl = pages_table(N_DOCS, SEED)
    return {r["url"]: r for r in oracle_extract(tbl.to_pylist())}


def _as_map(ds):
    return {r["url"]: r for r in ds.take_all()}


def test_corpus_deterministic_and_order_independent():
    a = build_doc(SEED, 7)
    b = build_doc(SEED, 7)
    assert a == b
    t1 = pages_table(10, SEED)
    t2 = pages_table(5, SEED, start=5)
    assert t1.slice(5, 5).to_pylist() == t2.to_pylist()


def test_fused_matches_oracle(pages, oracle_rows):
    got = _as_map(extract_pages_fused(pages, batch_size=16))
    assert len(got) == N_DOCS
    for url, o in oracle_rows.items():
        g = got[url]
        assert g["extracted_text"] == o["extracted_text"], url
        assert g["n_sentences"] == o["n_sentences"]
        assert g["n_pages"] == o["n_pages"]
        assert g["status"] == o["status"]


def test_staged_matches_fused_byte_identical(pages, oracle_rows):
    got = _as_map(extract_pages_staged(pages, batch_size=16))
    assert len(got) == N_DOCS
    for url, o in oracle_rows.items():
        g = got[url]
        assert g["extracted_text"] == o["extracted_text"], url
        assert g["status"] == o["status"]
        assert g["lang"] == o["lang"]
        assert g["warc_ts"] is not None


def test_sentence_table_consistent(pages, oracle_rows):
    sents = extract_sentences(pages, batch_size=16).take_all()
    by_url = {}
    for s in sents:
        by_url.setdefault(s["url"], []).append(s)
    for url, rows in by_url.items():
        rows.sort(key=lambda r: r["sent_no"])
        joined = "\n".join(r["text"] for r in rows)
        assert joined == oracle_rows[url]["extracted_text"]
    # urls with zero sentences don't appear in the sentence table
    n_nonempty = sum(1 for o in oracle_rows.values() if o["n_sentences"] > 0)
    assert len(by_url) == n_nonempty


def test_statuses_cover_fallback_and_reject(oracle_rows):
    statuses = {o["status"] for o in oracle_rows.values()}
    assert "html" in statuses
    assert "fallback" in statuses  # invalid html routed to text column


def test_staged_multi_row_url_deterministic(ray_session):
    """Multi-row documents (same url, distinct warc_ts) assemble in warc_ts
    order, deterministically across partitionings (order contract)."""
    from datetime import datetime

    import ray.data as rd

    rows = []
    for part in range(3):
        rows.append({
            "url": "https://h.example/multi",
            "warc_ts": datetime(2024, 1, 1, part),
            "html": f"<p>part {part} sentence.</p>".encode(),
            "text": None, "lang": "en",
        })
    tbl = pa.table({
        "url": pa.array([r["url"] for r in rows]),
        "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
        "html": pa.array([r["html"] for r in rows], pa.binary()),
        "text": pa.array([r["text"] for r in rows], pa.large_string()),
        "lang": pa.array([r["lang"] for r in rows]),
    })
    outs = set()
    for nparts in (1, 2, 3):
        # reversed row order + different partitioning must not matter
        ds = rd.from_arrow(tbl.take([2, 0, 1])).repartition(nparts)
        out = extract_pages_staged(ds).take_all()
        assert len(out) == 1
        outs.add(out[0]["extracted_text"])
    assert outs == {"part 0 sentence.\npart 1 sentence.\npart 2 sentence."}


def test_staged_salted_byte_identical_under_hot_key_skew(ray_session):
    """Hot-key salting (SURVEY.md §4.2 'salt skewed hosts'): a corpus where
    ONE url owns ~30% of all block rows (redirect-storm shape) must
    produce byte-identical output from the salted two-phase plan, the
    unsalted plan, and the fused plan — at any partitioning."""
    from datetime import datetime, timedelta

    import ray.data as rd

    from pdf_extract_ray.corpus import pages_table
    from pdf_extract_ray.pipelines.extract import extract_pages_fused

    base = pages_table(70, seed=11)
    # the hot url: 30 rows (~30% of rows), distinct warc_ts (order contract)
    hot = []
    for i in range(30):
        hot.append({
            "url": "https://hot.example/storm",
            "warc_ts": datetime(2024, 3, 1) + timedelta(seconds=i),
            "html": f"<p>storm fragment {i} sentence.</p>".encode(),
            "text": None, "lang": "en",
        })
    hot_tbl = pa.table({
        "url": pa.array([r["url"] for r in hot]),
        "warc_ts": pa.array([r["warc_ts"] for r in hot], pa.timestamp("us")),
        "html": pa.array([r["html"] for r in hot], pa.binary()),
        "text": pa.array([r["text"] for r in hot], pa.large_string()),
        "lang": pa.array([r["lang"] for r in hot]),
    })
    corpus = pa.concat_tables([base.select(hot_tbl.column_names), hot_tbl])

    def run(**kw):
        ds = rd.from_arrow(corpus).repartition(6)
        return {r["url"]: (r["extracted_text"], str(r["warc_ts"]), r["status"])
                for r in extract_pages_staged(ds, **kw).take_all()}

    unsalted = run()
    salted = run(salt=8)
    salted_big = run(salt=64)  # more salts than rows of most urls
    assert salted == unsalted
    assert salted_big == unsalted

    # structural invariant: the per-url reducer receives at most K compact
    # rows per url instead of every raw block row (30 for the hot url here,
    # millions in a real redirect storm)
    from pdf_extract_ray.config import DEFAULT_CONFIG
    from pdf_extract_ray.pipelines.extract import ParsePagesToBlocks
    from pdf_extract_ray.stages.agg import bucketed_group_apply
    import pandas as pd
    import numpy as np

    ds = rd.from_arrow(corpus).repartition(6)
    blocks = ds.map_batches(ParsePagesToBlocks, fn_constructor_args=(DEFAULT_CONFIG,),
                            batch_format="pyarrow", concurrency=2, num_cpus=1)

    def add_salt(b):
        b = b.copy()
        b["__s"] = (pd.util.hash_pandas_object(b["warc_ts"], index=False)
                    % np.uint64(8)).astype("int64")
        return b

    def compact_count(g):
        return g.groupby(["url", "__s"], as_index=False).size()

    compacted = bucketed_group_apply(
        blocks.map_batches(add_salt, batch_format="pandas"), ["url", "__s"],
        compact_count).to_pandas()
    per_url = compacted.groupby("url").size()
    assert per_url["https://hot.example/storm"] <= 8
    raw_rows = compacted.groupby("url")["size"].sum()
    assert raw_rows["https://hot.example/storm"] >= 30
    # the hot url assembled all 30 fragments in warc_ts order
    text = unsalted["https://hot.example/storm"][0]
    assert text.split("\n") == [f"storm fragment {i} sentence." for i in range(30)]
    # and both agree with the fused plan on the single-row urls
    fused = {r["url"]: r["extracted_text"]
             for r in extract_pages_fused(rd.from_arrow(base)).take_all()}
    for url, (txt, _, _) in unsalted.items():
        if url in fused:
            assert fused[url] == txt


def test_staged_plans_emit_the_fused_schema(pages):
    """Fused, staged and salted staged output the same parquet schema."""
    from pdf_extract_ray.pipelines.extract import EXTRACTED_SCHEMA

    schemas = [ds.materialize().schema().base_schema for ds in (
        extract_pages_fused(pages, batch_size=16),
        extract_pages_staged(pages, batch_size=16),
        extract_pages_staged(pages, batch_size=16, salt=8))]
    assert schemas == [EXTRACTED_SCHEMA] * 3


def test_compact_blocks_packs_at_most_k_rows_per_url_in_order():
    """The shared hot-key compaction, called directly: scrambled rows of
    urls spread over several salts (and more salts than rows) pack into
    <= K rows per url, each list in (warc_ts, block_ord) order, and
    rebuilding gives back exactly the input rows."""
    from collections import Counter
    from datetime import datetime, timedelta

    import numpy as np

    from pdf_extract_ray.pipelines.extract import (
        _PACKED, add_salt, compact_blocks, rebuild_blocks)

    rows = []
    for u, n_rec in (("https://hot.example/a", 40), ("https://b.example/", 5),
                     ("https://c.example/", 1)):
        for rec in range(n_rec):
            for ord_ in range(3):
                rows.append({
                    "url": u,
                    "warc_ts": datetime(2024, 1, 1) + timedelta(seconds=rec),
                    "lang": "en", "status": "html", "page_no": rec,
                    "block_no": ord_, "block_ord": ord_, "tag": "P",
                    "text": f"{u} {rec} {ord_}",
                })
    types = {"warc_ts": pa.timestamp("us"), "page_no": pa.int32(),
             "block_no": pa.int32(), "block_ord": pa.int32(),
             "text": pa.large_string()}
    tbl = pa.table({c: pa.array([r[c] for r in rows], types.get(c, pa.string()))
                    for c in rows[0]})
    tbl = tbl.take(np.random.default_rng(7).permutation(tbl.num_rows))

    def key(r):
        return tuple(r[c] for c in ("url", *_PACKED))

    for k in (4, 8, 64):
        salted = add_salt(tbl, "warc_ts", k)
        assert len(set(salted["__salt"].to_pylist())) > 1
        packed = compact_blocks(salted)
        per_url = Counter(packed["url"].to_pylist())
        assert max(per_url.values()) <= k
        assert per_url["https://hot.example/a"] > 1  # spread over salts
        for r in packed.to_pylist():
            order = list(zip(r["warc_ts"], r["block_ord"]))
            assert order == sorted(order)
        assert (Counter(map(key, rebuild_blocks(packed).to_pylist()))
                == Counter(map(key, tbl.to_pylist())))


def test_output_identical_under_task_retry(ray_session, tmp_path):
    """A worker process dying mid-batch (the failure mode Ray auto-retries;
    deterministic user exceptions are deliberately NOT retried) must not
    change the output — UDF determinism makes retries invisible
    (SURVEY.md §4.2)."""
    import ray.data as rd

    from pdf_extract_ray.corpus import pages_table
    from pdf_extract_ray.pipelines.extract import ExtractDocuments
    from pdf_extract_ray.config import DEFAULT_CONFIG

    marker = str(tmp_path / "failed_once")

    def flaky_extract(batch):
        import os

        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            os._exit(1)  # hard worker death: the failure mode Ray retries
        ex = ExtractDocuments(DEFAULT_CONFIG)
        return ex(batch)

    ds = rd.from_arrow(pages_table(60, 42)).repartition(4)
    got = {r["url"]: r["extracted_text"]
           for r in ds.map_batches(flaky_extract, batch_format="pyarrow").take_all()}
    expect = {r["url"]: r["extracted_text"]
              for r in oracle_extract(pages_table(60, 42).to_pylist())}
    assert got == expect
