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


def _storm_pages(n):
    """``n`` rows of one redirect-storm url, distinct warc_ts (order
    contract), one sentence each."""
    from datetime import datetime, timedelta

    return pa.table({
        "url": pa.array(["https://hot.example/storm"] * n),
        "warc_ts": pa.array([datetime(2024, 3, 1) + timedelta(seconds=i)
                             for i in range(n)], pa.timestamp("us")),
        "html": pa.array([f"<p>storm fragment {i} sentence.</p>".encode()
                          for i in range(n)], pa.binary()),
        "text": pa.array([None] * n, pa.large_string()),
        "lang": pa.array(["en"] * n),
    })


def test_staged_salted_byte_identical_under_hot_key_skew(ray_session):
    """Hot-key skew (SURVEY.md §4.2 'salt skewed hosts'): a corpus where
    ONE url owns ~30% of all block rows (redirect-storm shape) must
    produce byte-identical output from the staged plan at any
    partitioning (so any number of map-side packed rows per url), with
    the inert ``salt=`` keyword, and from the fused plan."""
    import ray.data as rd

    base = pages_table(70, seed=11)
    hot_tbl = _storm_pages(30)  # ~30% of rows
    corpus = pa.concat_tables([base.select(hot_tbl.column_names), hot_tbl])

    def run(nparts=6, **kw):
        ds = rd.from_arrow(corpus).repartition(nparts)
        return {r["url"]: (r["extracted_text"], str(r["warc_ts"]), r["status"])
                for r in extract_pages_staged(ds, **kw).take_all()}

    unsalted = run()
    assert run(nparts=1) == unsalted  # the hot url packs into one row
    assert run(nparts=13) == unsalted
    salted = run(salt=8)
    salted_big = run(salt=64)
    assert salted == unsalted
    assert salted_big == unsalted

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
    """Fused and staged output the same parquet schema."""
    from pdf_extract_ray.pipelines.extract import EXTRACTED_SCHEMA

    schemas = [ds.materialize().schema().base_schema for ds in (
        extract_pages_fused(pages, batch_size=16),
        extract_pages_staged(pages, batch_size=16))]
    assert schemas == [EXTRACTED_SCHEMA] * 2


def _ns_pages(ts_ns):
    """``pages_table`` rows whose ``warc_ts`` is ``timestamp[ns]``."""
    t = pages_table(len(ts_ns), SEED)
    return t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts",
                        pa.array(ts_ns, pa.timestamp("ns")))


@pytest.mark.parametrize("plan", ["fused", "staged"])
def test_ns_warc_ts_follows_one_rule_in_every_plan(ray_session, tmp_path,
                                                   plan):
    """A ``timestamp[ns]`` input leaves each plan, and ``extract --input``,
    as ``EXTRACTED_SCHEMA``'s ``timestamp[us]`` with its values kept; a
    sub-µs value raises instead of being truncated."""
    from datetime import datetime

    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_extract_ray.__main__ import main
    from pdf_extract_ray.pipelines.extract import EXTRACTED_SCHEMA

    run = {"fused": extract_pages_fused, "staged": extract_pages_staged}[plan]
    whole = _ns_pages([k * 1_000_000_000 for k in range(1, 7)])
    want = [datetime(1970, 1, 1, 0, 0, k) for k in range(1, 7)]
    out = run(rd.from_arrow(whole)).materialize()
    assert out.schema().base_schema == EXTRACTED_SCHEMA
    assert sorted(r["warc_ts"] for r in out.take_all()) == want

    (tmp_path / "in").mkdir()
    pq.write_table(whole, tmp_path / "in" / "p0.parquet")
    assert main(["extract", "--input", str(tmp_path / "in" / "*.parquet"),
                 "--out", str(tmp_path / "out"), "--plan", plan]) == 0
    cli = pq.read_table(tmp_path / "out" / "part=0")
    assert cli.schema.remove_metadata() == EXTRACTED_SCHEMA
    assert sorted(cli["warc_ts"].to_pylist()) == want

    with pytest.raises(Exception, match="would lose data"):
        run(rd.from_arrow(_ns_pages([1_000_000_001]))).materialize()


def test_zero_row_input_at_one_cpu(tmp_path):
    """``extract_pages_staged`` and ``bucketed_group_apply`` (both body
    formats) return 0 rows from zero-row input, whole or as several empty
    blocks, in a 1-CPU Ray session: no stall, no crash."""
    import json
    import os
    import subprocess
    import sys

    script = """
import json
import ray, ray.data as rd
from pdf_extract_ray.corpus import pages_table
from pdf_extract_ray.pipelines.extract import extract_pages_staged
from pdf_extract_ray.stages.agg import bucketed_group_apply

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
t = pages_table(12, 1)
inputs = {
    "whole": lambda: rd.from_arrow(t.slice(0, 0)),
    "blocks": lambda: rd.from_arrow(t).repartition(3).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow"),
}
counts = {}
for name, make in inputs.items():
    counts[name + "_staged"] = extract_pages_staged(make()).count()
    for fmt in ("pandas", "pyarrow"):
        counts[name + "_" + fmt] = bucketed_group_apply(
            make(), ["url"], lambda b: b, body_format=fmt).count()
print(json.dumps(counts))
ray.shutdown()
"""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": repo})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(counts) == 6 and set(counts.values()) == {0}, counts


def _block_rows(spec, *, seed=7):
    """Scrambled block rows: ``spec`` is (url, records) pairs, each record
    three blocks with its own warc_ts."""
    from datetime import datetime, timedelta

    import numpy as np

    rows = []
    for u, n_rec in spec:
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
    return tbl.take(np.random.default_rng(seed).permutation(tbl.num_rows))


def test_compact_blocks_packs_one_row_per_url_in_order():
    """The shared map-side packing, called directly on a scrambled block:
    exactly one row per url, each list in (warc_ts, block_ord) order, and
    rebuilding gives back exactly the input rows."""
    from collections import Counter

    from pdf_extract_ray.pipelines.extract import (
        _PACKED, compact_blocks, rebuild_blocks)

    tbl = _block_rows([("https://hot.example/a", 40), ("https://b.example/", 5),
                       ("https://c.example/", 1)])
    packed = compact_blocks(tbl)
    assert sorted(packed["url"].to_pylist()) == [
        "https://b.example/", "https://c.example/", "https://hot.example/a"]
    for r in packed.to_pylist():
        order = list(zip(r["warc_ts"], r["block_ord"]))
        assert order == sorted(order)

    def key(r):
        return tuple(r[c] for c in ("url", *_PACKED))

    assert (Counter(map(key, rebuild_blocks(packed).to_pylist()))
            == Counter(map(key, tbl.to_pylist())))


def test_compact_blocks_zero_row_block_round_trips():
    """A zero-row block packs to zero rows with the list schema and
    rebuilds to zero block rows with the input schema."""
    from pdf_extract_ray.pipelines.extract import (
        _PACKED, compact_blocks, rebuild_blocks)

    empty = _block_rows([("https://a.example/", 1)]).slice(0, 0)
    packed = compact_blocks(empty)
    assert packed.num_rows == 0
    for c in _PACKED:
        assert packed.schema.field(c).type == pa.list_(empty.schema.field(c).type)
    rebuilt = rebuild_blocks(packed)
    assert rebuilt.num_rows == 0
    assert rebuilt.schema == empty.select(["url", *_PACKED]).schema


def test_staged_hot_url_reaches_reducer_packed_per_input_block(ray_session):
    """Integration: through the staged plan's own map side, a url with 30
    rows spread over 6 input blocks reaches the per-url reducer as at most
    6 packed rows, which together hold all of its block rows."""
    import pyarrow.compute as pc
    import ray.data as rd

    from pdf_extract_ray.pipelines import extract

    n_hot = 30
    hot = _storm_pages(n_hot)
    corpus = pa.concat_tables(
        [pages_table(40, seed=3).select(hot.column_names), hot])

    def reducer_input(bucket):
        hot_rows = bucket.filter(
            pc.equal(bucket["url"], "https://hot.example/storm"))
        return pa.table({"n_packed": [hot_rows.num_rows],
                         "n_blocks": [pc.sum(pc.list_value_length(
                             hot_rows["text"])).as_py() or 0]})

    blocks = rd.from_arrow(corpus).repartition(6).map_batches(
        extract.ParsePagesToBlocks().__call__,
        batch_format="pyarrow")
    seen = extract.bucketed_group_apply(
        blocks.map_batches(extract.compact_blocks, batch_format="pyarrow"),
        ["url"], reducer_input, body_format="pyarrow").to_pandas().sum()
    assert 1 <= seen["n_packed"] <= 6
    assert seen["n_blocks"] == n_hot


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
