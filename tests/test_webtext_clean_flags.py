"""webtext_run cleaning flags: url blocklist gate, fused mojibake
repair, fused within-doc line dedup (pipelines/webtext.py)."""

import glob
import os
import re

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data as rd


def _read_out(out: str) -> pd.DataFrame:
    frames = []
    for p in glob.glob(f"{out}/part=*/tier=*/*.parquet"):
        f = pq.read_table(p).to_pandas()
        f["tier"] = re.search(r"tier=([^/]+)/", p).group(1)
        frames.append(f)
    return pd.concat(frames, ignore_index=True).sort_values(
        "doc_id").reset_index(drop=True)


def test_webtext_run_clean_flags(ray_session, tmp_path):
    from pdf_extract_ray.pipelines.webtext import webtext_run, webtext_tiers
    from pdf_extract_ray.stages.boilerplate import dedup_doc_lines_arrays
    from pdf_extract_ray.stages.mojibake import repair_series

    body = ("the cat sat on the mat and it was a very long day for "
            "all of the animals in the house by the sea")
    src = str(tmp_path / "src")
    os.makedirs(src)
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "url": ["http://good.org/a",
                "http://spam.example.com/b",   # blocked subdomain
                "http://fine.net/c"],
        "text": [body + " donâ€™t stop\nnav menu\nnav menu\nmore text",
                 body,
                 body + "\nrepeat line\nrepeat line"],
    })
    docs.to_parquet(f"{src}/a.parquet")
    out = str(tmp_path / "out")
    webtext_run(f"{src}/*.parquet", out,
                blocked_hosts=["example.com"],
                fix_mojibake=True, dedup_doc_lines=True,
                keep_rejects=True,
                files_per_partition=1, min_rows_per_file=1)
    got = _read_out(out)
    # blocked host never reaches a tier
    assert list(got["doc_id"]) == [0, 2]
    # text was repaired AND line-deduped before tiering, equal to the
    # manual composition over the kept rows
    kept = docs[docs["doc_id"] != 1].reset_index(drop=True)
    fixed = repair_series(kept["text"])
    cleaned, _, _ = dedup_doc_lines_arrays(fixed)
    manual = webtext_tiers(
        rd.from_pandas(kept.assign(text=cleaned))).to_pandas()
    assert got["text"].tolist() == list(cleaned)
    assert "â€™" not in got["text"].iloc[0] and "’" in got["text"].iloc[0]
    assert got["text"].iloc[1].count("repeat line") == 1
    assert got["tier"].tolist() == manual.sort_values(
        "doc_id")["tier"].tolist()
    # toggling a cleaning flag changes the run identity: no skip
    stats2 = webtext_run(f"{src}/*.parquet", out,
                         blocked_hosts=["example.com"],
                         fix_mojibake=False, dedup_doc_lines=True,
                         keep_rejects=True,
                         files_per_partition=1, min_rows_per_file=1)
    assert stats2["completed"] == 1 and stats2["skipped"] == 0
    # unchanged flags resume-skip
    stats3 = webtext_run(f"{src}/*.parquet", out,
                         blocked_hosts=["example.com"],
                         fix_mojibake=False, dedup_doc_lines=True,
                         keep_rejects=True,
                         files_per_partition=1, min_rows_per_file=1)
    assert stats3["skipped"] == 1 and stats3["completed"] == 0


def test_webtext_run_blocklist_needs_url_column(ray_session, tmp_path):
    from pdf_extract_ray.pipelines.webtext import webtext_run

    src = str(tmp_path / "src")
    os.makedirs(src)
    pd.DataFrame({"doc_id": [0], "text": ["x"]}).to_parquet(
        f"{src}/a.parquet")
    with pytest.raises(Exception):  # KeyError inside the ray task
        webtext_run(f"{src}/*.parquet", str(tmp_path / "out"),
                    blocked_hosts=["example.com"],
                    files_per_partition=1, min_rows_per_file=1)


def test_webtext_run_drop_trap_urls(ray_session, tmp_path):
    from pdf_extract_ray.pipelines.webtext import webtext_run

    body = ("the cat sat on the mat and it was a very long day for "
            "all of the animals in the house by the sea")
    src = str(tmp_path / "src_traps")
    os.makedirs(src)
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "url": ["http://good.org/a",
                "http://loop.net/x/y/x/1",          # repeated segment
                "http://deep.net/" + "d/" * 7 + "p",  # depth 8
                "http://fine.net/c?a=1"],
        "text": [body, body, body, body],
    })
    docs.to_parquet(f"{src}/a.parquet")
    out = str(tmp_path / "out_traps")
    webtext_run(f"{src}/*.parquet", out, drop_trap_urls=True,
                keep_rejects=True,
                files_per_partition=1, min_rows_per_file=1)
    got = _read_out(out)
    assert list(got["doc_id"]) == [0, 3]
    # toggling the flag is a different run identity: resume redoes work
    out2 = str(tmp_path / "out_notraps")
    webtext_run(f"{src}/*.parquet", out2, keep_rejects=True,
                files_per_partition=1, min_rows_per_file=1)
    assert list(_read_out(out2)["doc_id"]) == [0, 1, 2, 3]


def test_webtext_run_perplexity_gate(ray_session, tmp_path):
    from pdf_extract_ray.pipelines.webtext import webtext_run
    from pdf_extract_ray.stages.lm import (
        perplexity_buckets,
        perplexity_filter,
        train_bigram_lm,
    )

    fluent = ("the cat sat on the mat and the dog sat on the rug while "
              "the sun was high over the quiet town near the long river "
              "and all of the people walked along the old road")
    gibberish = ("zq xv qq vk zx jq qv kx " * 12).strip()
    src = str(tmp_path / "src")
    os.makedirs(src)
    docs = pd.DataFrame({
        "doc_id": range(8),
        "text": [fluent if i % 2 == 0 else gibberish for i in range(8)],
    })
    docs.to_parquet(f"{src}/a.parquet")
    model = train_bigram_lm(rd.from_pandas(
        pd.DataFrame({"text": [fluent] * 4})))

    # the gate == "bucket != tail" bit-for-bit
    buckets = (perplexity_buckets(rd.from_pandas(docs), model,
                                  head_max=5.0, tail_min=10.0)
               .to_pandas().sort_values("doc_id"))
    kept = (perplexity_filter(rd.from_pandas(docs).repartition(3), model,
                              text_col="text", tail_min=10.0)
            .to_pandas().sort_values("doc_id"))
    want_ids = buckets.loc[buckets["bucket"] != "tail",
                           "doc_id"].tolist()
    assert kept["doc_id"].tolist() == want_ids
    assert set(kept["doc_id"]) == {0, 2, 4, 6}  # gibberish gated out

    # fused run drops the same documents before tiering
    out = str(tmp_path / "out")
    webtext_run(f"{src}/*.parquet", out, lm_model=model,
                lm_tail_min=10.0, keep_rejects=True)
    got = _read_out(out)
    assert sorted(got["doc_id"].tolist()) == want_ids

    # the model digest rides the run identity: resuming WITHOUT the
    # gate redoes partitions instead of skipping stale output
    stats = webtext_run(f"{src}/*.parquet", out, keep_rejects=True)
    assert stats["completed"] >= 1 and stats["skipped"] == 0
    got2 = _read_out(out)
    assert sorted(got2["doc_id"].tolist()) == list(range(8))


def test_webtext_run_banned_terms_gate(ray_session, tmp_path):
    from pdf_extract_ray.pipelines.webtext import webtext_run
    from pdf_extract_ray.stages.urlfilter import (
        filter_by_term_blocklist,
        term_blocklist_signals,
    )

    body = ("the cat sat on the mat and it was a very long day for "
            "all of the animals in the house by the sea")
    src = str(tmp_path / "src")
    os.makedirs(src)
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [body,
                 body + " visit our casino now",       # word hit
                 body + " classic cases",              # substring: safe
                 "win free money fast today " + body], # phrase hit
    })
    docs.to_parquet(f"{src}/a.parquet")

    # the filter == "NOT blocked" of the signal operator, any layout
    sig = (term_blocklist_signals(rd.from_pandas(docs),
                                  ["casino"], ["free money fast"])
           .to_pandas().sort_values("doc_id"))
    kept = (filter_by_term_blocklist(rd.from_pandas(docs).repartition(2),
                                     ["casino"], ["free money fast"])
            .to_pandas().sort_values("doc_id"))
    assert kept["doc_id"].tolist() == \
        sig.loc[~sig["blocked"], "doc_id"].tolist() == [0, 2]

    out = str(tmp_path / "out")
    webtext_run(f"{src}/*.parquet", out, keep_rejects=True,
                banned_words=["casino"],
                banned_phrases=["free money fast"])
    got = _read_out(out)
    assert sorted(got["doc_id"].tolist()) == [0, 2]
    # flag rides the run identity: rerun without the gate redoes work
    stats = webtext_run(f"{src}/*.parquet", out, keep_rejects=True)
    assert stats["completed"] >= 1 and stats["skipped"] == 0
    assert sorted(_read_out(out)["doc_id"].tolist()) == [0, 1, 2, 3]


def test_webtext_run_banned_phrases_without_words(ray_session, tmp_path):
    """``banned_phrases`` alone (the CLI's ``--banned-phrases`` without
    ``--banned-words``) gates documents instead of crashing."""
    from pdf_extract_ray.pipelines.webtext import webtext_run

    body = ("the cat sat on the mat and it was a very long day for "
            "all of the animals in the house by the sea")
    src = str(tmp_path / "src")
    os.makedirs(src)
    pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [body, "win free money fast today " + body,
                 body + " casino"],  # no word list: words pass
    }).to_parquet(f"{src}/a.parquet")
    out = str(tmp_path / "out")
    stats = webtext_run(f"{src}/*.parquet", out, keep_rejects=True,
                        banned_phrases=["free money fast"])
    assert stats["completed"] == 1 and stats["failed"] == 0
    assert sorted(_read_out(out)["doc_id"].tolist()) == [0, 2]


def test_webtext_run_default_tail_min_is_the_recorded_identity(
        ray_session, tmp_path):
    """A run that passes ``DEFAULT_TAIL_MIN`` explicitly is the same run as
    one that leaves ``lm_tail_min`` unset: it skips every partition."""
    from pdf_extract_ray.pipelines.webtext import webtext_run
    from pdf_extract_ray.stages.lm import DEFAULT_TAIL_MIN, train_bigram_lm

    fluent = ("the cat sat on the mat and the dog sat on the rug while "
              "the sun was high over the quiet town near the long river")
    src = str(tmp_path / "src")
    os.makedirs(src)
    for i in range(2):
        pd.DataFrame({"doc_id": [2 * i, 2 * i + 1],
                      "text": [fluent, fluent + " and the sea"]}
                     ).to_parquet(f"{src}/{i}.parquet")
    model = train_bigram_lm(rd.from_pandas(pd.DataFrame({"text": [fluent]})))
    out = str(tmp_path / "out")
    first = webtext_run(f"{src}/*.parquet", out, lm_model=model,
                        keep_rejects=True, files_per_partition=1)
    assert first["completed"] == 2
    again = webtext_run(f"{src}/*.parquet", out, lm_model=model,
                        lm_tail_min=DEFAULT_TAIL_MIN, keep_rejects=True,
                        files_per_partition=1)
    assert again["skipped"] == 2 and again["completed"] == 0
