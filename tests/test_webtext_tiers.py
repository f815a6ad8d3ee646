"""Webtext tier extraction (pipelines/webtext.py): rule semantics, tier
coverage on the test corpus, resumable partitioned run."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from pdf_extract_ray.pipelines.webtext import (
    TIER_RULES,
    tier_batch,
    tier_columns,
    tier_slices,
    webtext_run,
    webtext_tiers,
)
from pdf_extract_ray.util import parse_stats


def _tier_of(text):
    return tier_batch(pd.DataFrame({"doc_id": [0], "text": [text]}))[
        "tier"].iloc[0]


def test_rule_order_first_match_wins():
    # short AND repetitive -> short wins (rule 1 before rule 2)
    assert _tier_of("spam spam spam spam") == "reject_short"
    # long + repetitive run
    assert _tier_of("the quick brown fox " * 10 + "go go go go") \
        == "reject_repetitive"
    # long, varied, stopword-rich
    assert _tier_of(
        "the cat sat on a mat and looked to the sky for it is that "
        "kind of day when every animal wanders far from home quietly") \
        == "tier1"
    # long, varied, stopword-poor
    words = " ".join(f"word{i}" for i in range(40))
    assert _tier_of(words) == "tier2"


def test_all_tiers_present_on_corpus(ray_session):
    ds = rd.read_parquet("/root/testdata/sf0.01/documents.parquet")
    got = webtext_tiers(ds).to_pandas()
    counts = got["tier"].value_counts().to_dict()
    assert set(counts) >= {"tier1", "tier2", "reject_repetitive",
                           "reject_short"}, counts
    assert sum(counts.values()) == len(got)


def test_webtext_run_partitioned_and_resume(ray_session, tmp_path):
    src = str(tmp_path / "src")
    os.makedirs(src)
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    half = len(docs) // 2
    docs.iloc[:half].to_parquet(f"{src}/a.parquet")
    docs.iloc[half:].to_parquet(f"{src}/b.parquet")
    out = str(tmp_path / "out")

    stats = webtext_run(f"{src}/*.parquet", out, files_per_partition=1,
                        min_rows_per_file=10)
    assert stats["completed"] == 2 and stats["skipped"] == 0
    files = glob.glob(f"{out}/part=*/tier=*/*.parquet")
    assert files, "expected tier-partitioned parquet output"
    tiers_on_disk = {p.split("tier=")[1].split("/")[0] for p in files}
    assert not any(t.startswith("reject_") for t in tiers_on_disk)
    n_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in files)

    # resume: nothing reprocessed
    stats2 = webtext_run(f"{src}/*.parquet", out, files_per_partition=1,
                         min_rows_per_file=10)
    assert stats2["completed"] == 0 and stats2["skipped"] == 2
    files2 = glob.glob(f"{out}/part=*/tier=*/*.parquet")
    assert sum(pq.ParquetFile(p).metadata.num_rows for p in files2) == n_rows

    # keep_rejects writes every tier
    out2 = str(tmp_path / "out2")
    webtext_run(f"{src}/*.parquet", out2, files_per_partition=1,
                keep_rejects=True, min_rows_per_file=10)
    all_tiers = {p.split("tier=")[1].split("/")[0]
                 for p in glob.glob(f"{out2}/part=*/tier=*/*.parquet")}
    assert any(t.startswith("reject_") for t in all_tiers)


def test_rules_frozen():
    # the SQL oracle interpolates these exact constants; changing them
    # must be a deliberate, golden-regenerating decision
    assert TIER_RULES == {
        "min_words": 20, "max_dup_word_frac": 0.65, "max_word_run": 3,
        "max_top_bigram_frac": 0.1, "min_stop_ratio": 0.06}


def test_webtext_run_extract_first_from_pages(ray_session, tmp_path):
    from pdf_extract_ray.corpus import write_pages_corpus

    src = str(tmp_path / "pages")
    write_pages_corpus(src, n_docs=200, seed=3, docs_per_file=100)
    out = str(tmp_path / "out")
    stats = webtext_run(f"{src}/*.parquet", out, extract_first=True,
                        keep_rejects=True, files_per_partition=1,
                        min_rows_per_file=10)
    assert stats["completed"] == 2
    files = glob.glob(f"{out}/part=*/tier=*/*.parquet")
    got = pd.concat(
        [pd.read_parquet(p).assign(
            tier=p.split("tier=")[1].split("/")[0]) for p in files])
    assert len(got) == 200
    # extraction columns travel with the tier signals
    assert {"url", "extracted_text", "status", "tier"} <= set(got.columns)
    assert got["tier"].nunique() >= 2


def test_webtext_run_split_by_lang(ray_session, tmp_path):
    """split_by_lang lays output out per language then per tier, fused
    into the same narrow plan; a flag change invalidates old partitions
    (stage_versions carries it)."""
    import glob

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extract_ray.pipelines.webtext import webtext_run

    en = ("the report was published and it is available for all who "
          "need it because the results of the study are good and the "
          "method is sound so we can trust it") 
    de = ("der bericht wurde veröffentlicht und ist für alle verfügbar "
          "die ihn brauchen denn die ergebnisse der studie sind gut und "
          "die methode ist solide also können wir ihr vertrauen")
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(pa.table({
        "url": [f"http://x.example/{i}" for i in range(8)],
        "text": [en, de] * 4,
    }), src / "d.parquet")

    out = tmp_path / "tiers"
    res = webtext_run(str(src / "*.parquet"), str(out),
                      keep_rejects=True, split_by_lang=True,
                      files_per_partition=1, min_rows_per_file=1)
    assert res["completed"] == 1
    langs = {p.split("=")[-1] for p in
             glob.glob(str(out / "part=*" / "lang_id_v2=*"))}
    assert langs == {"en", "de"}
    assert glob.glob(str(out / "part=*" / "lang_id_v2=en" / "tier=*"
                         / "*.parquet"))
    got = pq.read_table(str(out / "part=0")).to_pandas()
    assert len(got) == 8 and "lang_id_v2" in got.columns

    # resume with the same flag: no-op; changed flag: reprocess
    assert webtext_run(str(src / "*.parquet"), str(out),
                       keep_rejects=True, split_by_lang=True,
                       files_per_partition=1,
                       min_rows_per_file=1)["skipped"] == 1
    res3 = webtext_run(str(src / "*.parquet"), str(out),
                       keep_rejects=True, split_by_lang=False,
                       files_per_partition=1, min_rows_per_file=1)
    assert res3["completed"] == 1 and res3["skipped"] == 0


def test_resume_runs_pending_partitions_as_one_write(ray_session, tmp_path,
                                                     monkeypatch, text_docs):
    """Resumed past 1 of 5 partitions, the 4 pending ones run as one
    batch: one Dataset.write_parquet call, one manifest row each, and
    every partition's tiers equal to a run of that partition alone."""
    src = text_docs(5)
    out = str(tmp_path / "out")
    webtext_run(str(src / "d0.parquet"), out, keep_rejects=True,
                files_per_partition=1)

    writes = []
    orig = rd.Dataset.write_parquet

    def counting(self, *a, **kw):
        writes.append(kw.get("partition_cols"))
        return orig(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "write_parquet", counting)
    stats = webtext_run(f"{src}/*.parquet", out, keep_rejects=True,
                        files_per_partition=1)
    monkeypatch.setattr(rd.Dataset, "write_parquet", orig)
    assert stats == {"completed": 4, "skipped": 1, "failed": 0}
    assert writes == [["part", "tier"]]

    for i in range(1, 5):
        alone = str(tmp_path / f"alone{i}")
        webtext_run(str(src / f"d{i}.parquet"), alone, keep_rejects=True,
                    files_per_partition=1)
        _assert_same_tiers(f"{out}/part={i}", f"{alone}/part=0")


def _assert_same_tiers(got_dir: str, want_dir: str) -> None:
    """Both partition dirs hold the same ``[lang_id_v2=*/]tier=*`` leaves,
    each with the same rows (by url) and schema (without metadata)."""
    def leaves(d):
        return {os.path.relpath(os.path.dirname(f), d)
                for f in glob.glob(f"{d}/**/*.parquet", recursive=True)}

    got = leaves(got_dir)
    assert got == leaves(want_dir) and got
    for d in got:
        a = pq.read_table(f"{got_dir}/{d}")
        b = pq.read_table(f"{want_dir}/{d}")
        assert a.schema.remove_metadata() == b.schema.remove_metadata()
        assert "path" not in a.column_names and "part" not in a.column_names
        pd.testing.assert_frame_equal(
            a.to_pandas().sort_values("url").reset_index(drop=True),
            b.to_pandas().sort_values("url").reset_index(drop=True))


def _nb_model():
    from pdf_extract_ray.stages.nbquality import train_nb_quality

    return train_nb_quality(rd.from_pandas(pd.DataFrame({
        "text": ["the report was written and it is clear that it is good",
                 "we saw that the data was complete and the method sound",
                 "buy cheap pills casino bonus click here free win now",
                 "casino bonus free free free win now click here buy now"],
        "label": ["good", "good", "spam", "spam"]})), n_buckets=1 << 10)


@pytest.mark.parametrize("variant", ["plain", "split_by_lang",
                                     "per_lang_rules", "nb_model"])
def test_batch_read_tasks_sized_by_input_bytes(ray_session, tmp_path,
                                               monkeypatch, text_docs,
                                               variant):
    """Six pending partitions of small files read in
    ``ceil(bytes / target_min_block_size)`` tasks, not one per file, and
    write per ``part=`` exactly what one read task per file writes."""
    flags = {"plain": {},
             "split_by_lang": {"keep_rejects": True, "split_by_lang": True},
             "per_lang_rules": {"per_lang_rules": True,
                                "split_by_lang": True},
             "nb_model": {"keep_rejects": True, "nb_model": _nb_model()},
             }[variant]
    src = text_docs(6)
    total = sum(os.path.getsize(f) for f in src.glob("*.parquet"))
    tasks = []
    orig = rd.Dataset.write_parquet

    def spy(self, *a, **kw):
        out = orig(self, *a, **kw)
        tasks.append(next(op["tasks"] for op in parse_stats(self.stats())
                          if op["name"].startswith("ReadParquet")))
        return out

    monkeypatch.setattr(rd.Dataset, "write_parquet", spy)
    ctx = rd.DataContext.get_current()
    outs = []
    # ceil(total / target) is 3 tasks for the first target, 6 (one per
    # file) for the second
    for target in (total // 3 + 1, 1):
        monkeypatch.setattr(ctx, "target_min_block_size", target)
        outs.append(str(tmp_path / f"out{target}"))
        assert webtext_run(f"{src}/*.parquet", outs[-1],
                           files_per_partition=1, **flags) == {
            "completed": 6, "skipped": 0, "failed": 0}
    assert tasks == [3, 6]
    for i in range(6):
        _assert_same_tiers(f"{outs[0]}/part={i}", f"{outs[1]}/part={i}")


def _tier_block(n=300, seed=7):
    from pdf_extract_ray.corpus import pages_table

    docs = pages_table(n, seed=seed).to_pandas()[["url", "text", "lang"]]
    docs.loc[[3, n - 1], "text"] = ""
    assert docs["text"].isna().any()
    return pa.Table.from_pandas(docs, preserve_index=False)


def _nb_model(n_buckets=1 << 8):
    rng = np.random.default_rng(0)
    return {"labels": ["good", "spam"], "n_buckets": n_buckets,
            "log_prior": np.log([0.5, 0.5]),
            "log_cond": rng.normal(size=(n_buckets, 2))}


@pytest.mark.parametrize("keep_rejects", [True, False])
def test_tier_slices_equal_tier_batch_on_the_whole_block(keep_rejects,
                                                         monkeypatch):
    """The Arrow tier map over a block many slices long, with null and
    empty texts, equals ``tier_batch`` over the whole block in one
    slice."""
    import pdf_extract_ray.stages.textquality as textquality

    t = _tier_block()
    want = tier_batch(t.to_pandas())
    assert {"tier2", "reject_short"} <= set(want["tier"])
    if not keep_rejects:
        want = want[~want["tier"].str.startswith("reject_")]
    monkeypatch.setattr(textquality, "TIER_SLICE_BYTES", 4096)
    assert len(textquality.text_slices(
        textquality._text_array(t["text"]), 4096)) > 20
    got = tier_slices(t, tier_columns, "text", keep_rejects=keep_rejects)
    pd.testing.assert_frame_equal(got.to_pandas(),
                                  want.reset_index(drop=True),
                                  check_exact=True)


@pytest.mark.parametrize("keep_rejects", [True, False])
@pytest.mark.parametrize("nb", [False, True])
@pytest.mark.parametrize("per_lang", [False, True])
def test_arrow_tier_map_pins_tier_batch_schema(keep_rejects, nb, per_lang,
                                               monkeypatch):
    """The Arrow map gives exactly ``tier_batch``'s (``tier_batch_lang``'s)
    column names, order, Arrow types and rows — also on a zero-row and an
    all-null ``text`` block, where the pandas round trip types every
    all-None column ``null`` and the map keeps the block's types."""
    import pdf_extract_ray.stages.textquality as textquality
    from pdf_extract_ray.stages.langquality import (
        LANG_TIER_RULES,
        tier_batch_lang,
        tier_columns_lang,
    )

    model = _nb_model() if nb else None
    if per_lang:
        def fn(text):
            return tier_columns_lang(text, None, LANG_TIER_RULES, model)

        def batch_fn(df):
            return tier_batch_lang(df, "text", None, LANG_TIER_RULES, model)
    else:
        def fn(text):
            return tier_columns(text, TIER_RULES, model)

        def batch_fn(df):
            return tier_batch(df, "text", TIER_RULES, model)

    def expected(t):
        want = batch_fn(t.to_pandas())
        if not keep_rejects:
            want = want[~want["tier"].str.startswith("reject_")]
        return want.reset_index(drop=True)

    t = _tier_block(120, seed=5)
    want = expected(t)
    if keep_rejects:
        assert ({"reject_short", "tier2"} | ({"reject_lowquality"} if nb
                                             else set())) <= set(want["tier"])
    schema = pa.Table.from_pandas(want, preserve_index=False).schema
    schema = schema.remove_metadata()
    monkeypatch.setattr(textquality, "TIER_SLICE_BYTES", 2048)
    got = tier_slices(t, fn, "text", keep_rejects=keep_rejects)
    assert got.schema == schema
    pd.testing.assert_frame_equal(got.to_pandas(), want, check_exact=True)

    zero = tier_slices(t.slice(0, 0), fn, "text", keep_rejects=keep_rejects)
    assert zero.num_rows == 0 and zero.schema == schema

    nulls = t.set_column(1, "text", pa.nulls(len(t), pa.string()))
    got = tier_slices(nulls, fn, "text", keep_rejects=keep_rejects)
    assert got.schema == schema
    want = expected(nulls)
    assert set(want["tier"]) <= {"reject_short"}
    pd.testing.assert_frame_equal(got.to_pandas(), want, check_exact=True,
                                  check_dtype=len(want) > 0)


def test_arrow_tier_map_replaces_a_column_in_place():
    t = _tier_block(40).append_column("tier", pa.array(["old"] * 40))
    got = tier_slices(t, tier_columns, "text")
    assert got.column_names.index("tier") == 3
    assert got.column_names == list(tier_batch(t.to_pandas()).columns)
    assert "old" not in set(got["tier"].to_pylist())


def test_text_slices_bound_bytes_per_slice():
    from pdf_extract_ray.stages.textquality import _text_array, text_slices

    t = _text_array(pa.array(["ab", None, "abcdef", "", "abc", "a"]))
    assert text_slices(t, 4) == [(0, 2), (2, 3), (3, 6)]
    assert text_slices(t, 100) == [(0, 6)]
    assert text_slices(t.slice(0, 0), 4) == [(0, 0)]



def test_warc_batch_split_by_lang(ray_session, tmp_path, monkeypatch):
    """WARC shards batched into one plan, all three parsed in one task
    (they hold far less than ``target_min_block_size``): each partition's
    rows land in its own part=<id>/lang_id_v2=<lang>/tier=<label>/ dirs,
    equal to a run of that shard alone."""
    from pdf_extract_ray.corpus import pages_table
    from pdf_extract_ray.sources.warc import build_warc

    rows = pages_table(45, seed=5, n_hosts=4).to_pylist()
    for r in rows:
        r["warc_ts"] = r["warc_ts"].replace(microsecond=0)
    for i in range(3):
        (tmp_path / f"crawl-{i}.warc.gz").write_bytes(
            build_warc(rows[i * 15:(i + 1) * 15], compress=True))
    out = str(tmp_path / "tiers")
    tasks = []
    orig = rd.Dataset.write_parquet

    def spy(self, *a, **kw):
        res = orig(self, *a, **kw)
        tasks.extend(op["tasks"] for op in parse_stats(self.stats())
                     if op["name"].startswith("MapBatches(parse)"))
        return res

    monkeypatch.setattr(rd.Dataset, "write_parquet", spy)
    res = webtext_run(str(tmp_path / "*.warc.gz"), out, keep_rejects=True,
                      split_by_lang=True, files_per_partition=1)
    monkeypatch.setattr(rd.Dataset, "write_parquet", orig)
    assert res == {"completed": 3, "skipped": 0, "failed": 0}
    assert tasks == [1]
    assert sum(pq.read_table(f"{out}/part={i}").num_rows
               for i in range(3)) == len(rows)
    for i in range(3):
        alone = str(tmp_path / f"alone{i}")
        webtext_run(str(tmp_path / f"crawl-{i}.warc.gz"), alone,
                    keep_rejects=True, split_by_lang=True,
                    files_per_partition=1)
        _assert_same_tiers(f"{out}/part={i}", f"{alone}/part=0")


def test_webtext_run_under_positional_wrapper(ray_session, tmp_path,
                                              monkeypatch, text_docs):
    """A caller may wrap run_partitioned's pipeline in a positional
    ``(files, tmp)`` shim that forwards ``**kw`` (perfbench's traced run
    does): the batched run still completes."""
    import pdf_extract_ray.state.manifest as manifest

    src = text_docs(3)
    original = manifest.run_partitioned
    calls = []

    def traced(files, out_dir, pipeline, **kw):
        def timed(fs, tmp):
            calls.append(len(fs))
            return pipeline(fs, tmp)

        return original(files, out_dir, timed, **kw)

    monkeypatch.setattr(manifest, "run_partitioned", traced)
    stats = webtext_run(f"{src}/*.parquet", str(tmp_path / "out"),
                        files_per_partition=1)
    assert stats == {"completed": 3, "skipped": 0, "failed": 0}
    assert calls == [3]


def test_batch_over_inputs_with_a_path_column(ray_session, tmp_path,
                                              text_docs):
    """Input files that carry their own ``path`` column cannot be tagged
    by the reader's path column; their partitions run one at a time and
    the column is written through unchanged."""
    src = text_docs(2)
    for f in src.glob("*.parquet"):
        d = pd.read_parquet(f)
        d.assign(path=d["url"].str.replace("https://", "/")).to_parquet(f)
    out = str(tmp_path / "out")
    stats = webtext_run(f"{src}/*.parquet", out, keep_rejects=True,
                        files_per_partition=1)
    assert stats == {"completed": 2, "skipped": 0, "failed": 0}
    for i in range(2):
        got = pq.read_table(f"{out}/part={i}").to_pandas()
        assert len(got) > 0
        assert (got["path"] == got["url"].str.replace("https://", "/")).all()


def test_cli_command_keeps_the_callers_ray_session(ray_session, tmp_path,
                                                  text_docs):
    """A CLI command run inside a caller's Ray session leaves it running;
    it shuts down only a session it started itself."""
    import ray

    from pdf_extract_ray.__main__ import main

    src = text_docs(2)
    assert ray.is_initialized()
    assert main(["webtext", "--input", f"{src}/*.parquet",
                 "--out", str(tmp_path / "out"),
                 "--files-per-partition", "1"]) == 0
    assert ray.is_initialized()


@pytest.mark.parametrize("cmd", ["quality", "webtext", "linkgraph", "shards",
                                 "history"])
@pytest.mark.parametrize("flag", [["--plan", "staged"],
                                  ["--rule-pack", "default"]],
                         ids=["plan", "rule_pack"])
def test_non_extract_commands_reject_extract_flags(tmp_path, cmd, flag,
                                                   capsys):
    """``--plan`` and ``--rule-pack`` belong to ``extract`` (and
    ``retry-failed``, which re-runs it); other commands never read them,
    so argparse refuses them (exit 2) before any work starts."""
    from pdf_extract_ray.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([cmd, "--input", str(tmp_path / "*.parquet"),
              "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
