"""Checkpoint manifest + resume tests (SURVEY.md §5.2.5): no completed
partition reprocessed after interruption; final output equals an
uninterrupted run; failed partitions isolated and reported."""

import json
import os
import shutil

import pytest

from pdf_extract_ray.corpus import write_pages_corpus
from pdf_extract_ray.state.manifest import (
    Manifest,
    PartitionResult,
    plan_partitions,
    run_partitioned,
)


def test_plan_deterministic(tmp_path):
    files = [f"c_{i}.parquet" for i in (3, 1, 2, 0, 4)]
    plan = plan_partitions(files, 2)
    assert plan == [["c_0.parquet", "c_1.parquet"],
                    ["c_2.parquet", "c_3.parquet"], ["c_4.parquet"]]


def test_manifest_append_read_rollup(tmp_path):
    m = Manifest(str(tmp_path / "m.jsonl"))
    m.append(PartitionResult(0, "completed", ["a"], 10, 1.0, 10.0, {"v": "1"}))
    m.append(PartitionResult(1, "failed", ["b"], 0, 0.5, 0.0, {"v": "1"}, error="boom"))
    rows = m.read()
    assert [(r["partition_id"], r["status"]) for r in rows] == [
        (0, "completed"), (1, "failed")]
    assert rows[1]["error"] == "boom"
    assert m.completed() == {0: {"v": "1"}}
    # torn tail line is tolerated
    with open(m.path, "a") as f:
        f.write('{"partition_id": 2, "status": "comp')
    assert m.read() == rows


def _tracking_pipeline(log, fail_on=frozenset()):
    def pipeline(files, tmp_out):
        os.makedirs(tmp_out, exist_ok=True)
        key = tuple(os.path.basename(f) for f in files)
        log.append(key)
        if key in fail_on:
            raise RuntimeError("injected failure")
        with open(os.path.join(tmp_out, "out.txt"), "w") as f:
            f.write("\n".join(key))
        return len(files)
    return pipeline


def test_resume_skips_completed(tmp_path):
    files = [f"f{i}" for i in range(6)]
    out = str(tmp_path / "out")

    # first run: partition 2 (files f4,f5) fails
    log1 = []
    with pytest.raises(RuntimeError):
        run_partitioned(files, out, _tracking_pipeline(log1, {("f4", "f5")}),
                        files_per_partition=2)
    assert log1 == [("f0", "f1"), ("f2", "f3"), ("f4", "f5")]

    # second run: only the failed partition re-executes
    log2 = []
    stats = run_partitioned(files, out, _tracking_pipeline(log2),
                            files_per_partition=2)
    assert log2 == [("f4", "f5")]
    assert stats == {"completed": 1, "skipped": 2, "failed": 0}
    for pid in range(3):
        assert os.path.exists(os.path.join(out, f"part={pid}", "out.txt"))

    # third run: everything skipped, nothing re-runs (idempotent)
    log3 = []
    stats = run_partitioned(files, out, _tracking_pipeline(log3),
                            files_per_partition=2)
    assert log3 == []
    assert stats == {"completed": 0, "skipped": 3, "failed": 0}


def test_stage_version_mismatch_reprocesses(tmp_path):
    """ADVICE r3: a partition completed under DIFFERENT stage_versions
    (changed flags/rules) is stale — resume must redo it, not keep it."""
    files = ["f0", "f1", "f2", "f3"]
    out = str(tmp_path / "out")

    log1 = []
    run_partitioned(files, out, _tracking_pipeline(log1),
                    files_per_partition=2, stage_versions={"flag": "a"})
    assert len(log1) == 2

    # same versions -> all skipped
    log2 = []
    stats = run_partitioned(files, out, _tracking_pipeline(log2),
                            files_per_partition=2,
                            stage_versions={"flag": "a"})
    assert log2 == [] and stats["skipped"] == 2

    # changed versions -> everything reprocessed
    log3 = []
    stats = run_partitioned(files, out, _tracking_pipeline(log3),
                            files_per_partition=2,
                            stage_versions={"flag": "b"})
    assert len(log3) == 2 and stats == {"completed": 2, "skipped": 0,
                                        "failed": 0}

    # a failed re-run voids the earlier completion: the destroyed part
    # dir must not be skipped on the next resume
    log4 = []
    with pytest.raises(RuntimeError):
        run_partitioned(files, out, _tracking_pipeline(log4, {("f0", "f1")}),
                        files_per_partition=2, stage_versions={"flag": "c"})
    log5 = []
    stats = run_partitioned(files, out, _tracking_pipeline(log5),
                            files_per_partition=2,
                            stage_versions={"flag": "c"})
    assert ("f0", "f1") in log5
    assert os.path.exists(os.path.join(out, "part=0", "out.txt"))


def test_webtext_flags_recorded_in_versions():
    """ADVICE r3: keep_rejects / respect_robots are part of the webtext
    pipeline's identity — a flag change must invalidate old partitions."""
    import inspect

    from pdf_extract_ray.pipelines import webtext

    src = inspect.getsource(webtext.webtext_run)
    assert '"keep_rejects"' in src and '"respect_robots"' in src


def test_quality_global_dedup_all_empty_partitions(ray_session, tmp_path):
    """ADVICE r3 (medium): when every completed partition wrote zero rows
    (legitimate after the zero-row-partition fix), the --global-dedup
    merge must not crash on read_parquet([]) — it completes with an
    empty global dir, mirrors linkgraph._merge_global."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extract_ray.pipelines.runner import quality_run

    src = tmp_path / "pairs"
    src.mkdir()
    # numbers-only BOTH sides -> content-filtered, partition writes 0 rows
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(
        [{"doc_id": 0, "kr_text": "123, 456.", "en_text": "789 012"}])),
        src / "p0.parquet")

    out = tmp_path / "out"
    stats = quality_run(str(src / "*.parquet"), str(out), global_dedup=True,
                        files_per_partition=1, min_rows_per_file=1)
    assert stats["completed"] == 1 and stats["global"] == "completed"
    assert (out / "global").is_dir() and (out / "part=0").is_dir()

    stats2 = quality_run(str(src / "*.parquet"), str(out), global_dedup=True,
                         files_per_partition=1, min_rows_per_file=1)
    assert stats2["skipped"] == 1 and stats2["global"] == "skipped"


def test_crashed_tmp_dir_discarded(tmp_path):
    files = ["f0", "f1"]
    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, ".tmp_part=0"))
    with open(os.path.join(out, ".tmp_part=0", "junk"), "w") as f:
        f.write("partial garbage")
    log = []
    run_partitioned(files, out, _tracking_pipeline(log), files_per_partition=2)
    assert not os.path.exists(os.path.join(out, ".tmp_part=0"))
    assert os.path.exists(os.path.join(out, "part=0", "out.txt"))


def test_extract_run_resume_equals_uninterrupted(ray_session, tmp_path):
    """Interrupted extract_run resumes to output identical to one-shot run."""
    import pandas as pd

    import ray.data as rd

    from pdf_extract_ray.pipelines.runner import extract_run

    corpus = str(tmp_path / "corpus")
    write_pages_corpus(corpus, n_docs=120, seed=7, docs_per_file=30)

    # uninterrupted reference run
    ref_out = str(tmp_path / "ref")
    extract_run(f"{corpus}/*.parquet", ref_out, files_per_partition=1)
    ref = rd.read_parquet(ref_out).to_pandas().sort_values("url").reset_index(drop=True)

    # interrupted run: complete 2 of 4 partitions, then "crash" (simulated by
    # a fresh invocation after manually truncating the plan via max run)
    out = str(tmp_path / "out")
    import pdf_extract_ray.state.manifest as mm

    calls = {"n": 0}
    orig = mm.Manifest.append

    def exploding_append(self, result):
        orig(self, result)
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt  # crash right after 2nd partition commits

    mm.Manifest.append = exploding_append
    try:
        with pytest.raises(KeyboardInterrupt):
            extract_run(f"{corpus}/*.parquet", out, files_per_partition=1)
    finally:
        mm.Manifest.append = orig

    stats = extract_run(f"{corpus}/*.parquet", out, files_per_partition=1)
    assert stats["skipped"] == 2 and stats["completed"] == 2
    got = rd.read_parquet(
        sorted(__import__("glob").glob(f"{out}/part=*/*.parquet"))
    ).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)

    # manifest carries lineage + metrics
    rows = mm.Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert all(r["stage_versions"]["plan"] == "fused" for r in rows)
    assert all(r["n_rows"] == 30 for r in rows if r["status"] == "completed")


def test_extract_run_staged_plan(ray_session, tmp_path):
    """The staged (shuffle) plan also runs partitioned+resumable and matches
    the fused plan's output byte-for-byte."""
    import ray.data as rd

    from pdf_extract_ray.pipelines.runner import extract_run

    corpus = str(tmp_path / "corpus")
    write_pages_corpus(corpus, n_docs=60, seed=5, docs_per_file=30)

    fused_out = str(tmp_path / "fused")
    staged_out = str(tmp_path / "staged")
    extract_run(f"{corpus}/*.parquet", fused_out, files_per_partition=1)
    stats = extract_run(f"{corpus}/*.parquet", staged_out, plan="staged",
                        files_per_partition=1)
    assert stats["completed"] == 2

    import glob as g
    fused = rd.read_parquet(sorted(g.glob(f"{fused_out}/part=*/*.parquet"))).to_pandas()
    staged = rd.read_parquet(sorted(g.glob(f"{staged_out}/part=*/*.parquet"))).to_pandas()
    fused = fused.sort_values("url").reset_index(drop=True)
    staged = staged.sort_values("url").reset_index(drop=True)
    assert fused["extracted_text"].tolist() == staged["extracted_text"].tolist()

    # plan recorded in lineage
    import json as j
    rows = [j.loads(l) for l in open(f"{staged_out}/_manifest.jsonl")]
    assert all(r["stage_versions"]["plan"] == "staged" for r in rows)


def test_zero_row_partition_completes(ray_session, tmp_path):
    """A partition that legitimately writes no rows (e.g. every page in
    it robots-filtered) must still land an atomic part dir + manifest
    row — Ray's empty write_parquet creates no directory, which used to
    crash the rename and poison resume."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extract_ray.pipelines.linkgraph import links_run

    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(pa.table({
        "url": ["http://a.example/p"],
        "html": ['<meta name="robots" content="nofollow">'
                 '<a href="http://b.example/x">t</a>'],
    }), src / "p0.parquet")

    out = tmp_path / "out"
    stats = links_run(str(src / "*.parquet"), str(out),
                      respect_robots=True, files_per_partition=1,
                      min_rows_per_file=1)
    assert stats == {"completed": 1, "skipped": 0, "failed": 0,
                     "global": "completed"}
    assert (out / "part=0").is_dir()
    # resume: the empty partition is manifested and skips
    stats2 = links_run(str(src / "*.parquet"), str(out),
                       respect_robots=True, files_per_partition=1,
                       min_rows_per_file=1)
    assert stats2["skipped"] == 1 and stats2["global"] == "skipped"


# --- row-local batches (run_partitioned(row_local=True)) -------------------

def _sized_files(tmp_path, sizes):
    files = []
    for i, n in enumerate(sizes):
        p = tmp_path / f"in{i}.bin"
        p.write_bytes(b"x" * n)
        files.append(str(p))
    return files


def _batch_pipeline(log, fail_on=frozenset()):
    """A row-local pipeline: one part=<pid> dir per partition of the batch."""
    def pipeline(batch, staging):
        log.append([pid for pid, _ in batch])
        if fail_on & {pid for pid, _ in batch}:
            raise RuntimeError("injected failure")
        for pid, files in batch:
            os.makedirs(os.path.join(staging, f"part={pid}"))
            with open(os.path.join(staging, f"part={pid}", "out.txt"),
                      "w") as f:
                f.write("\n".join(files))
        return {pid: len(files) for pid, _ in batch}
    return pipeline


def test_row_local_batches_fit_the_block_size(tmp_path, monkeypatch):
    """Consecutive pending partitions share a batch while their input
    bytes fit in target_max_block_size; a larger one runs alone."""
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        100)
    files = _sized_files(tmp_path, [40, 40, 40, 150, 10, 10])
    out = str(tmp_path / "out")
    log = []
    stats = run_partitioned(files, out, _batch_pipeline(log),
                            files_per_partition=1, row_local=True)
    assert log == [[0, 1], [2], [3], [4, 5]]
    assert stats == {"completed": 6, "skipped": 0, "failed": 0}
    rows = Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert [r["partition_id"] for r in rows] == [0, 1, 2, 3, 4, 5]
    assert [r["batch"] for r in rows] == [0, 0, 2, 3, 4, 4]
    # each partition of a batch carries an even share of its wall
    assert rows[0]["wall_s"] == rows[1]["wall_s"]
    for pid in range(6):
        assert os.path.exists(os.path.join(out, f"part={pid}", "out.txt"))
    assert not os.path.exists(os.path.join(out, ".tmp_batch"))


def test_row_local_failure_reruns_batch_one_by_one(tmp_path):
    """A failing batch re-runs its partitions alone: the earlier ones
    commit, the failing one is marked failed, the run raises; resume
    then runs only what is left.  A stale .tmp_part dir of a pending
    partition is removed before its batch runs."""
    files = _sized_files(tmp_path, [10] * 5)
    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, ".tmp_part=3"))
    log = []
    with pytest.raises(RuntimeError):
        run_partitioned(files, out, _batch_pipeline(log, {2}),
                        files_per_partition=1, row_local=True)
    assert log == [[0, 1, 2, 3, 4], [0], [1], [2]]
    rows = Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert [(r["partition_id"], r["status"]) for r in rows] == [
        (0, "completed"), (1, "completed"), (2, "failed")]
    assert sorted(os.listdir(out)) == ["_manifest.jsonl", "part=0", "part=1"]

    log2 = []
    stats = run_partitioned(files, out, _batch_pipeline(log2),
                            files_per_partition=1, row_local=True)
    assert log2 == [[2, 3, 4]]
    assert stats == {"completed": 3, "skipped": 2, "failed": 0}
    assert sorted(os.listdir(out)) == [
        "_manifest.jsonl", "part=0", "part=1", "part=2", "part=3", "part=4"]


def _tier_frames(out: str) -> dict:
    """{"part=<id>/tier=<label>": rows sorted by url} of a webtext run."""
    import glob as g

    import pandas as pd

    frames = {}
    for d in sorted(g.glob(os.path.join(out, "part=*", "tier=*"))):
        key = os.path.relpath(d, out)
        frames[key] = pd.concat(
            [pd.read_parquet(p) for p in g.glob(os.path.join(d, "*.parquet"))]
        ).sort_values("url").reset_index(drop=True)
    return frames


def _assert_same_tiers(a: str, b: str) -> None:
    import pandas as pd

    fa, fb = _tier_frames(a), _tier_frames(b)
    assert sorted(fa) == sorted(fb)
    for k in fa:
        pd.testing.assert_frame_equal(fa[k], fb[k])


def test_webtext_crash_after_commit_resumes_to_uninterrupted(ray_session,
                                                             tmp_path,
                                                             text_docs):
    """A crash right after the 2nd of 4 batched partitions commits: the
    resume redoes only the other two and the output equals a one-shot
    run, partition by partition and tier by tier."""
    import pdf_extract_ray.state.manifest as mm
    from pdf_extract_ray.pipelines.webtext import webtext_run

    glob_ = str(text_docs(4) / "*.parquet")
    ref = str(tmp_path / "ref")
    webtext_run(glob_, ref, keep_rejects=True, files_per_partition=1)

    out = str(tmp_path / "out")
    calls = {"n": 0}
    orig = mm.Manifest.append

    def exploding_append(self, result):
        orig(self, result)
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt

    mm.Manifest.append = exploding_append
    try:
        with pytest.raises(KeyboardInterrupt):
            webtext_run(glob_, out, keep_rejects=True, files_per_partition=1)
    finally:
        mm.Manifest.append = orig
    assert os.path.isdir(os.path.join(out, ".tmp_batch"))

    stats = webtext_run(glob_, out, keep_rejects=True, files_per_partition=1)
    assert stats == {"completed": 2, "skipped": 2, "failed": 0}
    assert not os.path.exists(os.path.join(out, ".tmp_batch"))
    _assert_same_tiers(ref, out)
    rows = mm.Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert [(r["partition_id"], r["batch"]) for r in rows] == [
        (0, 0), (1, 0), (2, 2), (3, 2)]


def test_webtext_failing_partition_in_batch(ray_session, tmp_path,
                                            text_docs):
    """An unreadable input file fails its batch; the batch re-runs one
    partition at a time: the partitions before it are committed, it is
    marked failed, the ones after it stay pending."""
    import glob as g

    from pdf_extract_ray.pipelines.webtext import webtext_run
    from pdf_extract_ray.state.manifest import Manifest

    glob_ = str(text_docs(4) / "*.parquet")
    with open(sorted(g.glob(glob_))[2], "wb") as f:
        f.write(b"PAR1 not a parquet file")
    out = str(tmp_path / "out")
    with pytest.raises(Exception):
        webtext_run(glob_, out, files_per_partition=1)
    rows = Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert [(r["partition_id"], r["status"]) for r in rows] == [
        (0, "completed"), (1, "completed"), (2, "failed")]
    assert rows[0]["n_rows"] > 0 and rows[1]["n_rows"] > 0
    assert g.glob(os.path.join(out, "part=1", "tier=*", "*.parquet"))
    assert not os.path.exists(os.path.join(out, "part=2"))
    assert not os.path.exists(os.path.join(out, "part=3"))


def test_webtext_zero_row_partition_in_batch(ray_session, tmp_path,
                                             text_docs):
    """A partition whose every document is rejected writes no rows inside
    a batch: it still gets its part dir and a completed manifest row."""
    import pandas as pd

    from pdf_extract_ray.pipelines.webtext import webtext_run
    from pdf_extract_ray.state.manifest import Manifest

    src = text_docs(3)
    glob_ = str(src / "*.parquet")
    # all-short documents: every row lands in reject_short, not written
    d1 = src / "d1.parquet"
    pd.read_parquet(d1).assign(text="too short").to_parquet(d1)
    out = str(tmp_path / "out")
    stats = webtext_run(glob_, out, files_per_partition=1)
    assert stats == {"completed": 3, "skipped": 0, "failed": 0}
    rows = Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert [r["n_rows"] > 0 for r in rows] == [True, False, True]
    assert {r["batch"] for r in rows} == {0}
    assert os.path.isdir(os.path.join(out, "part=1"))
    assert os.listdir(os.path.join(out, "part=1")) == []
    stats2 = webtext_run(glob_, out, files_per_partition=1)
    assert stats2 == {"completed": 0, "skipped": 3, "failed": 0}


def test_retry_failed_refuses_other_pipelines_output(ray_session, tmp_path,
                                                     text_docs):
    """retry-failed re-runs extraction; on a webtext run directory it
    would overwrite every partition.  It must exit nonzero and leave the
    manifest and the tier output byte-unchanged."""
    import glob as g

    from pdf_extract_ray.__main__ import main
    from pdf_extract_ray.pipelines.webtext import webtext_run

    glob_ = str(text_docs(2) / "*.parquet")
    out = str(tmp_path / "out")
    webtext_run(glob_, out, files_per_partition=1)

    def snapshot():
        return {p: open(p, "rb").read() for p in sorted(
            g.glob(os.path.join(out, "part=*", "tier=*", "*.parquet"))
            + [os.path.join(out, "_manifest.jsonl")])}

    before = snapshot()
    assert len(before) > 1
    rc = main(["retry-failed", "--input", glob_, "--out", out])
    assert rc != 0
    assert snapshot() == before


def test_status_refuses_directory_without_manifest(tmp_path, capsys):
    """A mistyped ``--out`` must not read as an empty, healthy run."""
    from pdf_extract_ray.__main__ import main

    assert main(["status", "--out", str(tmp_path / "no" / "such")]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    # stderr may also carry log lines of an earlier test's Ray workers
    refusals = [ln for ln in cap.err.splitlines() if ln.startswith("status:")]
    assert len(refusals) == 1 and "no run manifest" in refusals[0]


def test_status_rollup_of_finished_extract(ray_session, tmp_path, capsys):
    from collections import Counter

    from pdf_extract_ray.__main__ import main

    write_pages_corpus(str(tmp_path / "in"), n_docs=60, docs_per_file=20)
    out = str(tmp_path / "out")
    assert main(["extract", "--input", str(tmp_path / "in" / "*.parquet"),
                 "--out", out, "--files-per-partition", "1",
                 "--num-cpus", "1"]) == 0
    capsys.readouterr()
    assert main(["status", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = Manifest(os.path.join(out, "_manifest.jsonl")).read()
    assert report["rollup"] == dict(Counter(r["status"] for r in rows))
    assert report["rollup"] == {"completed": 3}
    assert report["rows_total"] == sum(r["n_rows"] for r in rows)
    assert report["failed"] == []


def test_status_counts_partitions_not_phase_rows(ray_session, tmp_path, capsys):
    """The global pass's row (partition_id -1) is a phase over the
    partitions' output: ``status`` lists it under ``phases`` and leaves it
    out of the rollup, ``rows_total`` and ``mean_rows_per_s``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extract_ray.__main__ import main

    src = tmp_path / "pairs"
    src.mkdir()
    for shard in range(4):
        pq.write_table(pa.Table.from_pylist([
            {"doc_id": shard * 100 + i, "kr_text": f"문서 {shard} 문장 {i}.",
             "en_text": f"document {shard} sentence {i}."}
            for i in range(10)]), src / f"s{shard}.parquet")
    out = str(tmp_path / "out")
    assert main(["quality", "--input", str(src / "*.parquet"), "--out", out,
                 "--files-per-partition", "2", "--global-dedup",
                 "--num-cpus", "1"]) == 0
    capsys.readouterr()
    assert main(["status", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    parts = [r for r in Manifest(os.path.join(out, "_manifest.jsonl")).read()
             if r["partition_id"] >= 0]
    assert report["rollup"] == {"completed": 2}
    assert report["rows_total"] == 40
    assert report["mean_rows_per_s"] == round(
        sum(r["rows_per_s"] for r in parts) / 2, 1)
    assert report["phases"] == [{"partition_id": -1, "phase": "global_dedup",
                                 "status": "completed", "n_rows": 40}]
