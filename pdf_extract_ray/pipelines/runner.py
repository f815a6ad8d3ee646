"""Resumable corpus runs: manifest-driven partitions around the flagship
pipeline and the quality pass (reference lifecycle analogue: SURVEY.md
§3.4), and :func:`bucketed_run`, the two-phase tag-then-merge run of
the ``history`` and ``shards`` commands.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
from typing import Callable

from pdf_extract_ray import __version__
from pdf_extract_ray.config import DEFAULT_CONFIG, ExtractConfig
from pdf_extract_ray.pipelines.extract import extract_pages_fused, extract_pages_staged
from pdf_extract_ray.state.manifest import (
    Manifest,
    commit_phase,
    dependent_versions,
    mark_complete,
    rows_written,
    run_partitioned,
)


def extract_run(
    input_glob: str,
    out_dir: str,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    plan: str = "fused",
    files_per_partition: int = 8,
    min_rows_per_file: int = 5_000,
) -> dict:
    """Run (or resume) a partitioned extraction over parquet shards.

    Output layout: ``out_dir/part=<id>/*.parquet`` + ``out_dir/_manifest.jsonl``.
    A re-run after interruption skips manifested partitions (SURVEY.md §5.2.5).
    Ray must already be initialised by the caller.
    """
    import ray.data as rd

    extract = extract_pages_fused if plan == "fused" else extract_pages_staged

    def pipeline(files: list[str], tmp_out: str) -> int:
        ds = rd.read_parquet(files)
        extract(ds, cfg).write_parquet(tmp_out, min_rows_per_file=min_rows_per_file)
        return rows_written(tmp_out)

    files = sorted(glob.glob(input_glob))
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    return run_partitioned(
        files,
        out_dir,
        pipeline,
        files_per_partition=files_per_partition,
        stage_versions={"config": cfg.config_hash(), "engine": __version__,
                        "plan": plan},
    )


def quality_run(
    input_glob: str,
    out_dir: str,
    *,
    kor_col: str = "kr_text",
    eng_col: str = "en_text",
    order_col: str = "doc_id",
    dedup: bool = True,
    global_dedup: bool = False,
    files_per_partition: int = 8,
    min_rows_per_file: int = 5_000,
) -> dict:
    """Run (or resume) the composed quality pipeline
    (pipelines/quality.quality_pairs: clean -> analyze -> filter -> dedup
    -> canonical projection) over parquet shards of sentence pairs, with
    the same manifest-driven partition resume as ``extract_run``
    (reference lifecycle: metadata_generator.process_and_filter_files'
    per-file loop, re-expressed as resumable partitions).

    With ``dedup=True`` the exact dedup runs WITHIN each partition (the
    reference deduplicates per input file the same way,
    metadata_generator.py:618-622).  ``global_dedup=True`` adds a final
    CROSS-PARTITION exact dedup pass over the combined per-partition
    output into ``out_dir/global/`` — one more bucketed shuffle keyed by
    the normalized pair, keeping the min-``order_col`` row corpus-wide.
    The global pass is manifest-recorded (partition_id = -1) and
    resume-safe: a change of the partition count, of ``dedup`` or of a
    column name redoes it, as it redoes the partitions."""
    import ray.data as rd

    from pdf_extract_ray.pipelines.quality import quality_pairs

    def pipeline(files: list[str], tmp_out: str) -> int:
        ds = rd.read_parquet(files)
        quality_pairs(ds, kor_col=kor_col, eng_col=eng_col,
                      order_col=order_col, dedup=dedup).write_parquet(
            tmp_out, min_rows_per_file=min_rows_per_file)
        return rows_written(tmp_out)

    files = sorted(glob.glob(input_glob))
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    versions = {"engine": __version__, "pipeline": "quality",
                "dedup": str(dedup), "kor_col": kor_col, "eng_col": eng_col,
                "order_col": order_col}
    stats = run_partitioned(
        files,
        out_dir,
        pipeline,
        files_per_partition=files_per_partition,
        stage_versions=versions,
    )
    if global_dedup:
        stats["global"] = _quality_global_dedup(
            out_dir, dependent_versions(
                versions, "global_dedup", stats["completed"] + stats["skipped"]),
            kor_col=kor_col, eng_col=eng_col, order_col=order_col,
            min_rows_per_file=min_rows_per_file)
    return stats


def global_pass(out_dir: str, versions: dict,
                write: Callable[[list[str], str], None]) -> str:
    """Run and commit ``out_dir/global/`` (partition_id -1), a pass over
    the whole output of a partitioned run: ``write(files, tmp_dir)`` gets
    the parquet files of the ``n_upstream_partitions`` partitions that
    ``versions`` (see ``dependent_versions``) counts.  A ``part=<id>/``
    that an earlier run over more input files left behind is not read.
    Returns ``"completed"``, or ``"skipped"`` when the manifest already
    holds the pass under ``versions``."""
    def run(tmp_dir: str) -> list[str]:
        parts = [f"part={pid}" for pid in
                 range(int(versions["n_upstream_partitions"]))]
        # files, not dirs: read_parquet rejects a list of directories
        write(sorted(f for p in parts for f in glob.glob(
            os.path.join(out_dir, p, "*.parquet"))), tmp_dir)
        return parts

    manifest = Manifest(os.path.join(out_dir, "_manifest.jsonl"))
    return "completed" if commit_phase(
        manifest, manifest.completed(), out_dir, "global", -1, run,
        versions) else "skipped"


def _quality_global_dedup(out_dir: str, versions: dict, *, kor_col: str,
                          eng_col: str, order_col: str,
                          min_rows_per_file: int) -> str:
    """Cross-partition exact dedup of a completed ``quality_run`` output:
    keeps the min-``order_col`` row per normalized pair in
    ``out_dir/global/``."""
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.agg import bucketed_group_apply

    kn, en = f"{kor_col}_normalized", f"{eng_col}_normalized"

    def keep_first(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.sort_values(order_col, kind="mergesort") \
            .drop_duplicates(subset=[kn, en], keep="first")

    def write(files: list[str], tmp_dir: str) -> None:
        if files:
            bucketed_group_apply(rd.read_parquet(files), [kn, en], keep_first,
                                 pre_batch_size=4096) \
                .write_parquet(tmp_dir, min_rows_per_file=min_rows_per_file)

    return global_pass(out_dir, versions, write)


def bucketed_run(
    input_glob: str,
    out_dir: str,
    *,
    versions: dict,
    col: str,
    n_buckets: int,
    tag: Callable,
    merge: Callable,
    merge_phase: str,
    files_per_partition: int,
    min_rows_per_file: int,
    keep_tag_dir: bool,
) -> dict:
    """Run (or resume) a two-phase bucketed build, each phase resumable.

    1. **Tag** (``run_partitioned`` over input files): ``tag(batch)`` maps
       each pandas batch to the rows the merge needs plus a bucket id
       column ``col`` in ``[0, n_buckets)``, written as
       ``out_dir/_tag/part=<pid>/<col>=<b>/``.
    2. **Merge** (one partition per bucket): bucket ``b`` reads only
       ``_tag/part=*/<col>=<b>/`` and ``merge(ds)`` turns it into the
       bucket's output, committed as ``out_dir/<col>=%04d/`` with its own
       manifest row.  A bucket redoes only itself after a crash.

    Each phase's identity holds ``versions`` and a digest of the input file
    names.  When every bucket is done, the tag dir goes (unless
    ``keep_tag_dir``) and a run-complete row (partition_id -2) is
    recorded, so a resume of a finished run skips both phases without its
    tag manifest.  Stats: the tag phase's counts plus
    ``<col>s_completed`` / ``<col>s_skipped``."""
    import ray.data as rd

    files = sorted(glob.glob(input_glob))
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    tag_dir = os.path.join(out_dir, "_tag")
    manifest = Manifest(os.path.join(out_dir, "_manifest.jsonl"))
    done = manifest.completed()
    versions = dict(versions, files_digest=hashlib.md5("\n".join(
        os.path.basename(f) for f in files).encode()).hexdigest())
    run_versions = dict(versions, phase="complete")
    n_tag_parts = -(-len(files) // files_per_partition)
    tag_versions = dict(versions, phase="tag")
    merge_versions = dependent_versions(tag_versions, merge_phase,
                                        n_tag_parts)
    n_done, n_skipped = f"{col}s_completed", f"{col}s_skipped"
    # the marker stands only while every bucket is still this run's: a
    # later run under other versions may have replaced some of them
    if done.get(-2) == run_versions and all(
            done.get(b) == merge_versions for b in range(n_buckets)):
        return {"completed": 0, "skipped": n_tag_parts, "failed": 0,
                n_done: 0, n_skipped: n_buckets}

    def tag_pipeline(part_files: list[str], tmp_out: str) -> int:
        rd.read_parquet(part_files).map_batches(
            tag, batch_format="pandas",
        ).write_parquet(tmp_out, partition_cols=[col],
                        min_rows_per_file=min_rows_per_file)
        return rows_written(tmp_out)

    stats = run_partitioned(files, tag_dir, tag_pipeline,
                            files_per_partition=files_per_partition,
                            stage_versions=tag_versions)

    def write_bucket(b: int) -> Callable[[str], list[str]]:
        def write(tmp_dir: str) -> list[str]:
            bucket_files = sorted(glob.glob(os.path.join(
                tag_dir, "part=*", f"{col}={b}", "*.parquet")))
            if bucket_files:
                # partitioning=None: the hive path keys (part=<pid>,
                # <col>=<b>) are plumbing, not data
                merge(rd.read_parquet(bucket_files, partitioning=None)) \
                    .write_parquet(tmp_dir, min_rows_per_file=min_rows_per_file)
            return [os.path.relpath(p, out_dir) for p in bucket_files[:4]] \
                + ([f"... {len(bucket_files)} files"]
                   if len(bucket_files) > 4 else [])
        return write

    stats[n_done] = stats[n_skipped] = 0
    for b in range(n_buckets):
        committed = commit_phase(manifest, done, out_dir, f"{col}={b:04d}",
                                 b, write_bucket(b), merge_versions)
        stats[n_done if committed else n_skipped] += 1
    if not keep_tag_dir:
        shutil.rmtree(tag_dir, ignore_errors=True)
    mark_complete(manifest, -2, run_versions,
                  [os.path.basename(files[0]), f"... {len(files)} files"])
    return stats
