"""Resumable SCD-2 history builder — the production entry point for
``stages.history`` over a crawl archive on disk: build the url version
table from every snapshot parquet, checkpointed so a killed run resumes
mid-dataset (the north rule's resumability requirement applied to the
archive pass).

Two manifest-driven phases of the shared two-phase run
(:func:`~pdf_extract_ray.pipelines.runner.bucketed_run`, which
``shards_run`` also uses) — each byte of the archive is read once, and
only narrow rows are ever re-read:

1. **Tag pass** (narrow, input-partitioned, ``run_partitioned``): each
   input partition streams through one ``map_batches`` that hashes the
   content — page bodies are REDUCED to ``(url, ts, 32-hex hash,
   bucket)`` right here and never travel further — and writes
   ``_tag/part=<pid>/bucket=<b>/`` via parquet ``partition_cols``.
   Resume skips finished input partitions.
2. **Collapse pass** (per url-hash bucket, its own manifest rows):
   bucket ``b`` reads ONLY ``_tag/part=*/bucket=<b>/`` (directory
   pruning), runs the shared vectorized collapse
   (:func:`~pdf_extract_ray.stages.history.collapse_versions` — every
   url's rows are complete within its bucket by construction) and
   writes ``out/bucket=%04d/`` atomically.  Resume skips completed
   buckets; a crashed bucket redoes only itself.

``n_buckets`` bounds the per-bucket collapse memory (archive-rows /
n_buckets narrow rows); size it so one bucket fits a worker
comfortably.  ``method="fast"`` (default) uses the vectorized numpy
content hash for the full-archive tag pass; ``method="md5"`` matches
the SQL-parity hash of the ``scd2_url_versions`` driver query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pdf_extract_ray import __version__
from pdf_extract_ray.stages.agg import _hash_numpy_col

BUCKET_COL = "bucket"


def _tag_batch(
    batch: pd.DataFrame,
    url_col: str,
    ts_col: str,
    content_col: str,
    method: str,
    n_buckets: int,
) -> pd.DataFrame:
    from pdf_extract_ray.stages.crawldiff import _fast_hex, _md5_hex

    hash_fn = _md5_hex if method == "md5" else _fast_hex
    h = _hash_numpy_col(batch[url_col].to_numpy())
    return pd.DataFrame({
        "url": batch[url_col].to_numpy(),
        "ts": batch[ts_col].to_numpy(),
        "content_hash": hash_fn(batch[content_col]).to_numpy(),
        BUCKET_COL: (h % np.uint64(n_buckets)).astype(np.int64),
    })


def history_run(
    input_glob: str,
    out_dir: str,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    content_col: str = "text",
    method: str = "fast",
    n_buckets: int = 64,
    files_per_partition: int = 8,
    min_rows_per_file: int = 5_000,
    keep_tag_dir: bool = False,
) -> dict:
    """Run (or resume) the two-phase SCD-2 build.  Output:
    ``out_dir/bucket=%04d/*.parquet`` (schema: url, version_no,
    content_hash, valid_from, valid_to, is_current) +
    ``out_dir/_manifest.jsonl``."""
    from pdf_extract_ray.pipelines.runner import bucketed_run
    from pdf_extract_ray.stages.history import collapse_versions

    if method not in ("md5", "fast"):
        raise ValueError(f"method must be 'md5' or 'fast', got {method!r}")

    def collapse(ds):
        # repartition(1) + batch_size=None hand the WHOLE bucket to one
        # collapse call — every url's rows must arrive together, and the
        # bucket is bounded by archive-rows / n_buckets
        return ds.repartition(1).map_batches(
            collapse_versions, batch_format="pandas", batch_size=None)

    return bucketed_run(
        input_glob, out_dir,
        versions={"engine": __version__, "pipeline": "history",
                  "url_col": url_col, "ts_col": ts_col,
                  "content_col": content_col, "method": method,
                  "n_buckets": str(n_buckets)},
        col=BUCKET_COL, n_buckets=n_buckets,
        tag=lambda b: _tag_batch(b, url_col, ts_col, content_col, method,
                                 n_buckets),
        merge=collapse, merge_phase="collapse",
        files_per_partition=files_per_partition,
        min_rows_per_file=min_rows_per_file, keep_tag_dir=keep_tag_dir,
    )
