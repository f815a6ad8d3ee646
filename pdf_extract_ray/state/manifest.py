"""Checkpoint manifest: durable per-partition lineage + metrics + resume.

Replaces the reference's SQLite session/batch state machine
(reference: database.py:59-134,177-255; session_manager.py:17-351 — statuses
``pending -> ready -> in_progress -> completed/failed``, resume via
``resume_session_id``) with the batch-engine equivalent: a PARTITION is the
unit of durable progress, Ray task retries handle everything below it.

Design (SURVEY.md §4.2):
* a run processes a list of partitions (one partition = one group of input
  files); pending partitions stream through the pipeline in BATCHES — one
  partition per batch by default; consecutive partitions up to Ray Data's
  ``target_max_block_size`` of input bytes when the pipeline is row-local
  (each output row comes from one input file's rows), so a batch is one
  Ray Data execution, not one per partition;
* a batch writes under a staging dir, one ``part=<id>/`` subdir per
  partition; each partition is then committed ATOMICALLY in plan order
  (rename to ``out_dir/part=<id>/``, then a manifest row is appended —
  JSONL, append-only, fsync'd), so a crash mid-batch loses at most the
  batch's uncommitted partitions;
* resume = anti-join: partitions whose manifest row says ``completed`` are
  skipped; a partially-written staging dir from a crash is discarded and
  never read;
* lineage per row: input files, row count, config/stage versions, the
  batch it ran in, wall time (its even share of the batch wall), rows/s —
  the analogue of ``extraction_stats`` / ``batch_summary_stats``
  (database.py:96-125);
* idempotent by construction: re-running a completed partition is a no-op
  (fixes the reference's double-insert wart, SURVEY.md §4.1);
* a later phase that reads a whole earlier phase (a url-hash bucket of a
  two-phase run, a global pass) commits its partitions the same way
  through :func:`commit_phase`, under an identity that
  :func:`dependent_versions` derives from the earlier phase's.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class PartitionResult:
    partition_id: int
    status: str            # completed | failed
    input_files: list[str]
    n_rows: int
    wall_s: float
    rows_per_s: float
    stage_versions: dict
    error: str | None = None
    finished_at: str = ""
    batch: int | None = None  # first partition id of the batch it ran in


class Manifest:
    """Append-only JSONL manifest of partition completions."""

    def __init__(self, path: str):
        self.path = path

    def read(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        rows = []
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if line:
                    try:
                        rows.append(json.loads(line))
                    except json.JSONDecodeError:
                        pass  # torn tail write from a crash: ignore
        return rows

    def append(self, result: PartitionResult) -> None:
        row = dict(result.__dict__)
        row["finished_at"] = row["finished_at"] or time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(row) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def completed(self) -> dict[int, dict]:
        """The ``stage_versions`` each partition id last completed under.
        The latest row per partition wins: a later completion under other
        versions replaces it, and a later failure voids it (the failed
        re-run destroyed the old output before failing)."""
        done: dict[int, dict] = {}
        for r in self.read():
            if r.get("status") == "completed":
                done[r["partition_id"]] = r.get("stage_versions") or {}
            elif r.get("status") == "failed":
                done.pop(r.get("partition_id"), None)
        return done


def rows_written(out_dir: str) -> int:
    """Parquet rows under ``out_dir``; ``**`` also counts
    ``partition_cols`` layouts (e.g. ``tier=<label>/`` subdirs)."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(p).metadata.num_rows
               for p in glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                                  recursive=True))


def _commit(manifest: Manifest, tmp_dir: str, final_dir: str, *,
            partition_id: int, input_files: list[str], n_rows: int,
            wall: float, stage_versions: dict,
            batch: int | None = None) -> None:
    """Rename one written partition into place, then record it.  A
    zero-row partition is legitimate (e.g. every page in it was
    robots-filtered) and Ray's empty ``write_parquet`` creates no
    directory, so an empty one is committed: resume then skips it."""
    os.makedirs(tmp_dir, exist_ok=True)
    os.replace(tmp_dir, final_dir)
    manifest.append(PartitionResult(
        partition_id=partition_id, status="completed",
        input_files=input_files, n_rows=n_rows, wall_s=round(wall, 3),
        rows_per_s=round(n_rows / wall, 1) if wall > 0 else 0.0,
        stage_versions=stage_versions, batch=batch,
    ))


def commit_phase(
    manifest: Manifest,
    done: dict[int, dict],
    out_dir: str,
    name: str,
    partition_id: int,
    write: Callable[[str], list[str]],
    stage_versions: dict,
) -> bool:
    """Run and commit one partition of a phase that is not a partition of
    input files — one bucket of a two-phase run, or a global pass — as
    ``out_dir/<name>/``.

    ``done`` is :meth:`Manifest.completed`, read once per phase.  If it
    holds ``partition_id`` under ``stage_versions`` nothing runs and the
    result is False.  Otherwise partial and stale output is discarded,
    ``write(tmp_dir) -> input_files`` writes the partition under
    ``out_dir/.tmp_<name>/`` and names its inputs for the lineage row,
    and the partition is committed atomically; the result is True."""
    if done.get(partition_id) == stage_versions:
        return False
    tmp_dir = os.path.join(out_dir, f".tmp_{name}")
    final_dir = os.path.join(out_dir, name)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(final_dir, ignore_errors=True)
    t0 = time.time()
    input_files = write(tmp_dir)
    _commit(manifest, tmp_dir, final_dir, partition_id=partition_id,
            input_files=input_files, n_rows=rows_written(tmp_dir),
            wall=time.time() - t0, stage_versions=stage_versions)
    return True


def dependent_versions(upstream: dict, phase: str,
                       n_upstream_partitions: int) -> dict:
    """Identity of a phase that reads a whole upstream phase's output:
    the upstream identity, the phase name and the upstream partition
    count.  An upstream flag change or a new partition redoes it."""
    return dict(upstream, phase=phase,
                n_upstream_partitions=str(n_upstream_partitions))


def mark_complete(manifest: Manifest, partition_id: int,
                  stage_versions: dict, input_files: list[str]) -> None:
    """Record a zero-row completion that commits no directory (a
    run-complete marker)."""
    manifest.append(PartitionResult(
        partition_id=partition_id, status="completed",
        input_files=input_files, n_rows=0, wall_s=0.0, rows_per_s=0.0,
        stage_versions=stage_versions,
    ))


def plan_partitions(input_files: Sequence[str], files_per_partition: int = 4) -> list[list[str]]:
    """Deterministic partition plan: sorted files, fixed-size groups.
    Partition id = index in this plan; the plan must be reproducible across
    runs for resume to be sound (same files -> same ids)."""
    files = sorted(input_files)
    return [
        list(files[i : i + files_per_partition])
        for i in range(0, len(files), files_per_partition)
    ]


def _input_bytes(files: Sequence[str]) -> float:
    """Size of a partition's input; unknown sizes (remote URIs) count as
    unbounded, so such a partition runs in a batch of its own."""
    try:
        return sum(os.path.getsize(f) for f in files)
    except OSError:
        return float("inf")


def _batches(pending: list[int], plan: list[list[str]]) -> list[list[int]]:
    """Consecutive pending partitions grouped while their input bytes fit
    in Ray Data's ``target_max_block_size``; a partition larger than that
    runs alone."""
    from ray.data import DataContext

    budget = DataContext.get_current().target_max_block_size or float("inf")
    batches: list[list[int]] = []
    size = 0.0
    for pid in pending:
        n = _input_bytes(plan[pid])
        if not batches or size + n > budget:
            batches.append([])
            size = 0.0
        batches[-1].append(pid)
        size += n
    return batches


def run_partitioned(
    input_files: Sequence[str],
    out_dir: str,
    pipeline: Callable,
    *,
    manifest_path: str | None = None,
    files_per_partition: int = 4,
    stage_versions: dict | None = None,
    max_failures: int = 0,
    row_local: bool = False,
) -> dict:
    """Drive a resumable partitioned run.

    ``pipeline(files, tmp_out_dir) -> n_rows`` runs the (internally
    parallel, streaming) pipeline for one partition and writes its output
    under ``tmp_out_dir``; this driver handles atomicity, the manifest and
    skipping completed partitions.

    ``row_local=True`` declares that every output row of the pipeline
    comes from the rows of one input file.  Pending partitions then run
    in batches (see :func:`_batches`), and the pipeline takes a whole
    batch: ``pipeline([(partition_id, files), ...], staging_dir) ->
    {partition_id: n_rows}``, writing each partition's rows under
    ``staging_dir/part=<id>/``.  Batches run one after another — each
    one saturates the cluster internally.  If a batch raises, its
    partitions re-run one at a time as batches of one, so the earlier
    ones commit and the failing one is marked ``failed``.
    """
    manifest = Manifest(manifest_path or os.path.join(out_dir, "_manifest.jsonl"))
    versions = stage_versions or {}
    plan = plan_partitions(input_files, files_per_partition)
    # skip a completed partition only if it was produced by THIS pipeline
    # configuration — a partition completed under different stage_versions
    # (changed flags, rules, engine) is stale output and must be redone,
    # never silently kept
    done = manifest.completed()
    os.makedirs(out_dir, exist_ok=True)
    pending = [pid for pid in range(len(plan)) if done.get(pid) != versions]

    if row_local:
        run, batches = pipeline, _batches(pending, plan)
    else:
        def run(batch, staging):
            (pid, files), = batch
            return {pid: pipeline(files, os.path.join(staging, f"part={pid}"))}
        batches = [[pid] for pid in pending]

    staging = os.path.join(out_dir, ".tmp_batch")
    stats = {"completed": 0, "skipped": len(plan) - len(pending), "failed": 0}

    def attempt(batch: list[int]) -> None:
        shutil.rmtree(staging, ignore_errors=True)  # discard crashed partials
        for pid in batch:
            shutil.rmtree(os.path.join(out_dir, f".tmp_part={pid}"),
                          ignore_errors=True)
            # non-manifested output is invalid
            shutil.rmtree(os.path.join(out_dir, f"part={pid}"),
                          ignore_errors=True)
        t0 = time.time()
        try:
            n_rows = run([(pid, plan[pid]) for pid in batch], staging)
        except Exception as e:  # partition-level failure isolation
            shutil.rmtree(staging, ignore_errors=True)
            if len(batch) > 1:
                for pid in batch:
                    attempt([pid])
                return
            manifest.append(PartitionResult(
                partition_id=batch[0], status="failed",
                input_files=plan[batch[0]], n_rows=0,
                wall_s=round(time.time() - t0, 3), rows_per_s=0.0,
                stage_versions=versions, error=f"{type(e).__name__}: {e}",
                batch=batch[0],
            ))
            stats["failed"] += 1
            if stats["failed"] > max_failures:
                raise
            return
        wall = (time.time() - t0) / len(batch)
        for pid in batch:
            _commit(manifest, os.path.join(staging, f"part={pid}"),
                    os.path.join(out_dir, f"part={pid}"), partition_id=pid,
                    input_files=plan[pid], n_rows=n_rows[pid], wall=wall,
                    stage_versions=versions, batch=batch[0])
            stats["completed"] += 1
        shutil.rmtree(staging, ignore_errors=True)

    for batch in batches:
        attempt(batch)
    return stats
