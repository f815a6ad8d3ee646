"""The three workloads: each runs one job through the program's public
pipeline API, checks its output and, in a traced run, times the calls into
each layer from here.

* ``fused_extract`` — one row per page through ``extract_pages_fused``: the
  per-document kernel (parse, merge, compose, assemble) with no shuffle,
  no tiering and no manifest.
* ``staged_multirow_skew`` — documents split over several rows, a few
  Zipf-hot urls owning a quarter of the rows, through
  ``extract_pages_staged(salt=SALT)``: the ``stages.agg`` hash shuffle,
  reassembly and hot-key salting, with little kernel work per row.
* ``webtext_resume`` — pre-extracted text through
  ``webtext_run(extract_first=False)`` resumed from a manifest in which
  ``WEBTEXT_DONE`` partitions are complete plus one stale ``.tmp_part=``
  directory: tiering signals, the tier-partitioned writer and the
  per-partition manifest cost, with no HTML parse and no shuffle.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time
from collections import defaultdict

import loadgen
import oracle

SALT = 8


def _parquet_files(path: str) -> list[str]:
    return glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _parse_blocks(batch):
    from pdf_extract_ray.pipelines.extract import ParsePagesToBlocks

    return ParsePagesToBlocks()(batch)


def _identity(group):
    return group


def _read_write_layer(tr, files: list[str], scratch: str) -> dict:
    import ray.data as rd

    with tr.span("raydata.read_parquet"):
        ds = rd.read_parquet(files).materialize()
    with tr.span("raydata.write_parquet"):
        ds.write_parquet(_fresh(scratch))
    return {"raydata.read_s": tr.total("raydata.read_parquet"),
            "raydata.read_mb": sum(os.path.getsize(f) for f in files) / 1e6,
            "raydata.write_s": tr.total("raydata.write_parquet")}


class Workload:
    """Inputs, reference and per-rep job of one workload.

    ``run`` is the timed call; ``before_rep`` prepares its output directory
    untimed; ``warm`` is the untimed run that set-up ends with."""

    name = ""

    def __init__(self, files: list[str], expected: dict, work_dir: str):
        self.files = files
        self.expected = expected["digests"]
        self.tier_counts = expected.get("tier_counts", {})
        self.work_dir = work_dir

    def before_rep(self, out: str) -> None:
        _fresh(out)

    def warm(self) -> None:
        raise NotImplementedError

    def run(self, out: str) -> tuple[int, int]:
        """Timed job; returns (documents completed, units attempted)."""
        raise NotImplementedError

    def failure_counts(self, out: str) -> tuple[int, int]:
        """(attempted, failed) units of a rep whose ``run`` raised."""
        return 1, 1

    def warm_failure_counts(self) -> tuple[int, int]:
        """(attempted, failed) units of a ``warm`` run that raised."""
        return 1, 1

    def actual(self, out: str) -> list[tuple[str, str]]:
        return oracle.actual_extract(out)

    def mismatches(self, out: str) -> int:
        return oracle.count_mismatches(self.expected, self.actual(out))

    def traced_run(self, tr, out: str) -> tuple[int, int]:
        """``run`` with spans around the calls into the program."""
        raise NotImplementedError

    def layers(self, tr, out: str) -> dict:
        """Per-layer metrics of a traced run; ``out`` holds the output of
        the last traced rep."""
        raise NotImplementedError


class ExtractWorkload(Workload):
    span = ""

    def plan(self, ds):
        raise NotImplementedError

    def warm(self):
        # one input file is enough to start the worker and import the
        # program in it; the rest of a full run would only be more of what
        # the timed reps measure
        self._job(self.files[:1], _fresh(os.path.join(self.work_dir, "warm")))

    def run(self, out):
        self._job(self.files, out)
        return len(self.expected), 1

    def _job(self, files: list[str], out: str) -> None:
        import ray.data as rd

        self.plan(rd.read_parquet(files)).write_parquet(out)

    def traced_run(self, tr, out):
        with tr.span(self.span):
            return self.run(out)

    def _kernel_layers(self, tr) -> dict:
        """Times the per-document kernel in this process over the same
        documents: rows of one url are parsed one by one and their blocks
        composed together, as the staged plan reassembles them."""
        from pdf_extract_ray.config import DEFAULT_CONFIG as cfg
        from pdf_extract_ray.pipelines.extract import oracle_extract
        from pdf_extract_ray.stages.assemble import assemble_sentences
        from pdf_extract_ray.stages.html_parser import fallback_blocks, parse_html
        from pdf_extract_ray.stages.merge import merge_blocks
        from pdf_extract_ray.stages.splitter import compose_document

        rows = loadgen.read_rows(self.files)
        n = defaultdict(int)
        drift = 0
        with tr.span("pipelines.extract.kernel"):
            for url, rs in oracle.rows_by_url(rows).items():
                blocks = []
                for r in rs:
                    with tr.span("stages.html_parser.parse_html"):
                        b = parse_html(r["html"], cfg)
                    if not b:
                        with tr.span("stages.html_parser.fallback_blocks"):
                            b = fallback_blocks(r["text"])
                        n["fallback"] += bool(b)
                    blocks += b
                with tr.span("stages.merge.merge_blocks"):
                    frags = merge_blocks(blocks)
                with tr.span("stages.splitter.compose_document"):
                    sents = compose_document(frags, cfg)
                with tr.span("stages.assemble.assemble_sentences"):
                    text, _, _ = assemble_sentences(sents, cfg)
                n["blocks"] += len(blocks)
                n["fragments"] += len(frags)
                n["sentences"] += len(sents)
                drift += oracle.digest(text) != self.expected[url]
        if drift:
            print(f"warning: traced kernel chain differs from the reference "
                  f"on {drift} documents", flush=True)
        docs = oracle.merge_multirow(rows)
        t0 = time.perf_counter()
        oracle_extract(docs)
        oracle_s = time.perf_counter() - t0
        st = tr.self_times()
        return {
            "stages.html_parser.parse_s":
                st.get("stages.html_parser.parse_html", 0.0)
                + st.get("stages.html_parser.fallback_blocks", 0.0),
            "stages.html_parser.blocks": n["blocks"],
            "stages.html_parser.fallback_docs": n["fallback"],
            "stages.merge.merge_s": st.get("stages.merge.merge_blocks", 0.0),
            "stages.merge.fragments": n["fragments"],
            "stages.splitter.compose_s": st.get("stages.splitter.compose_document", 0.0),
            "stages.splitter.sentences": n["sentences"],
            "stages.assemble.assemble_s": st.get("stages.assemble.assemble_sentences", 0.0),
            "pipelines.extract.oracle_docs_per_s": len(docs) / oracle_s,
        }

    def layers(self, tr, out):
        m = self._kernel_layers(tr)
        kernel = sum(m[k] for k in ("stages.html_parser.parse_s",
                                    "stages.merge.merge_s",
                                    "stages.splitter.compose_s",
                                    "stages.assemble.assemble_s"))
        plan_s = statistics.median(tr.durations(self.span))
        m[self.span + "_s"] = plan_s
        m["pipelines.extract.ray_overhead_s"] = plan_s - kernel
        m["raydata.files_written"] = len(_parquet_files(out))
        m.update(_read_write_layer(tr, self.files,
                                   os.path.join(self.work_dir, "io_scratch")))
        return m


class FusedExtract(ExtractWorkload):
    name = "fused_extract"
    span = "pipelines.extract.fused"

    def plan(self, ds):
        from pdf_extract_ray.pipelines.extract import extract_pages_fused

        return extract_pages_fused(ds)


class StagedMultirowSkew(ExtractWorkload):
    name = "staged_multirow_skew"
    span = "pipelines.extract.staged"

    def plan(self, ds):
        from pdf_extract_ray.pipelines.extract import extract_pages_staged

        return extract_pages_staged(ds, salt=SALT)

    def layers(self, tr, out):
        import ray.data as rd

        from pdf_extract_ray.stages.agg import bucketed_group_apply, default_num_buckets

        m = super().layers(tr, out)
        with tr.span("pipelines.extract.parse_pages_to_blocks"):
            blocks = (rd.read_parquet(self.files)
                      .map_batches(_parse_blocks, batch_format="pyarrow")
                      .materialize())
        with tr.span("stages.agg.bucketed_group_apply"):
            shuffled = bucketed_group_apply(blocks, ["url"], _identity,
                                            drop_bucket=False).materialize()
        sizes = shuffled.select_columns(["__bucket"]).to_pandas()["__bucket"].value_counts()
        m["pipelines.extract.staged_parse_s"] = tr.total("pipelines.extract.parse_pages_to_blocks")
        m["stages.agg.shuffle_s"] = tr.total("stages.agg.bucketed_group_apply")
        m["stages.agg.shuffled_mb"] = blocks.size_bytes() / 1e6
        m["stages.agg.bucket_rows_max_over_mean"] = (
            sizes.max() / (sizes.sum() / default_num_buckets()))
        return m


class WebtextResume(Workload):
    name = "webtext_resume"
    done = loadgen.WEBTEXT_DONE

    @property
    def template(self) -> str:
        return os.path.join(self.work_dir, "resume_template")

    def _webtext(self, input_glob: str, out: str) -> dict:
        from pdf_extract_ray.pipelines.webtext import webtext_run

        return webtext_run(input_glob, out, extract_first=False,
                           files_per_partition=1)

    def warm(self):
        # the untimed warm run writes the partitions the timed runs resume
        # past: the first WEBTEXT_DONE input files, as partitions 0..DONE-1
        assert 0 < self.done <= 10
        stats = self._webtext(
            os.path.join(os.path.dirname(self.files[0]),
                         f"in_000[0-{self.done - 1}].parquet"),
            _fresh(self.template))
        if stats["completed"] != self.done:
            raise RuntimeError(f"resume template incomplete: {stats}")

    def before_rep(self, out):
        shutil.copytree(self.template, _fresh(out))
        stale = os.path.join(out, f".tmp_part={self.done}")
        os.makedirs(stale)
        with open(os.path.join(stale, "partial.parquet"), "wb") as f:
            f.write(b"PAR1 torn write")

    def run(self, out):
        stats = self._webtext(
            os.path.join(os.path.dirname(self.files[0]), "in_*.parquet"), out)
        return (stats["completed"] * loadgen.WEBTEXT_DOCS_PER_PART,
                stats["completed"] + stats["failed"])

    def failure_counts(self, out):
        return self._failed_partitions(self._manifest(out)[self.done:])

    def warm_failure_counts(self):
        return self._failed_partitions(self._manifest(self.template))

    @staticmethod
    def _failed_partitions(rows: list[dict]) -> tuple[int, int]:
        """(attempted, failed) partitions of a run that raised; the raise
        itself counts as one failure if no partition is marked failed."""
        failed = sum(r["status"] == "failed" for r in rows)
        return max(len(rows), 1), max(failed, 1)

    @staticmethod
    def _manifest(out: str) -> list[dict]:
        path = os.path.join(out, "_manifest.jsonl")
        if not os.path.exists(path):
            return []
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    def actual(self, out):
        return oracle.actual_tiers(out)

    def traced_run(self, tr, out):
        import pdf_extract_ray.state.manifest as manifest

        original = manifest.run_partitioned
        self.stats = {}

        def traced(files, out_dir, pipeline, **kw):
            def timed(fs, tmp):
                with tr.span("pipelines.webtext.partition"):
                    return pipeline(fs, tmp)

            with tr.span("state.manifest.run_partitioned"):
                self.stats = original(files, out_dir, timed, **kw)
            return self.stats

        manifest.run_partitioned = traced
        try:
            with tr.span("pipelines.webtext.webtext_run"):
                return self.run(out)
        finally:
            manifest.run_partitioned = original

    def layers(self, tr, out):
        import pandas as pd

        from pdf_extract_ray.pipelines.webtext import tier_batch
        from pdf_extract_ray.stages.textquality import (
            quality_score_batch,
            repetition_stats_batch,
        )

        df = pd.DataFrame(loadgen.read_rows(self.files))
        with tr.span("stages.textquality.repetition_stats_batch"):
            repetition_stats_batch(df.copy(), "text")
        with tr.span("stages.textquality.quality_score_batch"):
            quality_score_batch(df.copy(), "text")
        with tr.span("pipelines.webtext.tier_batch"):
            tier_batch(df.copy(), "text")
        walls = [r["wall_s"] for r in self._manifest(out)
                 if r["partition_id"] >= self.done and r["status"] == "completed"]
        template_files = set(_parquet_files(self.template))
        m = {
            "stages.textquality.repetition_s": tr.total("stages.textquality.repetition_stats_batch"),
            "stages.textquality.quality_s": tr.total("stages.textquality.quality_score_batch"),
            "pipelines.webtext.tier_s": tr.total("pipelines.webtext.tier_batch"),
            "pipelines.webtext.partition_wall_p50_s": statistics.median(walls),
            "state.manifest.bookkeeping_s": statistics.median(
                tr.self_durations("state.manifest.run_partitioned")),
            "state.manifest.partitions_completed": self.stats["completed"],
            "state.manifest.partitions_skipped": self.stats["skipped"],
            "state.manifest.partitions_failed": self.stats["failed"],
            "raydata.files_written": len(_parquet_files(out)) - len(template_files),
        }
        for tier, n in self.tier_counts.items():
            m[f"pipelines.webtext.tier_rows.{tier}"] = n
        m.update(_read_write_layer(tr, self.files,
                                   os.path.join(self.work_dir, "io_scratch")))
        return m


WORKLOADS = {w.name: w for w in (FusedExtract, StagedMultirowSkew, WebtextResume)}
