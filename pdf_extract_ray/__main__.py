"""Operational CLI — the engine's analogue of the reference's cli.py surface
(process file/folder, resume, retry-failed, status reporting;
reference: cli.py:113-361, SURVEY.md §3.1-3.2).

    python -m pdf_extract_ray extract  --input 'pages/*.parquet' --out out/ \
        [--plan fused|staged] [--rule-pack default] [--files-per-partition 8]
        (pages: url plus pdf bytes, html or text; lang, warc_ts optional)
    python -m pdf_extract_ray quality  --input 'pairs/*.parquet' --out out/ \
        [--no-dedup] [--global-dedup]
    python -m pdf_extract_ray status   --out out/
    python -m pdf_extract_ray retry-failed --input 'pages/*.parquet' --out out/ \
        [--plan fused|staged] [--rule-pack default]

`extract` is resumable: re-running skips manifested partitions.
`retry-failed` clears failed manifest rows of an `extract` run and
re-runs only those; it refuses a directory another pipeline wrote.
`status` refuses (exit 2) a directory that holds no run manifest.
A command starts a Ray session when none is running and shuts down only
a session it started; library code never calls ray.init().
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys


@contextlib.contextmanager
def _ray_session(num_cpus: int | None):
    import ray
    import ray.data as rd

    started = not ray.is_initialized()
    if started:
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    rd.DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        if started:
            ray.shutdown()


def cmd_extract(args) -> int:
    from pdf_extract_ray.config import get_rule_pack
    from pdf_extract_ray.pipelines.runner import extract_run

    with _ray_session(args.num_cpus):
        stats = extract_run(
            args.input, args.out, get_rule_pack(args.rule_pack),
            plan=args.plan, files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def cmd_quality(args) -> int:
    from pdf_extract_ray.pipelines.runner import quality_run

    with _ray_session(args.num_cpus):
        stats = quality_run(
            args.input, args.out, dedup=not args.no_dedup,
            global_dedup=args.global_dedup,
            files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def cmd_webtext(args) -> int:
    from pdf_extract_ray.pipelines.webtext import webtext_run

    with _ray_session(args.num_cpus):
        stats = webtext_run(
            args.input, args.out, keep_rejects=args.keep_rejects,
            split_by_lang=args.split_by_lang,
            per_lang_rules=args.per_lang_rules,
            c4_rules=args.c4_rules,
            blocked_hosts=(args.blocked_hosts.split(",")
                           if args.blocked_hosts else None),
            blocked_patterns=[p for p in args.blocked_patterns.split(",")
                              if p],
            drop_trap_urls=args.drop_trap_urls,
            fix_mojibake=args.fix_mojibake,
            dedup_doc_lines=args.dedup_doc_lines,
            lm_model=_maybe_train_lm(args.lm_train_glob),
            lm_tail_min=args.lm_tail_min,
            banned_words=(args.banned_words.split(",")
                          if args.banned_words else None),
            banned_phrases=[p for p in args.banned_phrases.split("|")
                            if p],
            files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def _maybe_train_lm(train_glob: str | None):
    """Train the CCNet-style reference bigram LM from a trusted parquet
    slice (the --lm-train-glob contract: a text column) for the
    perplexity gate; None when the gate is off."""
    if not train_glob:
        return None
    import ray.data as rd

    from pdf_extract_ray.stages.lm import train_bigram_lm

    return train_bigram_lm(rd.read_parquet(train_glob))


def cmd_linkgraph(args) -> int:
    from pdf_extract_ray.pipelines.linkgraph import links_run

    with _ray_session(args.num_cpus):
        stats = links_run(
            args.input, args.out, respect_robots=args.respect_robots,
            pagerank_iters=args.pagerank_iters,
            files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def cmd_shards(args) -> int:
    from pdf_extract_ray.pipelines.shards import shards_run

    with _ray_session(args.num_cpus):
        stats = shards_run(
            args.input, args.out, id_col=args.id_col,
            n_shards=args.n_shards, method=args.method,
            files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def cmd_history(args) -> int:
    from pdf_extract_ray.pipelines.history import history_run

    with _ray_session(args.num_cpus):
        stats = history_run(
            args.input, args.out, url_col=args.url_col,
            ts_col=args.ts_col, content_col=args.content_col,
            method=args.method, n_buckets=args.n_buckets,
            files_per_partition=args.files_per_partition,
        )
        print(json.dumps({"run": stats}))
        return 0


def cmd_export(args) -> int:
    """Export parquet shards to an interchange format (jsonl[.gz] /
    wet[.gz]) — distributed sinks, content-named atomic files."""
    with _ray_session(args.num_cpus):
        import glob as _glob

        import ray.data as rd

        files = sorted(_glob.glob(args.input)) or [args.input]
        ds = rd.read_parquet(files)
        if args.columns:
            ds = ds.select_columns(args.columns.split(","))
        if args.format == "jsonl":
            from pdf_extract_ray.sources.jsonl import write_jsonl

            manifest = write_jsonl(ds, args.out,
                                   compress=not args.no_compress)
        else:
            from pdf_extract_ray.sources.warc import write_wet

            manifest = write_wet(ds, args.out,
                                 url_col=args.url_col,
                                 ts_col=args.ts_col,
                                 text_col=args.text_col,
                                 compress=not args.no_compress)
        rows = int(sum(manifest.column("n_records").to_pylist()))
        print(json.dumps({"files": manifest.num_rows, "rows": rows,
                          "out": args.out}))
        return 0


def cmd_status(args) -> int:
    """Roll up the manifest of a run directory; a directory with no
    manifest is refused (exit 2), so a mistyped ``--out`` never reads
    as an empty, healthy run.  ``rollup``, ``rows_total`` and
    ``mean_rows_per_s`` count partition rows only; the rows of negative
    partition ids (a global pass, a run-complete marker) are listed
    under ``phases``."""
    from collections import Counter

    from pdf_extract_ray.state.manifest import Manifest

    path = os.path.join(args.out, "_manifest.jsonl")
    if not os.path.exists(path):
        print(f"status: no run manifest at {path}", file=sys.stderr)
        return 2
    rows = Manifest(path).read()
    parts = [r for r in rows if r["partition_id"] >= 0]
    completed = [r for r in parts if r["status"] == "completed"]
    print(json.dumps({
        "rollup": dict(Counter(r["status"] for r in parts)),
        "rows_total": sum(r["n_rows"] for r in completed),
        "mean_rows_per_s": round(
            sum(r["rows_per_s"] for r in completed) / len(completed), 1
        ) if completed else 0.0,
        "failed": [{"partition_id": r["partition_id"], "error": r.get("error")}
                   for r in rows if r["status"] == "failed"],
        "phases": [{"partition_id": r["partition_id"],
                    "phase": (r.get("stage_versions") or {}).get("phase"),
                    "status": r["status"], "n_rows": r["n_rows"]}
                   for r in rows if r["partition_id"] < 0],
    }))
    return 0


def cmd_retry_failed(args) -> int:
    """Drop failed rows from the manifest, then re-run (only those
    partitions execute — completed ones stay manifested).  Only an
    ``extract`` run directory can be retried this way: the re-run is an
    extraction, and under another pipeline's stage versions it would
    treat every partition as stale and overwrite it."""
    from pdf_extract_ray.state.manifest import Manifest

    path = os.path.join(args.out, "_manifest.jsonl")
    m = Manifest(path)
    rows = m.read()
    foreign = sorted({(r.get("stage_versions") or {})["pipeline"]
                      for r in rows
                      if "pipeline" in (r.get("stage_versions") or {})})
    if foreign:
        print(f"retry-failed: {args.out} holds {'/'.join(foreign)} output, "
              "not extract output; re-run that pipeline's command to "
              "resume it", file=sys.stderr)
        return 2
    failed_ids = {r["partition_id"] for r in rows if r["status"] == "failed"}
    if failed_ids:
        keep = [r for r in rows if r["partition_id"] not in failed_ids
                or r["status"] == "completed"]
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            for r in keep:
                f.write(json.dumps(r) + "\n")
        os.replace(tmp, path)
    return cmd_extract(args)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pdf_extract_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, with_input=True, input_help="glob of input parquet shards"):
        if with_input:
            sp.add_argument("--input", required=True, help=input_help)
            sp.add_argument("--files-per-partition", type=int, default=8)
            sp.add_argument("--num-cpus", type=int, default=None)
        sp.add_argument("--out", required=True, help="output directory")

    def add_extract(sp):
        add_common(sp, input_help=(
            "glob of input parquet page shards: url plus any of pdf (bytes), "
            "html and text; a row's first source that yields blocks, in that "
            "order, gives its status pdf|html|fallback, else rejected"))
        sp.add_argument("--plan", default="fused",
                        choices=["fused", "staged"])
        sp.add_argument("--rule-pack", default="default")

    add_extract(sub.add_parser("extract", help="run/resume an extraction"))
    qp = sub.add_parser("quality", help="run/resume the composed quality pass")
    add_common(qp)
    qp.add_argument("--no-dedup", action="store_true",
                    help="skip the per-partition exact dedup")
    qp.add_argument("--global-dedup", action="store_true",
                    help="add a final cross-partition exact dedup pass "
                         "into out/global/ (manifest-recorded, resume-safe)")
    wp = sub.add_parser("webtext", help="run/resume webtext tier extraction")
    add_common(wp)
    wp.add_argument("--keep-rejects", action="store_true",
                    help="also write the reject_* tiers to disk")
    wp.add_argument("--split-by-lang", action="store_true",
                    help="partition output by lang_id_v2 as well as tier")
    wp.add_argument("--per-lang-rules", action="store_true",
                    help="gate tier1 on each document's own language's "
                         "stop profile (stages/langquality.py)")
    wp.add_argument("--c4-rules", action="store_true",
                    help="fuse C4 line/page cleaning in front of tiering "
                         "(stages/c4.py)")
    wp.add_argument("--blocked-hosts", default=None,
                    help="comma-separated host blocklist applied to the "
                         "url column before any content work "
                         "(stages/urlfilter.py; subdomains match)")
    wp.add_argument("--blocked-patterns", default="",
                    help="comma-separated url substring blocklist")
    wp.add_argument("--drop-trap-urls", action="store_true",
                    help="gate out crawler-trap urls (repeated path "
                         "segments / depth / param explosions; "
                         "stages/urlfilter.url_trap_signals)")
    wp.add_argument("--fix-mojibake", action="store_true",
                    help="repair UTF-8-as-cp1252 mojibake in the text "
                         "column (stages/mojibake.py)")
    wp.add_argument("--banned-words", default=None,
                    help="comma-separated banned words (exact-token "
                         "hits drop the document)")
    wp.add_argument("--banned-phrases", default="",
                    help="|-separated banned literal phrases")
    wp.add_argument("--lm-train-glob", default=None,
                    help="parquet glob of trusted text to train the "
                         "reference bigram LM; enables the CCNet "
                         "perplexity gate")
    wp.add_argument("--lm-tail-min", type=float, default=None,
                    help="perplexity tail threshold for the gate "
                         "(default: lm.DEFAULT_TAIL_MIN)")
    wp.add_argument("--dedup-doc-lines", action="store_true",
                    help="remove within-document repeated lines "
                         "(keep-first; stages/boilerplate.py)")
    ex = sub.add_parser(
        "export", help="export parquet shards to jsonl[.gz] / wet[.gz]")
    ex.add_argument("--input", required=True,
                    help="input parquet glob")
    ex.add_argument("--out", required=True, help="output directory")
    ex.add_argument("--format", choices=("jsonl", "wet"),
                    default="jsonl")
    ex.add_argument("--columns", default=None,
                    help="comma-separated column projection")
    ex.add_argument("--url-col", default="url")
    ex.add_argument("--ts-col", default="warc_ts")
    ex.add_argument("--text-col", default="text")
    ex.add_argument("--no-compress", action="store_true")
    ex.add_argument("--num-cpus", type=int, default=None)
    lg = sub.add_parser("linkgraph", help="run/resume host link-graph extraction")
    add_common(lg)
    lg.add_argument("--respect-robots", action="store_true",
                    help="drop edges from robots-nofollow pages")
    lg.add_argument("--pagerank-iters", type=int, default=0,
                    help="if >0, also write pagerank.parquet over the global graph")
    sh = sub.add_parser(
        "shards", help="run/resume the global-permutation shard writer")
    add_common(sh)
    sh.add_argument("--id-col", default="doc_id")
    sh.add_argument("--n-shards", type=int, default=16)
    sh.add_argument("--method", default="fast", choices=["md5", "fast"],
                    help="hash family for the permutation key (md5 = "
                         "SQL-parity oracle mode; fast = vectorized)")
    hi = sub.add_parser(
        "history", help="run/resume the SCD-2 url version-history build")
    add_common(hi)
    hi.add_argument("--url-col", default="url")
    hi.add_argument("--ts-col", default="warc_ts")
    hi.add_argument("--content-col", default="text")
    hi.add_argument("--n-buckets", type=int, default=64)
    hi.add_argument("--method", default="fast", choices=["md5", "fast"],
                    help="content-hash family (md5 = SQL-parity mode; "
                         "fast = vectorized)")
    add_common(sub.add_parser("status", help="manifest rollup"), with_input=False)
    add_extract(sub.add_parser("retry-failed", help="re-run failed partitions"))

    args = p.parse_args(argv)
    return {"extract": cmd_extract, "quality": cmd_quality,
            "webtext": cmd_webtext, "linkgraph": cmd_linkgraph,
            "shards": cmd_shards, "history": cmd_history,
            "status": cmd_status, "retry-failed": cmd_retry_failed,
            "export": cmd_export}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
