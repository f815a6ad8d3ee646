"""The resumable two-phase and global-pass commands through the real CLI
at one CPU: each runs as ``python -m pdf_extract_ray <cmd> --num-cpus 1``
on a tiny corpus, a re-run skips everything and leaves every output byte
as it was, and ``status`` on the directory exits 0."""

import json
import os
import pathlib
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pairs(src):
    for s in range(2):
        pq.write_table(pa.Table.from_pylist([
            {"doc_id": s * 100 + i, "kr_text": f"문서 {s} 문장 {i}.",
             "en_text": f"document {s} sentence {i}."} for i in range(6)]
            + [{"doc_id": s * 100 + 99, "kr_text": "중복 문장.",
                "en_text": "duplicated sentence."}]), src / f"s{s}.parquet")


def _pages(src):
    for s in range(2):
        pq.write_table(pa.table({
            "url": [f"http://s{s}.example/p"],
            "html": [f'<a href="http://t.example/{s}">x</a>'
                     '<a href="http://t.example/0">y</a>'],
        }), src / f"p{s}.parquet")


def _docs(src):
    for s in range(2):
        pq.write_table(pa.table({
            "doc_id": pa.array(range(s * 20, s * 20 + 20), pa.int64()),
            "text": [f"doc {i}" for i in range(s * 20, s * 20 + 20)],
        }), src / f"d{s}.parquet")


def _snapshots(src):
    for s in range(2):
        pd.DataFrame({
            "url": [f"http://h{i % 3}.example/{i}" for i in range(8)],
            "warc_ts": [pd.Timestamp("2024-01-01") + pd.Timedelta(hours=s)] * 8,
            "text": [f"doc {i}" + (" v2" if s and i % 2 else "")
                     for i in range(8)],
        }).to_parquet(src / f"snap_{s}.parquet", index=False)


def _buckets_skipped(col, n):
    def check(stats):
        assert stats[f"{col}s_completed"] == 0 and stats[f"{col}s_skipped"] == n
    return check


def _global_skipped(stats):
    assert stats["global"] == "skipped"


# command: (corpus writer, flags, check of the re-run's stats, partition
# id of the row status lists under "phases")
CASES = {
    "quality": (_pairs, ["--global-dedup"], _global_skipped, -1),
    "linkgraph": (_pages, ["--pagerank-iters", "2"], _global_skipped, -1),
    "shards": (_docs, ["--n-shards", "4"], _buckets_skipped("shard", 4), -2),
    "history": (_snapshots, ["--n-buckets", "3"],
                _buckets_skipped("bucket", 3), -2),
}


def _cli(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, "-m", "pdf_extract_ray", *args], cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": REPO})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in pathlib.Path(root).rglob("*") if p.is_file()}


@pytest.mark.parametrize("cmd", sorted(CASES))
def test_command_resumes_at_one_cpu(tmp_path, cmd):
    write, flags, skipped, phase_id = CASES[cmd]
    src = tmp_path / "in"
    src.mkdir()
    write(src)
    out = str(tmp_path / "out")
    run = [cmd, "--input", str(src / "*.parquet"), "--out", out,
           "--num-cpus", "1", "--files-per-partition", "1", *flags]

    first = _cli(tmp_path, *run)["run"]
    assert first["completed"] == 2 and first["failed"] == 0
    before = _tree(out)
    again = _cli(tmp_path, *run)["run"]
    assert again["completed"] == 0 and again["skipped"] == 2
    skipped(again)
    assert _tree(out) == before

    report = _cli(tmp_path, "status", "--out", out)
    assert report["failed"] == []
    assert [r["partition_id"] for r in report["phases"]] == [phase_id]
