"""Self-tests of the benchmark's checks; no Ray session needed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(BENCH_DIR), BENCH_DIR]

import loadgen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, WebtextResume, Workload  # noqa: E402


class FakeExtract(Workload):
    """Writes the reference texts, optionally corrupting or failing."""

    name = "fake"

    def __init__(self, texts: dict, tmp, corrupt=None, fail=False):
        super().__init__([], {"digests": {u: oracle.digest(t) for u, t in texts.items()}},
                         str(tmp))
        self.texts, self.corrupt, self.fail = texts, corrupt, fail

    def warm(self):
        self.run(str(self.work_dir) + "/warm")

    def run(self, out):
        if self.fail:
            raise RuntimeError("pipeline exploded")
        os.makedirs(out)
        urls = list(self.texts)
        texts = [self.texts[u] + ("!" if u == self.corrupt else "") for u in urls]
        pq.write_table(pa.table({"url": urls, "extracted_text": texts}),
                       os.path.join(out, "part.parquet"))
        return len(urls), 1


TEXTS = {f"https://x.example/{i}": f"Sentence number {i}." for i in range(8)}


def test_clean_output_has_no_mismatch(tmp_path):
    tally = run.Tally()
    tally.rep(FakeExtract(TEXTS, tmp_path), str(tmp_path / "out"))
    assert (tally.mismatch_frac, tally.error_rate, tally.attempted) == (0, 0, 1)


def test_corrupted_row_makes_mismatch_frac_positive(tmp_path):
    tally = run.Tally()
    tally.rep(FakeExtract(TEXTS, tmp_path, corrupt="https://x.example/3"),
              str(tmp_path / "out"))
    assert tally.mismatch_frac == pytest.approx(1 / len(TEXTS))
    assert tally.failed == 0


def test_raised_pipeline_exception_counts_into_error_rate(tmp_path):
    tally = run.Tally()
    tally.rep(FakeExtract(TEXTS, tmp_path, fail=True), str(tmp_path / "out"))
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 1, 1.0)
    assert tally.mismatch_frac == 1.0  # every expected url is missing
    assert tally.rates == []
    assert tally.timed_s > 0  # a failing rep still uses up the run's time


class NoProcesses:
    """Stands in for the run's process group: sampling sees no processes."""

    def pss_mb(self):
        return 1.0


def test_pipeline_failing_from_the_warm_run_counts_into_error_rate(tmp_path, capsys):
    """A pipeline that always raises fails in the untimed warm run, before
    any timed rep: the run still ends with counts, and no timed rep runs."""
    tally, metrics = run.run_untraced(FakeExtract(TEXTS, tmp_path, fail=True), 1.0,
                                      nullcontext, 0.0, NoProcesses())
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 1, 1.0)
    assert tally.mismatch_frac == 1.0
    assert tally.rates == [] and tally.timed_s == 0
    assert metrics["docs_per_s"] == 0.0
    assert "pipeline exploded" in capsys.readouterr().err


def test_failed_webtext_warm_run_counts_its_failed_partitions(tmp_path):
    wl = WebtextResume([], {"digests": {}}, str(tmp_path))
    os.makedirs(wl.template)
    rows = [{"partition_id": 0, "status": "completed"},
            {"partition_id": 1, "status": "failed"},
            {"partition_id": 2, "status": "failed"}]
    with open(os.path.join(wl.template, "_manifest.jsonl"), "w") as f:
        f.write("".join(json.dumps(r) + "\n" for r in rows))
    assert wl.warm_failure_counts() == (3, 2)


def test_missing_extra_and_duplicate_urls_count():
    exp = {"a": "1", "b": "2", "c": "3"}
    assert oracle.count_mismatches(exp, [("a", "1"), ("b", "2"), ("c", "3")]) == 0
    assert oracle.count_mismatches(exp, [("a", "1"), ("b", "2")]) == 1
    assert oracle.count_mismatches(exp, [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]) == 1
    assert oracle.count_mismatches(exp, [("a", "1"), ("a", "1"), ("b", "2"), ("c", "3")]) == 1


def test_failed_partitions_come_from_the_manifest(tmp_path):
    wl = WebtextResume([], {"digests": {}}, str(tmp_path))
    rows = [{"partition_id": i, "status": "completed"} for i in range(wl.done + 2)]
    rows.append({"partition_id": wl.done + 2, "status": "failed"})
    (tmp_path / "_manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert wl.failure_counts(str(tmp_path)) == (3, 1)


def test_generator_is_seeded():
    for w in ("fused_extract", "staged_multirow_skew", "webtext_resume"):
        a = loadgen.workload_rows(w, 5)
        assert a == loadgen.workload_rows(w, 5)
        assert a != loadgen.workload_rows(w, 6)


def test_multirow_reference_matches_row_by_row_reassembly():
    """The staged reference concatenates a document's rows before parsing;
    the staged plan parses rows one by one and reassembles their blocks.
    The generator's fragments must make the two agree."""
    from pdf_extract_ray.config import DEFAULT_CONFIG as cfg
    from pdf_extract_ray.pipelines.extract import document_blocks, sentences_from_blocks
    from pdf_extract_ray.stages.assemble import assemble_sentences

    rows = [r for d in range(loadgen.STAGED_HOT_URLS + 40)
            for r in loadgen.staged_rows(3, d)]
    expected = oracle.expected_extract(rows)
    for doc in oracle.merge_multirow(rows):
        parts = sorted((r for r in rows if r["url"] == doc["url"]),
                       key=lambda r: r["warc_ts"])
        blocks = [b for r in parts for b in document_blocks(r["html"], None, cfg)[0]]
        text, _, _ = assemble_sentences(sentences_from_blocks(blocks, cfg))
        assert oracle.digest(text) == expected[doc["url"]]


def test_webtext_inputs_reach_every_tier():
    rows = [r for f in loadgen.workload_rows("webtext_resume", 1)[:2] for r in f]
    _, counts = oracle.expected_tiers(rows)
    assert all(counts[t] > 0 for t in oracle.TIERS), counts


def test_self_time_subtracts_children():
    tr = Tracer("w")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    st = tr.self_times()
    outer = tr.total("outer")
    assert st["outer"] == pytest.approx(outer - tr.total("inner"))
    assert st["inner"] == pytest.approx(tr.total("inner"))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_process_group_tells_a_reused_pid_from_its_first_owner():
    import subprocess

    import raysession

    group = raysession.ProcessGroup()
    env = dict(os.environ)
    marked = subprocess.Popen(["sleep", "30"],
                              env={**env, raysession.MARKER: group.token})
    other = subprocess.Popen(["sleep", "30"], env=env)
    try:
        # a verdict cached for an earlier process under other's pid
        group._known[(other.pid, b"0")] = True
        members = group.members()
        assert marked.pid in members and other.pid not in members
    finally:
        for p in (marked, other):
            p.kill()
            p.wait()
    assert group.members() == []


def test_stop_signals_processes_that_outlive_their_session():
    import subprocess

    import raysession

    group = raysession.ProcessGroup()
    env = {**os.environ, raysession.MARKER: group.token}
    ignores_term = ("import signal, time; "
                    "signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(30)")
    procs = [subprocess.Popen(["sleep", "30"], env=env),
             subprocess.Popen([sys.executable, "-c", ignores_term], env=env)]
    try:
        assert sorted(group.members()) == sorted(p.pid for p in procs)
        group.stop(grace_s=0.5, term_s=1.0)
        # stop() has collected both children: SIGTERM ended one, SIGKILL the other
        assert group.members() == [] and group.left_running == []
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
