"""Global-shuffle shard writer (pipelines/shards.py): deterministic
hash-rank permutation into shard=NNNN dirs, two resumable phases."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_extract_ray.pipelines.shards import (
    assign_shard_batch,
    permutation_reference,
    shard_bounds,
    shard_oracle_sql,
    shards_run,
)


def _write_corpus(src, n_docs=200, files=5):
    """ids deliberately written out of order across files."""
    src.mkdir()
    ids = np.arange(n_docs)
    rng = np.random.RandomState(7)
    rng.shuffle(ids)
    per = n_docs // files
    for f in range(files):
        chunk = ids[f * per:(f + 1) * per]
        pq.write_table(pa.table({
            "doc_id": pa.array(chunk, pa.int64()),
            "text": pa.array([f"text {i}" for i in chunk], pa.string()),
        }), src / f"c{f}.parquet")
    return ids


def _read_permutation(out):
    """ids in shard order, files within a shard in name order."""
    got = []
    for sd in sorted(glob.glob(os.path.join(out, "shard=*"))):
        for f in sorted(glob.glob(os.path.join(sd, "*.parquet"))):
            got.extend(pq.read_table(f, columns=["doc_id"])
                       .column("doc_id").to_pylist())
    return got


@pytest.mark.parametrize("method", ["md5", "fast"])
def test_distributed_permutation_equals_reference(ray_session, tmp_path,
                                                  method):
    src = tmp_path / "corpus"
    _write_corpus(src)
    out = str(tmp_path / f"out_{method}")
    stats = shards_run(str(src / "*.parquet"), out, n_shards=4,
                       method=method, files_per_partition=2,
                       min_rows_per_file=1_000)
    assert stats["shards_completed"] == 4
    assert _read_permutation(out) == permutation_reference(
        range(200), n_shards=4, method=method)
    # the permutation is non-trivial and covers everything exactly once
    got = _read_permutation(out)
    assert sorted(got) == list(range(200)) and got != list(range(200))
    # helper columns do not leak into the output
    f0 = sorted(glob.glob(os.path.join(out, "shard=*", "*.parquet")))[0]
    assert set(pq.read_schema(f0).names) == {"doc_id", "text"}


def test_resume_skips_everything(ray_session, tmp_path):
    src = tmp_path / "corpus"
    _write_corpus(src, n_docs=60, files=3)
    out = str(tmp_path / "out")
    shards_run(str(src / "*.parquet"), out, n_shards=4,
               files_per_partition=1, min_rows_per_file=1_000,
               keep_tag_dir=True)
    stats = shards_run(str(src / "*.parquet"), out, n_shards=4,
                       files_per_partition=1, min_rows_per_file=1_000)
    assert stats["skipped"] == 3 and stats["completed"] == 0
    assert stats["shards_skipped"] == 4 and stats["shards_completed"] == 0


def test_interrupted_merge_resumes_identically(ray_session, tmp_path):
    src = tmp_path / "corpus"
    _write_corpus(src, n_docs=80, files=2)
    ref_out = str(tmp_path / "ref")
    shards_run(str(src / "*.parquet"), ref_out, n_shards=4,
               files_per_partition=1, min_rows_per_file=1_000)
    ref = _read_permutation(ref_out)

    out = str(tmp_path / "out")
    import pdf_extract_ray.state.manifest as mm

    calls = {"n": 0}
    orig = mm.Manifest.append

    def exploding(self, result):
        orig(self, result)
        calls["n"] += 1
        # 2 tag partitions + 1 merged shard, then crash
        if calls["n"] == 3:
            raise KeyboardInterrupt

    mm.Manifest.append = exploding
    try:
        with pytest.raises(KeyboardInterrupt):
            shards_run(str(src / "*.parquet"), out, n_shards=4,
                       files_per_partition=1, min_rows_per_file=1_000)
    finally:
        mm.Manifest.append = orig

    stats = shards_run(str(src / "*.parquet"), out, n_shards=4,
                       files_per_partition=1, min_rows_per_file=1_000)
    assert stats["skipped"] == 2          # tag partitions already done
    assert stats["shards_skipped"] == 1   # the shard that committed
    assert stats["shards_completed"] == 3
    assert _read_permutation(out) == ref
    # tag dir cleaned up after full completion
    assert not os.path.exists(os.path.join(out, "_tag"))


def test_changed_n_shards_invalidates_tag_pass(ray_session, tmp_path):
    src = tmp_path / "corpus"
    _write_corpus(src, n_docs=40, files=2)
    out = str(tmp_path / "out")
    shards_run(str(src / "*.parquet"), out, n_shards=2,
               files_per_partition=1, min_rows_per_file=1_000)
    stats = shards_run(str(src / "*.parquet"), out, n_shards=4,
                       files_per_partition=1, min_rows_per_file=1_000)
    # different n_shards = different stage_versions: nothing skips
    assert stats["completed"] == 2 and stats["shards_completed"] == 4
    assert _read_permutation(out) == permutation_reference(
        range(40), n_shards=4, method="fast")  # shards_run default


def test_switching_back_redoes_a_replaced_run(ray_session, tmp_path):
    """A finished run's marker does not outlive its shards: after a run
    under another method replaced them, switching back redoes them."""
    src = tmp_path / "corpus"
    _write_corpus(src, n_docs=40, files=2)
    out = str(tmp_path / "out")

    def run(method):
        return shards_run(str(src / "*.parquet"), out, n_shards=2,
                          method=method, files_per_partition=1,
                          min_rows_per_file=1_000)

    run("fast")
    run("md5")
    assert run("fast")["shards_completed"] == 2
    assert _read_permutation(out) == permutation_reference(
        range(40), n_shards=2, method="fast")
    assert _read_permutation(out) != permutation_reference(
        range(40), n_shards=2, method="md5")


def test_mostly_empty_shards_complete(ray_session, tmp_path):
    src = tmp_path / "corpus"
    src.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64())}),
                   src / "c.parquet")
    out = str(tmp_path / "out")
    stats = shards_run(str(src / "*.parquet"), out, n_shards=16,
                       files_per_partition=1, min_rows_per_file=1)
    assert stats["shards_completed"] == 16
    assert len(glob.glob(os.path.join(out, "shard=*"))) == 16
    assert sorted(_read_permutation(out)) == [1, 2, 3]


def test_shard_bounds_and_batch_assignment_agree_with_sql():
    import duckdb

    ids = list(range(500))
    got = assign_shard_batch(pd.DataFrame({"doc_id": ids}), n_shards=16)
    con = duckdb.connect()
    exp = con.sql(shard_oracle_sql(
        "SELECT unnest(range(500)) AS doc_id")).df()
    assert list(got["shard"]) == list(exp["shard"])
    assert list(got["_shard_key"]) == list(exp["_shard_key"])
    # bounds are monotonically increasing 8-hex strings + sentinel
    b = shard_bounds(16)
    assert b[:-1] == sorted(b[:-1]) and b[-1] == "gggggggg"


def test_fast_method_is_parallelism_independent():
    df = pd.DataFrame({"doc_id": np.arange(1000)})
    a = assign_shard_batch(df, n_shards=8, method="fast")
    parts = [assign_shard_batch(c, n_shards=8, method="fast")
             for _, c in df.groupby(df.index // 100)]
    b = pd.concat(parts)
    assert list(a["shard"]) == list(b["shard"])
    assert list(a["_shard_key"]) == list(b["_shard_key"])


def test_shard_bounds_sql_parity_non_power_of_two():
    # round-4 ADVICE: floor-division bounds disagreed with the engine's
    # `prefix * n // 2^32` rule whenever n_shards does not divide 16^8;
    # ceil bounds are exact for every n.
    import duckdb

    for n in (10, 7, 12):
        ids = list(range(400))
        got = assign_shard_batch(pd.DataFrame({"doc_id": ids}),
                                 n_shards=n)
        con = duckdb.connect()
        exp = con.sql(shard_oracle_sql(
            "SELECT unnest(range(400)) AS doc_id", n_shards=n)).df()
        assert list(got["shard"]) == list(exp["shard"]), f"n_shards={n}"
        b = shard_bounds(n)
        assert b[:-1] == sorted(b[:-1]) and b[-1] == "gggggggg"


def test_shard_bounds_boundary_prefix_non_dividing():
    # the exact failure shape from the ADVICE: a key whose 8-hex prefix
    # equals floor((s+1)*2^32/n) must be shard s on BOTH sides when n
    # does not divide 2^32 (engine: 429496729*10 // 2^32 == 0)
    n = 10
    prefix = (16 ** 8) // n          # floor bound for shard 0
    assert (prefix * n) // (16 ** 8) == 0   # engine says shard 0
    b = shard_bounds(n)
    key = format(prefix, "08x") + "00000000"
    assert key[:8] < b[0], "ceil bound must place the boundary key in shard 0"
