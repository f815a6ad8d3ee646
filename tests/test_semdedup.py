"""SemDeDup (stages/semdedup.py): planted semantic duplicates, the
farthest-from-centroid keep rule, determinism under repartition, and the
max_cluster overflow path."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from pdf_extract_ray.stages.semdedup import semantic_dedup, sweep_cluster


def _mk(vectors, ids=None):
    ids = list(range(len(vectors))) if ids is None else ids
    return pd.DataFrame({
        "vec_id": np.asarray(ids, dtype=np.int64),
        "embedding": [np.asarray(v, dtype=np.float32) for v in vectors],
    })


def _planted(n_base=40, dim=16, seed=3, srcs=(0, 7, 19)):
    """A spread-out base set plus near-copies of three of its vectors
    (tiny perturbations -> cosine ~0.999)."""
    rng = np.random.RandomState(seed)
    base = rng.standard_normal((n_base, dim))
    dups, dup_of = [], {}
    next_id = n_base
    for src in srcs:
        for _ in range(2):
            dups.append(base[src] + rng.standard_normal(dim) * 1e-3)
            dup_of[next_id] = src
            next_id += 1
    return _mk(list(base) + dups), dup_of


def test_planted_duplicates_collapse(ray_session):
    df, planted = _planted()
    out = (semantic_dedup(rd.from_pandas(df).repartition(3),
                          threshold=0.95, n_cells=4, max_cluster=512)
           .to_pandas().set_index("vec_id").sort_index())
    assert len(out) == len(df)
    # every planted copy group keeps exactly one member; the rest point
    # their dup_of inside the group
    for src in (0, 7, 19):
        group = [src] + [k for k, v in planted.items() if v == src]
        kept = [g for g in group if out.loc[g, "kept"]]
        assert len(kept) == 1
        for g in group:
            if g not in kept:
                assert out.loc[g, "dup_of"] in group
    # nothing else was dropped: base vectors are well-separated
    others = [i for i in range(len(df))
              if i not in planted and i not in (0, 7, 19)]
    assert out.loc[others, "kept"].all()


def test_keep_rule_farthest_from_centroid(ray_session):
    # two near-identical vectors: the one with LOWER cosine to its
    # centroid (farther out) is swept first and kept
    df, _ = _planted(n_base=12, srcs=(0, 3, 7))
    out = semantic_dedup(rd.from_pandas(df), threshold=0.95,
                         n_cells=2, max_cluster=512).to_pandas()
    dropped = out[~out["kept"]]
    assert len(dropped) > 0
    by_id = out.set_index("vec_id")
    for _, row in dropped.iterrows():
        keeper = by_id.loc[int(row["dup_of"])]
        assert keeper["kept"]
        assert keeper["cluster"] == row["cluster"]
        # the keeper is no closer to the centroid, or ties on cosine and
        # wins by lower id (the frozen sweep order)
        assert (keeper["centroid_cos"] < row["centroid_cos"]
                or (keeper["centroid_cos"] == row["centroid_cos"]
                    and keeper.name < row["vec_id"]))


def test_deterministic_under_repartition(ray_session):
    df, _ = _planted(n_base=60, seed=11)
    runs = [
        semantic_dedup(rd.from_pandas(df).repartition(p),
                       threshold=0.95, n_cells=4)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
        for p in (1, 5)
    ]
    pd.testing.assert_frame_equal(runs[0], runs[1])


def test_max_cluster_overflow_kept(ray_session):
    df, _ = _planted(n_base=30, seed=7)
    out = (semantic_dedup(rd.from_pandas(df), threshold=0.95,
                          n_cells=1, max_cluster=10)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    # rows beyond the cap are kept as-is with the -1 sentinel
    assert len(out) == len(df)
    assert out["kept"].sum() >= len(df) - 10
    assert (out[~out["kept"]]["dup_of"] >= 0).all()
    assert (out[out["kept"]]["dup_of"] == -1).all()


def test_shuffle_input_converts_in_a_fresh_process(ray_session, monkeypatch,
                                                   tmp_path):
    """The bucketed shuffle's pandas body calls ``to_pandas()`` on the
    bucket-tagged Arrow table in whichever worker runs it.  That table
    must convert in a process that never imported Ray's pandas tensor
    module (pandas schema metadata naming Ray's tensor dtype does not)."""
    import pickle
    import subprocess
    import sys

    import pyarrow as pa
    import ray

    from pdf_extract_ray.stages import agg

    captured = {}

    def capture(ds, keys, fn, **kw):
        captured["ds"] = ds
        return ds

    monkeypatch.setattr(agg, "bucketed_group_apply", capture)
    df, _ = _planted(n_base=12, srcs=(0,))
    semantic_dedup(rd.from_pandas(df), threshold=0.95, n_cells=2)
    for i, ref in enumerate(captured["ds"].to_arrow_refs()):
        t = ray.get(ref)
        # what bucketed_group_apply's add_bucket does to each block
        t = t.append_column("__bucket", pa.array([0] * t.num_rows, pa.int64()))
        path = tmp_path / f"tagged{i}.pkl"
        path.write_bytes(pickle.dumps(t))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; "
             "df = pickle.load(open(sys.argv[1], 'rb')).to_pandas(); "
             "print(len(df))", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) == t.num_rows


def test_sweep_cluster_unit():
    # hand-built cluster: ids 1/2 identical, id 3 orthogonal; id 2 is
    # farther from the centroid -> swept first -> kept
    ids = np.array([1, 2, 3], dtype=np.int64)
    vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ccos = np.array([0.9, 0.2, 0.5])
    order, kept, dup_of, n_over = sweep_cluster(ids, vecs, ccos, 0.95, 100)
    assert n_over == 0
    sids = ids[order]
    assert list(sids) == [2, 3, 1]  # centroid_cos asc
    got = dict(zip(sids, zip(kept, dup_of)))
    assert got[2] == (True, -1)
    assert got[3] == (True, -1)
    assert got[1] == (False, 2)


def test_sweep_cluster_dup_of_is_most_similar_kept():
    # a duplicate similar to TWO kept vectors points at the most similar
    ids = np.array([1, 2, 3], dtype=np.int64)
    a = np.array([1.0, 0.0])
    b = np.array([0.8, 0.6])  # cos(a,b) = 0.8 -> both kept at tau 0.95
    c = a + b * 0.01  # cos(c,a) ~ 0.99998 > cos(c,b) ~ 0.806
    vecs = np.stack([c, a, b])
    ccos = np.array([0.9, 0.1, 0.2])  # sweep order: a(2), b(3), c(1)
    order, kept, dup_of, _ = sweep_cluster(ids, vecs, ccos, 0.95, 100)
    got = dict(zip(ids[order], zip(kept, dup_of)))
    assert got[2][0] and got[3][0]
    assert got[1] == (False, 2)  # c is closer to a than to b
