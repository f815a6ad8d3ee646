"""PageRank (stages/pagerank.py): closed-form cases, dangling mass,
weights, early stop, and distributed == dense-numpy reference."""

import numpy as np
import pandas as pd
import pytest

from pdf_extract_ray.stages.pagerank import pagerank, pagerank_reference


def test_two_node_cycle_symmetric():
    e = pd.DataFrame({"src_host": ["a", "b"], "dst_host": ["b", "a"]})
    r = pagerank_reference(e)
    assert list(r["rank"]) == [0.5, 0.5]


def test_ranks_sum_to_one_with_dangling():
    # b has no outlinks: its mass redistributes uniformly
    e = pd.DataFrame({"src_host": ["a", "a", "c"],
                      "dst_host": ["b", "c", "b"]})
    r = pagerank_reference(e)
    assert abs(r["rank"].sum() - 1.0) < 1e-6
    # b receives from both a (split) and c (full): ranks strictly ordered
    ranks = dict(zip(r["node"], r["rank"]))
    assert ranks["b"] > ranks["c"] > 0


def test_star_center_dominates():
    leaves = [f"l{i}" for i in range(8)]
    e = pd.DataFrame({"src_host": leaves + ["hub"] * 8,
                      "dst_host": ["hub"] * 8 + leaves})
    r = pagerank_reference(e)
    ranks = dict(zip(r["node"], r["rank"]))
    assert ranks["hub"] == max(r["rank"])
    leaf_ranks = {v for k, v in ranks.items() if k != "hub"}
    assert len(leaf_ranks) == 1  # symmetric leaves tie exactly


def test_weights_shift_mass():
    e = pd.DataFrame({"src_host": ["a", "a"], "dst_host": ["b", "c"],
                      "n_links": [9, 1]})
    r = pagerank_reference(e, weight_col="n_links")
    ranks = dict(zip(r["node"], r["rank"]))
    assert ranks["b"] > ranks["c"]


def test_early_stop_matches_full_run():
    e = pd.DataFrame({"src_host": ["a", "b"], "dst_host": ["b", "a"]})
    fast = pagerank_reference(e, n_iter=500, tol=1e-12)
    slow = pagerank_reference(e, n_iter=500, tol=None)
    pd.testing.assert_frame_equal(fast, slow)


def test_empty_edges():
    e = pd.DataFrame({"src_host": [], "dst_host": []})
    assert len(pagerank_reference(e)) == 0


def test_distributed_matches_reference(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    hosts = [f"h{i}.example" for i in range(40)]
    e = pd.DataFrame({
        "src_host": rng.choice(hosts, 400),
        "dst_host": rng.choice(hosts, 400),
    })
    e["n_links"] = rng.integers(1, 5, size=len(e))
    for wcol in (None, "n_links"):
        dist = pagerank(rd.from_pandas(e).repartition(6), weight_col=wcol)
        ref = pagerank_reference(e, weight_col=wcol)
        pd.testing.assert_frame_equal(
            dist.reset_index(drop=True), ref.reset_index(drop=True))


def test_hits_matches_reference(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.pagerank import hits, hits_reference

    rng = np.random.default_rng(8)
    hosts = [f"h{i}" for i in range(20)]
    e = pd.DataFrame({
        "src_host": rng.choice(hosts, 90),
        "dst_host": rng.choice(hosts, 90),
    })
    # a pure-sink node (authority only) and a pure-source node (hub only)
    e.loc[len(e)] = ["h0", "sink"]
    e.loc[len(e)] = ["source", "h1"]
    dist = (hits(rd.from_pandas(e).repartition(4), n_iter=12)
            .sort_values("node").reset_index(drop=True))
    ref = (hits_reference(e, n_iter=12)
           .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(dist, ref)
    assert ref.loc[ref.node == "sink", "hub"].iloc[0] == 0.0
    assert ref.loc[ref.node == "source", "authority"].iloc[0] == 0.0


def test_hits_empty():
    from pdf_extract_ray.stages.pagerank import hits_reference

    out = hits_reference(pd.DataFrame({"src_host": [], "dst_host": []}))
    assert len(out) == 0 and list(out.columns) == ["node", "hub",
                                                   "authority"]


def _bfs_reference(edges, seeds, max_depth):
    from collections import deque

    adj = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    depth = {s: 0 for s in seeds}
    q = deque(seeds)
    while q:
        n = q.popleft()
        if depth[n] >= max_depth:
            continue
        for m in adj.get(n, []):
            if m not in depth:
                depth[m] = depth[n] + 1
                q.append(m)
    return depth


def test_bfs_depth_matches_reference_and_sql(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.graph import bfs_depth, bfs_depth_oracle_sql

    rng = np.random.default_rng(37)
    e = pd.DataFrame({
        "src": rng.integers(0, 60, 300).astype("int64"),
        "dst": rng.integers(0, 60, 300).astype("int64"),
    })
    seeds = [0, 7]
    for md in (0, 1, 3):
        got = (bfs_depth(rd.from_pandas(e).repartition(4), seeds,
                         max_depth=md)
               .to_pandas().sort_values("node").reset_index(drop=True))
        # broadcast visited mode: identical result, one less shuffle
        got_b = (bfs_depth(rd.from_pandas(e).repartition(4), seeds,
                           max_depth=md, visited_mode="broadcast")
                 .to_pandas().sort_values("node").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, got_b)
        ref = _bfs_reference(list(zip(e["src"], e["dst"])), seeds, md)
        want = (pd.DataFrame(sorted(ref.items()),
                             columns=["node", "depth"])
                .astype("int64"))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        con = duckdb.connect()
        con.register("e", e)
        sql = bfs_depth_oracle_sql("SELECT * FROM e", seeds, max_depth=md)
        want_sql = (con.sql(sql).df()
                    .sort_values("node").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)
    with pytest.raises(ValueError):
        bfs_depth(rd.from_pandas(e), [], max_depth=2)


# --- TrustRank (seeded teleport) -------------------------------------------

def _chain_edges():
    # seeds -> good -> better; spam island links only to itself
    return pd.DataFrame({
        "src_host": ["seed", "seed", "good", "spam1", "spam2"],
        "dst_host": ["good", "better", "better", "spam2", "spam1"],
    })


def test_trustrank_spam_island_gets_zero():
    r = pagerank_reference(_chain_edges(), teleport={"seed": 1.0},
                           n_iter=30, tol=None)
    t = dict(zip(r["node"], r["rank"]))
    # no seed reaches the spam island: exactly zero trust
    assert t["spam1"] == 0.0 and t["spam2"] == 0.0
    assert t["seed"] > 0 and t["good"] > 0 and t["better"] > 0
    assert abs(sum(t.values()) - 1.0) < 1e-6


def test_trustrank_uniform_teleport_equals_classic():
    e = _chain_edges()
    nodes = sorted(set(e.src_host) | set(e.dst_host))
    seeded = pagerank_reference(e, teleport={v: 1.0 for v in nodes},
                                n_iter=20, tol=None)
    classic = pagerank_reference(e, n_iter=20, tol=None)
    np.testing.assert_allclose(seeded["rank"], classic["rank"], atol=1e-9)


def test_trustrank_seed_weights_normalized():
    e = _chain_edges()
    a = pagerank_reference(e, teleport={"seed": 1.0}, n_iter=10, tol=None)
    b = pagerank_reference(e, teleport={"seed": 7.5}, n_iter=10, tol=None)
    pd.testing.assert_frame_equal(a, b)  # scale-invariant


def test_trustrank_absent_or_zero_seeds_raise():
    e = _chain_edges()
    with pytest.raises(ValueError):
        pagerank_reference(e, teleport={"nosuch.example": 1.0})
    with pytest.raises(ValueError):
        pagerank_reference(e, teleport={"seed": 0.0})


def test_trustrank_dangling_mass_returns_to_seeds():
    # 'sink' is dangling: its mass must flow back to the seed, not
    # uniformly — so the seed outranks the sink despite equal in-degree
    e = pd.DataFrame({"src_host": ["seed"], "dst_host": ["sink"]})
    r = pagerank_reference(e, teleport={"seed": 1.0}, n_iter=50, tol=None)
    t = dict(zip(r["node"], r["rank"]))
    assert t["seed"] > t["sink"] > 0


def test_trustrank_distributed_matches_reference(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(7)
    e = pd.DataFrame({
        "src_host": [f"h{i}" for i in rng.randint(0, 20, 200)],
        "dst_host": [f"h{i}" for i in rng.randint(0, 20, 200)],
        "n_links": rng.randint(1, 5, 200),
    })
    w = e.groupby(["src_host", "dst_host"], as_index=False)["n_links"].sum()
    seeds = {"h0": 2.0, "h1": 1.0}
    exp = pagerank_reference(w, weight_col="n_links", n_iter=8, tol=None,
                             teleport=seeds)
    got = pagerank(rd.from_pandas(w).repartition(4), weight_col="n_links",
                   n_iter=8, tol=None, teleport=seeds)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True),
        exp.sort_values("node").reset_index(drop=True))


# --- redirect-chain resolution (pointer doubling) ---------------------------

def _resolve_reference(edges, max_hops):
    # plain-Python follower over the min-deduped functional graph
    f = {}
    for s, d in edges:
        f[s] = min(f.get(s, d), d)
    out = {}
    for s in f:
        cur, hops = f[s], 1
        while cur in f and hops < max_hops:
            cur = f[cur]
            hops += 1
        if cur in f:  # still redirecting after the cap: cycle / too long
            out[s] = (-1, -1, False)
        else:
            out[s] = (cur, hops, True)
    return out


def test_resolve_chains_matches_reference_and_sql(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.graph import (
        resolve_chains, resolve_chains_oracle_sql)

    rng = np.random.default_rng(11)
    # functional graph with chains AND cycles: random successor over a
    # small node space guarantees some cycles; unique srcs by build
    srcs = np.arange(80, dtype=np.int64)
    dsts = rng.integers(0, 120, 80).astype("int64")  # 80..119 terminal
    e = pd.DataFrame({"src": srcs, "dst": dsts})
    for mh in (1, 4, 16):
        got = (resolve_chains(rd.from_pandas(e).repartition(4),
                              max_hops=mh)
               .to_pandas().sort_values("src").reset_index(drop=True))
        ref = _resolve_reference(list(zip(e["src"], e["dst"])), mh)
        want = pd.DataFrame(
            [(s, *v) for s, v in sorted(ref.items())],
            columns=["src", "final_node", "hops", "resolved"])
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        con = duckdb.connect()
        con.register("e", e)
        sql = resolve_chains_oracle_sql("SELECT * FROM e", max_hops=mh)
        want_sql = (con.sql(sql).df()
                    .sort_values("src").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)


def test_resolve_chains_exact_hops_and_cycle_flags(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.graph import resolve_chains

    # chain 5->4->3->2->1->0 (0 terminal), 3-cycle {10,11,12}, feeder 13
    e = pd.DataFrame({
        "src": [5, 4, 3, 2, 1, 10, 11, 12, 13],
        "dst": [4, 3, 2, 1, 0, 11, 12, 10, 10]})
    got = (resolve_chains(rd.from_pandas(e).repartition(3), max_hops=8)
           .to_pandas().set_index("src"))
    assert got.loc[5, "final_node"] == 0 and got.loc[5, "hops"] == 5
    assert got.loc[1, "hops"] == 1
    for n in (10, 11, 12, 13):
        assert not got.loc[n, "resolved"]
        assert got.loc[n, "final_node"] == -1 and got.loc[n, "hops"] == -1
    # cap shorter than the chain: 5 needs 5 hops, max_hops=4 rejects it
    capped = (resolve_chains(rd.from_pandas(e), max_hops=4)
              .to_pandas().set_index("src"))
    assert not capped.loc[5, "resolved"]
    assert capped.loc[4, "resolved"] and capped.loc[4, "hops"] == 4


def test_resolve_chains_duplicate_src_min_rule_and_validation(ray_session):
    import pytest as _pytest
    import ray.data as rd

    from pdf_extract_ray.stages.graph import resolve_chains

    # duplicate src rows collapse to the MIN target deterministically
    e = pd.DataFrame({"src": [1, 1, 2], "dst": [9, 2, 7]})
    got = (resolve_chains(rd.from_pandas(e).repartition(2), max_hops=4)
           .to_pandas().set_index("src"))
    assert got.loc[1, "final_node"] == 7 and got.loc[1, "hops"] == 2
    with _pytest.raises(ValueError):
        resolve_chains(rd.from_pandas(e), max_hops=5)
    with _pytest.raises(ValueError):
        resolve_chains(rd.from_pandas(e), max_hops=0)


# --- k-core decomposition ----------------------------------------------------

def _kcore_reference(edges, k):
    from collections import deque
    adj = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    q = deque(n for n, nb in adj.items() if len(nb) < k)
    dead = set()
    while q:
        n = q.popleft()
        if n in dead:
            continue
        dead.add(n)
        for m in adj[n]:
            if m not in dead:
                adj[m].discard(n)
                if len(adj[m]) < k:
                    q.append(m)
    return {n: len(nb) for n, nb in adj.items() if n not in dead}


@pytest.mark.parametrize("mode", ["cogroup", "broadcast"])
def test_k_core_matches_reference(ray_session, mode):
    import ray.data as rd

    from pdf_extract_ray.stages.graph import k_core

    rng = np.random.default_rng(23)
    e = pd.DataFrame({
        "src": rng.integers(0, 50, 400).astype("int64"),
        "dst": rng.integers(0, 50, 400).astype("int64")})
    for k in (2, 5, 9):
        got = (k_core(rd.from_pandas(e).repartition(4), k=k,
                      removal_mode=mode)
               .to_pandas().sort_values("node").reset_index(drop=True))
        ref = _kcore_reference(list(zip(e["src"], e["dst"])), k)
        want = pd.DataFrame(sorted(ref.items()),
                            columns=["node", "degree"]).astype("int64")
        if len(want) == 0:
            assert len(got) == 0
        else:
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert (got["degree"] >= k).all()


def test_k_core_peels_pendant_chain(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.graph import k_core

    # triangle core {0,1,2} + pendant chain 2-3-4-5: k=2 keeps only the
    # triangle (the chain peels layer by layer — exercises multi-round)
    e = pd.DataFrame({"src": [0, 1, 2, 2, 3, 4],
                      "dst": [1, 2, 0, 3, 4, 5]})
    got = (k_core(rd.from_pandas(e), k=2).to_pandas()
           .sort_values("node").reset_index(drop=True))
    assert got["node"].tolist() == [0, 1, 2]
    assert got["degree"].tolist() == [2, 2, 2]
    with pytest.raises(ValueError):
        k_core(rd.from_pandas(e), k=0)
    with pytest.raises(ValueError):
        k_core(rd.from_pandas(e), k=2, removal_mode="bogus")


# --- clustering coefficient --------------------------------------------------

def test_clustering_coefficient_matches_reference_and_sql(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.graph import (
        clustering_coefficient, clustering_coefficient_oracle_sql)

    rng = np.random.default_rng(31)
    e = pd.DataFrame({
        "src": rng.integers(0, 25, 150).astype("int64"),
        "dst": rng.integers(0, 25, 150).astype("int64")})
    got = (clustering_coefficient(rd.from_pandas(e).repartition(4))
           .to_pandas().sort_values("node").reset_index(drop=True))
    # reference: adjacency sets
    adj = {}
    for a, b in zip(e["src"], e["dst"]):
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = []
    for n in sorted(adj):
        d = len(adj[n])
        if d < 2:
            continue
        t = sum(1 for x in adj[n] for y in adj[n]
                if x < y and y in adj[x]) if d else 0
        want.append((n, d, t, 2.0 * t / (d * (d - 1))))
    wdf = pd.DataFrame(want, columns=["node", "degree", "n_triangles",
                                      "clustering"])
    pd.testing.assert_frame_equal(got, wdf, check_dtype=False)
    con = duckdb.connect()
    con.register("e", e)
    sql = clustering_coefficient_oracle_sql("SELECT * FROM e")
    want_sql = (con.sql(sql).df()
                .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want_sql, check_dtype=False)
    # triangle corner: a clean triangle has coefficient exactly 1.0
    tri = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]})
    g2 = clustering_coefficient(rd.from_pandas(tri)).to_pandas()
    assert (g2["clustering"] == 1.0).all()


# --- degree assortativity ----------------------------------------------------

def test_degree_assortativity_matches_reference_and_sql(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.graph import (
        degree_assortativity, degree_assortativity_oracle_sql)

    rng = np.random.default_rng(43)
    e = pd.DataFrame({
        "src": rng.integers(0, 20, 120).astype("int64"),
        "dst": rng.integers(0, 20, 120).astype("int64")})
    got = degree_assortativity(rd.from_pandas(e).repartition(4)).to_pandas()
    # reference: numpy pearson over both orientations
    ded = {(min(a, b), max(a, b)) for a, b in zip(e["src"], e["dst"])
           if a != b}
    deg = {}
    for a, b in ded:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    x = np.array([deg[a] for a, b in ded] + [deg[b] for a, b in ded],
                 dtype=np.float64)
    y = np.array([deg[b] for a, b in ded] + [deg[a] for a, b in ded],
                 dtype=np.float64)
    want = np.corrcoef(x, y)[0, 1]
    assert got["n"].iloc[0] == 2 * len(ded)
    assert abs(got["corr"].iloc[0] - want) < 1e-12
    con = duckdb.connect()
    con.register("e", e)
    sql = degree_assortativity_oracle_sql("SELECT * FROM e")
    want_sql = con.sql(sql).df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want_sql,
                                  check_dtype=False)
    # star graph: hub degree n, leaves degree 1 -> strongly negative...
    # actually a pure star is degenerate (all edges hub-leaf): corr NULL
    # (x variance 0 within orientation pairs is false — x takes {n,1});
    # assert the sign instead
    star = pd.DataFrame({"src": [0] * 8, "dst": np.arange(1, 9)})
    g2 = degree_assortativity(rd.from_pandas(star)).to_pandas()
    assert g2["corr"].iloc[0] < -0.99  # perfect disassortativity
