"""Distributed connected components over a pair graph, and cluster-level
near-duplicate deduplication.

The near-dup operators emit PAIRS; a training-data pipeline needs
CLUSTERS (transitive closure) and one canonical representative per
cluster — the standard ending of web-scale dedup (minhash pairs ->
components -> keep min-id per component).

Two algorithms:

* ``algorithm="propagation"`` (default): iterative min-label
  propagation.  Each iteration sends every node's current label one hop
  across its edges and keeps the minimum — one bucketed union-shuffle
  per iteration, converging in O(diameter) rounds (NOT O(log diameter):
  plain one-hop propagation has no pointer doubling).  For near-dup
  graphs this is fine — duplicate clusters are dense and their diameter
  is tiny — but a path-shaped graph longer than ``max_iters`` hops will
  not converge; pass ``on_nonconvergence="raise"`` when downstream
  consumers (e.g. ``dedup_by_components``) must never see
  non-transitive labels.  Convergence is detected from the global label
  sum: labels only ever decrease, so an unchanged sum is a fixpoint — a
  driver-side scalar per round, never a data comparison.
* ``algorithm="star"``: alternating large-star / small-star edge
  rewriting (Kiveris et al. 2014, "Connected Components in MapReduce
  and Beyond" — public paper), converging in O(log^2 n) rounds
  regardless of diameter — the scale path for graphs that might contain
  long chains (e.g. exact-substring overlap graphs).  Each round is two
  bucketed shuffles of (int64, int64) edge rows plus one cheap grouped
  check; termination is exact: the edge set is a fixpoint of both
  operations iff it is a disjoint union of min-rooted stars in which no
  node is both a parent and a leaf and no leaf has two parents — a
  per-node grouped predicate whose global violation count is a
  driver-side scalar.

Scale shape: only (node, label) and (src, dst) rows ever shuffle (two
int64s); documents never move.  The iteration count appearing in the
plan is bounded by ``max_iters`` with a logged warning (or, opt-in, an
exception) on non-convergence — never silent.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd

from ray.data import Dataset

logger = logging.getLogger("pdf_extract_ray.graph")


def connected_components(
    pairs: Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    *,
    max_iters: int = 50,
    on_nonconvergence: str = "warn",
    algorithm: str = "propagation",
) -> Dataset:
    """(node, component) for every node appearing in ``pairs``; component =
    the minimum node id reachable from the node (deterministic).

    CONTRACT: node ids are NON-NEGATIVE int64 (-1 is the internal
    edge-row sentinel).  Everything stays int64 end to end — a
    nullable-int column would round-trip through float64 in the Arrow
    shuffle and silently corrupt ids above 2^53.

    ``on_nonconvergence``: "warn" (default) logs and returns the possibly
    non-transitive labels; "raise" raises RuntimeError instead, for
    callers whose downstream dedup must never consume a wrong clustering.

    ``algorithm``: "propagation" (default, O(diameter) rounds — right for
    dense near-dup clusters) or "star" (large-star/small-star, O(log^2 n)
    rounds — right when long chains are possible; see module docstring)."""
    if on_nonconvergence not in ("warn", "raise"):
        raise ValueError("on_nonconvergence must be 'warn' or 'raise'")
    if algorithm == "star":
        return _cc_star(pairs, id_a, id_b, max_iters=max_iters,
                        on_nonconvergence=on_nonconvergence)
    if algorithm != "propagation":
        raise ValueError(
            f"algorithm must be 'propagation' or 'star', got {algorithm!r}")
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    def sym_edges(b: pd.DataFrame) -> pd.DataFrame:
        # the -1 sentinel makes negative ids silently vanish downstream:
        # enforce the non-negative contract loudly here
        if len(b) and (int(b[id_a].min()) < 0 or int(b[id_b].min()) < 0):
            raise ValueError(
                "connected_components requires NON-NEGATIVE int64 node ids "
                "(-1 is the internal sentinel); remap signed hash ids first")
        return pd.DataFrame({
            "key": pd.concat([b[id_a], b[id_b]], ignore_index=True),
            "dst": pd.concat([b[id_b], b[id_a]], ignore_index=True),
        })

    edges = pairs.map_batches(sym_edges, batch_format="pandas").materialize()

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        nodes = b["key"].drop_duplicates()
        return pd.DataFrame({"key": nodes, "label": nodes})

    # per-batch distinct is enough: the first propagation round min-merges
    labels = bucketed_group_apply(
        edges.map_batches(init_labels, batch_format="pandas"), ["key"],
        lambda g: g.drop_duplicates("key"),
    ).materialize()

    def label_sum(ds: Dataset) -> int:
        # EXACT arbitrary-precision sum: int64 aggregation would wrap for
        # ids near 2^62 and a wrapped fixpoint check is only
        # probabilistically sound.  Per-batch Python-int partials (object
        # dtype sums exactly), tiny driver-side total.
        parts = ds.map_batches(
            lambda b: pd.DataFrame(
                {"s": [str(int(b["label"].astype(object).sum()) if len(b) else 0)]}
            ),
            batch_format="pandas",
        ).take_all()
        return sum(int(r["s"]) for r in parts)

    prev_sum = label_sum(labels)
    for it in range(max_iters):
        # messages: each edge forwards src's label to dst; nodes keep their
        # own label.  One union + one bucketed min per iteration.
        def self_msg(b: pd.DataFrame) -> pd.DataFrame:
            out = b.copy()
            out["__dst"] = out["key"]  # deliver own label to self
            return out[["key", "label", "__dst"]]

        def fwd(bucket: pd.DataFrame) -> pd.DataFrame:
            # bucket holds, per key: its label row(s) and its out-edges
            is_lab = bucket["label"] >= 0
            lab = dict(zip(bucket.loc[is_lab, "key"],
                           bucket.loc[is_lab, "label"]))
            e = bucket[~is_lab]
            dst = pd.concat(
                [e["__dst"], bucket.loc[is_lab, "__dst"]], ignore_index=True)
            src = pd.concat([e["key"], bucket.loc[is_lab, "key"]],
                            ignore_index=True)
            out = pd.DataFrame({
                "key": dst.to_numpy(),
                "label": np.array([lab.get(s, -1) for s in src], dtype="int64"),
            })
            # drop sentinel messages BEFORE the combine (min would let a
            # -1 mask a real label), then map-side combine: one min per
            # destination leaves this bucket, shrinking the gather shuffle
            out = out[out["label"] >= 0]
            return out.groupby("key", as_index=False)["label"].min()

        def edge_rows(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": b["key"],
                # -1 sentinel, NOT a nullable Int64: nulls would upcast the
                # column to float64 in the shuffle and corrupt ids > 2^53
                "label": np.full(len(b), -1, dtype="int64"),
                "__dst": b["dst"],
            })

        unioned = edges.map_batches(edge_rows, batch_format="pandas").union(
            labels.map_batches(self_msg, batch_format="pandas")
        )
        msgs = bucketed_group_apply(unioned, ["key"], fwd)

        def take_min(g: pd.DataFrame) -> pd.DataFrame:
            out = g[g["label"] >= 0].groupby("key", as_index=False)["label"].min()
            out["label"] = out["label"].astype("int64")
            return out

        labels = bucketed_group_apply(msgs, ["key"], take_min).materialize()
        cur = label_sum(labels)
        if cur == prev_sum:  # labels only decrease -> fixpoint
            break
        prev_sum = cur
    else:
        msg = (
            "connected_components: no fixpoint after max_iters=%d "
            "(pathologically long chain?); labels may be non-transitive"
            % max_iters
        )
        if on_nonconvergence == "raise":
            raise RuntimeError(msg)
        logger.warning(msg)

    return labels.map_batches(
        lambda b: b.rename(columns={"key": "node", "label": "component"}),
        batch_format="pandas",
    )


def _cc_star(
    pairs: Dataset,
    id_a: str,
    id_b: str,
    *,
    max_iters: int,
    on_nonconvergence: str,
) -> Dataset:
    """Large-star/small-star alternation (Kiveris et al. 2014).  Edges are
    kept as canonical distinct ``(lo, hi)`` int64 rows; each round rewrites
    them through two bucketed shuffles, then a cheap grouped check decides
    termination EXACTLY: the edge set is a fixpoint of both operations iff
    it is a forest of stars rooted at component minima, i.e. no node
    appears as both a parent (``lo``) and a leaf (``hi``)."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) and (int(b[id_a].min()) < 0 or int(b[id_b].min()) < 0):
            raise ValueError(
                "connected_components requires NON-NEGATIVE int64 node ids; "
                "remap signed hash ids first")
        lo = np.minimum(b[id_a].to_numpy(), b[id_b].to_numpy())
        hi = np.maximum(b[id_a].to_numpy(), b[id_b].to_numpy())
        df = pd.DataFrame({"lo": lo.astype("int64"),
                           "hi": hi.astype("int64")})
        return df[df["lo"] != df["hi"]].drop_duplicates()

    def large_star(bucket: pd.DataFrame) -> pd.DataFrame:
        # bucket rows: (u, v) symmetric adjacency, grouped so each u's
        # whole neighborhood is present.  m(u) = min(N(u) + {u}); emit
        # (m, v) for v > u.  m <= u < v, so rows stay canonical and
        # self-loop-free by construction.
        bucket = bucket.reset_index(drop=True)
        m = np.minimum(
            bucket.groupby("u", sort=False)["v"].transform("min"),
            bucket["u"])
        keep = bucket["v"] > bucket["u"]
        out = pd.DataFrame({"lo": m[keep].to_numpy(),
                            "hi": bucket.loc[keep, "v"].to_numpy()})
        return out.drop_duplicates()

    def small_star(bucket: pd.DataFrame) -> pd.DataFrame:
        # bucket rows: (u=hi, v=lo) directed large->small.  m(u) = min of
        # u's smaller neighbors; emit (m, v) for the other smaller
        # neighbors plus (m, u).
        bucket = bucket.reset_index(drop=True)
        m = bucket.groupby("u", sort=False)["v"].transform("min")
        others = bucket["v"] > m
        link_up = bucket.drop_duplicates("u")
        out = pd.DataFrame({
            "lo": np.concatenate([m[others].to_numpy(),
                                  m[link_up.index].to_numpy()]),
            "hi": np.concatenate([bucket.loc[others, "v"].to_numpy(),
                                  link_up["u"].to_numpy()]),
        })
        return out.drop_duplicates()

    def nonstar_count(edge_ds: Dataset) -> int:
        # fixpoint of both operations <=> the edge set is a disjoint
        # union of min-rooted stars <=> (a) no node is both a parent
        # (lo) and a leaf (hi), AND (b) no leaf has two distinct
        # parents.  (b) matters: {(1,5),(2,5)} satisfies (a) but
        # small-star still rewrites it — stopping there would label
        # 2's component wrongly.
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "n": pd.concat([b["lo"], b["hi"]], ignore_index=True),
                "f": np.repeat([0, 1], len(b)).astype("int64"),
                "p": pd.concat(
                    [pd.Series(np.full(len(b), -1, dtype="int64")),
                     b["lo"]], ignore_index=True),
            })

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("n", sort=False).agg(
                nf=("f", "nunique"), np_=("p", "nunique"))
            # leaves carry p=parent; parents carry p=-1, so a node that
            # is both has nf==2; a multi-parent leaf has >1 distinct
            # non-sentinel p values
            leaf_p = (g[g["f"] == 1].groupby("n", sort=False)["p"]
                      .nunique())
            bad = (agg["nf"] == 2) | (leaf_p.reindex(agg.index)
                                      .fillna(0) > 1)
            return pd.DataFrame({"n_bad": [int(bad.sum())]})

        parts = bucketed_group_apply(
            edge_ds.map_batches(tag, batch_format="pandas"), ["n"],
            per_bucket).take_all()
        return sum(r["n_bad"] for r in parts)

    # dedup the canonical set once up front (same (lo,hi) rows land in
    # the same lo-bucket, so per-bucket drop_duplicates is global)
    edges = bucketed_group_apply(
        pairs.map_batches(canon, batch_format="pandas"), ["lo"],
        lambda g: g.drop_duplicates(),
    ).materialize()

    converged = False
    for _ in range(max_iters):
        sym = edges.map_batches(
            lambda b: pd.DataFrame({
                "u": pd.concat([b["lo"], b["hi"]], ignore_index=True),
                "v": pd.concat([b["hi"], b["lo"]], ignore_index=True),
            }),
            batch_format="pandas")
        edges = bucketed_group_apply(sym, ["u"], large_star)
        directed = edges.map_batches(
            lambda b: pd.DataFrame({"u": b["hi"], "v": b["lo"]}),
            batch_format="pandas")
        edges = bucketed_group_apply(
            directed, ["u"], small_star).materialize()
        if nonstar_count(edges) == 0:
            converged = True
            break
    if not converged:
        msg = ("connected_components(star): not a star forest after "
               f"max_iters={max_iters} rounds")
        if on_nonconvergence == "raise":
            raise RuntimeError(msg)
        logger.warning(msg)

    def to_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": pd.concat([b["lo"], b["hi"]], ignore_index=True),
            "component": pd.concat([b["lo"], b["lo"]], ignore_index=True),
        })

    return bucketed_group_apply(
        edges.map_batches(to_labels, batch_format="pandas"), ["node"],
        lambda g: g.groupby("node", as_index=False)["component"].min(),
    )


def dedup_by_components(
    docs: Dataset,
    pairs: Dataset,
    id_col: str = "doc_id",
    *,
    max_iters: int = 50,
    num_partitions: int = 8,
) -> Dataset:
    """Cluster-level near-dup dedup: keep every document that is NOT a
    non-representative member of a pair component (representative = min id
    in the component).  Documents appearing in no pair pass through."""
    comp = connected_components(pairs, max_iters=max_iters)
    # repartition coalesces schema-less empty blocks from sparse buckets,
    # which Ray's hash join rejects
    drop = comp.filter(expr="node != component").map_batches(
        lambda b: b[["node"]], batch_format="pandas"
    ).repartition(num_partitions).materialize()
    if drop.count() == 0:  # nothing to drop; join on an empty schema-less
        return docs        # right side would fail, and is pointless anyway
    return docs.join(
        drop, join_type="left_anti", num_partitions=num_partitions,
        on=(id_col,), right_on=("node",),
    )


def dedup_by_components_best(
    docs: Dataset,
    pairs: Dataset,
    score_col: str,
    id_col: str = "doc_id",
    *,
    max_iters: int = 50,
    num_partitions: int = 8,
) -> Dataset:
    """Cluster-level near-dup dedup keeping the BEST member per pair
    component: maximal ``score_col``, ties -> min id — canonical-copy
    selection by a quality signal (keep the longest / highest-scoring
    copy) instead of :func:`dedup_by_components`' min-id convention.
    Documents appearing in no pair pass through untouched.

    Scale shape: components come from the int-pair label propagation;
    scores attach to member rows via ONE tag-union bucketed cogroup
    keyed by node (narrow ``(node, score)`` rows move — bodies never
    do); per-component winners resolve in ONE bucketed apply keyed by
    component; losers leave ``docs`` by the same left_anti join as
    :func:`dedup_by_components`.  ``(score, id)`` makes the winner
    unique, so the result is parallelism-independent."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    comp = connected_components(pairs, max_iters=max_iters)

    def comp_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__m": b["node"].to_numpy(np.int64),
            "component": b["component"].to_numpy(np.int64),
            "__s": np.zeros(len(b), dtype=np.float64),
            "__role": np.full(len(b), 0, dtype=np.int8),
        })

    def score_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__m": b[id_col].to_numpy(np.int64),
            "component": np.zeros(len(b), dtype=np.int64),
            "__s": b[score_col].to_numpy(np.float64),
            "__role": np.full(len(b), 1, dtype=np.int8),
        })

    tagged = comp.map_batches(comp_rows, batch_format="pandas").union(
        docs.map_batches(score_rows, batch_format="pandas"))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        is_score = g["__role"].to_numpy() == 1
        smap = (g.loc[is_score].drop_duplicates("__m")
                .set_index("__m")["__s"])
        mem = g.loc[~is_score, ["__m", "component"]].copy()
        mem["__s"] = mem["__m"].map(smap)
        return mem.dropna(subset=["__s"])

    members = bucketed_group_apply(tagged, ["__m"], attach)

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["component", "__s", "__m"],
                          ascending=[True, False, True], kind="mergesort")
        drop = g.loc[g.duplicated(subset=["component"], keep="first"), "__m"]
        return pd.DataFrame({"node": drop.to_numpy(np.int64)})

    drop = bucketed_group_apply(members, ["component"], losers).repartition(
        num_partitions).materialize()
    if drop.count() == 0:
        return docs
    return docs.join(
        drop, join_type="left_anti", num_partitions=num_partitions,
        on=(id_col,), right_on=("node",),
    )


def bfs_depth(
    edges: Dataset,
    seeds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_depth: int,
    num_buckets: int | None = None,
    visited_mode: str = "cogroup",
) -> Dataset:
    """Multi-source BFS depth over a directed edge table — the
    click-depth metric (how many links from a seed set reach each
    page; crawl frontiers prioritize shallow pages, quality priors
    downweight deep ones).  Returns ``(node, depth)`` for every node
    reachable within ``max_depth`` hops, ``depth`` = the MINIMUM hop
    count (seeds are depth 0).

    Scale shape: the frontier and visited sets are narrow int Datasets;
    each round is (a) one bucketed cogroup of frontier x edges on the
    source (emitting next-hop candidates, per-bucket deduped) and
    (b) the visited subtraction — ``visited_mode="cogroup"`` (default)
    is an anti-cogroup (the ``dedup_against_reference`` shape — no
    broadcast, the visited set can be web-scale);
    ``visited_mode="broadcast"`` keeps the visited ids in a
    ``ray.put`` set instead, saving one all-to-all per round — correct
    whenever the REACHABLE set (not the graph) fits driver memory,
    which covers most seed-rooted crawls.  Results are identical.
    Rounds are bounded by ``max_depth``; the loop early-stops on an
    empty frontier, the one driver-side scalar per round.

    ``seeds`` is a small list of node ids (the BFS roots)."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    seeds = sorted(set(int(s) for s in seeds))
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if visited_mode not in ("cogroup", "broadcast"):
        raise ValueError("visited_mode must be 'cogroup' or 'broadcast'")
    import ray as _ray
    import ray.data as rd

    # materialize the narrow edge projection ONCE: the loop re-consumes
    # it every round, and a lazy dataset would re-run the upstream read
    # + derive per round (per-round re-scan of the full edge table — a
    # scale killer; the pinned copy is two int64 columns)
    narrow = edges.map_batches(
        lambda b: pd.DataFrame({
            "src": b[src_col].to_numpy(np.int64),
            "dst": b[dst_col].to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    seed_df = pd.DataFrame({"node": np.array(seeds, np.int64),
                            "depth": np.int64(0)})
    out = rd.from_pandas(seed_df)
    frontier = rd.from_pandas(seed_df[["node"]])
    visited = rd.from_pandas(seed_df[["node"]])
    seen_arr = np.array(seeds, np.int64)  # broadcast mode only

    for d in range(1, max_depth + 1):
        # (a) frontier -> next-hop candidates: union-tag + one cogroup
        # on the source node; candidates deduped per bucket
        f_rows = frontier.map_batches(
            lambda b: pd.DataFrame({"k": b["node"].to_numpy(np.int64),
                                    "dst": np.int64(-1),
                                    "side": np.int8(0)}),
            batch_format="pandas")
        e_rows = narrow.map_batches(
            lambda b: pd.DataFrame({"k": b["src"].to_numpy(np.int64),
                                    "dst": b["dst"].to_numpy(np.int64),
                                    "side": np.int8(1)}),
            batch_format="pandas")

        def expand(g: pd.DataFrame) -> pd.DataFrame:
            live = g.loc[g["side"] == 0, "k"].unique()
            hit = g.loc[(g["side"] == 1)
                        & g["k"].isin(live).to_numpy(), "dst"]
            return pd.DataFrame({"node": hit.unique().astype(np.int64)})

        cands = bucketed_group_apply(f_rows.union(e_rows), ["k"],
                                     expand, num_buckets=num_buckets)

        # (b) subtract visited
        if visited_mode == "broadcast":
            # the mode's contract: the REACHABLE set fits driver
            # memory, so the per-round frontier (a subset) may be
            # pulled — no anti-shuffle, no per-round materialize
            cand_nodes = np.unique(
                cands.to_pandas()["node"].to_numpy(np.int64))
            new_nodes = cand_nodes[~np.isin(cand_nodes, seen_arr)]
            if not len(new_nodes):
                break
            seen_arr = np.union1d(seen_arr, new_nodes)
            nxt = rd.from_pandas(pd.DataFrame({"node": new_nodes}))
        else:
            c_rows = cands.map_batches(
                lambda b: pd.DataFrame({
                    "node": b["node"].to_numpy(np.int64),
                    "side": np.int8(0)}),
                batch_format="pandas")
            v_rows = visited.map_batches(
                lambda b: pd.DataFrame({
                    "node": b["node"].to_numpy(np.int64),
                    "side": np.int8(1)}),
                batch_format="pandas")

            def fresh(g: pd.DataFrame) -> pd.DataFrame:
                seen = g.loc[g["side"] == 1, "node"].unique()
                new = g.loc[(g["side"] == 0)
                            & ~g["node"].isin(seen).to_numpy(), "node"]
                return pd.DataFrame(
                    {"node": new.unique().astype(np.int64)})

            nxt = bucketed_group_apply(c_rows.union(v_rows), ["node"],
                                       fresh, num_buckets=num_buckets
                                       ).materialize()
            if nxt.count() == 0:
                break
            visited = visited.union(nxt).materialize()

        def tag_depth(b: pd.DataFrame, _d: int = d) -> pd.DataFrame:
            return b.assign(depth=np.int64(_d))

        # depths accumulate as a union of per-round frontiers; in
        # cogroup mode everything stays distributed and the driver only
        # ever sees the scalar frontier count
        out = out.union(nxt.map_batches(tag_depth, batch_format="pandas"))
        frontier = nxt

    return out


def bfs_depth_oracle_sql(edges_sql: str, seeds, *, max_depth: int,
                         src_col: str = "src",
                         dst_col: str = "dst") -> str:
    """DuckDB recursive-CTE mirror of :func:`bfs_depth` (UNION, not
    UNION ALL — (node, depth) pairs dedup each round, bounding the
    recursion at V x max_depth rows on cyclic graphs)."""
    seed_rows = ", ".join(f"({int(s)})" for s in sorted(set(seeds)))
    return f"""
WITH RECURSIVE __bfs(node, depth) AS (
  SELECT * FROM (VALUES {seed_rows}) s(node), (SELECT 0) d(depth)
  UNION
  SELECT e.{dst_col}, b.depth + 1
  FROM __bfs b JOIN ({edges_sql}) e ON e.{src_col} = b.node
  WHERE b.depth < {int(max_depth)}
)
SELECT CAST(node AS BIGINT) AS node,
       CAST(min(depth) AS BIGINT) AS depth
FROM __bfs GROUP BY node
"""


def count_triangles(
    edges: Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    num_buckets: int | None = None,
    num_partitions: int = 8,
) -> Dataset:
    """Per-node triangle counts over the UNDIRECTED simple graph induced
    by ``edges`` (direction ignored, self-loops and duplicate edges
    dropped) — the clustering / link-farm-density signal: organic link
    neighborhoods are triangle-rich, spam rings of pages that all link
    one hub are triangle-poor.

    Algorithm (the standard degree-oriented wedge count):

    1. canonicalize to distinct ``lo < hi`` edges (one grouped dedup);
    2. per-node degrees (one grouped count over the exploded endpoints);
    3. orient every edge from its LOWER ``(degree, id)`` endpoint to the
       higher — each node's oriented out-degree is then O(sqrt(m)), so
       step 4's per-node pair explosion is bounded by m^1.5 total work
       REGARDLESS of raw-degree skew (a 10^7-degree hub generates no
       wedges; its edges are all inbound after orientation);
    4. wedges: per oriented source, all ordered out-neighbor pairs
       (one bucketed self-merge);
    5. one bucketed semi cogroup of wedge pairs against the (distinct)
       oriented-edge keys — every match is a triangle, found exactly
       once.  All stitches here are tag-union-bucket cogroups, never
       ``Dataset.join`` (acero rejects a join side containing an empty
       schema-less block — the repo's known trap, which this operator
       drew flakily under full-suite contention).

    CONTRACT: node ids are int64 in ``[0, 2^31)`` (pairs pack into one
    int64 join key, the repo's composite-key shuffle idiom).  Output:
    ``(node, n_triangles)`` for every node in at least one triangle.
    """
    from pdf_extract_ray.stages.agg import (
        bucketed_group_apply, grouped_aggregate)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        c = b[dst].to_numpy(np.int64)
        if len(a) and (min(a.min(), c.min()) < 0
                       or max(a.max(), c.max()) >= 2 ** 31):
            raise ValueError("count_triangles requires node ids in "
                             "[0, 2^31) — remap/factorize ids first")
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"lo": np.minimum(a, c), "hi": np.maximum(a, c)})

    e = grouped_aggregate(
        edges.map_batches(canon, batch_format="pandas"),
        ["lo", "hi"], {"__n": ("lo", "count")},
        num_buckets=num_buckets).drop_columns(["__n"])

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [b["lo"].to_numpy(np.int64), b["hi"].to_numpy(np.int64)])})

    deg = grouped_aggregate(
        e.map_batches(endpoints, batch_format="pandas"),
        ["node"], {"deg": ("node", "count")}, num_buckets=num_buckets)

    # attach each endpoint's degree via the repo's tag-union-bucket
    # cogroup (degree_assortativity's attach idiom) — NOT Dataset.join:
    # acero rejects a join side containing an empty schema-less block
    # (the repo's known Dataset.join trap; this exact operator drew that
    # failure flakily under full-suite contention), and the cogroup
    # machinery is immune.
    def attach(edge_ds: Dataset, payload: list, end: str,
               out: str) -> Dataset:
        def e_rows(b: pd.DataFrame, _e=end) -> pd.DataFrame:
            f = pd.DataFrame({c: b[c].to_numpy(np.int64)
                              for c in payload})
            f["key"] = b[_e].to_numpy(np.int64)
            f["deg"] = np.int64(-1)
            f["side"] = np.int8(0)
            return f

        def d_rows(b: pd.DataFrame) -> pd.DataFrame:
            f = pd.DataFrame({c: np.full(len(b), -1, dtype=np.int64)
                              for c in payload})
            f["key"] = b["node"].to_numpy(np.int64)
            f["deg"] = b["deg"].to_numpy(np.int64)
            f["side"] = np.int8(1)
            return f

        def join(g: pd.DataFrame, _o=out) -> pd.DataFrame:
            d = g[g["side"] == 1]
            dmap = pd.Series(d["deg"].to_numpy(np.int64),
                             index=d["key"].to_numpy(np.int64))
            ed = g[g["side"] == 0]
            f = pd.DataFrame({c: ed[c].to_numpy(np.int64)
                              for c in payload})
            f[_o] = dmap.reindex(ed["key"].to_numpy(np.int64)
                                 ).to_numpy(np.int64)
            return f

        return bucketed_group_apply(
            edge_ds.map_batches(e_rows, batch_format="pandas").union(
                deg.map_batches(d_rows, batch_format="pandas")),
            ["key"], join, num_buckets=num_buckets,
            pre_batch_size=65536)

    j = attach(attach(e, ["lo", "hi"], "lo", "__dlo"),
               ["lo", "hi", "__dlo"], "hi", "__dhi")

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        lo = b["lo"].to_numpy(np.int64)
        hi = b["hi"].to_numpy(np.int64)
        dlo = b["__dlo"].to_numpy(np.int64)
        dhi = b["__dhi"].to_numpy(np.int64)
        lo_first = (dlo < dhi) | ((dlo == dhi) & (lo < hi))
        return pd.DataFrame({
            "__src": np.where(lo_first, lo, hi),
            "__dst": np.where(lo_first, hi, lo),
            "__ddst": np.where(lo_first, dhi, dlo),
        })

    oriented = j.map_batches(orient, batch_format="pandas").materialize()

    def wedge_body(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["__src", "__dst", "__ddst"]].merge(
            g[["__src", "__dst", "__ddst"]], on="__src")
        first = ((m["__ddst_x"] < m["__ddst_y"])
                 | ((m["__ddst_x"] == m["__ddst_y"])
                    & (m["__dst_x"] < m["__dst_y"])))
        m = m[first.to_numpy()]
        return pd.DataFrame({
            "__pair": (m["__dst_x"].to_numpy(np.int64) << 32)
            | m["__dst_y"].to_numpy(np.int64),
            "__u": m["__src"].to_numpy(np.int64),
        })

    wedges = bucketed_group_apply(oriented, ["__src"], wedge_body,
                                  num_buckets=num_buckets,
                                  pre_batch_size=65536)

    # wedge -> edge probe as a bucketed SEMI cogroup (oriented edges are
    # DISTINCT, so semi == inner), not Dataset.join (the acero
    # empty-schema-less-block trap; see the degree attach above)
    def w_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__pair": b["__pair"].to_numpy(np.int64),
            "__u": b["__u"].to_numpy(np.int64),
            "side": np.full(len(b), 0, dtype=np.int8)})

    def k_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__pair": (b["__src"].to_numpy(np.int64) << 32)
            | b["__dst"].to_numpy(np.int64),
            "__u": np.full(len(b), -1, dtype=np.int64),
            "side": np.full(len(b), 1, dtype=np.int8)})

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        closed = g.loc[g["side"] == 1, "__pair"].to_numpy(np.int64)
        w = g[g["side"] == 0]
        keep = np.isin(w["__pair"].to_numpy(np.int64), closed)
        return w.loc[keep, ["__pair", "__u"]]

    tri = bucketed_group_apply(
        wedges.map_batches(w_rows, batch_format="pandas").union(
            oriented.map_batches(k_rows, batch_format="pandas")),
        ["__pair"], probe, num_buckets=num_buckets,
        pre_batch_size=65536)

    def explode_nodes(b: pd.DataFrame) -> pd.DataFrame:
        p = b["__pair"].to_numpy(np.int64)
        return pd.DataFrame({"node": np.concatenate(
            [b["__u"].to_numpy(np.int64), p >> 32, p & 0xFFFFFFFF])})

    return grouped_aggregate(
        tri.map_batches(explode_nodes, batch_format="pandas"),
        ["node"], {"n_triangles": ("node", "count")},
        num_buckets=num_buckets)


def count_triangles_oracle_sql(edges_sql: str, *, src: str = "src",
                               dst: str = "dst") -> str:
    """DuckDB mirror of :func:`count_triangles`: canonical distinct
    undirected edges, each triangle enumerated once as x < y < z."""
    return f"""
WITH __tr_e0 AS ({edges_sql}),
__tr_e AS (SELECT DISTINCT least({src}, {dst}) AS lo,
                  greatest({src}, {dst}) AS hi
           FROM __tr_e0 WHERE {src} <> {dst}),
__tr_t AS (SELECT e1.lo AS x, e1.hi AS y, e2.hi AS z
           FROM __tr_e e1
           JOIN __tr_e e2 ON e2.lo = e1.hi
           JOIN __tr_e e3 ON e3.lo = e1.lo AND e3.hi = e2.hi),
__tr_n AS (SELECT x AS node FROM __tr_t
           UNION ALL SELECT y FROM __tr_t
           UNION ALL SELECT z FROM __tr_t)
SELECT CAST(node AS BIGINT) AS node,
       CAST(count(*) AS BIGINT) AS n_triangles
FROM __tr_n GROUP BY node
"""


def reciprocal_pairs(
    edges: Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """Mutual-link pairs: unordered ``(lo, hi)`` where BOTH directed
    edges ``lo->hi`` and ``hi->lo`` exist (self-loops excluded) — the
    link-exchange / reciprocal-linking spam cue.  One grouped dedup of
    directed edges keyed by the canonical pair, counting distinct
    directions; pairs with both survive.  Ids-only shuffle."""
    from pdf_extract_ray.stages.agg import grouped_aggregate

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        c = b[dst].to_numpy(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        out = pd.DataFrame({
            "lo": np.minimum(a, c), "hi": np.maximum(a, c),
            "__dir": (a < c).astype(np.int64),
        }).drop_duplicates()
        return out

    per_dir = grouped_aggregate(
        edges.map_batches(canon, batch_format="pandas"),
        ["lo", "hi", "__dir"], {"__n": ("lo", "count")},
        num_buckets=num_buckets)
    both = grouped_aggregate(
        per_dir, ["lo", "hi"], {"n_dirs": ("__n", "count")},
        num_buckets=num_buckets)
    return both.filter(lambda r: r["n_dirs"] == 2).drop_columns(["n_dirs"])


def reciprocal_pairs_oracle_sql(edges_sql: str, *, src: str = "src",
                                dst: str = "dst") -> str:
    """DuckDB mirror of :func:`reciprocal_pairs`."""
    return f"""
WITH __rp_e AS (SELECT DISTINCT {src} AS a, {dst} AS b
                FROM ({edges_sql}) WHERE {src} <> {dst})
SELECT CAST(e1.a AS BIGINT) AS lo, CAST(e1.b AS BIGINT) AS hi
FROM __rp_e e1 JOIN __rp_e e2 ON e1.a = e2.b AND e1.b = e2.a
WHERE e1.a < e1.b
"""


def resolve_chains(
    edges: Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_hops: int = 32,
    num_buckets: int | None = None,
) -> Dataset:
    """Resolve redirect chains over a FUNCTIONAL edge table (each node
    has at most one outgoing redirect; duplicates collapse to the min
    target — deterministic) — the 301/canonical-url chase every crawl
    pipeline runs before dedup: a url's identity is the FINAL landing
    page, not the hop that happened to be fetched.

    Frozen semantics, mirrored by :func:`resolve_chains_oracle_sql`:
    for every source node, follow redirects until a terminal node (one
    with no outgoing edge) or until ``max_hops`` hops.  Output one row
    per source: ``(src, final_node, hops, resolved)`` with exact hop
    counts for resolved rows and the sentinel ``final_node = hops = -1``
    for unresolved ones (chains longer than ``max_hops``, or chains
    entering a redirect CYCLE — sentinels, not NULLs, because the
    driver's canon step chokes on nullable ints).

    Algorithm: pointer doubling (path halving), NOT one-hop walking —
    ``log2(max_hops)`` bucketed cogroup rounds instead of ``max_hops``
    all-to-alls, because real redirect data hides long chains (url
    shorteners chaining shorteners) that a diameter-bound loop would
    walk one expensive shuffle per hop.  Each round joins the state
    table against itself: a row ``x -> (cur, h)`` whose ``cur`` is
    itself a redirecting node ``cur -> (cur2, h2)`` advances to
    ``x -> (cur2, h + h2)``; terminal pointers absorb.  After round
    ``r`` every pointer has advanced exactly ``min(2**r, d)`` true
    hops (``d`` = distance to terminal), so after ``log2(max_hops)``
    rounds a source is resolved IFF its chain terminates within
    ``max_hops`` hops, with the exact hop count — and cycle members
    simply never absorb.  ``max_hops`` must be a power of two so the
    cap is exactly the doubled horizon.

    Scale shape: the state table is three int64 columns (node, cur,
    hops) — bodies never move; each round is ONE bucketed cogroup of
    2n narrow rows plus a scalar matched-count reduce for early stop.
    The state is re-materialized per round (it is consumed twice —
    probe side and reference side — and feeds the next round)."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    if max_hops < 1 or (max_hops & (max_hops - 1)) != 0:
        raise ValueError("max_hops must be a positive power of two")
    rounds = max_hops.bit_length() - 1  # log2

    import ray.data as rd  # noqa: F401 (parity with sibling operators)

    def narrow(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": b[src_col].to_numpy(np.int64),
            "cur": b[dst_col].to_numpy(np.int64)})

    def dedup_src(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["cur"].min()
        out["hops"] = np.int64(1)
        return out

    # functional-graph normalization: min target per source (all rows
    # for a node land in one bucket, so the in-bucket min is global)
    state = bucketed_group_apply(
        edges.map_batches(narrow, batch_format="pandas"), ["node"],
        dedup_src, num_buckets=num_buckets,
        pre_batch_size=65536).materialize()

    def probe_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": b["cur"].to_numpy(np.int64),
            "node": b["node"].to_numpy(np.int64),
            "cur": b["cur"].to_numpy(np.int64),
            "hops": b["hops"].to_numpy(np.int64),
            "side": np.int8(0)})

    def ref_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": b["node"].to_numpy(np.int64),
            "node": b["node"].to_numpy(np.int64),
            "cur": b["cur"].to_numpy(np.int64),
            "hops": b["hops"].to_numpy(np.int64),
            "side": np.int8(1)})

    def advance(g: pd.DataFrame) -> pd.DataFrame:
        refs = g[g["side"] == 1]
        # functional graph: one ref row per key by construction
        ref_cur = pd.Series(refs["cur"].to_numpy(np.int64),
                            index=refs["k"].to_numpy(np.int64))
        ref_hops = pd.Series(refs["hops"].to_numpy(np.int64),
                             index=refs["k"].to_numpy(np.int64))
        p = g[g["side"] == 0]
        k = p["k"].to_numpy(np.int64)
        idx_cur = ref_cur.reindex(k)
        hit = idx_cur.notna().to_numpy()
        cur = p["cur"].to_numpy(np.int64).copy()
        hops = p["hops"].to_numpy(np.int64).copy()
        cur[hit] = idx_cur.to_numpy(np.float64)[hit].astype(np.int64)
        hops[hit] += ref_hops.reindex(k).to_numpy(np.float64)[hit].astype(np.int64)
        return pd.DataFrame({
            "node": p["node"].to_numpy(np.int64), "cur": cur,
            "hops": hops, "matched": hit.astype(np.int64)})

    for _ in range(rounds):
        # ONE materialization per round: the matched-count scalar reads
        # the pinned blocks, and the next round's two consumers re-run
        # only the cheap narrow drop over them
        nxt = bucketed_group_apply(
            state.map_batches(probe_rows, batch_format="pandas").union(
                state.map_batches(ref_rows, batch_format="pandas")),
            ["k"], advance, num_buckets=num_buckets,
            pre_batch_size=65536).materialize()
        moved = nxt.sum("matched", ignore_nulls=True) or 0
        state = nxt.drop_columns(["matched"])
        if moved == 0:
            break

    # classify: a pointer that still targets a redirecting node is
    # unresolved (cycle or > max_hops); same cogroup, flag-only body
    def classify(g: pd.DataFrame) -> pd.DataFrame:
        live = g.loc[g["side"] == 1, "k"].unique()
        p = g[g["side"] == 0]
        k = p["k"].to_numpy(np.int64)
        unresolved = np.isin(k, live)
        final = p["cur"].to_numpy(np.int64).copy()
        hops = p["hops"].to_numpy(np.int64).copy()
        final[unresolved] = -1
        hops[unresolved] = -1
        return pd.DataFrame({
            "src": p["node"].to_numpy(np.int64),
            "final_node": final, "hops": hops,
            "resolved": ~unresolved})

    return bucketed_group_apply(
        state.map_batches(probe_rows, batch_format="pandas").union(
            state.map_batches(ref_rows, batch_format="pandas")),
        ["k"], classify, num_buckets=num_buckets,
        pre_batch_size=65536)


def resolve_chains_oracle_sql(edges_sql: str, *, max_hops: int,
                              src_col: str = "src",
                              dst_col: str = "dst") -> str:
    """DuckDB recursive-CTE mirror of :func:`resolve_chains`: walk the
    (min-target-deduped) functional graph hop by hop up to ``max_hops``,
    keep each source's furthest row, and declare it resolved iff that
    row's landing node has no outgoing redirect."""
    return f"""
WITH RECURSIVE __rc_f AS (
  SELECT {src_col} AS src, min({dst_col}) AS dst
  FROM ({edges_sql}) GROUP BY {src_col}
),
__rc_walk(start, cur, hops) AS (
  SELECT src, dst, 1 FROM __rc_f
  UNION ALL
  SELECT w.start, f.dst, w.hops + 1
  FROM __rc_walk w JOIN __rc_f f ON f.src = w.cur
  WHERE w.hops < {int(max_hops)}
),
__rc_last AS (
  SELECT start, cur, hops,
         row_number() OVER (PARTITION BY start ORDER BY hops DESC) AS rn
  FROM __rc_walk
)
SELECT CAST(l.start AS BIGINT) AS src,
       CAST(CASE WHEN f.src IS NULL THEN l.cur ELSE -1 END AS BIGINT)
         AS final_node,
       CAST(CASE WHEN f.src IS NULL THEN l.hops ELSE -1 END AS BIGINT)
         AS hops,
       (f.src IS NULL) AS resolved
FROM __rc_last l LEFT JOIN __rc_f f ON f.src = l.cur
WHERE l.rn = 1
"""


def k_core(
    edges: Dataset,
    *,
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    max_iters: int = 100,
    removal_mode: str = "cogroup",
    num_buckets: int | None = None,
) -> Dataset:
    """k-core decomposition of the UNDIRECTED simple graph induced by
    the edge table (symmetrized, self-loops and duplicates dropped) —
    the link-graph density filter: the k-core is the maximal subgraph
    where every node keeps degree >= k, the standard cut between a
    genuinely interlinked cluster (dense cores survive) and pendant
    spam chains / isolated tendrils (peeled away).  Returns
    ``(node, degree)`` for k-core members, ``degree`` = the node's
    degree WITHIN the core (frozen output rule).

    Algorithm: iterative peeling — each round computes degrees (one
    grouped integer count over exploded endpoints, map-side partials),
    finds nodes with ``degree < k`` and removes their incident edges,
    until a fixpoint.  Rounds are bounded by ``max_iters`` with a
    logged warning on non-convergence (the ``connected_components``
    convention); a path graph peels one layer per round, so audits of
    chain-heavy graphs should set ``max_iters`` generously.

    ``removal_mode="cogroup"`` (default, web-scale): dropped-node ids
    stay distributed; removal is two bucketed anti-cogroups (by src,
    then by dst) of (int64, int64) edge rows.  ``"broadcast"``: the
    round's doomed ids are pulled to the driver and ride the closure —
    correct whenever each round's REMOVED set fits driver memory (it
    is usually a small fringe), one less all-to-all per round.
    Results are identical.

    Scale shape: only edge pairs and (node, degree) ints ever move;
    the per-round driver scalar is the doomed-node count.  The live
    edge set is re-materialized per round (it is consumed by both the
    degree count and the next round's filter)."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply, grouped_aggregate

    if k < 1:
        raise ValueError("k must be >= 1")
    if removal_mode not in ("cogroup", "broadcast"):
        raise ValueError("removal_mode must be 'cogroup' or 'broadcast'")

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].to_numpy(np.int64)
        c = b[dst_col].to_numpy(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"lo": np.minimum(a, c),
                             "hi": np.maximum(a, c)}).drop_duplicates()

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates()

    live = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), ["lo", "hi"],
        dedup, num_buckets=num_buckets,
        pre_batch_size=65536).materialize()

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate([
            b["lo"].to_numpy(np.int64), b["hi"].to_numpy(np.int64)])})

    for it in range(max_iters):
        deg = grouped_aggregate(
            live.map_batches(endpoints, batch_format="pandas"),
            ["node"], {"degree": ("node", "count")},
            num_buckets=num_buckets).materialize()
        doomed = deg.filter(lambda r, _k=k: r["degree"] < _k)

        if removal_mode == "broadcast":
            bad = doomed.to_pandas()
            if not len(bad):
                break
            bad_ids = bad["node"].to_numpy(np.int64)

            def drop(b: pd.DataFrame, _bad=bad_ids) -> pd.DataFrame:
                m = (~np.isin(b["lo"].to_numpy(np.int64), _bad)
                     & ~np.isin(b["hi"].to_numpy(np.int64), _bad))
                return b[m]

            live = live.map_batches(drop, batch_format="pandas").materialize()
        else:
            doomed = doomed.materialize()
            if doomed.count() == 0:
                break

            def by_end(end: str):
                def tag_e(b: pd.DataFrame, _e=end) -> pd.DataFrame:
                    return pd.DataFrame({
                        "key": b[_e].to_numpy(np.int64),
                        "lo": b["lo"].to_numpy(np.int64),
                        "hi": b["hi"].to_numpy(np.int64),
                        "side": np.int8(0)})
                return tag_e

            def tag_bad(b: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame({
                    "key": b["node"].to_numpy(np.int64),
                    "lo": np.int64(-1), "hi": np.int64(-1),
                    "side": np.int8(1)})

            def anti(g: pd.DataFrame) -> pd.DataFrame:
                # buckets are coarse (many keys per bucket): drop per KEY
                bad = g.loc[g["side"] == 1, "key"].unique()
                keep = g[(g["side"] == 0)
                         & ~g["key"].isin(bad).to_numpy()]
                return keep[["lo", "hi"]]

            for end in ("lo", "hi"):
                live = bucketed_group_apply(
                    live.map_batches(by_end(end), batch_format="pandas")
                        .union(doomed.map_batches(tag_bad,
                                                  batch_format="pandas")),
                    ["key"], anti, num_buckets=num_buckets,
                    pre_batch_size=65536).materialize()
    else:
        logger.warning("k_core: max_iters=%d reached before fixpoint",
                       max_iters)

    return grouped_aggregate(
        live.map_batches(endpoints, batch_format="pandas"),
        ["node"], {"degree": ("node", "count")}, num_buckets=num_buckets)


def clustering_coefficient(
    edges: Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """Per-node local clustering coefficient ``2·T / (d·(d−1))`` over
    the undirected simple graph — the neighborhood-density score that
    separates organic link communities (high) from hub-and-spoke spam
    rings (near zero): :func:`count_triangles` gives the numerator,
    this operator attaches the degree denominator and the frozen
    single-division expression.

    Output: ``(node, degree, n_triangles, clustering)`` for every node
    with degree >= 2 (the coefficient is undefined below); nodes in no
    triangle report 0 triangles and coefficient 0.0.

    Scale shape: the triangle pipeline (m^1.5-bounded), one grouped
    degree count over the same canonical edge set, and ONE bucketed
    cogroup stitch keyed on the node — ints only."""
    from pdf_extract_ray.stages.agg import (
        bucketed_group_apply, grouped_aggregate)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        c = b[dst].to_numpy(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"lo": np.minimum(a, c),
                             "hi": np.maximum(a, c)}).drop_duplicates()

    dedup_edges = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), ["lo", "hi"],
        lambda g: g.drop_duplicates(), num_buckets=num_buckets,
        pre_batch_size=65536)

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [b["lo"].to_numpy(np.int64), b["hi"].to_numpy(np.int64)])})

    deg = grouped_aggregate(
        dedup_edges.map_batches(endpoints, batch_format="pandas"),
        ["node"], {"degree": ("node", "count")},
        num_buckets=num_buckets)
    tri = count_triangles(edges, src, dst, num_buckets=num_buckets)

    def deg_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                             "v": b["degree"].to_numpy(np.int64),
                             "side": np.int8(0)})

    def tri_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                             "v": b["n_triangles"].to_numpy(np.int64),
                             "side": np.int8(1)})

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["side"] == 0]
        t = g[g["side"] == 1]
        tmap = pd.Series(t["v"].to_numpy(np.int64),
                         index=t["node"].to_numpy(np.int64))
        node = d["node"].to_numpy(np.int64)
        degree = d["v"].to_numpy(np.int64)
        ntri = tmap.reindex(node).fillna(0).to_numpy(np.int64)
        keep = degree >= 2
        node, degree, ntri = node[keep], degree[keep], ntri[keep]
        coef = (2.0 * ntri) / (degree * (degree - 1)).astype(np.float64)
        return pd.DataFrame({"node": node, "degree": degree,
                             "n_triangles": ntri, "clustering": coef})

    return bucketed_group_apply(
        deg.map_batches(deg_rows, batch_format="pandas").union(
            tri.map_batches(tri_rows, batch_format="pandas")),
        ["node"], stitch, num_buckets=num_buckets,
        pre_batch_size=65536)


def clustering_coefficient_oracle_sql(edges_sql: str, *, src: str = "src",
                                      dst: str = "dst") -> str:
    """DuckDB mirror of :func:`clustering_coefficient`."""
    tri = count_triangles_oracle_sql(edges_sql, src=src, dst=dst)
    return f"""
WITH __cc_e0 AS ({edges_sql}),
__cc_e AS (SELECT DISTINCT least({src}, {dst}) AS lo,
                  greatest({src}, {dst}) AS hi
           FROM __cc_e0 WHERE {src} <> {dst}),
__cc_n AS (SELECT lo AS node FROM __cc_e
           UNION ALL SELECT hi FROM __cc_e),
__cc_d AS (SELECT node, count(*) AS degree FROM __cc_n GROUP BY node),
__cc_t AS ({tri})
SELECT CAST(d.node AS BIGINT) AS node,
       CAST(d.degree AS BIGINT) AS degree,
       CAST(coalesce(t.n_triangles, 0) AS BIGINT) AS n_triangles,
       (2.0 * coalesce(t.n_triangles, 0))
         / CAST(d.degree * (d.degree - 1) AS DOUBLE) AS clustering
FROM __cc_d d LEFT JOIN __cc_t t ON t.node = d.node
WHERE d.degree >= 2
"""


def degree_assortativity(
    edges: Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    num_buckets: int | None = None,
) -> Dataset:
    """Degree assortativity coefficient (Newman 2002) of the undirected
    simple graph — Pearson correlation of end-point degrees over every
    edge counted in BOTH orientations: positive = hubs link hubs
    (organic social/citation shape), strongly negative = hub-and-spoke
    (the link-farm / SEO-network shape).  One number that profiles the
    whole crawl graph.

    Output: one row ``(g=0, n, corr)`` — ``n`` = 2 × #edges, ``corr``
    via :func:`agg.grouped_corr`'s exact integer-moment formula (so the
    SQL mirror is bit-identical).

    Scale shape: canonical edge dedup + one grouped degree count, two
    bucketed cogroups attach each endpoint's degree to the edge rows
    (ints only), then grouped_corr's partial-moment merge."""
    from pdf_extract_ray.stages.agg import (
        bucketed_group_apply, grouped_aggregate, grouped_corr)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src].to_numpy(np.int64)
        c = b[dst].to_numpy(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"lo": np.minimum(a, c),
                             "hi": np.maximum(a, c)}).drop_duplicates()

    ded = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), ["lo", "hi"],
        lambda g: g.drop_duplicates(), num_buckets=num_buckets,
        pre_batch_size=65536).materialize()

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [b["lo"].to_numpy(np.int64), b["hi"].to_numpy(np.int64)])})

    deg = grouped_aggregate(
        ded.map_batches(endpoints, batch_format="pandas"),
        ["node"], {"degree": ("node", "count")}, num_buckets=num_buckets)

    def attach(edge_ds: Dataset, payload: list, end: str,
               out: str) -> Dataset:
        # identical int64 schemas on BOTH union sides (the repo's union
        # trap: mismatched/None columns break the Arrow shuffle)
        def e_rows(b: pd.DataFrame, _e=end) -> pd.DataFrame:
            f = pd.DataFrame({c: b[c].to_numpy(np.int64)
                              for c in payload})
            f["key"] = b[_e].to_numpy(np.int64)
            f["degree"] = np.int64(-1)
            f["side"] = np.int8(0)
            return f

        def d_rows(b: pd.DataFrame) -> pd.DataFrame:
            f = pd.DataFrame({c: np.full(len(b), -1, dtype=np.int64)
                              for c in payload})
            f["key"] = b["node"].to_numpy(np.int64)
            f["degree"] = b["degree"].to_numpy(np.int64)
            f["side"] = np.int8(1)
            return f

        def join(g: pd.DataFrame, _o=out) -> pd.DataFrame:
            d = g[g["side"] == 1]
            dmap = pd.Series(d["degree"].to_numpy(np.int64),
                             index=d["key"].to_numpy(np.int64))
            e = g[g["side"] == 0]
            f = pd.DataFrame({c: e[c].to_numpy(np.int64)
                              for c in payload})
            f[_o] = dmap.reindex(e["key"].to_numpy(np.int64)
                                 ).to_numpy(np.int64)
            return f

        return bucketed_group_apply(
            edge_ds.map_batches(e_rows, batch_format="pandas").union(
                deg.map_batches(d_rows, batch_format="pandas")),
            ["key"], join, num_buckets=num_buckets,
            pre_batch_size=65536)

    with_dlo = attach(ded, ["lo", "hi"], "lo", "dlo")
    with_both = attach(with_dlo, ["lo", "hi", "dlo"], "hi", "dhi")

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        x = b["dlo"].to_numpy(np.int64)
        y = b["dhi"].to_numpy(np.int64)
        return pd.DataFrame({
            "g": np.int64(0),
            "x": np.concatenate([x, y]),
            "y": np.concatenate([y, x])})

    return grouped_corr(
        with_both.map_batches(orient, batch_format="pandas"),
        ["g"], "x", "y", num_buckets=num_buckets)


def degree_assortativity_oracle_sql(edges_sql: str, *, src: str = "src",
                                    dst: str = "dst") -> str:
    """DuckDB mirror of :func:`degree_assortativity` (grouped_corr's
    exact moment expression over both edge orientations)."""
    from pdf_extract_ray.stages.agg import grouped_corr_oracle_sql

    both = f"""
(WITH __da_e AS (SELECT DISTINCT least({src}, {dst}) AS lo,
                        greatest({src}, {dst}) AS hi
                 FROM ({edges_sql}) WHERE {src} <> {dst}),
__da_n AS (SELECT lo AS node FROM __da_e
           UNION ALL SELECT hi FROM __da_e),
__da_d AS (SELECT node, count(*) AS degree FROM __da_n GROUP BY node),
__da_j AS (SELECT d1.degree AS x, d2.degree AS y
           FROM __da_e e
           JOIN __da_d d1 ON d1.node = e.lo
           JOIN __da_d d2 ON d2.node = e.hi)
SELECT 0 AS g, x, y FROM __da_j
UNION ALL SELECT 0, y, x FROM __da_j)
"""
    return grouped_corr_oracle_sql(both, ["g"], "x", "y")


def label_propagation(
    edges: Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_iters: int = 10,
    num_buckets: int | None = None,
) -> Dataset:
    """Community detection by SYNCHRONOUS label propagation (Raghavan
    et al. 2007, public paper) with a fully deterministic frozen rule,
    so the distributed result equals a single-process reference
    bit-for-bit regardless of block topology:

    * the graph is undirected (edges symmetrized), self-loops dropped,
      parallel edges counted once;
    * labels initialize to the node id;
    * each round EVERY node simultaneously adopts the most frequent
      label among its neighbors' current labels plus ONE self-vote;
      ties go to the smallest label (sync + frozen tie-break = no
      arrival-order dependence, unlike the paper's async sweep);
    * the loop stops when no label changed or after ``max_iters``
      rounds (sync LPA can 2-cycle on bipartite structures; the cap
      bounds that deterministically).

    Returns ``(node, label)``.

    Scale shape: the symmetrized edge list (2 int64 columns) is
    deduped and materialized ONCE; each round is (a) one bucketed
    cogroup attaching source labels to edges and (b) one bucketed
    majority vote by destination — labels are never broadcast, and
    the per-round driver scalar is the changed-label count."""
    import ray.data as rd

    from pdf_extract_ray.stages.agg import bucketed_group_apply

    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    def sym(b: pd.DataFrame) -> pd.DataFrame:
        s = b[src_col].to_numpy(np.int64)
        d = b[dst_col].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pd.DataFrame({"src": np.concatenate([s, d]),
                             "dst": np.concatenate([d, s])})

    # dedup parallel edges in one bucketed pass (a duplicate pair
    # shares its src, so bucketing by src sees both copies), then pin:
    # the loop re-consumes the edge list every round
    sym_edges = bucketed_group_apply(
        edges.map_batches(sym, batch_format="pandas"), ["src"],
        lambda g: g.drop_duplicates(["src", "dst"]),
        num_buckets=num_buckets, pre_batch_size=65536).materialize()

    labels = bucketed_group_apply(
        sym_edges.map_batches(
            lambda b: pd.DataFrame({"node": b["src"].to_numpy()}),
            batch_format="pandas"),
        ["node"],
        lambda g: pd.DataFrame({"node": (u := g["node"].unique()),
                                "label": u}),
        num_buckets=num_buckets, pre_batch_size=65536).materialize()

    for _ in range(max_iters):
        e_rows = sym_edges.map_batches(
            lambda b: pd.DataFrame({
                "k": b["src"].to_numpy(np.int64),
                "dst": b["dst"].to_numpy(np.int64),
                "lab": np.int64(-1), "side": np.int8(1)}),
            batch_format="pandas")
        l_rows = labels.map_batches(
            lambda b: pd.DataFrame({
                "k": b["node"].to_numpy(np.int64),
                "dst": np.int64(-1),
                "lab": b["label"].to_numpy(np.int64),
                "side": np.int8(0)}),
            batch_format="pandas")

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            lab = g[g["side"] == 0].set_index("k")["lab"]
            e = g[g["side"] == 1]
            return pd.DataFrame({
                "node": e["dst"].to_numpy(np.int64),
                "lab": lab.reindex(e["k"]).to_numpy(np.int64),
                "is_self": np.int8(0)})

        msgs = bucketed_group_apply(
            e_rows.union(l_rows), ["k"], attach,
            num_buckets=num_buckets, pre_batch_size=65536)

        self_rows = labels.map_batches(
            lambda b: pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "lab": b["label"].to_numpy(np.int64),
                "is_self": np.int8(1)}),
            batch_format="pandas")

        def vote(g: pd.DataFrame) -> pd.DataFrame:
            cnt = (g.groupby(["node", "lab"], sort=False).size()
                   .reset_index(name="n"))
            cnt = cnt.sort_values(["node", "n", "lab"],
                                  ascending=[True, False, True],
                                  kind="mergesort")
            win = cnt.drop_duplicates("node")[["node", "lab"]]
            old = g[g["is_self"] == 1][["node", "lab"]].rename(
                columns={"lab": "old"})
            m = win.merge(old, on="node", how="left")
            return pd.DataFrame({
                "node": m["node"].to_numpy(np.int64),
                "label": m["lab"].to_numpy(np.int64),
                "changed": (m["lab"] != m["old"]).to_numpy()})

        new_labels = bucketed_group_apply(
            msgs.union(self_rows), ["node"], vote,
            num_buckets=num_buckets, pre_batch_size=65536).materialize()
        n_changed = int(new_labels.sum("changed") or 0)
        labels = new_labels.drop_columns(["changed"]).materialize()
        if n_changed == 0:
            break

    return labels


def label_propagation_reference(
    edge_pairs,
    *,
    max_iters: int = 10,
) -> dict:
    """Independent single-process reference for
    :func:`label_propagation` — same frozen rule via plain dicts; used
    by the golden generator and the parity tests."""
    from collections import Counter, defaultdict

    nbrs = defaultdict(set)
    for s, d in edge_pairs:
        s, d = int(s), int(d)
        if s != d:
            nbrs[s].add(d)
            nbrs[d].add(s)
    labels = {v: v for v in nbrs}
    for _ in range(max_iters):
        new = {}
        for v in nbrs:
            votes = Counter(labels[u] for u in nbrs[v])
            votes[labels[v]] += 1
            best = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            new[v] = best
        if new == labels:
            labels = new
            break
        labels = new
    return labels
