"""Host-level PageRank over a link-edge Dataset (Page et al. 1999 —
public paper): the canonical link-based quality prior for crawl
corpora (seed selection, spam demotion, crawl ordering).

Semantics (frozen): damped power iteration with uniform teleport and
uniform dangling-mass redistribution::

    r'(v) = (1-d)/N + d * ( Σ_{u→v} w(u,v)/W(u) · r(u)  +  D/N )

where ``W(u)`` is u's total outgoing weight, ``D`` the total rank held
by dangling nodes (no outlinks), and N the node count.  Stops after
``n_iter`` rounds or when the L1 delta drops below ``tol``.

Scale shape / partitioning assumption (documented per the
custom-operator rule): the VERTEX state — one float per distinct host —
is bounded and broadcast each round (``ray.put`` once per iteration,
read per task); real host graphs are ~10^8 nodes ≈ a few GB, the
classic "vertex state fits, edges don't" regime.  The EDGE set streams:
it is materialized once (pinned blocks, spillable) and each iteration
is one narrow map over edges (broadcast lookup, emits (dst, partial)
rows pre-summed per batch) plus one small bucketed merge
(``grouped_aggregate``) — edge text never moves twice, and nothing
driver-side ever scales with the edge count.  This operator targets
the host graph its input (``stages/links.host_link_edges``) produces.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
from ray.data import Dataset

from pdf_extract_ray.stages.agg import grouped_aggregate
from pdf_extract_ray.util import round_half_away


def pagerank(
    edges: Dataset,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str | None = None,
    damping: float = 0.85,
    n_iter: int = 20,
    tol: float = 1e-9,
    round_digits: int | None = 6,
    teleport: "dict | pd.Series | None" = None,
) -> pd.DataFrame:
    """``(node, rank)`` DataFrame (bounded by the vertex-state
    assumption), ranks summing to 1; deterministic given the edge set.

    ``teleport``: optional node→weight map.  When given, the random
    jump lands on nodes proportional to these weights instead of
    uniformly — TrustRank (Gyöngyi et al. 2004, public paper): seed the
    vector with vetted hosts and trust flows out along links, demoting
    hosts no seed can reach.  Frozen conventions: weights are
    normalized over the graph's node set (entries for absent nodes are
    ignored; all-zero/absent raises); dangling mass is redistributed
    proportional to the SAME vector; iteration starts from the teleport
    distribution.  ``teleport=None`` keeps the uniform expressions
    bit-identical to the classic PageRank path (committed goldens)."""
    edges = edges.materialize()  # iterated n_iter times — execute once

    wexpr = {"w": (weight_col, "sum")} if weight_col else {
        "w": (dst_col, "count")}
    deg = grouped_aggregate(edges, [src_col], wexpr).to_pandas()
    dst_seen = grouped_aggregate(
        edges, [dst_col], {"n": (dst_col, "count")}).to_pandas()
    nodes = pd.Index(
        sorted(set(deg[src_col]) | set(dst_seen[dst_col])), name="node")
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="object"),
                             "rank": pd.Series([], dtype="float64")})

    out_w = pd.Series(0.0, index=nodes)
    out_w.loc[deg[src_col].to_numpy()] = deg["w"].to_numpy(np.float64)
    dangling = out_w == 0.0
    safe_w = out_w.where(out_w > 0, np.inf)
    if teleport is None:
        t = None
        rank = pd.Series(1.0 / n, index=nodes)
    else:
        t = pd.Series(teleport, dtype="float64").reindex(nodes).fillna(0.0)
        t_tot = float(t.sum())
        if t_tot <= 0.0:
            raise ValueError(
                "teleport must give positive weight to >=1 graph node")
        t = t / t_tot
        rank = t.copy()

    for _ in range(n_iter):
        frac = rank / safe_w  # per-unit-weight contribution of each src
        handle = ray.put(frac)

        def contrib(b: pd.DataFrame, h=handle) -> pd.DataFrame:
            f = ray.get(h)
            c = f.reindex(b[src_col]).to_numpy(np.float64)
            if weight_col:
                c = c * b[weight_col].to_numpy(np.float64)
            # pre-sum per batch: the shuffle carries <= nodes rows/batch
            part = (pd.DataFrame({dst_col: b[dst_col].to_numpy(), "c": c})
                    .groupby(dst_col, sort=False, as_index=False)["c"].sum())
            return part

        sums = grouped_aggregate(
            edges.map_batches(contrib, batch_format="pandas"),
            [dst_col], {"s": ("c", "sum")}).to_pandas()
        s = pd.Series(0.0, index=nodes)
        s.loc[sums[dst_col].to_numpy()] = sums["s"].to_numpy(np.float64)
        d_mass = float(rank[dangling].sum())
        if t is None:
            new = (1.0 - damping) / n + damping * (s + d_mass / n)
        else:
            new = (1.0 - damping) * t + damping * (s + d_mass * t)
        delta = float((new - rank).abs().sum())
        rank = new
        if tol and delta < tol:
            break

    vals = rank.to_numpy()
    if round_digits is not None:
        vals = round_half_away(vals, round_digits)
    return pd.DataFrame({"node": nodes.to_numpy(), "rank": vals})


def pagerank_reference(
    edges: pd.DataFrame,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    weight_col: str | None = None,
    damping: float = 0.85,
    n_iter: int = 20,
    tol: float = 1e-9,
    round_digits: int | None = 6,
    teleport: "dict | pd.Series | None" = None,
) -> pd.DataFrame:
    """Single-process dense-numpy mirror of :func:`pagerank` (same frozen
    semantics, independent implementation, including the TrustRank
    ``teleport`` conventions) — the golden generator and the tests'
    comparison point."""
    w = (edges[weight_col].to_numpy(np.float64) if weight_col
         else np.ones(len(edges)))
    nodes = pd.Index(
        sorted(set(edges[src_col]) | set(edges[dst_col])), name="node")
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="object"),
                             "rank": pd.Series([], dtype="float64")})
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.array([idx[v] for v in edges[src_col]], dtype=np.int64)
    di = np.array([idx[v] for v in edges[dst_col]], dtype=np.int64)
    out_w = np.bincount(si, weights=w, minlength=n)
    dangling = out_w == 0.0
    safe_w = np.where(out_w > 0, out_w, np.inf)
    if teleport is None:
        t = None
        r = np.full(n, 1.0 / n)
    else:
        ts = pd.Series(teleport, dtype="float64").reindex(nodes).fillna(0.0)
        t_tot = float(ts.sum())
        if t_tot <= 0.0:
            raise ValueError(
                "teleport must give positive weight to >=1 graph node")
        t = (ts / t_tot).to_numpy(np.float64)
        r = t.copy()
    for _ in range(n_iter):
        c = r[si] / safe_w[si] * w
        s = np.bincount(di, weights=c, minlength=n)
        d_mass = r[dangling].sum()
        if t is None:
            new = (1.0 - damping) / n + damping * (s + d_mass / n)
        else:
            new = (1.0 - damping) * t + damping * (s + d_mass * t)
        delta = np.abs(new - r).sum()
        r = new
        if tol and delta < tol:
            break
    vals = round_half_away(r, round_digits) if round_digits is not None else r
    return pd.DataFrame({"node": nodes.to_numpy(), "rank": vals})


def hits(
    edges: Dataset,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    n_iter: int = 20,
    round_digits: int | None = 6,
) -> pd.DataFrame:
    """HITS hubs/authorities (Kleinberg 1999, public paper) over the
    link-edge Dataset — the other classic web-graph quality signal
    (a good hub links to good authorities and vice versa).

    Frozen semantics: start all-ones; each round ``a(v) = Σ_{u→v} h(u)``
    then L2-normalize, ``h(u) = Σ_{u→v} a(v)`` then L2-normalize;
    fixed ``n_iter`` rounds (no tolerance early-stop, so distributed and
    reference cannot diverge by a round).

    Scale shape: same regime as :func:`pagerank` — the vertex vectors
    broadcast per half-round (``ray.put``), the edge set is materialized
    once and each half-round is one narrow map over edges with per-batch
    pre-summing + one small bucketed merge.  Unweighted on purpose
    (HITS' classical definition; parallel edges count multiply).
    """
    import ray

    edges = edges.materialize()
    deg = grouped_aggregate(
        edges, [src_col], {"n": (src_col, "count")}).to_pandas()
    dst_seen = grouped_aggregate(
        edges, [dst_col], {"n": (dst_col, "count")}).to_pandas()
    nodes = pd.Index(
        sorted(set(deg[src_col]) | set(dst_seen[dst_col])), name="node")
    n = len(nodes)
    if n == 0:
        e = pd.Series([], dtype="float64")
        return pd.DataFrame({"node": pd.Series([], dtype="object"),
                             "hub": e, "authority": e})

    hub = pd.Series(1.0, index=nodes)
    auth = pd.Series(1.0, index=nodes)

    def propagate(vec: pd.Series, key_in: str, key_out: str) -> pd.Series:
        handle = ray.put(vec)

        def contrib(b: pd.DataFrame, h=handle) -> pd.DataFrame:
            v = ray.get(h)
            c = v.reindex(b[key_in]).fillna(0.0).to_numpy(np.float64)
            return (pd.DataFrame({"node": b[key_out].to_numpy(), "c": c})
                    .groupby("node", sort=False, as_index=False)["c"].sum())

        sums = grouped_aggregate(
            edges.map_batches(contrib, batch_format="pandas"),
            ["node"], {"s": ("c", "sum")}).to_pandas()
        out = pd.Series(0.0, index=nodes)
        out.loc[sums["node"].to_numpy()] = sums["s"].to_numpy(np.float64)
        norm = float(np.sqrt((out.to_numpy() ** 2).sum()))
        return out / norm if norm > 0 else out

    for _ in range(n_iter):
        auth = propagate(hub, src_col, dst_col)
        hub = propagate(auth, dst_col, src_col)

    hv, av = hub.to_numpy(), auth.to_numpy()
    if round_digits is not None:
        hv = round_half_away(hv, round_digits)
        av = round_half_away(av, round_digits)
    return pd.DataFrame({"node": nodes.to_numpy(), "hub": hv,
                         "authority": av})


def hits_reference(
    edges: pd.DataFrame,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    n_iter: int = 20,
    round_digits: int | None = 6,
) -> pd.DataFrame:
    """Dense-numpy single-process mirror of :func:`hits` (independent
    implementation — golden generator and test comparison point)."""
    nodes = pd.Index(
        sorted(set(edges[src_col]) | set(edges[dst_col])), name="node")
    n = len(nodes)
    if n == 0:
        e = pd.Series([], dtype="float64")
        return pd.DataFrame({"node": pd.Series([], dtype="object"),
                             "hub": e, "authority": e})
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.array([idx[v] for v in edges[src_col]], dtype=np.int64)
    di = np.array([idx[v] for v in edges[dst_col]], dtype=np.int64)
    h = np.ones(n)
    a = np.ones(n)

    def norm(x):
        nn = np.sqrt((x ** 2).sum())
        return x / nn if nn > 0 else x

    for _ in range(n_iter):
        a = norm(np.bincount(di, weights=h[si], minlength=n))
        h = norm(np.bincount(si, weights=a[di], minlength=n))
    if round_digits is not None:
        h = round_half_away(h, round_digits)
        a = round_half_away(a, round_digits)
    return pd.DataFrame({"node": nodes.to_numpy(), "hub": h,
                         "authority": a})
