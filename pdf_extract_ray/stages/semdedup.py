"""Semantic deduplication over an embedding column — the SemDeDup shape
(Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
through semantic deduplication" — public paper): cluster embeddings with
a coarse k-means, then within each cluster drop all but one member of
every group of semantically near-identical vectors (pairwise cosine >=
threshold), keeping the member FARTHEST from the cluster centroid (the
paper's keep rule — edge points carry more information than the cluster
mode).

The reference repo has no embedding machinery at all (its similarity
stage is `aligner.py`'s sentence-pair scoring); this operator exists for
the training-data-pipeline mandate, composed from the engine's own
primitives.

Frozen deterministic variant:

1. Centroids: the hash-stride sample + farthest-point traversal shared
   with IVF ANN (``stages/similarity.py`` — deterministic and
   parallelism-independent; no iterative Lloyd refinement, cells only
   need to be STABLE for the keep rule to be reproducible).
2. One narrow map assigns every vector to its nearest centroid
   (euclidean argmin via the ``‖c‖² - 2 v·c`` trick — never an
   ``(n, C, d)`` tensor) and records its cosine to that centroid,
   rounded to 6 places (the frozen quantization shared by the
   embedding-near-dup family, so the committed golden cannot drift on
   last-ulp float noise).
3. ONE bucketed shuffle co-locates clusters (``bucketed_group_apply`` —
   the only data movement; expected cluster size is corpus/n_cells, so
   size ``n_cells`` to the target cluster size, NOT to the machine).
   Within each cluster a greedy sweep in ``(centroid_cos asc, id asc)``
   order keeps a vector iff its max cosine to the already-kept set is
   below ``threshold``; a dropped vector records ``dup_of`` = the kept
   vector it is closest to.  Sweeping farthest-from-centroid FIRST
   realizes the paper's keep-the-edge-point rule deterministically.

Scale shape: the pairwise-cosine step is quadratic in the CLUSTER, never
the corpus — clusters above ``max_cluster`` participate only up to the
cap (in sweep order); overflow rows are kept as-is with a logged drop
count, mirroring the capped-bucket convention of the MinHash/SimHash
paths.  The centroid table is tiny and broadcast once via ``ray.put``.

Oracle strategy: k-means + a greedy sweep is not SQL-expressible, so the
driver oracle is a COMMITTED golden produced by an independent
single-process brute-force implementation (``tools/gen_goldens.py``),
regenerated and re-verified in ``tests/test_goldens_oracle.py``.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from pdf_extract_ray.util import round_half_away

logger = logging.getLogger(__name__)

COS_DECIMALS = 6  # frozen quantization of every cosine this module emits


def _norm_rows(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return v / n


def sweep_cluster(
    ids: np.ndarray,
    vecs: np.ndarray,
    centroid_cos: np.ndarray,
    threshold: float,
    max_cluster: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedy keep sweep over ONE cluster in ``(centroid_cos asc, id
    asc)`` order.  Returns ``(order, kept, dup_of, n_overflow)`` where
    ``order`` is the sweep permutation and ``kept``/``dup_of`` are in
    sweep order (``dup_of`` = -1 for kept and overflow rows).  Shared by
    the distributed stage and the golden generator so the ONLY
    independent part of the golden is candidate generation (brute-force
    all-pairs vs clustered) — the keep rule itself cannot fork."""
    order = np.lexsort((ids, centroid_cos))
    n = len(ids)
    part = min(n, max_cluster)
    kept = np.zeros(n, dtype=bool)
    kept[part:] = True  # overflow beyond the cap: kept as-is
    dup_of = np.full(n, -1, dtype=np.int64)
    if part:
        vn = _norm_rows(vecs[order[:part]].astype(np.float64))
        sim = round_half_away(vn @ vn.T, COS_DECIMALS)
        sids = ids[order]
        kept_idx: list[int] = []
        for i in range(part):
            if kept_idx:
                s = sim[i, kept_idx]
                j = int(np.argmax(s))
                if s[j] >= threshold:
                    dup_of[i] = sids[kept_idx[j]]
                    continue
            kept[i] = True
            kept_idx.append(i)
    return order, kept, dup_of, n - part


def semantic_dedup(
    ds: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    n_cells: int = 16,
    sample_n: int = 2048,
    max_cluster: int = 2048,
) -> Dataset:
    """``(id_col, cluster, centroid_cos, kept, dup_of)`` — one row per
    input vector; ``kept == False`` rows are the semantic duplicates to
    drop, each pointing at the kept member that shadowed it (``dup_of``
    = -1 on kept rows — a plain-int sentinel, not NULL, so the column
    stays int64 through every Arrow/pandas boundary).

    ``n_cells`` is the quadratic-cost lever: expected cluster size is
    ``corpus / n_cells`` and the within-cluster cosine matrix is
    ``O(size²)`` — size it to hold the target cluster size (e.g. ~1-2k
    vectors), not to the machine.  ``threshold`` is the paper's eps knob:
    0.95+ drops only near-copies, lower values dedup paraphrase-level
    similarity."""
    import ray

    from pdf_extract_ray.stages.agg import bucketed_group_apply
    from pdf_extract_ray.stages.similarity import (
        _centroid_sample,
        _kmeanspp_lite,
    )

    sample = _centroid_sample(ds, id_col, vec_col, sample_n, n_cells)
    cents = _kmeanspp_lite(sample, n_cells)
    cents_ref = ray.put(np.ascontiguousarray(cents))
    cents_sq = (cents ** 2).sum(axis=1)
    cents_norm = np.linalg.norm(cents, axis=1)
    cents_norm[cents_norm == 0] = 1.0

    def assign(batch: pd.DataFrame) -> pa.Table:
        c = ray.get(cents_ref)
        vecs = batch[vec_col].to_numpy()
        v = np.stack(vecs).astype(np.float64)
        dots = v @ c.T
        cell = (cents_sq[None, :] - 2.0 * dots).argmin(axis=1)
        vn = np.linalg.norm(v, axis=1)
        vn[vn == 0] = 1.0
        cos = dots[np.arange(len(v)), cell] / (vn * cents_norm[cell])
        # Arrow, not pandas: a pandas frame's schema metadata names the
        # vectors' dtype as Ray's tensor dtype, which the shuffle's
        # to_pandas() can parse only in a worker that happened to import
        # Ray's pandas tensor module
        return pa.table({
            id_col: batch[id_col].to_numpy(),
            vec_col: pa.array(list(vecs)),
            "cluster": cell.astype(np.int64),
            "centroid_cos": round_half_away(cos, COS_DECIMALS),
        })

    def body(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        overflow = 0
        for cl, g in bucket.groupby("cluster", sort=False):
            ids = g[id_col].to_numpy()
            vecs = np.stack(g[vec_col].to_numpy())
            ccos = g["centroid_cos"].to_numpy()
            order, kept, dup_of, n_over = sweep_cluster(
                ids, vecs, ccos, threshold, max_cluster)
            overflow += n_over
            outs.append(pd.DataFrame({
                id_col: ids[order],
                "cluster": np.int64(cl),
                "centroid_cos": ccos[order],
                "kept": kept,
                "dup_of": dup_of,
            }))
        if overflow:
            logger.warning(
                "semantic_dedup: %d rows beyond max_cluster=%d kept "
                "without comparison (raise n_cells to shrink clusters)",
                overflow, max_cluster)
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "cluster": pd.Series([], dtype="int64"),
                "centroid_cos": pd.Series([], dtype="float64"),
                "kept": pd.Series([], dtype="bool"),
                "dup_of": pd.Series([], dtype="int64"),
            })
        return pd.concat(outs, ignore_index=True)

    return bucketed_group_apply(
        ds.map_batches(assign, batch_format="pandas"),
        ["cluster"],
        body,
    )
