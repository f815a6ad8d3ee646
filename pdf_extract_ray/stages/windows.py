"""Ordered self-pairing without a join: :func:`adjacent_pairs` pairs
each row with its successor on an integer order column inside the
bucketed grouped shuffle (stages/agg.py).
"""

from __future__ import annotations

import pandas as pd

from ray.data import Dataset


def adjacent_pairs(
    ds: Dataset,
    order_col: str,
    value_col: str,
    *,
    out_left: str = "kr_text",
    out_right: str = "en_text",
    block: int = 4096,
    num_buckets: int | None = None,
    pre_batch_size: int | None = None,
) -> Dataset:
    """Self-pair each row ``i`` with row ``i+1`` on an integer order column
    WITHOUT a hash join: range-bucket rows by ``order_col // block`` and
    send ONE ghost copy of each block's first row to the previous block,
    so every (i, i+1) pair is complete inside exactly one range bucket.
    The range buckets are then coarsened through the bucketed shuffle so
    block count never appears in the task count.

    Output: (order_col, out_left=value[i], out_right=value[i+1]) for every
    i where i+1 exists — identical to an inner self-join on
    ``right.order_col == left.order_col + 1``, at one shuffle of the data
    with no join build side.  Contract: ``order_col`` values are unique."""
    from pdf_extract_ray.stages.agg import bucketed_group_apply

    def route(b: pd.DataFrame) -> pd.DataFrame:
        k = b[order_col].to_numpy()
        rb = k // block
        main = pd.DataFrame({order_col: k, value_col: b[value_col].to_numpy(),
                             "__rb": rb, "__ghost": False})
        # no `rb > 0` guard: order values may be negative (the contract
        # only requires unique ints), and a ghost routed to a negative
        # range-block is harmless — it just keeps the (-1, 0) boundary pair
        gmask = k % block == 0
        if gmask.any():
            ghosts = pd.DataFrame({
                order_col: k[gmask], value_col: b[value_col].to_numpy()[gmask],
                "__rb": rb[gmask] - 1, "__ghost": True})
            return pd.concat([main, ghosts], ignore_index=True)
        return main

    def pair(bucket: pd.DataFrame) -> pd.DataFrame:
        # a row and its ghost can share a coarse bucket when adjacent range
        # blocks hash together: keep the main copy (sorts first)
        g = bucket.sort_values([order_col, "__ghost"], kind="mergesort")
        g = g.drop_duplicates(order_col, keep="first")
        k = g[order_col].to_numpy()
        v = g[value_col].to_numpy()
        ghost = g["__ghost"].to_numpy()
        if len(k) < 2:
            return pd.DataFrame({order_col: [], out_left: [], out_right: []})
        ok = (k[1:] == k[:-1] + 1) & ~ghost[:-1]
        return pd.DataFrame({
            order_col: k[:-1][ok],
            out_left: v[:-1][ok],
            out_right: v[1:][ok],
        })

    return bucketed_group_apply(
        ds.map_batches(route, batch_format="pandas"), ["__rb"], pair,
        num_buckets=num_buckets, pre_batch_size=pre_batch_size,
    )
