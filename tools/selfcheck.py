"""Self-check harness mimicking the driver's correctness gate: run each
``queries()`` entry and its ``oracle_sql()`` twin at a given sf over the
testdata parquet, compare row-count + schema + order-insensitive values.

Usage: python tools/selfcheck.py [sf_dir] [query ...]

Exits 1 when a query fails, 2 when a named query is not registered.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# the registry of THIS checkout, whatever the working directory
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

TABLES = ("documents", "embeddings")


def as_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("datetime64[us]").astype(str)
        elif pd.api.types.is_bool_dtype(s):
            df[c] = s.astype(bool)
        elif pd.api.types.is_float_dtype(s):
            df[c] = s.round(9)
        elif pd.api.types.is_integer_dtype(s):
            df[c] = s.astype("int64")
        else:
            df[c] = s.astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import __ray_entry__ as entry

    qs = entry.queries()
    unknown = sorted(only - set(qs))
    if unknown:
        print(f"unknown queries: {' '.join(unknown)}")
        return 2

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    oracles = entry.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(as_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [no oracle]")
            continue
        try:
            exp = canon(con.sql(oracles[name]).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            n_fail += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL  {name}: columns {list(got.columns)} vs {list(exp.columns)}")
            n_fail += 1
            continue
        if len(got) != len(exp):
            print(f"FAIL  {name}: rows {len(got)} vs {len(exp)}")
            n_fail += 1
            continue
        if not got.equals(exp):
            neq = (got != exp).any(axis=0)
            bad_cols = list(neq[neq].index)
            print(f"FAIL  {name}: value mismatch in {bad_cols}")
            for c in bad_cols[:2]:
                mask = got[c] != exp[c]
                print("   got:", got.loc[mask, c].head(3).tolist())
                print("   exp:", exp.loc[mask, c].head(3).tolist())
            n_fail += 1
            continue
        print(f"PASS  {name}: {len(got)} rows ({dt:.1f}s)")
        n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
