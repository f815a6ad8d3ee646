"""Expected outputs from the program's single-process references, and the
comparison every timed run is checked with.

Extraction workloads compare a digest of ``extracted_text`` per url against
``oracle_extract``.  A multi-row document is one url whose rows, in
``warc_ts`` order, form the document (the staged plan's order contract);
its reference is ``oracle_extract`` over the concatenation of those rows'
HTML, which the generator keeps equivalent by emitting self-contained
fragments.  The tiering workload compares the tier label and the frozen
signal columns per url against ``tier_batch``; reject tiers are not
written, so they are not expected in the output.
"""

from __future__ import annotations

import glob
import hashlib
import os
from collections import defaultdict

import pyarrow.parquet as pq

SIGNALS = ("n_words", "stop_ratio", "mean_word_len", "dup_word_frac",
           "top_bigram_frac", "max_word_run")
TIERS = ("tier1", "tier2", "reject_short", "reject_repetitive")


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def rows_by_url(rows: list[dict]) -> dict[str, list[dict]]:
    """url -> its rows in ``warc_ts`` order."""
    by_url: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        by_url[r["url"]].append(r)
    for rs in by_url.values():
        rs.sort(key=lambda r: r["warc_ts"])
    return by_url


def merge_multirow(rows: list[dict]) -> list[dict]:
    """Rows -> one row per url, HTML concatenated in ``warc_ts`` order."""
    return [{**rs[0], "html": b"".join(r["html"] for r in rs)}
            for rs in rows_by_url(rows).values()]


def expected_extract(rows: list[dict]) -> dict[str, str]:
    from pdf_extract_ray.pipelines.extract import oracle_extract

    return {d["url"]: digest(d["extracted_text"])
            for d in oracle_extract(merge_multirow(rows))}


def tier_signal_digest(tier: str, signals) -> str:
    return digest(tier, *(float(v) for v in signals))


def expected_tiers(rows: list[dict]) -> tuple[dict[str, str], dict[str, int]]:
    """(url -> digest of tier + signals for written tiers, rows per tier)."""
    import pandas as pd

    from pdf_extract_ray.pipelines.webtext import tier_batch

    df = tier_batch(pd.DataFrame(rows), "text")
    counts = {t: int((df["tier"] == t).sum()) for t in TIERS}
    kept = df[~df["tier"].str.startswith("reject_")]
    exp = {u: tier_signal_digest(t, sig) for u, t, *sig in zip(
        kept["url"], kept["tier"], *(kept[c] for c in SIGNALS))}
    return exp, counts


def actual_extract(out_dir: str) -> list[tuple[str, str]]:
    """(url, digest) for every row the extraction pipeline wrote."""
    out = []
    for p in sorted(glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                              recursive=True)):
        t = pq.read_table(p, columns=["url", "extracted_text"])
        out += [(u, digest(x)) for u, x in zip(t["url"].to_pylist(),
                                              t["extracted_text"].to_pylist())]
    return out


def actual_tiers(out_dir: str) -> list[tuple[str, str]]:
    """(url, digest) for every row the tiering pipeline wrote; the tier
    comes from the ``tier=<label>`` directory of the file."""
    out = []
    for p in sorted(glob.glob(os.path.join(out_dir, "part=*", "**", "*.parquet"),
                              recursive=True)):
        tier = next(seg.split("=", 1)[1] for seg in p.split(os.sep)
                    if seg.startswith("tier="))
        t = pq.read_table(p, columns=["url", *SIGNALS])
        cols = [t[c].to_pylist() for c in SIGNALS]
        out += [(u, tier_signal_digest(tier, sig))
                for u, *sig in zip(t["url"].to_pylist(), *cols)]
    return out


def count_mismatches(expected: dict[str, str],
                     actual: list[tuple[str, str]]) -> int:
    """Urls whose output differs from the reference, is missing, is extra
    or is written more than once."""
    seen: dict[str, str] = {}
    bad = 0
    for url, d in actual:
        if url in seen or expected.get(url) != d:
            bad += 1
        seen.setdefault(url, d)
    bad += sum(1 for u in expected if u not in seen)
    return bad
