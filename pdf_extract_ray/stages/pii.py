"""PII detection and redaction for training-data pipelines.

Extends the reference's content-filter stage (reference:
euaa_사례/sentences/add_metadata.py:155-193 drops rows matching unwanted
patterns) from drop-the-row to redact-in-place — the operation a web-text
corpus needs before models train on it.

Every rule is an RE2 regex applied with ``pyarrow.compute``'s
``count_substring_regex`` / ``replace_substring_regex`` — fully
vectorized Arrow kernels, zero-copy in and out of the object store, no
pandas conversion and no Python loop.  DuckDB's regex engine is also RE2,
so the driver oracle (nested ``regexp_replace(..., 'g')`` CTE chain)
matches byte-for-byte.

Rules apply IN ORDER, each counting matches on the text as left by the
previous rule (exactly mirroring the SQL CTE chain); replacement tokens
contain no digits so a later rule can never match inside an earlier
rule's redaction.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

# (name, RE2 pattern, replacement token) — ordered. The phone rule's
# middle group is 3-4 digits so it can never re-match an SSN (3-2-4).
PII_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+?\b\d{3}[- ]\d{3,4}[- ]\d{4}\b", "<PHONE>"),
)


def redact_batch(batch: pa.Table, text_col: str = "text",
                 out_col: str = "redacted_text",
                 rules: tuple = PII_RULES,
                 counts: bool = True) -> pa.Table:
    """One Arrow batch: append ``out_col`` (text with every rule's matches
    replaced by its token) and, when ``counts``, an int64 ``n_<rule>``
    column per rule (matches seen at that rule's turn)."""
    cur = pc.cast(batch.column(text_col), pa.string())
    cur = pc.fill_null(cur, "")
    for name, pattern, token in rules:
        if counts:
            n = pc.cast(pc.count_substring_regex(cur, pattern), pa.int64())
            batch = batch.append_column(f"n_{name}", n)
        cur = pc.replace_substring_regex(cur, pattern, token)
    return batch.append_column(out_col, cur)


def redact_pii(ds: Dataset, text_col: str = "text",
               out_col: str = "redacted_text",
               rules: tuple = PII_RULES, counts: bool = True,
               batch_size: int | None = None) -> Dataset:
    """Dataset-level PII redaction: one narrow ``map_batches`` stage, no
    shuffle, scale-free (each batch independent)."""
    return ds.map_batches(
        lambda b: redact_batch(b, text_col, out_col, rules, counts),
        batch_format="pyarrow", batch_size=batch_size,
    )


def pii_oracle_ctes(source_sql: str, text_expr: str = "text",
                    id_cols: str = "doc_id",
                    rules: tuple = PII_RULES) -> str:
    """The DuckDB CTE chain equivalent to :func:`redact_batch` — one CTE
    per rule, counting then replacing, so counts see exactly the text the
    Arrow kernel saw.  Returns a full SELECT."""
    sql = (f"WITH t0 AS (SELECT {id_cols}, {text_expr} AS __t "
           f"FROM ({source_sql}))")
    prev = "t0"
    count_cols = []
    for i, (name, pattern, token) in enumerate(rules, start=1):
        pat = pattern.replace("\\", "\\\\").replace("'", "''")
        count_cols.append(f"n_{name}")
        sql += (
            f", t{i} AS (SELECT {id_cols}, "
            + ", ".join(count_cols[:-1] + [
                f"len(regexp_extract_all(__t, e'{pat}')) AS n_{name}"])
            + f", regexp_replace(__t, e'{pat}', '{token}', 'g') AS __t "
            f"FROM {prev})")
        prev = f"t{i}"
    sql += (f" SELECT {id_cols}, " + ", ".join(count_cols)
            + f", __t AS redacted_text FROM {prev}")
    return sql
