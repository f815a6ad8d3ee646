"""Small runtime helpers (no ray.init here — sessions are owned by callers)."""

from __future__ import annotations


def default_concurrency(reserve: int = 2, cap: int = 64) -> int:
    """Size an actor pool to the cluster: total CPUs minus a reserve for the
    read/write stages, so one pool never starves the rest of the pipeline."""
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 4))
        else:
            import os

            cpus = os.cpu_count() or 4
    except Exception:
        cpus = 4
    return max(1, min(cap, cpus - reserve))


# Python's str whitespace set (what .strip()/.split() match): SQL trim()
# is ASCII-only, so oracles mirroring a Python strip must pass these
# chars explicitly (frozen choice: Python semantics are authoritative).
# Generated from str.isspace itself — no isspace char exists above
# U+3000 — so this is exactly the .strip() set.
PY_WS = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())


def round_half_away(x, ndigits: int):
    """Round half away from zero (DuckDB/SQL ROUND semantics) — numpy and
    Python ``round`` use banker's rounding, which breaks oracle parity on
    exact .5 boundaries."""
    import numpy as np

    arr = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** ndigits
    out = np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale
    return out


def parse_stats(stats_str: str) -> list[dict]:
    """Parse ``Dataset.stats()`` into per-operator dicts (name, wall_s,
    tasks, remote_wall_total_s, udf_total_s, peak_heap_mib — the largest
    task's, rows) — the feedback loop for sizing batch/concurrency per
    stage without eyeballing the raw text.

    Multi-suboperator blocks (shuffle/aggregate stages) are summed across
    suboperators, with ``rows`` taken from the last suboperator that
    reports a row count (Ray omits counts for some reduce phases, so this
    is the best available proxy for operator output); cached operators are
    reported with ``cached: True`` instead of being dropped."""
    import re

    units = {"us": 1e-6, "ms": 1e-3, "s": 1.0}

    def total_of(label: str, text: str) -> float | None:
        m = re.search(label + r":.*? ([0-9.]+)(us|ms|s) total", text)
        return float(m.group(1)) * units[m.group(2)] if m else None

    out = []
    for block in stats_str.split("Operator ")[1:]:
        head = block.split("\n", 1)[0]
        if "[execution cached]" in head:
            name = head.split(":", 1)[0]
            out.append({"name": re.sub(r"^\d+ ", "", name), "cached": True})
            continue
        m = re.match(r"\d+ (.+?): .*?in ([0-9.]+)s", head)
        if not m:
            continue
        op = {"name": m.group(1), "wall_s": float(m.group(2))}
        tm = re.match(r"[^:]*: (\d+) tasks executed", head)
        if tm:
            op["tasks"] = int(tm.group(1))
        sub_parts = block.split("Suboperator ")
        sections = sub_parts[1:] if len(sub_parts) > 1 else [block]
        for label, key in (("Remote wall time", "remote_wall_total_s"),
                           ("UDF time", "udf_total_s")):
            vals = [v for v in (total_of(label, sec) for sec in sections)
                    if v is not None]
            if vals:
                op[key] = round(sum(vals), 6)
        heaps = [float(h) for h in re.findall(
            r"Peak heap memory usage \(MiB\):.*? ([0-9.]+) max", block)]
        if heaps:
            op["peak_heap_mib"] = max(heaps)
        rows = None
        for sec in sections:
            rm = re.search(r"Output num rows per block:.*? (\d+) total", sec)
            if rm:
                rows = int(rm.group(1))
        if rows is not None:
            op["rows"] = rows
        out.append(op)
    return out
