"""From-scratch WARC (ISO 28500) reader: ingest Common-Crawl-style
archives directly into the engine's pages schema ``(url, warc_ts, html,
text, lang)`` — the format the reference's corpus ultimately comes from
(Common Crawl ships WARC; the parquet ``input_hint`` table is its
columnar mirror).

Format (public spec): a WARC file is a sequence of records::

    WARC/1.0\\r\\n
    <name>: <value>\\r\\n ...          (headers)
    \\r\\n
    <Content-Length bytes of block>
    \\r\\n\\r\\n                         (record terminator)

``response`` records carry an HTTP response message as the block; the
page bytes are the HTTP body after the header/body split.  ``.warc.gz``
files are a CONCATENATION of per-record gzip members (the spec's
record-at-time compression) — stdlib zlib handles member concatenation.

Scale shape: the FILE is the parallelism unit (a Common Crawl segment is
~10^4-10^5 files of ~1 GB) — ``read_warc`` maps a parse task per file
via ``read_binary_files`` and explodes records inside the task, so
records stream through the object store as normal Arrow blocks and no
driver-side parsing happens.  Malformed records degrade loudly-by-status
(skipped with a counted ``n_bad`` column available via
``parse_warc_stats``), never by crash — same policy as the PDF reader.

Only stdlib (zlib/gzip) is used; no external WARC library exists in this
environment and none is needed.
"""

from __future__ import annotations

import codecs
import gzip
import io
import re
import zlib
from datetime import datetime, timezone

import pyarrow as pa

_CRLF = b"\r\n"


def _split_headers(chunk: bytes) -> dict[bytes, bytes]:
    headers: dict[bytes, bytes] = {}
    for line in chunk.split(b"\n"):  # tolerate bare-LF HTTP servers
        if b":" in line:
            k, v = line.split(b":", 1)
            headers[k.strip().lower()] = v.strip()
    return headers


def _parse_warc_ts(raw: bytes):
    """WARC-Date (ISO 8601 ``YYYY-MM-DDThh:mm:ssZ``) -> naive UTC
    datetime (the pages schema's timestamp[us] convention)."""
    try:
        s = raw.decode("ascii").replace("Z", "+00:00")
        return (datetime.fromisoformat(s)
                .astimezone(timezone.utc).replace(tzinfo=None))
    except Exception:
        return None


_CHARSET_RE = re.compile(
    rb"charset\s*=\s*\"?([a-zA-Z0-9._:-]+)", re.IGNORECASE)
_HDR_END_RE = re.compile(rb"\r?\n\r?\n")


def _gunzip_members(data: bytes) -> tuple[bytes, bool]:
    """Decompress concatenated gzip members (the WARC spec's
    record-at-time compression), salvaging every complete member of a
    truncated/corrupt archive instead of crashing the parse task.
    Returns ``(decompressed, truncated_flag)``."""
    out, pos, n, bad_tail = [], 0, len(data), False
    while pos < n and data[pos:pos + 2] == b"\x1f\x8b":
        d = zlib.decompressobj(32 + zlib.MAX_WBITS)
        try:
            out.append(d.decompress(data[pos:]))
        except zlib.error:
            bad_tail = True
            break
        if not d.eof:  # member truncated mid-stream
            bad_tail = True
            break
        consumed = n - pos - len(d.unused_data)
        if consumed <= 0:
            bad_tail = True
            break
        pos += consumed
    if pos < n and not bad_tail:
        bad_tail = True  # trailing non-gzip garbage
    return b"".join(out), bad_tail


def _dechunk(body: bytes) -> bytes:
    """Reverse HTTP/1.1 chunked transfer coding (size-hex CRLF data CRLF
    ... 0 CRLF); malformed framing returns what was decoded so far plus
    nothing — loud-by-truncation, not by crash."""
    out, pos, n = [], 0, len(body)
    while pos < n:
        eol = body.find(b"\r\n", pos)
        if eol < 0:
            break
        size_tok = body[pos:eol].split(b";", 1)[0].strip()
        try:
            size = int(size_tok, 16)
        except ValueError:
            break
        if size == 0:
            break
        chunk = body[eol + 2:eol + 2 + size]
        out.append(chunk)
        if len(chunk) < size:
            break
        pos = eol + 2 + size + 2  # skip trailing CRLF
    return b"".join(out)


def _http_body(block: bytes) -> bytes:
    """HTTP response message -> page bytes: header/body split, chunked
    transfer decoding, HTTP-level gzip/deflate content decoding, and —
    when the Content-Type header declares a non-UTF-8 charset that
    strictly decodes — transcoding to UTF-8 (decode once at ingest; the
    header is gone after this point, so this is the only place the
    highest-priority charset signal can be honored).  A block that is
    not an HTTP message passes through whole; every failure degrades to
    the undecoded bytes (the extractor's meta-charset sniff still runs).
    """
    if not block.startswith(b"HTTP/"):
        return block
    m_sep = _HDR_END_RE.search(block)  # tolerate bare-LF servers
    if m_sep is None:
        return block  # no header terminator: degrade to the raw block
    headers = _split_headers(block[:m_sep.start()])
    body = block[m_sep.end():]
    if b"chunked" in headers.get(b"transfer-encoding", b"").lower():
        body = _dechunk(body)
    cenc = headers.get(b"content-encoding", b"").lower()
    if cenc in (b"gzip", b"x-gzip", b"deflate"):
        try:
            # 32+15: zlib OR gzip framing (servers mislabel); raw-deflate
            # retry for the historically broken "deflate" servers
            body = zlib.decompress(body, 32 + zlib.MAX_WBITS)
        except zlib.error:
            try:
                body = zlib.decompress(body, -zlib.MAX_WBITS)
            except zlib.error:
                pass
    m = _CHARSET_RE.search(headers.get(b"content-type", b""))
    if m:
        name = m.group(1).decode("ascii", "replace").lower()
        if name not in ("utf-8", "utf8", "us-ascii", "ascii"):
            # a body that is ALREADY strict UTF-8 wins over the header —
            # charset=iso-8859-1 on UTF-8 pages is a classic server
            # misconfiguration, and single-byte codecs decode anything,
            # so transcoding would mint irreversible mojibake (same
            # priority order as functions/encoding.decode_html_bytes)
            try:
                body.decode("utf-8")
            except UnicodeDecodeError:
                try:
                    info = codecs.lookup(name)
                    if not info.name.startswith(("utf-16", "utf-32")) or (
                            body[:4].startswith((codecs.BOM_UTF16_LE,
                                                 codecs.BOM_UTF16_BE))):
                        body = body.decode(info.name).encode("utf-8")
                except (UnicodeDecodeError, LookupError):
                    pass  # lying header: keep raw bytes for the meta sniff
    return body


def iter_warc_records(data: bytes):
    """Yield ``(headers: dict, block: bytes)`` per well-formed record;
    malformed tails/records are skipped (yielded as the count via
    ``parse_warc_file``'s n_bad)."""
    if data[:2] == b"\x1f\x8b":  # gzip member(s)
        data, bad_tail = _gunzip_members(data)
        if bad_tail:
            yield None  # counted: corrupt/truncated compressed tail
    pos, n = 0, len(data)
    while pos < n:
        # skip inter-record padding
        while pos < n and data[pos:pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            # resync: find the next record marker
            nxt = data.find(b"\r\n\r\nWARC/", pos)
            yield None
            if nxt < 0:
                break
            pos = nxt + 4
            continue
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            yield None
            break
        headers = _split_headers(data[pos:hdr_end])
        try:
            length = int(headers[b"content-length"])
        except (KeyError, ValueError):
            yield None
            nxt = data.find(b"\r\n\r\nWARC/", hdr_end)
            if nxt < 0:
                break
            pos = nxt + 4
            continue
        block_start = hdr_end + 4
        block_end = block_start + length
        if block_end > n:
            yield None
            break
        yield headers, data[block_start:block_end]
        pos = block_end


def parse_warc_file(data: bytes) -> tuple[list[dict], int]:
    """All ``response`` records of one WARC file as pages-schema rows,
    plus the malformed-record count."""
    rows, n_bad = [], 0
    for rec in iter_warc_records(data):
        if rec is None:
            n_bad += 1
            continue
        headers, block = rec
        if headers.get(b"warc-type") != b"response":
            continue
        uri = headers.get(b"warc-target-uri", b"").decode(
            "utf-8", "replace")
        rows.append({
            "url": uri,
            "warc_ts": _parse_warc_ts(headers.get(b"warc-date", b"")),
            "html": _http_body(block),
            "text": None,
            "lang": None,
        })
    return rows, n_bad


def parse_wet_file(data: bytes) -> tuple[list[dict], int]:
    """All ``conversion`` records of one WET file as pages-schema rows
    (text filled, html None), plus the malformed-record count.

    WET (public Common-Crawl companion format) is WARC framing whose
    records are ``WARC-Type: conversion`` carrying the PRE-EXTRACTED
    plain-text of a page as the block (no HTTP message) — the cheaper
    input most corpus builds actually start from.  Everything but the
    record type and body handling is the existing WARC reader."""
    rows, n_bad = [], 0
    for rec in iter_warc_records(data):
        if rec is None:
            n_bad += 1
            continue
        headers, block = rec
        if headers.get(b"warc-type") != b"conversion":
            continue
        uri = headers.get(b"warc-target-uri", b"").decode(
            "utf-8", "replace")
        rows.append({
            "url": uri,
            "warc_ts": _parse_warc_ts(headers.get(b"warc-date", b"")),
            "html": None,
            "text": block.decode("utf-8", "replace"),
            "lang": None,
        })
    return rows, n_bad


def _rows_to_table(rows: list[dict]) -> pa.Table:
    return pa.table({
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "warc_ts": pa.array([r["warc_ts"] for r in rows],
                            pa.timestamp("us")),
        # large_binary: one ~1 GB .warc.gz expands to several GB of
        # bodies in a single parse batch — 32-bit binary offsets overflow
        "html": pa.array([r["html"] for r in rows], pa.large_binary()),
        "text": pa.array([r["text"] for r in rows], pa.large_string()),
        "lang": pa.array([r["lang"] for r in rows], pa.string()),
    })


def _read_raw(path: str) -> bytes:
    """Raw file bytes (no decompression) via pyarrow.fs, so remote URIs
    (s3://...) work in the same code path as local files.  Going through
    our own reader instead of ``read_binary_files`` is deliberate twice
    over: Ray/Arrow auto-gunzip by ``.gz`` extension INSIDE the read task
    and crash outright on a truncated archive (the member-salvaging
    decompressor here must see the compressed bytes), and reading inside
    the parse task keeps the multi-GB archive blob out of the object
    store entirely — only parsed record rows ever become blocks."""
    from pyarrow import fs as pafs

    try:
        filesystem, fs_path = pafs.FileSystem.from_uri(path)
    except (ValueError, pa.ArrowInvalid):
        filesystem, fs_path = pafs.LocalFileSystem(), path
    with filesystem.open_input_stream(fs_path, compression=None) as f:
        return f.read()


def _warc_paths_ds(paths, **read_kwargs):
    import ray.data as rd

    if isinstance(paths, (str, bytes)):
        paths = [paths]
    return rd.from_items([{"path": str(p)} for p in paths], **read_kwargs)


def _read_archives(name, paths, parse_file, include_paths: bool,
                   read_kwargs):
    """Parse-in-task read shared by :func:`read_warc`/:func:`read_wet`:
    one parse call per file, malformed records logged and skipped, and
    with ``include_paths`` a ``path`` column naming each row's file (as
    ``ray.data.read_parquet(include_paths=True)`` does)."""
    files = _warc_paths_ds(paths, **read_kwargs)

    def parse(batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        sources: list[str] = []
        for path in batch["path"].to_pylist():
            r, bad = parse_file(_read_raw(path))
            if bad:
                import logging

                logging.getLogger(__name__).warning(
                    "%s: %d malformed record(s) skipped in %s",
                    name, bad, path)
            rows.extend(r)
            sources += [path] * len(r)
        t = _rows_to_table(rows)
        if include_paths:
            t = t.append_column("path", pa.array(sources, pa.string()))
        return t

    return files.map_batches(parse, batch_format="pyarrow", batch_size=1)


def read_warc(paths, *, include_paths: bool = False, **read_kwargs):
    """``Dataset`` of pages-schema rows from WARC/WARC.GZ files.  One
    parse task per file (the crawl's natural parallelism unit); archive
    bytes are read INSIDE the parse task (see :func:`_read_raw`).
    Malformed records are skipped with a per-file warning log (the same
    logged-drop loudness the dedup bucket caps use); run
    :func:`parse_warc_stats` over the same paths for a full audit."""
    return _read_archives("read_warc", paths, parse_warc_file, include_paths,
                          read_kwargs)


def read_wet(paths, *, include_paths: bool = False, **read_kwargs):
    """``Dataset`` of pages-schema rows (``text`` filled, ``html`` None)
    from WET/WET.GZ archives — same per-file parallelism, salvaging
    decompressor and loudness policy as :func:`read_warc`."""
    return _read_archives("read_wet", paths, parse_wet_file, include_paths,
                          read_kwargs)


def parse_warc_stats(paths, **read_kwargs):
    """Audit ``Dataset``: one row ``(path, n_records, n_bad)`` per WARC
    file — the loud-by-status channel for ingest-quality monitoring."""
    files = _warc_paths_ds(paths, **read_kwargs)

    def stats(batch: pa.Table) -> pa.Table:
        out = {"path": [], "n_records": [], "n_bad": []}
        for path in batch["path"].to_pylist():
            r, bad = parse_warc_file(_read_raw(path))
            out["path"].append(path)
            out["n_records"].append(len(r))
            out["n_bad"].append(bad)
        return pa.table({
            "path": pa.array(out["path"], pa.string()),
            "n_records": pa.array(out["n_records"], pa.int64()),
            "n_bad": pa.array(out["n_bad"], pa.int64()),
        })

    return files.map_batches(stats, batch_format="pyarrow", batch_size=1)


# ---------------------------------------------------------------------------
# deterministic fixture builder (tests / corpus synthesis)
# ---------------------------------------------------------------------------

def build_warc(pages: list[dict], *, compress: bool = False) -> bytes:
    """Inverse of :func:`parse_warc_file` for pages-schema dicts
    (url, warc_ts, html); deterministic bytes for committed fixtures.
    ``compress=True`` emits spec-style per-record gzip members."""
    out = io.BytesIO()
    for p in pages:
        body = p.get("html") or b""
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                + b"Content-Length: " + str(len(body)).encode() + _CRLF
                + _CRLF + body)
        ts = p.get("warc_ts")
        date = ((ts.strftime("%Y-%m-%dT%H:%M:%SZ") if ts else
                 "2020-01-01T00:00:00Z")).encode()
        rec = (b"WARC/1.0\r\n"
               b"WARC-Type: response\r\n"
               b"WARC-Target-URI: "
               # total builder: unencodable code points (e.g. lone
               # surrogates smuggled into a url string) degrade to
               # U+FFFD rather than crashing fixture generation
               + str(p.get("url", "")).encode("utf-8", "replace") + _CRLF
               + b"WARC-Date: " + date + _CRLF
               + b"Content-Length: " + str(len(http)).encode() + _CRLF
               + _CRLF + http + _CRLF + _CRLF)
        if compress:
            gz = gzip.GzipFile(fileobj=out, mode="wb", mtime=0)
            gz.write(rec)
            gz.close()
        else:
            out.write(rec)
    return out.getvalue()


def build_wet(docs: list[dict], *, compress: bool = False) -> bytes:
    """Inverse of :func:`parse_wet_file` for (url, warc_ts, text) dicts;
    deterministic bytes for committed fixtures."""
    out = io.BytesIO()
    for d in docs:
        body = ("" if d.get("text") is None else str(d["text"])) \
            .encode("utf-8")
        ts = d.get("warc_ts")
        date = ((ts.strftime("%Y-%m-%dT%H:%M:%SZ") if ts else
                 "2020-01-01T00:00:00Z")).encode()
        rec = (b"WARC/1.0\r\n"
               b"WARC-Type: conversion\r\n"
               b"WARC-Target-URI: "
               + str(d.get("url", "")).encode("utf-8", "replace") + _CRLF
               + b"WARC-Date: " + date + _CRLF
               + b"Content-Type: text/plain\r\n"
               + b"Content-Length: " + str(len(body)).encode() + _CRLF
               + _CRLF + body + _CRLF + _CRLF)
        if compress:
            gz = gzip.GzipFile(fileobj=out, mode="wb", mtime=0)
            gz.write(rec)
            gz.close()
        else:
            out.write(rec)
    return out.getvalue()


def write_wet(
    ds,
    out_dir: str,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    text_col: str = "text",
    compress: bool = True,
) -> "pa.Table":
    """Distributed WET export sink — the inverse of :func:`read_wet`:
    each block becomes one ``.wet[.gz]`` file of spec-shaped
    conversion records (:func:`build_wet` bytes), written atomically
    (tmp + rename) and named by the md5 of its content, so a re-run
    over identical data rewrites identical files instead of
    duplicating them.  Returns the small manifest table
    ``(path, n_records)`` (one row per written file).

    Scale shape: pure map — each task serializes only its own block,
    no shuffle, no driver materialization of bodies; parallelism =
    block count, mirroring read_wet's one-file-per-task layout."""
    import hashlib
    import os

    import numpy as np
    import pandas as pd

    os.makedirs(out_dir, exist_ok=True)

    def dump(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "n_records": pd.Series([], dtype="int64")})
        docs = [{"url": u, "warc_ts": None if pd.isna(t) else t,
                 "text": None if x is None else str(x)}
                for u, t, x in zip(b[url_col],
                                   pd.to_datetime(b[ts_col]),
                                   b[text_col])]
        data = build_wet(docs, compress=compress)
        suffix = ".wet.gz" if compress else ".wet"
        path = os.path.join(
            out_dir, "part-" + hashlib.md5(data).hexdigest()[:16] + suffix)
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path],
                             "n_records": np.array([len(docs)], np.int64)})

    import pyarrow as _pa

    manifest = ds.map_batches(dump, batch_format="pandas").to_pandas()
    return _pa.Table.from_pandas(manifest.sort_values("path")
                                 .reset_index(drop=True))
