"""Frozen, seeded load generator for the three benchmark workloads.

The generator lives in the benchmark (not in ``pdf_extract_ray.corpus``) so
that a change to the program cannot reshape the load it is measured on.
Bump ``GEN_VERSION`` whenever the output of any function here changes: the
input cache is keyed by it.

The page mix follows the repo's documented input, FIXTURES.md F1 as
``pdf_extract_ray/corpus.py`` (``build_doc``) generates it: 30% ``ko``
documents in Hangul, Zipf-hot hosts, 2% empty bodies, 2% undecodable bytes
with a text fallback, 2% duplicate bodies under distinct urls, 1-3 pages of
1-3 sections, 20% dot-leader lines, paragraphs 35% hard-wrapped / 10%
spacing noise / 5% bold, and no pre-extracted text on 20% of pages.  The
vocabularies are the benchmark's own (400 words per language, so that the
tiering workload's long documents are not repetitive by construction).

Every document draws from its own ``random.Random`` seeded by
``sha256(workload, seed, doc_id)``, so the same seed always yields the same
parquet files regardless of generation order.
"""

from __future__ import annotations

import hashlib
import os
import random
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 2
EPOCH = datetime(2025, 3, 1)

# share of ko documents in FIXTURES.md F1
KO_SHARE = 0.3
# fused_extract: one row per document, 4 files
FUSED_DOCS = 4000
FUSED_FILES = 4
FUSED_HOSTS = 50
# staged_multirow_skew: every document spans several short rows; the
# STAGED_HOT_URLS Zipf-hot documents (STAGED_HOT_ROWS / rank rows each)
# together own about a quarter of all rows
STAGED_DOCS = 800
STAGED_FILES = 4
STAGED_HOT_URLS = 4
STAGED_HOT_ROWS = 480
# webtext_resume: one file per partition; RESUME_DONE of them are complete
# before the timed run starts
WEBTEXT_PARTITIONS = 12
WEBTEXT_DOCS_PER_PART = 500
WEBTEXT_DONE = 3

_SYLL = {
    "en": ("ka ri mo te lu sa ven dor pi la ne gro tis ba mer col an uth "
           "fre sel dar ino qua ple vis ron hal emi zo").split(),
    "ko": ("가 나 다 라 마 바 사 아 자 차 카 타 파 하 국 법 원 판 결 보 "
           "호 신 청 절 구 금 송 환 지 침 규 정 조 항 회 증 거 체 류 허").split(),
}
_STOP = ("the", "and", "of", "a", "to", "in", "is", "that", "for", "on")


def _vocab(n: int, lang: str) -> list[str]:
    rng = random.Random(f"perfbench-words-{lang}")
    out: list[str] = []
    seen = set(_STOP)
    while len(out) < n:
        w = "".join(rng.choice(_SYLL[lang]) for _ in range(rng.randint(2, 3)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


_WORDS = {lang: _vocab(400, lang) for lang in _SYLL}


def _rng(workload: str, seed: int, doc_id: int) -> random.Random:
    h = hashlib.sha256(f"{workload}:{seed}:{doc_id}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _lang(rng: random.Random) -> str:
    return "ko" if rng.random() < KO_SHARE else "en"


def _words(rng: random.Random, lang: str, n: int, stop_p: float) -> list[str]:
    """``n`` words; English text mixes in stopwords with probability
    ``stop_p``, Korean text has none."""
    if lang == "ko":
        stop_p = 0.0
    return [rng.choice(_STOP) if rng.random() < stop_p else rng.choice(_WORDS[lang])
            for _ in range(n)]


def _sentence(rng: random.Random, lang: str, n: int, end: str = ".") -> str:
    s = " ".join(_words(rng, lang, n, 0.12))
    return s[0].upper() + s[1:] + end


# --------------------------------------------------------------------------
# fused_extract
# --------------------------------------------------------------------------

def fused_doc(seed: int, doc_id: int) -> dict:
    """One raw page in the FIXTURES.md F1 mix (see the module docstring)."""
    rng = _rng("fused", seed, doc_id)
    lang = _lang(rng)
    host = min(FUSED_HOSTS - 1, int(rng.paretovariate(1.1)) - 1)
    row = {"url": f"https://h{host}.example/p/{doc_id}/{lang}",
           "warc_ts": EPOCH + timedelta(seconds=7 * doc_id),
           "html": b"", "text": None, "lang": lang}
    kind = rng.random()
    if kind < 0.02:
        row["html"] = b"<html><body></body></html>"
        return row
    if kind < 0.04:
        row["html"] = bytes(rng.randrange(256) for _ in range(64))
        row["text"] = " ".join(_sentence(rng, lang, rng.randint(4, 9))
                               for _ in range(3))
        return row
    if kind < 0.06 and doc_id >= 10:
        twin = fused_doc(seed, doc_id - 10)
        return {**row, "html": twin["html"], "text": twin["text"],
                "lang": twin["lang"]}
    parts = ["<html><head><title>t</title></head><body><header>site</header>"
             "<nav><a href='/'>home</a> | <a href='/a'>about</a></nav>"]
    plain = []
    for page in range(1, rng.choice((1, 1, 1, 2, 3)) + 1):
        parts.append(f'<section data-page="{page}">')
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(("h1", "h2", "h3"))
            # consecutive same-level headings must merge
            for _ in range(rng.choice((1, 1, 1, 2))):
                head = _sentence(rng, lang, rng.randint(2, 5), "")
                parts.append(f"<{h}>{head}</{h}>")
                plain.append(head)
            if rng.random() < 0.2:
                parts.append(f"<p>{_sentence(rng, lang, 3, '')} ........ "
                             f"{rng.randint(1, 99)}</p>")
            for _ in range(rng.randint(1, 5)):
                para = " ".join(_sentence(rng, lang, rng.randint(5, 14))
                                for _ in range(rng.randint(1, 3)))
                plain.append(para)
                style = rng.random()
                if style < 0.35:
                    toks = para.split()
                    cut = rng.randint(1, max(1, len(toks) - 1))
                    parts.append(f"<p>{' '.join(toks[:cut])}</p>"
                                 f"<p>{' '.join(toks[cut:])}</p>")
                elif style < 0.45:
                    noisy = para.replace(" ", "  ", 3).replace(
                        ".", f" ( {rng.choice(_WORDS[lang])} ) .", 1)
                    parts.append(f"<p>{noisy}</p>")
                elif style < 0.5:
                    parts.append(f"<p><b>{para}</b></p>")
                else:
                    parts.append(f"<p>{para}</p>")
        parts.append("</section>")
    parts.append("<footer>terms</footer><script>var x = 1;</script></body></html>")
    row["html"] = "".join(parts).encode()
    row["text"] = " ".join(plain) if rng.random() >= 0.2 else None
    return row


# --------------------------------------------------------------------------
# staged_multirow_skew
# --------------------------------------------------------------------------

def staged_rows(seed: int, doc_id: int) -> list[dict]:
    """All rows of one document.  Each row is a short self-contained HTML
    fragment; a paragraph may be cut across two rows so reassembly must
    recompose the sentence.  Documents ``0..STAGED_HOT_URLS-1`` are hot;
    the language mix is F1's."""
    rng = _rng("staged", seed, doc_id)
    lang = _lang(rng)
    url = f"https://m{doc_id % 97}.example/doc/{doc_id}/{lang}"
    n_rows = (STAGED_HOT_ROWS // (doc_id + 1) if doc_id < STAGED_HOT_URLS
              else rng.randint(2, 6))
    base = EPOCH + timedelta(minutes=doc_id)
    rows = []
    carry = ""
    for r in range(n_rows):
        frag = []
        if carry:
            frag.append(f"<p>{carry}</p>")
            carry = ""
        if rng.random() < 0.25:
            frag.append(f"<h2>{_sentence(rng, lang, rng.randint(2, 4), '')}</h2>")
        sent = _sentence(rng, lang, rng.randint(4, 10))
        if r < n_rows - 1 and rng.random() < 0.3:
            toks = sent.split()
            cut = rng.randint(1, max(1, len(toks) - 1))
            sent, carry = " ".join(toks[:cut]), " ".join(toks[cut:])
        frag.append(f"<p>{sent}</p>")
        rows.append({"url": url, "warc_ts": base + timedelta(seconds=r),
                     "html": "".join(frag).encode(), "text": None,
                     "lang": lang})
    return rows


# --------------------------------------------------------------------------
# webtext_resume
# --------------------------------------------------------------------------

def webtext_doc(seed: int, doc_id: int) -> dict:
    """One pre-extracted document (no html) in F1's language mix.  F1 has
    no tier mix, so the shares are the benchmark's choice, made so that
    every tier gets rows: 10% short, 10% repetitive, and long text that is
    stopword-rich (English only: tier1) or stopword-poor (tier2)."""
    rng = _rng("webtext", seed, doc_id)
    lang = _lang(rng)
    kind = rng.random()
    if kind < 0.1:
        text = " ".join(_words(rng, lang, rng.randint(3, 15), 0.2))
    elif kind < 0.2:
        chunk = _words(rng, lang, rng.randint(3, 6), 0.1)
        text = " ".join(chunk * rng.randint(8, 20))
    else:
        stop_p = 0.2 if kind < 0.65 else 0.02
        text = "\n".join(
            " ".join(_words(rng, lang, rng.randint(8, 20), stop_p)) + "."
            for _ in range(rng.randint(4, 16)))
    return {"url": f"https://w{doc_id % 53}.example/t/{doc_id}/{lang}",
            "warc_ts": EPOCH + timedelta(seconds=3 * doc_id),
            "text": text, "lang": lang}


# --------------------------------------------------------------------------
# files
# --------------------------------------------------------------------------

_SCHEMA = {
    "url": pa.string(), "warc_ts": pa.timestamp("us"), "html": pa.binary(),
    "text": pa.large_string(), "lang": pa.string(),
}


def _table(rows: list[dict]) -> pa.Table:
    cols = [c for c in _SCHEMA if c in rows[0]]
    return pa.table({c: pa.array([r[c] for r in rows], _SCHEMA[c]) for c in cols})


def _split(rows: list[dict], n_files: int) -> list[list[dict]]:
    step = -(-len(rows) // n_files)
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def workload_rows(workload: str, seed: int) -> list[list[dict]]:
    """The input files of one workload as lists of row dicts."""
    if workload == "fused_extract":
        return _split([fused_doc(seed, i) for i in range(FUSED_DOCS)], FUSED_FILES)
    if workload == "staged_multirow_skew":
        rows = [r for d in range(STAGED_DOCS) for r in staged_rows(seed, d)]
        # rows of one url land in different files and blocks
        random.Random(f"staged-order:{seed}").shuffle(rows)
        return _split(rows, STAGED_FILES)
    if workload == "webtext_resume":
        n = WEBTEXT_DOCS_PER_PART
        return [[webtext_doc(seed, p * n + i) for i in range(n)]
                for p in range(WEBTEXT_PARTITIONS)]
    raise ValueError(f"unknown workload {workload!r}")


def input_size(workload: str) -> int:
    """Documents per workload input (part of the cache key)."""
    return {"fused_extract": FUSED_DOCS, "staged_multirow_skew": STAGED_DOCS,
            "webtext_resume": WEBTEXT_PARTITIONS * WEBTEXT_DOCS_PER_PART}[workload]


def read_rows(files: list[str]) -> list[dict]:
    return [r for f in files for r in pq.read_table(f).to_pylist()]


def write_inputs(workload: str, seed: int, out_dir: str) -> list[str]:
    """Write the workload's parquet files into ``out_dir`` (created fresh by
    the caller) and return their paths in partition order."""
    paths = []
    for i, rows in enumerate(workload_rows(workload, seed)):
        path = os.path.join(out_dir, f"in_{i:04d}.parquet")
        pq.write_table(_table(rows), path)
        paths.append(path)
    return paths
