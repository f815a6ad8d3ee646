"""From-scratch PDF span extraction (sources/pdf.py): minimal PDFs are
built in-test (catalog/pages/fonts/content objects + xref), both plain
and Flate-compressed, and driven through span extraction, layout tagging
and the full document chain."""

import zlib

import pytest

from pdf_extract_ray.pipelines.extract import extract_document
from pdf_extract_ray.sources.pdf import pdf_pages_spans


def extract_pdf(data):
    """The document chain over a row whose only source is ``pdf``."""
    return extract_document("u", None, None, None, pdf=data)


def make_pdf(pages, compress=False):
    """pages: list of content-stream strings.  Returns minimal PDF bytes
    with fonts /F1 Helvetica and /F2 Helvetica-Bold on every page."""
    objs: list[bytes] = []

    def add(body: bytes) -> int:
        objs.append(body)
        return len(objs)

    font1 = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    font2 = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica-Bold >>")
    content_ids, page_ids = [], []
    for content in pages:
        raw = content.encode("latin-1")
        if compress:
            data = zlib.compress(raw)
            meta = f"<< /Length {len(data)} /Filter /FlateDecode >>".encode()
        else:
            data = raw
            meta = f"<< /Length {len(data)} >>".encode()
        content_ids.append(add(meta + b"\nstream\n" + data + b"\nendstream"))
    pages_id = len(objs) + 1 + len(pages)  # after page objects
    for cid in content_ids:
        page_ids.append(add(
            f"<< /Type /Page /Parent {pages_id} 0 R /Contents {cid} 0 R "
            f"/Resources << /Font << /F1 {font1} 0 R /F2 {font2} 0 R >> >> "
            ">>".encode()))
    kids = " ".join(f"{p} 0 R" for p in page_ids)
    assert add(
        f"<< /Type /Pages /Kids [ {kids} ] /Count {len(page_ids)} "
        f"/MediaBox [ 0 0 612 792 ] >>".encode()) == pages_id
    catalog = add(f"<< /Type /Catalog /Pages {pages_id} 0 R >>".encode())

    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for i, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objs) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root {catalog} 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


SIMPLE = (
    "BT /F2 18 Tf 72 700 Td (Document Title) Tj ET "
    "BT /F1 12 Tf 72 650 Td (First body sentence.) Tj ET "
    "BT /F1 12 Tf 72 630 Td (Second body sentence.) Tj ET "
)


class TestSpans:
    def test_simple_page(self):
        pages = pdf_pages_spans(make_pdf([SIMPLE]))
        assert len(pages) == 1
        p = pages[0]
        assert (p["width"], p["height"]) == (612.0, 792.0)
        lines = p["lines"]
        assert [l["text"] for l in lines] == [
            "Document Title", "First body sentence.", "Second body sentence."]
        title = lines[0]
        assert title["size"] == 18 and title["flags"] & 16  # bold
        assert lines[1]["flags"] == 0
        # y flipped top-based: title (baseline 700) is nearest the top
        assert title["y0"] < lines[1]["y0"] < lines[2]["y0"]
        assert title["x0"] == 72

    def test_flate_equals_plain(self):
        a = pdf_pages_spans(make_pdf([SIMPLE]))
        b = pdf_pages_spans(make_pdf([SIMPLE], compress=True))
        assert a == b

    def test_multi_page_and_order(self):
        pdf = make_pdf([SIMPLE, "BT /F1 10 Tf 72 400 Td (Page two text.) Tj ET"])
        pages = pdf_pages_spans(pdf)
        assert [p["page_no"] for p in pages] == [1, 2]
        assert pages[1]["lines"][0]["text"] == "Page two text."

    def test_tj_array_hex_escapes_and_td_chain(self):
        content = (
            "BT /F1 12 Tf 14 TL 72 700 Td [(Part) -250 ( one)] TJ "
            "0 -20 Td <48692100> Tj "
            "T* (Escaped \\(parens\\) \\101nd octal) Tj ET"
        )
        lines = pdf_pages_spans(make_pdf([content]))[0]["lines"]
        texts = [l["text"] for l in lines]
        assert texts[0] == "Part one"
        assert texts[1] == "Hi!"          # hex string; trailing NUL stripped by strip()
        assert "Escaped (parens) And octal" in texts[2]

    def test_tm_and_leading(self):
        content = ("BT /F1 12 Tf 14 TL 100 500 Td (a line.) Tj "
                   "' (after quote.) Tj ET "
                   "BT /F1 12 Tf 2 0 0 2 50 300 Tm (double size.) Tj ET")
        lines = pdf_pages_spans(make_pdf([content]))[0]["lines"]
        by_text = {l["text"].split()[0]: l for l in lines}
        # ' moved down one leading from (100,500)
        assert by_text["after"]["y1"] == pytest.approx(792 - 486)
        assert by_text["double"]["size"] == 24  # Tm scale doubles Tf size

    def test_garbage_and_unsupported_never_raise(self):
        assert pdf_pages_spans(None) == []
        assert pdf_pages_spans(b"not a pdf") == []
        assert pdf_pages_spans(b"%PDF-1.4 truncated garbage") == []
        # corrupt flate body -> page present, no lines
        bad = make_pdf([SIMPLE], compress=True).replace(b"stream\nx", b"stream\nZ")
        pages = pdf_pages_spans(bad)
        assert pages and pages[0]["lines"] == []

    def test_header_footer_margins_strip(self):
        content = ("BT /F1 8 Tf 72 780 Td (running header) Tj ET "
                   "BT /F1 12 Tf 72 400 Td (body keeps.) Tj ET "
                   "BT /F1 8 Tf 72 10 Td (page 3 of 9) Tj ET")
        d = extract_pdf(make_pdf([content]))
        assert d["extracted_text"] == "body keeps."


def make_type0_pdf(include_tounicode=True):
    """One page showing 2-byte CID codes through a Type0 font with (or
    without) a /ToUnicode CMap.  Codes: 0001='한' 0002='국' and the
    bfrange 0010-0012 -> '안','앉','않'."""
    cmap = (b"/CIDInit /ProcSet findresource begin\n"
            b"begincmap\n"
            b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
            b"2 beginbfchar\n<0001> <D55C>\n<0002> <AD6D>\nendbfchar\n"
            b"1 beginbfrange\n<0010> <0012> <C548>\nendbfrange\n"
            b"1 beginbfrange\n<0020> <0021> [<0041> <0042>]\nendbfrange\n"
            b"endcmap\nend")
    content = (b"BT /F9 14 Tf 72 700 Td <00010002> Tj ET "
               b"BT /F9 14 Tf 72 650 Td <0010001100120020 0021> Tj ET")
    tu_ref = b"/ToUnicode 1 0 R " if include_tounicode else b""
    objs = [
        # 1: ToUnicode CMap stream
        (f"<< /Length {len(cmap)} >>".encode()
         + b"\nstream\n" + cmap + b"\nendstream"),
        # 2: Type0 font
        (b"<< /Type /Font /Subtype /Type0 /BaseFont /NotoSansKR-Bold "
         + tu_ref + b"/Encoding /Identity-H >>"),
        # 3: content stream
        (f"<< /Length {len(content)} >>".encode()
         + b"\nstream\n" + content + b"\nendstream"),
        # 4: page
        (b"<< /Type /Page /Parent 5 0 R /Contents 3 0 R "
         b"/Resources << /Font << /F9 2 0 R >> >> >>"),
        # 5: pages
        (b"<< /Type /Pages /Kids [ 4 0 R ] /Count 1 "
         b"/MediaBox [ 0 0 612 792 ] >>"),
        # 6: catalog
        b"<< /Type /Catalog /Pages 5 0 R >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    for i, body in enumerate(objs, start=1):
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    out += b"trailer\n<< /Root 6 0 R >>\n%%EOF\n"
    return bytes(out)


class TestType0Fonts:
    def test_tounicode_decodes_cid_text(self):
        pages = pdf_pages_spans(make_type0_pdf())
        lines = pages[0]["lines"]
        texts = [l["text"] for l in lines]
        assert texts[0] == "한국"
        assert texts[1] == "안앉않AB"
        assert lines[0]["flags"] & 16  # Bold from BaseFont name

    def test_type0_without_tounicode_is_skipped(self):
        pages = pdf_pages_spans(make_type0_pdf(include_tounicode=False))
        assert pages[0]["lines"] == []

    def test_korean_document_chain(self):
        d = extract_pdf(make_type0_pdf())
        assert "한국" in d["extracted_text"]


class TestDocumentChain:
    def test_full_chain_title_and_sentences(self):
        d = extract_pdf(make_pdf([SIMPLE]))
        assert d["status"] == "pdf"
        assert d["extracted_text"].splitlines()[0] == "Document Title"
        assert "First body sentence." in d["extracted_text"]
        assert d["n_pages"] == 1

    def test_rejected_on_unparseable(self):
        d = extract_pdf(b"junk")
        assert d["status"] == "rejected" and d["extracted_text"] == ""

    def test_documents_corpus_round_trip_preserves_words(self):
        """pdfs_from_documents -> extract recovers every body word in
        order (whitespace/line wrapping aside)."""
        import pyarrow as pa

        from pdf_extract_ray.corpus import pdfs_from_documents

        docs = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["alpha beta gamma. delta epsilon zeta eta "
                              "theta iota kappa." * 20,
                              "short body text."]),
            "source": pa.array(["s0", "s1"]),
        })
        tbl = pdfs_from_documents(docs)
        for i in range(2):
            d = extract_pdf(tbl.column("pdf")[i].as_py())
            body_words = docs.column("text")[i].as_py().split()
            got_words = " ".join(d["extracted_text"].split("\n")[1:]).split()
            assert got_words == body_words
            assert d["extracted_text"].startswith(f"Document {i} (s{i})")

    def test_ray_pipeline(self, ray_session):
        """The fused plan serves HTML, text-only and PDF rows alike: one
        row per url, byte-identical to ``oracle_extract``, in
        ``EXTRACTED_SCHEMA``; the sentence plan serves the same rows."""
        import ray.data as rd

        from pdf_extract_ray.pipelines.extract import (
            EXTRACTED_SCHEMA, SENTENCES_SCHEMA, extract_pages_fused,
            extract_sentences, oracle_extract)

        tbl = mixed_pages()
        ds = extract_pages_fused(rd.from_arrow(tbl).repartition(3)).materialize()
        assert ds.schema().base_schema == EXTRACTED_SCHEMA
        oracle = oracle_extract(tbl.to_pylist())
        got = _by_url(ds.take_all())
        assert got == _by_url(oracle)
        assert {u: got[u][-1] for u in MIXED_STATUS} == MIXED_STATUS

        sents = extract_sentences(rd.from_arrow(tbl).repartition(3)).materialize()
        assert sents.schema().base_schema == SENTENCES_SCHEMA
        got = sorted((r["url"], r["page_no"], r["frag_id"], r["sent_no"], r["text"])
                     for r in sents.take_all())
        assert got == sorted((d["url"], s.page_no, s.frag_id, s.sent_no, s.text)
                             for d in oracle for s in d["sentences"])


# a mixed page table: HTML rows (pages_table), text-only rows and PDF rows
# (plain, Flate, Type0 with a ToUnicode map, junk bytes), plus rows holding
# two sources; ``MIXED_STATUS`` is the status each non-HTML row must get
MIXED_STATUS = {
    "pdf://plain": "pdf", "pdf://flate": "pdf", "pdf://type0": "pdf",
    "pdf://junk": "rejected", "text://only": "fallback",
    "text://empty": "rejected", "both://junk-pdf": "html",
    "both://valid-pdf": "pdf",
}


def mixed_pages():
    from datetime import datetime, timedelta

    import pyarrow as pa

    from pdf_extract_ray.corpus import pages_table

    html_doc = ("<html><body><h1>Html Title</h1>"
                "<p>Html body sentence.</p></body></html>").encode()
    extra = {
        "pdf://plain": {"pdf": make_pdf([SIMPLE, SIMPLE])},
        "pdf://flate": {"pdf": make_pdf([SIMPLE], compress=True)},
        "pdf://type0": {"pdf": make_type0_pdf(), "lang": "ko"},
        "pdf://junk": {"pdf": b"not a pdf"},
        "text://only": {"text": "a text-only row.\nwith two lines."},
        "text://empty": {"text": ""},
        "both://junk-pdf": {"pdf": b"junk", "html": html_doc},
        "both://valid-pdf": {"pdf": make_pdf([SIMPLE]), "html": html_doc},
    }
    rows = pages_table(12, seed=5).to_pylist()
    for i, (url, cols) in enumerate(extra.items()):
        rows.append({"url": url, "warc_ts": datetime(2024, 5, 1)
                     + timedelta(seconds=i), **cols})
    schema = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                        ("html", pa.binary()), ("text", pa.large_string()),
                        ("lang", pa.string()), ("pdf", pa.binary())])
    return pa.Table.from_pylist(rows, schema)


def _by_url(rows):
    keys = ("warc_ts", "lang", "extracted_text", "n_sentences", "n_pages",
            "status")
    out = {r["url"]: tuple(r[k] for k in keys) for r in rows}
    assert len(out) == len(rows)
    return out


def test_page_order_follows_kids_tree_not_object_numbers():
    """/Kids order is document order even when object numbers disagree."""
    c1 = b"BT /F1 12 Tf 72 700 Td (page one.) Tj ET"
    c2 = b"BT /F1 12 Tf 72 700 Td (page two.) Tj ET"
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        # Kids list REVERSES object-number order: 6 (page two... no, page
        # object 6 shows c1) — object 6 is doc-first, object 3 doc-second
        2: (b"<< /Type /Pages /Kids [ 6 0 R 3 0 R ] /Count 2 "
            b"/MediaBox [ 0 0 612 792 ] >>"),
        3: b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R "
           b"/Resources << /Font << /F1 7 0 R >> >> >>",
        4: f"<< /Length {len(c2)} >>".encode() + b"\nstream\n" + c2 + b"\nendstream",
        5: f"<< /Length {len(c1)} >>".encode() + b"\nstream\n" + c1 + b"\nendstream",
        6: b"<< /Type /Page /Parent 2 0 R /Contents 5 0 R "
           b"/Resources << /Font << /F1 7 0 R >> >> >>",
        7: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    }
    out = bytearray(b"%PDF-1.4\n")
    for num, body in objs.items():
        out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
    out += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    pages = pdf_pages_spans(bytes(out))
    assert [p["lines"][0]["text"] for p in pages] == ["page one.", "page two."]
    assert [p["page_no"] for p in pages] == [1, 2]


def test_pdf_staged_plan_byte_identical(ray_session):
    """The staged plan (per-page explode, map-side packing, per-url
    shuffle) matches the fused plan and ``oracle_extract`` byte for byte
    on the mixed HTML/text/PDF table, rejected rows included, with the
    same schema."""
    import ray.data as rd

    from pdf_extract_ray.pipelines.extract import (
        EXTRACTED_SCHEMA, extract_pages_fused, extract_pages_staged,
        oracle_extract)

    tbl = mixed_pages()
    plans = [plan(rd.from_arrow(tbl).repartition(3)).materialize()
             for plan in (extract_pages_fused, extract_pages_staged)]
    assert [ds.schema().base_schema for ds in plans] == [EXTRACTED_SCHEMA] * 2
    fused, staged = (_by_url(ds.take_all()) for ds in plans)
    assert staged == fused == _by_url(oracle_extract(tbl.to_pylist()))


@pytest.mark.parametrize("plan", ["fused", "staged"])
def test_cli_extract_reads_pdf_parquet_and_resumes(tmp_path, plan):
    """``extract --input`` over parquet with a ``pdf`` column and no
    ``html`` column, through the CLI in a 1-CPU subprocess: the output is
    ``EXTRACTED_SCHEMA`` with the texts of ``oracle_extract``, and a
    second run skips the committed partitions."""
    import glob
    import json
    import os
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extract_ray.corpus import pdfs_from_documents
    from pdf_extract_ray.pipelines.extract import EXTRACTED_SCHEMA, oracle_extract

    docs = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                     "text": [f"body {i} of the document. " * (i * 30 + 1)
                              for i in range(6)],
                     "source": ["s"] * 6})
    pdfs = pdfs_from_documents(docs).drop(["doc_id"])
    pdfs = pa.concat_tables([pdfs, pa.table(
        {"url": ["pdf://junk"], "pdf": pa.array([b"junk"], pa.binary())})])
    (tmp_path / "in").mkdir()
    for i in range(2):
        pq.write_table(pdfs.slice(4 * i, 4), tmp_path / "in" / f"p{i}.parquet")

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmd = [sys.executable, "-m", "pdf_extract_ray", "extract",
           "--input", str(tmp_path / "in" / "*.parquet"),
           "--out", str(tmp_path / "out"), "--num-cpus", "1",
           "--files-per-partition", "1", "--plan", plan]

    def run():
        proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": repo})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])["run"]

    assert run()["completed"] == 2
    files = sorted(glob.glob(str(tmp_path / "out" / "part=*" / "*.parquet")))
    out = pa.concat_tables([pq.read_table(f) for f in files])
    assert out.schema.equals(EXTRACTED_SCHEMA)
    expect = {d["url"]: (d["extracted_text"], d["status"])
              for d in oracle_extract(pdfs.to_pylist())}
    assert {r["url"]: (r["extracted_text"], r["status"])
            for r in out.to_pylist()} == expect
    assert expect["pdf://junk"][1] == "rejected"
    assert {s for _, s in expect.values()} == {"pdf", "rejected"}

    again = run()
    assert (again["completed"], again["skipped"]) == (0, 2)


def test_nested_parens_and_malformed_mediabox():
    """Regression (round-2 review): balanced unescaped parens inside a
    literal string are legal PDF and must not drop the show-string; a
    malformed /MediaBox falls back to US Letter instead of raising."""
    content = "BT /F1 12 Tf 72 700 Td (hello (nested) world) Tj ET"
    lines = pdf_pages_spans(make_pdf([content]))[0]["lines"]
    assert [l["text"] for l in lines] == ["hello (nested) world"]

    short_mb = make_pdf([content]).replace(
        b"/MediaBox [ 0 0 612 792 ]", b"/MediaBox [ 0 612 ]")
    pages = pdf_pages_spans(short_mb)
    assert pages and (pages[0]["width"], pages[0]["height"]) == (612.0, 792.0)
    name_mb = make_pdf([content]).replace(
        b"/MediaBox [ 0 0 612 792 ]", b"/MediaBox [ 0 0 /A 792 ]")
    assert pdf_pages_spans(name_mb)[0]["lines"]


# ---------------------------------------------------------------------------
# PDF >= 1.5 features: ObjStm / xref streams / the extended filter set
# (round-3 coverage: VERDICT r2 "What's missing" #1)
# ---------------------------------------------------------------------------

def _lzw_encode(data: bytes, early: int = 1) -> bytes:
    """Test-side LZW encoder (EarlyChange convention mirrored from the
    decoder; round-trip asserted below)."""
    out = bytearray()
    bitbuf = nbits = 0

    def put(code: int, width: int) -> None:
        nonlocal bitbuf, nbits
        bitbuf = (bitbuf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bitbuf >> (nbits - 8)) & 0xFF)
            nbits -= 8

    table = {bytes([i]): i for i in range(256)}
    next_code, width = 258, 9
    put(256, width)
    w = b""
    for ch in data:
        wc = w + bytes([ch])
        if wc in table:
            w = wc
            continue
        put(table[w], width)
        table[wc] = next_code
        next_code += 1
        if next_code >= (1 << width) - early and width < 12:
            width += 1
        if next_code >= 4093:  # table nearly full: clear
            put(256, width)
            table = {bytes([i]): i for i in range(256)}
            next_code, width = 258, 9
        w = bytes([ch])
    if w:
        put(table[w], width)
    put(257, width)
    if nbits:
        put(0, 8 - nbits)  # pad flush
    return bytes(out)


def _png_up_encode(data: bytes, rowlen: int) -> bytes:
    out = bytearray()
    prev = bytes(rowlen)
    for r in range(0, len(data), rowlen):
        row = data[r : r + rowlen]
        out.append(2)  # Up
        out += bytes((row[i] - prev[i]) & 0xFF for i in range(len(row)))
        prev = row
    return bytes(out)


def make_pdf15(pages, *, xref_predictor=False, stale_direct_page=None):
    """PDF-1.5-style file: content streams direct (Flate), ALL dict
    objects (fonts/pages/page/catalog) inside a /ObjStm container, plus a
    /XRef cross-reference stream (optionally PNG-Up predicted).

    ``stale_direct_page``: content string — also write a DIRECT stale
    copy of the first page object pointing at different content; the
    xref stream designates the ObjStm copy, which must win."""
    n_pages = len(pages)
    # object numbering: 1..n content streams; n+1 font; n+2..n+1+n page
    # dicts; 2n+2 pages; 2n+3 catalog; 2n+4 objstm; 2n+5 xref stream
    font_id = n_pages + 1
    page_ids = [n_pages + 2 + i for i in range(n_pages)]
    pages_id = 2 * n_pages + 2
    catalog_id = 2 * n_pages + 3
    objstm_id = 2 * n_pages + 4
    xref_id = 2 * n_pages + 5

    embedded = [(font_id, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")]
    for i, pid in enumerate(page_ids):
        embedded.append((pid,
            f"<< /Type /Page /Parent {pages_id} 0 R /Contents {i + 1} 0 R "
            f"/Resources << /Font << /F1 {font_id} 0 R >> >> >>".encode()))
    kids = " ".join(f"{p} 0 R" for p in page_ids)
    embedded.append((pages_id,
        f"<< /Type /Pages /Kids [ {kids} ] /Count {n_pages} "
        f"/MediaBox [ 0 0 612 792 ] >>".encode()))
    embedded.append((catalog_id,
        f"<< /Type /Catalog /Pages {pages_id} 0 R >>".encode()))

    bodies = b" ".join(b for _, b in embedded)
    offs, pos = [], 0
    for _, b in embedded:
        offs.append(pos)
        pos += len(b) + 1
    header = " ".join(f"{num} {off}" for (num, _), off in zip(embedded, offs))
    stm_payload = header.encode() + b" " + bodies
    stm_z = zlib.compress(stm_payload)

    out = bytearray(b"%PDF-1.5\n")
    offsets = {}

    def emit(num, body):
        offsets[num] = len(out)
        out.extend(f"{num} 0 obj\n".encode() + body + b"\nendobj\n")

    for i, content in enumerate(pages, start=1):
        z = zlib.compress(content.encode("latin-1"))
        emit(i, f"<< /Length {len(z)} /Filter /FlateDecode >>".encode()
             + b"\nstream\n" + z + b"\nendstream")
    if stale_direct_page is not None:
        stale_cid = xref_id + 1
        z = zlib.compress(stale_direct_page.encode("latin-1"))
        emit(stale_cid, f"<< /Length {len(z)} /Filter /FlateDecode >>".encode()
             + b"\nstream\n" + z + b"\nendstream")
        emit(page_ids[0],
             f"<< /Type /Page /Parent {pages_id} 0 R /Contents {stale_cid} 0 R "
             f"/Resources << /Font << /F1 {font_id} 0 R >> >> >>".encode())
    emit(objstm_id,
         f"<< /Type /ObjStm /N {len(embedded)} "
         f"/First {len(header) + 1} /Length {len(stm_z)} "
         f"/Filter /FlateDecode >>".encode()
         + b"\nstream\n" + stm_z + b"\nendstream")

    # xref stream entries, W = [1 2 1]
    size = xref_id + 1 + (2 if stale_direct_page is not None else 0)
    rows = bytearray()
    in_stream = {num: idx for idx, (num, _) in enumerate(embedded)}
    for num in range(size):
        if num == 0:
            rows += bytes([0]) + (0).to_bytes(2, "big") + bytes([255])
        elif num in in_stream:
            rows += bytes([2]) + objstm_id.to_bytes(2, "big") \
                + bytes([in_stream[num]])
        elif num in offsets:
            rows += bytes([1]) + offsets[num].to_bytes(2, "big") + bytes([0])
        else:  # the xref stream itself (offset patched conceptually: scan
            rows += bytes([1]) + (0).to_bytes(2, "big") + bytes([0])
    parms = b""
    data = bytes(rows)
    if xref_predictor:
        data = _png_up_encode(data, 4)
        parms = b" /DecodeParms << /Predictor 12 /Columns 4 >>"
    data_z = zlib.compress(data)
    xref_pos = len(out)
    emit(xref_id,
         f"<< /Type /XRef /Size {size} /W [1 2 1] /Root {catalog_id} 0 R "
         f"/Length {len(data_z)} /Filter /FlateDecode".encode() + parms
         + b" >>\nstream\n" + data_z + b"\nendstream")
    out += f"startxref\n{xref_pos}\n%%EOF\n".encode()
    return bytes(out)


class TestPdf15:
    CONTENT = "BT /F1 12 Tf 72 700 Td (Hidden in object stream) Tj ET"

    def test_objstm_objects_extract(self):
        pdf = make_pdf15([self.CONTENT])
        pages = pdf_pages_spans(pdf)
        assert len(pages) == 1
        assert pages[0]["lines"][0]["text"] == "Hidden in object stream"

    def test_objstm_with_predicted_xref(self):
        pdf = make_pdf15([self.CONTENT, self.CONTENT], xref_predictor=True)
        pages = pdf_pages_spans(pdf)
        assert len(pages) == 2
        assert all(p["lines"][0]["text"] == "Hidden in object stream"
                   for p in pages)

    def test_xref_designates_objstm_copy_over_stale_direct(self):
        """Incremental-update shape: a stale DIRECT page object exists,
        but the xref stream says the page lives in the ObjStm — the
        streamed (newer) copy must win."""
        pdf = make_pdf15(
            ["BT /F1 12 Tf 72 700 Td (new text) Tj ET"],
            stale_direct_page="BT /F1 12 Tf 72 700 Td (stale text) Tj ET")
        pages = pdf_pages_spans(pdf)
        assert pages[0]["lines"][0]["text"] == "new text"

    def test_matches_plain_pdf_output(self):
        content = ["BT /F1 12 Tf 72 700 Td (Line one.) Tj ET",
                   "BT /F2 18 Tf 72 700 Td (Title Two) Tj ET"]
        plain = pdf_pages_spans(make_pdf(content))
        v15 = pdf_pages_spans(make_pdf15(content))
        got_p = [[(l["text"], l["size"]) for l in p["lines"]] for p in plain]
        got_v = [[(l["text"], l["size"]) for l in p["lines"]] for p in v15]
        assert got_p == got_v


class TestFilters:
    def _pdf_with_filter(self, filt_entry: bytes, data: bytes) -> bytes:
        """Single-page PDF whose content stream uses ``filt_entry``."""
        objs = []

        def add(body):
            objs.append(body)
            return len(objs)

        f1 = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
        cid = add(b"<< /Length " + str(len(data)).encode() + b" /Filter "
                  + filt_entry + b" >>\nstream\n" + data + b"\nendstream")
        pg = add(f"<< /Type /Page /Parent 4 0 R /Contents {cid} 0 R "
                 f"/Resources << /Font << /F1 {f1} 0 R >> >> >>".encode())
        add(f"<< /Type /Pages /Kids [ {pg} 0 R ] /Count 1 "
            f"/MediaBox [ 0 0 612 792 ] >>".encode())
        cat = add(b"<< /Type /Catalog /Pages 4 0 R >>")
        out = bytearray(b"%PDF-1.4\n")
        for i, body in enumerate(objs, start=1):
            out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
        out += (f"trailer\n<< /Size {len(objs)+1} /Root {cat} 0 R >>\n"
                "%%EOF\n").encode()
        return bytes(out)

    CONTENT = b"BT /F1 12 Tf 72 700 Td (filter test line) Tj ET"

    def _check(self, pdf):
        pages = pdf_pages_spans(pdf)
        assert pages and pages[0]["lines"][0]["text"] == "filter test line"

    def test_lzw_spec_vector(self):
        from pdf_extract_ray.sources.pdf import _lzw_decode
        enc = bytes.fromhex("800b605022" + "0c0c8501")
        assert _lzw_decode(enc) == b"\x2d" * 5 + b"\x41" + b"\x2d" * 3 + b"\x42"

    def test_lzw_roundtrip_width_transitions(self):
        from pdf_extract_ray.sources.pdf import _lzw_decode
        # varied data large enough to push code width to 10/11/12 bits
        # and wrap the table (clear-code path)
        data = bytes((i * 7 + (i >> 3)) & 0xFF for i in range(60_000))
        assert _lzw_decode(_lzw_encode(data)) == data
        text = ("the quick brown fox jumps over the lazy dog " * 500).encode()
        assert _lzw_decode(_lzw_encode(text)) == text

    def test_lzw_content_stream(self):
        self._check(self._pdf_with_filter(b"/LZWDecode",
                                          _lzw_encode(self.CONTENT)))

    def test_asciihex_content_stream(self):
        self._check(self._pdf_with_filter(
            b"/ASCIIHexDecode", self.CONTENT.hex().encode() + b">"))

    def test_ascii85_content_stream(self):
        import base64
        self._check(self._pdf_with_filter(
            b"/ASCII85Decode", base64.a85encode(self.CONTENT) + b"~>"))

    def test_runlength_content_stream(self):
        # literal chunks + one repeated run (the 257-l branch)
        payload = b"BT /F1 12 Tf 72 700 Td (filter test line) Tj ET"
        enc = bytearray()
        enc += bytes([9]) + payload[:10]          # 10 literal bytes
        enc += bytes([257 - 3]) + payload[10:11]  # 3x repeat of byte 10
        rest = payload[13:]
        enc += bytes([len(rest) - 1]) + rest
        enc.append(128)  # EOD
        decoded_expect = payload[:10] + payload[10:11] * 3 + rest
        from pdf_extract_ray.sources.pdf import _runlength_decode
        assert _runlength_decode(bytes(enc)) == decoded_expect

    def test_chained_ascii85_flate(self):
        import base64
        data = base64.a85encode(zlib.compress(self.CONTENT)) + b"~>"
        self._check(self._pdf_with_filter(
            b"[ /ASCII85Decode /FlateDecode ]", data))

    def test_binary_stream_containing_endstream_bytes(self):
        """A correct /Length must win over the first-endstream regex:
        craft stream data embedding the literal bytes '\\nendstream'."""
        payload = self.CONTENT + b" % \nendstream garbage\n"
        # no filter; Length covers the whole payload including the trap
        self._check(self._pdf_with_filter(b"[]", payload))


class TestSimpleFontEncodings:
    def _pdf_with_font(self, font_body: bytes, content: str) -> bytes:
        objs = []

        def add(body):
            objs.append(body)
            return len(objs)

        f1 = add(font_body)
        raw = content.encode("latin-1")
        cid = add(b"<< /Length " + str(len(raw)).encode() + b" >>\nstream\n"
                  + raw + b"\nendstream")
        pg = add(f"<< /Type /Page /Parent 4 0 R /Contents {cid} 0 R "
                 f"/Resources << /Font << /F1 {f1} 0 R >> >> >>".encode())
        add(f"<< /Type /Pages /Kids [ {pg} 0 R ] /Count 1 "
            f"/MediaBox [ 0 0 612 792 ] >>".encode())
        cat = add(b"<< /Type /Catalog /Pages 4 0 R >>")
        out = bytearray(b"%PDF-1.4\n")
        for i, body in enumerate(objs, start=1):
            out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
        out += (f"trailer\n<< /Size {len(objs)+1} /Root {cat} 0 R >>\n"
                "%%EOF\n").encode()
        return bytes(out)

    def test_differences_remap(self):
        """/Differences overrides: codes 65/66 remapped to eacute (via
        accent composition) and a uniXXXX name."""
        font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                b"/Encoding << /BaseEncoding /WinAnsiEncoding "
                b"/Differences [ 65 /eacute /uni2603 ] >> >>")
        pdf = self._pdf_with_font(
            font, "BT /F1 12 Tf 72 700 Td (cafAB) Tj ET")
        lines = pdf_pages_spans(pdf)[0]["lines"]
        assert lines[0]["text"] == "café☃"

    def test_winansi_high_range(self):
        """WinAnsi == cp1252 in 0x80-0x9F where Latin-1 has control
        chars: 0x93/0x94 are curly quotes, 0x80 is the euro sign."""
        font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                b"/Encoding /WinAnsiEncoding >>")
        pdf = self._pdf_with_font(
            font, "BT /F1 12 Tf 72 700 Td (\\223hi\\224 \\200) Tj ET")
        lines = pdf_pages_spans(pdf)[0]["lines"]
        assert lines[0]["text"] == "“hi” €"

    def test_macroman_encoding(self):
        font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                b"/Encoding /MacRomanEncoding >>")
        # MacRoman 0x8E = eacute
        pdf = self._pdf_with_font(
            font, "BT /F1 12 Tf 72 700 Td (caf\\216) Tj ET")
        lines = pdf_pages_spans(pdf)[0]["lines"]
        assert lines[0]["text"] == "café"

    def test_widths_drive_x1_geometry(self):
        """With a /Widths array the x1 extent is exact: FirstChar 97,
        widths 600 units at 10pt -> each char advances 6pt."""
        font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                b"/FirstChar 97 /LastChar 99 /Widths [ 600 600 600 ] >>")
        pdf = self._pdf_with_font(
            font, "BT /F1 10 Tf 72 700 Td (abc) Tj ET")
        line = pdf_pages_spans(pdf)[0]["lines"][0]
        assert line["x0"] == 72.0
        assert abs(line["x1"] - (72.0 + 3 * 6.0)) < 1e-6

    def test_tj_fragments_rejoin_without_bogus_spaces(self):
        """Gap-aware line merge: TJ kern fragments of one word rejoin
        with no space; a wide positioned gap still yields one."""
        pdf = make_pdf(["BT /F1 12 Tf 72 700 Td "
                        "[(Hel) -20 (lo) -400 (world)] TJ ET"])
        lines = pdf_pages_spans(pdf)[0]["lines"]
        assert lines[0]["text"] == "Hello world"


def make_type0_w_pdf(*, with_w=True, encoding=b"/Identity-H"):
    """Type0 font WITH a DescendantFonts CIDFont carrying /W + /DW, so
    x1 geometry comes from real metrics instead of the 0.5-em default.
    Codes: 0001 (w=600), 0002 (w=800), 0010-0012 (w=1000 via range),
    anything else /DW=900."""
    cmap = (b"/CIDInit /ProcSet findresource begin\n"
            b"begincmap\n"
            b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
            b"2 beginbfchar\n<0001> <D55C>\n<0002> <AD6D>\nendbfchar\n"
            b"1 beginbfrange\n<0010> <0012> <C548>\nendbfrange\n"
            b"1 beginbfrange\n<0020> <0021> [<0041> <0042>]\nendbfrange\n"
            b"endcmap\nend")
    content = (b"BT /F9 14 Tf 72 700 Td <00010002> Tj ET "
               b"BT /F9 14 Tf 72 650 Td <00100011001200200021> Tj ET")
    w_entry = b"/W [ 1 [ 600 800 ] 16 18 1000 ] /DW 900 " if with_w else b""
    objs = [
        (f"<< /Length {len(cmap)} >>".encode()
         + b"\nstream\n" + cmap + b"\nendstream"),
        (b"<< /Type /Font /Subtype /Type0 /BaseFont /NotoSansKR "
         b"/ToUnicode 1 0 R /Encoding " + encoding
         + b" /DescendantFonts [ 7 0 R ] >>"),
        (f"<< /Length {len(content)} >>".encode()
         + b"\nstream\n" + content + b"\nendstream"),
        (b"<< /Type /Page /Parent 5 0 R /Contents 3 0 R "
         b"/Resources << /Font << /F9 2 0 R >> >> >>"),
        (b"<< /Type /Pages /Kids [ 4 0 R ] /Count 1 "
         b"/MediaBox [ 0 0 612 792 ] >>"),
        b"<< /Type /Catalog /Pages 5 0 R >>",
        (b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /NotoSansKR "
         + w_entry + b">>"),
    ]
    out = bytearray(b"%PDF-1.4\n")
    for i, body in enumerate(objs, start=1):
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    out += b"trailer\n<< /Root 6 0 R >>\n%%EOF\n"
    return bytes(out)


class TestType0Widths:
    def test_w_array_drives_x1(self):
        lines = pdf_pages_spans(make_type0_w_pdf())[0]["lines"]
        # line 1: widths 600+800 -> (1400/1000)*14 = 19.6
        assert lines[0]["text"] == "한국"
        assert lines[0]["x1"] == pytest.approx(72 + 19.6, abs=1e-6)
        # line 2: 1000*3 (range) + 900*2 (DW) -> (4800/1000)*14 = 67.2
        assert lines[1]["text"] == "안앉않AB"
        assert lines[1]["x1"] == pytest.approx(72 + 67.2, abs=1e-6)

    def test_missing_w_uses_dw_spec_default(self):
        # DescendantFonts present but no /W and no /DW -> 1000 per CID
        lines = pdf_pages_spans(make_type0_w_pdf(with_w=False))[0]["lines"]
        assert lines[0]["x1"] == pytest.approx(72 + 2 * 14.0, abs=1e-6)

    def test_non_identity_encoding_keeps_legacy_halfem(self):
        lines = pdf_pages_spans(
            make_type0_w_pdf(encoding=b"/UniKS-UCS2-H"))[0]["lines"]
        assert lines[0]["x1"] == pytest.approx(72 + 2 * 7.0, abs=1e-6)


def test_inline_image_payload_skipped():
    """BI/ID...EI binary payloads are not content-stream syntax: the
    bytes (which here contain text-operator lookalikes) must be skipped
    wholesale, and scanning resumes after the whitespace-delimited EI
    (PDF 32000 section 8.9.7)."""
    from pdf_extract_ray.sources.pdf import _spans_from_content

    content = (b"BT /F1 12 Tf 100 700 Td (real) Tj ET\n"
               b"BI /W 2 /H 2 /BPC 8 /CS /RGB ID \x00(junk) Tj BT 9 9 Td"
               b"\xff\x01 EI\n"
               b"BT 100 680 Td (after) Tj ET")
    spans = _spans_from_content(content, {})
    assert [s["text"] for s in spans] == ["real", "after"]
    # unterminated payload: skip to end, never raise, keep earlier spans
    spans = _spans_from_content(
        b"BT 0 0 Td (keep) Tj ET BI /W 1 ID \x00\x01 no terminator", {})
    assert [s["text"] for s in spans] == ["keep"]


def make_type0_embedded_cmap_pdf():
    """Type0 font whose /Encoding is an EMBEDDED CMap stream (object 8)
    mapping codes to CIDs non-identically, plus the same /W CIDFont as
    make_type0_w_pdf — so x1 geometry must come from the code->CID->W
    chain, not from treating codes as CIDs.
    Map: 0001->16 (W range: 1000), 0002->1 (600), 0010->2 (800),
    0011->3 (DW 900); unmapped codes -> CID 0 (DW 900)."""
    cmap = (b"/CIDInit /ProcSet findresource begin\n"
            b"begincmap\n"
            b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
            b"2 beginbfchar\n<0001> <D55C>\n<0002> <AD6D>\nendbfchar\n"
            b"1 beginbfrange\n<0010> <0012> <C548>\nendbfrange\n"
            b"endcmap\nend")
    cidmap = (b"/CIDInit /ProcSet findresource begin\n"
              b"begincmap\n"
              b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
              b"2 begincidchar\n<0001> 16\n<0002> 1\nendcidchar\n"
              b"1 begincidrange\n<0010> <0011> 2\nendcidrange\n"
              b"endcmap\nend")
    content = (b"BT /F9 14 Tf 72 700 Td <00010002> Tj ET "
               b"BT /F9 14 Tf 72 650 Td <001000110012> Tj ET")
    objs = [
        (f"<< /Length {len(cmap)} >>".encode()
         + b"\nstream\n" + cmap + b"\nendstream"),
        (b"<< /Type /Font /Subtype /Type0 /BaseFont /NotoSansKR "
         b"/ToUnicode 1 0 R /Encoding 8 0 R "
         b"/DescendantFonts [ 7 0 R ] >>"),
        (f"<< /Length {len(content)} >>".encode()
         + b"\nstream\n" + content + b"\nendstream"),
        (b"<< /Type /Page /Parent 5 0 R /Contents 3 0 R "
         b"/Resources << /Font << /F9 2 0 R >> >> >>"),
        (b"<< /Type /Pages /Kids [ 4 0 R ] /Count 1 "
         b"/MediaBox [ 0 0 612 792 ] >>"),
        b"<< /Type /Catalog /Pages 5 0 R >>",
        (b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /NotoSansKR "
         b"/W [ 1 [ 600 800 ] 16 18 1000 ] /DW 900 >>"),
        (f"<< /Length {len(cidmap)} >>".encode()
         + b"\nstream\n" + cidmap + b"\nendstream"),
    ]
    out = bytearray(b"%PDF-1.4\n")
    for i, body in enumerate(objs, start=1):
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    out += b"trailer\n<< /Root 6 0 R >>\n%%EOF\n"
    return bytes(out)


class TestEmbeddedCMapWidths:
    def test_code_to_cid_chain_drives_x1(self):
        lines = pdf_pages_spans(make_type0_embedded_cmap_pdf())[0]["lines"]
        # text decode is unchanged (ToUnicode): codes 0001 0002 -> 한국
        assert lines[0]["text"] == "한국"
        # widths: 0001->CID16 (1000), 0002->CID1 (600)
        assert lines[0]["x1"] == pytest.approx(
            72 + (1000 + 600) / 1000 * 14, abs=1e-6)
        # 0010->CID2 (800), 0011->CID3 (DW 900), 0012 unmapped->CID0 (900)
        assert lines[1]["text"] == "안앉않"
        assert lines[1]["x1"] == pytest.approx(
            72 + (800 + 900 + 900) / 1000 * 14, abs=1e-6)

    def test_parse_cid_cmap_units(self):
        from pdf_extract_ray.sources.pdf import parse_cid_cmap

        m = parse_cid_cmap(
            b"2 begincidchar\n<0001> 16\n<00A0> 7\nendcidchar\n"
            b"1 begincidrange\n<0010> <0012> 100\nendcidrange\n")
        assert m == {1: 16, 0xA0: 7, 0x10: 100, 0x11: 101, 0x12: 102}
        assert parse_cid_cmap(b"garbage") == {}
        # oversized range is skipped, not expanded
        assert parse_cid_cmap(
            b"1 begincidrange\n<0000> <FFFFFF> 1\nendcidrange\n") == {}

    def test_named_non_identity_still_halfem(self):
        # unchanged contract: a NAMED CMap has no stream to parse
        lines = pdf_pages_spans(
            make_type0_w_pdf(encoding=b"/UniKS-UCS2-H"))[0]["lines"]
        assert lines[0]["x1"] == pytest.approx(72 + 2 * 7.0, abs=1e-6)
