"""Minimal from-scratch PDF text/span extractor (S1/M1: the reference's
actual input format — euaa_사례/pdf_to_json/layout_analyzer.py:15-161 pulls
(x0, y0, x1, y1, text, size, flags, color) spans out of PyMuPDF pages).

No PDF library exists in the sandbox, so this implements the subset needed
to turn digitally-born simple PDFs into the SAME span-line rows the
span-table layout path (stages/layout.tag_page_lines) already consumes,
using only stdlib (``re``, ``zlib``):

* object scan: every ``N G obj ... endobj`` found by regex — no xref
  table needed to FIND direct objects, so linearized/appended/mildly-
  corrupt files still yield their objects;
* PDF >= 1.5 compressed containers: ``/Type /ObjStm`` object streams are
  unpacked (their embedded objects become visible), and ``/Type /XRef``
  cross-reference streams are parsed so an incremental update that moves
  an object INTO a stream wins over a stale direct copy;
* dict/array/name/number/string/ref parser for object bodies;
* stream extraction prefers the declared ``/Length`` (binary data
  containing ``endstream`` bytes no longer truncates) with a regex
  fallback for wrong lengths;
* stream filters: FlateDecode, LZWDecode (incl. EarlyChange), ASCIIHex,
  ASCII85, RunLength, chained in order, with PNG (2/10-15) predictor undo
  per /DecodeParms — the set real exporters emit; anything else (DCT,
  JBIG2, CCITT: image codecs) skips the stream;
* content-stream text interpreter: BT/ET, Tf, Td/TD/Tm/T*/TL, Tj/TJ/'/",
  Tc/Tw/Tz spacing state, rg/g color; the pen advances by real glyph
  widths after each show; spans merged into baseline lines;
* page tree: /Type /Page objects with /MediaBox (inherited via /Parent)
  and /Contents (single ref or array);
* fonts: bold/italic flags inferred from /BaseFont name; simple fonts
  decode through /ToUnicode when present, else /Encoding (WinAnsi /
  MacRoman base + /Differences glyph-name overrides via a compact
  AGL-style name table), else Latin-1; per-code advances from
  /FirstChar + /Widths when present;
* composite (Type0/CID) fonts: decoded through their /ToUnicode CMap
  (bfchar + bfrange, incl. array form) — the layout modern exporters
  (and Korean-text PDFs like the reference corpus) actually emit; Type0
  fonts WITHOUT a ToUnicode map are skipped (codes are meaningless
  without the font program).

DOCUMENTED APPROXIMATIONS (the honest subset, asserted in tests):
* fonts without width metrics fall back to ``0.5 * size`` per char
  (simple fonts without /Widths; Type0 fonts honor the descendant
  CIDFont's /W + /DW for Identity-H/-V encodings AND for embedded CMap
  encodings via the parsed code->CID map; only NAMED non-Identity CMaps
  — whose mapping lives outside the file — keep the approximation), so
  ``x1`` is approximate only there — the layout rules use x0/column
  position and sizes, not exact extents;
* /Encrypt: the standard security handler with an EMPTY user password
  (how "protected" web PDFs are produced; fitz opens these transparently)
  is fully supported — RC4-40/128, AESV2/128, AESV3/256 (R2-R6) via the
  from-scratch ``sources/pdfcrypt`` module; files that actually require a
  password (or use a non-Standard handler) yield no spans;
* glyph names outside the compact AGL subset (uniXXXX, single chars,
  digits/punctuation names, letter+accent compositions) decode as empty;
* y coordinates are flipped to top-based to match the PyMuPDF-style rows
  the layout stage expects.

Everything degrades to "no spans" rather than an exception: at 100 TB the
reader must not die on one bad file.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

from . import pdfcrypt

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj(.*?)endobj", re.DOTALL)
_STREAM_KW_RE = re.compile(rb"stream\r?\n")
_ENDSTREAM_RE = re.compile(rb"(.*?)\r?\nendstream", re.DOTALL)

_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


def _nameof(v):
    """The bare string of a parsed /Name value, else None."""
    return v[1] if isinstance(v, tuple) and len(v) == 2 and v[0] == "name" else None


# ---------------------------------------------------------------------------
# stream filters (the non-image set real exporters emit)
# ---------------------------------------------------------------------------

def _flate_decode(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error:
        pass
    try:  # tolerate trailing garbage / bad checksum
        return zlib.decompressobj().decompress(data)
    except zlib.error:
        # raw deflate (missing zlib header — seen in the wild)
        return zlib.decompressobj(-15).decompress(data)


def _lzw_decode(data: bytes, early: int = 1) -> bytes:
    """PDF LZWDecode: 9->12-bit codes, 256=clear, 257=EOD, EarlyChange
    (default 1) widens the code one entry before the table requires it."""
    out = bytearray()
    table: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
    next_code, width = 258, 9
    prev: bytes | None = None
    bitbuf = nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:  # clear table
                table = {i: bytes([i]) for i in range(256)}
                next_code, width, prev = 258, 9, None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code in table:
                entry = table[code]
                table[next_code] = prev + entry[:1]
                next_code += 1
            elif code == next_code:  # the KwKwK case
                entry = prev + prev[:1]
                table[next_code] = entry
                next_code += 1
            else:
                raise ValueError("bad LZW code")
            out += entry
            prev = entry
            # the encoder widened after ADDING this entry; its table leads
            # ours by one at read time, hence the +1
            if next_code + 1 >= (1 << width) - early and width < 12:
                width += 1
    return bytes(out)


def _ascii_hex_decode(data: bytes) -> bytes:
    end = data.find(b">")
    h = re.sub(rb"[^0-9a-fA-F]", b"", data[: end if end >= 0 else len(data)])
    if len(h) % 2:
        h += b"0"
    return bytes.fromhex(h.decode())


def _ascii85_decode(data: bytes) -> bytes:
    import base64

    d = re.sub(rb"\s", b"", data)
    if d.startswith(b"<~"):
        d = d[2:]
    end = d.find(b"~>")
    if end >= 0:
        d = d[:end]
    return base64.a85decode(d)


def _runlength_decode(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        l = data[i]
        i += 1
        if l == 128:  # EOD
            break
        if l < 128:
            out += data[i : i + l + 1]
            i += l + 1
        else:
            if i < n:
                out += bytes([data[i]]) * (257 - l)
            i += 1
    return bytes(out)


def _predictor_undo(data: bytes, parms: dict) -> bytes:
    """Undo /Predictor per /DecodeParms (PNG 10-15 row filters, TIFF 2).
    Xref streams almost always use PNG Up (12)."""
    pred = parms.get("Predictor", 1)
    if not isinstance(pred, int) or pred <= 1:
        return data
    colors = int(parms.get("Colors", 1) or 1)
    bpc = int(parms.get("BitsPerComponent", 8) or 8)
    columns = int(parms.get("Columns", 1) or 1)
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (colors * bpc * columns + 7) // 8
    if pred == 2:  # TIFF horizontal differencing (8-bit only)
        if bpc != 8:
            raise ValueError("TIFF predictor needs 8-bit components")
        out = bytearray(data)
        for r in range(0, len(out) - rowlen + 1, rowlen):
            for i in range(bpp, rowlen):
                out[r + i] = (out[r + i] + out[r + i - bpp]) & 0xFF
        return bytes(out)
    # PNG predictors: each row = 1 tag byte + rowlen filtered bytes
    stride = rowlen + 1
    out = bytearray()
    prev = bytearray(rowlen)
    for r in range(0, len(data) - stride + 1, stride):
        tag = data[r]
        row = bytearray(data[r + 1 : r + 1 + rowlen])
        if tag == 1:  # Sub
            for i in range(bpp, rowlen):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif tag == 2:  # Up
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif tag == 3:  # Average
            for i in range(rowlen):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif tag == 4:  # Paeth
            for i in range(rowlen):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                row[i] = (row[i] + (a if pa <= pb and pa <= pc
                                    else b if pb <= pc else c)) & 0xFF
        out += row
        prev = row
    return bytes(out)


# ---------------------------------------------------------------------------
# object-body value parser
# ---------------------------------------------------------------------------

class _P:
    """Cursor over an object body for parsing one PDF value."""

    def __init__(self, data: bytes, pos: int = 0):
        self.d = data
        self.i = pos

    def _skip_ws(self):
        d, n = self.d, len(self.d)
        while self.i < n:
            c = self.d[self.i]
            if c in _WS:
                self.i += 1
            elif c == 0x25:  # % comment
                j = d.find(b"\n", self.i)
                self.i = n if j < 0 else j + 1
            else:
                return

    def value(self):
        self._skip_ws()
        d, i = self.d, self.i
        if i >= len(d):
            return None
        c = d[i]
        if d.startswith(b"<<", i):
            return self._dict()
        if c == 0x3C:  # <hex string>
            j = d.find(b">", i + 1)
            h = re.sub(rb"[^0-9a-fA-F]", b"", d[i + 1 : j])
            if len(h) % 2:
                h += b"0"
            self.i = j + 1
            return bytes.fromhex(h.decode())
        if c == 0x28:  # (literal string)
            return self._string()
        if c == 0x2F:  # /Name
            j = i + 1
            while j < len(d) and d[j] not in _WS and d[j] not in _DELIM:
                j += 1
            self.i = j
            return ("name", d[i + 1 : j].decode("latin-1"))
        if c == 0x5B:  # [ array ]
            self.i = i + 1
            out = []
            while True:
                self._skip_ws()
                if self.i >= len(d) or d[self.i] == 0x5D:
                    self.i += 1
                    return out
                out.append(self.value())
        if d.startswith(b"true", i):
            self.i = i + 4
            return True
        if d.startswith(b"false", i):
            self.i = i + 5
            return False
        if d.startswith(b"null", i):
            self.i = i + 4
            return None
        m = re.match(rb"[+-]?\d*\.?\d+", d[i:])
        if m:
            # reference lookahead: "N G R"
            r = re.match(rb"(\d+)\s+(\d+)\s+R(?![A-Za-z])", d[i:])
            if r:
                self.i = i + r.end()
                return ("ref", int(r.group(1)))
            self.i = i + m.end()
            tok = m.group(0)
            return float(tok) if b"." in tok else int(tok)
        self.i = i + 1  # unknown byte: skip (tolerant)
        return None

    def _dict(self):
        self.i += 2
        out = {}
        d = self.d
        while True:
            self._skip_ws()
            if self.i >= len(d):
                return out
            if d.startswith(b">>", self.i):
                self.i += 2
                return out
            k = self.value()
            if not (isinstance(k, tuple) and k[0] == "name"):
                continue
            out[k[1]] = self.value()

    def _string(self):
        d = self.d
        i = self.i + 1
        depth = 1
        out = bytearray()
        while i < len(d):
            c = d[i]
            if c == 0x5C:  # backslash
                i += 1
                if i >= len(d):
                    break
                e = d[i]
                esc = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12,
                       0x28: 40, 0x29: 41, 0x5C: 92}
                if e in esc:
                    out.append(esc[e])
                    i += 1
                elif 0x30 <= e <= 0x37:  # octal, up to 3 digits
                    j = i
                    while j < len(d) and j < i + 3 and 0x30 <= d[j] <= 0x37:
                        j += 1
                    out.append(int(d[i:j], 8) & 0xFF)
                    i = j
                elif e in (10, 13):  # line continuation
                    i += 1
                    if e == 13 and i < len(d) and d[i] == 10:
                        i += 1
                else:
                    out.append(e)
                    i += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                i += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    i += 1
                    break
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        self.i = i
        return bytes(out)


def _parse_obj(body: bytes):
    """(value, stream_tail_or_None) for one object body.  The tail is
    EVERYTHING after the ``stream`` keyword's EOL — exact slicing happens
    in ``_Doc.stream_of`` where /Length can be resolved, so binary data
    containing ``endstream`` bytes doesn't truncate."""
    p = _P(body)
    val = p.value()
    # search from the end of the parsed value: the word "stream" inside a
    # dict string must not be mistaken for the keyword
    m = _STREAM_KW_RE.search(body, max(0, min(p.i, len(body))))
    return val, (body[m.end():] if m else None)


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

@dataclass
class _Doc:
    objs: dict[int, tuple] = field(default_factory=dict)  # num -> (value, stream)
    gens: dict[int, int] = field(default_factory=dict)    # num -> generation
    decryptor: "pdfcrypt.PdfDecryptor | None" = None
    encrypted: bool = False  # /Encrypt present (decryptor may still be None)

    def resolve(self, v, depth: int = 0):
        while isinstance(v, tuple) and v and v[0] == "ref" and depth < 32:
            got = self.objs.get(v[1])
            if got is None:
                return None
            v = got[0]
            depth += 1
        return v

    def stream_of(self, num: int) -> bytes | None:
        got = self.objs.get(num)
        if got is None or got[1] is None:
            return None
        meta, tail = got
        meta = meta if isinstance(meta, dict) else {}
        length = self.resolve(meta.get("Length"))
        raw = None
        if isinstance(length, int) and 0 <= length <= len(tail):
            # trust /Length when an endstream keyword follows the slice
            if re.match(rb"\s*endstream", tail[length : length + 32]) \
               or length == len(tail):
                raw = tail[:length]
        if raw is None:  # wrong/unresolvable Length: first-endstream regex
            m = _ENDSTREAM_RE.match(tail)
            raw = m.group(1) if m else tail
        if self.encrypted and _nameof(meta.get("Type")) != "XRef":
            # per spec the xref stream itself is NEVER encrypted; every
            # other stream is.  No usable key -> degrade to no-stream.
            if self.decryptor is None:
                return None
            raw = self.decryptor.stream_bytes(num, self.gens.get(num, 0), raw)
        filt = self.resolve(meta.get("Filter"))
        filts = filt if isinstance(filt, list) else ([filt] if filt else [])
        parms = self.resolve(meta.get("DecodeParms")) \
            or self.resolve(meta.get("DP"))
        parmss = parms if isinstance(parms, list) else [parms] * max(1, len(filts))
        data = raw
        for k, f in enumerate(filts):
            f = self.resolve(f)
            name = _nameof(f)
            p = self.resolve(parmss[k]) if k < len(parmss) else None
            p = {key: self.resolve(v) for key, v in p.items()} \
                if isinstance(p, dict) else {}
            try:
                if name in ("FlateDecode", "Fl"):
                    data = _flate_decode(data)
                elif name in ("LZWDecode", "LZW"):
                    data = _lzw_decode(data, early=int(p.get("EarlyChange", 1)))
                elif name in ("ASCIIHexDecode", "AHx"):
                    data = _ascii_hex_decode(data)
                elif name in ("ASCII85Decode", "A85"):
                    data = _ascii85_decode(data)
                elif name in ("RunLengthDecode", "RL"):
                    data = _runlength_decode(data)
                elif name is None:
                    continue
                else:
                    return None  # image codec (DCT/JBIG2/CCITT/...): skip
                if p.get("Predictor"):
                    data = _predictor_undo(data, p)
            except Exception:
                return None
        return data


def _xref_stream_owners(doc: _Doc, num: int, meta: dict) -> dict[int, int]:
    """Type-2 entries of a /Type /XRef cross-reference stream:
    {objnum: containing ObjStm number}.  These are AUTHORITATIVE — an
    incremental update that moved an object into a stream lists it here,
    and the streamed copy must win over a stale direct one."""
    data = doc.stream_of(num)
    if not data:
        return {}
    w = [int(doc.resolve(x) or 0) for x in (doc.resolve(meta.get("W")) or [])]
    if len(w) < 3:
        return {}
    w1, w2, w3 = w[0], w[1], w[2]
    entry_len = w1 + w2 + w3
    if entry_len <= 0:
        return {}
    size = doc.resolve(meta.get("Size"))
    index = doc.resolve(meta.get("Index")) or [0, size if isinstance(size, int) else 0]
    index = [int(doc.resolve(x) or 0) for x in index]
    owners: dict[int, int] = {}
    pos = 0
    for k in range(0, len(index) - 1, 2):
        start, count = index[k], index[k + 1]
        for objnum in range(start, start + count):
            e = data[pos : pos + entry_len]
            pos += entry_len
            if len(e) < entry_len:
                return owners
            etype = int.from_bytes(e[:w1], "big") if w1 else 1
            f2 = int.from_bytes(e[w1 : w1 + w2], "big")
            if etype == 2:
                owners[objnum] = f2
    return owners


def _unpack_objstm(doc: _Doc, snum: int, meta: dict) -> list[tuple[int, object]]:
    """Embedded (objnum, value) pairs of one /Type /ObjStm container:
    ``/N`` pairs of ``objnum offset`` ints head the decoded stream, object
    bodies start at ``/First``.  ObjStm objects never carry streams."""
    data = doc.stream_of(snum)
    if not data:
        return []
    n = doc.resolve(meta.get("N"))
    first = doc.resolve(meta.get("First"))
    if not isinstance(n, int) or not isinstance(first, int) or first > len(data):
        return []
    pairs = re.findall(rb"(\d+)\s+(\d+)", data[:first])[:n]
    out = []
    for objnum, off in pairs:
        try:
            p = _P(data, first + int(off))
            out.append((int(objnum), p.value()))
        except Exception:
            continue
    return out


def _trailer_dicts(data: bytes, doc: _Doc) -> list[dict]:
    """Every trailer-like dict in file order: classic ``trailer << >>``
    dicts plus /Type /XRef stream dicts (xref-stream-only files have no
    ``trailer`` keyword — the stream dict IS the trailer)."""
    out: list[tuple[int, dict]] = []
    for m in re.finditer(rb"trailer", data):
        try:
            v = _P(data, m.end()).value()
        except Exception:
            continue
        if isinstance(v, dict):
            out.append((m.start(), v))
    for num in sorted(doc.objs):
        val = doc.objs[num][0]
        if isinstance(val, dict) and _nameof(val.get("Type")) == "XRef":
            out.append((0, val))
    return [d for _, d in sorted(out, key=lambda t: t[0])]


def _setup_decryptor(data: bytes, doc: _Doc) -> None:
    """Attach the standard-security-handler decryptor when the file is
    encrypted with the (default empty) user password.  Must run BEFORE the
    ObjStm pass — container streams are themselves encrypted."""
    enc_ref = id_arr = None
    for t in _trailer_dicts(data, doc):  # last /Encrypt wins (incremental)
        if t.get("Encrypt") is not None:
            enc_ref = t.get("Encrypt")
            id_arr = t.get("ID", id_arr)
        elif id_arr is None and t.get("ID") is not None:
            id_arr = t.get("ID")
    if enc_ref is None:
        return
    doc.encrypted = True
    enc = doc.resolve(enc_ref)
    if not isinstance(enc, dict) or _nameof(enc.get("Filter")) != "Standard":
        return  # unsupported handler: decryptor stays None -> no spans
    enc = {k: doc.resolve(v) for k, v in enc.items()}
    cf = enc.get("CF")
    if isinstance(cf, dict):
        enc["CF"] = {k: doc.resolve(v) for k, v in cf.items()}
    id_arr = doc.resolve(id_arr)
    id0 = id_arr[0] if isinstance(id_arr, list) and id_arr \
        and isinstance(id_arr[0], bytes) else b""
    doc.decryptor = pdfcrypt.make_decryptor(enc, id0)


def _load(data: bytes) -> _Doc:
    doc = _Doc()
    for m in _OBJ_RE.finditer(data):
        try:
            num = int(m.group(1))
            doc.objs[num] = _parse_obj(m.group(3))
            doc.gens[num] = int(m.group(2))
        except Exception:
            continue
    try:
        _setup_decryptor(data, doc)
    except Exception:
        pass
    # PDF >= 1.5: surface objects hidden inside /ObjStm containers.  Later
    # xref streams override earlier ones (appended incremental updates
    # come later in the file), and an xref-designated streamed object
    # overrides a direct copy; without xref evidence, direct objects win
    # and ObjStm values only fill missing numbers.
    owner: dict[int, int] = {}
    for num in sorted(doc.objs):
        val = doc.objs[num][0]
        if isinstance(val, dict) and _nameof(val.get("Type")) == "XRef":
            try:
                owner.update(_xref_stream_owners(doc, num, val))
            except Exception:
                continue
    for snum in sorted(doc.objs):
        val = doc.objs[snum][0]
        if not (isinstance(val, dict) and _nameof(val.get("Type")) == "ObjStm"):
            continue
        try:
            embedded = _unpack_objstm(doc, snum, val)
        except Exception:
            continue
        for onum, oval in embedded:
            if onum not in doc.objs or owner.get(onum) == snum:
                doc.objs[onum] = (oval, None)
    return doc


def _inherited(doc: _Doc, page: dict, key: str, depth: int = 0):
    v = page.get(key)
    if v is not None:
        return doc.resolve(v)
    parent = page.get("Parent")
    if depth < 32 and isinstance(parent, tuple) and parent[0] == "ref":
        pd_ = doc.resolve(parent)
        if isinstance(pd_, dict):
            return _inherited(doc, pd_, key, depth + 1)
    return None


# ---------------------------------------------------------------------------
# content-stream text interpreter
# ---------------------------------------------------------------------------

_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.DOTALL)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.DOTALL)
_HEXPAIR_RE = re.compile(rb"<([0-9a-fA-F]+)>\s*<([0-9a-fA-F]+)>")
_RANGE_RE = re.compile(
    rb"<([0-9a-fA-F]+)>\s*<([0-9a-fA-F]+)>\s*(<[0-9a-fA-F]+>|\[[^\]]*\])")
_CODESPACE_RE = re.compile(
    rb"begincodespacerange\s*<([0-9a-fA-F]+)>", re.DOTALL)


def _utf16be(hexs: bytes) -> str:
    try:
        return bytes.fromhex(hexs.decode()).decode("utf-16-be", "replace")
    except ValueError:
        return ""


def parse_tounicode_cmap(data: bytes) -> tuple[dict[int, str], int]:
    """/ToUnicode CMap -> ({code: text}, code_bytes).  Handles bfchar,
    bfrange with scalar or array destinations, and the codespace range
    (for the code byte-width; Identity-H is 2)."""
    cmap: dict[int, str] = {}
    m = _CODESPACE_RE.search(data)
    nbytes = max(1, len(m.group(1)) // 2) if m else 2
    for block in _BFCHAR_RE.finditer(data):
        for src, dst in _HEXPAIR_RE.findall(block.group(1)):
            cmap[int(src, 16)] = _utf16be(dst)
    for block in _BFRANGE_RE.finditer(data):
        for lo, hi, dst in _RANGE_RE.findall(block.group(1)):
            lo_i, hi_i = int(lo, 16), int(hi, 16)
            if hi_i - lo_i > 65535:
                continue  # malformed guard
            if dst.startswith(b"["):
                items = re.findall(rb"<([0-9a-fA-F]+)>", dst)
                for off, d in enumerate(items):
                    cmap[lo_i + off] = _utf16be(d)
            else:
                base = int(dst[1:-1], 16)
                for off in range(hi_i - lo_i + 1):
                    # last code unit increments (PDF spec bfrange rule)
                    cmap[lo_i + off] = _utf16be(
                        f"{base + off:0{len(dst) - 2}x}".encode())
    return cmap, nbytes


_CIDCHAR_RE = re.compile(rb"begincidchar(.*?)endcidchar", re.DOTALL)
_CIDRANGE_RE = re.compile(rb"begincidrange(.*?)endcidrange", re.DOTALL)
_CIDPAIR_RE = re.compile(rb"<([0-9a-fA-F]+)>\s+(\d+)")
_CIDRANGE_ENTRY_RE = re.compile(
    rb"<([0-9a-fA-F]+)>\s*<([0-9a-fA-F]+)>\s+(\d+)")


def parse_cid_cmap(data: bytes) -> dict[int, int]:
    """Embedded CID CMap (a Type0 font's /Encoding stream) ->
    {code: CID}.  Handles ``cidchar`` (``<src> cid``) and ``cidrange``
    (``<lo> <hi> cid_start``) entries — CID destinations are DECIMAL
    integers, unlike ToUnicode's hex strings.  Range size is capped
    (garbage files must not OOM).  This closes the last PDF width gap:
    with the code->CID map the descendant CIDFont's /W table applies to
    non-Identity encodings too (unmapped codes -> CID 0 per spec)."""
    cid_of: dict[int, int] = {}
    for block in _CIDCHAR_RE.finditer(data):
        for src, cid in _CIDPAIR_RE.findall(block.group(1)):
            cid_of[int(src, 16)] = int(cid)
    for block in _CIDRANGE_RE.finditer(data):
        for lo, hi, cid in _CIDRANGE_ENTRY_RE.findall(block.group(1)):
            lo_i, hi_i = int(lo, 16), int(hi, 16)
            if hi_i - lo_i > 65535:
                continue  # malformed guard
            base = int(cid)
            for off in range(hi_i - lo_i + 1):
                cid_of[lo_i + off] = base + off
    return cid_of


_TOKEN_RE = re.compile(
    rb"\("                          # literal string opener: the FULL string
                                    # parser takes over from here (nested
                                    # parens are legal inside PDF strings)
    rb"|<<|>>|<[0-9a-fA-F\s]*>"
    rb"|\[|\]"
    rb"|/[^\s()<>\[\]{}/%]*"
    rb"|[+-]?\d*\.?\d+"
    rb"|[A-Za-z'\"][A-Za-z0-9*'\"]*"
)


def _font_flags(base_font: str) -> int:
    name = (base_font or "").lower()
    flags = 0
    if "bold" in name:
        flags |= 16
    if "italic" in name or "oblique" in name:
        flags |= 2
    return flags


# ---------------------------------------------------------------------------
# simple-font encodings: base codec + /Differences glyph names
# ---------------------------------------------------------------------------

# compact AGL subset: the names /Differences arrays actually use for
# Latin-script documents (digits, ASCII punctuation, typographic marks)
_GLYPH_NAMES = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~",
    "quoteleft": "‘", "quoteright": "’",
    "quotedblleft": "“", "quotedblright": "”",
    "quotesinglbase": "‚", "quotedblbase": "„",
    "endash": "–", "emdash": "—", "bullet": "•",
    "ellipsis": "…", "dagger": "†", "daggerdbl": "‡",
    "trademark": "™", "copyright": "©", "registered": "®",
    "degree": "°", "plusminus": "±", "multiply": "×",
    "divide": "÷", "section": "§", "paragraph": "¶",
    "sterling": "£", "yen": "¥", "cent": "¢",
    "currency": "¤", "Euro": "€", "euro": "€",
    "florin": "ƒ", "guilsinglleft": "‹",
    "guilsinglright": "›", "guillemotleft": "«",
    "guillemotright": "»", "exclamdown": "¡",
    "questiondown": "¿", "germandbls": "ß",
    "ae": "æ", "AE": "Æ", "oe": "œ", "OE": "Œ",
    "oslash": "ø", "Oslash": "Ø", "thorn": "þ",
    "Thorn": "Þ", "eth": "ð", "Eth": "Ð",
    "dotlessi": "ı", "Lslash": "Ł", "lslash": "ł",
    "nbspace": " ", "minus": "−", "fraction": "⁄",
    "perthousand": "‰",
}

_ACCENT_COMBINING = {
    "acute": "́", "grave": "̀", "circumflex": "̂",
    "dieresis": "̈", "tilde": "̃", "ring": "̊",
    "cedilla": "̧", "caron": "̌", "breve": "̆",
    "macron": "̄", "hungarumlaut": "̋", "ogonek": "̨",
    "dotaccent": "̇", "slash": "",
}

_UNI_RE = re.compile(r"^uni([0-9A-Fa-f]{4})$")
_U_RE = re.compile(r"^u([0-9A-Fa-f]{4,6})$")


def _glyph_to_char(name: str) -> str:
    """Glyph name -> unicode text via the compact AGL subset: direct
    table, uniXXXX/uXXXXXX forms, single-char names, and
    letter+accent compositions (``eacute`` -> NFC(e + U+0301))."""
    import unicodedata

    if name in _GLYPH_NAMES:
        return _GLYPH_NAMES[name]
    m = _UNI_RE.match(name)
    if m:
        return chr(int(m.group(1), 16))
    m = _U_RE.match(name)
    if m:
        cp = int(m.group(1), 16)
        return chr(cp) if cp <= 0x10FFFF else ""
    if len(name) == 1:
        return name
    if len(name) >= 2 and name[0].isalpha() and name[1:] in _ACCENT_COMBINING:
        comb = _ACCENT_COMBINING[name[1:]]
        return unicodedata.normalize("NFC", name[0] + comb) if comb else ""
    return ""


def _base_decode_table(codec: str) -> list[str]:
    out = []
    for b in range(256):
        try:
            out.append(bytes([b]).decode(codec))
        except UnicodeDecodeError:
            out.append(bytes([b]).decode("latin-1"))
    return out


_LATIN1_TABLE = _base_decode_table("latin-1")
_ENCODING_CODECS = {
    "WinAnsiEncoding": "cp1252",
    "MacRomanEncoding": "mac_roman",
    # StandardEncoding differs from Latin-1 above 0x7F but agrees on
    # ASCII; Latin-1 is the documented approximation for it
}


def _simple_font_decode_table(doc: "_Doc", fobj: dict) -> list[str]:
    """256-entry code->text table for a simple font's /Encoding: base
    codec (WinAnsi == cp1252, MacRoman) plus /Differences overrides."""
    enc = doc.resolve(fobj.get("Encoding"))
    base = _nameof(enc) if not isinstance(enc, dict) else None
    diffs = None
    if isinstance(enc, dict):
        b = doc.resolve(enc.get("BaseEncoding"))
        base = _nameof(b)
        diffs = doc.resolve(enc.get("Differences"))
    codec = _ENCODING_CODECS.get(base or "")
    table = _base_decode_table(codec) if codec else list(_LATIN1_TABLE)
    if isinstance(diffs, list):
        code = 0
        for item in diffs:
            item = doc.resolve(item)
            if isinstance(item, (int, float)):
                code = int(item)
            else:
                nm = _nameof(item)
                if nm is not None and 0 <= code <= 255:
                    table[code] = _glyph_to_char(nm)
                code += 1
    return table


def _simple_font_widths(doc: "_Doc", fobj: dict) -> tuple[dict[int, float], float]:
    """({code: width/1000-units}, missing_width) from /FirstChar+/Widths;
    missing falls back to the 500-unit (0.5 em) approximation."""
    widths: dict[int, float] = {}
    first = doc.resolve(fobj.get("FirstChar"))
    warr = doc.resolve(fobj.get("Widths"))
    if isinstance(first, int) and isinstance(warr, list):
        for off, w in enumerate(warr):
            w = doc.resolve(w)
            if isinstance(w, (int, float)):
                widths[first + off] = float(w)
    mw = 500.0
    fd = doc.resolve(fobj.get("FontDescriptor"))
    if isinstance(fd, dict):
        m = doc.resolve(fd.get("MissingWidth"))
        if isinstance(m, (int, float)):
            mw = float(m)
    return widths, mw


def _cid_font_widths(doc: "_Doc", fobj: dict,
                     has_cid_map: bool = False) -> tuple[dict[int, float], float]:
    """({cid: width}, default_width) from a Type0 font's descendant CIDFont
    /W + /DW arrays.  Qualifying encodings: Identity-H/-V (CID == 2-byte
    code, /W indexes directly by shown code) and — with ``has_cid_map``
    — an embedded CMap stream whose parsed code->CID map resolves the
    /W index (see ``parse_cid_cmap``).  NAMED non-Identity CMaps (no
    embedded stream to parse, e.g. /UniKS-UCS2-H) keep the legacy 0.5-em
    approximation.  /W grammar: ``c [w1 w2 ...]`` assigns consecutively
    from c; ``cfirst clast w`` assigns a range.  Range size is capped
    (garbage files must not OOM)."""
    if (_nameof(fobj.get("Encoding")) not in ("Identity-H", "Identity-V")
            and not has_cid_map):
        return {}, 500.0
    df = doc.resolve(fobj.get("DescendantFonts"))
    d0 = doc.resolve(df[0]) if isinstance(df, list) and df else None
    if not isinstance(d0, dict):
        return {}, 500.0
    dw = doc.resolve(d0.get("DW"))
    mw = float(dw) if isinstance(dw, (int, float)) else 1000.0  # spec default
    widths: dict[int, float] = {}
    warr = doc.resolve(d0.get("W"))
    if isinstance(warr, list):
        vals = [doc.resolve(x) for x in warr]
        i = 0
        while i < len(vals):
            c = vals[i]
            if not isinstance(c, (int, float)):
                break
            c = int(c)
            if i + 1 < len(vals) and isinstance(vals[i + 1], list):
                for off, ww in enumerate(vals[i + 1][:65536]):
                    ww = doc.resolve(ww)
                    if isinstance(ww, (int, float)):
                        widths[c + off] = float(ww)
                i += 2
            elif (i + 2 < len(vals) and isinstance(vals[i + 1], (int, float))
                  and isinstance(vals[i + 2], (int, float))):
                last = min(int(vals[i + 1]), c + 65535)
                for cc in range(c, last + 1):
                    widths[cc] = float(vals[i + 2])
                i += 3
            else:
                break
    return widths, mw


_DEFAULT_FONT = {"flags": 0, "cmap": None, "cid_skip": False,
                 "dec": None, "widths": {}, "mw": 500.0, "cid_of": None}


def _spans_from_content(content: bytes, fonts: dict[str, dict]) -> list[dict]:
    """Interpret text operators; returns raw spans (PDF bottom-up y).
    ``fonts`` maps resource name -> info dict (see ``_DEFAULT_FONT``)."""
    spans: list[dict] = []
    # text state
    tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    tlm = list(tm)
    size = 12.0
    leading = 0.0
    color = 0
    tc = 0.0  # char spacing
    tw = 0.0  # word spacing
    th = 1.0  # horizontal scale (Tz/100)
    font = _DEFAULT_FONT
    stack: list = []

    def show(raw: bytes) -> None:
        """Decode + emit one shown string and advance the pen by its real
        width (per-code /Widths when known, 0.5 em otherwise)."""
        nonlocal tm
        if font["cid_skip"] or not raw:
            return
        eff = size * max(abs(tm[3]), 1e-9)
        cmap = font["cmap"]
        if cmap is not None:
            table, nb = cmap
            widths, mw = font["widths"], font["mw"]
            cid_of = font["cid_of"]
            chars, adv = [], 0.0
            for j in range(0, len(raw) - nb + 1, nb):
                code = int.from_bytes(raw[j : j + nb], "big")
                chars.append(table.get(code, ""))
                # Type0: /W is indexed by CID — the shown code for
                # Identity-H/V, else through the embedded CMap's
                # code->CID map (unmapped -> CID 0 per spec); named
                # non-Identity CMaps fall back to /DW / 0.5-em
                cid = code if cid_of is None else cid_of.get(code, 0)
                adv += (widths.get(cid, mw) / 1000.0) * size + tc
                if nb == 1 and code == 32:
                    adv += tw
            text = "".join(chars).replace("\x00", "")
        else:
            dec = font["dec"] or _LATIN1_TABLE
            widths, mw = font["widths"], font["mw"]
            chars, adv = [], 0.0
            for code in raw:
                chars.append(dec[code])
                adv += (widths.get(code, mw) / 1000.0) * size + tc
                if code == 32:
                    adv += tw
            text = "".join(chars).replace("\x00", "")
        w = adv * th
        if text.strip():
            spans.append({
                "x": tm[4], "y": tm[5], "size": eff, "flags": font["flags"],
                "color": color, "text": text,
                "w": w * (abs(tm[0]) or 1.0),  # page-space extent
            })
        # pen advance in text space, mapped through the text matrix
        tm = [tm[0], tm[1], tm[2], tm[3],
              tm[4] + w * tm[0], tm[5] + w * tm[1]]

    def td(tx: float, ty: float):
        nonlocal tm, tlm
        # translate applied to the LINE matrix
        tlm = [tlm[0], tlm[1], tlm[2], tlm[3],
               tlm[4] + tx * tlm[0] + ty * tlm[2],
               tlm[5] + tx * tlm[1] + ty * tlm[3]]
        tm = list(tlm)

    pos = 0
    n_content = len(content)
    while pos < n_content:
        m = _TOKEN_RE.search(content, pos)
        if m is None:
            break
        tok = m.group(0)
        c0 = tok[:1]
        if c0 == b"(":
            # re-parse with the full string parser (handles NESTED parens
            # and escapes) and resume the scan where IT ended — the regex
            # only matches one nesting level, and resuming at the regex
            # match end would tokenize the string tail as bogus operators
            p = _P(content, m.start())
            stack.append(p.value())
            pos = max(p.i, m.start() + 1)
            continue
        pos = m.end()
        if c0 == b"<" and tok != b"<<":
            h = re.sub(rb"[^0-9a-fA-F]", b"", tok[1:-1])
            if len(h) % 2:
                h += b"0"
            stack.append(bytes.fromhex(h.decode()))
        elif c0 == b"/":
            stack.append(("name", tok[1:].decode("latin-1")))
        elif tok in (b"<<", b">>", b"[", b"]"):
            # sentinel tuples: a literal string could equal b"]" and must
            # not be confused with the array delimiter in TJ collection
            stack.append(("delim", tok))
        elif c0.isdigit() or c0 in b"+-." or (len(tok) > 1 and tok[1:2].isdigit() and c0 in b"+-"):
            try:
                stack.append(float(tok))
            except ValueError:
                stack.append(0.0)
        else:
            op = tok
            if op == b"BI":
                # inline image: skip the dict and the raw binary payload
                # wholesale — the data is NOT content-stream syntax and
                # would otherwise tokenize into junk operators/spans.
                # Payload starts after "ID" + 1 whitespace byte and ends
                # at the first whitespace-delimited "EI" (PDF 32000
                # §8.9.7); a missing terminator skips the stream tail.
                m_id = re.compile(rb"\bID[\x00\t\n\f\r ]").search(content, pos)
                scan = m_id.end() if m_id else pos
                m_ei = re.compile(
                    rb"[\x00\t\n\f\r ]EI(?=[\x00\t\n\f\r ]|$)").search(
                    content, scan)
                pos = m_ei.end() if m_ei else n_content
                stack.clear()
                continue
            try:
                if op == b"BT":
                    tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
                    tlm = list(tm)
                elif op == b"Tf" and len(stack) >= 2:
                    size = float(stack[-1])
                    fname = stack[-2]
                    if isinstance(fname, tuple):
                        f = fonts.get(fname[1])
                        font = f if isinstance(f, dict) else _DEFAULT_FONT
                elif op == b"Td" and len(stack) >= 2:
                    td(float(stack[-2]), float(stack[-1]))
                elif op == b"TD" and len(stack) >= 2:
                    leading = -float(stack[-1])
                    td(float(stack[-2]), float(stack[-1]))
                elif op == b"TL" and stack:
                    leading = float(stack[-1])
                elif op == b"Tc" and stack:
                    tc = float(stack[-1])
                elif op == b"Tw" and stack:
                    tw = float(stack[-1])
                elif op == b"Tz" and stack:
                    th = float(stack[-1]) / 100.0
                elif op == b"T*":
                    td(0.0, -leading)
                elif op == b"Tm" and len(stack) >= 6:
                    tm = [float(x) for x in stack[-6:]]
                    tlm = list(tm)
                elif op == b"Tj" and stack:
                    if isinstance(stack[-1], bytes):
                        show(stack[-1])
                elif op == b"'":
                    td(0.0, -leading)
                    if stack and isinstance(stack[-1], bytes):
                        show(stack[-1])
                elif op == b'"':
                    # aw ac string ": set word+char spacing, next line, show
                    if len(stack) >= 3:
                        tw = float(stack[-3])
                        tc = float(stack[-2])
                    td(0.0, -leading)
                    if stack and isinstance(stack[-1], bytes):
                        show(stack[-1])
                elif op == b"TJ":
                    # replay items in order back from the matching [ :
                    # strings show+advance, numbers kern the pen; a large
                    # negative kern encodes an inter-word gap -> space
                    j = len(stack) - 1
                    while j >= 0 and stack[j] != ("delim", b"["):
                        j -= 1
                    for item in stack[j + 1 :]:
                        if isinstance(item, bytes):
                            show(item)
                        elif isinstance(item, float):
                            # kern: shift the pen; whether the gap is an
                            # encoded word space is decided geometrically
                            # at line merge, not guessed here
                            shift = -item / 1000.0 * size * th
                            tm = [tm[0], tm[1], tm[2], tm[3],
                                  tm[4] + shift * tm[0], tm[5] + shift * tm[1]]
                elif op == b"rg" and len(stack) >= 3:
                    r, g, b = (float(x) for x in stack[-3:])
                    color = (int(r * 255) << 16) | (int(g * 255) << 8) | int(b * 255)
                elif op == b"g" and stack:
                    v = int(float(stack[-1]) * 255)
                    color = (v << 16) | (v << 8) | v
            except (TypeError, ValueError, IndexError):
                pass
            stack.clear()
    return spans


def _merge_lines(spans: list[dict], page_height: float) -> list[dict]:
    """Group spans by baseline into line rows (top-based y, layout schema).

    Spans on a baseline concatenate GAP-AWARE: a separator space is
    inserted only when the horizontal gap between two spans exceeds
    0.18 em (a kern-encoded or positioned word break) and neither
    boundary char already is a space — so TJ-fragmented words rejoin
    without bogus spaces and kern-encoded spaces still materialize."""
    by_line: dict[float, list[dict]] = {}
    for s in spans:
        by_line.setdefault(round(s["y"], 1), []).append(s)
    lines = []
    for y, group in sorted(by_line.items(), key=lambda kv: -kv[0]):
        group.sort(key=lambda s: s["x"])
        size = max(s["size"] for s in group)
        fl = 0
        for s in group:
            fl |= s["flags"]
        # all-bold rule: a line is bold only if every span is (mirrors the
        # reference's span-level AND, layout_analyzer.py:119-161)
        if not all(s["flags"] & 16 for s in group):
            fl &= ~16
        color = next((s["color"] for s in group if s["color"]), 0)
        y_top = page_height - y
        parts = [group[0]["text"]]
        for prev, cur in zip(group, group[1:]):
            gap = cur["x"] - (prev["x"] + prev["w"])
            if (gap > 0.18 * min(prev["size"], cur["size"])
                    and not parts[-1].endswith(" ")
                    and not cur["text"].startswith(" ")):
                parts.append(" ")
            parts.append(cur["text"])
        lines.append({
            "x0": group[0]["x"],
            "y0": y_top - size,
            "x1": max(s["x"] + s["w"] for s in group),
            "y1": y_top,
            "text": "".join(parts),
            "size": size,
            "flags": fl,
            "color": color,
        })
    return lines


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def pdf_pages_spans(data: bytes | None) -> list[dict]:
    """PDF bytes -> [{"page_no", "width", "height", "lines": [...]}, ...].
    Returns [] for anything unparseable (never raises)."""
    if not data or not data.startswith(b"%PDF"):
        return []
    try:
        doc = _load(data)
    except Exception:
        return []

    # page order: walk the /Catalog -> /Pages -> /Kids tree (document
    # order per the spec); fall back to object-number order when the tree
    # is missing/broken (linearized or damaged files)
    def _walk_kids(node: dict, out: list, depth: int = 0):
        if depth > 64 or not isinstance(node, dict):
            return
        t = node.get("Type")
        tname = t[1] if isinstance(t, tuple) else None
        if tname == "Page":
            out.append(node)
            return
        kids = doc.resolve(node.get("Kids"))
        if isinstance(kids, list):
            for kid in kids:
                _walk_kids(doc.resolve(kid), out, depth + 1)

    page_objs: list[dict] = []
    for num in sorted(doc.objs):
        val = doc.objs[num][0]
        if isinstance(val, dict):
            t = val.get("Type")
            if isinstance(t, tuple) and t[1] == "Catalog":
                _walk_kids(doc.resolve(val.get("Pages")), page_objs)
                break
    if not page_objs:
        page_objs = [
            doc.objs[num][0] for num in sorted(doc.objs)
            if isinstance(doc.objs[num][0], dict)
            and isinstance(doc.objs[num][0].get("Type"), tuple)
            and doc.objs[num][0].get("Type")[1] == "Page"
        ]

    pages = []
    for val in page_objs:
        # malformed /MediaBox (short array, name entries) must not raise:
        # fall back to US Letter (the never-raises contract)
        try:
            mb = _inherited(doc, val, "MediaBox")
            mb = [float(doc.resolve(x) or 0) for x in mb]
            if len(mb) < 4:
                raise ValueError
        except (TypeError, ValueError):
            mb = [0.0, 0.0, 612.0, 792.0]
        width, height = mb[2] - mb[0], mb[3] - mb[1]

        # fonts: resource name -> info dict.  Composite (Type0) fonts
        # decode via their ToUnicode CMap or are skipped; simple fonts
        # decode via ToUnicode, else /Encoding (+/Differences), else
        # Latin-1, with /Widths-based advances when declared.
        fonts: dict[str, dict] = {}
        res = _inherited(doc, val, "Resources")
        if isinstance(res, dict):
            fdict = doc.resolve(res.get("Font"))
            if isinstance(fdict, dict):
                for fname, fref in fdict.items():
                    fobj = doc.resolve(fref)
                    if not isinstance(fobj, dict):
                        continue
                    bf = fobj.get("BaseFont")
                    info = dict(_DEFAULT_FONT)
                    info["flags"] = _font_flags(
                        bf[1] if isinstance(bf, tuple) else "")
                    tu = fobj.get("ToUnicode")
                    data_tu = (doc.stream_of(tu[1])
                               if isinstance(tu, tuple) and tu[0] == "ref"
                               else None)
                    cmap = None
                    if data_tu:
                        try:
                            cmap = parse_tounicode_cmap(data_tu)
                        except Exception:
                            cmap = None
                    if _nameof(fobj.get("Subtype")) == "Type0":
                        if cmap is not None:
                            info["cmap"] = cmap
                        else:
                            info["cid_skip"] = True
                        enc = fobj.get("Encoding")
                        if isinstance(enc, tuple) and enc[0] == "ref":
                            # embedded CMap stream: code->CID map makes
                            # /W real for non-Identity encodings
                            try:
                                data_enc = doc.stream_of(enc[1])
                                if data_enc:
                                    info["cid_of"] = parse_cid_cmap(
                                        data_enc) or None
                            except Exception:
                                pass
                        try:
                            info["widths"], info["mw"] = _cid_font_widths(
                                doc, fobj,
                                has_cid_map=info["cid_of"] is not None)
                        except Exception:
                            pass
                    else:  # simple font
                        if cmap is not None and cmap[1] == 1:
                            info["cmap"] = cmap
                        else:
                            try:
                                info["dec"] = _simple_font_decode_table(doc, fobj)
                            except Exception:
                                info["dec"] = None
                        try:
                            info["widths"], info["mw"] = \
                                _simple_font_widths(doc, fobj)
                        except Exception:
                            pass
                    fonts[fname] = info

        contents = val.get("Contents")
        refs = contents if isinstance(contents, list) else [contents]
        body = b""
        for ref in refs:
            if isinstance(ref, tuple) and ref[0] == "ref":
                part = doc.stream_of(ref[1])
                if part:
                    body += part + b"\n"
        try:
            spans = _spans_from_content(body, fonts) if body else []
        except Exception:
            spans = []
        pages.append({
            "page_no": len(pages) + 1,
            "width": width,
            "height": height,
            "lines": _merge_lines(spans, height),
        })
    return pages


def build_simple_pdf(page_contents: list[str], compress: bool = False) -> bytes:
    """Minimal single-font-pair PDF writer (testing/corpus synthesis): one
    object per page content stream (plain or Flate), fonts /F1 Helvetica
    and /F2 Helvetica-Bold, correct xref.  Deterministic bytes."""
    objs: list[bytes] = []

    def add(body: bytes) -> int:
        objs.append(body)
        return len(objs)

    font1 = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    font2 = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica-Bold >>")
    content_ids = []
    for content in page_contents:
        raw = content.encode("latin-1", errors="replace")
        if compress:
            data = zlib.compress(raw)
            meta = f"<< /Length {len(data)} /Filter /FlateDecode >>".encode()
        else:
            data = raw
            meta = f"<< /Length {len(data)} >>".encode()
        content_ids.append(add(meta + b"\nstream\n" + data + b"\nendstream"))
    pages_id = len(objs) + 1 + len(page_contents)
    page_ids = [
        add(f"<< /Type /Page /Parent {pages_id} 0 R /Contents {cid} 0 R "
            f"/Resources << /Font << /F1 {font1} 0 R /F2 {font2} 0 R >> >> "
            ">>".encode())
        for cid in content_ids
    ]
    kids = " ".join(f"{p} 0 R" for p in page_ids)
    add(f"<< /Type /Pages /Kids [ {kids} ] /Count {len(page_ids)} "
        f"/MediaBox [ 0 0 612 792 ] >>".encode())
    catalog = add(f"<< /Type /Catalog /Pages {pages_id} 0 R >>".encode())

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objs) + 1}\n".encode() + b"0000000000 65535 f \n"
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root {catalog} 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def _ser_value(v) -> str:
    """Serialize a parsed object value back to PDF syntax (fixture
    round-trips; bytes become hex strings so output stays printable)."""
    if isinstance(v, dict):
        inner = " ".join(f"/{k} {_ser_value(x)}" for k, x in v.items())
        return f"<< {inner} >>"
    if isinstance(v, tuple) and len(v) == 2 and v[0] == "name":
        return f"/{v[1]}"
    if isinstance(v, tuple) and len(v) == 2 and v[0] == "ref":
        return f"{v[1]} 0 R"
    if isinstance(v, bytes):
        return f"<{v.hex()}>"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # repr() may emit exponent notation (1e-05), which is not valid
        # PDF number syntax — always fixed-point
        s = format(v, "f").rstrip("0").rstrip(".")
        return s or "0"
    if isinstance(v, int):
        return repr(v)
    if isinstance(v, list):
        return "[ " + " ".join(_ser_value(x) for x in v) + " ]"
    return "null"


_SCHEMES = {
    "rc4-40": dict(r=2, length_bits=40),
    "rc4-128": dict(r=3, length_bits=128),
    "aesv2": dict(r=4, length_bits=128, aes=True),
    "aes256": None,  # V5 R6
    "aes256r5": None,  # V5 R5
}


def encrypt_pdf(data: bytes, *, scheme: str = "rc4-128",
                user_pw: bytes = b"", id0: bytes = b"\xab" * 16) -> bytes:
    """Re-write a plain PDF as an encrypted one (standard security
    handler) — deterministic test-fixture builder, the inverse of what the
    reader's decrypt path undoes.  ``scheme`` in rc4-40 / rc4-128 / aesv2 /
    aes256 / aes256r5."""
    import hashlib as _hl

    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme.startswith("aes256"):
        enc_dict, enc = pdfcrypt.make_encrypt_dict_aes256(
            r=5 if scheme.endswith("r5") else 6, user_pw=user_pw)
    else:
        enc_dict, enc = pdfcrypt.make_encrypt_dict_rc4(
            id0, user_pw=user_pw, **_SCHEMES[scheme])

    doc = _load(data)
    nums = sorted(doc.objs)
    if not nums or nums != list(range(1, len(nums) + 1)):
        raise ValueError("encrypt_pdf needs contiguous object numbers 1..n")
    catalog = next(n for n in nums
                   if isinstance(doc.objs[n][0], dict)
                   and _nameof(doc.objs[n][0].get("Type")) == "Catalog")

    bodies: list[bytes] = []
    for num in nums:
        val, tail = doc.objs[num]
        if tail is None:
            bodies.append(_ser_value(val).encode("latin-1"))
            continue
        meta = val if isinstance(val, dict) else {}
        length = doc.resolve(meta.get("Length"))
        if isinstance(length, int) and 0 <= length <= len(tail) and (
                re.match(rb"\s*endstream", tail[length:length + 32])
                or length == len(tail)):
            raw = tail[:length]
        else:
            m = _ENDSTREAM_RE.match(tail)
            raw = m.group(1) if m else tail
        iv = _hl.md5(b"iv%d" % num).digest()  # deterministic per object
        eraw = pdfcrypt.encrypt_stream(enc, num, 0, raw, iv=iv)
        meta = dict(meta)
        meta["Length"] = len(eraw)
        bodies.append(_ser_value(meta).encode("latin-1")
                      + b"\nstream\n" + eraw + b"\nendstream")

    enc_num = len(nums) + 1
    bodies.append(_ser_value(enc_dict).encode("latin-1"))
    out = bytearray(b"%PDF-1.6\n")
    offsets = []
    for i, body in enumerate(bodies, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(bodies) + 1}\n".encode() + b"0000000000 65535 f \n"
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(bodies) + 1} /Root {catalog} 0 R "
            f"/Encrypt {enc_num} 0 R /ID [ <{id0.hex()}> <{id0.hex()}> ] >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def _pdf_escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)"))


def document_to_pdf(title: str, text: str, *, compress: bool = False,
                    lines_per_page: int = 30, wrap: int = 70) -> bytes:
    """Render (title, body text) as a simple multi-page PDF: bold 18pt
    title, 11pt body lines, page breaks every ``lines_per_page`` lines."""
    words = (text or "").split()
    lines: list[str] = []
    cur = ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > wrap:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}".strip()
    if cur:
        lines.append(cur)
    pages: list[str] = []
    i = 0
    first = True
    while first or i < len(lines):
        parts = []
        if first:
            parts.append(f"BT /F2 18 Tf 72 750 Td ({_pdf_escape(title)}) Tj ET")
            first = False
        chunk = lines[i : i + lines_per_page]
        i += lines_per_page
        parts.extend(
            f"BT /F1 11 Tf 1 0 0 1 72 {720 - 13 * j} Tm ({_pdf_escape(l)}) Tj ET"
            for j, l in enumerate(chunk))
        pages.append(" ".join(parts))
    return build_simple_pdf(pages or [""], compress=compress)
