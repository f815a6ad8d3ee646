"""HTML -> tagged text blocks: the DOM transposition of the reference's
per-page layout parse.

Reference semantics transposed (SURVEY.md §0): header/footer margin strip
(layout_analyzer.py:34-55) becomes boilerplate-chrome element removal
(<header>/<nav>/<footer>/<aside>/...); font-size/bold H1-H3/P tagging
(layout_analyzer.py:119-161) becomes <h1>-<h6> + bold-paragraph tagging;
two-column reading-order sort (layout_analyzer.py:57-66) becomes DOM
order; per-line whitespace collapse (layout_analyzer.py:88) is applied
per block.  Multi-page documents are encoded as
``<section data-page="N">`` wrappers (FIXTURES.md F1.7).

Pure Python (no bs4/lxml), and deliberately tolerant: byte input goes
through charset sniffing (``functions/encoding.decode_html_bytes``: BOM ->
strict UTF-8 -> meta charset -> replace fallback) and malformed markup
degrades to text accumulation, never an exception — at 100 TB the parser
must not die on one bad page.

``parse_html`` is one loop over one compiled token regex per config: one
``match`` per token (text run, start tag, end tag, comment), one tag-table
lookup per tag, and the open-element state lives in local variables.
``parse_html_stdlib`` drives ``_BlockCollector`` from the stdlib
``html.parser`` and is the reference it is tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from html import unescape as _unescape
from html.parser import HTMLParser

from pdf_extract_ray.config import DEFAULT_CONFIG, ExtractConfig
from pdf_extract_ray.functions.encoding import decode_html_bytes
from pdf_extract_ray.functions.text import collapse_ws


@dataclass(slots=True)
class Block:
    page_no: int
    block_no: int          # DOM order within the page (reading order)
    tag: str               # H1 | H2 | H3 | P
    text: str
    is_bold: bool


class _BlockCollector(HTMLParser):
    """Streaming collector of text blocks in DOM order."""

    def __init__(self, cfg: ExtractConfig):
        super().__init__(convert_charrefs=True)
        self.cfg = cfg
        self.heading_map = dict(cfg.heading_map)
        self.block_tags = set(cfg.block_tags)
        self.boiler = set(cfg.boilerplate_tags)
        self.bold_tags = set(cfg.bold_inline_tags)

        self.blocks: list[Block] = []
        self.page_no = 1
        self._page_counters: dict[int, int] = {}
        self._boiler_depth = 0
        # stack of open block elements: [tag_kind, [text parts], bold_weighted_chars, total_chars]
        self._open: list[list] = []
        self._bold_depth = 0

    # -- element boundaries -------------------------------------------------
    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag == "section":
            for k, v in attrs:
                if k == "data-page" and v is not None:
                    try:
                        self.page_no = int(v)
                    except ValueError:
                        pass
        if tag in self.boiler:
            self._boiler_depth += 1
            return
        if self._boiler_depth:
            return
        if tag in self.bold_tags:
            self._bold_depth += 1
            return
        if tag in self.heading_map or tag in self.block_tags:
            # implied end tags (HTML5): a new same-name element closes the
            # open one (<li>...<li>), and ANY new block closes an open <p>
            # — both ubiquitous in crawl HTML
            while self._open and (self._open[-1][4] == tag
                                  or self._open[-1][4] == "p"):
                self._end_block()
            self._begin_block(
                self.heading_map.get(tag, "P"), tag
            )
        elif tag == "br" and self._open:
            self._open[-1][1].append(" ")

    def handle_startendtag(self, tag, attrs):
        # a self-closing element opens no scope: undo whatever the start
        # handler pushed (boilerplate depth, bold depth, or a block frame)
        self.handle_starttag(tag, attrs)
        tag = tag.lower()
        if tag in self.boiler:
            self._boiler_depth -= 1
        elif self._boiler_depth:
            pass
        elif tag in self.bold_tags:
            self._bold_depth = max(0, self._bold_depth - 1)
        elif tag in self.heading_map or tag in self.block_tags:
            self._end_block()

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in self.boiler:
            self._boiler_depth = max(0, self._boiler_depth - 1)
            return
        if self._boiler_depth:
            return
        if tag in self.bold_tags:
            self._bold_depth = max(0, self._bold_depth - 1)
            return
        if tag in self.heading_map or tag in self.block_tags:
            self._end_block()

    def handle_data(self, data):
        if self._boiler_depth or not data:
            return
        if self._open:
            frame = self._open[-1]
            frame[1].append(data)
            n = len(data.strip())
            frame[3] += n
            if self._bold_depth:
                frame[2] += n

    # -- block lifecycle ----------------------------------------------------
    def _begin_block(self, kind: str, src_tag: str = ""):
        self._open.append([kind, [], 0, 0, src_tag])

    def flush_open(self):
        """Emit blocks left open at end of input (implied end at EOF /
        truncated pages) — without this, crawl HTML relying on implied
        end tags loses its content entirely."""
        while self._open:
            self._end_block()

    def _end_block(self):
        if not self._open:
            return
        kind, parts, bold_chars, total_chars, _src = self._open.pop()
        text = collapse_ws("".join(parts))
        if not text:
            return
        # bold-paragraph rule: a P whose text is entirely bold is a heading
        # (DOM analogue of "bold -> H2", layout_analyzer.py:140-142)
        is_bold = total_chars > 0 and bold_chars == total_chars
        if kind == "P" and is_bold:
            kind = "H2"
        n = self._page_counters.get(self.page_no, 0)
        self._page_counters[self.page_no] = n + 1
        self.blocks.append(Block(self.page_no, n, kind, text, is_bold))
        # text inside this block must not leak into an outer open block
        # (nested <p>/<li> cases)


_NAME = r"[a-zA-Z][a-zA-Z0-9.:_-]*"
_ATTRS = r"""(?:\s+[^\s/>=]+(?:\s*=\s*(?:"[^"]*"|'[^']*'|[^\s>]*))?)*"""
_DATA_PAGE_RE = re.compile(
    r"""data-page\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE
)
_RAWTEXT_TAGS = ("script", "style")

# what a tag does, in the collector's precedence: boilerplate > bold >
# heading/block > br
_BOILER, _BOLD, _BLOCK, _BR, _OTHER = range(5)
# token kinds: the ``lastindex`` of a token match, i.e. the last group that
# closes in its alternative (comments, declarations and PIs have none)
_TEXT, _END, _START, _LT = 1, 2, 5, 6


@lru_cache(maxsize=16)
def _grammar(cfg: ExtractConfig):
    """The token regex and the tag table of one config.

    The regex alternatives, tried in this order at each position:

    1. a text run up to the next ``<``;
    2. an end tag;
    3. a start tag (group 5 is ``/`` when it self-closes);
    4. a comment (to ``-->`` or the end of the page), a declaration or a
       PI: nothing to do;
    5. a lone ``<``, which is text.

    The table maps a lowercased tag name to ``(action, block kind, name,
    rawtext close regex)``; a name it lacks does nothing.
    """
    heading = dict(cfg.heading_map)
    kinds = {}
    for name in {*heading, *cfg.block_tags, *cfg.boilerplate_tags,
                 *cfg.bold_inline_tags, "br", "section", *_RAWTEXT_TAGS}:
        if name != name.lower():
            continue  # never equal to a lowercased tag name
        if name in cfg.boilerplate_tags:
            act = _BOILER
        elif name in cfg.bold_inline_tags:
            act = _BOLD
        elif name in heading or name in cfg.block_tags:
            act = _BLOCK
        elif name == "br":
            act = _BR
        else:
            act = _OTHER
        close = (re.compile("</" + name, re.IGNORECASE | re.ASCII)
                 if name in _RAWTEXT_TAGS else None)
        kinds[name] = (act, heading.get(name, "P"), name, close)
    token = re.compile(
        r"([^<]+)"
        rf"|</\s*({_NAME})\s*>"
        rf"|<({_NAME})({_ATTRS})\s*(/?)>"
        r"|<!--(?s:.*?)(?:-->|\Z)|<[!?][^>]*>?"
        r"|(<)"
    )
    return token, kinds


def parse_html(html: bytes | str | None, cfg: ExtractConfig = DEFAULT_CONFIG) -> list[Block]:
    """Parse one page's HTML into tagged blocks in reading (DOM) order.

    One loop matches one token regex per token (see ``_grammar``) and does
    one tag-table lookup per tag; the open elements live in local
    variables.  The blocks are those ``parse_html_stdlib`` (the
    ``html.parser``-driven reference) returns on well-formed markup.

    Returns ``[]`` for null/empty/non-HTML input — callers route those rows
    to the pre-extracted ``text`` fallback (reference "기존 형식" fallback,
    main.py:577-584) or to the reject side-channel (validity check analogue
    of main.py:1678-1727).
    """
    if html is None:
        return []
    if isinstance(html, bytes):
        html = decode_html_bytes(html)[0]
    if "<" not in html:
        return []
    token, kinds = _grammar(cfg)
    match = token.match
    blocks: list[Block] = []
    counters: dict[int, int] = {}   # blocks emitted so far per page
    page = 1
    boiler = bold = 0               # open boilerplate / bold elements
    # open block elements: [kind, tag name, text parts, all text bold so far]
    frames: list[list] = []

    def end_block(page):
        kind, _, parts, all_bold = frames.pop()
        text = " ".join("".join(parts).split())
        if text:
            # bold-paragraph rule: a P whose text is entirely bold is a
            # heading (DOM analogue of "bold -> H2", layout_analyzer.py:140-142)
            c = counters.get(page, 0)
            counters[page] = c + 1
            blocks.append(Block(page, c, "H2" if all_bold and kind == "P" else kind,
                                text, all_bold))

    n = len(html)
    pos = 0
    try:
        while pos < n:
            m = match(html, pos)
            pos = m.end()
            tok = m.lastindex
            if tok == _TEXT or tok == _LT:
                if boiler or not frames:
                    continue
                data = m.group(tok)
                if "&" in data:
                    data = _unescape(data)
                    if not data:
                        continue  # only invalid charrefs: no text at all
                f = frames[-1]
                f[2].append(data)
                if f[3] and not bold and not data.isspace():
                    f[3] = False
            elif tok == _START:
                spec = kinds.get(m.group(3).lower())
                if spec is None:
                    continue
                if spec[2] == "section":
                    attrs = m.group(4)
                    am = _DATA_PAGE_RE.search(attrs) if attrs else None
                    if am:
                        v = am.group(1) or am.group(2) or am.group(3)
                        if v is not None:
                            try:
                                page = int(v)
                            except ValueError:
                                pass
                selfclose = m.group(5) == "/"
                if not selfclose and spec[3] is not None:
                    # rawtext: skip to the close tag verbatim; the start and
                    # end events then cancel out as for a self-closing tag
                    close = spec[3].search(html, pos)
                    gt = -1 if close is None else html.find(">", close.start())
                    pos = n if gt < 0 else gt + 1
                    selfclose = True
                act = spec[0]
                if act == _BOILER:
                    if not selfclose:
                        boiler += 1
                elif boiler:
                    pass
                elif act == _BOLD:
                    if not selfclose:
                        bold += 1
                elif act == _BR:
                    if frames:
                        frames[-1][2].append(" ")
                elif act == _BLOCK:
                    # implied end tags (HTML5): a new same-name element
                    # closes the open one (<li>...<li>), and any new block
                    # closes an open <p>
                    name = spec[2]
                    while frames and (frames[-1][1] == name or frames[-1][1] == "p"):
                        end_block(page)
                    if not selfclose:
                        frames.append([spec[1], name, [], True])
            elif tok == _END:
                spec = kinds.get(m.group(2).lower())
                if spec is None:
                    continue
                act = spec[0]
                if act == _BOILER:
                    if boiler:
                        boiler -= 1
                elif boiler:
                    pass
                elif act == _BOLD:
                    if bold:
                        bold -= 1
                elif act == _BLOCK and frames:
                    end_block(page)
            # else: a comment, declaration or PI
        # implied end at EOF / truncated pages: without this, crawl HTML
        # relying on implied end tags loses its content entirely
        while frames:
            end_block(page)
    except Exception:
        # malformed beyond repair: salvage whatever blocks were collected
        pass
    return blocks


def parse_html_stdlib(html: bytes | str | None, cfg: ExtractConfig = DEFAULT_CONFIG) -> list[Block]:
    """stdlib html.parser-driven variant, kept as a cross-check oracle for
    the fast tokenizer on WELL-FORMED markup (tests assert identical blocks
    there).  On pathologically malformed tags the two recovery strategies
    deliberately differ: html.parser's tolerant regex can emit garbage tag
    names (e.g. a tag literally named "b<"), while the fast tokenizer — the
    frozen spec — treats an unparseable '<' as text."""
    if html is None:
        return []
    if isinstance(html, bytes):
        html = decode_html_bytes(html)[0]
    if "<" not in html:
        return []
    p = _BlockCollector(cfg)
    try:
        p.feed(html)
        p.close()
        p.flush_open()
    except Exception:
        pass
    return p.blocks


def fallback_blocks(text: str | None) -> list[Block]:
    """Build P blocks from the pre-extracted ``text`` column (one block per
    non-empty line), for rows whose html is missing or not parseable."""
    if not text:
        return []
    out = []
    for i, line in enumerate(t for t in (collapse_ws(l) for l in text.splitlines()) if t):
        out.append(Block(1, i, "P", line, False))
    return out
