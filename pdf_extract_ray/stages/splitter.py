"""Rule-based sentence composer/splitter — the deterministic automaton that
replaces the reference's LLM composition step.

The reference delegates this to Gemini, but states the rules explicitly in
its prompt (reference: euaa_사례/sentence_composer.py:354-404); those rules,
plus the driver behavior around them (sentence_composer.py:440-537), are
the spec implemented here:

1. MERGE: read P fragments in order, joining with a single space, until the
   accumulated text is a *complete* unit: it ends with terminal punctuation
   (. ? !) AND all brackets ( ) [ ] are balanced.
2. SPLIT: a complete unit containing several complete sentences is split at
   each terminal-punctuation position that sits at bracket depth 0 and is
   followed by whitespace.
3. CLEANUP (applied to composed sentences only): whitespace runs collapse
   to one space; ``( text )`` -> ``(text)``.
4. BYPASS: headers pass through verbatim (sentence_composer.py:515-524);
   a section whose P-count is exactly 1 passes its P through verbatim, no
   cleanup (sentence_composer.py:533-537 "P가 1개만 있으면 LLM 처리 없이
   직접 추가").
5. FLUSH: a trailing incomplete buffer at section end is emitted as-is
   (analogue of the failed-batch raw fallback, sentence_composer.py:476-478).

Frozen decisions beyond the prompt's letter (SURVEY.md §7.4.5): a terminal
punct char ends a sentence only at bracket depth 0 and only when followed
by whitespace or end-of-buffer (so ``3.5`` and ``C-550/16`` never split);
quotes are not tracked; bracket depth never goes negative (stray closers
are ignored for balance).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from pdf_extract_ray.config import DEFAULT_CONFIG, ExtractConfig
from pdf_extract_ray.functions.text import tidy_bracket_spacing
from pdf_extract_ray.stages.merge import Fragment


_INTERESTING_CACHE: dict[tuple[str, str, str], "re.Pattern"] = {}


def _interesting_re(cfg: ExtractConfig):
    key = (cfg.terminal_punct, cfg.open_brackets, cfg.close_brackets)
    rx = _INTERESTING_CACHE.get(key)
    if rx is None:
        rx = _INTERESTING_CACHE[key] = re.compile(
            "[" + re.escape(key[0] + key[1] + key[2]) + "]"
        )
    return rx


@dataclass(slots=True)
class Sentence:
    page_no: int
    frag_id: int           # fragment the sentence STARTED in
    sent_no: int           # 0-based within the document
    text: str
    source_type: str       # H1 | H2 | H3 | P


def split_complete(text: str, cfg: ExtractConfig = DEFAULT_CONFIG) -> list[str]:
    """Split a text into complete sentences at depth-0 terminal punctuation
    followed by whitespace.  The final piece may be incomplete."""
    pieces: list[str] = []
    depth = 0
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch in cfg.open_brackets:
            depth += 1
        elif ch in cfg.close_brackets and depth > 0:
            depth -= 1
        elif ch in cfg.terminal_punct and depth == 0:
            if i + 1 >= n or text[i + 1].isspace():
                piece = text[start : i + 1].strip()
                if piece:
                    pieces.append(piece)
                start = i + 1
    tail = text[start:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def compose_paragraphs(p_texts: list[str], cfg: ExtractConfig = DEFAULT_CONFIG) -> list[str]:
    """Compose a section's P fragments (>=2 of them) into complete sentences.

    Semantics (unchanged, frozen): after each fragment append, every
    leading complete sentence (depth-0 terminal punct followed by
    whitespace/end) is emitted tidied; the incomplete tail keeps
    accumulating; a trailing incomplete buffer flushes as-is.  Appending a
    fragment to a non-empty buffer is ``f"{buf} {frag}".strip()``; to an
    empty one, the fragment itself.

    Implementation: one scan of the fragments joined with single spaces.
    A fragment's end is followed by the joining space there, and by the
    end of the buffer in the append loop, so both see the same
    boundaries, and the complete pieces agree once tidied.  Only the raw
    trailing buffer can differ in whitespace (empty fragments, fragments
    with whitespace at an edge), so it is rebuilt with the append rule
    from the rest of the fragment holding the last boundary."""
    text = " ".join(p_texts)
    n = len(text)
    out: list[str] = []
    start = 0       # just past the last boundary
    depth = 0
    op, cl = cfg.open_brackets, cfg.close_brackets
    # visit only the "interesting" chars (brackets + terminal punct) via
    # the C regex engine; plain text is skipped without Python bytecode
    for m in _interesting_re(cfg).finditer(text):
        ch = m.group()
        if ch in op:
            depth += 1
        elif ch in cl:
            if depth:
                depth -= 1
        elif not depth:
            i = m.end()
            if i == n or text[i].isspace():
                out.append(tidy_bracket_spacing(text[start:i]))
                start = i
    if start == n:
        return out
    # the raw trailing buffer: what follows the last boundary in its
    # fragment, then the later fragments by the append rule
    k, buf = 0, ""
    if start:
        k = len(p_texts) - 1
        off = n - len(p_texts[k])   # offset of fragment k in text
        while off >= start:
            k -= 1
            off -= len(p_texts[k]) + 1
        buf = p_texts[k][start - off:].strip()
        k += 1
    for frag in p_texts[k:]:
        buf = f"{buf} {frag}".strip() if buf else frag
    if buf:
        out.append(buf)  # trailing incomplete: emit as-is (raw fallback)
    return out


def compose_document(frags: list[Fragment], cfg: ExtractConfig = DEFAULT_CONFIG) -> list[Sentence]:
    """Run the composer per section over a document's fragments; headers and
    singleton-P sections bypass untouched."""
    out: list[Sentence] = []
    append = out.append
    # fragments arrive in document order; a section's headers are emitted
    # first, then its composed P's
    i = 0
    n = len(frags)
    while i < n:
        sec = frags[i].section_id
        first = None
        texts: list[str] = []
        while i < n:
            f = frags[i]
            if f.section_id != sec:
                break
            if f.tag != "P":
                append(Sentence(f.page_no, f.frag_id, len(out), f.text, f.tag))
            else:
                if first is None:
                    first = f
                texts.append(f.text)
            i += 1
        if len(texts) == 1:
            append(Sentence(first.page_no, first.frag_id, len(out), first.text, "P"))
        elif texts:
            for text in compose_paragraphs(texts, cfg):
                append(Sentence(first.page_no, first.frag_id, len(out), text, "P"))
    return out
