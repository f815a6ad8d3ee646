"""Fragment stage: consecutive-header merge, dot-leader strip, document-
sequential fragment ids, section split.

Semantics re-implemented from the reference (not copied):

* merge runs of the SAME heading tag (H1/H2/H3) into one fragment joined
  with a single space; P fragments pass through unmerged; every emitted
  fragment has dot-leader runs (>=5 dots) removed
  (reference: euaa_사례/pdf_to_json/main.py:18-74);
* fragment ids are document-sequential over the merged list
  (pdf_to_json/main.py:126-133);
* section split: every header starts a new section; P items accumulate in
  the current section (sentence_composer.py:406-438).  ``section_id`` is
  0-based; leading P items before any header belong to section 0.

The scan is per document, so it runs inside a per-url group (or over a
document already materialized as one row) — never across urls.
"""

from __future__ import annotations

from dataclasses import dataclass

from pdf_extract_ray.functions.text import strip_dot_leaders
from pdf_extract_ray.stages.html_parser import Block

_HEADER_TAGS = ("H1", "H2", "H3")


@dataclass(slots=True)
class Fragment:
    frag_id: int           # document-sequential, 0-based
    page_no: int           # page of the fragment's first block
    section_id: int
    tag: str               # H1 | H2 | H3 | P
    text: str


def merge_blocks(blocks: list[Block]) -> list[Fragment]:
    """Merge tagged blocks (in reading order, across pages) into fragments
    with section ids."""
    merged: list[tuple[int, str, str]] = []  # (page_no, tag, text)
    run_tag: str | None = None
    run_texts: list[str] = []
    run_page = 1

    def flush():
        nonlocal run_tag, run_texts
        if run_texts:
            merged.append((run_page, run_tag, strip_dot_leaders(" ".join(run_texts))))
        run_tag, run_texts = None, []

    for b in blocks:
        if not b.text:
            continue
        if b.tag == "P":
            flush()
            merged.append((b.page_no, "P", strip_dot_leaders(b.text)))
        elif b.tag in _HEADER_TAGS:
            if b.tag == run_tag:
                run_texts.append(b.text)
            else:
                flush()
                run_tag, run_texts, run_page = b.tag, [b.text], b.page_no
    flush()

    out: list[Fragment] = []
    section = 0
    for i, (page_no, tag, text) in enumerate(merged):
        if tag in _HEADER_TAGS:
            # each header starts a new section (first header opens section 1
            # if leading P's occupied section 0, else section increments);
            # before the first header every fragment is a P
            if out:
                section += 1
        out.append(Fragment(i, page_no, section, tag, text))
    return out
