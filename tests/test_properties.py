"""Property-based tests (hypothesis) for the frozen extraction rules
(SURVEY.md §5.2.3)."""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_extract_ray.config import DEFAULT_CONFIG
from pdf_extract_ray.functions.hungarian import linear_sum_assignment
from pdf_extract_ray.functions.text import collapse_ws, tidy_bracket_spacing
from pdf_extract_ray.stages.assemble import assemble_sentences
from pdf_extract_ray.stages.html_parser import parse_html, parse_html_stdlib
from pdf_extract_ray.stages.merge import merge_blocks
from pdf_extract_ray.stages.splitter import Sentence, compose_paragraphs, split_complete

# text fragments: words, punctuation, brackets, hangul, whitespace noise
_tokens = st.sampled_from(
    list("abc 한글.?!()[]") + ["  ", "word", "있다", "3.5", "C-550/16", "\t"]
)
_frag = st.lists(_tokens, min_size=0, max_size=12).map("".join)
fragments = st.lists(_frag, min_size=0, max_size=8)


def squash(s: str) -> str:
    return re.sub(r"\s+", "", s)


@given(fragments)
@settings(max_examples=300, deadline=None)
def test_composer_preserves_non_whitespace(frags):
    """The composer only manipulates whitespace: the concatenated
    non-whitespace characters of the output equal those of the input."""
    out = compose_paragraphs(frags, DEFAULT_CONFIG)
    assert squash("".join(out)) == squash("".join(frags))


@given(_frag)
@settings(max_examples=300, deadline=None)
def test_split_complete_preserves_non_whitespace(text):
    pieces = split_complete(text, DEFAULT_CONFIG)
    assert squash("".join(pieces)) == squash(text)


@given(fragments)
@settings(max_examples=200, deadline=None)
def test_composer_idempotent_on_complete_output(frags):
    """Re-composing already-composed sentences must not re-split or merge
    differently (each output piece is either complete or a final flush)."""
    out = compose_paragraphs(frags, DEFAULT_CONFIG)
    again = compose_paragraphs(out, DEFAULT_CONFIG)
    # non-whitespace content preserved through the second pass too
    assert squash("".join(again)) == squash("".join(out))


@given(st.permutations(list(range(8))))
@settings(max_examples=50, deadline=None)
def test_reassembly_permutation_invariant(order):
    sents = [Sentence(page_no=1 + i // 3, frag_id=i, sent_no=i, text=f"s{i}.",
                      source_type="P") for i in range(8)]
    shuffled = [sents[i] for i in order]
    assert assemble_sentences(shuffled) == assemble_sentences(sents)


@given(st.text(alphabet=st.sampled_from(list("ab ()[].,!?:; ")), max_size=30))
@settings(max_examples=300, deadline=None)
def test_tidy_idempotent(text):
    once = tidy_bracket_spacing(text)
    assert tidy_bracket_spacing(once) == once


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_collapse_ws_matches_regex_semantics(text):
    assert collapse_ws(text) == re.sub(r"\s+", " ", text).strip()


html_bits = st.sampled_from([
    "<p>", "</p>", "<h1>", "</h1>", "<b>", "</b>", "<li>", "</li>",
    "<section data-page='2'>", "</section>", "<header>", "</header>",
    "text ", "한글 ", "a < b", "&amp;", "<!-- c -->", "<br/>", ".", "(", ")",
    # cases the fast tokenizer's grammar treats specially: attributes, any
    # case, self-closing, boilerplate, rawtext, a lowercase form longer
    # than the name, an entity cut short, a charref that unescapes to ""
    "<p class='x'>", "<P>", "</P>", "<h2>", "</h2>", "<td>", "<strong>",
    "<p/>", "<nav>", "<script>a<b</script>", "<style>", "İ", "&lt", "&#127;",
])
# NOTE: pathologically malformed start tags (e.g. "<p>a<b</p>") are excluded:
# the stdlib parser's tolerant regex yields a tag literally named "b<" there,
# which the fast tokenizer (the frozen spec) deliberately treats as text.


@given(st.lists(html_bits, max_size=25).map("".join))
@settings(max_examples=200, deadline=None)
def test_fast_tokenizer_equals_stdlib(html):
    assert parse_html(html.encode()) == parse_html_stdlib(html.encode())


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_hungarian_valid_and_not_worse_than_greedy(n, m, seed):
    rng = np.random.RandomState(seed)
    cost = rng.rand(n, m)
    r, c = linear_sum_assignment(cost)
    assert len(r) == min(n, m)
    assert len(set(r.tolist())) == len(r) and len(set(c.tolist())) == len(c)
    # greedy upper bound
    remaining_r, remaining_c = set(range(n)), set(range(m))
    greedy = 0.0
    for _ in range(min(n, m)):
        best = min(((cost[i, j], i, j) for i in remaining_r for j in remaining_c))
        greedy += best[0]
        remaining_r.discard(best[1])
        remaining_c.discard(best[2])
    assert cost[r, c].sum() <= greedy + 1e-9
