"""Fragment merge (M6-M8) and sentence composer (M9) unit tests.

These encode the frozen splitter spec (sentence_composer.py:354-404 rules
as SURVEY.md §7.4.5 decisions)."""

import pytest

from pdf_extract_ray.stages.html_parser import Block
from pdf_extract_ray.stages.merge import merge_blocks
from pdf_extract_ray.stages.splitter import compose_document, compose_paragraphs, split_complete


def B(tag, text, page=1, no=0):
    return Block(page, no, tag, text, False)


class TestMerge:
    def test_consecutive_same_headers_merge(self):
        frags = merge_blocks([B("H1", "Part"), B("H1", "One"), B("P", "body.")])
        assert [(f.tag, f.text) for f in frags] == [("H1", "Part One"), ("P", "body.")]

    def test_different_headers_do_not_merge(self):
        frags = merge_blocks([B("H1", "A"), B("H2", "B")])
        assert [(f.tag, f.text) for f in frags] == [("H1", "A"), ("H2", "B")]

    def test_dot_leaders_stripped_everywhere(self):
        frags = merge_blocks([B("H2", "TOC ......"), B("P", "Intro ..... 3")])
        assert frags[0].text == "TOC "
        assert frags[1].text == "Intro  3"

    def test_frag_ids_sequential(self):
        frags = merge_blocks([B("H1", "A"), B("P", "x."), B("P", "y."), B("H2", "B")])
        assert [f.frag_id for f in frags] == [0, 1, 2, 3]

    def test_section_ids(self):
        frags = merge_blocks(
            [B("P", "lead."), B("H1", "A"), B("P", "x."), B("H2", "B"), B("P", "y.")]
        )
        assert [(f.text, f.section_id) for f in frags] == [
            ("lead.", 0), ("A", 1), ("x.", 1), ("B", 2), ("y.", 2)
        ]


class TestSplitComplete:
    def test_simple_split(self):
        assert split_complete("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_no_split_inside_brackets(self):
        assert split_complete("See (ref. 12) now.") == ["See (ref. 12) now."]

    def test_decimal_and_code_not_split(self):
        assert split_complete("Version 3.5 of C-550/16.") == ["Version 3.5 of C-550/16."]

    def test_trailing_incomplete_kept(self):
        assert split_complete("Done. And then") == ["Done.", "And then"]


class TestCompose:
    def test_merge_until_terminal(self):
        out = compose_paragraphs(["The court ruled", "that the appeal", "was denied."])
        assert out == ["The court ruled that the appeal was denied."]

    def test_bracket_balance_forces_merge(self):
        out = compose_paragraphs(["Decision (case no.", "123) was issued."])
        assert out == ["Decision (case no. 123) was issued."]

    def test_multi_sentence_line_splits(self):
        out = compose_paragraphs(["First done. Second also done.", "Third one here."])
        assert out == ["First done.", "Second also done.", "Third one here."]

    def test_cleanup_bracket_spacing(self):
        out = compose_paragraphs(["A ruling ( important ) was", "made today."])
        assert out == ["A ruling (important) was made today."]

    def test_trailing_incomplete_flushed_raw(self):
        out = compose_paragraphs(["Complete one.", "dangling fragment without end"])
        assert out == ["Complete one.", "dangling fragment without end"]

    def test_leading_complete_emitted_while_buffering(self):
        out = compose_paragraphs(["Full stop here. Partial", "continues now."])
        assert out == ["Full stop here.", "Partial continues now."]

    # Frozen outputs of the append-and-rescan composer.  The raw trailing
    # buffer is built by appending each fragment as f"{buf} {frag}".strip()
    # (the fragment itself when the buffer is empty), so it differs from the
    # fragments joined with spaces only when a fragment is empty or has
    # whitespace at an edge.
    @pytest.mark.parametrize("frags, expected", [
        (["Done ( a ) here. and then", "", "more  words"],
         ["Done (a) here.", "and then more  words"]),
        (["Intro here. tail  part", "   ", "end of it"],
         ["Intro here.", "tail  part end of it"]),
        (["  lead  in (x", "y]", "z"],
         ["lead  in (x y] z"]),
        (["One. two ", "three ", "four"],
         ["One.", "two three four"]),
    ], ids=["empty_fragment", "whitespace_fragment", "leading_space_no_boundary",
            "trailing_space_fragments"])
    def test_raw_tail_follows_the_append_rule(self, frags, expected):
        assert compose_paragraphs(frags) == expected


class TestComposeDocument:
    def test_headers_verbatim_and_singleton_bypass(self):
        frags = merge_blocks(
            [
                B("H1", "Header  With ...... leader"),
                B("P", "only  paragraph ( raw )"),  # singleton: NO cleanup
                B("H2", "Next"),
                B("P", "a b"),
                B("P", "c."),
            ]
        )
        sents = compose_document(frags)
        texts = [(s.source_type, s.text) for s in sents]
        assert texts == [
            ("H1", "Header  With  leader"),     # dot-leader stripped at merge, rest verbatim
            ("P", "only  paragraph ( raw )"),   # singleton-P bypass: untouched
            ("H2", "Next"),
            ("P", "a b c."),
        ]
        assert [s.sent_no for s in sents] == [0, 1, 2, 3]
