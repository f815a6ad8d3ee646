"""HTML block parser (M1-M5 DOM analogue) unit tests."""

from pdf_extract_ray.stages.html_parser import fallback_blocks, parse_html


def test_basic_blocks_and_tags():
    html = b"""<html><body>
      <h1>Title One</h1>
      <h2>Sub</h2>
      <h3>Deep</h3>
      <p>Body   text   here.</p>
    </body></html>"""
    blocks = parse_html(html)
    assert [(b.tag, b.text) for b in blocks] == [
        ("H1", "Title One"),
        ("H2", "Sub"),
        ("H3", "Deep"),
        ("P", "Body text here."),
    ]
    assert [b.block_no for b in blocks] == [0, 1, 2, 3]


def test_boilerplate_stripped():
    html = b"""<body><header>chrome</header><nav>links</nav>
      <p>keep me.</p>
      <aside>side</aside><footer>foot</footer>
      <script>var x=1;</script><style>.a{}</style></body>"""
    blocks = parse_html(html)
    assert [b.text for b in blocks] == ["keep me."]


def test_bold_paragraph_becomes_h2():
    blocks = parse_html(b"<p><b>All bold para</b></p><p>normal <b>part</b> bold</p>")
    assert blocks[0].tag == "H2"
    assert blocks[1].tag == "P"
    assert blocks[1].text == "normal part bold"


def test_multi_page_sections():
    html = b"""<section data-page="1"><p>one.</p></section>
               <section data-page="2"><p>two.</p></section>"""
    blocks = parse_html(html)
    assert [(b.page_no, b.text) for b in blocks] == [(1, "one."), (2, "two.")]


def test_invalid_and_empty_inputs():
    assert parse_html(None) == []
    assert parse_html(b"") == []
    assert parse_html(b"\x00\xffbinary junk") == []
    assert parse_html(b"<body></body>") == []


def test_entities_and_br():
    blocks = parse_html(b"<p>a&amp;b<br>c</p>")
    assert blocks[0].text == "a&b c"


def test_fallback_blocks():
    out = fallback_blocks("line one.\n\n  line two.  \n")
    assert [(b.tag, b.text) for b in out] == [("P", "line one."), ("P", "line two.")]
    assert fallback_blocks(None) == []
    assert fallback_blocks("") == []


def test_nested_list_items():
    blocks = parse_html(b"<ul><li>item a</li><li>item b</li></ul>")
    assert [b.text for b in blocks] == ["item a", "item b"]


TRICKY_HTML = [
    b"<p>a < b and c.</p>",                      # bare '<' in text
    b"<p>x</p><!-- comment with <p>hidden</p> --><p>y</p>",
    b"<script>if (a<b) { document.write('<p>no</p>'); }</script><p>keep.</p>",
    b"<style>p { color: red; } /* <p>x</p> */</style><p>styled.</p>",
    b"<P>UPPER tags</P><H1>Loud</H1>",
    b"<p class='x' data-y=\"z\">attrs</p>",
    b"<section data-page=3><p>unquoted attr page</p></section>",
    b"<p>self<br/>closing</p>",
    b"<p>unclosed paragraph",
    b"<p>entity &amp; &lt;tag&gt; &#65;</p>",
    b"<!DOCTYPE html><?xml version='1.0'?><p>decls.</p>",
    b"<p>nested <b>bold <i>italic</i></b> end</p>",
    b"<ul><li>a<li>b</ul>",                      # unclosed li
    b"<p></p><p> </p><p>real</p>",               # empty blocks
    "<p>한국어 &quot;인용&quot; 텍스트</p>".encode(),
    # "İ".lower() is two characters: a rawtext close tag searched in a
    # lowercased copy lands past the real one and drops what follows
    ("<p>" + "İ" * 30 + "</p><script>x</script><p>keep this.</p>").encode(),
    # an invalid charref unescapes to "": no text, so the paragraph stays
    # all bold
    b"<p><b>Title</b>&#127;</p>",
]


def test_fast_tokenizer_matches_stdlib_on_tricky_html():
    from pdf_extract_ray.stages.html_parser import parse_html, parse_html_stdlib

    for html in TRICKY_HTML:
        assert parse_html(html) == parse_html_stdlib(html), html


def test_fast_tokenizer_matches_stdlib_on_corpus_pages_for_every_rule_pack():
    from pdf_extract_ray.config import RULE_PACKS
    from pdf_extract_ray.corpus import build_doc
    from pdf_extract_ray.stages.html_parser import parse_html, parse_html_stdlib

    pages = [build_doc(7, i)["html"] for i in range(200)]
    for key, cfg in RULE_PACKS.items():
        n_blocks = 0
        for html in pages:
            blocks = parse_html(html, cfg)
            assert blocks == parse_html_stdlib(html, cfg), (key, html)
            n_blocks += len(blocks)
        assert n_blocks > 1000, key
