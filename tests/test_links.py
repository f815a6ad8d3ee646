"""Outlink extraction + host link graph (stages/links.py): href forms,
scheme filtering, relative resolution, entity unescape, byte decode, and
the distributed host rollup (the `link_edges` driver query adds the
full SQL-oracle check)."""

import pandas as pd
import pytest

from pdf_extract_ray.stages.links import extract_links_batch, host_link_edges


def _page(html, url="http://h.example/a/b"):
    return pd.DataFrame({"url": [url], "html": [html]})


def test_href_quote_forms():
    out = extract_links_batch(_page(
        '<a href="http://x.example/1">a</a>'
        "<a href='http://x.example/2'>b</a>"
        "<a href=http://x.example/3>c</a>"))
    assert list(out.dst_url) == [f"http://x.example/{i}" for i in (1, 2, 3)]


def test_relative_resolution_and_fragment_skip():
    out = extract_links_batch(_page(
        '<a href="/root">r</a><a href="sib">s</a>'
        '<a href="../up">u</a><a href="#frag">f</a>'))
    assert list(out.dst_url) == [
        "http://h.example/root",
        "http://h.example/a/sib",
        "http://h.example/up",
    ]


def test_scheme_filtering():
    out = extract_links_batch(_page(
        '<a href="javascript:void(0)">j</a><a href="mailto:x@y">m</a>'
        '<a href="data:text/plain,x">d</a><a href="tel:123">t</a>'
        '<a href="ftp://f.example/x">f</a>'
        '<a href="https://ok.example/">k</a>'))
    assert list(out.dst_url) == ["https://ok.example/"]


def test_entity_unescape_and_bytes():
    page = '<a href="http://q.example/?a=1&amp;b=2">q</a>'
    out = extract_links_batch(_page(page.encode("utf-8")))
    assert list(out.dst_url) == ["http://q.example/?a=1&b=2"]


def test_null_and_empty_html():
    df = pd.DataFrame({"url": ["u1", "u2"], "html": [None, ""]})
    assert len(extract_links_batch(df)) == 0


def test_host_link_edges_rollup(ray_session):
    import ray.data as rd

    pages = pd.DataFrame({
        "url": ["http://a.example/1", "http://a.example/2",
                "http://b.example/1"],
        "html": ['<a href="http://b.example/x">1</a>'
                 '<a href="/self">2</a>',
                 '<a href="http://b.example/y">3</a>',
                 '<a href="HTTP://A.example:80/z">4</a>'],
    })
    got = (host_link_edges(rd.from_pandas(pages))
           .to_pandas()
           .sort_values(["src_host", "dst_host"]).reset_index(drop=True))
    expect = pd.DataFrame({
        "src_host": ["a.example", "a.example", "b.example"],
        "dst_host": ["a.example", "b.example", "a.example"],
        "n_links": [1, 2, 1],
    })
    pd.testing.assert_frame_equal(
        got.astype({"n_links": "int64"}), expect)


def test_anchor_text_cleaning():
    from pdf_extract_ray.stages.links import extract_anchors_batch

    out = extract_anchors_batch(_page(
        '<a href="http://x.example/1"><b>Bold</b>  link\n text </a>'
        '<a href="http://x.example/2">&lt;b&gt; &amp; stays</a>'
        '<a href="http://x.example/3"><img src="i.png"/></a>'
        '<a href="javascript:x">skipped anyway</a>'
        '<a href="/rel" class=c>rel text</a>'))
    assert list(out.dst_url) == [
        "http://x.example/1", "http://x.example/2", "http://h.example/rel"]
    assert list(out.anchor) == ["Bold link text", "<b> & stays", "rel text"]


def test_anchor_host_rollup(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.links import anchor_host_rollup

    pages = pd.DataFrame({
        "url": ["http://a.example/1", "http://a.example/2"],
        "html": ['<a href="http://t.example/x">buy  now</a>'
                 '<a href="http://t.example/y">buy now</a>',
                 '<a href="http://t.example/z">other</a>'],
    })
    got = (anchor_host_rollup(rd.from_pandas(pages).repartition(2))
           .to_pandas().sort_values("anchor").reset_index(drop=True))
    expect = pd.DataFrame({
        "dst_host": ["t.example", "t.example"],
        "anchor": ["buy now", "other"],
        "n_links": [2, 1],
    })
    pd.testing.assert_frame_equal(got, expect.astype({"n_links": got.n_links.dtype}))


def test_hreflang_extraction():
    from pdf_extract_ray.stages.links import extract_hreflang_batch

    out = extract_hreflang_batch(_page(
        '<link rel="alternate" hreflang="KO" href="/ko/1">'
        "<link hreflang='en-us' rel='ALTERNATE stylesheet' "
        "href='http://en.example/1'>"
        '<link rel="alternate" href="/no-lang">'
        '<link rel="stylesheet" hreflang="fr" href="/decoy">'
        '<link rel="alternate" hreflang="de" href="/de?a=1&amp;b=2">'))
    assert list(out.hreflang) == ["ko", "en-us", "de"]
    assert list(out.alt_url) == [
        "http://h.example/ko/1", "http://en.example/1",
        "http://h.example/de?a=1&b=2"]
    assert list(out.src_url) == ["http://h.example/a/b"] * 3


def test_links_run_resume_and_global(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_extract_ray.pipelines.linkgraph import links_run

    src = tmp_path / "pages"
    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({
            "url": [f"http://s{i}.example/p"],
            "html": [f'<a href="http://t.example/{i}">x</a>'
                     '<a href="http://t.example/0">y</a>'],
        }), src / f"p{i}.parquet")

    out = tmp_path / "out"
    stats = links_run(str(src / "*.parquet"), str(out),
                      files_per_partition=1, min_rows_per_file=1,
                      pagerank_iters=4)
    assert stats["completed"] == 2 and stats["global"] == "completed"
    g = (rd.read_parquet(str(out / "global")).to_pandas()
         .sort_values("src_host").reset_index(drop=True))
    assert list(g.src_host) == ["s0.example", "s1.example"]
    assert list(g.n_links) == [2, 2]
    assert (out / "pagerank.parquet").exists()
    import pandas as pd
    pr = pd.read_parquet(out / "pagerank.parquet")
    assert set(pr.node) == {"s0.example", "s1.example", "t.example"}
    assert pr.loc[pr.node == "t.example", "rank"].iloc[0] == pr["rank"].max()

    # resume: nothing re-runs, global pass skips (same partition set)
    stats2 = links_run(str(src / "*.parquet"), str(out),
                       files_per_partition=1, min_rows_per_file=1,
                       pagerank_iters=4)
    assert stats2["skipped"] == 2 and stats2["global"] == "skipped"


def test_links_run_global_follows_respect_robots(ray_session, tmp_path):
    """A flag that redoes the partitions redoes the global merge too:
    after toggling ``respect_robots`` on, ``global/`` equals a fresh
    run's, without the nofollow page's edge."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_extract_ray.pipelines.linkgraph import links_run

    src = tmp_path / "pages"
    src.mkdir()
    pq.write_table(pa.table({
        "url": ["http://a.example/p", "http://c.example/p"],
        "html": ['<meta name="robots" content="nofollow">'
                 '<a href="http://b.example/">x</a>',
                 '<a href="http://d.example/">y</a>'],
    }), src / "p0.parquet")

    def run(out, **kw):
        return links_run(str(src / "*.parquet"), str(out),
                         files_per_partition=1, min_rows_per_file=1, **kw)

    def graph(out):
        return sorted(rd.read_parquet(str(out / "global")).to_pandas()
                      .itertuples(index=False))

    out = tmp_path / "out"
    assert run(out)["global"] == "completed"
    assert len(graph(out)) == 2
    toggled = run(out, respect_robots=True)
    assert toggled["completed"] == 1 and toggled["global"] == "completed"
    fresh = tmp_path / "fresh"
    run(fresh, respect_robots=True)
    assert graph(out) == graph(fresh) == [("c.example", "d.example", 1)]


def test_url_path_rollup_sql_parity_and_edges(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from pdf_extract_ray.stages.links import (
        url_path_rollup,
        url_path_rollup_oracle_sql,
    )

    urls = [
        "https://a.example/x/y/z?q=1",      # depth1 /x, depth2 /x/y
        "https://a.example/x/w",            # depth1 /x, depth2 /x/w
        "HTTP://A.Example:80/x/y",          # same host after canon
        "https://b.example/",               # no non-empty segment
        "https://b.example//double/slash",  # leading // -> no prefixes
        "not a url at all",                 # skipped (no scheme)
        None,                               # skipped
        "https://c.example/only",           # depth1 only
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(urls), dtype="int64"),
                       "url": urls})
    got = (url_path_rollup(rd.from_pandas(df).repartition(3), max_depth=2)
           .to_pandas()
           .sort_values(["url_host", "depth", "prefix"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = (con.sql(url_path_rollup_oracle_sql("SELECT url FROM t",
                                               max_depth=2)).df()
            .sort_values(["url_host", "depth", "prefix"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # known values: host a.example has 3 pages under /x at depth 1
    a1 = got[(got["url_host"] == "a.example") & (got["depth"] == 1)]
    assert a1["prefix"].tolist() == ["/x"] and a1["n_docs"].iloc[0] == 3
    # the // path and the bare / contribute nothing
    assert not (got["url_host"] == "b.example").any()
    with pytest.raises(ValueError):
        url_path_rollup(rd.from_pandas(df), max_depth=0)


def test_registered_domain_rollup(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.links import registered_domain_rollup

    df = pd.DataFrame({"url": [
        "https://a.shop.co.uk/x", "https://b.shop.co.uk/y",
        "https://shop.co.uk/", "http://www.blog.com/p",
        "http://blog.com/q", "http://localhost/",
        "https://one.example.com.au/", "nope",
    ]})
    got = (registered_domain_rollup(rd.from_pandas(df).repartition(3))
           .to_pandas().set_index("registered_domain"))
    # a.shop/b.shop/shop .co.uk all collapse to the OWNER shop.co.uk
    assert got.loc["shop.co.uk", "n_docs"] == 3
    assert got.loc["shop.co.uk", "n_hosts"] == 3
    # www. is part of the host but not the registrable domain
    assert got.loc["blog.com", "n_docs"] == 2
    assert got.loc["blog.com", "n_hosts"] == 2
    assert got.loc["localhost", "n_docs"] == 1
    assert got.loc["example.com.au", "n_hosts"] == 1
    assert "nope" not in got.index and len(got) == 4


def test_query_param_rollup_counts_and_distinct_docs(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_extract_ray.stages.links import query_param_rollup

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "url": [
            "https://s.example/?a=1&a=2&b=3",   # duplicate key in one url
            "https://s.example/p?a=9&flag",     # valueless param
            "https://s.example/p#a=frag",       # fragment is NOT a query
            "not a url",
        ],
    })
    got = (query_param_rollup(rd.from_pandas(df).repartition(2))
           .to_pandas().set_index("param_key"))
    assert got.loc["a", "n_total"] == 3   # two in doc 1 + one in doc 2
    assert got.loc["a", "n_docs"] == 2
    assert got.loc["b", "n_total"] == 1
    assert got.loc["flag", "n_docs"] == 1
    assert len(got) == 3


def test_tld_lang_crosstab(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.functions.url import canonicalize_urls
    from pdf_extract_ray.stages.links import (
        tld_lang_crosstab,
        tld_lang_crosstab_oracle_sql,
    )

    df = pd.DataFrame({
        "url": ["http://a.example.de/x", "http://b.de/y", "https://c.fr/z",
                "http://d.de/w", "not a url", "http://e.fr/q"],
        "lang": ["de", "de", "fr", "en", None, "de"],
    })
    got = (tld_lang_crosstab(rd.from_pandas(df).repartition(3))
           .to_pandas().sort_values(["tld", "lang"])
           .reset_index(drop=True))
    # .de hosts: 2 de + 1 en; .fr hosts: 1 fr + 1 de; non-url -> ('','')
    assert got[got["tld"] == "de"]["n_docs"].tolist() == [2, 1]
    assert len(got[got["tld"] == ""]) == 1
    src = df.assign(url_host=canonicalize_urls(df["url"])["url_host"])
    con = duckdb.connect()
    con.register("src", src[["url_host", "lang"]])
    want = (con.execute(tld_lang_crosstab_oracle_sql("SELECT * FROM src"))
            .df().sort_values(["tld", "lang"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_text_url_mentions(ray_session):
    import duckdb
    import ray.data as rd

    from pdf_extract_ray.stages.links import (
        text_url_mentions,
        text_url_mentions_oracle_sql,
    )

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [
            "see http://a.com/x and (https://b.org/y) plus "
            '"https://c.net/z" quoted',
            "no urls here",
            None,
        ],
    })
    got = (text_url_mentions(rd.from_pandas(df).repartition(2))
           .to_pandas().sort_values(["doc_id", "pos"])
           .reset_index(drop=True))
    assert got["url"].tolist() == [
        "http://a.com/x", "https://b.org/y", "https://c.net/z"]
    assert got["pos"].tolist() == [1, 2, 3]
    con = duckdb.connect()
    con.register("t", df)
    want = (con.execute(text_url_mentions_oracle_sql("t"))
            .df().sort_values(["doc_id", "pos"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
