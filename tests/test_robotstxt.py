"""robots.txt (RFC 9309 subset): parse + most-specific-match decisions
(functions/robotstxt.py) and the host-cogrouped verdict stage
(stages/robots.py)."""

import pandas as pd

from pdf_extract_ray.functions.robotstxt import (
    parse_robots_txt,
    robots_allowed,
    url_path,
)

SIMPLE = """
User-agent: *
Disallow: /private/
Allow: /private/ok/
Disallow: /*.pdf$
"""


def dec(text, path, agent="*"):
    return robots_allowed(parse_robots_txt(text, agent), path)


def test_prefix_disallow_and_longer_allow_override():
    assert dec(SIMPLE, "/public/x")
    assert not dec(SIMPLE, "/private/x")
    assert dec(SIMPLE, "/private/ok/x")   # longer Allow wins (more octets)


def test_wildcard_and_anchor():
    assert not dec(SIMPLE, "/a/b.pdf")
    assert dec(SIMPLE, "/a/b.pdfx")       # $ anchors the end
    assert not dec("User-agent: *\nDisallow: /a/*/c", "/a/b/c")
    assert dec("User-agent: *\nDisallow: /a/*/c", "/a/b/d")


def test_agent_group_selection():
    t = ("User-agent: googlebot\nDisallow: /\n\n"
         "User-agent: *\nDisallow: /tmp/")
    assert not dec(t, "/anything", agent="googlebot")
    assert not dec(t, "/anything", agent="GoogleBot")  # case-insensitive
    assert dec(t, "/x") and not dec(t, "/tmp/x")


def test_stacked_user_agent_lines_share_a_block():
    t = ("User-agent: a\nUser-agent: b\nDisallow: /x/\n\n"
         "User-agent: *\nDisallow:\n")
    assert not dec(t, "/x/1", agent="a")
    assert not dec(t, "/x/1", agent="b")
    assert dec(t, "/x/1")                 # '*' group: empty Disallow


def test_tie_goes_to_allow():
    t = "User-agent: *\nDisallow: /a/b\nAllow: /a/c"
    # equal-length non-overlapping rules, sanity
    assert not dec(t, "/a/b") and dec(t, "/a/c")
    t2 = "User-agent: *\nDisallow: /p\nAllow: /p"
    assert dec(t2, "/p/x")                # exact-octet tie -> Allow


def test_garbage_and_edge_inputs_are_total():
    assert dec(None, "/x")
    assert dec("", "/x")
    assert dec("random noise\nno colons here", "/x")
    assert dec("Disallow: /x/", "/x/1")   # rule before any agent: ignored
    assert dec("User-agent: *\nCrawl-delay: 5\nSitemap: http://s", "/x")


def test_no_match_means_allowed():
    assert dec("User-agent: *\nDisallow: /only/", "/other/")


def test_url_path_extraction():
    assert url_path("http://a.example/p/1?x=1#f") == "/p/1?x=1#f"
    assert url_path("https://a.example") == "/"
    assert url_path("/bare/path") == "/bare/path"
    assert url_path("not a url") == "/"


def test_verdicts_cogroup(ray_session):
    import ray.data as rd

    from pdf_extract_ray.stages.robots import robots_txt_verdicts

    pages = rd.from_pandas(pd.DataFrame({
        "url": ["http://A.example/private/1",     # host case-folds
                "http://a.example/private/ok/2",
                "http://a.example/p/3",
                "http://b.example/anything",      # no robots.txt -> allowed
                "http://c.example/x.pdf"],
        "body": [f"b{i}" for i in range(5)],
    })).repartition(3)
    robots = rd.from_items([
        {"host": "a.example", "robots_txt": SIMPLE},
        {"host": "c.example",
         "robots_txt": "User-agent: *\nDisallow: /*.pdf$"},
    ])
    v = robots_txt_verdicts(pages, robots).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    got = dict(zip(v["url"], v["allowed"]))
    assert got == {
        "http://A.example/private/1": False,
        "http://a.example/private/ok/2": True,
        "http://a.example/p/3": True,
        "http://b.example/anything": True,
        "http://c.example/x.pdf": False,
    }


def test_sitemap_lines_extracted_anywhere():
    from pdf_extract_ray.functions.robotstxt import sitemap_urls

    t = ("Sitemap: http://a.example/sitemap.xml\n"
         "User-agent: *\nDisallow: /x/\n"
         "sitemap: http://a.example/s2.xml  # comment\n"
         "Sitemap:\n")  # empty value skipped
    assert sitemap_urls(t) == ["http://a.example/sitemap.xml",
                               "http://a.example/s2.xml"]
    assert sitemap_urls(None) == [] and sitemap_urls("no colons") == []


def test_unknown_fields_do_not_end_agent_stacking_run():
    # RFC 9309 §2.2.4 (round-4 ADVICE): unrecognized lines are ignored —
    # 'UA: a / Crawl-delay: 1 / UA: b / Disallow: /x' stacks a AND b
    # onto the same rule block.
    from pdf_extract_ray.functions.robotstxt import (
        parse_robots_txt,
        robots_allowed,
    )

    t = ("User-agent: a\nCrawl-delay: 1\nUser-agent: b\nDisallow: /x\n")
    for agent in ("a", "b"):
        rules = parse_robots_txt(t, agent)
        assert robots_allowed(rules, "/x/page") is False, agent
        assert robots_allowed(rules, "/y") is True, agent
    # a rule line still ends the run: a later UA starts a NEW group
    t2 = ("User-agent: a\nDisallow: /x\nUser-agent: b\nDisallow: /y\n"
          "Sitemap: http://e/s.xml\nDisallow: /z\n")
    ra = parse_robots_txt(t2, "a")
    rb = parse_robots_txt(t2, "b")
    assert robots_allowed(ra, "/x") is False and robots_allowed(ra, "/y") is True
    # b's block keeps accumulating across the ignored Sitemap line
    assert robots_allowed(rb, "/y") is False and robots_allowed(rb, "/z") is False
    assert robots_allowed(rb, "/x") is True


def test_verdicts_one_row_per_page_row(ray_session):
    # pages that share a url each get their own verdict row
    import ray.data as rd

    from pdf_extract_ray.stages.robots import robots_txt_verdicts

    pages = rd.from_pandas(pd.DataFrame({
        "url": ["http://a.example/p/1", "http://a.example/p/1",
                "http://a.example/private/2", "http://a.example/private/2",
                "http://b.example/x"],
        "body": [f"b{i}" for i in range(5)],
    })).repartition(2)
    robots = rd.from_items([
        {"host": "a.example",
         "robots_txt": "User-agent: *\nDisallow: /private/\n"},
    ])
    # one row PER PAGE ROW (the frozen oracle semantics)
    v = robots_txt_verdicts(pages, robots).to_pandas()
    assert len(v) == 5


class TestCrawlDelay:
    def test_last_valid_value_wins(self):
        from pdf_extract_ray.functions.robotstxt import crawl_delay_value

        txt = ("User-agent: *\nCrawl-delay: 2.5\nDisallow: /p/\n"
               "Crawl-delay: 7\nCrawl-delay: soon\n")
        assert crawl_delay_value(txt) == 7.0

    def test_group_selection_and_stacking(self):
        from pdf_extract_ray.functions.robotstxt import crawl_delay_value

        # exact agent beats '*'
        txt = ("User-agent: bot\nDisallow: /x\nCrawl-delay: 3\n\n"
               "User-agent: *\nDisallow: /\nCrawl-delay: 9\n")
        assert crawl_delay_value(txt, "bot") == 3.0
        assert crawl_delay_value(txt, "other") == 9.0
        # UA lines separated only by a crawl-delay merge into ONE group
        # (the same stacking rule parse_robots_txt froze): both agents
        # share the delay
        merged = "User-agent: a\nCrawl-delay: 1\nUser-agent: b\nDisallow: /x\n"
        assert crawl_delay_value(merged, "a") == 1.0
        assert crawl_delay_value(merged, "b") == 1.0

    def test_absent_invalid_and_garbage(self):
        from pdf_extract_ray.functions.robotstxt import crawl_delay_value

        assert crawl_delay_value(None) is None
        assert crawl_delay_value("") is None
        assert crawl_delay_value("User-agent: *\nDisallow: /\n") is None
        assert crawl_delay_value("User-agent: *\nCrawl-delay: -1\n") is None
        assert crawl_delay_value("Crawl-delay: 4\n") is None  # no group
        assert crawl_delay_value("%% garbage ::: lines\n") is None

    def test_stage(self, ray_session):
        import ray.data as rd

        from pdf_extract_ray.stages.robots import crawl_delays

        robots = rd.from_items([
            {"host": "a", "robots_txt": "User-agent: *\nCrawl-delay: 4\n"},
            {"host": "b", "robots_txt": "User-agent: *\nDisallow: /\n"},
        ])
        got = (crawl_delays(robots).to_pandas()
               .sort_values("host").reset_index(drop=True))
        assert got.loc[0, "crawl_delay"] == 4.0
        assert pd.isna(got.loc[1, "crawl_delay"])
