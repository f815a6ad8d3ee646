"""Driver-contract smoke: entry() runs on sf0.001 with a stable schema."""


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    rows = ds.take(5)
    assert len(rows) >= 1
    assert set(rows[0]) == {"url", "warc_ts", "lang", "extracted_text",
                            "n_sentences", "n_pages", "status"}
    assert ds.count() == 500


def test_oracle_keys_subset_of_queries():
    import __ray_entry__ as e

    q, o = e.queries(), e.oracle_sql()
    assert set(o) <= set(q)
    assert len(q) >= 30


def test_registry_reads_only_extraction_tables():
    """Every table a registry query reads, ``_t(sf_dir, "<table>")`` or
    ``f"{sf_dir}/<table>.parquet"``, is one of the extraction tables."""
    import ast
    import re

    import __ray_entry__ as e

    with open(e.__file__) as f:
        tree = ast.parse(f.read())
    tables = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_t"):
            assert isinstance(node.args[1], ast.Constant), ast.unparse(node)
            tables.add(node.args[1].value)
        elif isinstance(node, ast.JoinedStr) and "sf_dir" in ast.unparse(node):
            text = "".join(v.value for v in node.values
                           if isinstance(v, ast.Constant))
            tables.update(re.findall(r"/(\w+)\.parquet", text))
    assert "documents" in tables
    assert tables <= {"documents", "embeddings"}, sorted(tables)
