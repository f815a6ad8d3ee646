import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def text_docs(tmp_path):
    """Factory: ``n_files`` parquet files ``d<i>.parquet`` of text documents
    (url, text, lang; ``per_file`` rows each) under ``tmp_path/docs``;
    returns that directory."""
    def make(n_files: int, per_file: int = 30):
        from pdf_extract_ray.corpus import pages_table

        src = tmp_path / "docs"
        src.mkdir()
        docs = pages_table(n_files * per_file, seed=7).to_pandas()[
            ["url", "text", "lang"]]
        docs["text"] = docs["text"].fillna("")
        for i in range(n_files):
            docs.iloc[i * per_file:(i + 1) * per_file].to_parquet(
                src / f"d{i}.parquet")
        return src
    return make
