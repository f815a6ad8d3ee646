"""Golden-oracle integrity: the committed single-process goldens
(tools/gen_goldens.py) must (a) match a fresh regeneration — no stale
files after kernel changes — and (b) match the live distributed queries,
which is the distributed == single-process proof the driver's gate
consumes via oracle_sql()'s read_parquet entries."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from tools.gen_goldens import GOLDEN_ROOT, generate_all
from tools.selfcheck import as_pandas, canon

GOLDEN_QUERIES = (
    "extract_flagship", "extract_staged", "extract_sentences",
    "align_pairs", "align_merged_kr", "align_full_outer",
    "minhash_near_dup", "simhash_near_dup", "winnow_near_dup",
    "pair_analyzers", "layout_tagging", "media_features",
    "media_pixel_features",
    "compression_ratio_docs", "bpe_merges", "bpe_token_stats",
    "similarity_topk_ivf", "embedding_near_dup_lsh",
    "pdf_extract_docs", "near_dup_clusters", "near_dup_dedup_docs",
    "substr_dedup_docs", "host_pagerank", "host_trustrank", "host_hits",
    "cms_word_probe",
    "nb_quality_docs", "bloom_url_probe", "nb_topic_docs",
    "image_near_dup", "semdedup_embeddings", "dsir_weights_docs",
    "kmeans_embeddings", "k_core_docs", "host_mirror_docs",
    "markdown_docs", "porter_stems",
    "label_prop_docs", "knn_join_embeddings", "central_embeddings",
    "cdc_dedup_docs", "silhouette_embeddings",
    "unigram_vocab_docs", "unigram_token_stats", "textrank_keywords",
    "sentence_stats_docs",
)


@pytest.fixture(scope="module")
def regenerated():
    return {sf: generate_all(f"/root/testdata/{sf}") for sf in ("sf0.001", "sf0.01")}


def test_committed_goldens_not_stale(regenerated):
    for sf, tables in regenerated.items():
        for name, fresh in tables.items():
            path = os.path.join(GOLDEN_ROOT, sf, f"{name}.parquet")
            assert os.path.exists(path), f"missing committed golden {path}"
            committed = pq.read_table(path)
            assert committed.equals(fresh), f"stale golden: {sf}/{name}"
    # and no orphaned files for queries that no longer exist
    for path in glob.glob(os.path.join(GOLDEN_ROOT, "*", "*.parquet")):
        name = os.path.basename(path)[: -len(".parquet")]
        assert name in GOLDEN_QUERIES, f"orphaned golden {path}"


@pytest.mark.parametrize("name", GOLDEN_QUERIES)
def test_distributed_matches_single_process_golden(ray_session, regenerated, name):
    import __ray_entry__ as entry

    sf_dir = "/root/testdata/sf0.001"
    got = canon(as_pandas(entry.queries()[name](sf_dir)))
    exp = canon(regenerated["sf0.001"][name].to_pandas())
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    assert got.equals(exp), f"distributed != single-process for {name}"
