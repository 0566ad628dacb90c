"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline at sf0.001;
``queries()``/``oracle_sql()`` expose each implemented operator with a
bit-exact DuckDB SQL twin (column names match on both sides). Every
query has an oracle. The LSH banding ops (MinHash/SimHash candidate
pairs) are checked exactly too: their oracles replay the same banding
arithmetic, and `near_dup_exact` pins the verified pipeline against an
all-pairs Jaccard.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any, Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from pdfplumber_ray.config import PipelineConfig, WordConfig
from pdfplumber_ray.functions.textstats import BPE_TOKEN_RE, STOPWORDS
from pdfplumber_ray.pipelines import (
    analytics as an,
    corpus_ops as co,
    decode_pages_ds,
    extract_spans_ds,
    search_ds,
    words_ds,
)
from pdfplumber_ray.pipelines.exchange import attach, bucket_map, segment_runs
from pdfplumber_ray.sources.synth_corpus import docs_from_documents_batch
from pdfplumber_ray.sources.table_docs import cells_table_from_spans, docs_from_lineitem

SEARCH_PATTERN = "qu[a-z]+"


def _interleaved_docs(sf_dir: str) -> ray.data.Dataset:
    """documents.parquet -> interleaved DOCS rows (deterministic adapter)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(
        docs_from_documents_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _documents(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _embeddings(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _doc_id_to_int(doc_ids: List[str]) -> pa.Array:
    return pa.array([int(d.rsplit("-", 1)[1]) for d in doc_ids], pa.int64())


def _query_vector(sf_dir: str) -> Optional[np.ndarray]:
    """Deterministic ANN query: the embedding of the smallest vec_id
    (``None`` on an empty embedding table — callers answer with a typed
    empty top-k)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    if t.num_rows == 0:
        return None
    ids = t.column("vec_id").to_numpy()
    return np.asarray(t.column("embedding")[int(np.argmin(ids))].as_py(), dtype=np.float64)


def _empty_topk() -> pa.Table:
    """Typed zero-row ANN answer for the empty-corpus path."""
    return pa.table(
        {"vec_id": pa.array([], pa.int64()), "sim_e3": pa.array([], pa.int64())}
    )


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: interleaved docs ->
    decode/layout -> kernel extraction -> ordered out_spans."""
    return extract_spans_ds(_interleaved_docs("/root/testdata/sf0.001"), PipelineConfig())


# ---- extraction-pipeline queries ----------------------------------------


def q_roundtrip_text(sf_dir: str) -> ray.data.Dataset:
    """Full extraction round trip: joined extracted span texts must equal
    the original document text (geometry -> words -> blocks path)."""
    out = extract_spans_ds(_interleaved_docs(sf_dir))

    def rejoin(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        texts = [
            " ".join(s["text"] for s in spans)
            for spans in batch.column("spans").to_pylist()
        ]
        return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})

    return out.map_batches(rejoin, batch_format="pyarrow", zero_copy_batch=True)


def q_word_count(sf_dir: str) -> ray.data.Dataset:
    """Per-document word count via the decode -> extract_words kernel path
    (reference utils/text.py:423-688), aggregated with a partial combine
    before the distributed groupby."""
    pages = decode_pages_ds(_interleaved_docs(sf_dir))
    w = words_ds(pages)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("doc_id").aggregate([("doc_id", "count")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "partial_n": g.column("doc_id_count").cast(pa.int64()),
            }
        )

    partials = w.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = partials.groupby("doc_id").sum("partial_n")

    def finish(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        n = batch.column("sum(partial_n)").cast(pa.int64())
        return pa.table({"doc_id": ids, "n_words": n})

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_search(sf_dir: str) -> ray.data.Dataset:
    """Regex search over the page textmap (reference TextMap.search,
    utils/text.py:172-210); matches equal regexp matches on the raw text
    because the layout is word-preserving."""
    pages = decode_pages_ds(_interleaved_docs(sf_dir))
    hits = search_ds(pages, SEARCH_PATTERN)

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    return hits.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_table_cells_lineitem(sf_dir: str) -> ray.data.Dataset:
    """Lattice table chain with a relational oracle: every lineitem order
    becomes a grid of (linenumber, returnflag, linestatus) cells; edge
    snap/join -> intersections -> cells -> tables must recover them in
    row-major order (reference table.py:566-578)."""
    docs = docs_from_lineitem(sf_dir)
    out = extract_spans_ds(docs, PipelineConfig())
    return out.map_batches(
        cells_table_from_spans, batch_format="pyarrow", zero_copy_batch=True
    )


# ---- training-data corpus ops -------------------------------------------


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    return co.exact_dedup_ds(_documents(sf_dir))


def q_token_stats(sf_dir: str) -> ray.data.Dataset:
    return co.token_stats_ds(_documents(sf_dir))


def q_quality(sf_dir: str) -> ray.data.Dataset:
    return co.quality_ds(_documents(sf_dir))


def q_lang_id(sf_dir: str) -> ray.data.Dataset:
    return co.lang_id_ds(_documents(sf_dir))


def q_repetition_stats(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition metrics (duplicate-content quality filter
    inputs): per-doc word/distinct-word/bigram counts and the max bigram
    multiplicity — factorize + segment reductions, all integers."""
    return co.repetition_stats_ds(_documents(sf_dir))


def q_tfidf_topk(sf_dir: str) -> ray.data.Dataset:
    """Top-5 discriminative terms per doc, integer-exact tf-idf ordering
    (tf DESC, df ASC, term ASC — monotone in the float score, no float in
    the output so the oracle compare is bit-exact)."""
    return co.tfidf_topk_ds(_documents(sf_dir), k=5)


def q_jaccard_join(sf_dir: str) -> ray.data.Dataset:
    """EXACT token-set similarity self-join (prefix filtering, Bayardo
    et al. 2007 / Vernica et al. 2010): every doc pair with set-Jaccard
    >= 0.8, zero probabilistic misses — the 100%-recall counterpart to
    minhash_pairs. Canonical df-ASC token order, rarest-token prefix
    grouping by bounded md5 buckets, integer-exact verify
    (inter*5 >= uni*4). max_bucket=None for oracle-exact pair emission;
    the default star-cap is the hot-prefix 100 TB path."""
    return co.jaccard_join_ds(
        _documents(sf_dir), threshold_num=4, threshold_den=5, max_bucket=None
    )


def q_rare_tokens(sf_dir: str) -> ray.data.Dataset:
    """Per-doc rare-token (OOV) quality signal: tokens with corpus-wide
    count < 3, counted with multiplicity, plus the integer permille
    ratio — a standard Gopher/C4-style garbage detector. Broadcast side
    is the FREQUENT set only (Heaps'-law small), one searchsorted probe
    per batch."""
    return co.rare_tokens_ds(_documents(sf_dir), min_count=3)


def q_heavy_hitters(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide top-100 tokens by occurrence (n DESC, token ASC):
    count combiner -> vocab groupby -> per-block top-k so the final
    global sort moves at most k rows per block."""
    return co.heavy_hitters_ds(_documents(sf_dir), k=100)


def q_length_rank(sf_dir: str) -> ray.data.Dataset:
    """Global percentile rank (count(*) OVER (ORDER BY n_chars)) WITHOUT
    a global sort: the window function becomes a broadcast CDF — one row
    per distinct value shuffles, one searchsorted probe per batch."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return co.length_rank_ds(docs)


def q_lang_confusion(sf_dir: str) -> ray.data.Dataset:
    """Language drift matrix (declared vs detected lang counts) — the
    metadata-quality monitor run before trusting a source's labels.
    Per-batch detect + combiner, one tiny langs x langs groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    return co.lang_confusion_ds(docs)


def q_grouped_heavy_hitters(sf_dir: str) -> ray.data.Dataset:
    """Top-3 tokens per language (per-group censor lists): (group, token)
    count combiner -> groupby sum -> per-block top-k per group -> final
    top-k in a bounded groupby (languages, not millions of keys)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )
    return an.grouped_heavy_hitters_ds(docs, k=3)


def q_length_outliers(sf_dir: str) -> ray.data.Dataset:
    """Integer-exact group-mean outlier flags (v * g_n > 3 * g_sum): the
    tiny per-group stats table broadcasts; one probe per batch."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return an.length_outliers_ds(docs)


def q_knn_graph(sf_dir: str) -> ray.data.Dataset:
    """Exact cosine k-NN graph (top-5 neighbors per vector, ranked
    round-6 sim DESC / neighbor ASC — integer sim_e6 output so ranking
    and values compare bit-exact). Small-N oracle path; the 100 TB path
    is the IVF cluster-local variant (ann_ivf / semantic_dedup)."""
    return co.knn_graph_ds(_embeddings(sf_dir), k=5)


def q_weighted_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic quality-weighted subsampling (CCNet-style): keep
    probability = min(n_chars, 1000) permille, decided by md5(id) —
    reproducible across engines, streaming, no shuffle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return co.weighted_sample_ds(docs, "n_chars")


def q_grouped_rank(sf_dir: str) -> ray.data.Dataset:
    """Per-group percentile rank (count(*) OVER (PARTITION BY lang ORDER
    BY n_chars)) without a global sort: one row per distinct (group,
    value) shuffles, the grouped CDF broadcasts once, one searchsorted
    probe per batch."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return an.grouped_rank_ds(docs, "lang", "n_chars", "doc_id")


def q_postings(sf_dir: str) -> ray.data.Dataset:
    """Inverted-index build with a RELATIVE df band (2 <= df <= N/2 —
    drop hapax noise and stopword-grade tokens at every corpus size):
    per-doc distinct combiner -> md5(token)-bucket shuffle (bounded
    groups) -> in-bucket vectorized posting assembly with one
    pc.binary_join. N comes from parquet metadata (no data scan)."""
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return an.postings_ds(_documents(sf_dir), min_df=2, max_df=n_docs // 2)


def q_quality_audit(sf_dir: str) -> ray.data.Dataset:
    """Expectation-style data-quality audit: row/null/empty counts,
    numeric min/max, exact distinct counts of the bounded categorical
    columns — one counter row per batch + a distinct-combiner groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["text", "n_chars", "lang", "source"],
    )
    return an.quality_audit_ds(docs)


def q_substring_dedup(sf_dir: str) -> ray.data.Dataset:
    """Exact-substring dedup pairs (suffix-array-style, Lee et al. 2022):
    docs sharing >= 2 distinct verbatim 8-token windows — the verbatim-
    substring modality MinHash (whole-doc near-dup) and SemDeDup
    (embedding near-dup) both miss. max_bucket=None for oracle-exact
    counts; the default star-cap is the 100 TB hot-gram path."""
    return co.substring_dedup_ds(
        _documents(sf_dir), k=8, min_shared=2, max_bucket=None
    )


def q_dataset_split(sf_dir: str) -> ray.data.Dataset:
    """Deterministic train/val/test assignment (md5-bucketed permille):
    stable across runs, cluster sizes, and engines — the leakage-proof
    split a training pipeline needs."""
    return co.dataset_split_ds(
        _documents(sf_dir).select_columns(["doc_id"]),
        val_permille=50, test_permille=50,
    )


def q_substring_strip(sf_dir: str) -> ray.data.Dataset:
    """Duplicate-text removal (the Lee et al. strip step): every token
    covered by an occurrence of an 8-gram shared across >= 2 docs is
    dropped; one output row per doc with the cleaned text and the
    removed-token count."""
    return co.substring_strip_ds(_documents(sf_dir), k=8, min_df=2)


def q_substring_runs(sf_dir: str) -> ray.data.Dataset:
    """Longest shared verbatim token run per doc pair (full Lee et al.
    2022 semantics — substring_dedup counts shared windows, this measures
    the run): pairs with a common run >= 15 tokens."""
    return co.substring_runs_ds(
        _documents(sf_dir), k=8, min_run_tokens=15, max_bucket=None
    )


def q_chunk_windows(sf_dir: str) -> ray.data.Dataset:
    """Training-sequence chunking: sliding 64-token windows (stride 48)
    per document; window text assembled via one pc.binary_join over an
    index-built list array."""
    return co.chunk_windows_ds(_documents(sf_dir), window=64, stride=48)


def q_weighted_median(sf_dir: str) -> ray.data.Dataset:
    """Token-mass-weighted median doc length vs the plain doc-count
    median — the heavy-tail curation statistic."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "text"]
    )
    return an.weighted_median_ds(docs)


def q_lsh_bucket_stats(sf_dir: str) -> ray.data.Dataset:
    """LSH band-bucket size distribution — the skew audit for the
    MinHash dedup path (would the max_bucket star-cap fire?)."""
    return co.lsh_bucket_stats_ds(_documents(sf_dir))


def q_backoff_surprisal(sf_dir: str) -> ray.data.Dataset:
    """Held-out bigram cross-entropy with stupid backoff: even docs
    train counts, odd docs score; unseen bigrams back off (+2 bits),
    unseen unigrams hit the uniform floor."""
    return co.backoff_surprisal_ds(_documents(sf_dir))


def q_dup_histogram(sf_dir: str) -> ray.data.Dataset:
    """Exact-duplicate family-size distribution (how big is the dedup
    problem): (family_size, n_families, n_docs)."""
    return co.dup_histogram_ds(_documents(sf_dir))


def q_term_coverage(sf_dir: str) -> ray.data.Dataset:
    """Zipf concentration audit: token share covered by the top-k terms
    for k in (10, 100, 1000), integer ppm."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return co.term_coverage_ds(docs)


def q_length_buckets(sf_dir: str) -> ray.data.Dataset:
    """Dynamic-batching length buckets: 8 quantile buckets over n_chars
    with per-bucket padding overhead (pad-to-max), integer-exact."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    )
    return co.length_buckets_ds(docs, n_bucket=8)


def q_keyness(sf_dir: str) -> ray.data.Dataset:
    """Per-source distinctive terms: integer lift of in-source term rate
    over rest-of-corpus rate (add-one on the rest count), top-5 per
    source by (lift DESC, term ASC)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return an.keyness_ds(docs, k=5)


def q_bigram_surprisal(sf_dir: str) -> ray.data.Dataset:
    """Integer-exact bigram-LM surprisal per doc: each transition
    contributes floor(log2(c1(w1) // c2(w1 w2))) bits (exact — the
    ratio is >= 1 since every bigram contains its prefix)."""
    return co.bigram_surprisal_ds(_documents(sf_dir))


def q_quota_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic stratified draw: Hamilton-apportioned quotas over
    (source, lang), then per-stratum md5-rank selection; exactly 100
    rows, no RNG state."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "doc_id"]
    )
    return co.quota_sample_ds(docs, k=100)


def q_chi2_assoc(sf_dir: str) -> ray.data.Dataset:
    """Integer-exact chi-squared association between lang and source
    (drift/dependence audit): per observed cell, contribution
    1e6*(O*N - R*C)^2 // (R*C*N) — Python bigints vs HUGEINT."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )
    return an.chi2_assoc_ds(docs)


def q_robust_scale(sf_dir: str) -> ray.data.Dataset:
    """Per-source robust scaling of n_chars ((v - median)/IQR in e6,
    truncating division to match SQL), integer-exact percentile_disc
    quartiles from the bounded per-group value CDF."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return an.robust_scale_ds(docs, "n_chars", "doc_id", group_col="source")


def q_novelty_score(sf_dir: str) -> ray.data.Dataset:
    """Per-doc novelty: fraction of distinct 5-gram shingles whose
    corpus-wide first occurrence (min doc_id) is this doc — the
    contribution/redundancy dual of the dedup family."""
    return co.novelty_score_ds(_documents(sf_dir))


def q_apportion_quota(sf_dir: str) -> ray.data.Dataset:
    """Largest-remainder (Hamilton) apportionment of 100 sample slots
    across (source, lang) strata; sum(quota) == 100 exactly."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )
    return co.apportion_quota_ds(docs, k=100)


def q_temperature_mix(sf_dir: str) -> ray.data.Dataset:
    """Temperature-scaled (alpha=0.5) multilingual sampling weights
    (XLM-R / mT5 rebalancing rule), integer-exact via math.isqrt; the
    SQL twin corrects floor(sqrt(double)) by +/-1 to the true isqrt."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "text"]
    )
    return co.temperature_mix_ds(docs)


def q_containment_dedup(sf_dir: str) -> ray.data.Dataset:
    """Broder containment verification of MinHash candidate pairs — the
    doc-inside-doc near-dup signal (|A∩B| / min(|A|,|B|), integer e6)."""
    docs = _documents(sf_dir)
    cands = co.minhash_pairs_ds(docs, threshold=0.35, max_bucket=None)
    return co.containment_dedup_ds(cands, docs, threshold_e6=600_000)


def q_token_budget_select(sf_dir: str) -> ray.data.Dataset:
    """Greedy token-budget training-set selection: highest-score docs
    first (n_chars DESC, id ASC) until 25% of corpus tokens; each kept
    row carries its exact cumulative token count — computed without a
    global sort (per-score-class offsets + one bucketed shuffle)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars", "text"]
    )
    return co.token_budget_select_ds(docs, budget_permille=250)


def q_shuffle_shards(sf_dir: str) -> ray.data.Dataset:
    """Deterministic training shuffle: md5-derived (shard, pos) address
    per document; reproducible across engines and runs."""
    return co.shuffle_shards_ds(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]),
        n_shards=64,
    )


def q_source_mix(sf_dir: str) -> ray.data.Dataset:
    """Curriculum-mixing weights: per (source, lang) doc/token totals and
    proportional-sampling weight in ppm (combiner before the stratum
    groupby; only the tiny stratum table materializes)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "text"]
    )
    return co.source_mix_ds(docs)


def q_fingerprint(sf_dir: str) -> ray.data.Dataset:
    return co.fingerprint_ds(_documents(sf_dir))


def q_minhash_pairs(sf_dir: str) -> ray.data.Dataset:
    # max_bucket=None: oracle-backed entry — the SQL twin enumerates full
    # quadratic pairs, so the hot-bucket star fallback must never engage at
    # oracle-checked scales (the capped default is the production path)
    return co.minhash_pairs_ds(_documents(sf_dir), threshold=0.5, max_bucket=None)


def q_simhash_pairs(sf_dir: str) -> ray.data.Dataset:
    return co.simhash_pairs_ds(_documents(sf_dir), max_hamming=3, max_bucket=None)


def q_near_dup_verified(sf_dir: str) -> ray.data.Dataset:
    docs = _documents(sf_dir)
    cands = co.minhash_pairs_ds(docs, threshold=0.35, max_bucket=None)
    return co.ngram_jaccard_verify_ds(cands, docs, threshold=0.5)


def q_near_dup_exact(sf_dir: str) -> ray.data.Dataset:
    """Oracle-exact near-dup: 64 one-row LSH bands make a j>=0.5 pair a
    candidate with probability 1-2^-64, then exact shingle Jaccard
    verification — the result equals an all-pairs SQL Jaccard join (both
    sides compute the identical rational, so even the float column
    hash-matches)."""
    docs = _documents(sf_dir)
    cands = co.minhash_pairs_ds(docs, num_perm=64, bands=64, threshold=0.0, max_bucket=None)
    verified = co.ngram_jaccard_verify_ds(cands, docs, threshold=0.5)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_a", "doc_b", "jaccard"])

    return verified.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _sim_e3_pairs(ds: ray.data.Dataset) -> ray.data.Dataset:
    def fix(batch: pa.Table) -> pa.Table:
        sims = batch.column("sim").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_a": batch.column("vec_a"),
                "vec_b": batch.column("vec_b"),
                "sim_e3": pa.array(np.round(sims * 1000).astype(np.int64)),
            }
        )

    return ds.map_batches(fix, batch_format="pyarrow", zero_copy_batch=True)


def _sim_e3(ds: ray.data.Dataset) -> ray.data.Dataset:
    def fix(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sims = batch.column("sim").to_numpy(zero_copy_only=False)
        e3 = np.round(sims * 1000).astype(np.int64)
        return pa.table({"vec_id": batch.column("vec_id"), "sim_e3": pa.array(e3)})

    return ds.map_batches(fix, batch_format="pyarrow", zero_copy_batch=True)


def q_ann_brute(sf_dir: str) -> Any:
    q = _query_vector(sf_dir)
    if q is None:
        return _empty_topk()
    return _sim_e3(co.ann_brute_topk_ds(_embeddings(sf_dir), q, k=10))


def q_ann_ivf(sf_dir: str) -> Any:
    """IVF variant run exact (nprobe == nlist) so the brute-force oracle
    applies; at scale nprobe < nlist trades recall for a pruned scan."""
    q = _query_vector(sf_dir)
    if q is None:
        return _empty_topk()
    return _sim_e3(
        co.ann_ivf_topk_ds(_embeddings(sf_dir), q, k=10, nlist=8, nprobe=8)
    )


def _adapter_chunk6(batch: pa.Table) -> pa.Table:
    return docs_from_documents_batch(batch, chunk_words=6)


def _interleaved_docs6(sf_dir: str) -> ray.data.Dataset:
    """Adapter variant with 6-word spans: every span fits one layout line,
    so line-level operators get exact SQL oracles."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(
        _adapter_chunk6, batch_format="pyarrow", zero_copy_batch=True
    )


def _doc_number(doc_ids: pa.ChunkedArray) -> pa.ChunkedArray:
    """``doc-00000042`` -> 42: the number after a doc id's last dash."""
    return pc.cast(pc.replace_substring_regex(doc_ids, r"^.*-", ""), pa.int64())


def _run_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each sorted row's position inside its key run."""
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


def q_text_lines(sf_dir: str) -> ray.data.Dataset:
    """extract_text_lines over the textmap (reference utils/text.py:212-230);
    with 6-word spans each line is exactly one 6-word window of the text."""
    from pdfplumber_ray.pipelines import text_lines_ds

    pages = decode_pages_ds(_interleaved_docs6(sf_dir))
    lines = text_lines_ds(pages)

    def index_lines(g: pa.Table) -> pa.Table:
        order, starts, lengths = segment_runs(
            g.column("doc_id").to_numpy(zero_copy_only=False),
            g.column("page_number").to_numpy(),
            g.column("top").to_numpy(),
        )
        return pa.table(
            {
                "doc_id": _doc_number(g.column("doc_id").take(order)),
                "line_index": _run_positions(starts, lengths),
                "text": g.column("text").take(order),
            }
        )

    return bucket_map(
        lines,
        "doc_id",
        index_lines,
        {"doc_id": pa.int64(), "line_index": pa.int64(), "text": pa.string()},
    )


def q_crop_first_line(sf_dir: str) -> ray.data.Dataset:
    """within_bbox crop (reference utils/geometry.py:95-117 + CroppedPage
    page.py:649-686): keep only the first text line's band on page 1 and
    extract its text — equal to the first 6 words of the document."""
    from pdfplumber_ray.pipelines import crop_ds, page_text_ds

    pages = decode_pages_ds(_interleaved_docs6(sf_dir))

    def first_page_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch.column("page_number"), 1))

    p1 = pages.map_batches(first_page_only, batch_format="pyarrow", zero_copy_batch=True)
    cropped = crop_ds(p1, (0.0, 0.0, 612.0, 84.0), mode="within")
    txt = page_text_ds(cropped, mode="simple")

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    return txt.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_mcid_text(sf_dir: str) -> ray.data.Dataset:
    """Marked-content-id text assembly (the reference's only true join
    path, cli.py:72-91): chars grouped by stamped mcid reproduce each
    source span's text (space glyphs are never emitted, so the concat is
    the window text with spaces removed)."""
    from pdfplumber_ray.pipelines.extract import mcid_text_ds

    pages = decode_pages_ds(_interleaved_docs(sf_dir))
    mt = mcid_text_ds(pages)

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "mcid": batch.column("mcid"),
                "text": batch.column("text"),
            }
        )

    return mt.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _annot_docs(sf_dir: str) -> ray.data.Dataset:
    from pdfplumber_ray.sources.synth_corpus import docs_with_annots_batch

    return _documents(sf_dir).map_batches(
        docs_with_annots_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def q_annots(sf_dir: str) -> ray.data.Dataset:
    """Annotation objects (reference page.py:280-319): each doc's heading
    block yields a contents annotation and its media span a uri (link)
    annotation, both flattened from the decoded page rows."""
    from pdfplumber_ray.pipelines import annots_ds

    ann = annots_ds(decode_pages_ds(_annot_docs(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "uri": batch.column("uri"),
                "contents": batch.column("contents"),
            }
        )

    return ann.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_hyperlinks(sf_dir: str) -> ray.data.Dataset:
    """Hyperlink filter over annots (reference page.py:321-323)."""
    from pdfplumber_ray.pipelines import hyperlinks_ds

    links = hyperlinks_ds(decode_pages_ds(_annot_docs(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table({"doc_id": ids, "uri": batch.column("uri")})

    return links.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_curves(sf_dir: str) -> ray.data.Dataset:
    """Curve objects (reference page.py:386-393): one decorative 5-point
    zigzag per media span, flattened from the decoded page rows."""
    from pdfplumber_ray.pipelines import curves_ds

    cur = curves_ds(decode_pages_ds(_annot_docs(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        n_pts = pa.compute.list_value_length(batch.column("pts")).cast(pa.int64())
        width = pa.compute.subtract(batch.column("x1"), batch.column("x0"))
        w_e6 = pa.array(
            np.round(width.to_numpy(zero_copy_only=False) * 1e6).astype(np.int64)
        )
        return pa.table({"doc_id": ids, "n_pts": n_pts, "width_e6": w_e6})

    return cur.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_table_geometry(sf_dir: str) -> ray.data.Dataset:
    """Exact lattice-table geometry vs closed-form SQL: every lineitem-doc
    cell is 1 char wide, so the snapped/merged/intersected table bbox per
    page is pure arithmetic (margin 72, col width 21.75, row height 26,
    23 grid rows per page). Verifies the full edge->intersection->cell->
    table chain's geometry, not just its cell contents."""
    from pdfplumber_ray.pipelines import tables_ds

    tb = tables_ds(decode_pages_ds(docs_from_lineitem(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        keys = [
            int(d.rsplit("-", 1)[1]) for d in batch.column("doc_id").to_pylist()
        ]
        n_rows = [len(r) for r in batch.column("rows").to_pylist()]
        to_e6 = lambda col: pa.array(
            np.round(batch.column(col).to_numpy() * 1e6).astype(np.int64)
        )
        return pa.table(
            {
                "doc_key": pa.array(keys, pa.int64()),
                "page_number": batch.column("page_number").cast(pa.int64()),
                "x0_e6": to_e6("x0"),
                "top_e6": to_e6("top"),
                "x1_e6": to_e6("x1"),
                "bottom_e6": to_e6("bottom"),
                "n_grid_rows": pa.array(n_rows, pa.int64()),
            }
        )

    return tb.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_rect_mcids(sf_dir: str) -> ray.data.Dataset:
    """Marked-content stamping on non-char objects (reference 0.10.3):
    every lattice cell rect carries its source span ordinal as mcid and
    the 'TD' tag — verified against a ROW_NUMBER reconstruction."""
    from pdfplumber_ray.pipelines import rects_ds

    r = rects_ds(decode_pages_ds(docs_from_lineitem(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        keys = [
            int(d.rsplit("-", 1)[1]) for d in batch.column("doc_id").to_pylist()
        ]
        return pa.table(
            {
                "doc_key": pa.array(keys, pa.int64()),
                "mcid": batch.column("mcid").cast(pa.int64()),
                "tag": batch.column("tag"),
            }
        )

    return r.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_edge_census(sf_dir: str) -> ray.data.Dataset:
    """Numeric invariants along the TableFinder chain (the reference
    suite's exact edge/intersection counts, tests/test_ca_warn_report
    .py:79-141): per page of each lineitem grid doc, raw edges 12r,
    merged v 4 / h r+1, intersections 4(r+1), cells 3r."""
    from pdfplumber_ray.config import TableConfig
    from pdfplumber_ray.functions.tables import table_debug_page
    from pdfplumber_ray.stages.decode import arrow_pages_to_dicts
    from pdfplumber_ray.stages.flatten import page_edge_union

    pages = decode_pages_ds(docs_from_lineitem(sf_dir))
    cfg = TableConfig()

    def census(batch: pa.Table) -> pa.Table:
        keys: List[int] = []
        pns: List[int] = []
        counts: Dict[str, List[int]] = {
            k: [] for k in ("n_edges_raw", "n_merged_v", "n_merged_h",
                            "n_intersections", "n_cells")
        }
        for doc_id, page in arrow_pages_to_dicts(batch):
            edges = page_edge_union(page)
            if edges is None:
                continue
            bbox = (0.0, 0.0, page["page_width"], page["page_height"])
            d = table_debug_page(edges, cfg, bbox)
            keys.append(int(doc_id.rsplit("-", 1)[1]))
            pns.append(int(page["page_number"]))
            for k in counts:
                counts[k].append(d[k])
        cols: Dict[str, Any] = {
            "doc_key": pa.array(keys, pa.int64()),
            "page_number": pa.array(pns, pa.int64()),
        }
        for k, v in counts.items():
            cols[k] = pa.array(v, pa.int64())
        return pa.table(cols)

    return pages.map_batches(census, batch_format="pyarrow", zero_copy_batch=True)


def q_word_geometry(sf_dir: str) -> ray.data.Dataset:
    """Exact glyph geometry vs pure SQL: with 6-word spans every span is
    one monospace line, so each word's x0/x1/top/doctop is closed-form
    arithmetic on word lengths (margin 72, advance 7.25, ink width 6,
    line height 13, 24 blocks/page, page height 792). The strongest
    geometry statement an external oracle can check."""
    w = words_ds(decode_pages_ds(_interleaved_docs6(sf_dir)))

    e6 = ("x0", "x1", "top", "doctop")

    def index_words(g: pa.Table) -> pa.Table:
        order, starts, lengths = segment_runs(
            g.column("doc_id").to_numpy(zero_copy_only=False),
            g.column("doctop").to_numpy(),
            g.column("x0").to_numpy(),
        )
        return pa.table(
            {
                "doc_id": _doc_number(g.column("doc_id").take(order)),
                "word_index": _run_positions(starts, lengths),
                "text": g.column("text").take(order),
                **{
                    f"{c}_e6": np.round(g.column(c).to_numpy()[order] * 1e6).astype(np.int64)
                    for c in e6
                },
            }
        )

    return bucket_map(
        w,
        "doc_id",
        index_words,
        {"doc_id": pa.int64(), "word_index": pa.int64(), "text": pa.string()}
        | {f"{c}_e6": pa.int64() for c in e6},
    )


def q_search_groups(sf_dir: str) -> ray.data.Dataset:
    """Regex search with capture groups (reference match_to_dict,
    utils/text.py:145-170): the first group of each match crosses the
    stage boundary as a typed list column."""
    out = search_ds(
        decode_pages_ds(_interleaved_docs(sf_dir)), r"qu([a-z]+)"
    )

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        g1 = [
            (g[0] if g else None) for g in batch.column("groups").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": ids,
                "text": batch.column("text"),
                "g1": pa.array(g1, pa.string()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_char_colors(sf_dir: str) -> ray.data.Dataset:
    """Normalized color attributes (reference page.py:98-118): chars carry
    a fill color from the (synthetic) graphics state; counted per (doc,
    color) with a per-batch combiner. Heading glyphs (first 6-word chunk)
    are dark blue, body black; spaces are never glyphs."""
    from pdfplumber_ray.pipelines import chars_with_colors_ds

    ch = chars_with_colors_ds(decode_pages_ds(_annot_docs(sf_dir)))

    def partial(batch: pa.Table) -> pa.Table:
        color = pa.array(
            [",".join(f"{v:g}" for v in c) for c in
             batch.column("non_stroking_color").to_pylist()],
            pa.string(),
        )
        t = pa.table({"doc_id": batch.column("doc_id"), "color": color})
        g = pa.TableGroupBy(t, ["doc_id", "color"]).aggregate([("color", "count")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "color": g.column("color"),
                "p_n": g.column("color_count").cast(pa.int64()),
            }
        )

    agg = (
        ch.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["doc_id", "color"])
        .sum("p_n")
    )

    def finish(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "color": batch.column("color"),
                "n_chars": batch.column("sum(p_n)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_text_boxes(sf_dir: str) -> ray.data.Dataset:
    """laparams-analogue layout containers (reference page.py:402-414):
    each 12-word window adapter span is one paragraph box; box text must
    reproduce the window."""
    from pdfplumber_ray.pipelines import text_boxes_ds

    tb = text_boxes_ds(decode_pages_ds(_interleaved_docs(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    return tb.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_words_by_font(sf_dir: str) -> ray.data.Dataset:
    """extra_attrs word grouping (reference text.py:467,511-512): words
    carry their fontname; heading words (first 6-word chunk, bold font —
    upright or rotated) vs body words, counted per (doc, font) with a
    per-batch combiner before the groupby."""
    pages = decode_pages_ds(_annot_docs(sf_dir))
    w = words_ds(pages, WordConfig(extra_attrs=("fontname",)))

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            batch.select(["doc_id", "fontname"]), ["doc_id", "fontname"]
        ).aggregate([("fontname", "count")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "fontname": g.column("fontname"),
                "p_n": g.column("fontname_count").cast(pa.int64()),
            }
        )

    agg = (
        w.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["doc_id", "fontname"])
        .sum("p_n")
    )

    def finish(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "fontname": batch.column("fontname"),
                "n_words": batch.column("sum(p_n)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_media_features(sf_dir: str) -> ray.data.Dataset:
    """Batched feature extraction over binary media payloads (batched
    model-inference shape); the deterministic 'model' reads header fields
    and a body checksum the oracle reproduces arithmetically."""
    from pdfplumber_ray.pipelines.media import media_features_ds

    ds = media_features_ds(_documents(sf_dir).select_columns(["doc_id"]))

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "checksum", "f0_e6", "f1_e6", "f2_e6"])

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_media_resize(sf_dir: str) -> ray.data.Dataset:
    """Resize stage plumbing: payloads rewritten to 64x48 then re-decoded;
    the oracle predicts the new header and byte count."""
    from pdfplumber_ray.pipelines.media import decode_payloads_ds, media_resize_ds

    resized = media_resize_ds(_documents(sf_dir).select_columns(["doc_id"]), 64, 48)
    dec = decode_payloads_ds(resized)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "width", "height", "n_frames", "n_bytes"])

    return dec.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_metadata(sf_dir: str) -> ray.data.Dataset:
    """Doc metadata extraction (reference pdf.py:47-63): Title = first
    heading, plus a typed span census, over the annot adapter docs."""
    from pdfplumber_ray.pipelines import doc_metadata_ds

    md = doc_metadata_ds(_annot_docs(sf_dir))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "title": batch.column("title"),
                "n_spans": batch.column("n_spans"),
                "n_media": batch.column("n_media"),
            }
        )

    return md.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_repair_roundtrip(sf_dir: str) -> ray.data.Dataset:
    """Repair + dead-letter stage (reference repair.py:8-54 analogue):
    deterministically corrupted docs (scrambled span order / zeroed
    offsets) must be repaired, then extract back to the original text."""
    from pdfplumber_ray.pipelines.repair import repair_docs_ds, repaired_ds
    from pdfplumber_ray.sources.synth_corpus import docs_corrupted_batch

    docs = _documents(sf_dir).map_batches(
        docs_corrupted_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    healthy = repaired_ds(repair_docs_ds(docs))
    out = extract_spans_ds(healthy)

    def rejoin(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        texts = [
            " ".join(s["text"] for s in spans)
            for spans in batch.column("spans").to_pylist()
        ]
        return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})

    return out.map_batches(rejoin, batch_format="pyarrow", zero_copy_batch=True)


def q_dedup_resolution(sf_dir: str) -> ray.data.Dataset:
    """Duplicate-cluster resolution: verified near-dup pairs -> connected
    components -> every doc labeled with its canonical (minimum) id."""
    docs = _documents(sf_dir)
    cands = co.minhash_pairs_ds(docs, num_perm=64, bands=64, threshold=0.0, max_bucket=None)
    pairs = co.ngram_jaccard_verify_ds(cands, docs, threshold=0.5)
    return co.dedup_resolution_ds(pairs, docs.select_columns(["doc_id"]))


def q_curation_funnel(sf_dir: str) -> ray.data.Dataset:
    """Composed curation pipeline: quality scoring -> threshold filter
    (30 <= words <= 90 and at least one English stopword) -> lang attach
    -> per-lang survivor counts. Demonstrates operator chaining
    with the combiner/broadcast shapes intact end to end."""
    import pyarrow.compute as pc

    q = co.quality_ds(_documents(sf_dir))

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("n_words"), 30),
                pc.less_equal(batch.column("n_words"), 90),
            ),
            pc.greater_equal(batch.column("n_stopwords_en"), 1),
        )
        return batch.filter(m).select(["doc_id"])

    kept = q.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    lookup = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    joined = attach(kept, lookup, "doc_id", "doc_id", "left")
    agg = joined.groupby("lang").count()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("count()").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_pack_sequences(sf_dir: str) -> ray.data.Dataset:
    """Sequence packing: docs -> token-budget bins per hash bucket (the
    pretraining data-prep shape); exclusive window cumsum in the oracle."""
    return co.pack_sequences_ds(
        _documents(sf_dir), bin_tokens=512, n_buckets=16
    )


def q_redact_pii(sf_dir: str) -> ray.data.Dataset:
    """PII scrubbing (email/number/URL -> typed placeholders) over docs
    wrapped with deterministic PII; RE2-compatible patterns give an exact
    DuckDB twin applying the identical replace chain."""
    from pdfplumber_ray.sources.synth_corpus import documents_with_pii_batch

    dirty = _documents(sf_dir).map_batches(
        documents_with_pii_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return co.redact_pii_ds(dirty)


def q_normalize_text(sf_dir: str) -> ray.data.Dataset:
    """Unicode/text normalization (control strip + whitespace collapse +
    NFC) over docs wrapped with deterministic dirt; the oracle applies the
    identical chain with DuckDB's regexp_replace + nfc_normalize."""
    from pdfplumber_ray.sources.synth_corpus import documents_with_unicode_batch

    dirty = _documents(sf_dir).map_batches(
        documents_with_unicode_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return co.normalize_text_ds(dirty)


def q_stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic stratified sampling: 5 docs per language by smallest
    md5(doc_id) — reproducible across runs and parallelism levels."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return co.stratified_sample_ds(docs, "lang", "doc_id", 5)


def q_main_content(sf_dir: str) -> ray.data.Dataset:
    """Boilerplate strip / main-content extraction (the north rule's HTML
    boilerplate clause): docs wrapped with a per-doc nav bar (shallow
    separator-density rule) and a site-wide footer (cross-document
    template-frequency rule, partial-combine groupby + ray.put broadcast).
    Stripping must recover exactly the original document text."""
    from pdfplumber_ray.pipelines.main_content import (
        main_content_text_ds,
        strip_boilerplate_ds,
    )
    from pdfplumber_ray.sources.synth_corpus import docs_with_boilerplate_batch

    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    docs = _documents(sf_dir).map_batches(
        docs_with_boilerplate_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    # cache_input: test-scale corpus fits in the object store; the default
    # (False) streams both passes, the scale-safe choice at 100 TB
    stripped = strip_boilerplate_ds(docs, n_docs=n_docs, cache_input=True)
    txt = main_content_text_ds(stripped)

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    return txt.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_struct_bbox(sf_dir: str) -> ray.data.Dataset:
    """Structure-element bbox join (reference structure.py:464-509): chars
    grouped by stamped mcid -> distributed envelope + member count. The
    oracle checks the join cardinality and char membership (spaces are
    never emitted as glyphs); bbox geometry is asserted in pytest."""
    from pdfplumber_ray.pipelines import element_bbox_ds

    eb = element_bbox_ds(decode_pages_ds(_interleaved_docs(sf_dir)))

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "mcid": batch.column("mcid"),
                "n_chars": batch.column("n_chars"),
            }
        )

    return eb.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_ctm(sf_dir: str) -> ray.data.Dataset:
    """CTM decomposition (reference ctm.py:8-38): deterministic
    integer-derived matrices per doc, decomposed by the vectorized kernel
    into scale/skew/translation. Integer-quantized outputs (sqrt on exact
    integer inputs is IEEE-correctly-rounded, so the DuckDB twin is
    bit-stable)."""
    from pdfplumber_ray.functions.ctm import decompose_ctm

    ds = _documents(sf_dir).select_columns(["doc_id"])

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.column("doc_id").to_numpy().astype(np.int64)
        a = (n % 7 - 3).astype(np.float64)
        b = (n % 5 - 2).astype(np.float64)
        c = (n % 9 - 4).astype(np.float64)
        d = (n % 11 - 5).astype(np.float64)
        e = (n % 100).astype(np.float64)
        f = (n % 50).astype(np.float64)
        out = decompose_ctm(a, b, c, d, e, f)
        return pa.table(
            {
                "doc_id": pa.array(n, pa.int64()),
                "scale_x_e6": pa.array(np.round(out["scale_x"] * 1e6).astype(np.int64)),
                "scale_y_e6": pa.array(np.round(out["scale_y"] * 1e6).astype(np.int64)),
                "skew_x_e3": pa.array(np.round(out["skew_x"] * 1e3).astype(np.int64)),
                "skew_y_e3": pa.array(np.round(out["skew_y"] * 1e3).astype(np.int64)),
                "tx": pa.array(out["translation_x"].astype(np.int64)),
                "ty": pa.array(out["translation_y"].astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def q_layout_text(sf_dir: str) -> ray.data.Dataset:
    """Layout-preserving textmap (reference WordMap.to_textmap,
    utils/text.py:241-420): newline imputation from vertical gaps turns
    each one-line block + blank separator into exactly two newlines, so a
    page's layout text equals its 6-word windows joined by blank lines —
    reconstructable in SQL including pagination (24 blocks per page)."""
    from pdfplumber_ray.pipelines import page_text_ds

    pages = decode_pages_ds(_interleaved_docs6(sf_dir))
    txt = page_text_ds(pages, mode="layout")

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "page_number": batch.column("page_number").cast(pa.int64()),
                "text": batch.column("text"),
            }
        )

    return txt.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_dedupe_chars(sf_dir: str) -> ray.data.Dataset:
    """dedupe_chars (reference utils/text.py:784-804): inject a jittered
    duplicate of every char, dedupe, then word counts must equal the
    clean pipeline's — checked against the SQL word count."""
    from pdfplumber_ray.pipelines import dedupe_chars_ds, duplicate_chars_ds

    pages = decode_pages_ds(_interleaved_docs(sf_dir))
    deduped = dedupe_chars_ds(duplicate_chars_ds(pages), tolerance=1.0)
    w = words_ds(deduped)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("doc_id").aggregate([("doc_id", "count")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "partial_n": g.column("doc_id_count").cast(pa.int64()),
            }
        )

    partials = w.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = partials.groupby("doc_id").sum("partial_n")

    def finish(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {"doc_id": ids, "n_words": batch.column("sum(partial_n)").cast(pa.int64())}
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_outline(sf_dir: str) -> ray.data.Dataset:
    """Document outline (engine analogue of the reference structure tree,
    structure.py:151-459) from extracted spans; adapter docs are all
    paragraphs, one per 12-word window."""
    from pdfplumber_ray.pipelines import outline_ds

    out = extract_spans_ds(_interleaved_docs(sf_dir))
    ol = outline_ds(out)

    def project(batch: pa.Table) -> pa.Table:
        ids = _doc_id_to_int(batch.column("doc_id").to_pylist())
        return pa.table(
            {
                "doc_id": ids,
                "element_index": batch.column("element_index"),
                "type": batch.column("type"),
                "text": batch.column("text"),
            }
        )

    return ol.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_table_cells_stream(sf_dir: str) -> ray.data.Dataset:
    """Text-alignment (stream) table strategy (reference
    table.py:101-204 words_to_edges_v/h): detect the lineitem grids from
    word alignment alone, drop the empty gap-row cells the stream grid
    legitimately produces, and the remaining row-major cells must equal
    the relational rows. Needs >= 3 aligned rows (min_words_vertical)."""
    import pyarrow.compute as pc

    from pdfplumber_ray.config import TableConfig

    docs = docs_from_lineitem(sf_dir)

    def three_plus_rows(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch.column("spans"))
        return batch.filter(pc.greater_equal(n, 9))

    docs3 = docs.map_batches(three_plus_rows, batch_format="pyarrow", zero_copy_batch=True)
    cfg = PipelineConfig(
        table=TableConfig(vertical_strategy="text", horizontal_strategy="text")
    )
    out = extract_spans_ds(docs3, cfg)

    def cells(batch: pa.Table) -> pa.Table:
        keys: List[int] = []
        idxs: List[int] = []
        texts: List[str] = []
        for did, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            okey = int(did.rsplit("-", 1)[1])
            i = 0
            for s in spans:
                if s["kind"] == "table_cell" and s["text"] != "":
                    keys.append(okey)
                    idxs.append(i)
                    texts.append(s["text"])
                    i += 1
        return pa.table(
            {
                "doc_key": pa.array(keys, pa.int64()),
                "cell_index": pa.array(idxs, pa.int64()),
                "cell_text": pa.array(texts, pa.string()),
            }
        )

    return out.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True)


def q_words_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Kernel word counts attached (``exchange.attach``) to the documents
    dimension column, then a grouped rollup — the MCID-join shape of the
    reference (cli.py:72-91) over real data."""
    wc = q_word_count(sf_dir)  # doc_id:int64, n_words
    lookup = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    joined = attach(wc, lookup, "doc_id", "doc_id", "left")
    agg = joined.groupby("lang").sum("n_words")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_words": batch.column("sum(n_words)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q_real_repair(sf_dir: str) -> ray.data.Dataset:
    """Structural repair over the real corpus (gs-repair analogue,
    pdfio/rewrite.py): every PDF is deterministically corrupted
    (startxref pointed at garbage), rewritten by the repair stage, and
    decoded — output pins per-doc page and char counts plus the repair
    status. Quarantined docs (encrypted-without-password, empty) pin
    their dead-letter rows too. Not SQL-expressible (rows-only)."""
    import re as _re

    from pdfplumber_ray.pdfio.reader import decode_pdf_doc
    from pdfplumber_ray.pipelines.repair import repair_pdf_batch

    paths = [f"{_REAL_PDF_DIR}/{n}" for n in _real_pdf_all()]
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def corrupt_repair_decode(batch: pa.Table) -> pa.Table:
        names, pages_n, chars_n, statuses = [], [], [], []
        for path, data in zip(
            batch.column("path").to_pylist(), batch.column("bytes").to_pylist()
        ):
            doc_id = os.path.basename(path)
            broken = _re.sub(rb"startxref\s+\d+", b"startxref\n999999999", data)
            rep = repair_pdf_batch(
                pa.table(
                    {
                        "doc_id": pa.array([doc_id]),
                        "pdf_bytes": pa.array([broken], pa.binary()),
                    }
                )
            )
            status = rep.column("repair_status")[0].as_py()
            n_pages = n_chars = 0
            if status == "rewritten":
                rows, err = decode_pdf_doc(
                    doc_id, rep.column("pdf_bytes")[0].as_py()
                )
                if err is None:
                    n_pages = len(rows)
                    n_chars = sum(len(r["chars"]) for r in rows)
                else:
                    status = "decode_error"
            names.append(doc_id)
            pages_n.append(n_pages)
            chars_n.append(n_chars)
            statuses.append(status)
        return pa.table(
            {
                "doc_id": pa.array(names, pa.string()),
                "n_pages": pa.array(pages_n, pa.int64()),
                "n_chars": pa.array(chars_n, pa.int64()),
                "repair_status": pa.array(statuses, pa.string()),
            }
        )

    return ds.map_batches(
        corrupt_repair_decode, batch_format="pyarrow", zero_copy_batch=True
    )


def q_length_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-language length quantiles without a global sort:
    value-count combiner -> (lang, value) groupby -> per-group
    cumulative pick. Shuffle volume = distinct (lang, n_chars) pairs,
    independent of corpus size."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    return co.grouped_quantiles_ds(docs, value_col="n_chars", group_col="lang")


def q_decontaminate(sf_dir: str) -> ray.data.Dataset:
    """Train/eval decontamination sweep: docs with doc_id % 20 == 0 form
    the held-out split; every other doc reports how many of its distinct
    word 5-grams (md5-u64, textstats.shingle_hashes incl. the whole-doc
    fallback under 5 tokens) appear anywhere in the eval split. Eval
    hashes broadcast via ray.put; train side probes with searchsorted —
    no shuffle on the big side."""
    return co.decontaminate_ds(_documents(sf_dir))


def q_page_images(sf_dir: str) -> ray.data.Dataset:
    """Page raster debug surface (reference display.py Page.to_image):
    glyph-bitmap render of every REAL corpus page to PNG bytes inside
    ``map_batches``. The projection (dims + a crc32 of the RAW raster
    buffer — not of the zlib-encoded PNG, whose bytes vary across zlib
    builds) is deterministic, so it pins against a golden parquet
    (scripts/gen_real_goldens.py) — the raster is sf-independent like the
    other real_* goldens; PNG integrity is separately pinned by
    tests/test_display.py's decoder. Synthetic-page rendering is covered
    there too. The png bytes stay out of the result."""
    from pdfplumber_ray.display import page_images_batch

    pages = _real_pdf_pages(sf_dir, _real_pdf_all())
    imgs = pages.map_batches(
        page_images_batch, batch_format="pyarrow", zero_copy_batch=True
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "page_number": batch.column("page_number").cast(pa.int64()),
                "img_width": batch.column("img_width").cast(pa.int64()),
                "img_height": batch.column("img_height").cast(pa.int64()),
                "raster_crc32": batch.column("raster_crc32"),
            }
        )

    return imgs.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_media_decode(sf_dir: str) -> ray.data.Dataset:
    """Multimodal plumbing: deterministic binary payload per doc ->
    task-stage decode -> typed metadata; the synthetic container packs
    values the oracle predicts arithmetically from doc_id."""
    from pdfplumber_ray.pipelines.media import media_decode_ds

    ds = media_decode_ds(_documents(sf_dir).select_columns(["doc_id"]))

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "media_ref", "width", "height", "n_frames", "n_bytes"])

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_frame_sample(sf_dir: str) -> ray.data.Dataset:
    """Video frame sampling: one row per every-5th frame of each payload."""
    from pdfplumber_ray.pipelines.media import frame_sample_ds

    ds = frame_sample_ds(_documents(sf_dir).select_columns(["doc_id"]), stride=5)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "frame_index"])

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


# ---- real-PDF byte-decode queries (SURVEY §7 step 7) ----
#
# Inputs are real PDFs from the reference's own test corpus (read-only);
# expected outputs are checked-in goldens generated by the byte-exact
# decode chain (tests/test_real_pdf.py pins scotus layout text to the
# reference's comparisons/ fixture byte-for-byte, ca-warn/nics to its
# numeric invariants). Independent of sf_dir by construction.

_REAL_PDF_DIR = "/root/reference/tests/pdfs"
_REAL_PDF_SET = [
    "scotus-transcript-p1.pdf",
    "pdffill-demo.pdf",
    "la-precinct-bulletin-2014-p1.pdf",
    "issue-33-lorem-ipsum.pdf",
    "senate-expenditures.pdf",
    "WARN-Report-for-7-1-2015-to-03-25-2016.pdf",
]
_REAL_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tests", "goldens")


def _real_pdf_all() -> List[str]:
    """Every PDF in the reference corpus (sorted; encrypted/broken ones
    quarantine deterministically and pin their zero-count rows too)."""
    try:
        return sorted(
            n for n in os.listdir(_REAL_PDF_DIR) if n.endswith(".pdf")
        )
    except OSError:
        return list(_REAL_PDF_SET)


def _real_pdf_pages(_sf_dir: str, names: Optional[List[str]] = None) -> ray.data.Dataset:
    from pdfplumber_ray.pdfio import read_pdf_corpus

    paths = [f"{_REAL_PDF_DIR}/{n}" for n in (names or _REAL_PDF_SET)]
    pages = read_pdf_corpus(paths)
    return pages.drop_columns(["error"])


def q_real_layout_text(sf_dir: str) -> ray.data.Dataset:
    """Layout-preserving text of every page of the real-PDF set, through
    the full Ray pipeline (binary read -> decode_pdf_batch -> PagesToText
    layout mode with per-page dimensions)."""
    from pdfplumber_ray.pipelines import page_text_ds

    return page_text_ds(_real_pdf_pages(sf_dir), mode="layout", page_box=True)


def q_real_objects(sf_dir: str) -> ray.data.Dataset:
    """Per-page object census of the ENTIRE reference corpus (51 PDFs)
    — chars/rects/lines/curves/images/annots counts through the Ray
    decode stage; encrypted/broken inputs pin their quarantine rows."""
    pages = _real_pdf_pages(sf_dir, _real_pdf_all())

    def census(batch: pa.Table) -> pa.Table:
        import numpy as np

        def counts(col: str) -> pa.Array:
            c = batch.column(col).combine_chunks()
            return pa.array(np.diff(c.offsets.to_numpy()).astype("int64"))

        # quantized per-page char-geometry checksum: pins glyph bboxes
        # (font metrics, matrix math) corpus-wide, not just counts
        c = batch.column("chars").combine_chunks()
        offs = c.offsets.to_numpy()
        vals = c.values
        per = np.zeros(len(vals), dtype=np.int64)
        for f in ("x0", "x1", "top", "bottom"):
            per += np.floor(
                vals.field(f).to_numpy(zero_copy_only=False) * 1000.0
            ).astype(np.int64)
        lens = np.diff(offs)
        if len(vals):
            # reduceat quirks: an index == len(per) raises, and empty
            # segments copy the next element — clip then mask
            idx = np.minimum(offs[:-1], len(per) - 1)
            seg = np.add.reduceat(per, idx)
            geom = np.where(lens > 0, seg[: len(lens)], 0)
        else:
            geom = np.zeros(len(lens), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "page_number": batch.column("page_number"),
                "n_chars": counts("chars"),
                "n_rects": counts("rects"),
                "n_lines": counts("lines"),
                "n_curves": counts("curves"),
                "n_images": counts("images"),
                "n_annots": counts("annots"),
                "char_geom_e3": pa.array(geom, pa.int64()),
            }
        )

    return pages.map_batches(census, batch_format="pyarrow", zero_copy_batch=True)


def q_real_laparams(sf_dir: str) -> ray.data.Dataset:
    """Layout analysis (laparams) census over the REAL corpus: per page,
    horizontal/vertical line and box counts under the default LAParams
    with detect_vertical=True — pins the published line-chaining / box-
    grouping algorithm corpus-wide (the per-issue regressions pin two
    docs; this pins all 52). Golden-parquet oracle."""
    from pdfplumber_ray.pdfio.laparams import LAParams, analyze_chars
    from pdfplumber_ray.pdfio.reader import decode_pdf_doc

    paths = [f"{_REAL_PDF_DIR}/{n}" for n in _real_pdf_all()]
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def census(batch: pa.Table) -> pa.Table:
        lp = LAParams(detect_vertical=True)
        out = {k: [] for k in (
            "doc_id", "page_number", "h_lines", "v_lines", "h_boxes", "v_boxes",
        )}
        for path, data in zip(
            batch.column("path").to_pylist(), batch.column("bytes").to_pylist()
        ):
            doc_id = os.path.basename(path)
            rows, err = decode_pdf_doc(doc_id, data or b"")
            for r in rows:
                lines, boxes = analyze_chars(r["chars"], r["page_height"], lp)
                out["doc_id"].append(doc_id)
                out["page_number"].append(int(r["page_number"]))
                out["h_lines"].append(sum(1 for x in lines if x["horizontal"]))
                out["v_lines"].append(sum(1 for x in lines if not x["horizontal"]))
                out["h_boxes"].append(sum(1 for x in boxes if x["horizontal"]))
                out["v_boxes"].append(sum(1 for x in boxes if not x["horizontal"]))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "page_number": pa.array(out["page_number"], pa.int64()),
                "h_lines": pa.array(out["h_lines"], pa.int64()),
                "v_lines": pa.array(out["v_lines"], pa.int64()),
                "h_boxes": pa.array(out["h_boxes"], pa.int64()),
                "v_boxes": pa.array(out["v_boxes"], pa.int64()),
            }
        )

    return ds.map_batches(census, batch_format="pyarrow", zero_copy_batch=True)


def q_real_words(sf_dir: str) -> ray.data.Dataset:
    """Word-extraction census over the REAL corpus: per page, the word
    count, first/last word, and a quantized coordinate checksum under the
    default WordExtractor settings — pins the x/y-tolerance clustering on
    real char streams corpus-wide. Golden-parquet oracle."""
    import numpy as np

    from pdfplumber_ray.config import WordConfig
    from pdfplumber_ray.functions.words import extract_words_page
    from pdfplumber_ray.pdfio.reader import decode_pdf_doc

    paths = [f"{_REAL_PDF_DIR}/{n}" for n in _real_pdf_all()]
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def census(batch: pa.Table) -> pa.Table:
        cfg = WordConfig()
        out = {k: [] for k in (
            "doc_id", "page_number", "n_words", "first_word", "last_word",
            "geom_e3",
        )}
        for path, data in zip(
            batch.column("path").to_pylist(), batch.column("bytes").to_pylist()
        ):
            doc_id = os.path.basename(path)
            rows, err = decode_pdf_doc(doc_id, data or b"")
            for r in rows:
                chars = r["chars"]
                cols = {
                    k: np.array([c[k] for c in chars], dtype=object if k in ("text",) else np.float64)
                    if k != "upright"
                    else np.array([c[k] for c in chars], dtype=bool)
                    for k in ("text", "x0", "x1", "top", "bottom", "upright")
                }
                cols["doctop"] = np.array([c["doctop"] for c in chars], np.float64)
                cols["size"] = np.array([c["size"] for c in chars], np.float64)
                cols["fontname"] = np.array([c["fontname"] for c in chars], object)
                w = extract_words_page(cols, cfg)
                n = int(w["text"].shape[0])
                geom = 0
                if n:
                    for f in ("x0", "x1", "top", "bottom"):
                        geom += int(np.floor(np.asarray(w[f], np.float64) * 1000.0).sum())
                out["doc_id"].append(doc_id)
                out["page_number"].append(int(r["page_number"]))
                out["n_words"].append(n)
                out["first_word"].append(str(w["text"][0]) if n else "")
                out["last_word"].append(str(w["text"][n - 1]) if n else "")
                out["geom_e3"].append(geom)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "page_number": pa.array(out["page_number"], pa.int64()),
                "n_words": pa.array(out["n_words"], pa.int64()),
                "first_word": pa.array(out["first_word"], pa.string()),
                "last_word": pa.array(out["last_word"], pa.string()),
                "geom_e3": pa.array(out["geom_e3"], pa.int64()),
            }
        )

    return ds.map_batches(census, batch_format="pyarrow", zero_copy_batch=True)


def q_real_structure(sf_dir: str) -> ray.data.Dataset:
    """Flattened nested structure trees (reference structure.py:151-459
    via the pdfio twin) of the real-PDF set, through the Ray pipeline:
    binary read -> per-doc tree parse -> preorder rows."""
    from pdfplumber_ray.pdfio.document import PDFDocument
    from pdfplumber_ray.pdfio.structure import structure_flat_rows

    paths = [f"{_REAL_PDF_DIR}/{n}" for n in _real_pdf_all()]
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def flatten(batch: pa.Table) -> pa.Table:
        rows: List[dict] = []
        for path, data in zip(
            batch.column("path").to_pylist(), batch.column("bytes").to_pylist()
        ):
            doc_id = os.path.basename(path)
            try:
                doc = PDFDocument(data)
                rows.extend(structure_flat_rows(doc, doc_id))
            except Exception:
                pass
        return pa.table(
            {
                "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
                "elem_index": pa.array([r["elem_index"] for r in rows], pa.int64()),
                "parent_index": pa.array(
                    [r["parent_index"] for r in rows], pa.int64()
                ),
                "depth": pa.array([r["depth"] for r in rows], pa.int64()),
                "type": pa.array([r["type"] for r in rows], pa.string()),
                "page_number": pa.array(
                    [r["page_number"] for r in rows], pa.int64()
                ),
                "n_mcids": pa.array(
                    [len(r["mcids"]) for r in rows], pa.int64()
                ),
                "mcids_csv": pa.array(
                    [",".join(map(str, r["mcids"])) for r in rows], pa.string()
                ),
                "lang": pa.array([r["lang"] for r in rows], pa.string()),
                "title": pa.array([r["title"] for r in rows], pa.string()),
            }
        )

    return ds.map_batches(flatten, batch_format="pyarrow", zero_copy_batch=True)


# the reference's 8-way rotation matrix (test_utils.py:102-170): page i of
# issue-848 carries the same text rendered at rotation i; extracting with
# the matching (char_dir, line_dir) config must reproduce page 0's text
_ROTATION_DIRS = [
    ("ltr", "ttb"), ("rtl", "ttb"), ("rtl", "btt"), ("ltr", "btt"),
    ("ttb", "rtl"), ("btt", "rtl"), ("btt", "ltr"), ("ttb", "ltr"),
]


def q_real_rotation_text(sf_dir: str) -> ray.data.Dataset:
    """8-way rotated text recovery on a real PDF through the Ray
    pipeline; every page's output must equal the unrotated page's text
    (verified in tests/test_real_pdf.py; the oracle pins the values)."""
    from pdfplumber_ray.pdfio import decode_pdf_batch
    from pdfplumber_ray.stages.decode import arrow_pages_to_dicts
    from pdfplumber_ray.functions.textmap import extract_text_page

    ds = ray.data.read_binary_files(f"{_REAL_PDF_DIR}/issue-848.pdf", include_paths=True)

    def to_docs(batch: pa.Table) -> pa.Table:
        names = [os.path.basename(p) for p in batch.column("path").to_pylist()]
        return pa.table(
            {"doc_id": pa.array(names, pa.string()), "pdf_bytes": batch.column("bytes")}
        )

    pages = ds.map_batches(to_docs, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        decode_pdf_batch, batch_format="pyarrow", zero_copy_batch=True
    ).drop_columns(["error"])

    def rotated_text(batch: pa.Table) -> pa.Table:
        pns: List[int] = []
        texts: List[str] = []
        for _doc_id, page in arrow_pages_to_dicts(batch):
            i = int(page["page_number"]) - 1
            char_dir, line_dir = _ROTATION_DIRS[i % len(_ROTATION_DIRS)]
            chars = page["chars"]
            keep = chars["text"] != " "  # reference test filters space glyphs
            ct = {k: v[keep] for k, v in chars.items()}
            txt = extract_text_page(
                ct,
                x_tolerance=2,
                y_tolerance=2,
                char_dir=char_dir,
                line_dir=line_dir,
                char_dir_rotated=char_dir,
                line_dir_rotated=line_dir,
                char_dir_render="ltr",
                line_dir_render="ttb",
            )
            pns.append(i + 1)
            texts.append(txt)
        return pa.table(
            {
                "page_number": pa.array(pns, pa.int32()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return pages.map_batches(rotated_text, batch_format="pyarrow", zero_copy_batch=True)


def q_real_tables(sf_dir: str) -> ray.data.Dataset:
    """Table detection + extraction over real table-bearing PDFs through
    the Ray PagesToTables stage (lattice default settings), flattened to
    one row per cell. Pinned by a golden parquet; the underlying chain is
    reference-anchored by tests/test_real_pdf.py (ca-warn) and
    tests/test_real_pdf_regressions.py (issue-140 lines_strict)."""
    from pdfplumber_ray.pipelines import tables_ds

    pages = _real_pdf_pages(
        sf_dir,
        [
            "WARN-Report-for-7-1-2015-to-03-25-2016.pdf",
            "issue-140-example.pdf",
            "nics-background-checks-2015-11.pdf",
        ],
    )
    tables = tables_ds(pages)

    def flatten_cells(batch: pa.Table) -> pa.Table:
        out = {
            "doc_id": [], "page_number": [], "table_index": [],
            "row_index": [], "col_index": [], "cell": [],
        }
        for r in batch.to_pylist():
            for ri, row in enumerate(r["rows"]):
                for ci, cell in enumerate(row):
                    out["doc_id"].append(r["doc_id"])
                    out["page_number"].append(r["page_number"])
                    out["table_index"].append(r["table_index"])
                    out["row_index"].append(ri)
                    out["col_index"].append(ci)
                    out["cell"].append("" if cell is None else cell)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "page_number": pa.array(out["page_number"], pa.int32()),
                "table_index": pa.array(out["table_index"], pa.int32()),
                "row_index": pa.array(out["row_index"], pa.int64()),
                "col_index": pa.array(out["col_index"], pa.int64()),
                "cell": pa.array(out["cell"], pa.string()),
            }
        )

    return tables.map_batches(
        flatten_cells, batch_format="pyarrow", zero_copy_batch=True
    )


def q_vertical_text(sf_dir: str) -> ray.data.Dataset:
    """Vertical writing mode (ISO 32000-1 §9.7.4; Identity-V + /W2//DW2):
    per-glyph geometry of the deterministic CJK fixture through the full
    Ray decode chain. Pinned by a golden parquet whose generating chain
    is anchored by hand-computed geometry in
    tests/test_vertical_writing.py (column descent, position-vector
    bbox, TJ gap semantics)."""
    from pdfplumber_ray.pdfio import decode_pdf_batch
    from pdfplumber_ray.pdfio.fixtures import make_vertical_pdf

    docs = ray.data.from_items(
        [{"doc_id": "vertical-cjk.pdf", "pdf_bytes": make_vertical_pdf()}]
    )
    pages = docs.map_batches(
        decode_pdf_batch, batch_format="pyarrow", zero_copy_batch=True
    )

    def char_rows(batch: pa.Table) -> pa.Table:
        import numpy as np

        out = {
            "doc_id": [], "page_number": [], "ordinal": [], "text": [],
            "x0_e6": [], "top_e6": [], "bottom_e6": [], "size_e6": [],
            "upright": [],
        }
        for row in batch.to_pylist():
            for i, c in enumerate(row["chars"]):
                out["doc_id"].append(row["doc_id"])
                out["page_number"].append(row["page_number"])
                out["ordinal"].append(i)
                out["text"].append(c["text"])
                for k in ("x0", "top", "bottom", "size"):
                    out[f"{k}_e6"].append(int(np.floor(c[k] * 1e6 + 0.5)))
                out["upright"].append(c["upright"])
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "page_number": pa.array(out["page_number"], pa.int32()),
                "ordinal": pa.array(out["ordinal"], pa.int64()),
                "text": pa.array(out["text"], pa.string()),
                "x0_e6": pa.array(out["x0_e6"], pa.int64()),
                "top_e6": pa.array(out["top_e6"], pa.int64()),
                "bottom_e6": pa.array(out["bottom_e6"], pa.int64()),
                "size_e6": pa.array(out["size_e6"], pa.int64()),
                "upright": pa.array(out["upright"], pa.bool_()),
            }
        )

    return pages.map_batches(char_rows, batch_format="pyarrow", zero_copy_batch=True)


def q_ntile(sf_dir: str) -> ray.data.Dataset:
    """NTILE(4) over (n_chars, doc_id) without a global sort: broadcast
    value-CDF gives the cross-value rank, one value-bucket shuffle ranks
    ties; SQL NTILE sizing rule (first N%k tiles get one extra row)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return an.ntile_ds(docs, "n_chars", "doc_id", k=4)


def q_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-label embedding centroid accumulators: quantized components
    (floor(x*1e6), the knn_graph exactness rule) segment-summed per
    group with one reduceat per batch -> bounded (label, dim) groupby.
    Vectors never shuffle."""
    return co.centroids_ds(_embeddings(sf_dir))


def q_collocations(sf_dir: str) -> ray.data.Dataset:
    """Bigram collocation lift (phrase detection): Arrow bigram-count
    combiner -> one (w1,w2) groupby; marginals derive from the pair
    table and broadcast under a vocab guard; integer lift_e6 so the SQL
    twin is exact."""
    return co.collocations_ds(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"]),
        min_count=5,
    )


def q_group_ids(sf_dir: str) -> ray.data.Dataset:
    """Per-language audit sample: the 5 smallest doc ids joined as a
    comma string plus the language's document count (ordered
    string_agg head)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return an.group_sample_ids_ds(docs)


def q_kmeans(sf_dir: str) -> ray.data.Dataset:
    """Deterministic integer-exact k-means (init = vectors of the 8
    smallest ids, 2 Lloyd iterations, floor-div centroid updates):
    final (vec_id, cluster, dist2) assignment. Centroids broadcast per
    iteration; only k-rows-per-block partials reach the driver."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return co.kmeans_ds(emb)


def q_winsorize(sf_dir: str) -> ray.data.Dataset:
    """Winsorize doc lengths at the global p99 (integer percentile_disc
    rank (99n+99)//100): value-count combiner -> bounded distinct-value
    groupby -> scalar cutoff -> streaming clip."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return an.winsorize_ds(docs, "n_chars", "doc_id")


def q_rank_sum(sf_dir: str) -> ray.data.Dataset:
    """Mann-Whitney U between en and de doc lengths in doubled midranks
    (integer-exact ties): the nonparametric drift test beside ks_drift.
    Same bounded distinct-cell dataflow."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    return an.rank_sum_ds(docs, "lang", "n_chars", "en", "de")


def q_pq_search(sf_dir: str) -> ray.data.Dataset:
    """ADC search over PQ codes: codebooks learned on the corpus, tiny
    query-to-centroid LUT broadcast, one streaming encode+gather pass,
    per-block top-k merge — the compressed-domain ANN answer path."""
    q = _query_vector(sf_dir)
    if q is None:
        return pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                **{f"code_{s}": pa.array([], pa.int64()) for s in range(4)},
                "adc2": pa.array([], pa.int64()),
            }
        )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return co.pq_search_ds(emb, q)


def q_pq_encode(sf_dir: str) -> ray.data.Dataset:
    """Product-quantization encode: 64-dim embeddings -> 4 subspace
    codes (k=4 codebooks learned with the deterministic integer-exact
    k-means rules, 1 Lloyd iteration) + total integer reconstruction
    error. Codebooks broadcast; one partial-scatter pass per iteration;
    the vectors never shuffle."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return co.pq_encode_ds(emb)


def q_doc_rank(sf_dir: str) -> ray.data.Dataset:
    """Distributed ROW_NUMBER (ORDER BY n_chars, doc_id) without a
    global sort: broadcast value-count CDF + one tie-run bucket
    shuffle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return an.row_number_ds(docs, "n_chars", "doc_id")


def q_dsir_weights(sf_dir: str) -> ray.data.Dataset:
    """DSIR-style importance weights (integer-linearized): hashed-token
    bucket rates for the lang='en' target vs the whole corpus, add-one
    smoothed ratio_e6 per bucket, per-doc weight = sum of its token
    ratios. Bucket-count combiner -> 1024-row groupby -> broadcast
    ratio table -> streaming score pass."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return co.dsir_weights_ds(docs, "lang", "en")


def q_phash_dedup(sf_dir: str) -> ray.data.Dataset:
    """Perceptual-hash (dHash-56) image dedup over the synthetic media
    payloads: task-stage hash -> combiner -> hash groupby; one row per
    distinct hash with keep_doc_id (min) and member count. The SYNM body
    bytes are integer arithmetic on doc_id, so the SQL twin reproduces
    every gradient bit."""
    from pdfplumber_ray.pipelines.media import phash_dedup_ds

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    return phash_dedup_ds(docs)


def q_rrf_fusion(sf_dir: str) -> ray.data.Dataset:
    """Reciprocal-rank fusion of two document rankings (by n_chars and
    by whitespace token count, both DESC with doc_id tie-break):
    integer-quantized rrf_e9 = floor(1e9/(60+ra)) + floor(1e9/(60+rb)),
    global top-100 without a corpus sort (bucket-local top-k merge)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )

    def metrics(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id").cast(pa.int64()),
                "n_chars": b.column("n_chars").cast(pa.int64()),
                "n_words": pc.list_value_length(
                    pc.split_pattern(b.column("text"), pattern=" ")
                ).cast(pa.int64()),
            }
        )

    m = docs.map_batches(metrics, batch_format="pyarrow", zero_copy_batch=True)
    return an.rrf_fusion_ds(m, "doc_id", "n_chars", "n_words")


def q_source_overlap(sf_dir: str) -> ray.data.Dataset:
    """Cross-source contamination matrix: distinct shared 5-gram count
    between every source pair plus each side's distinct-gram total.
    Distinct (gram, source) combiner -> one gram-hash bucket shuffle ->
    in-bucket triu pair expansion -> sources^2 groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return co.source_overlap_ds(docs)


def q_fuzzy_join(sf_dir: str) -> ray.data.Dataset:
    """Fuzzy spell-correction join (SymSpell deletion-neighborhood
    blocking, vectorized ED<=1 verify): a deterministic typo corpus —
    each doc's first token with the char at position doc_id % len
    deleted — joined against the corpus vocabulary (tokens of 4..16
    chars with counts) at Levenshtein distance <= 1."""
    from ray.data.aggregate import Sum as _Sum

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tok_partial(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(b.column("text"), pattern=" "))
        agg = pa.table({"token": toks}).group_by("token").aggregate(
            [("token", "count")]
        )
        return pa.table(
            {
                "token": agg.column("token"),
                "n_p": agg.column("token_count").cast(pa.int64()),
            }
        )

    vocab = (
        docs.map_batches(tok_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(_Sum("n_p"))
        .map_batches(
            lambda b: b.filter(
                pc.and_(
                    pc.greater_equal(pc.utf8_length(b.column("token")), 4),
                    pc.less_equal(pc.utf8_length(b.column("token")), 16),
                )
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .map_batches(
            lambda b: pa.table(
                {"token": b.column("token"), "c": b.column("sum(n_p)").cast(pa.int64())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    def typo_partial(b: pa.Table) -> pa.Table:
        mask = pc.not_equal(b.column("text"), "")
        b = b.filter(mask)
        first = pc.list_element(
            pc.split_pattern(b.column("text"), pattern=" "), 0
        )
        ln = pc.utf8_length(first).cast(pa.int64())
        keep = pc.greater_equal(ln, 4)
        first, ln = first.filter(keep), ln.filter(keep)
        ids = b.column("doc_id").filter(keep).cast(pa.int64())
        p = (
            ids.to_numpy(zero_copy_only=False)
            % ln.to_numpy(zero_copy_only=False)
        )
        # deletion at a per-row position: <=16 vectorized slices, one per
        # distinct position value, never a per-row Python loop
        out = np.empty(len(p), dtype=object)
        fn = first.to_numpy(zero_copy_only=False)
        for pos in np.unique(p):
            m = p == pos
            sel = pa.array(fn[m], pa.string())
            typo = pc.binary_join_element_wise(
                pc.utf8_slice_codeunits(sel, 0, int(pos)),
                pc.utf8_slice_codeunits(sel, int(pos) + 1, np.iinfo(np.int32).max),
                "",
            )
            out[m] = typo.to_numpy(zero_copy_only=False)
        return pa.table({"q": pa.array(np.unique(out.astype(str)), pa.string())})

    # global distinct via groupby on the typo string, key projected back out
    queries_ds = (
        docs.map_batches(typo_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("q")
        .count()
        .select_columns(["q"])
    )
    return co.fuzzy_join_ds(queries_ds, vocab)


def q_ks_drift(sf_dir: str) -> ray.data.Dataset:
    """Integer-exact two-sample KS distance between every source pair
    over the n_chars distribution (cross-multiplied CDF gap, all int64)
    — the drift detector run across sources before trusting a sampling
    mix. Only distinct (source, value) count cells leave the combiner."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return an.ks_drift_ds(docs)


def q_simpson_diversity(sf_dir: str) -> ray.data.Dataset:
    """Gini-Simpson lexical diversity per doc (integer-exact e6): the
    vocabulary-flatness quality signal — sum of squared token
    multiplicities vs n^2, all integers, zero shuffle."""
    return co.simpson_diversity_ds(_documents(sf_dir))


def q_corpus_checksum(sf_dir: str) -> ray.data.Dataset:
    """Order-invariant corpus fingerprint (count + mod-2^63 sum + 63-bit
    xor of md5_u64(id|text)): the post-copy integrity check — one partial
    row per block, commutative fold, parallelism-independent."""
    return co.corpus_checksum_ds(_documents(sf_dir))


def q_bm25_topk(sf_dir: str) -> ray.data.Dataset:
    """BM25 top-10 retrieval for a 4-term query, integer-exact (rational
    idf (2N-2df+1)/(2df+1), k1=6/5, b=3/4, avgdl=floor(T/N), per-term
    e6 floor): one stats pass (one partial row per block), one scoring
    pass with per-block top-k — driver folds <= k rows per block."""
    return co.bm25_topk_ds(
        _documents(sf_dir), ["hash", "join", "window", "stream"], k=10
    )


def q_bpe_pairs(sf_dir: str) -> ray.data.Dataset:
    """BPE merge-candidate mining: corpus top-50 adjacent char pairs
    weighted by word frequency — vocab groupby, vectorized utf-32 pair
    expansion, alphabet^2-bounded final table."""
    return co.bpe_pairs_ds(_documents(sf_dir), k=50)


def q_dedup_keep_best(sf_dir: str) -> ray.data.Dataset:
    """Dedup selection policy: near-dup clusters (minhash -> jaccard
    verify -> resolution) reduced to keep-longest — every doc gets
    (canonical_id, best_doc_id, keep); two bounded-bucket exchanges."""
    docs = _documents(sf_dir)
    cands = co.minhash_pairs_ds(
        docs, num_perm=64, bands=64, threshold=0.0, max_bucket=None
    )
    pairs = co.ngram_jaccard_verify_ds(cands, docs, threshold=0.5)
    scored = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return co.dedup_keep_best_ds(pairs, scored, score_col="n_chars")


def q_surprisal(sf_dir: str) -> ray.data.Dataset:
    """Unigram surprisal quality proxy: per-doc sum of
    floor(log2(T/count(token))) bits, integer-exact (frexp exponent here,
    binary-string length in SQL); vocab broadcast under a Heaps guard."""
    return co.surprisal_ds(_documents(sf_dir))


def q_mutual_knn(sf_dir: str) -> ray.data.Dataset:
    """Reciprocal k-NN pairs over the embedding table: (x, y) where each
    is in the other's exact-cosine top-5 — the high-precision near-dup /
    cluster-seed filter on the k-NN graph. One bounded bucket shuffle
    over the k-edge stream; sims/ranks inherit knn_graph's bit-exact
    integer quantization."""
    return co.mutual_knn_ds(_embeddings(sf_dir), k=5)


def q_grid_cores(sf_dir: str) -> ray.data.Dataset:
    """Grid-density core cells over the first two embedding dims
    (grid-DBSCAN stage 1): per occupied 0.1-side cell its exact point
    count, core flag (>= 8 pts), and occupied 8-neighborhood count.
    Per-batch cell combiner, two cell-count-sized shuffles."""
    return co.grid_cores_ds(_embeddings(sf_dir), cell_e6=100_000, min_pts=8)


def q_skipgram_counts(sf_dir: str) -> ray.data.Dataset:
    """Directional skip-gram pair counts (window 3, min count 5) — the
    word2vec/GloVe co-occurrence pass. Pair generation is block-local
    (flattened-token-array views masked to same-doc positions), one
    Arrow combiner per block, one vocab-bounded groupby."""
    return co.skipgram_counts_ds(_documents(sf_dir), window=3, min_count=5)


def q_entity_graph(sf_dir: str) -> ray.data.Dataset:
    """Entity co-occurrence edges (knowledge-graph construction): two
    mined multi-token entities link when they share >= 2 documents.
    Extraction + per-doc dedup + pair fan-out all block-local; one
    support-filtered groupby over (e1, e2)."""
    return co.entity_graph_ds(_documents(sf_dir), min_support=2)


def q_cluster_inertia(sf_dir: str) -> ray.data.Dataset:
    """Per-cluster inertia components (k-means / SemDeDup quality
    audit): exact integer n, sum of squared norms, and squared norm of
    the component sum per label — WCSS derives rationally. One pass,
    per-batch combiners, label-bounded groupbys, additive merge."""
    return co.cluster_inertia_ds(_embeddings(sf_dir))


def q_dim_variance(sf_dir: str) -> ray.data.Dataset:
    """Per-dimension moment screen over the embedding column (variance
    audit before whitening/PQ): exact integer n, sum, sum-of-squares
    per dim. One row per dim per block, 64-group final sum."""
    return co.dim_variance_ds(_embeddings(sf_dir))


def q_centroid_outliers(sf_dir: str) -> ray.data.Dataset:
    """Per-cluster centroid outliers (mislabel audit): top-5 members
    farthest from their label centroid in the integer-exact scaled form
    ||n*q - S||^2. Tiny (label x dim) stats broadcast; vectors stream
    once emitting per-block top-k partials."""
    return co.centroid_outliers_ds(_embeddings(sf_dir), k=5)


def q_sampled_dup_rate(sf_dir: str) -> ray.data.Dataset:
    """O(N) sampled duplication-rate estimate: one md5-deterministic
    partner per doc, exact 5-gram Jaccard per pair, e3 histogram.
    Partner texts attach via the generic bucketed hash join — the pair
    list is N rows and never collects."""
    return co.sampled_dup_rate_ds(_documents(sf_dir))


def q_effective_tokens(sf_dir: str) -> ray.data.Dataset:
    """Dedup-discounted token mass per source: each doc's tokens
    down-weighted by its exact-dup family size (eff = 1000*tok//fam).
    One digest-bucket shuffle of (digest, tok, source) projections,
    per-source partials, tiny final groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return co.effective_tokens_ds(docs)


def q_term_burstiness(sf_dir: str) -> ray.data.Dataset:
    """Church-Gale term adaptation stats for the top-50 terms by tf:
    (tf, df, max single-doc count). Per-doc counts exact in one Arrow
    group_by per block; vocab-bounded merge; per-block top-k cut."""
    return co.term_burstiness_ds(_documents(sf_dir), k=50)


def q_int8_quant_error(sf_dir: str) -> ray.data.Dataset:
    """Per-dimension int8 scalar-quantization error audit: power-of-two
    truncation shift per dim + exact integer error mass/max. Two
    streaming passes, 64-group aggregates, 64-row broadcast."""
    return co.int8_quant_error_ds(_embeddings(sf_dir))


def q_blocklist_hits(sf_dir: str) -> ray.data.Dataset:
    """Blocklist / safety-lexicon gate: per-doc exact token hits against
    a broadcast lexicon, permille rate, and the gate flag. Vectorized
    pc.is_in + bincount, no shuffle."""
    return co.blocklist_hits_ds(_documents(sf_dir))


def q_semantic_decontaminate(sf_dir: str) -> ray.data.Dataset:
    """Embedding-space train/eval decontamination: each held-out vector
    (id % 5 == 0) gets its nearest TRAIN vector by exact cosine + leak
    flag — the semantic counterpart of the n-gram sweep. Train matrix
    staged in the object store; eval side streams."""
    return co.semantic_decontaminate_ds(_embeddings(sf_dir))


def q_stratified_kfold(sf_dir: str) -> ray.data.Dataset:
    """Deterministic stratified 5-fold assignment: per-language fold
    counts balanced to ±1 via within-stratum md5 rank (RNG-free,
    engine-reproducible)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return co.stratified_kfold_ds(docs, n_folds=5)


def q_syndication_histogram(sf_dir: str) -> ray.data.Dataset:
    """Syndicated-content histogram: template families (keyed on the
    first-5-token opening — whole-text dups rarely cross sources, shared
    openings do) bucketed by how many distinct sources they span.
    Distinct-cell combiner -> digest groupbys -> tiny histogram."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )
    return co.syndication_histogram_ds(docs, key_tokens=5)


def q_term_trend(sf_dir: str) -> ray.data.Dataset:
    """Vocabulary drift between corpus halves: per-term counts in the
    first vs second half of the id space with an integer drift score
    (+1e6 newly coined, -1e6 vanished). Tagged count combiner, one
    vocab-bounded groupby, half-pivot."""
    return co.term_trend_ds(_documents(sf_dir), min_count=20)


def q_semantic_families(sf_dir: str) -> ray.data.Dataset:
    """Semantic near-dup families: mutual-kNN evidence -> distributed
    hash-min label propagation -> family sizes — the cluster table a
    SemDeDup keep-one policy consumes. End-to-end composition of three
    engine primitives, bounded shuffles throughout."""
    return co.semantic_families_ds(_embeddings(sf_dir), k=5)


def q_index_gap_stats(sf_dir: str) -> ray.data.Dataset:
    """Inverted-index compression sizing: exact varint bytes of the
    gap-encoded posting lists per document frequency (df band 2..64).
    postings_ds exchange + vectorized gap/bit math."""
    return an.index_gap_stats_ds(_documents(sf_dir))


def q_dataset_card(sf_dir: str) -> ray.data.Dataset:
    """One-row dataset-card fact sheet: docs, tokens, chars, length
    range, language/source counts, exact dup-doc count. Column-pruned
    combiner passes, bounded groupbys."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    return co.dataset_card_ds(docs)


def q_source_prefix_audit(sf_dir: str) -> ray.data.Dataset:
    """Per-source shared-opening boilerplate length via the min/max LCP
    trick (LCP of a set == LCP of its lexicographic extremes): two
    string aggregates per source, LCP on the report table."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )
    return co.source_prefix_audit_ds(docs)


def q_fold_leakage(sf_dir: str) -> ray.data.Dataset:
    """Cross-validation leakage audit: template families (first-5-token
    key) whose members straddle different stratified folds — the
    train/val contamination metric every CV split should report.
    Composition of stratified_kfold + digest co-group."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return co.fold_leakage_ds(docs, n_folds=5, key_tokens=5)


def q_hash_collision_audit(sf_dir: str) -> ray.data.Dataset:
    """64-bit gram-hash birthday audit: distinct 5-grams vs distinct
    md5-u64 hashes; any gap silently merges grams in every hash-keyed
    dedup operator. Two distinct-combiner passes."""
    return co.hash_collision_audit_ds(_documents(sf_dir))


def q_emd_lengths(sf_dir: str) -> ray.data.Dataset:
    """Exact integer 1-D earth-mover distance between src0's and src1's
    doc-length distributions (cross-multiplied, emd = emd_num/(na*nb))
    — the drift integral complementing the KS max. ks_drift dataflow:
    distinct-cell combiner, grid sweep on the bounded table."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )
    return an.emd_lengths_ds(docs)


def q_dim_covariance(sf_dir: str) -> ray.data.Dataset:
    """Cross-dimension covariance components over e6-quantized embedding
    pairs (the pre-PCA correlation screen): exact integer n, s_i, s_j,
    s_ij per unordered dim pair via ONE integer Gram matmul per block,
    then a pair-bounded (2,080-group) sum."""
    return co.dim_covariance_ds(_embeddings(sf_dir))


def q_lsh_recall_audit(sf_dir: str) -> ray.data.Dataset:
    """End-to-end LSH tuning report: pairs from the production MinHash
    banding (64 perms / 16 bands) vs the exact Jaccard ground truth at
    the same 0.5 threshold — one row (n_lsh, n_true, n_hits); recall
    and precision derive exactly. Both sides are band-key shuffles;
    the audit adds one groupby over the tiny pair union."""
    return co.lsh_recall_audit_ds(_documents(sf_dir), threshold=0.5)


def q_lang_fertility(sf_dir: str) -> ray.data.Dataset:
    """Tokenizer-fertility audit per language: exact n_docs, UTF-8
    bytes, codepoints, whitespace tokens and BPE-regex tokens, so
    bytes/token and subtokens/word ratios derive exactly. Per-block
    language combiner, language-bounded final groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    return an.lang_fertility_ds(docs)


def q_vocab_growth(sf_dir: str) -> ray.data.Dataset:
    """Heaps'-law vocabulary growth curve over 3-token shingles (the
    unigram vocab of the synthetic corpus saturates in decile 0; the
    shingle vocab keeps growing): new + cumulative distinct shingles
    per doc-id decile."""
    return co.vocab_growth_ds(_documents(sf_dir), n_checkpoints=10, shingle_k=3)


def q_shard_balance(sf_dir: str) -> ray.data.Dataset:
    """Shard-balance audit of the md5 training shuffle: per shard the
    doc count, token mass, and min/max per-doc token count."""
    return co.shard_balance_ds(_documents(sf_dir), n_shards=64)


def q_power_iter_step(sf_dir: str) -> ray.data.Dataset:
    """One distributed power-iteration matvec X^T(X*ones) over e3-
    quantized embeddings — the PCA primitive, integer-exact, one row
    per dimension."""
    embs = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return co.power_iter_step_ds(embs)


def q_prefix_filter_pairs(sf_dir: str) -> ray.data.Dataset:
    """PPJoin-style prefix-filtering candidate pairs over 4-token
    shingles (Jaccard floor 0.8): docs sharing a shingle in their
    (df ASC, shingle ASC)-ordered prefix of size k - ceil(0.8k) + 1."""
    return co.prefix_filter_pairs_ds(
        _documents(sf_dir), threshold_permille=800, shingle_k=4
    )


def q_prefix_filter_verified(sf_dir: str) -> ray.data.Dataset:
    """END-TO-END set-similarity join: PPJoin prefix-filter candidates
    (4-token shingles, t=0.8) -> exact shingle-Jaccard verify. Prefix
    filtering is COMPLETE above the threshold, so the result equals the
    TRUE all-pairs Jaccard >= 0.8 set — which is exactly what the
    O(N^2) oracle computes."""
    docs = _documents(sf_dir)
    cands = co.prefix_filter_pairs_ds(
        docs, threshold_permille=800, shingle_k=4
    )
    return co.ngram_jaccard_verify_ds(cands, docs, shingle_k=4, threshold=0.8)


def q_snm_pairs(sf_dir: str) -> ray.data.Dataset:
    """Sorted-Neighborhood dedup candidates (Hernandez & Stolfo): pairs
    within window-4 rank distance in the normalized-8-char-key order;
    histogram-CDF ranks (no global sort) + chunk-claimed windowed
    pairing."""
    return co.snm_pairs_ds(_documents(sf_dir), window=4)


def q_entity_mentions(sf_dir: str) -> ray.data.Dataset:
    """NER-lite run mining: corpus top-50 multi-word content-token runs
    (the synthetic corpus is lowercased, so the query mines
    ``[a-z]{6,}`` runs; the operator's default pattern is the
    ``[A-Z][a-z]+`` proper-noun form), vectorized run detection over
    the flattened token stream."""
    return co.entity_mentions_ds(
        _documents(sf_dir), k=50, token_pattern="[a-z]{6,}"
    )


def q_spearman_corr(sf_dir: str) -> ray.data.Dataset:
    """Spearman rank correlation (doc length vs token count) as exact
    integer components (n, num, denx, deny) over doubled average ranks;
    histogram-based ranking, no global sort."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "text"]
    )
    return an.spearman_corr_ds(docs)


def q_gini_concentration(sf_dir: str) -> ray.data.Dataset:
    """Gini coefficient of token mass across docs as exact integers
    (n, total, gini_num): sorted-index sum collapsed onto the token-count
    histogram — no global sort."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return an.gini_concentration_ds(docs)


def q_sentence_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-doc sentence segmentation ([.!?]+ RE2 split, space-trimmed,
    empties dropped): sentence count, max and sum of per-sentence token
    counts."""
    return an.sentence_stats_ds(_documents(sf_dir))


def q_kappa_agreement(sf_dir: str) -> ray.data.Dataset:
    """Cohen's kappa (exact integer num/den components) between the
    declared lang column and the stopword detector: the chance-corrected
    label-quality audit, riding the lang_confusion combiner — only the
    langs x langs matrix reaches the driver."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )
    return co.kappa_agreement_ds(docs)


def q_minimizer_sketch(sf_dir: str) -> ray.data.Dataset:
    """(w=4, k=2) minimizer sketch audit per doc: windowed min over
    md5_u64 bigram-shingle hashes; emits shingle count, distinct
    minimizer count and a 63-bit xor checksum of the sketch — zero
    shuffle, one sliding_window_view per batch."""
    return co.minimizer_sketch_ds(_documents(sf_dir), w=4)


def q_bool_retrieval(sf_dir: str) -> ray.data.Dataset:
    """Conjunctive (AND) retrieval: docs containing ALL top-3 tokens by
    document frequency (df DESC, token ASC) — df combiner + per-block
    top-k, query terms broadcast in the closure, one streaming
    np.isin membership pass."""
    return co.bool_retrieval_ds(_documents(sf_dir), n_terms=3)


def q_hist_intersection(sf_dir: str) -> ray.data.Dataset:
    """Histogram-intersection overlap between the length distributions
    of the two largest sources (256-char buckets) — integer-exact
    distribution-drift check; only the (sources x buckets) domain
    reaches the driver."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return co.hist_intersection_ds(docs, bucket_width=256)


def q_marginal_vocab(sf_dir: str) -> ray.data.Dataset:
    """Marginal vocabulary contribution per source: distinct tokens vs
    tokens owned under the lexicographic-first-source greedy cover —
    ONE token-hash bucketed shuffle, in-bucket np.unique is the global
    distinct."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return co.marginal_vocab_ds(docs)


def q_vocab_drift(sf_dir: str) -> ray.data.Dataset:
    """Adjacent-source vocabulary drift chain: exact distinct-token
    overlap (n_a, n_b, n_common) per lexicographically consecutive
    source pair; ONE token-hash bucketed shuffle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return co.vocab_drift_ds(docs)


def q_edit_distance_join(sf_dir: str) -> ray.data.Dataset:
    """PassJoin-style string-similarity self-join: doc pairs whose
    36-char padded prefixes are within Levenshtein distance 2 —
    pigeonhole segment blocking, pair-vectorized DP verify
    (max_bucket=None keeps the oracle exact)."""
    return co.edit_distance_join_ds(_documents(sf_dir), max_bucket=None)


def q_zonemap_prune(sf_dir: str) -> ray.data.Dataset:
    """Zone-map pruning audit: per 100-doc id shard the n_chars min/max
    and whether a >= 2000 scan skips it; bounded shard-domain combiner."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return an.zonemap_prune_ds(docs, shard_size=100, threshold=2000)


def q_freq_of_freqs(sf_dir: str) -> ray.data.Dataset:
    """Zipf spectrum: distinct terms + token mass per log2 term-frequency
    bucket (bucket 1 = hapax mass); vocab groupby then a <= 64-row
    bucket fold."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return co.freq_of_freqs_ds(docs)


def q_oov_rate(sf_dir: str) -> ray.data.Dataset:
    """Per-source OOV rate vs the corpus's own top-16 terms (freq DESC,
    token ASC); block top-k vocab build + streaming searchsorted probe."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return co.oov_rate_ds(docs, n_vocab=16)


def q_encoding_size_audit(sf_dir: str) -> ray.data.Dataset:
    """Column-encoding size audit over documents (lang/source/text):
    plain vs dictionary byte estimates; one value-hash shuffle per
    column for the exact distinct set."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "text"]
    )
    return an.encoding_size_audit_ds(docs)


def q_rare_token_pairs(sf_dir: str) -> ray.data.Dataset:
    """Rare-shingle blocking pairs (inverted-index candidate generation):
    docs sharing a 3-word shingle with df in [2, 3]; per-shingle fan-out
    bounded by construction, no caps or salts needed."""
    return an.rare_token_pairs_ds(_documents(sf_dir))


def q_bottomk_sample(sf_dir: str) -> ray.data.Dataset:
    """Bottom-k (KMV) exact-size uniform sample: the 100 docs with the
    smallest 60-bit md5 rank; per-block bottom-k partials, the big
    table never shuffles."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return an.bottomk_sample_ds(docs)


def q_span_kind_transitions(sf_dir: str) -> ray.data.Dataset:
    """Markov bigram census of span kinds over the INTERLEAVED payload
    (heading -> text -> media flow); vectorized bigram partials, one
    bounded |kinds|^2 groupby."""
    return an.span_kind_transitions_ds(_annot_docs(sf_dir))


def q_media_density(sf_dir: str) -> ray.data.Dataset:
    """Per-document interleaving profile (span counts by class, text
    chars, media permille) — the multimodal triage table; pure per-batch
    projection, no shuffle."""
    return an.media_density_ds(_annot_docs(sf_dir))


def q_span_offset_audit(sf_dir: str) -> ray.data.Dataset:
    """Offset-integrity audit of the interleaved payload: within-doc
    strict monotonicity + checksum totals, one row out; single-row
    fold, nothing shuffles."""
    return an.span_offset_audit_ds(_annot_docs(sf_dir))


def q_kind_runlengths(sf_dir: str) -> ray.data.Dataset:
    """Run-length census of span kinds (runs, longest run, span totals
    per kind) — separates tabular / prose / gallery corpora; vectorized
    RLE partials, one bounded groupby."""
    return an.kind_runlengths_ds(_annot_docs(sf_dir))


def q_caption_mining(sf_dir: str) -> ray.data.Dataset:
    """Caption-candidate mining: every media_ref paired with its nearest
    preceding text-bearing span (the LAION-style image-text pairing step
    over interleaved docs); pure cummax projection, no shuffle."""
    return an.caption_mining_ds(_annot_docs(sf_dir))


def q_span_pack(sf_dir: str) -> ray.data.Dataset:
    """Multimodal-aware greedy sequence packing (24-word budget, media
    spans cost zero and never split from position); vectorized
    chunk-depth rounds via searchsorted over prefix sums, no shuffle."""
    return an.span_pack_ds(_annot_docs(sf_dir), budget_words=24)


def q_media_ref_integrity(sf_dir: str) -> ray.data.Dataset:
    """Referential-integrity audit of media_ref URIs in the interleaved
    payload (scheme, ownership, dense 0..n-1 indexing); vectorized parse
    partials, single-row fold."""
    return an.media_ref_integrity_ds(_annot_docs(sf_dir))


def q_kmv_intersection(sf_dir: str) -> ray.data.Dataset:
    """Theta-sketch (KMV, k=128) set-intersection estimator audit: per
    source pair, exact shared distinct 3-word shingles vs the integer
    KMV estimate; one (source, h60) dedup shuffle feeds both sides."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return an.kmv_intersection_ds(docs)


def q_bow_dedup(sf_dir: str) -> ray.data.Dataset:
    """Bag-of-words (order-invariant) duplicate histogram: identical
    sorted token multisets; one md5 per doc + bounded bag-hash shuffle."""
    return an.bow_dedup_ds(_documents(sf_dir))


def q_hard_negatives(sf_dir: str) -> ray.data.Dataset:
    """Contrastive hard-negative mining: same coarse grid cell,
    different label, with exact integer squared L2 for margin filters;
    one bounded cell groupby."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    return an.hard_negatives_ds(emb)


def q_dedup_modality_agreement(sf_dir: str) -> ray.data.Dataset:
    """Agreement matrix across the three dedup definitions (exact text,
    verified shingle-Jaccard >= 0.5, CDC shared chunk >= 16 chars):
    pair-set sizes + pairwise/triple intersections in one row."""
    return an.dedup_modality_agreement_ds(_documents(sf_dir))


def q_quantile_map(sf_dir: str) -> ray.data.Dataset:
    """Exact CDF alignment between sources: for each ordered source
    pair and distinct n_chars value, the same-rank value in the other
    source (cross-multiplied integer rule, no floats)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return an.quantile_map_ds(docs)


def q_effective_sample_size(sf_dir: str) -> ray.data.Dataset:
    """Kish effective sample size per source with n_chars weights:
    (sum w)^2 / sum w^2 exact via big-int finish; 3-partial combiner +
    tiny stratum groupby."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return an.effective_sample_size_ds(docs)


def q_feature_hashing(sf_dir: str) -> ray.data.Dataset:
    """Hashing-trick bag-of-words featurization: 16 signed md5 slots per
    document, no vocabulary build or shuffle — pure map_batches."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return an.feature_hashing_ds(docs)


def q_cdc_families(sf_dir: str) -> ray.data.Dataset:
    """Verbatim-reuse families: connected components of the CDC
    chunk-sharing graph (min 16-char chunks, ubiquitous chunks capped
    out); chunk-hash bucket shuffle + O(log n) min-label propagation."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return an.cdc_families_ds(docs)


def q_gini_stump(sf_dir: str) -> ray.data.Dataset:
    """Exact CART-style decision-stump screen: top-5 n_chars thresholds
    minimizing weighted Gini impurity of the lang partition; (value,
    label) count combiner + bounded-domain groupby, big-int finish."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )
    return an.gini_stump_ds(docs)


def q_dup_edit_audit(sf_dir: str) -> ray.data.Dataset:
    """Prefix-blocked near-dup edit-distance audit: docs sharing their
    first 24 chars pair up (blocks capped at the 64 lowest ids) and get
    the exact Levenshtein of their first 256 chars."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return an.dup_edit_audit_ds(docs)


def q_phonetic_keys(sf_dir: str) -> ray.data.Dataset:
    """Phonetic-key (soundex-lite) blocking over the corpus vocabulary:
    the full key table with distinct-token counts and lexicographic
    extremes (n_tokens >= 2 rows are the collision classes); count
    combiner + bounded vocab groupby."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return an.phonetic_keys_ds(docs)


def q_cdc_chunks(sf_dir: str) -> ray.data.Dataset:
    """Content-defined chunking shared-chunk histogram (storage-dedup /
    sub-document verbatim-reuse modality): rolling 8-char window hash
    cuts, md5 chunk keys, distinct-doc counts; one bounded
    hash-bucket shuffle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return an.cdc_chunks_ds(docs)


def q_poisson_bootstrap(sf_dir: str) -> ray.data.Dataset:
    """One-pass Poisson(1) bootstrap of mean doc length per source
    (16 deterministic replicates, inverse-CDF on md5 uniforms); single
    streaming pass, tiny (source, rep) fold."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return an.poisson_bootstrap_ds(docs)


def q_rand_projection(sf_dir: str) -> ray.data.Dataset:
    """Johnson-Lindenstrauss +/-1 sign projection of e6-quantized
    embeddings onto k=16 components with division-free norm-audit
    columns; shuffle-free integer matmul per batch."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return an.rand_projection_ds(emb)


# One ordering rule: extraction and real-PDF decode queries first, then
# span/media analytics over the interleaved-doc payload, then LLM-corpus
# ops over documents/embeddings (tests/test_registry.py reads each
# query's family from the code it calls).
QUERIES: Dict[str, Callable[[str], Any]] = {
    # extraction and real-PDF decode
    "roundtrip_text": q_roundtrip_text,
    "vertical_text": q_vertical_text,
    "rect_mcids": q_rect_mcids,
    "page_images": q_page_images,
    "real_repair": q_real_repair,
    "real_laparams": q_real_laparams,
    "real_words": q_real_words,
    "real_layout_text": q_real_layout_text,
    "real_tables": q_real_tables,
    "real_objects": q_real_objects,
    "real_structure": q_real_structure,
    "real_rotation_text": q_real_rotation_text,
    "word_count": q_word_count,
    "search": q_search,
    "table_cells_lineitem": q_table_cells_lineitem,
    "table_cells_stream": q_table_cells_stream,
    "words_by_lang": q_words_by_lang,
    "text_lines": q_text_lines,
    "layout_text": q_layout_text,
    "mcid_text": q_mcid_text,
    "crop_first_line": q_crop_first_line,
    "dedupe_chars": q_dedupe_chars,
    "outline": q_outline,
    "annots": q_annots,
    "hyperlinks": q_hyperlinks,
    "ctm": q_ctm,
    "struct_bbox": q_struct_bbox,
    "repair_roundtrip": q_repair_roundtrip,
    "metadata": q_metadata,
    "words_by_font": q_words_by_font,
    "text_boxes": q_text_boxes,
    "char_colors": q_char_colors,
    "search_groups": q_search_groups,
    "word_geometry": q_word_geometry,
    "table_geometry": q_table_geometry,
    "curves": q_curves,
    "edge_census": q_edge_census,

    # span/media analytics over the interleaved payload
    "caption_mining": q_caption_mining,
    "span_pack": q_span_pack,
    "media_ref_integrity": q_media_ref_integrity,
    "span_kind_transitions": q_span_kind_transitions,
    "media_density": q_media_density,
    "span_offset_audit": q_span_offset_audit,
    "kind_runlengths": q_kind_runlengths,
    "phash_dedup": q_phash_dedup,
    "media_decode": q_media_decode,
    "frame_sample": q_frame_sample,
    "main_content": q_main_content,
    "media_features": q_media_features,
    "media_resize": q_media_resize,

    # LLM-corpus ops over documents/embeddings
    "kmv_intersection": q_kmv_intersection,
    "rare_token_pairs": q_rare_token_pairs,
    "bottomk_sample": q_bottomk_sample,
    "bow_dedup": q_bow_dedup,
    "hard_negatives": q_hard_negatives,
    "dedup_modality_agreement": q_dedup_modality_agreement,
    "quantile_map": q_quantile_map,
    "effective_sample_size": q_effective_sample_size,
    "feature_hashing": q_feature_hashing,
    "cdc_families": q_cdc_families,
    "gini_stump": q_gini_stump,
    "dup_edit_audit": q_dup_edit_audit,
    "phonetic_keys": q_phonetic_keys,
    "cdc_chunks": q_cdc_chunks,
    "poisson_bootstrap": q_poisson_bootstrap,
    "rand_projection": q_rand_projection,
    "encoding_size_audit": q_encoding_size_audit,
    "freq_of_freqs": q_freq_of_freqs,
    "oov_rate": q_oov_rate,
    "zonemap_prune": q_zonemap_prune,
    "vocab_drift": q_vocab_drift,
    "edit_distance_join": q_edit_distance_join,
    "hist_intersection": q_hist_intersection,
    "marginal_vocab": q_marginal_vocab,
    "kappa_agreement": q_kappa_agreement,
    "minimizer_sketch": q_minimizer_sketch,
    "bool_retrieval": q_bool_retrieval,
    "dim_covariance": q_dim_covariance,
    "lsh_recall_audit": q_lsh_recall_audit,
    "lang_fertility": q_lang_fertility,
    "mutual_knn": q_mutual_knn,
    "grid_cores": q_grid_cores,
    "skipgram_counts": q_skipgram_counts,
    "entity_graph": q_entity_graph,
    "cluster_inertia": q_cluster_inertia,
    "dim_variance": q_dim_variance,
    "centroid_outliers": q_centroid_outliers,
    "sampled_dup_rate": q_sampled_dup_rate,
    "effective_tokens": q_effective_tokens,
    "term_burstiness": q_term_burstiness,
    "int8_quant_error": q_int8_quant_error,
    "blocklist_hits": q_blocklist_hits,
    "semantic_decontaminate": q_semantic_decontaminate,
    "stratified_kfold": q_stratified_kfold,
    "syndication_histogram": q_syndication_histogram,
    "term_trend": q_term_trend,
    "semantic_families": q_semantic_families,
    "index_gap_stats": q_index_gap_stats,
    "dataset_card": q_dataset_card,
    "source_prefix_audit": q_source_prefix_audit,
    "fold_leakage": q_fold_leakage,
    "hash_collision_audit": q_hash_collision_audit,
    "emd_lengths": q_emd_lengths,
    "vocab_growth": q_vocab_growth,
    "shard_balance": q_shard_balance,
    "power_iter_step": q_power_iter_step,
    "prefix_filter_pairs": q_prefix_filter_pairs,
    "prefix_filter_verified": q_prefix_filter_verified,
    "snm_pairs": q_snm_pairs,
    "entity_mentions": q_entity_mentions,
    "spearman_corr": q_spearman_corr,
    "gini_concentration": q_gini_concentration,
    "sentence_stats": q_sentence_stats,
    "weighted_median": q_weighted_median,
    "lsh_bucket_stats": q_lsh_bucket_stats,
    "backoff_surprisal": q_backoff_surprisal,
    "dup_histogram": q_dup_histogram,
    "term_coverage": q_term_coverage,
    "length_buckets": q_length_buckets,
    "keyness": q_keyness,
    "bigram_surprisal": q_bigram_surprisal,
    "quota_sample": q_quota_sample,
    "chi2_assoc": q_chi2_assoc,
    "robust_scale": q_robust_scale,
    "novelty_score": q_novelty_score,
    "apportion_quota": q_apportion_quota,
    "temperature_mix": q_temperature_mix,
    "containment_dedup": q_containment_dedup,
    "token_budget_select": q_token_budget_select,
    "shuffle_shards": q_shuffle_shards,
    "surprisal": q_surprisal,
    "dedup_keep_best": q_dedup_keep_best,
    "bpe_pairs": q_bpe_pairs,
    "bm25_topk": q_bm25_topk,
    "simpson_diversity": q_simpson_diversity,
    "corpus_checksum": q_corpus_checksum,
    "winsorize": q_winsorize,
    "rank_sum": q_rank_sum,
    "pq_search": q_pq_search,
    "pq_encode": q_pq_encode,
    "doc_rank": q_doc_rank,
    "dsir_weights": q_dsir_weights,
    "rrf_fusion": q_rrf_fusion,
    "source_overlap": q_source_overlap,
    "fuzzy_join": q_fuzzy_join,
    "ks_drift": q_ks_drift,
    "kmeans": q_kmeans,
    "group_ids": q_group_ids,
    "lang_confusion": q_lang_confusion,
    "grouped_heavy_hitters": q_grouped_heavy_hitters,
    "length_outliers": q_length_outliers,
    "knn_graph": q_knn_graph,
    "weighted_sample": q_weighted_sample,
    "grouped_rank": q_grouped_rank,
    "postings": q_postings,
    "quality_audit": q_quality_audit,
    "jaccard_join": q_jaccard_join,
    "rare_tokens": q_rare_tokens,
    "heavy_hitters": q_heavy_hitters,
    "length_rank": q_length_rank,
    "substring_dedup": q_substring_dedup,
    "substring_runs": q_substring_runs,
    "substring_strip": q_substring_strip,
    "dataset_split": q_dataset_split,
    "tfidf_topk": q_tfidf_topk,
    "stratified_sample": q_stratified_sample,
    "normalize_text": q_normalize_text,
    "redact_pii": q_redact_pii,
    "pack_sequences": q_pack_sequences,
    "curation_funnel": q_curation_funnel,
    "dedup_resolution": q_dedup_resolution,
    "decontaminate": q_decontaminate,
    "length_quantiles": q_length_quantiles,
    "dedup_exact": q_dedup_exact,
    "token_stats": q_token_stats,
    "quality": q_quality,
    "lang_id": q_lang_id,
    "fingerprint": q_fingerprint,
    "repetition_stats": q_repetition_stats,
    "chunk_windows": q_chunk_windows,
    "source_mix": q_source_mix,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "near_dup_verified": q_near_dup_verified,
    "near_dup_exact": q_near_dup_exact,
    "embedding_near_dup": lambda sf_dir: _sim_e3_pairs(
        co.embedding_near_dup_ds(_embeddings(sf_dir), threshold=0.45)
    ),
    "semantic_dedup": lambda sf_dir: _sim_e3_pairs(
        co.semantic_dedup_pairs_ds(
            _embeddings(sf_dir), n_clusters=8, threshold=0.45, max_bucket=None
        )
    ),
    "embedding_near_dup_lsh": lambda sf_dir: _sim_e3_pairs(
        co.embedding_near_dup_lsh_ds(
            _embeddings(sf_dir), threshold=0.45, n_bits=6, n_tables=8, max_bucket=None
        )
    ),
    "ann_brute": q_ann_brute,
    "ann_ivf": q_ann_ivf,
    "hash_sample": lambda sf_dir: co.hash_sample_ds(
        _documents(sf_dir).select_columns(["doc_id"])
    ),
    "collocations": q_collocations,
    "centroids": q_centroids,
    "ntile": q_ntile,
}


def _sw_list(lang: str) -> str:
    return ", ".join(f"'{w}'" for w in STOPWORDS[lang])


_LANG_SCORES = ", ".join(
    f"len(list_filter(string_split(text, ' '), w -> w IN ({_sw_list(lang)}))) AS s_{lang}"
    for lang in ("en", "es", "de", "fr")
)

_ANN_SQL = """
WITH q AS (SELECT embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 1)
SELECT vec_id,
       CAST(round(list_cosine_similarity(embedding, qe) * 1000) AS BIGINT) AS sim_e3
FROM embeddings, q
ORDER BY round(list_cosine_similarity(embedding, qe), 6) DESC, vec_id
LIMIT 10
"""

ORACLES: Dict[str, str] = {
    "grouped_heavy_hitters": """
        WITH tok AS (SELECT lang, unnest(string_split(text, ' ')) AS token
                     FROM documents),
        c AS (SELECT lang, token, count(*) AS n FROM tok GROUP BY 1, 2)
        SELECT lang, token, CAST(n AS BIGINT) AS n,
               CAST(row_number() OVER (PARTITION BY lang
                                       ORDER BY n DESC, token) AS BIGINT)
                   AS rank_in_group
        FROM c QUALIFY rank_in_group <= 3
    """,
    "length_outliers": """
        SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars,
               CAST(count(*) OVER (PARTITION BY lang) AS BIGINT) AS g_n,
               CAST(sum(n_chars) OVER (PARTITION BY lang) AS BIGINT) AS g_sum,
               CAST(CASE WHEN n_chars * count(*) OVER (PARTITION BY lang)
                              > 3 * sum(n_chars) OVER (PARTITION BY lang)
                         THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
        FROM documents
    """,
    "knn_graph": """
        WITH q AS (
          SELECT vec_id,
                 list_transform(embedding,
                                x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
          FROM embeddings
        ),
        n AS (SELECT vec_id, qv,
                     sqrt(list_dot_product(qv, qv)) AS nrm FROM q),
        s AS (
          SELECT a.vec_id AS vec_id, b.vec_id AS nb,
                 list_dot_product(a.qv, b.qv) / a.nrm / b.nrm AS sim
          FROM n a JOIN n b ON a.vec_id <> b.vec_id
        ),
        r AS (SELECT vec_id, nb, sim,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY sim DESC, nb) AS rnk
              FROM s)
        SELECT vec_id, nb AS neighbor_id, CAST(rnk AS BIGINT) AS "rank",
               CAST(floor(sim * 1e6) AS BIGINT) AS sim_e6
        FROM r WHERE rnk <= 5
    """,
    "weighted_sample": """
        WITH w AS (SELECT doc_id,
                          CAST(least(n_chars, 1000) AS BIGINT) AS keep_permille,
                          ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                              % 1000 AS bucket
                   FROM documents)
        SELECT doc_id, keep_permille, CAST(bucket AS BIGINT) AS bucket
        FROM w WHERE bucket < keep_permille
    """,
    "grouped_rank": """
        SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars,
               CAST(count(*) OVER (PARTITION BY lang ORDER BY n_chars)
                    AS BIGINT) AS n_le,
               CAST(count(*) OVER (PARTITION BY lang) AS BIGINT) AS g_total,
               CAST(count(*) OVER (PARTITION BY lang ORDER BY n_chars) * 1000
                    // count(*) OVER (PARTITION BY lang) AS BIGINT) AS permille
        FROM documents
    """,
    "postings": """
        WITH td AS (SELECT DISTINCT doc_id,
                           unnest(string_split(text, ' ')) AS token
                    FROM documents)
        SELECT token, CAST(count(*) AS BIGINT) AS df,
               string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
                   AS doc_ids
        FROM td GROUP BY token
        HAVING count(*) >= 2
           AND count(*) <= (SELECT count(*) // 2 FROM documents)
    """,
    "quality_audit": """
        SELECT 'n_chars' AS col_name, 'n_rows' AS metric,
               CAST(count(*) AS BIGINT) AS value FROM documents
        UNION ALL SELECT 'text', 'n_null',
               count(*) FILTER (text IS NULL) FROM documents
        UNION ALL SELECT 'text', 'n_empty',
               count(*) FILTER (text = '') FROM documents
        UNION ALL SELECT 'n_chars', 'min_value', min(n_chars) FROM documents
        UNION ALL SELECT 'n_chars', 'max_value', max(n_chars) FROM documents
        UNION ALL SELECT 'lang', 'n_distinct',
               count(DISTINCT lang) FROM documents
        UNION ALL SELECT 'source', 'n_distinct',
               count(DISTINCT source) FROM documents
    """,
    "roundtrip_text": "SELECT doc_id, text FROM documents",
    # real-PDF goldens: generated by scripts/gen_real_goldens.py from the
    # byte-exact decode chain (pinned to reference fixtures in
    # tests/test_real_pdf.py); independent of sf_dir
    "real_layout_text": (
        "SELECT doc_id, page_number, text FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_layout_text.parquet')"
    ),
    "real_objects": (
        "SELECT doc_id, page_number, n_chars, n_rects, n_lines, n_curves, "
        "n_images, n_annots, char_geom_e3 FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_objects.parquet')"
    ),
    "real_structure": (
        "SELECT doc_id, elem_index, parent_index, depth, type, page_number, "
        "n_mcids, mcids_csv, lang, title FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_structure.parquet')"
    ),
    "real_rotation_text": (
        "SELECT page_number, text FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_rotation_text.parquet')"
    ),
    "real_tables": (
        "SELECT doc_id, page_number, table_index, row_index, col_index, cell "
        f"FROM read_parquet('{_REAL_GOLDEN_DIR}/real_tables.parquet')"
    ),
    # vertical-writing fixture golden: the generating chain is anchored by
    # hand-computed geometry asserts in tests/test_vertical_writing.py
    "vertical_text": (
        "SELECT doc_id, page_number, ordinal, text, x0_e6, top_e6, "
        "bottom_e6, size_e6, upright FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/vertical_text.parquet')"
    ),
    # raster + repair goldens: deterministic projections of the real-PDF
    # corpus (render pixels crc-pinned; repair pins page/char counts and
    # status per doc), generated by the same scripts/gen_real_goldens.py
    "page_images": (
        "SELECT doc_id, page_number, img_width, img_height, "
        "raster_crc32 FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/page_images.parquet')"
    ),
    "real_repair": (
        "SELECT doc_id, n_pages, n_chars, repair_status FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_repair.parquet')"
    ),
    "real_laparams": (
        "SELECT doc_id, page_number, h_lines, v_lines, h_boxes, v_boxes "
        f"FROM read_parquet('{_REAL_GOLDEN_DIR}/real_laparams.parquet')"
    ),
    "real_words": (
        "SELECT doc_id, page_number, n_words, first_word, last_word, "
        "geom_e3 FROM "
        f"read_parquet('{_REAL_GOLDEN_DIR}/real_words.parquet')"
    ),
    "word_count": (
        "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words "
        "FROM documents"
    ),
    "search": (
        f"SELECT doc_id, unnest(regexp_extract_all(text, '{SEARCH_PATTERN}')) AS text "
        "FROM documents"
    ),
    "table_cells_lineitem": """
        WITH b AS (
          SELECT l_orderkey,
                 ROW_NUMBER() OVER (PARTITION BY l_orderkey
                     ORDER BY l_linenumber, l_returnflag, l_linestatus) AS rn,
                 [CAST(l_linenumber AS VARCHAR), l_returnflag, l_linestatus] AS cells
          FROM lineitem)
        SELECT l_orderkey AS doc_key,
               CAST((rn - 1) * 3 + generate_subscripts(cells, 1) - 1 AS BIGINT) AS cell_index,
               unnest(cells) AS cell_text
        FROM b
    """,
    "dedup_exact": (
        "SELECT md5(text) AS content_hash, min(doc_id) AS keep_doc_id, "
        "CAST(count(*) AS BIGINT) AS n_docs FROM documents GROUP BY md5(text)"
    ),
    "token_stats": (
        "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens_ws, "
        f"CAST(len(regexp_extract_all(text, '{BPE_TOKEN_RE}')) AS BIGINT) AS n_tokens_bpe "
        "FROM documents"
    ),
    "quality": (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, "
        "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words, "
        "CAST(len(regexp_extract_all(text, '[.,;:!?''\"()\\[\\]{}-]')) AS BIGINT) AS n_punct, "
        f"CAST(len(list_filter(string_split(text, ' '), w -> w IN ({_sw_list('en')}))) AS BIGINT) AS n_stopwords_en "
        "FROM documents"
    ),
    "lang_id": f"""
        WITH s AS (SELECT doc_id, {_LANG_SCORES} FROM documents)
        SELECT doc_id,
               CASE WHEN s_en=0 AND s_es=0 AND s_de=0 AND s_fr=0 THEN 'und'
                    WHEN s_en>=s_es AND s_en>=s_de AND s_en>=s_fr THEN 'en'
                    WHEN s_es>=s_de AND s_es>=s_fr THEN 'es'
                    WHEN s_de>=s_fr THEN 'de'
                    ELSE 'fr' END AS lang_pred
        FROM s
    """,
    "ann_brute": _ANN_SQL,
    "ann_ivf": _ANN_SQL,
    "media_decode": """
        SELECT doc_id,
               'media://doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '/0' AS media_ref,
               CAST(64 + doc_id % 1024 AS BIGINT) AS width,
               CAST(64 + (doc_id * 7) % 1024 AS BIGINT) AS height,
               CAST(1 + doc_id % 30 AS BIGINT) AS n_frames,
               CAST(11 + ((64 + doc_id % 1024) * (64 + (doc_id * 7) % 1024)) // 64 AS BIGINT) AS n_bytes
        FROM documents
    """,
    "frame_sample": (
        "SELECT doc_id, CAST(unnest(range(0, 1 + doc_id % 30, 5)) AS BIGINT) AS frame_index "
        "FROM documents"
    ),
    "table_cells_stream": """
        WITH big AS (
          SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING count(*) >= 3),
        b AS (
          SELECT l.l_orderkey,
                 ROW_NUMBER() OVER (PARTITION BY l.l_orderkey
                     ORDER BY l_linenumber, l_returnflag, l_linestatus) AS rn,
                 [CAST(l_linenumber AS VARCHAR), l_returnflag, l_linestatus] AS cells
          FROM lineitem l JOIN big USING (l_orderkey))
        SELECT l_orderkey AS doc_key,
               CAST((rn - 1) * 3 + generate_subscripts(cells, 1) - 1 AS BIGINT) AS cell_index,
               unnest(cells) AS cell_text
        FROM b
    """,
    "words_by_lang": (
        "SELECT lang, CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS n_words "
        "FROM documents GROUP BY lang"
    ),
    "embedding_near_dup": """
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               CAST(round(round(list_cosine_similarity(a.embedding, b.embedding), 6) * 1000)
                    AS BIGINT) AS sim_e3
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE round(list_cosine_similarity(a.embedding, b.embedding), 6) >= 0.45
    """,
    # MinHash/SimHash LSH twins: every hash in the engine is md5-derived
    # (textstats.md5_u64), so DuckDB reproduces signatures, band keys and
    # bucket membership bit-exactly — these are full value oracles for the
    # banding paths, not just the verified subsets.
    "length_quantiles": """
        WITH counts AS (SELECT lang, n_chars AS v, count(*) AS n
                        FROM documents GROUP BY 1, 2),
        tot AS (SELECT lang, sum(n) AS N FROM counts GROUP BY 1),
        cum AS (SELECT lang, v,
                  sum(n) OVER (PARTITION BY lang ORDER BY v) AS c
                FROM counts),
        qs(q_e2) AS (VALUES (25), (50), (75), (95)),
        pick AS (SELECT c.lang, q.q_e2, min(c.v) AS value
                 FROM cum c JOIN tot t USING (lang) CROSS JOIN qs q
                 WHERE c.c >= CAST(ceil(q.q_e2 / 100.0 * t.N) AS BIGINT)
                 GROUP BY c.lang, q.q_e2)
        SELECT lang, CAST(q_e2 AS BIGINT) AS q_e2,
               CAST(value AS BIGINT) AS value
        FROM pick
    """,
    "decontaminate": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS h
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        e AS (SELECT DISTINCT h FROM x WHERE doc_id % 20 = 0),
        tr AS (SELECT doc_id, h FROM x WHERE doc_id % 20 <> 0),
        hits AS (SELECT tr.doc_id, count(*) AS gram_hits
                 FROM tr JOIN e USING (h) GROUP BY tr.doc_id)
        SELECT d.doc_id,
               CAST(coalesce(h.gram_hits, 0) AS BIGINT) AS gram_hits,
               CAST(CASE WHEN coalesce(h.gram_hits, 0) > 0
                         THEN 1 ELSE 0 END AS BIGINT) AS contaminated
        FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
        WHERE d.doc_id % 20 <> 0
    """,
    "minhash_pairs": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS x
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        p AS (SELECT j,
                (('0x' || substr(md5('a1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693950) + 1 AS a,
                ('0x' || substr(md5('b1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693951 AS b
              FROM range(64) r(j)),
        s AS (SELECT doc_id, j,
                min((a::HUGEINT * x + b) % 2305843009213693951) AS v
              FROM x CROSS JOIN p GROUP BY doc_id, j),
        bk AS (SELECT doc_id,
                 substr(md5('band:' || (j // 4) || ':'
                            || string_agg(v::VARCHAR, '-' ORDER BY j)), 1, 16)
                   AS band_key
               FROM s GROUP BY doc_id, (j // 4)),
        c AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM bk a JOIN bk b
                ON a.band_key = b.band_key AND a.doc_id < b.doc_id),
        e AS (SELECT c.doc_a, c.doc_b,
                avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS est_jaccard
              FROM c JOIN s sa ON sa.doc_id = c.doc_a
                    JOIN s sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
              GROUP BY c.doc_a, c.doc_b)
        SELECT doc_a, doc_b, est_jaccard FROM e WHERE est_jaccard >= 0.5
    """,
    "simhash_pairs": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        h AS (SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS hv
              FROM (SELECT doc_id, unnest(l) AS w FROM t)),
        bits AS (SELECT doc_id, i,
                   sum(((hv >> i) & 1)::BIGINT) AS ones, count(*) AS n
                 FROM h, range(64) r(i) GROUP BY doc_id, i),
        sig AS (SELECT doc_id,
                  sum(CASE WHEN 2 * ones - n > 0
                           THEN (1::UBIGINT << i)::HUGEINT ELSE 0 END)::UBIGINT AS v
                FROM bits GROUP BY doc_id),
        bkt AS (SELECT doc_id, v, c, ((v >> (16 * c)) & 65535) AS chunk
                FROM sig, range(4) r(c)),
        cand AS (SELECT DISTINCT a.doc_id AS doc_a, a.v AS va,
                                 b.doc_id AS doc_b, b.v AS vb
                 FROM bkt a JOIN bkt b
                   ON a.c = b.c AND a.chunk = b.chunk AND a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, CAST(bit_count(xor(va, vb)) AS BIGINT) AS hamming
        FROM cand WHERE bit_count(xor(va, vb)) <= 3
    """,
    "near_dup_verified": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS x
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        p AS (SELECT j,
                (('0x' || substr(md5('a1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693950) + 1 AS a,
                ('0x' || substr(md5('b1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693951 AS b
              FROM range(64) r(j)),
        s AS (SELECT doc_id, j,
                min((a::HUGEINT * x + b) % 2305843009213693951) AS v
              FROM x CROSS JOIN p GROUP BY doc_id, j),
        bk AS (SELECT doc_id,
                 substr(md5('band:' || (j // 4) || ':'
                            || string_agg(v::VARCHAR, '-' ORDER BY j)), 1, 16)
                   AS band_key
               FROM s GROUP BY doc_id, (j // 4)),
        c AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM bk a JOIN bk b
                ON a.band_key = b.band_key AND a.doc_id < b.doc_id),
        e AS (SELECT c.doc_a, c.doc_b,
                avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS est_jaccard
              FROM c JOIN s sa ON sa.doc_id = c.doc_a
                    JOIN s sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
              GROUP BY c.doc_a, c.doc_b),
        cand AS (SELECT doc_a, doc_b, est_jaccard FROM e
                 WHERE est_jaccard >= 0.35),
        jac AS (SELECT cand.doc_a, cand.doc_b, cand.est_jaccard,
                       len(list_intersect(ga.sh, gb.sh)) AS inter,
                       len(ga.sh) + len(gb.sh) AS tot
                FROM cand JOIN g ga ON ga.doc_id = cand.doc_a
                          JOIN g gb ON gb.doc_id = cand.doc_b)
        SELECT doc_a, doc_b, est_jaccard,
               inter * 1.0 / (tot - inter) AS jaccard
        FROM jac WHERE inter * 1.0 / (tot - inter) >= 0.5
    """,
    "dim_covariance": """
        WITH q AS (
          SELECT vec_id, list_transform(embedding,
                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6) AS BIGINT)) AS qv
          FROM embeddings),
        u AS (SELECT vec_id, generate_subscripts(qv, 1) AS dim, unnest(qv) AS comp
              FROM q)
        SELECT CAST(a.dim AS BIGINT) AS dim_i, CAST(b.dim AS BIGINT) AS dim_j,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(a.comp) AS BIGINT) AS s_i,
               CAST(sum(b.comp) AS BIGINT) AS s_j,
               CAST(sum(a.comp * b.comp) AS BIGINT) AS s_ij
        FROM u a JOIN u b ON a.vec_id = b.vec_id AND a.dim <= b.dim
        GROUP BY a.dim, b.dim
    """,
    "lsh_recall_audit": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS x
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        p AS (SELECT j,
                (('0x' || substr(md5('a1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693950) + 1 AS a,
                ('0x' || substr(md5('b1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693951 AS b
              FROM range(64) r(j)),
        s AS (SELECT doc_id, j,
                min((a::HUGEINT * x + b) % 2305843009213693951) AS v
              FROM x CROSS JOIN p GROUP BY doc_id, j),
        bk AS (SELECT doc_id,
                 substr(md5('band:' || (j // 4) || ':'
                            || string_agg(v::VARCHAR, '-' ORDER BY j)), 1, 16)
                   AS band_key
               FROM s GROUP BY doc_id, (j // 4)),
        c AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM bk a JOIN bk b
                ON a.band_key = b.band_key AND a.doc_id < b.doc_id),
        e AS (SELECT c.doc_a, c.doc_b,
                avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS est_jaccard
              FROM c JOIN s sa ON sa.doc_id = c.doc_a
                    JOIN s sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
              GROUP BY c.doc_a, c.doc_b),
        lsh AS (SELECT doc_a, doc_b FROM e WHERE est_jaccard >= 0.5),
        jt AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                      len(list_intersect(a.sh, b.sh)) AS inter,
                      len(a.sh) + len(b.sh) AS tot
               FROM g a JOIN g b ON a.doc_id < b.doc_id),
        truth AS (SELECT doc_a, doc_b FROM jt
                  WHERE inter * 1.0 / (tot - inter) >= 0.5)
        SELECT CAST((SELECT count(*) FROM lsh) AS BIGINT) AS n_lsh,
               CAST((SELECT count(*) FROM truth) AS BIGINT) AS n_true,
               CAST((SELECT count(*) FROM lsh JOIN truth
                     USING (doc_a, doc_b)) AS BIGINT) AS n_hits
    """,
    "lang_fertility": f"""
        SELECT lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(strlen(text)) AS BIGINT) AS n_bytes,
               CAST(sum(length(text)) AS BIGINT) AS n_chars,
               CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS n_tokens_ws,
               CAST(sum(len(regexp_extract_all(text, '{BPE_TOKEN_RE}')))
                   AS BIGINT) AS n_tokens_bpe
        FROM documents GROUP BY lang
    """,
    "emd_lengths": """
        WITH d AS (SELECT source, len(string_split(text, ' ')) AS v
                   FROM documents WHERE source IN ('src0', 'src1')),
        n AS (SELECT count(*) FILTER (WHERE source = 'src0') AS na,
                     count(*) FILTER (WHERE source = 'src1') AS nb
              FROM d),
        c0 AS (SELECT v,
                      count(*) FILTER (WHERE source = 'src0') AS fa,
                      count(*) FILTER (WHERE source = 'src1') AS fb
               FROM d GROUP BY v),
        c AS (SELECT v, sum(fa) OVER (ORDER BY v) AS ca,
                     sum(fb) OVER (ORDER BY v) AS cb,
                     lead(v) OVER (ORDER BY v) AS nxt
              FROM c0)
        SELECT CAST(n.na AS BIGINT) AS n_a, CAST(n.nb AS BIGINT) AS n_b,
               CAST(sum(CASE WHEN c.nxt IS NULL THEN 0
                             ELSE abs(c.ca * n.nb - c.cb * n.na)
                                  * (c.nxt - c.v) END) AS BIGINT) AS emd_num
        FROM c, n GROUP BY n.na, n.nb
    """,
    "fold_leakage": """
        WITH r AS (SELECT doc_id, lang,
                          row_number() OVER (
                            PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                          - 1 AS rn
                   FROM documents),
        f AS (SELECT doc_id, rn % 5 AS fold FROM r),
        dg AS (SELECT doc_id,
                      md5(array_to_string(
                          string_split(text, ' ')[1:5], ' ')) AS d
               FROM documents),
        fam AS (SELECT d, count(*) AS n, count(DISTINCT fold) AS nf
                FROM dg JOIN f USING (doc_id) GROUP BY 1)
        SELECT CAST(count(*) AS BIGINT) AS n_families,
               CAST(count(*) FILTER (WHERE n > 1) AS BIGINT)
                   AS n_multi_doc_families,
               CAST(count(*) FILTER (WHERE n > 1 AND nf > 1) AS BIGINT)
                   AS n_leaky_families,
               CAST(COALESCE(sum(n) FILTER (WHERE n > 1 AND nf > 1), 0)
                    AS BIGINT) AS n_leaky_docs
        FROM fam
    """,
    "hash_collision_audit": """
        WITH t AS (SELECT string_split(text, ' ') AS l FROM documents),
        g AS (SELECT DISTINCT
                CASE WHEN len(l) < 5 THEN array_to_string(l, ' ')
                     ELSE NULL END AS short_g,
                NULL AS long_g
              FROM t WHERE len(l) < 5 AND len(l) >= 1
              UNION
              SELECT DISTINCT NULL, array_to_string(l[i:i+4], ' ')
              FROM t, LATERAL (SELECT unnest(range(1, len(l) - 3)) AS i) s
              WHERE len(l) >= 5),
        gg AS (SELECT DISTINCT COALESCE(short_g, long_g) AS gram FROM g
               WHERE COALESCE(short_g, long_g) IS NOT NULL),
        h AS (SELECT DISTINCT
                ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS hv
              FROM gg)
        SELECT CAST((SELECT count(*) FROM gg) AS BIGINT)
                   AS n_distinct_grams,
               CAST((SELECT count(*) FROM h) AS BIGINT)
                   AS n_distinct_hashes,
               CAST((SELECT count(*) FROM gg) - (SELECT count(*) FROM h)
                    AS BIGINT) AS n_collisions
    """,
    "source_prefix_audit": """
        WITH s AS (SELECT source, min(text) AS mn, max(text) AS mx,
                          count(*) AS n_docs
                   FROM documents GROUP BY 1)
        SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
               CAST(len([i FOR i IN
                         range(1, least(length(mn), length(mx)) + 1)
                         IF substr(mn, 1, i) = substr(mx, 1, i)])
                    AS BIGINT) AS lcp_chars
        FROM s
    """,
    "dataset_card": """
        SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS n_tokens,
               CAST(sum(length(text)) AS BIGINT) AS n_chars,
               CAST(min(len(string_split(text, ' '))) AS BIGINT) AS min_tokens,
               CAST(max(len(string_split(text, ' '))) AS BIGINT) AS max_tokens,
               CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
               CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
               CAST(count(*) - count(DISTINCT md5(text)) AS BIGINT)
                   AS n_dup_docs
        FROM documents
    """,
    "index_gap_stats": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents),
        td AS (SELECT DISTINCT doc_id,
                      array_to_string(l[i:i+1], ' ') AS token
               FROM w, LATERAL (SELECT unnest(range(1, len(l))) AS i) s),
        p AS (SELECT token, doc_id,
                     lag(doc_id) OVER (PARTITION BY token
                                       ORDER BY doc_id) AS prev
              FROM td),
        g AS (SELECT token,
                     CASE WHEN prev IS NULL THEN doc_id + 1
                          ELSE doc_id - prev END AS gap
              FROM p),
        b AS (SELECT token, count(*) AS df,
                     sum((length(bin(gap)) + 6) // 7) AS bytes
              FROM g GROUP BY 1)
        SELECT CAST(df AS BIGINT) AS df,
               CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(sum(df) AS BIGINT) AS total_postings,
               CAST(sum(bytes) AS BIGINT) AS total_bytes
        FROM b WHERE df BETWEEN 2 AND 64 GROUP BY 1
    """,
    "semantic_families": """
        WITH RECURSIVE q AS (
          SELECT vec_id,
                 list_transform(embedding,
                                x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
          FROM embeddings
        ),
        n AS (SELECT vec_id, qv,
                     sqrt(list_dot_product(qv, qv)) AS nrm FROM q),
        s AS (
          SELECT a.vec_id AS vec_id, b.vec_id AS nb,
                 list_dot_product(a.qv, b.qv) / a.nrm / b.nrm AS sim
          FROM n a JOIN n b ON a.vec_id <> b.vec_id
        ),
        r AS (SELECT vec_id, nb, sim,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY sim DESC, nb) AS rnk
              FROM s),
        k AS (SELECT vec_id, nb FROM r WHERE rnk <= 5),
        m AS (SELECT a.vec_id AS x, a.nb AS y
              FROM k a JOIN k b
                ON a.vec_id = b.nb AND a.nb = b.vec_id AND a.vec_id < a.nb),
        edges AS (SELECT x AS a, y AS b FROM m UNION SELECT y, x FROM m),
        reach(a, b) AS (
          SELECT a, b FROM edges
          UNION
          SELECT r2.a, e.b FROM reach r2 JOIN edges e ON r2.b = e.a
          WHERE e.b <> r2.a),
        canon AS (
          SELECT a AS vec_id, LEAST(a, min(b)) AS family
          FROM reach GROUP BY a),
        fam AS (SELECT family, count(*) AS n_members
                FROM canon GROUP BY 1)
        SELECT CAST(c.vec_id AS BIGINT) AS vec_id,
               CAST(c.family AS BIGINT) AS family,
               CAST(f.n_members AS BIGINT) AS n_members
        FROM canon c JOIN fam f ON f.family = c.family
    """,
    "term_trend": """
        WITH n AS (SELECT count(*) AS nn FROM documents),
        w AS (SELECT CASE WHEN doc_id * 2 >= (SELECT nn FROM n)
                          THEN 1 ELSE 0 END AS half,
                     unnest(string_split(text, ' ')) AS tok
              FROM documents),
        c AS (SELECT tok AS term,
                     sum(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS c1,
                     sum(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS c2
              FROM w GROUP BY 1)
        SELECT term, CAST(c1 AS BIGINT) AS c1, CAST(c2 AS BIGINT) AS c2,
               CAST((c2 - c1) * 1000000 // (c1 + c2) AS BIGINT) AS drift_e6
        FROM c WHERE c1 + c2 >= 20
    """,
    "syndication_histogram": """
        WITH t AS (SELECT string_split(text, ' ') AS l, source
                   FROM documents),
        f AS (SELECT md5(array_to_string(l[1:5], ' ')) AS d,
                     count(DISTINCT source) AS ns, count(*) AS nd
              FROM t GROUP BY 1)
        SELECT CAST(ns AS BIGINT) AS n_sources,
               CAST(count(*) AS BIGINT) AS n_families,
               CAST(sum(nd) AS BIGINT) AS n_docs
        FROM f GROUP BY 1
    """,
    "stratified_kfold": """
        WITH r AS (
          SELECT doc_id, lang,
                 row_number() OVER (
                   PARTITION BY lang
                   ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) - 1 AS rn
          FROM documents)
        SELECT doc_id, lang AS stratum, CAST(rn % 5 AS BIGINT) AS fold
        FROM r
    """,
    "blocklist_hits": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        h AS (SELECT doc_id, len(l) AS n_tokens,
                     len(list_filter(l,
                         x -> x IN ('dup', 'hash', 'merge', 'spark'))) AS n_hits
              FROM w)
        SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(n_hits AS BIGINT) AS n_hits,
               CAST(n_hits * 1000 // greatest(n_tokens, 1) AS BIGINT)
                   AS hit_permille,
               CAST(CASE WHEN n_hits * 1000 // greatest(n_tokens, 1) >= 40
                         THEN 1 ELSE 0 END AS BIGINT) AS flagged
        FROM h
    """,
    "semantic_decontaminate": """
        WITH q AS (
          SELECT vec_id,
                 list_transform(embedding,
                                x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
          FROM embeddings
        ),
        n AS (SELECT vec_id, qv,
                     sqrt(list_dot_product(qv, qv)) AS nrm FROM q),
        s AS (
          SELECT a.vec_id AS vec_id, b.vec_id AS nb,
                 list_dot_product(a.qv, b.qv) / a.nrm / b.nrm AS sim
          FROM n a JOIN n b ON a.vec_id % 5 = 0 AND b.vec_id % 5 <> 0
        ),
        r AS (SELECT vec_id, nb, sim,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY sim DESC, nb) AS rnk
              FROM s)
        SELECT vec_id, nb AS nearest_train_id,
               CAST(floor(sim * 1e6) AS BIGINT) AS sim_e6,
               CAST(CASE WHEN floor(sim * 1e6) >= 990000
                         THEN 1 ELSE 0 END AS BIGINT) AS leaked
        FROM r WHERE rnk = 1
    """,
    "int8_quant_error": """
        WITH q AS (
          SELECT list_transform(embedding,
                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6) AS BIGINT)) AS qv
          FROM embeddings),
        u AS (SELECT generate_subscripts(qv, 1) AS dim, unnest(qv) AS comp
              FROM q),
        mx AS (SELECT dim, max(abs(comp)) AS m FROM u GROUP BY 1),
        kk AS (SELECT dim,
                      CASE WHEN m = 0 THEN 0
                           ELSE greatest(length(bin(m)) - 7, 0) END AS k
               FROM mx),
        e AS (SELECT u.dim, kk.k,
                     u.comp - (u.comp >> kk.k) * ((1::BIGINT) << kk.k) AS err
              FROM u JOIN kk ON kk.dim = u.dim)
        SELECT CAST(dim AS BIGINT) AS dim, CAST(k AS BIGINT) AS k,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(err) AS BIGINT) AS sum_err,
               CAST(max(err) AS BIGINT) AS max_err
        FROM e GROUP BY 1, 2
    """,
    "effective_tokens": """
        WITH h AS (SELECT source, md5(text) AS d,
                          len(string_split(text, ' ')) AS tok
                   FROM documents),
        f AS (SELECT d, count(*) AS fam FROM h GROUP BY 1),
        e AS (SELECT h.source, h.tok, h.tok * 1000 // f.fam AS eff
              FROM h JOIN f ON f.d = h.d)
        SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(tok) AS BIGINT) AS raw_tokens,
               CAST(sum(eff) AS BIGINT) AS effective_tokens_e3
        FROM e GROUP BY 1
    """,
    "term_burstiness": """
        WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
                   FROM documents),
        c AS (SELECT doc_id, tok, count(*) AS n FROM w GROUP BY 1, 2),
        t AS (SELECT tok AS term, sum(n) AS tf, count(*) AS df,
                     max(n) AS max_tf
              FROM c GROUP BY 1),
        r AS (SELECT term, tf, df, max_tf,
                     row_number() OVER (ORDER BY tf DESC, term) AS rnk
              FROM t)
        SELECT term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
               CAST(max_tf AS BIGINT) AS max_tf
        FROM r WHERE rnk <= 50
    """,
    "centroid_outliers": """
        WITH q AS (
          SELECT vec_id, label,
                 list_transform(embedding,
                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6) AS BIGINT)) AS qv
          FROM embeddings),
        u AS (SELECT vec_id, label, generate_subscripts(qv, 1) - 1 AS dim,
                     unnest(qv) AS comp
              FROM q),
        cnt AS (SELECT label, count(*) AS n FROM q GROUP BY 1),
        s AS (SELECT label, dim, sum(comp) AS sd FROM u GROUP BY 1, 2),
        d AS (SELECT u.vec_id, u.label,
                     sum((cnt.n * u.comp - s.sd) * (cnt.n * u.comp - s.sd))
                         AS d2n2
              FROM u JOIN s ON s.label = u.label AND s.dim = u.dim
                     JOIN cnt ON cnt.label = u.label
              GROUP BY 1, 2),
        r AS (SELECT label, vec_id, d2n2,
                     row_number() OVER (PARTITION BY label
                                        ORDER BY d2n2 DESC, vec_id) AS rnk
              FROM d)
        SELECT CAST(label AS BIGINT) AS label, CAST(vec_id AS BIGINT) AS vec_id,
               CAST(d2n2 AS BIGINT) AS d2n2, CAST(rnk AS BIGINT) AS "rank"
        FROM r WHERE rnk <= 5
    """,
    "sampled_dup_rate": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        s AS (SELECT doc_id,
          CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
               ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                   for i in range(1, len(l)-3)])
          END AS sh FROM t),
        n AS (SELECT count(*) AS nn FROM documents),
        pr AS (SELECT doc_id AS doc_a,
                      CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                           ::UBIGINT % (SELECT nn FROM n) AS BIGINT) AS doc_b
               FROM documents),
        pp AS (SELECT doc_a, doc_b FROM pr WHERE doc_a <> doc_b),
        j AS (SELECT len(list_intersect(a.sh, b.sh)) AS inter,
                     len(a.sh) + len(b.sh) AS tot
              FROM pp p JOIN s a ON a.doc_id = p.doc_a
                        JOIN s b ON b.doc_id = p.doc_b),
        je AS (SELECT inter * 1000 // greatest(tot - inter, 1) AS jac_e3 FROM j)
        SELECT CAST(jac_e3 // 100 AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(sum(jac_e3) AS BIGINT) AS jac_e3_sum
        FROM je GROUP BY 1
    """,
    "cluster_inertia": """
        WITH q AS (
          SELECT label,
                 list_transform(embedding,
                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6) AS BIGINT)) AS qv
          FROM embeddings),
        u AS (SELECT label, generate_subscripts(qv, 1) AS dim,
                     unnest(qv) AS comp
              FROM q),
        a AS (SELECT label, sum(comp * comp) AS sumsq FROM u GROUP BY 1),
        cnt AS (SELECT label, count(*) AS n_vecs FROM q GROUP BY 1),
        s AS (SELECT label, dim, sum(comp) AS sd FROM u GROUP BY 1, 2),
        b AS (SELECT label, sum(sd * sd) AS dot_sum FROM s GROUP BY 1)
        SELECT CAST(a.label AS BIGINT) AS label,
               CAST(cnt.n_vecs AS BIGINT) AS n_vecs,
               CAST(a.sumsq AS BIGINT) AS sumsq,
               CAST(b.dot_sum AS BIGINT) AS dot_sum
        FROM a JOIN b ON b.label = a.label
        JOIN cnt ON cnt.label = a.label
    """,
    "dim_variance": """
        WITH q AS (
          SELECT list_transform(embedding,
                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6) AS BIGINT)) AS qv
          FROM embeddings),
        u AS (SELECT generate_subscripts(qv, 1) AS dim, unnest(qv) AS comp
              FROM q)
        SELECT CAST(dim AS BIGINT) AS dim, CAST(count(*) AS BIGINT) AS n,
               CAST(sum(comp) AS BIGINT) AS s,
               CAST(sum(comp * comp) AS BIGINT) AS ss
        FROM u GROUP BY dim
    """,
    "skipgram_counts": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        t AS (SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS i
              FROM w),
        p AS (SELECT a.tok AS w1, b.tok AS w2
              FROM t a JOIN t b
                ON a.doc_id = b.doc_id AND b.i - a.i BETWEEN 1 AND 3)
        SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
        FROM p GROUP BY 1, 2 HAVING count(*) >= 5
    """,
    "entity_graph": """
        WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                          generate_subscripts(string_split(text, ' '), 1) AS i
                   FROM documents),
        c AS (SELECT doc_id, i, tok,
                     CASE WHEN regexp_full_match(tok, '[a-z]{6,}')
                          THEN 1 ELSE 0 END AS cap
              FROM w),
        isl AS (SELECT doc_id, i, tok, cap,
                       i - SUM(cap) OVER (PARTITION BY doc_id
                                          ORDER BY i) AS grp
                FROM c),
        e AS (SELECT doc_id, grp, string_agg(tok, ' ' ORDER BY i) AS entity
              FROM isl WHERE cap = 1 GROUP BY doc_id, grp
              HAVING count(*) >= 2),
        d AS (SELECT DISTINCT doc_id, entity FROM e),
        p AS (SELECT a.entity AS e1, b.entity AS e2
              FROM d a JOIN d b
                ON a.doc_id = b.doc_id AND a.entity < b.entity)
        SELECT e1, e2, CAST(count(*) AS BIGINT) AS n
        FROM p GROUP BY 1, 2 HAVING count(*) >= 2
    """,
    "mutual_knn": """
        WITH q AS (
          SELECT vec_id,
                 list_transform(embedding,
                                x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
          FROM embeddings
        ),
        n AS (SELECT vec_id, qv,
                     sqrt(list_dot_product(qv, qv)) AS nrm FROM q),
        s AS (
          SELECT a.vec_id AS vec_id, b.vec_id AS nb,
                 list_dot_product(a.qv, b.qv) / a.nrm / b.nrm AS sim
          FROM n a JOIN n b ON a.vec_id <> b.vec_id
        ),
        r AS (SELECT vec_id, nb, sim,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY sim DESC, nb) AS rnk
              FROM s),
        k AS (SELECT vec_id, nb, sim, rnk FROM r WHERE rnk <= 5)
        SELECT a.vec_id AS x, a.nb AS y,
               CAST(a.rnk AS BIGINT) AS rank_xy,
               CAST(b.rnk AS BIGINT) AS rank_yx,
               CAST(floor(a.sim * 1e6) AS BIGINT) AS sim_e6
        FROM k a JOIN k b
          ON a.vec_id = b.nb AND a.nb = b.vec_id AND a.vec_id < a.nb
    """,
    "grid_cores": """
        WITH q AS (
          SELECT CAST(floor(CAST(embedding[1] AS DOUBLE) * 1e6) AS BIGINT) AS q0,
                 CAST(floor(CAST(embedding[2] AS DOUBLE) * 1e6) AS BIGINT) AS q1
          FROM embeddings),
        c AS (SELECT (q0 + 1677721600000) // 100000 - 16777216 AS cx,
                     (q1 + 1677721600000) // 100000 - 16777216 AS cy,
                     count(*) AS n
              FROM q GROUP BY 1, 2),
        nb AS (SELECT c.cx + dx.i AS cx, c.cy + dy.i AS cy
               FROM c, range(-1, 2) dx(i), range(-1, 2) dy(i)
               WHERE NOT (dx.i = 0 AND dy.i = 0)),
        o AS (SELECT cx, cy, count(*) AS n_nb FROM nb GROUP BY 1, 2)
        SELECT CAST(c.cx AS BIGINT) AS cell_x, CAST(c.cy AS BIGINT) AS cell_y,
               CAST(c.n AS BIGINT) AS n_points,
               CAST(CASE WHEN c.n >= 8 THEN 1 ELSE 0 END AS BIGINT) AS is_core,
               CAST(COALESCE(o.n_nb, 0) AS BIGINT) AS n_occupied_neighbors
        FROM c LEFT JOIN o ON o.cx = c.cx AND o.cy = c.cy
    """,
    "vocab_growth": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        tok AS (SELECT DISTINCT doc_id,
                       array_to_string(list_slice(toks, i, i + 2), ' ')
                           AS token
                FROM w, LATERAL (SELECT unnest(range(1, len(toks) - 1))
                                 AS i) s),
        f AS (SELECT token, min(doc_id) AS fd FROM tok GROUP BY 1),
        nn AS (SELECT count(*) AS nd FROM documents),
        b AS (SELECT LEAST(fd * 10 // nd, 9) AS decile,
                     count(*) AS new_tokens
              FROM f, nn GROUP BY 1)
        SELECT CAST(decile AS BIGINT) AS decile,
               CAST(new_tokens AS BIGINT) AS new_tokens,
               CAST(SUM(new_tokens) OVER (ORDER BY decile)
                    AS BIGINT) AS cum_vocab
        FROM b
    """,
    "shard_balance": """
        WITH h AS (
          SELECT doc_id,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                      ::UBIGINT AS BIGINT) % 64 AS shard,
                 len(string_split(text, ' ')) AS tok
          FROM documents)
        SELECT CAST(shard AS BIGINT) AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(tok) AS BIGINT) AS token_mass,
               CAST(min(tok) AS BIGINT) AS min_tokens,
               CAST(max(tok) AS BIGINT) AS max_tokens
        FROM h GROUP BY shard
    """,
    "power_iter_step": """
        WITH e AS (SELECT list_transform(embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1000)
                                 AS BIGINT)) AS qv
                   FROM embeddings),
        s AS (SELECT qv, CAST(list_sum(qv) AS BIGINT) AS si FROM e),
        u AS (SELECT d.i AS dim, qv[d.i] * si AS contrib
              FROM s, LATERAL (SELECT unnest(range(1, len(qv) + 1)) AS i) d)
        SELECT CAST(dim AS BIGINT) AS dim,
               CAST(SUM(contrib) AS BIGINT) AS comp
        FROM u GROUP BY 1
    """,
    "prefix_filter_pairs": """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        tok AS (SELECT DISTINCT doc_id,
                       array_to_string(list_slice(toks, i, i + 3), ' ')
                           AS token
                FROM w, LATERAL (SELECT unnest(range(1, len(toks) - 2))
                                 AS i) s),
        df AS (SELECT token, count(*) AS df FROM tok GROUP BY 1),
        kk AS (SELECT doc_id, count(*) AS k FROM tok GROUP BY 1),
        r AS (SELECT t.doc_id, t.token,
                     row_number() OVER (PARTITION BY t.doc_id
                                        ORDER BY d.df, t.token) AS rk,
                     kk.k
              FROM tok t JOIN df d USING (token) JOIN kk USING (doc_id)),
        pre AS (SELECT doc_id, token FROM r
                WHERE rk <= k - (k * 800 + 999) // 1000 + 1)
        SELECT DISTINCT CAST(a.doc_id AS BIGINT) AS doc_a,
                        CAST(b.doc_id AS BIGINT) AS doc_b
        FROM pre a JOIN pre b
          ON a.token = b.token AND a.doc_id < b.doc_id
    """,
    "prefix_filter_verified": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents),
        s AS (SELECT doc_id,
                     list_distinct([array_to_string(l[i:i+3], ' ')
                                    for i in range(1, len(l) - 2)]) AS sh
              FROM t WHERE len(l) >= 4),
        p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.sh, b.sh)) AS inter,
                     len(a.sh) + len(b.sh) AS tot
              FROM s a JOIN s b ON a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, inter * 1.0 / (tot - inter) AS jaccard
        FROM p WHERE inter * 1.0 / (tot - inter) >= 0.8
    """,
    "snm_pairs": """
        WITH k AS (SELECT doc_id,
                     substr(regexp_replace(lower(text), '[^a-z0-9]', '', 'g'),
                            1, 8) AS k8
                   FROM documents),
        r AS (SELECT doc_id, k8,
                     row_number() OVER (ORDER BY k8, doc_id) AS rn
              FROM k)
        SELECT CAST(a.doc_id AS BIGINT) AS doc_a,
               CAST(b.doc_id AS BIGINT) AS doc_b,
               CAST(b.rn - a.rn AS BIGINT) AS gap,
               CAST(CASE WHEN a.k8 = b.k8 THEN 1 ELSE 0 END
                    AS BIGINT) AS same_key8
        FROM r a JOIN r b ON b.rn > a.rn AND b.rn - a.rn < 4
    """,
    "entity_mentions": """
        WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                          generate_subscripts(string_split(text, ' '), 1) AS i
                   FROM documents),
        c AS (SELECT doc_id, i, tok,
                     CASE WHEN regexp_full_match(tok, '[a-z]{6,}')
                          THEN 1 ELSE 0 END AS cap
              FROM w),
        isl AS (SELECT doc_id, i, tok, cap,
                       i - SUM(cap) OVER (PARTITION BY doc_id
                                          ORDER BY i) AS grp
                FROM c),
        e AS (SELECT doc_id, grp, string_agg(tok, ' ' ORDER BY i) AS entity
              FROM isl WHERE cap = 1 GROUP BY doc_id, grp
              HAVING count(*) >= 2),
        g AS (SELECT entity, CAST(count(*) AS BIGINT) AS n
              FROM e GROUP BY entity)
        SELECT entity, n FROM g ORDER BY n DESC, entity ASC LIMIT 50
    """,
    "spearman_corr": """
        WITH b AS (SELECT n_chars AS x,
                          len(string_split(text, ' ')) AS y
                   FROM documents),
        r AS (SELECT
                2 * RANK() OVER (ORDER BY x)
                  + COUNT(*) OVER (PARTITION BY x) - 1 AS r2x,
                2 * RANK() OVER (ORDER BY y)
                  + COUNT(*) OVER (PARTITION BY y) - 1 AS r2y
              FROM b)
        SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(COUNT(*) * SUM(r2x * r2y) - SUM(r2x) * SUM(r2y)
                    AS BIGINT) AS num,
               CAST(COUNT(*) * SUM(r2x * r2x) - SUM(r2x) * SUM(r2x)
                    AS BIGINT) AS denx,
               CAST(COUNT(*) * SUM(r2y * r2y) - SUM(r2y) * SUM(r2y)
                    AS BIGINT) AS deny
        FROM r
    """,
    "gini_concentration": """
        WITH b AS (SELECT len(string_split(text, ' ')) AS x
                   FROM documents),
        r AS (SELECT x, row_number() OVER (ORDER BY x) AS i,
                     COUNT(*) OVER () AS n
              FROM b)
        SELECT CAST(n AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS total,
               CAST(SUM((2 * i - n - 1) * x) AS BIGINT) AS gini_num
        FROM r GROUP BY n
    """,
    "sentence_stats": """
        WITH s AS (SELECT doc_id,
                          trim(unnest(regexp_split_to_array(text, '[.!?]+')),
                               ' ') AS seg
                   FROM documents),
        ne AS (SELECT doc_id,
                      len(string_split(seg, ' ')) AS tok
               FROM s WHERE seg <> '')
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_sentences,
               CAST(max(tok) AS BIGINT) AS max_sent_tokens,
               CAST(sum(tok) AS BIGINT) AS sum_sent_tokens
        FROM ne GROUP BY doc_id
    """,
    "weighted_median": """
        WITH t AS (SELECT CAST(n_chars AS BIGINT) AS v,
                          CAST(len(string_split(text, ' ')) AS BIGINT) AS wt
                   FROM documents),
        cd AS (SELECT v, count(*) AS c, SUM(wt) AS wt FROM t GROUP BY v),
        cum AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum_c,
                       SUM(wt) OVER (ORDER BY v) AS cum_w FROM cd),
        tot AS (SELECT SUM(c) AS n, SUM(wt) AS s FROM cd)
        SELECT CAST((SELECT MIN(v) FROM cum
                     WHERE cum_w >= (tot.s + 1) // 2) AS BIGINT) AS wmedian,
               CAST(tot.s AS BIGINT) AS total_weight,
               CAST((SELECT MIN(v) FROM cum
                     WHERE cum_c >= (50 * tot.n + 99) // 100)
                    AS BIGINT) AS plain_median,
               CAST(tot.n AS BIGINT) AS n_docs
        FROM tot
    """,
    "lsh_bucket_stats": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS x
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        p AS (SELECT j,
                (('0x' || substr(md5('a1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693950) + 1 AS a,
                ('0x' || substr(md5('b1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693951 AS b
              FROM range(64) r(j)),
        s AS (SELECT doc_id, j,
                min((a::HUGEINT * x + b) % 2305843009213693951) AS v
              FROM x CROSS JOIN p GROUP BY doc_id, j),
        bk AS (SELECT doc_id,
                 substr(md5('band:' || (j // 4) || ':'
                            || string_agg(v::VARCHAR, '-' ORDER BY j)), 1, 16)
                   AS band_key
               FROM s GROUP BY doc_id, (j // 4)),
        sz AS (SELECT band_key, count(*) AS sz FROM bk GROUP BY band_key)
        SELECT CAST(sz AS BIGINT) AS bucket_size,
               CAST(count(*) AS BIGINT) AS n_buckets,
               CAST(sz * count(*) AS BIGINT) AS n_entries
        FROM sz GROUP BY sz
    """,
    "backoff_surprisal": """
        WITH tr AS (SELECT string_split(text, ' ') AS l
                    FROM documents WHERE doc_id % 2 = 0),
        uc AS (SELECT w, count(*) AS c1
               FROM (SELECT unnest(l) AS w FROM tr) GROUP BY w),
        tt AS (SELECT count(*) AS t
               FROM (SELECT unnest(l) AS w FROM tr)),
        bc AS (SELECT b, count(*) AS c2
               FROM (SELECT unnest([l[i] || ' ' || l[i+1]
                                    for i in range(1, len(l))]) AS b
                     FROM tr WHERE len(l) >= 2) GROUP BY b),
        sc AS (SELECT doc_id, string_split(text, ' ') AS l
               FROM documents
               WHERE doc_id % 2 = 1 AND len(string_split(text, ' ')) >= 2),
        e AS (SELECT doc_id,
                     unnest([l[i] || ' ' || l[i+1]
                             for i in range(1, len(l))]) AS b
              FROM sc),
        j AS (SELECT e.doc_id,
                CASE WHEN bc.b IS NOT NULL
                     THEN length(printf('%b', uc.c1 // bc.c2)) - 1
                     WHEN uc.w IS NOT NULL
                     THEN 2 + length(printf('%b', tt.t // uc.c1)) - 1
                     ELSE 2 + length(printf('%b', tt.t)) - 1
                END AS bits
              FROM e LEFT JOIN bc ON bc.b = e.b
                     LEFT JOIN uc ON uc.w = string_split(e.b, ' ')[1], tt)
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_bigrams,
               CAST(sum(bits) AS BIGINT) AS backoff_bits,
               CAST(1000 * sum(bits) // count(*) AS BIGINT) AS mean_bits_e3
        FROM j GROUP BY doc_id
    """,
    "dup_histogram": """
        WITH f AS (SELECT md5(text) AS h, count(*) AS sz
                   FROM documents GROUP BY md5(text))
        SELECT CAST(sz AS BIGINT) AS family_size,
               CAST(count(*) AS BIGINT) AS n_families,
               CAST(sz * count(*) AS BIGINT) AS n_docs
        FROM f GROUP BY sz
    """,
    "term_coverage": """
        WITH c AS (SELECT w, count(*) AS c
                   FROM (SELECT unnest(string_split(text, ' ')) AS w
                         FROM documents) GROUP BY w),
        tot AS (SELECT SUM(c) AS t FROM c),
        r AS (SELECT c, row_number() OVER (ORDER BY c DESC, w ASC) AS rk
              FROM c),
        ks AS (SELECT unnest([10, 100, 1000]) AS k)
        SELECT CAST(ks.k AS BIGINT) AS k,
               CAST(SUM(r.c) AS BIGINT) AS covered,
               CAST(tot.t AS BIGINT) AS total,
               CAST(SUM(r.c) * 1000000 // tot.t AS BIGINT) AS share_ppm
        FROM ks JOIN r ON r.rk <= ks.k, tot
        GROUP BY ks.k, tot.t
    """,
    "length_buckets": """
        WITH v AS (SELECT CAST(n_chars AS BIGINT) AS L FROM documents),
        cd AS (SELECT L, count(*) AS c FROM v GROUP BY L),
        cum AS (SELECT L, SUM(c) OVER (ORDER BY L) AS cum,
                       SUM(c) OVER () AS n FROM cd),
        bnd AS (SELECT r.j,
                       MIN(CASE WHEN cum >= (r.j * n + 7) // 8 THEN L END) AS b
                FROM cum CROSS JOIN range(1, 9) r(j) GROUP BY r.j),
        a AS (SELECT v.L,
                     1 + (SELECT count(*) FROM bnd WHERE bnd.b < v.L)
                         AS bucket
              FROM v)
        SELECT CAST(bucket AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(max(L) AS BIGINT) AS max_len,
               CAST(SUM(L) AS BIGINT) AS sum_len,
               CAST(count(*) * max(L) - SUM(L) AS BIGINT) AS padding,
               CAST((count(*) * max(L) - SUM(L)) * 1000
                    // (count(*) * max(L)) AS BIGINT) AS padding_permille
        FROM a GROUP BY bucket
    """,
    "keyness": """
        WITH f AS (SELECT source, unnest(string_split(text, ' ')) AS term
                   FROM documents),
        st AS (SELECT source, term, count(*) AS c FROM f GROUP BY source, term),
        tt AS (SELECT term, SUM(c) AS ctot FROM st GROUP BY term),
        stot AS (SELECT source, SUM(c) AS ts FROM st GROUP BY source),
        tot AS (SELECT SUM(c) AS T FROM st),
        sc AS (SELECT st.source, st.term, st.c AS c_s,
                 CAST(st.c::HUGEINT * (tot.T - stot.ts) * 1000000
                      // ((tt.ctot - st.c + 1) * stot.ts) AS BIGINT) AS lift_e6
               FROM st JOIN tt USING (term) JOIN stot USING (source), tot),
        r AS (SELECT *, row_number() OVER (PARTITION BY source
                  ORDER BY lift_e6 DESC, term ASC) AS rank FROM sc)
        SELECT source, term, CAST(c_s AS BIGINT) AS c_s, lift_e6,
               CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= 5
    """,
    "bigram_surprisal": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents),
        uc AS (SELECT w, count(*) AS c1
               FROM (SELECT unnest(l) AS w FROM t) GROUP BY w),
        bg AS (SELECT doc_id,
                      [l[i] || ' ' || l[i+1] for i in range(1, len(l))] AS bs
               FROM t WHERE len(l) >= 2),
        bc AS (SELECT b, count(*) AS c2
               FROM (SELECT unnest(bs) AS b FROM bg) GROUP BY b),
        e AS (SELECT doc_id, unnest(bs) AS b FROM bg),
        j AS (SELECT e.doc_id,
                     length(printf('%b', uc.c1 // bc.c2)) - 1 AS bits
              FROM e JOIN bc ON bc.b = e.b
                     JOIN uc ON uc.w = string_split(e.b, ' ')[1])
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_bigrams,
               CAST(sum(bits) AS BIGINT) AS bigram_bits,
               CAST(1000 * sum(bits) // count(*) AS BIGINT) AS mean_bits_e3
        FROM j GROUP BY doc_id
    """,
    "quota_sample": """
        WITH g AS (SELECT source, lang, count(*) AS n
                   FROM documents GROUP BY source, lang),
        t AS (SELECT *, (SELECT SUM(n) FROM g) AS total FROM g),
        b AS (SELECT source, lang, n,
                     CAST(100 * n // total AS BIGINT) AS base,
                     (100 * n) % total AS rem FROM t),
        rr AS (SELECT *, row_number() OVER
                         (ORDER BY rem DESC, source, lang) AS rk FROM b),
        q AS (SELECT source, lang,
                     base + CASE WHEN rk <= 100 - (SELECT SUM(base) FROM b)
                                 THEN 1 ELSE 0 END AS quota
              FROM rr),
        r AS (SELECT doc_id, source, lang,
                     row_number() OVER (PARTITION BY source, lang
                         ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk
              FROM documents)
        SELECT r.source, r.lang, r.doc_id, CAST(r.rk AS BIGINT) AS rk
        FROM r JOIN q ON q.source = r.source AND q.lang = r.lang
        WHERE r.rk <= q.quota
    """,
    "chi2_assoc": """
        WITH c AS (SELECT lang, source, count(*) AS o
                   FROM documents GROUP BY lang, source),
        rt AS (SELECT lang, SUM(o) AS r FROM c GROUP BY lang),
        ct AS (SELECT source, SUM(o) AS cl FROM c GROUP BY source),
        m AS (SELECT rt.lang, ct.source, coalesce(c.o, 0) AS o,
                     rt.r, ct.cl, (SELECT SUM(o) FROM c) AS n
              FROM rt CROSS JOIN ct
              LEFT JOIN c ON c.lang = rt.lang AND c.source = ct.source)
        SELECT lang, source, CAST(o AS BIGINT) AS observed,
               CAST(r * cl * 1000 // n AS BIGINT) AS expected_e3,
               CAST(1000000::HUGEINT * (o*n - r*cl) * (o*n - r*cl)
                    // (r * cl * n) AS BIGINT) AS contrib_e6
        FROM m
    """,
    "robust_scale": """
        WITH v AS (SELECT doc_id, source, CAST(n_chars AS BIGINT) AS v
                   FROM documents),
        cd AS (SELECT source, v, count(*) AS cnt FROM v GROUP BY source, v),
        cum AS (SELECT source, v,
                       SUM(cnt) OVER (PARTITION BY source ORDER BY v) AS cum,
                       SUM(cnt) OVER (PARTITION BY source) AS n FROM cd),
        q AS (SELECT source,
                MIN(CASE WHEN cum >= (25 * n + 99) // 100 THEN v END) AS p25,
                MIN(CASE WHEN cum >= (50 * n + 99) // 100 THEN v END) AS med,
                MIN(CASE WHEN cum >= (75 * n + 99) // 100 THEN v END) AS p75
              FROM cum GROUP BY source)
        SELECT v.doc_id, v.source, v.v AS n_chars,
               CAST(q.med AS BIGINT) AS median_v,
               CAST(q.p75 - q.p25 AS BIGINT) AS iqr,
               CAST((v.v - q.med) * 1000000
                    // greatest(q.p75 - q.p25, 1) AS BIGINT) AS scaled_e6,
               CAST(CASE WHEN q.p75 - q.p25 = 0 THEN 1 ELSE 0 END
                    AS BIGINT) AS zero_iqr
        FROM v JOIN q USING (source)
    """,
    "novelty_score": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        f AS (SELECT doc_id, unnest(sh) AS s FROM g),
        w AS (SELECT s, min(doc_id) AS first_doc FROM f GROUP BY s),
        nv AS (SELECT first_doc AS doc_id, count(*) AS novel
               FROM w GROUP BY first_doc)
        SELECT g.doc_id, CAST(len(g.sh) AS BIGINT) AS n_grams,
               CAST(coalesce(nv.novel, 0) AS BIGINT) AS novel,
               CAST(coalesce(nv.novel, 0) * 1000000 // len(g.sh)
                    AS BIGINT) AS novelty_e6
        FROM g LEFT JOIN nv ON nv.doc_id = g.doc_id
    """,
    "apportion_quota": """
        WITH g AS (SELECT source, lang, count(*) AS n
                   FROM documents GROUP BY source, lang),
        t AS (SELECT *, (SELECT SUM(n) FROM g) AS total FROM g),
        b AS (SELECT source, lang, n,
                     CAST(100 * n // total AS BIGINT) AS base,
                     (100 * n) % total AS rem FROM t),
        r AS (SELECT *, row_number() OVER
                        (ORDER BY rem DESC, source, lang) AS rk FROM b)
        SELECT source, lang, CAST(n AS BIGINT) AS n_docs,
               CAST(base + CASE WHEN rk <= 100 - (SELECT SUM(base) FROM b)
                                THEN 1 ELSE 0 END AS BIGINT) AS quota
        FROM r
    """,
    "containment_dedup": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                   FROM documents WHERE text <> ''),
        g AS (SELECT doc_id,
                CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                     ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                         for i in range(1, len(l)-3)])
                END AS sh FROM t),
        x AS (SELECT DISTINCT doc_id,
                ('0x' || substr(md5(s), 1, 16))::UBIGINT AS x
              FROM (SELECT doc_id, unnest(sh) AS s FROM g)),
        p AS (SELECT j,
                (('0x' || substr(md5('a1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693950) + 1 AS a,
                ('0x' || substr(md5('b1:' || j), 1, 16))::UBIGINT
                   % 2305843009213693951 AS b
              FROM range(64) r(j)),
        s AS (SELECT doc_id, j,
                min((a::HUGEINT * x + b) % 2305843009213693951) AS v
              FROM x CROSS JOIN p GROUP BY doc_id, j),
        bk AS (SELECT doc_id,
                 substr(md5('band:' || (j // 4) || ':'
                            || string_agg(v::VARCHAR, '-' ORDER BY j)), 1, 16)
                   AS band_key
               FROM s GROUP BY doc_id, (j // 4)),
        c AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM bk a JOIN bk b
                ON a.band_key = b.band_key AND a.doc_id < b.doc_id),
        e AS (SELECT c.doc_a, c.doc_b,
                avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS est_jaccard
              FROM c JOIN s sa ON sa.doc_id = c.doc_a
                    JOIN s sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
              GROUP BY c.doc_a, c.doc_b),
        cand AS (SELECT doc_a, doc_b FROM e WHERE est_jaccard >= 0.35),
        j AS (SELECT cand.doc_a, cand.doc_b,
                     len(list_intersect(ga.sh, gb.sh)) AS inter,
                     least(len(ga.sh), len(gb.sh)) AS n_small
              FROM cand JOIN g ga ON ga.doc_id = cand.doc_a
                        JOIN g gb ON gb.doc_id = cand.doc_b)
        SELECT doc_a, doc_b, CAST(inter AS BIGINT) AS inter,
               CAST(n_small AS BIGINT) AS n_small,
               CAST(inter * 1000000 // n_small AS BIGINT) AS containment_e6
        FROM j WHERE inter * 1000000 // n_small >= 600000
    """,
    "temperature_mix": """
        WITH g AS (
          SELECT source, lang, count(*) AS n_docs,
                 CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS n_words
          FROM documents GROUP BY source, lang
        ), s AS (
          SELECT *, CAST(floor(sqrt(CAST(n_words AS DOUBLE))) AS BIGINT) AS s0
          FROM g
        ), t AS (
          SELECT source, lang, n_docs, n_words,
                 CASE WHEN (s0 + 1) * (s0 + 1) <= n_words THEN s0 + 1
                      WHEN s0 * s0 > n_words THEN s0 - 1
                      ELSE s0 END AS sqrt_words
          FROM s
        )
        SELECT source, lang, CAST(n_docs AS BIGINT) AS n_docs, n_words,
               sqrt_words,
               CAST(sqrt_words * 1000000 // (SELECT SUM(sqrt_words) FROM t)
                    AS BIGINT) AS weight_e6
        FROM t
    """,
    "token_budget_select": """
        WITH t AS (
          SELECT doc_id, CAST(n_chars AS BIGINT) AS score,
                 CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words
          FROM documents
        ), c AS (
          SELECT *, SUM(n_words) OVER (ORDER BY score DESC, doc_id ASC
               ROWS UNBOUNDED PRECEDING) AS cum_words
          FROM t
        )
        SELECT doc_id, score, n_words, CAST(cum_words AS BIGINT) AS cum_words
        FROM c
        WHERE cum_words <= (SELECT SUM(n_words) * 250 // 1000 FROM t)
    """,
    "shuffle_shards": """
        WITH h AS (
          SELECT doc_id,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                      ::UBIGINT AS BIGINT) AS h60
          FROM documents
        )
        SELECT doc_id, CAST(h60 % 64 AS BIGINT) AS shard,
               CAST(row_number() OVER (PARTITION BY h60 % 64
                    ORDER BY h60, doc_id) - 1 AS BIGINT) AS pos
        FROM h
    """,
    "semantic_dedup": """
        WITH c AS (
          SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
                 embedding AS ce
          FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
        ), a AS (
          SELECT vec_id, embedding,
                 (SELECT cid FROM c
                  ORDER BY round(list_cosine_similarity(embedding, ce), 6)
                           DESC, cid
                  LIMIT 1) AS cid
          FROM embeddings
        )
        SELECT x.vec_id AS vec_a, y.vec_id AS vec_b,
               CAST(round(round(list_cosine_similarity(x.embedding,
                    y.embedding), 6) * 1000) AS BIGINT) AS sim_e3
        FROM a x JOIN a y ON x.cid = y.cid AND x.vec_id < y.vec_id
        WHERE round(list_cosine_similarity(x.embedding, y.embedding), 6)
              >= 0.45
    """,
    "embedding_near_dup_lsh": """
        WITH d AS (SELECT max(len(embedding)) AS dim FROM embeddings),
        w AS (SELECT t, j, k,
                ((('0x' || substr(md5('hp:' || t || ':' || j || ':' || k), 1, 16))::UBIGINT
                   % 2001)::BIGINT - 1000) AS wv
              FROM range(8) tt(t), range(6) jj(j),
                   (SELECT unnest(range(0, dim)) AS k FROM d) kk),
        q AS (SELECT vec_id, k,
                CAST(floor(CAST(embedding[k + 1] AS DOUBLE) * 1000000.0 + 0.5)
                     AS BIGINT) AS qv
              FROM embeddings, (SELECT unnest(range(0, dim)) AS k FROM d) kk),
        dots AS (SELECT q.vec_id, w.t, w.j, sum(q.qv * w.wv) AS dot
                 FROM q JOIN w ON w.k = q.k GROUP BY q.vec_id, w.t, w.j),
        keys AS (SELECT vec_id, t,
                   sum(CASE WHEN dot > 0 THEN (1::BIGINT << j) ELSE 0 END) AS bkey
                 FROM dots GROUP BY vec_id, t),
        cand AS (SELECT DISTINCT a.vec_id AS va, b.vec_id AS vb
                 FROM keys a JOIN keys b
                   ON a.t = b.t AND a.bkey = b.bkey AND a.vec_id < b.vec_id)
        SELECT va AS vec_a, vb AS vec_b,
               CAST(round(round(list_cosine_similarity(ea.embedding, eb.embedding), 6)
                          * 1000) AS BIGINT) AS sim_e3
        FROM cand JOIN embeddings ea ON ea.vec_id = va
                  JOIN embeddings eb ON eb.vec_id = vb
        WHERE round(list_cosine_similarity(ea.embedding, eb.embedding), 6) >= 0.45
    """,
    "near_dup_exact": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        s AS (SELECT doc_id,
          CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
               ELSE list_distinct([array_to_string(l[i:i+4], ' ') for i in range(1, len(l)-3)])
          END AS sh FROM t),
        p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.sh, b.sh)) AS inter,
                     len(a.sh) + len(b.sh) AS tot
              FROM s a JOIN s b ON a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, inter * 1.0 / (tot - inter) AS jaccard
        FROM p WHERE inter * 1.0 / (tot - inter) >= 0.5
    """,
    "dataset_split": """
        SELECT doc_id,
               CASE WHEN b < 50 THEN 'val'
                    WHEN b < 100 THEN 'test'
                    ELSE 'train' END AS split,
               CAST(b AS BIGINT) AS bucket
        FROM (
          SELECT doc_id,
                 ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                     % 1000 AS b
          FROM documents
        )
    """,
    "substring_strip": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        g AS (
          SELECT doc_id, u.pos AS pos, u.gram AS gram FROM (
            SELECT doc_id, unnest([{'pos': i, 'gram': array_to_string(l[i:i+7], ' ')}
                                   FOR i IN range(1, len(l)-6)]) AS u
            FROM t WHERE len(l) >= 8
          )
        ),
        df AS (SELECT gram, count(DISTINCT doc_id) AS df FROM g GROUP BY 1),
        cov AS (
          SELECT DISTINCT g.doc_id, u.p
          FROM g JOIN df USING (gram), unnest(range(g.pos, g.pos + 8)) AS u(p)
          WHERE df.df >= 2
        ),
        tok AS (
          SELECT doc_id, u.p AS p, u.tok AS tok FROM (
            SELECT doc_id,
                   unnest([{'p': i, 'tok': l[i]} FOR i IN range(1, len(l) + 1)]) AS u
            FROM t
          )
        ),
        keep AS (
          SELECT tok.doc_id, tok.p, tok.tok
          FROM tok LEFT JOIN cov ON tok.doc_id = cov.doc_id AND tok.p = cov.p
          WHERE cov.p IS NULL
        )
        SELECT t.doc_id,
               COALESCE(k.clean_text, '') AS clean_text,
               CAST(len(t.l) - COALESCE(k.n_kept, 0) AS BIGINT) AS n_tokens_removed
        FROM t LEFT JOIN (
          SELECT doc_id, string_agg(tok, ' ' ORDER BY p) AS clean_text,
                 count(*) AS n_kept
          FROM keep GROUP BY doc_id
        ) k USING (doc_id)
    """,
    "substring_runs": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        g AS (
          SELECT doc_id, u.pos AS pos, u.gram AS gram FROM (
            SELECT doc_id, unnest([{'pos': i, 'gram': array_to_string(l[i:i+7], ' ')}
                                   FOR i IN range(1, len(l)-6)]) AS u
            FROM t WHERE len(l) >= 8
          )
        ),
        m AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.pos AS pa,
                 a.pos - b.pos AS delta
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
        ),
        i AS (
          SELECT doc_a, doc_b, delta, pa,
                 pa - row_number() OVER (
                   PARTITION BY doc_a, doc_b, delta ORDER BY pa
                 ) AS grp
          FROM (SELECT DISTINCT doc_a, doc_b, delta, pa FROM m)
        ),
        r AS (
          SELECT doc_a, doc_b, count(*) AS run_grams
          FROM i GROUP BY doc_a, doc_b, delta, grp
        )
        SELECT doc_a, doc_b, CAST(max(run_grams) + 7 AS BIGINT) AS max_run_tokens
        FROM r GROUP BY doc_a, doc_b
        HAVING max(run_grams) + 7 >= 15
    """,
    "tfidf_topk": """
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
        ),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
        r AS (
          SELECT tf.doc_id, tf.term, tf.tf, df.df,
                 row_number() OVER (
                   PARTITION BY tf.doc_id
                   ORDER BY tf.tf DESC, df.df ASC, tf.term ASC
                 ) AS rnk
          FROM tf JOIN df USING (term)
        )
        SELECT doc_id, term, CAST(tf AS BIGINT) AS tf,
               CAST(df AS BIGINT) AS df, CAST(rnk AS BIGINT) AS rnk
        FROM r WHERE rnk <= 5
    """,
    "jaccard_join": """
        WITH t AS (SELECT doc_id, list_distinct(string_split(text, ' ')) AS toks
                   FROM documents),
        p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.toks, b.toks)) AS inter,
                     len(a.toks) + len(b.toks)
                       - len(list_intersect(a.toks, b.toks)) AS uni
              FROM t a JOIN t b ON a.doc_id < b.doc_id
              WHERE len(a.toks) * 5 >= len(b.toks) * 4
                AND len(b.toks) * 5 >= len(a.toks) * 4)
        SELECT doc_a, doc_b, CAST(inter AS BIGINT) AS inter,
               CAST(uni AS BIGINT) AS uni,
               CAST(inter * 1000 // uni AS BIGINT) AS jac_e3
        FROM p WHERE inter * 5 >= uni * 4
    """,
    "rare_tokens": """
        WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS token
                     FROM documents),
        cnt AS (SELECT token, count(*) AS c FROM tok GROUP BY token),
        j AS (SELECT t.doc_id, CASE WHEN c.c < 3 THEN 1 ELSE 0 END AS r
              FROM tok t JOIN cnt c USING (token))
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(sum(r) AS BIGINT) AS n_rare,
               CAST(sum(r) * 1000 // count(*) AS BIGINT) AS rare_permille
        FROM j GROUP BY doc_id
    """,
    "heavy_hitters": """
        WITH tok AS (SELECT unnest(string_split(text, ' ')) AS token
                     FROM documents)
        SELECT token, CAST(count(*) AS BIGINT) AS n FROM tok
        GROUP BY token ORDER BY n DESC, token LIMIT 100
    """,
    "length_rank": """
        WITH w AS (SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                          CAST(count(*) OVER (ORDER BY n_chars) AS BIGINT) AS n_le,
                          count(*) OVER () AS total
                   FROM documents)
        SELECT doc_id, n_chars, n_le,
               CAST(n_le * 1000 // total AS BIGINT) AS permille FROM w
    """,
    "substring_dedup": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        g AS (
          SELECT doc_id, unnest(list_distinct(
              [array_to_string(l[i:i+7], ' ') FOR i IN range(1, len(l)-6)]
          )) AS gram
          FROM t WHERE len(l) >= 8
        ),
        p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
        )
        SELECT doc_a, doc_b, CAST(count(*) AS BIGINT) AS shared_grams
        FROM p GROUP BY doc_a, doc_b HAVING count(*) >= 2
    """,
    "hash_sample": (
        "SELECT doc_id FROM documents "
        "WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')"
    ),
    "text_lines": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents)
        SELECT doc_id, CAST(i // 6 AS BIGINT) AS line_index,
               string_agg(word, ' ' ORDER BY i) AS text
        FROM w GROUP BY doc_id, i // 6
    """,
    "mcid_text": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents)
        SELECT doc_id, CAST(i // 12 AS BIGINT) AS mcid,
               string_agg(word, '' ORDER BY i) AS text
        FROM w GROUP BY doc_id, i // 12
    """,
    "layout_text": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents),
        l AS (
          SELECT doc_id, i // 6 AS li, string_agg(word, ' ' ORDER BY i) AS line
          FROM w GROUP BY doc_id, i // 6)
        SELECT doc_id, CAST(li // 24 + 1 AS BIGINT) AS page_number,
               string_agg(line, chr(10) || chr(10) ORDER BY li) AS text
        FROM l GROUP BY doc_id, li // 24
    """,
    "crop_first_line": (
        "SELECT doc_id, array_to_string(string_split(text, ' ')[1:6], ' ') AS text "
        "FROM documents"
    ),
    "dedupe_chars": (
        "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words "
        "FROM documents"
    ),
    "outline": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents)
        SELECT doc_id, CAST(i // 12 AS BIGINT) AS element_index, 'P' AS type,
               string_agg(word, ' ' ORDER BY i) AS text
        FROM w GROUP BY doc_id, i // 12
    """,
    "annots": """
        SELECT doc_id, '' AS uri,
               array_to_string(list_slice(string_split(text, ' '), 1, 6), ' ') AS contents
        FROM documents WHERE text <> ''
        UNION ALL
        SELECT doc_id,
               'media://doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '/0' AS uri,
               '' AS contents
        FROM documents
    """,
    "hyperlinks": (
        "SELECT doc_id, 'media://doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') "
        "|| '/0' AS uri FROM documents"
    ),
    "ctm": """
        WITH m AS (
          SELECT doc_id,
                 CAST(doc_id % 7 AS DOUBLE) - 3 AS a,
                 CAST(doc_id % 5 AS DOUBLE) - 2 AS b,
                 CAST(doc_id % 9 AS DOUBLE) - 4 AS c,
                 CAST(doc_id % 11 AS DOUBLE) - 5 AS d,
                 doc_id % 100 AS e, doc_id % 50 AS f
          FROM documents)
        SELECT doc_id,
               CAST(round(sqrt(a*a + b*b) * 1e6) AS BIGINT) AS scale_x_e6,
               CAST(round(sqrt(c*c + d*d) * 1e6) AS BIGINT) AS scale_y_e6,
               CAST(round((degrees(atan2(d, c)) - 90) * 1e3) AS BIGINT) AS skew_x_e3,
               CAST(round(degrees(atan2(b, a)) * 1e3) AS BIGINT) AS skew_y_e3,
               CAST(e AS BIGINT) AS tx, CAST(f AS BIGINT) AS ty
        FROM m
    """,
    "struct_bbox": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents)
        SELECT doc_id, CAST(i // 12 AS BIGINT) AS mcid,
               CAST(sum(length(word)) AS BIGINT) AS n_chars
        FROM w GROUP BY doc_id, i // 12
    """,
    "main_content": "SELECT doc_id, text FROM documents",
    "repair_roundtrip": "SELECT doc_id, text FROM documents",
    "metadata": """
        SELECT doc_id,
               array_to_string(list_slice(string_split(text, ' '), 1, 6), ' ') AS title,
               -- empty text produces only the media span (string_split('')
               -- would predict a phantom text span)
               CAST(CASE WHEN text = '' THEN 1
                         ELSE ceil(len(string_split(text, ' ')) / 6.0) + 1
                    END AS BIGINT) AS n_spans,
               CAST(1 AS BIGINT) AS n_media
        FROM documents
    """,
    # body[i] = (i*31 + w + h) % 256 cycles through all 256 residues per
    # 256-block (gcd(31,256)=1): checksum = full_cycles*32640 + partial sum
    "media_features": """
        WITH m AS (
          SELECT doc_id,
                 64 + doc_id % 1024 AS w,
                 64 + (doc_id * 7) % 1024 AS h,
                 1 + doc_id % 30 AS nf,
                 (64 + doc_id % 1024) * (64 + (doc_id * 7) % 1024) // 64 AS L
          FROM documents),
        i AS (SELECT unnest(range(256)) AS i)
        SELECT m.doc_id,
               CAST(((L // 256) * 32640 +
                     sum(CASE WHEN i.i < L % 256
                              THEN (i.i * 31 + w + h) % 256 ELSE 0 END)
                    ) % 65536 AS BIGINT) AS checksum,
               CAST(w * 1000000 // 1024 AS BIGINT) AS f0_e6,
               CAST(h * 1000000 // 1024 AS BIGINT) AS f1_e6,
               CAST(nf * 1000000 // 30 AS BIGINT) AS f2_e6
        FROM m CROSS JOIN i
        GROUP BY m.doc_id, w, h, nf, L
    """,
    "words_by_font": """
        WITH c AS (
          SELECT doc_id, len(string_split(text, ' ')) AS nw
          FROM documents WHERE text <> '')
        SELECT doc_id, 'SynthMono-Bold' AS fontname,
               CAST(LEAST(nw, 6) AS BIGINT) AS n_words
        FROM c
        UNION ALL
        SELECT doc_id, 'SynthMono' AS fontname,
               CAST(nw - 6 AS BIGINT) AS n_words
        FROM c WHERE nw > 6
    """,
    "text_boxes": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents)
        SELECT doc_id, string_agg(word, ' ' ORDER BY i) AS text
        FROM w GROUP BY doc_id, i // 12
    """,
    "char_colors": """
        WITH c AS (
          SELECT doc_id,
                 length(replace(array_to_string(
                     list_slice(string_split(text, ' '), 1, 6), ' '), ' ', '')) AS head_chars,
                 length(replace(text, ' ', '')) AS all_chars
          FROM documents WHERE text <> '')
        SELECT doc_id, '0,0,0.5' AS color, CAST(head_chars AS BIGINT) AS n_chars
        FROM c WHERE head_chars > 0
        UNION ALL
        SELECT doc_id, '0,0,0' AS color, CAST(all_chars - head_chars AS BIGINT) AS n_chars
        FROM c WHERE all_chars > head_chars
    """,
    "search_groups": """
        SELECT doc_id,
               unnest(regexp_extract_all(text, 'qu([a-z]+)')) AS text,
               unnest(regexp_extract_all(text, 'qu([a-z]+)', 1)) AS g1
        FROM documents
    """,
    "word_geometry": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word,
                 generate_subscripts(string_split(text, ' '), 1) - 1 AS i
          FROM documents),
        g AS (
          SELECT doc_id, word, i, i // 6 AS c, i % 6 AS k,
                 COALESCE(sum(length(word)) OVER (
                     PARTITION BY doc_id, i // 6 ORDER BY i
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
          FROM w)
        SELECT doc_id, CAST(i AS BIGINT) AS word_index, word AS text,
               CAST(round((72 + (prev + k) * 7.25) * 1e6) AS BIGINT) AS x0_e6,
               CAST(round((72 + (prev + k + length(word) - 1) * 7.25 + 6) * 1e6)
                    AS BIGINT) AS x1_e6,
               CAST(round((72 + 2 * (c % 24) * 13) * 1e6) AS BIGINT) AS top_e6,
               CAST(round(((c // 24) * 792 + 72 + 2 * (c % 24) * 13) * 1e6)
                    AS BIGINT) AS doctop_e6
        FROM g
    """,
    # the polynomial rolling hash (h*257+byte mod 2^61-1) folded in SQL via
    # list_reduce with HUGEINT intermediates; documents are pure ASCII so
    # codepoints == utf-8 bytes
    "repetition_stats": """
        WITH toks AS (
          SELECT doc_id, string_split(text, ' ') AS t FROM documents
        ), w AS (
          SELECT doc_id, count(DISTINCT x) AS n_distinct_words
          FROM (SELECT doc_id, unnest(t) AS x FROM toks) GROUP BY doc_id
        ), bc AS (
          SELECT doc_id, x, count(*) AS c FROM (
            SELECT doc_id,
                   unnest(list_transform(generate_series(1, len(t) - 1),
                          i -> t[i] || chr(31) || t[i+1])) AS x
            FROM toks WHERE len(t) > 1
          ) GROUP BY doc_id, x
        ), bt AS (
          SELECT doc_id, max(c) AS top_bigram_n FROM bc GROUP BY doc_id
        )
        SELECT toks.doc_id,
               CAST(len(t) AS BIGINT) AS n_words,
               CAST(w.n_distinct_words AS BIGINT) AS n_distinct_words,
               CAST(greatest(len(t) - 1, 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(bt.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
        FROM toks JOIN w USING (doc_id) LEFT JOIN bt USING (doc_id)
    """,
    "chunk_windows": """
        WITH t AS (
          SELECT doc_id, string_split(text, ' ') AS toks,
                 len(string_split(text, ' ')) AS n
          FROM documents
        ), c AS (
          SELECT doc_id, toks, n,
                 unnest(generate_series(0,
                     CASE WHEN n > 64 THEN (n - 64 + 47) // 48 ELSE 0 END)) AS i
          FROM t
        )
        SELECT doc_id,
               CAST(i AS BIGINT) AS chunk_index,
               CAST(least(i * 48 + 64, n) - i * 48 AS BIGINT) AS n_tokens,
               array_to_string(list_slice(toks, i * 48 + 1,
                                          least(i * 48 + 64, n)), ' ')
                   AS chunk_text
        FROM c
    """,
    "source_mix": """
        WITH g AS (
          SELECT source, lang, count(*) AS n_docs,
                 SUM(len(string_split(text, ' '))) AS n_words
          FROM documents GROUP BY source, lang
        )
        SELECT source, lang,
               CAST(n_docs AS BIGINT) AS n_docs,
               CAST(n_words AS BIGINT) AS n_words,
               CAST(n_docs * 1000000 // (SELECT SUM(n_docs) FROM g)
                    AS BIGINT) AS weight_e6
        FROM g
    """,
    "fingerprint": """
        SELECT doc_id,
               printf('%016x', list_reduce(
                   list_prepend(CAST(0 AS BIGINT),
                       list_transform(regexp_split_to_array(text, ''),
                                      c -> CAST(ord(c) AS BIGINT))),
                   (a, b) -> CAST((CAST(a AS HUGEINT) * 257 + b)
                                  % 2305843009213693951 AS BIGINT)
               )) AS fingerprint
        FROM documents WHERE text <> ''
    """,
    "curves": (
        "SELECT doc_id, CAST(5 AS BIGINT) AS n_pts, "
        "CAST(100000000 AS BIGINT) AS width_e6 FROM documents"
    ),
    "dedup_resolution": """
        WITH RECURSIVE t AS (
          SELECT doc_id, string_split(text, ' ') AS l FROM documents),
        s AS (SELECT doc_id,
          CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
               ELSE list_distinct([array_to_string(l[i:i+4], ' ') for i in range(1, len(l)-3)])
          END AS sh FROM t),
        p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.sh, b.sh)) AS inter,
                     len(a.sh) + len(b.sh) AS tot
              FROM s a JOIN s b ON a.doc_id < b.doc_id),
        e0 AS (SELECT doc_a AS a, doc_b AS b FROM p
               WHERE inter * 1.0 / (tot - inter) >= 0.5),
        edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
        reach(a, b) AS (
          SELECT a, b FROM edges
          UNION
          SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
          WHERE e.b <> r.a),
        canon AS (
          SELECT a AS doc_id, LEAST(a, min(b)) AS canonical_id
          FROM reach GROUP BY a)
        SELECT d.doc_id, COALESCE(c.canonical_id, d.doc_id) AS canonical_id
        FROM documents d LEFT JOIN canon c USING (doc_id)
    """,
    "curation_funnel": f"""
        WITH q AS (
          SELECT doc_id, lang,
                 len(string_split(text, ' ')) AS n_words,
                 len(list_filter(string_split(text, ' '),
                                 w -> w IN ({_sw_list('en')}))) AS n_sw
          FROM documents)
        SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
        FROM q WHERE n_words BETWEEN 30 AND 90 AND n_sw >= 1
        GROUP BY lang
    """,
    "pack_sequences": """
        WITH t AS (
          SELECT doc_id, doc_id % 16 AS bucket,
                 CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
          FROM documents)
        SELECT doc_id, bucket, n_tokens,
               CAST(COALESCE(sum(n_tokens) OVER (
                   PARTITION BY bucket ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   // 512 AS BIGINT) AS bin_id
        FROM t
    """,
    "redact_pii": """
        WITH d AS (
          SELECT doc_id,
                 text || ' contact user' || doc_id || '@example.com or call 555'
                      || lpad(CAST(doc_id AS VARCHAR), 7, '0')
                      || ' see https://example.com/doc/' || doc_id || '?ref=x' AS raw
          FROM documents)
        SELECT doc_id,
               regexp_replace(
                 regexp_replace(
                   regexp_replace(raw, 'https?://[^\\s]+', '<URL>', 'g'),
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                 '\\b[0-9]{7,}\\b', '<NUM>', 'g') AS text_clean
        FROM d
    """,
    "normalize_text": """
        WITH d AS (
          SELECT doc_id,
                 chr(9) || ' ' || text || chr(7) || '  caf' || 'e' || chr(769) || ' '
                     AS raw
          FROM documents)
        SELECT doc_id,
               nfc_normalize(trim(regexp_replace(
                   regexp_replace(raw, '[\\x00-\\x1F\\x7F]', '', 'g'),
                   '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')) AS text_norm
        FROM d
    """,
    "stratified_sample": """
        WITH r AS (
          SELECT doc_id, lang,
                 ROW_NUMBER() OVER (PARTITION BY lang
                     ORDER BY md5(CAST(doc_id AS VARCHAR))) AS rk
          FROM documents)
        SELECT doc_id, lang FROM r WHERE rk <= 5
    """,
    "rect_mcids": """
        WITH b AS (
          SELECT l_orderkey,
                 ROW_NUMBER() OVER (PARTITION BY l_orderkey
                     ORDER BY l_linenumber, l_returnflag, l_linestatus) AS rn
          FROM lineitem),
        c AS (SELECT l_orderkey, rn, unnest([0, 1, 2]) AS k FROM b)
        SELECT l_orderkey AS doc_key,
               CAST((rn - 1) * 3 + k AS BIGINT) AS mcid,
               'TD' AS tag
        FROM c
    """,
    "edge_census": """
        WITH n AS (
          SELECT l_orderkey, count(*) AS nr FROM lineitem GROUP BY l_orderkey),
        p AS (
          SELECT l_orderkey, nr,
                 unnest(range(CAST(ceil(nr / 23.0) AS BIGINT))) AS pg
          FROM n),
        r AS (
          SELECT l_orderkey, pg, LEAST(nr - pg * 23, 23) AS rows_on_page FROM p)
        SELECT l_orderkey AS doc_key,
               CAST(pg + 1 AS BIGINT) AS page_number,
               CAST(12 * rows_on_page AS BIGINT) AS n_edges_raw,
               CAST(4 AS BIGINT) AS n_merged_v,
               CAST(rows_on_page + 1 AS BIGINT) AS n_merged_h,
               CAST(4 * (rows_on_page + 1) AS BIGINT) AS n_intersections,
               CAST(3 * rows_on_page AS BIGINT) AS n_cells
        FROM r
    """,
    "table_geometry": """
        WITH n AS (
          SELECT l_orderkey, count(*) AS nr FROM lineitem GROUP BY l_orderkey),
        p AS (
          SELECT l_orderkey, nr,
                 unnest(range(CAST(ceil(nr / 23.0) AS BIGINT))) AS pg
          FROM n)
        SELECT l_orderkey AS doc_key,
               CAST(pg + 1 AS BIGINT) AS page_number,
               CAST(72000000 AS BIGINT) AS x0_e6,
               CAST(72000000 AS BIGINT) AS top_e6,
               CAST(137250000 AS BIGINT) AS x1_e6,
               CAST((72 + LEAST(nr - pg * 23, 23) * 26) * 1000000 AS BIGINT) AS bottom_e6,
               CAST(LEAST(nr - pg * 23, 23) AS BIGINT) AS n_grid_rows
        FROM p
    """,
    # resized container: 11-byte header + (64*48)//64 = 48 body bytes
    "media_resize": """
        SELECT doc_id,
               CAST(64 AS BIGINT) AS width,
               CAST(48 AS BIGINT) AS height,
               CAST(1 + doc_id % 30 AS BIGINT) AS n_frames,
               CAST(59 AS BIGINT) AS n_bytes
        FROM documents
    """,
}

# Scale-path twins: identical output contract, different engine path —
# the driver gate proves the 100 TB paths against the same oracles.
ORACLES["lang_confusion"] = f"""
    WITH s AS (SELECT lang, {_LANG_SCORES} FROM documents),
    p AS (SELECT lang AS declared,
                 CASE WHEN s_en=0 AND s_es=0 AND s_de=0 AND s_fr=0 THEN 'und'
                      WHEN s_en>=s_es AND s_en>=s_de AND s_en>=s_fr THEN 'en'
                      WHEN s_es>=s_de AND s_es>=s_fr THEN 'es'
                      WHEN s_de>=s_fr THEN 'de'
                      ELSE 'fr' END AS detected
          FROM s)
    SELECT declared, detected, CAST(count(*) AS BIGINT) AS n_docs
    FROM p GROUP BY 1, 2
"""
ORACLES["ntile"] = """
    SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
           CAST(NTILE(4) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS tile
    FROM documents
"""
ORACLES["centroids"] = """
    WITH e AS (SELECT label,
                      list_transform(embedding,
                                     x -> CAST(floor(CAST(x AS DOUBLE) * 1e6)
                                               AS BIGINT)) AS qv
               FROM embeddings),
    u AS (SELECT label, i AS dim, qv[i] AS v
          FROM e, LATERAL (SELECT unnest(range(1, len(qv) + 1)) AS i))
    SELECT CAST(label AS BIGINT) AS label, dim,
           CAST(SUM(v) AS BIGINT) AS sum_e6,
           CAST(count(*) AS BIGINT) AS n_vecs
    FROM u GROUP BY 1, 2
"""
ORACLES["collocations"] = """
    WITH t AS (SELECT string_split(text, ' ') AS l FROM documents),
    b AS (SELECT l[i] AS w1, l[i+1] AS w2
          FROM t, LATERAL (SELECT unnest(range(1, len(l))) AS i)),
    p AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n_xy FROM b GROUP BY 1, 2),
    fx AS (SELECT w1, SUM(n_xy) AS n_x FROM p GROUP BY 1),
    fy AS (SELECT w2, SUM(n_xy) AS n_y FROM p GROUP BY 1),
    tot AS (SELECT SUM(n_xy) AS n FROM p)
    SELECT p.w1, p.w2, p.n_xy,
           CAST((p.n_xy * tot.n * 1000000) // (fx.n_x * fy.n_y) AS BIGINT)
               AS lift_e6
    FROM p JOIN fx ON p.w1 = fx.w1 JOIN fy ON p.w2 = fy.w2 CROSS JOIN tot
    WHERE p.n_xy >= 5
"""
ORACLES["kmeans"] = """
WITH q AS (
  SELECT vec_id, list_transform(embedding, x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
  FROM embeddings),
c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, qv FROM q ORDER BY vec_id LIMIT 8),
a1 AS (SELECT v.vec_id, c.cid,
         list_dot_product(v.qv, v.qv) + list_dot_product(c.qv, c.qv)
           - 2 * list_dot_product(v.qv, c.qv) AS dist2
       FROM q v CROSS JOIN c0 c),
m1 AS (SELECT vec_id, cid FROM (
        SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) rn
        FROM a1) WHERE rn = 1),
u1 AS (SELECT m.cid, dd.d AS d,
         floor(CAST(sum(CAST(q.qv[dd.d] AS BIGINT)) AS DOUBLE) / count(*)) AS comp
       FROM m1 m JOIN q USING (vec_id)
       CROSS JOIN (SELECT unnest(range(1, 65)) AS d) dd GROUP BY 1, 2),
g1 AS (SELECT cid, list(comp ORDER BY d) AS qv FROM u1 GROUP BY 1),
c1 AS (SELECT c0.cid, COALESCE(g1.qv, c0.qv) AS qv FROM c0 LEFT JOIN g1 USING (cid)),
a2 AS (SELECT v.vec_id, c.cid,
         list_dot_product(v.qv, v.qv) + list_dot_product(c.qv, c.qv)
           - 2 * list_dot_product(v.qv, c.qv) AS dist2
       FROM q v CROSS JOIN c1 c),
m2 AS (SELECT vec_id, cid FROM (
        SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) rn
        FROM a2) WHERE rn = 1),
u2 AS (SELECT m.cid, dd.d AS d,
         floor(CAST(sum(CAST(q.qv[dd.d] AS BIGINT)) AS DOUBLE) / count(*)) AS comp
       FROM m2 m JOIN q USING (vec_id)
       CROSS JOIN (SELECT unnest(range(1, 65)) AS d) dd GROUP BY 1, 2),
g2 AS (SELECT cid, list(comp ORDER BY d) AS qv FROM u2 GROUP BY 1),
c2 AS (SELECT c1.cid, COALESCE(g2.qv, c1.qv) AS qv FROM c1 LEFT JOIN g2 USING (cid)),
a3 AS (SELECT v.vec_id, c.cid,
         list_dot_product(v.qv, v.qv) + list_dot_product(c.qv, c.qv)
           - 2 * list_dot_product(v.qv, c.qv) AS dist2
       FROM q v CROSS JOIN c2 c),
f AS (SELECT vec_id, cid, dist2, row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) rn FROM a3)
SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(cid AS BIGINT) AS "cluster",
       CAST(dist2 AS BIGINT) AS dist2
FROM f WHERE rn = 1
"""
ORACLES["group_ids"] = """
    WITH r AS (
      SELECT lang, doc_id,
             row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn,
             count(*) OVER (PARTITION BY lang) AS n
      FROM documents)
    SELECT lang,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS ids,
           CAST(max(n) AS BIGINT) AS n_docs
    FROM r WHERE rn <= 5 GROUP BY 1
"""


def _typed_result(out: Any) -> Any:
    """Correctness-gate boundary guard: Ray 2.49's ``Dataset.to_pandas()``
    on a zero-row dataset returns a column-less DataFrame (even when the
    dataset carries a schema — e.g. via an explicit empty typed anchor
    block), which the driver's compare reads as a SCHEMA MISMATCH against
    an empty-but-typed DuckDB result. Materialize (the driver collects to
    pandas immediately anyway, so this adds no work) and, when the result
    is empty, hand back a typed empty ``pyarrow.Table`` whose
    ``to_pandas()`` keeps the columns. Non-empty results stream through
    unchanged."""
    if not isinstance(out, ray.data.Dataset):
        return out
    out = out.materialize()
    if out.count() > 0:
        return out
    sch = out.schema(fetch_if_missing=True)
    if sch is None:
        return out
    try:
        return pa.table(
            {n: pa.array([], t) for n, t in zip(sch.names, sch.types)}
        )
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, TypeError):
        return out


def _typed_query(fn: Callable[[str], Any]) -> Callable[[str], Any]:
    def wrapped(sf_dir: str) -> Any:
        return _typed_result(fn(sf_dir))

    wrapped.__name__ = getattr(fn, "__name__", "query")
    wrapped.__doc__ = fn.__doc__
    wrapped.__wrapped__ = fn
    return wrapped


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: _typed_query(fn) for name, fn in QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    return dict(ORACLES)
ORACLES["ks_drift"] = """
    WITH c AS (SELECT source, CAST(n_chars AS BIGINT) AS v, count(*) AS n
               FROM documents GROUP BY 1, 2),
    t AS (SELECT source, sum(n) AS total FROM c GROUP BY 1),
    s AS (SELECT DISTINCT source FROM c),
    v AS (SELECT DISTINCT v FROM c),
    grid AS (
      SELECT s.source, v.v, coalesce(c.n, 0) AS n
      FROM s CROSS JOIN v
      LEFT JOIN c ON c.source = s.source AND c.v = v.v),
    cum AS (SELECT source, v,
                   sum(n) OVER (PARTITION BY source ORDER BY v) AS cn
            FROM grid),
    p AS (SELECT a.v, a.source AS sa, b.source AS sb, a.cn AS ca, b.cn AS cb
          FROM cum a JOIN cum b ON a.v = b.v AND a.source < b.source)
    SELECT p.sa AS src_a, p.sb AS src_b,
           CAST(ta.total AS BIGINT) AS n_a,
           CAST(tb.total AS BIGINT) AS n_b,
           CAST(max(abs(p.ca * tb.total - p.cb * ta.total)) AS BIGINT) AS ks_num,
           CAST(max(abs(p.ca * tb.total - p.cb * ta.total)) * 1000
                // (ta.total * tb.total) AS BIGINT) AS ks_permille
    FROM p
    JOIN t ta ON ta.source = p.sa
    JOIN t tb ON tb.source = p.sb
    GROUP BY p.sa, p.sb, ta.total, tb.total
"""
ORACLES["fuzzy_join"] = """
    WITH tok AS (SELECT unnest(string_split(text, ' ')) AS token
                 FROM documents),
    cnt AS (SELECT token, count(*) AS c FROM tok GROUP BY 1),
    dict AS (SELECT token, c FROM cnt
             WHERE len(token) BETWEEN 4 AND 16),
    q0 AS (SELECT doc_id, string_split(text, ' ')[1] AS t
           FROM documents WHERE text <> ''),
    q1 AS (SELECT DISTINCT
             substr(t, 1, (doc_id % len(t)))
               || substr(t, (doc_id % len(t)) + 2) AS q
           FROM q0 WHERE len(t) >= 4)
    SELECT q1.q AS query, d.token AS suggestion,
           CAST(CASE WHEN q1.q = d.token THEN 0 ELSE 1 END AS BIGINT) AS dist,
           CAST(d.c AS BIGINT) AS sugg_n
    FROM q1 JOIN dict d
      ON abs(len(q1.q) - len(d.token)) <= 1
     AND levenshtein(q1.q, d.token) <= 1
"""
ORACLES["source_overlap"] = """
    WITH t AS (SELECT source, string_split(text, ' ') AS l
               FROM documents WHERE text <> ''),
    g AS (SELECT source,
            CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                 ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                     for i in range(1, len(l)-3)])
            END AS sh FROM t),
    x AS (SELECT DISTINCT source,
            ('0x' || substr(md5(s), 1, 16))::UBIGINT AS h
          FROM (SELECT source, unnest(sh) AS s FROM g)),
    tot AS (SELECT source, count(*) AS n FROM x GROUP BY 1),
    p AS (SELECT a.source AS sa, b.source AS sb
          FROM x a JOIN x b ON a.h = b.h AND a.source < b.source),
    sh2 AS (SELECT sa, sb, count(*) AS c FROM p GROUP BY 1, 2)
    SELECT sh2.sa AS src_a, sh2.sb AS src_b,
           CAST(sh2.c AS BIGINT) AS shared_grams,
           CAST(ta.n AS BIGINT) AS n_a,
           CAST(tb.n AS BIGINT) AS n_b
    FROM sh2
    JOIN tot ta ON ta.source = sh2.sa
    JOIN tot tb ON tb.source = sh2.sb
"""
ORACLES["rrf_fusion"] = """
    WITH m AS (SELECT doc_id, CAST(n_chars AS BIGINT) AS a,
                      CAST(len(string_split(text, ' ')) AS BIGINT) AS b
               FROM documents),
    r AS (SELECT doc_id,
            row_number() OVER (ORDER BY a DESC, doc_id) AS ra,
            row_number() OVER (ORDER BY b DESC, doc_id) AS rb
          FROM m)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(ra AS BIGINT) AS rank_a,
           CAST(rb AS BIGINT) AS rank_b,
           CAST(1000000000 // (60 + ra)
                + 1000000000 // (60 + rb) AS BIGINT) AS rrf_e9
    FROM r ORDER BY rrf_e9 DESC, doc_id LIMIT 100
"""
ORACLES["phash_dedup"] = """
    WITH d AS (SELECT doc_id,
                      64 + doc_id % 1024 AS w,
                      64 + (doc_id * 7) % 1024 AS h
               FROM documents),
    dd AS (SELECT doc_id, w, h, (w * h) // 64 AS L FROM d),
    pp AS (SELECT unnest(range(0, 64)) AS p),
    px AS (SELECT doc_id, pp.p,
             ((pp.p * (L - 1)) // 63 * 31 + w + h) % 256 AS v,
             (((pp.p + 1) * (L - 1)) // 63 * 31 + w + h) % 256 AS vn
           FROM dd CROSS JOIN pp),
    bits AS (SELECT doc_id,
               sum(CASE WHEN p % 8 < 7 AND vn > v
                   THEN (1::BIGINT << ((p // 8) * 7 + (p % 8)))
                   ELSE 0 END) AS dhash
             FROM px GROUP BY doc_id)
    SELECT CAST(dhash AS BIGINT) AS dhash,
           CAST(min(doc_id) AS BIGINT) AS keep_doc_id,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM bits GROUP BY dhash
"""
ORACLES["dsir_weights"] = """
    WITH tok AS (SELECT doc_id, lang,
                        unnest(string_split(text, ' ')) AS token
                 FROM documents WHERE text <> ''),
    f AS (SELECT doc_id, lang,
                 ('0x' || substr(md5(token), 1, 16))::UBIGINT % 1024 AS b
          FROM tok),
    cnt AS (SELECT b,
                   sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS t,
                   count(*) AS r
            FROM f GROUP BY b),
    tot AS (SELECT sum(t) AS nt, sum(r) AS nr FROM cnt),
    ratio AS (SELECT b,
                ((t + 1) * 1000000 * (nr + 1024))
                  // ((r + 1) * (nt + 1024)) AS ratio_e6
              FROM cnt CROSS JOIN tot),
    w AS (SELECT f.doc_id, count(*) AS n_tokens,
                 sum(ratio.ratio_e6) AS weight_e6
          FROM f JOIN ratio ON ratio.b = f.b GROUP BY f.doc_id)
    SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
           CAST(coalesce(w.n_tokens, 0) AS BIGINT) AS n_tokens,
           CAST(coalesce(w.weight_e6, 0) AS BIGINT) AS weight_e6
    FROM documents d LEFT JOIN w ON w.doc_id = d.doc_id
"""
ORACLES["doc_rank"] = """
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(n_chars AS BIGINT) AS n_chars,
           CAST(row_number() OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS rn
    FROM documents
"""


def _pq_oracle(m_sub: int = 4, k: int = 4, dsub: int = 16) -> str:
    """Generated per-subspace unrolled k-means CTE (1 Lloyd iteration) —
    the same construction as ORACLES['kmeans'], replicated per subspace."""

    def dist(v: str, c: str) -> str:
        return (
            f"list_dot_product({v}.qv, {v}.qv) + list_dot_product({c}.qv, {c}.qv)"
            f" - 2 * list_dot_product({v}.qv, {c}.qv)"
        )

    parts = []
    for s in range(m_sub):
        lo, hi = dsub * s + 1, dsub * (s + 1)
        parts.append(
            f"""q{s} AS (SELECT vec_id,
      list_transform(embedding[{lo}:{hi}], x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv
    FROM embeddings),
  c0_{s} AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, qv
             FROM q{s} ORDER BY vec_id LIMIT {k}),
  a1_{s} AS (SELECT v.vec_id, c.cid, {dist('v', 'c')} AS dist2
             FROM q{s} v CROSS JOIN c0_{s} c),
  m1_{s} AS (SELECT vec_id, cid FROM (
      SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) rn
      FROM a1_{s}) WHERE rn = 1),
  u1_{s} AS (SELECT m.cid, dd.d AS d,
      floor(CAST(sum(CAST(q.qv[dd.d] AS BIGINT)) AS DOUBLE) / count(*)) AS comp
    FROM m1_{s} m JOIN q{s} q USING (vec_id)
    CROSS JOIN (SELECT unnest(range(1, {dsub + 1})) AS d) dd GROUP BY 1, 2),
  g1_{s} AS (SELECT cid, list(comp ORDER BY d) AS qv FROM u1_{s} GROUP BY 1),
  c1_{s} AS (SELECT c0_{s}.cid, COALESCE(g1_{s}.qv, c0_{s}.qv) AS qv
             FROM c0_{s} LEFT JOIN g1_{s} USING (cid)),
  a2_{s} AS (SELECT v.vec_id, c.cid, {dist('v', 'c')} AS dist2
             FROM q{s} v CROSS JOIN c1_{s} c),
  f{s} AS (SELECT vec_id, cid AS code_{s}, dist2 AS e{s} FROM (
      SELECT vec_id, cid, dist2,
             row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) rn
      FROM a2_{s}) WHERE rn = 1)"""
        )
    joins = " ".join(f"JOIN f{s} USING (vec_id)" for s in range(1, m_sub))
    codes = ", ".join(
        f"CAST(code_{s} AS BIGINT) AS code_{s}" for s in range(m_sub)
    )
    errsum = " + ".join(f"e{s}" for s in range(m_sub))
    return (
        "WITH "
        + ",\n  ".join(parts)
        + f"\nSELECT CAST(f0.vec_id AS BIGINT) AS vec_id, {codes},"
        + f" CAST({errsum} AS BIGINT) AS err2\nFROM f0 {joins}"
    )


ORACLES["pq_encode"] = _pq_oracle()


def _pq_search_oracle(m_sub: int = 4, k: int = 4, dsub: int = 16, topk: int = 10) -> str:
    """ADC twin: reuse the per-subspace codebook CTEs from
    :func:`_pq_oracle`, then score every vector's assigned centroid
    against the quantized query sub-vector and take the global top-k."""
    base = _pq_oracle(m_sub, k, dsub)
    body = base[len("WITH ") : base.index("\nSELECT ")]
    qq = ",\n  ".join(
        f"""qq{s} AS (SELECT list_transform(
        (SELECT embedding FROM embeddings ORDER BY vec_id LIMIT 1)[{dsub*s+1}:{dsub*(s+1)}],
        x -> floor(CAST(x AS DOUBLE) * 1e6)) AS qv)"""
        for s in range(m_sub)
    )
    adc = " + ".join(
        f"(list_dot_product(qq{s}.qv, qq{s}.qv)"
        f" + list_dot_product(cb{s}.qv, cb{s}.qv)"
        f" - 2 * list_dot_product(qq{s}.qv, cb{s}.qv))"
        for s in range(m_sub)
    )
    joins = " ".join(
        f"JOIN f{s} USING (vec_id) JOIN c1_{s} cb{s} ON cb{s}.cid = f{s}.code_{s}"
        f" CROSS JOIN qq{s}"
        for s in range(m_sub)
    ).replace(f"JOIN f0 USING (vec_id)", "", 1)
    codes = ", ".join(f"CAST(code_{s} AS BIGINT) AS code_{s}" for s in range(m_sub))
    return (
        "WITH " + body + ",\n  " + qq
        + f"\nSELECT CAST(f0.vec_id AS BIGINT) AS vec_id, {codes},"
        + f" CAST({adc} AS BIGINT) AS adc2\nFROM f0 {joins}"
        + f"\nORDER BY adc2, f0.vec_id LIMIT {topk}"
    )


ORACLES["pq_search"] = _pq_search_oracle()
ORACLES["winsorize"] = """
    WITH n AS (SELECT count(*) AS n FROM documents),
    r AS (SELECT CAST(n_chars AS BIGINT) AS v,
                 row_number() OVER (ORDER BY n_chars) AS rn
          FROM documents),
    cut AS (SELECT v AS cutoff FROM r, n WHERE rn = (99 * n.n + 99) // 100)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(n_chars AS BIGINT) AS n_chars,
           CAST(least(n_chars, cutoff) AS BIGINT) AS clipped,
           CAST(CASE WHEN n_chars > cutoff THEN 1 ELSE 0 END AS BIGINT)
             AS was_clipped
    FROM documents, cut
"""
ORACLES["rank_sum"] = """
    WITH v AS (SELECT lang, CAST(n_chars AS BIGINT) AS v
               FROM documents WHERE lang IN ('en', 'de')),
    r AS (SELECT lang, v,
                 rank() OVER (ORDER BY v) AS rk,
                 count(*) OVER (PARTITION BY v) AS t
          FROM v),
    m AS (SELECT lang, 2 * (rk - 1) + t + 1 AS mid2 FROM r),
    s AS (SELECT
            sum(CASE WHEN lang = 'en' THEN mid2 ELSE 0 END) AS r2_a,
            sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_a,
            sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS n_b
          FROM m)
    SELECT CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
           CAST(r2_a AS BIGINT) AS r2_a,
           CAST(r2_a - n_a * (n_a + 1) AS BIGINT) AS u2_a,
           CAST(2 * n_a * n_b - (r2_a - n_a * (n_a + 1)) AS BIGINT) AS u2_b
    FROM s
"""
ORACLES["simpson_diversity"] = """
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
    ),
    tf AS (SELECT doc_id, term, count(*) AS c FROM toks GROUP BY 1, 2),
    agg AS (SELECT doc_id, sum(c) AS n, count(*) AS d, sum(c * c) AS s2
            FROM tf GROUP BY doc_id)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(n AS BIGINT) AS n_tokens,
           CAST(d AS BIGINT) AS n_distinct,
           CAST(s2 AS BIGINT) AS sum_c2,
           CAST(CASE WHEN n > 0
                THEN 1000000 - (1000000 * s2) // (n * n) ELSE 0 END
             AS BIGINT) AS simpson_e6
    FROM agg
"""
ORACLES["corpus_checksum"] = """
    WITH h AS (
      SELECT ('0x' || substr(
               md5(CAST(doc_id AS VARCHAR) || '|' || text), 1, 16
             ))::UBIGINT AS h
      FROM documents),
    m AS (SELECT h % (9223372036854775807::UBIGINT + 1::UBIGINT) AS h63
          FROM h)
    SELECT CAST(count(*) AS BIGINT) AS n_rows,
           CAST(sum(CAST(h63 AS HUGEINT))
                % 9223372036854775808::HUGEINT AS BIGINT) AS sum63,
           CAST(bit_xor(h63) AS BIGINT) AS xor63
    FROM m
"""
ORACLES["bm25_topk"] = """
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
    ),
    consts AS (
      SELECT (SELECT count(*) FROM documents) AS n,
             (SELECT count(*) // (SELECT count(*) FROM documents)
              FROM toks) AS a
    ),
    dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
    q AS (SELECT * FROM (VALUES ('hash'), ('join'), ('window'), ('stream'))
          AS t(term)),
    tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
           WHERE term IN (SELECT term FROM q) GROUP BY 1, 2),
    df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
           WHERE term IN (SELECT term FROM q) GROUP BY 1),
    scored AS (
      SELECT tf.doc_id,
             sum((1000000::HUGEINT * (2 * c.n - 2 * df.df + 1)
                  * 44 * tf.tf * c.a)
                 // ((2 * df.df + 1)
                     * (20 * tf.tf * c.a + 6 * c.a + 18 * dl.dl))
             ) AS score_e6,
             count(*) AS n_hit
      FROM tf JOIN df USING (term) JOIN dl USING (doc_id), consts c
      GROUP BY tf.doc_id)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(score_e6 AS BIGINT) AS score_e6,
           CAST(n_hit AS BIGINT) AS n_hit
    FROM scored ORDER BY score_e6 DESC, doc_id LIMIT 10
"""


ORACLES["bpe_pairs"] = """
    WITH w AS (
      SELECT unnest(string_split(text, ' ')) AS word FROM documents),
    wf AS (SELECT word, count(*) AS f FROM w GROUP BY 1),
    p AS (SELECT substr(word, CAST(g AS INT), 2) AS pair, f
          FROM wf, LATERAL unnest(range(1, length(word))) AS t(g)
          WHERE length(word) >= 2)
    SELECT pair, CAST(sum(f) AS BIGINT) AS n
    FROM p GROUP BY pair ORDER BY n DESC, pair LIMIT 50
"""
ORACLES["dedup_keep_best"] = """
    WITH RECURSIVE t AS (
      SELECT doc_id, string_split(text, ' ') AS l FROM documents),
    s AS (SELECT doc_id,
      CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
           ELSE list_distinct([array_to_string(l[i:i+4], ' ') for i in range(1, len(l)-3)])
      END AS sh FROM t),
    p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 len(list_intersect(a.sh, b.sh)) AS inter,
                 len(a.sh) + len(b.sh) AS tot
          FROM s a JOIN s b ON a.doc_id < b.doc_id),
    e0 AS (SELECT doc_a AS a, doc_b AS b FROM p
           WHERE inter * 1.0 / (tot - inter) >= 0.5),
    edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
    reach(a, b) AS (
      SELECT a, b FROM edges
      UNION
      SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
      WHERE e.b <> r.a),
    canon AS (
      SELECT a AS doc_id, LEAST(a, min(b)) AS canonical_id
      FROM reach GROUP BY a),
    lab AS (
      SELECT d.doc_id, COALESCE(c.canonical_id, d.doc_id) AS canonical_id,
             d.n_chars
      FROM documents d LEFT JOIN canon c USING (doc_id)),
    best AS (
      SELECT canonical_id, doc_id AS best_doc_id,
             row_number() OVER (PARTITION BY canonical_id
                                ORDER BY n_chars DESC, doc_id) AS rn
      FROM lab)
    SELECT CAST(l.doc_id AS BIGINT) AS doc_id,
           CAST(l.canonical_id AS BIGINT) AS canonical_id,
           CAST(b.best_doc_id AS BIGINT) AS best_doc_id,
           CAST(CASE WHEN l.doc_id = b.best_doc_id THEN 1 ELSE 0 END
             AS BIGINT) AS keep
    FROM lab l JOIN (SELECT canonical_id, best_doc_id FROM best WHERE rn = 1) b
      USING (canonical_id)
"""
ORACLES["surprisal"] = """
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
    ),
    cnt AS (SELECT term, count(*) AS c FROM toks GROUP BY 1),
    tot AS (SELECT count(*) AS t FROM toks),
    b AS (SELECT toks.doc_id,
                 length(printf('%b', tot.t // cnt.c)) - 1 AS bits
          FROM toks JOIN cnt USING (term), tot)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(count(*) AS BIGINT) AS n_tokens,
           CAST(sum(bits) AS BIGINT) AS surprisal_bits,
           CAST(1000 * sum(bits) // count(*) AS BIGINT) AS mean_bits_e3
    FROM b GROUP BY doc_id
"""
ORACLES["kappa_agreement"] = f"""
    WITH s AS (SELECT lang, {_LANG_SCORES} FROM documents),
    p AS (SELECT lang AS declared,
                 CASE WHEN s_en=0 AND s_es=0 AND s_de=0 AND s_fr=0 THEN 'und'
                      WHEN s_en>=s_es AND s_en>=s_de AND s_en>=s_fr THEN 'en'
                      WHEN s_es>=s_de AND s_es>=s_fr THEN 'es'
                      WHEN s_de>=s_fr THEN 'de'
                      ELSE 'fr' END AS detected
          FROM s),
    tot AS (SELECT CAST(count(*) AS BIGINT) AS n_total,
                   CAST(coalesce(count(*) FILTER (declared = detected), 0)
                     AS BIGINT) AS n_agree
            FROM p),
    r AS (SELECT declared AS k, CAST(count(*) AS BIGINT) AS rk FROM p GROUP BY 1),
    c AS (SELECT detected AS k, CAST(count(*) AS BIGINT) AS ck FROM p GROUP BY 1),
    pe AS (SELECT CAST(coalesce(sum(rk * ck), 0) AS BIGINT) AS pe_num
           FROM r JOIN c USING (k))
    SELECT n_total, n_agree, pe_num,
           n_total * n_agree - pe_num AS kappa_num,
           n_total * n_total - pe_num AS kappa_den
    FROM tot, pe
"""
ORACLES["minimizer_sketch"] = """
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
    tk AS (SELECT doc_id,
                  CAST(generate_subscripts(toks, 1) AS BIGINT) AS i,
                  unnest(toks) AS tok
           FROM t),
    s AS (SELECT doc_id, i,
                 ('0x' || substr(md5(tok || ' ' ||
                      lead(tok) OVER (PARTITION BY doc_id ORDER BY i)), 1, 16)
                 )::UBIGINT AS h
          FROM tk
          QUALIFY lead(tok) OVER (PARTITION BY doc_id ORDER BY i) IS NOT NULL),
    w AS (SELECT doc_id, i,
                 min(h) OVER (PARTITION BY doc_id ORDER BY i
                              ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin,
                 count(*) OVER (PARTITION BY doc_id) AS n
          FROM s),
    m AS (SELECT DISTINCT doc_id, wmin FROM w WHERE i <= greatest(n - 3, 1)),
    agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_minimizers,
                   CAST(bit_xor(CAST(wmin % 9223372036854775808 AS BIGINT))
                     AS BIGINT) AS min_xor
            FROM m GROUP BY doc_id),
    ns AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shingles
           FROM s GROUP BY doc_id)
    SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
           coalesce(ns.n_shingles, 0) AS n_shingles,
           coalesce(agg.n_minimizers, 0) AS n_minimizers,
           coalesce(agg.min_xor, 0) AS min_xor
    FROM documents d LEFT JOIN ns USING (doc_id) LEFT JOIN agg USING (doc_id)
"""
ORACLES["bool_retrieval"] = """
    WITH td AS (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
                FROM documents),
    df AS (SELECT token, count(*) AS df FROM td GROUP BY 1),
    top3 AS (SELECT token FROM df ORDER BY df DESC, token LIMIT 3)
    SELECT CAST(td.doc_id AS BIGINT) AS doc_id
    FROM td JOIN top3 USING (token)
    GROUP BY td.doc_id
    HAVING count(*) = (SELECT count(*) FROM top3)
"""
ORACLES["hist_intersection"] = """
    WITH h AS (SELECT source AS g, n_chars // 256 AS b,
                      CAST(count(*) AS BIGINT) AS c
               FROM documents GROUP BY 1, 2),
    tot AS (SELECT g, CAST(sum(c) AS BIGINT) AS n FROM h GROUP BY g),
    r AS (SELECT g, n, row_number() OVER (ORDER BY n DESC, g) AS rk FROM tot),
    i AS (SELECT CAST(coalesce(sum(least(ha.c, hb.c)), 0) AS BIGINT)
                   AS n_intersect
          FROM h ha JOIN h hb ON ha.b = hb.b
          WHERE ha.g = (SELECT g FROM r WHERE rk = 1)
            AND hb.g = (SELECT g FROM r WHERE rk = 2))
    SELECT (SELECT g FROM r WHERE rk = 1) AS source_a,
           (SELECT g FROM r WHERE rk = 2) AS source_b,
           coalesce((SELECT n FROM r WHERE rk = 1), 0) AS n_a,
           coalesce((SELECT n FROM r WHERE rk = 2), 0) AS n_b,
           i.n_intersect
    FROM i
"""


def _enc_block(c: str) -> str:
    return f"""
    SELECT '{c}' AS column_name,
           CAST(count(*) AS BIGINT) AS n,
           CAST(count(DISTINCT coalesce({c}, '')) AS BIGINT) AS n_distinct,
           CAST(coalesce(sum(strlen(coalesce({c}, ''))), 0) AS BIGINT)
             AS plain_bytes,
           CAST((SELECT coalesce(sum(strlen(v)), 0)
                 FROM (SELECT DISTINCT coalesce({c}, '') AS v FROM documents))
                + 4 * count(*) AS BIGINT) AS dict_bytes
    FROM documents"""


ORACLES["encoding_size_audit"] = (
    _enc_block("lang")
    + "\n    UNION ALL\n"
    + _enc_block("source")
    + "\n    UNION ALL\n"
    + _enc_block("text")
)
ORACLES["freq_of_freqs"] = """
    WITH tok AS (SELECT unnest(string_split(text, ' ')) AS t FROM documents),
    c AS (SELECT t, CAST(count(*) AS BIGINT) AS f FROM tok GROUP BY 1)
    SELECT CAST(length(bin(f)) AS BIGINT) AS freq_bucket,
           CAST(count(*) AS BIGINT) AS n_terms,
           CAST(sum(f) AS BIGINT) AS n_tokens
    FROM c GROUP BY 1
"""
ORACLES["oov_rate"] = """
    WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS t
                 FROM documents),
    tf AS (SELECT t, count(*) AS f FROM tok GROUP BY 1),
    vocab AS (SELECT t FROM tf ORDER BY f DESC, t LIMIT 16),
    s AS (SELECT tok.source,
                 CAST(count(*) AS BIGINT) AS n_tokens,
                 CAST(coalesce(sum(CASE WHEN vocab.t IS NULL THEN 1 END), 0)
                   AS BIGINT) AS n_oov
          FROM tok LEFT JOIN vocab ON tok.t = vocab.t
          GROUP BY tok.source)
    SELECT source, n_tokens, n_oov,
           CAST(n_oov * 1000000 // greatest(n_tokens, 1) AS BIGINT) AS oov_ppm
    FROM s
"""
ORACLES["zonemap_prune"] = """
    SELECT doc_id // 100 AS shard_id,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(min(n_chars) AS BIGINT) AS min_v,
           CAST(max(n_chars) AS BIGINT) AS max_v,
           CAST(CASE WHEN max(n_chars) < 2000 THEN 1 ELSE 0 END AS BIGINT)
             AS prunable
    FROM documents GROUP BY 1
"""


ORACLES["vocab_drift"] = """
    WITH st AS (SELECT DISTINCT source,
                       unnest(string_split(text, ' ')) AS token
                FROM documents),
    srcs AS (SELECT source, row_number() OVER (ORDER BY source) AS rk
             FROM (SELECT DISTINCT source FROM documents)),
    d AS (SELECT s.rk, CAST(count(*) AS BIGINT) AS n
          FROM st JOIN srcs s USING (source) GROUP BY 1),
    common AS (SELECT sa.rk AS rk, CAST(count(*) AS BIGINT) AS n_common
               FROM st a JOIN srcs sa ON a.source = sa.source
               JOIN st b ON b.token = a.token
               JOIN srcs sb ON b.source = sb.source AND sb.rk = sa.rk + 1
               GROUP BY 1)
    SELECT sa.source AS source_a, sb.source AS source_b,
           da.n AS n_a, db.n AS n_b,
           coalesce(c.n_common, 0) AS n_common
    FROM srcs sa JOIN srcs sb ON sb.rk = sa.rk + 1
    JOIN d da ON da.rk = sa.rk
    JOIN d db ON db.rk = sb.rk
    LEFT JOIN common c ON c.rk = sa.rk
"""
ORACLES["edit_distance_join"] = """
    WITH p AS (SELECT doc_id,
                      rpad(substr(coalesce(text, ''), 1, 36), 36, chr(1))
                        AS pfx
               FROM documents)
    SELECT CAST(a.doc_id AS BIGINT) AS doc_a,
           CAST(b.doc_id AS BIGINT) AS doc_b,
           CAST(levenshtein(a.pfx, b.pfx) AS BIGINT) AS edit_distance
    FROM p a JOIN p b ON a.doc_id < b.doc_id
    WHERE levenshtein(a.pfx, b.pfx) <= 2
"""
ORACLES["marginal_vocab"] = """
    WITH st AS (SELECT DISTINCT source,
                       unnest(string_split(text, ' ')) AS token
                FROM documents),
    own AS (SELECT token, min(source) AS owner FROM st GROUP BY token)
    SELECT st.source,
           CAST(count(*) AS BIGINT) AS n_distinct_tokens,
           CAST(coalesce(sum(CASE WHEN own.owner = st.source THEN 1 END), 0)
             AS BIGINT) AS n_owned_tokens
    FROM st JOIN own USING (token)
    GROUP BY st.source
"""
ORACLES["cdc_chunks"] = """
    WITH d AS (SELECT doc_id, text, length(text) AS L
               FROM documents WHERE length(text) >= 1),
    pos AS (SELECT doc_id, text, L, unnest(range(8, L + 1)) AS i
            FROM d WHERE L >= 8),
    cut0 AS (SELECT doc_id, text, i FROM pos WHERE
        (ascii(substr(text, i - 7, 1))::BIGINT * 27512614111
       + ascii(substr(text, i - 6, 1))::BIGINT * 887503681
       + ascii(substr(text, i - 5, 1))::BIGINT * 28629151
       + ascii(substr(text, i - 4, 1))::BIGINT * 923521
       + ascii(substr(text, i - 3, 1))::BIGINT * 29791
       + ascii(substr(text, i - 2, 1))::BIGINT * 961
       + ascii(substr(text, i - 1, 1))::BIGINT * 31
       + ascii(substr(text, i, 1))::BIGINT) % 64 = 0),
    cuts AS (SELECT DISTINCT doc_id, text, i FROM
             (SELECT doc_id, text, i FROM cut0
              UNION ALL SELECT doc_id, text, L AS i FROM d)),
    seg AS (SELECT doc_id,
              substr(text,
                     coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0) + 1,
                     i - coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0))
                AS chunk
            FROM cuts),
    agg AS (SELECT md5(chunk) AS hsh, min(length(chunk)) AS clen,
                   count(*) AS occ, count(DISTINCT doc_id) AS nd
            FROM seg GROUP BY 1)
    SELECT CAST(nd AS BIGINT) AS n_docs,
           CAST(count(*) AS BIGINT) AS n_chunks,
           CAST(sum(occ) AS BIGINT) AS occurrences,
           CAST(sum(clen) AS BIGINT) AS chunk_chars
    FROM agg GROUP BY nd
"""
ORACLES["poisson_bootstrap"] = """
    WITH x AS (
      SELECT source, n_chars, rep,
             ('0x' || substr(md5('pb|' || doc_id || '|' || rep), 1, 8))::UBIGINT AS h
      FROM documents CROSS JOIN (SELECT unnest(range(16)) AS rep)),
    w AS (SELECT source, rep, n_chars,
            CASE WHEN h < 1580030168 THEN 0
                 WHEN h < 3160060337 THEN 1
                 WHEN h < 3950075421 THEN 2
                 WHEN h < 4213413783 THEN 3
                 WHEN h < 4279248373 THEN 4
                 WHEN h < 4292415291 THEN 5
                 WHEN h < 4294609777 THEN 6
                 WHEN h < 4294923276 THEN 7
                 WHEN h < 4294962463 THEN 8
                 ELSE 9 END AS wt
          FROM x),
    g AS (SELECT source, rep, sum(wt) AS ne, sum(wt * n_chars) AS ws
          FROM w GROUP BY 1, 2 HAVING sum(wt) > 0)
    SELECT source, CAST(rep AS BIGINT) AS rep, CAST(ne AS BIGINT) AS n_eff,
           CAST(ws AS BIGINT) AS sum_chars,
           CAST(ws * 1000 // ne AS BIGINT) AS mean_chars_e3
    FROM g
"""
ORACLES["rand_projection"] = """
    WITH q AS (SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS d,
                      CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1e6) AS BIGINT)
                        AS q
               FROM embeddings),
    s AS (SELECT j, d,
            CASE WHEN ('0x' || substr(md5('rp|' || j || '|' || d), 1, 8))::UBIGINT
                      % 2 = 0
                 THEN 1 ELSE -1 END AS sgn
          FROM (SELECT unnest(range(16)) AS j)
          CROSS JOIN (SELECT DISTINCT d FROM q) u(d)),
    p AS (SELECT q.vec_id, s.j, sum(s.sgn * q.q) AS pj
          FROM q JOIN s ON s.d = q.d GROUP BY 1, 2),
    n AS (SELECT vec_id, sum(q * q) AS l2q FROM q GROUP BY 1),
    pp AS (SELECT vec_id, sum(pj * pj) AS p2 FROM p GROUP BY 1),
    pv AS (SELECT vec_id,
             sum(CASE WHEN j = 0 THEN pj END) AS proj_0,
             sum(CASE WHEN j = 1 THEN pj END) AS proj_1,
             sum(CASE WHEN j = 2 THEN pj END) AS proj_2,
             sum(CASE WHEN j = 3 THEN pj END) AS proj_3,
             sum(CASE WHEN j = 4 THEN pj END) AS proj_4,
             sum(CASE WHEN j = 5 THEN pj END) AS proj_5,
             sum(CASE WHEN j = 6 THEN pj END) AS proj_6,
             sum(CASE WHEN j = 7 THEN pj END) AS proj_7,
             sum(CASE WHEN j = 8 THEN pj END) AS proj_8,
             sum(CASE WHEN j = 9 THEN pj END) AS proj_9,
             sum(CASE WHEN j = 10 THEN pj END) AS proj_10,
             sum(CASE WHEN j = 11 THEN pj END) AS proj_11,
             sum(CASE WHEN j = 12 THEN pj END) AS proj_12,
             sum(CASE WHEN j = 13 THEN pj END) AS proj_13,
             sum(CASE WHEN j = 14 THEN pj END) AS proj_14,
             sum(CASE WHEN j = 15 THEN pj END) AS proj_15
           FROM p GROUP BY 1)
    SELECT pv.vec_id,
           CAST(proj_0 AS BIGINT) AS proj_0, CAST(proj_1 AS BIGINT) AS proj_1,
           CAST(proj_2 AS BIGINT) AS proj_2, CAST(proj_3 AS BIGINT) AS proj_3,
           CAST(proj_4 AS BIGINT) AS proj_4, CAST(proj_5 AS BIGINT) AS proj_5,
           CAST(proj_6 AS BIGINT) AS proj_6, CAST(proj_7 AS BIGINT) AS proj_7,
           CAST(proj_8 AS BIGINT) AS proj_8, CAST(proj_9 AS BIGINT) AS proj_9,
           CAST(proj_10 AS BIGINT) AS proj_10, CAST(proj_11 AS BIGINT) AS proj_11,
           CAST(proj_12 AS BIGINT) AS proj_12, CAST(proj_13 AS BIGINT) AS proj_13,
           CAST(proj_14 AS BIGINT) AS proj_14, CAST(proj_15 AS BIGINT) AS proj_15,
           CAST(n.l2q AS BIGINT) AS l2q, CAST(pp.p2 AS BIGINT) AS p2
    FROM pv JOIN n USING (vec_id) JOIN pp USING (vec_id)
"""
ORACLES["dup_edit_audit"] = """
    WITH d AS (SELECT doc_id, text FROM documents WHERE length(text) >= 24),
    r AS (SELECT doc_id, substr(text, 1, 24) AS pfx, substr(text, 1, 256) AS t,
                 row_number() OVER (PARTITION BY substr(text, 1, 24)
                                    ORDER BY doc_id) AS rn
          FROM d),
    c AS (SELECT doc_id, pfx, t FROM r WHERE rn <= 64)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(levenshtein(a.t, b.t) AS BIGINT) AS lev
    FROM c a JOIN c b ON a.pfx = b.pfx AND a.doc_id < b.doc_id
"""
ORACLES["phonetic_keys"] = """
    WITH tok AS (SELECT lower(unnest(string_split(text, ' '))) AS t
                 FROM documents),
    tf AS (SELECT t, count(*) AS c FROM tok
           WHERE len(t) BETWEEN 4 AND 16 AND regexp_full_match(t, '[a-z]+')
           GROUP BY 1),
    ch AS (SELECT t, unnest(range(1, len(t) + 1)) AS i FROM tf),
    cc AS (SELECT t, i, substr(t, i, 1) AS c FROM ch),
    f AS (SELECT t, i, c FROM cc
          WHERE i = 1 OR c NOT IN ('a', 'e', 'i', 'o', 'u')),
    g AS (SELECT t, i, c, lag(c) OVER (PARTITION BY t ORDER BY i) AS pc
          FROM f),
    k AS (SELECT t, string_agg(c, '' ORDER BY i) AS pkey
          FROM g WHERE pc IS NULL OR pc <> c GROUP BY t)
    SELECT k.pkey, CAST(count(*) AS BIGINT) AS n_tokens,
           CAST(sum(tf.c) AS BIGINT) AS n_occ,
           min(k.t) AS tok_min, max(k.t) AS tok_max
    FROM k JOIN tf ON tf.t = k.t
    GROUP BY k.pkey
"""
ORACLES["cdc_families"] = """
    WITH RECURSIVE d AS (SELECT doc_id, text, length(text) AS L
               FROM documents WHERE length(text) >= 1),
    pos AS (SELECT doc_id, text, L, unnest(range(8, L + 1)) AS i
            FROM d WHERE L >= 8),
    cut0 AS (SELECT doc_id, text, i FROM pos WHERE
        (ascii(substr(text, i - 7, 1))::BIGINT * 27512614111
       + ascii(substr(text, i - 6, 1))::BIGINT * 887503681
       + ascii(substr(text, i - 5, 1))::BIGINT * 28629151
       + ascii(substr(text, i - 4, 1))::BIGINT * 923521
       + ascii(substr(text, i - 3, 1))::BIGINT * 29791
       + ascii(substr(text, i - 2, 1))::BIGINT * 961
       + ascii(substr(text, i - 1, 1))::BIGINT * 31
       + ascii(substr(text, i, 1))::BIGINT) % 64 = 0),
    cuts AS (SELECT DISTINCT doc_id, text, i FROM
             (SELECT doc_id, text, i FROM cut0
              UNION ALL SELECT doc_id, text, L AS i FROM d)),
    seg AS (SELECT doc_id,
              substr(text,
                     coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0) + 1,
                     i - coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0))
                AS chunk
            FROM cuts),
    dc AS (SELECT DISTINCT doc_id, md5(chunk) AS hsh FROM seg
           WHERE length(chunk) >= 16),
    ok AS (SELECT hsh FROM dc GROUP BY hsh
           HAVING count(*) BETWEEN 2 AND 64),
    e0 AS (SELECT a.doc_id AS a, b.doc_id AS b
           FROM dc a JOIN dc b ON a.hsh = b.hsh AND a.doc_id < b.doc_id
           JOIN ok ON ok.hsh = a.hsh),
    edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
    reach(a, b) AS (
      SELECT a, b FROM edges
      UNION
      SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
      WHERE e.b <> r.a),
    canon AS (SELECT a AS doc_id, LEAST(a, min(b)) AS family_id
              FROM reach GROUP BY a)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(family_id AS BIGINT) AS family_id
    FROM canon
"""
ORACLES["gini_stump"] = """
    WITH c AS (SELECT CAST(n_chars AS BIGINT) AS v, lang AS g,
                      count(*) AS cnt
               FROM documents GROUP BY 1, 2),
    vs AS (SELECT DISTINCT v FROM c),
    gs AS (SELECT DISTINCT g FROM c),
    grid AS (SELECT vs.v, gs.g, coalesce(c.cnt, 0) AS cnt
             FROM vs CROSS JOIN gs
             LEFT JOIN c ON c.v = vs.v AND c.g = gs.g),
    cum AS (SELECT v, g,
              sum(cnt) OVER (PARTITION BY g ORDER BY v) AS cl,
              sum(cnt) OVER (PARTITION BY g) AS tg
            FROM grid),
    agg AS (SELECT v,
              sum(cl)::HUGEINT AS nl,
              sum(cl * cl)::HUGEINT AS sl,
              sum((tg - cl) * (tg - cl))::HUGEINT AS sr,
              sum(tg - cl)::HUGEINT AS nr
            FROM cum GROUP BY v),
    t AS (SELECT (SELECT sum(cnt) FROM c)::HUGEINT AS n),
    f AS (SELECT v, nl, nr,
            1000000 - (sl * nr + sr * nl) * 1000000 // (t.n * nl * nr) AS imp
          FROM agg, t WHERE nl > 0 AND nr > 0)
    SELECT CAST(v AS BIGINT) AS threshold, CAST(nl AS BIGINT) AS n_left,
           CAST(nr AS BIGINT) AS n_right, CAST(imp AS BIGINT) AS impurity_e6
    FROM f ORDER BY imp, v LIMIT 5
"""
ORACLES["feature_hashing"] = """
    WITH tok AS (SELECT doc_id,
                        unnest(string_split(coalesce(text, ''), ' ')) AS t
                 FROM documents),
    h AS (SELECT doc_id, ('0x' || substr(md5(t), 1, 8))::UBIGINT AS hv
          FROM tok),
    s AS (SELECT doc_id, (hv % 16)::BIGINT AS slot,
                 CASE WHEN (hv // 16) % 2 = 0 THEN 1 ELSE -1 END AS sgn
          FROM h)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(coalesce(sum(CASE WHEN slot = 0 THEN sgn END), 0) AS BIGINT) AS fh_0,
           CAST(coalesce(sum(CASE WHEN slot = 1 THEN sgn END), 0) AS BIGINT) AS fh_1,
           CAST(coalesce(sum(CASE WHEN slot = 2 THEN sgn END), 0) AS BIGINT) AS fh_2,
           CAST(coalesce(sum(CASE WHEN slot = 3 THEN sgn END), 0) AS BIGINT) AS fh_3,
           CAST(coalesce(sum(CASE WHEN slot = 4 THEN sgn END), 0) AS BIGINT) AS fh_4,
           CAST(coalesce(sum(CASE WHEN slot = 5 THEN sgn END), 0) AS BIGINT) AS fh_5,
           CAST(coalesce(sum(CASE WHEN slot = 6 THEN sgn END), 0) AS BIGINT) AS fh_6,
           CAST(coalesce(sum(CASE WHEN slot = 7 THEN sgn END), 0) AS BIGINT) AS fh_7,
           CAST(coalesce(sum(CASE WHEN slot = 8 THEN sgn END), 0) AS BIGINT) AS fh_8,
           CAST(coalesce(sum(CASE WHEN slot = 9 THEN sgn END), 0) AS BIGINT) AS fh_9,
           CAST(coalesce(sum(CASE WHEN slot = 10 THEN sgn END), 0) AS BIGINT) AS fh_10,
           CAST(coalesce(sum(CASE WHEN slot = 11 THEN sgn END), 0) AS BIGINT) AS fh_11,
           CAST(coalesce(sum(CASE WHEN slot = 12 THEN sgn END), 0) AS BIGINT) AS fh_12,
           CAST(coalesce(sum(CASE WHEN slot = 13 THEN sgn END), 0) AS BIGINT) AS fh_13,
           CAST(coalesce(sum(CASE WHEN slot = 14 THEN sgn END), 0) AS BIGINT) AS fh_14,
           CAST(coalesce(sum(CASE WHEN slot = 15 THEN sgn END), 0) AS BIGINT) AS fh_15
    FROM s GROUP BY doc_id
"""
ORACLES["quantile_map"] = """
    WITH c AS (SELECT source, CAST(n_chars AS BIGINT) AS v, count(*) AS cnt
               FROM documents GROUP BY 1, 2),
    cum AS (SELECT source, v,
              sum(cnt) OVER (PARTITION BY source ORDER BY v) AS cu,
              sum(cnt) OVER (PARTITION BY source) AS n
            FROM c),
    p AS (SELECT a.source AS sa, b.source AS sb, a.v, a.cu AS ca,
                 b.v AS bv
          FROM cum a JOIN cum b ON a.source <> b.source
          WHERE b.cu * a.n >= a.cu * b.n)
    SELECT sa AS src_a, sb AS src_b, CAST(v AS BIGINT) AS v,
           CAST(ca AS BIGINT) AS cum_a, CAST(min(bv) AS BIGINT) AS mapped_v
    FROM p GROUP BY sa, sb, v, ca
"""
ORACLES["effective_sample_size"] = """
    WITH m AS (SELECT source, count(*) AS n,
                      sum(CAST(n_chars AS BIGINT)) AS sw,
                      sum(CAST(n_chars AS BIGINT) * CAST(n_chars AS BIGINT))
                        AS sw2
               FROM documents GROUP BY 1)
    SELECT source, CAST(n AS BIGINT) AS n, CAST(sw AS BIGINT) AS sum_w,
           CAST(sw2 AS BIGINT) AS sum_w2,
           CAST(sw::HUGEINT * sw * 1000 // sw2 AS BIGINT) AS ess_e3,
           CAST(sw::HUGEINT * sw * 1000 // (n * sw2) AS BIGINT)
             AS ess_ratio_permille
    FROM m WHERE sw2 > 0
"""
ORACLES["dedup_modality_agreement"] = """
    WITH ex0 AS (SELECT doc_id, md5(coalesce(text, '')) AS h FROM documents),
    exr AS (SELECT doc_id, h,
                   row_number() OVER (PARTITION BY h ORDER BY doc_id) AS rn
            FROM ex0),
    exc AS (SELECT doc_id, h FROM exr WHERE rn <= 64),
    ex AS (SELECT a.doc_id AS a, b.doc_id AS b
           FROM exc a JOIN exc b ON a.h = b.h AND a.doc_id < b.doc_id),
    t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
    s AS (SELECT doc_id,
            CASE WHEN len(l) < 5 THEN [array_to_string(l, ' ')]
                 ELSE list_distinct([array_to_string(l[i:i+4], ' ')
                                     for i in range(1, len(l)-3)])
            END AS sh FROM t),
    p AS (SELECT a.doc_id AS a, b.doc_id AS b,
                 len(list_intersect(a.sh, b.sh)) AS inter,
                 len(a.sh) + len(b.sh) AS tot
          FROM s a JOIN s b ON a.doc_id < b.doc_id),
    jc AS (SELECT a, b FROM p WHERE 2 * inter >= tot - inter),
    d AS (SELECT doc_id, text, length(text) AS L
          FROM documents WHERE length(text) >= 1),
    pos AS (SELECT doc_id, text, L, unnest(range(8, L + 1)) AS i
            FROM d WHERE L >= 8),
    cut0 AS (SELECT doc_id, text, i FROM pos WHERE
        (ascii(substr(text, i - 7, 1))::BIGINT * 27512614111
       + ascii(substr(text, i - 6, 1))::BIGINT * 887503681
       + ascii(substr(text, i - 5, 1))::BIGINT * 28629151
       + ascii(substr(text, i - 4, 1))::BIGINT * 923521
       + ascii(substr(text, i - 3, 1))::BIGINT * 29791
       + ascii(substr(text, i - 2, 1))::BIGINT * 961
       + ascii(substr(text, i - 1, 1))::BIGINT * 31
       + ascii(substr(text, i, 1))::BIGINT) % 64 = 0),
    cuts AS (SELECT DISTINCT doc_id, text, i FROM
             (SELECT doc_id, text, i FROM cut0
              UNION ALL SELECT doc_id, text, L AS i FROM d)),
    seg AS (SELECT doc_id,
              substr(text,
                     coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0) + 1,
                     i - coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0))
                AS chunk
            FROM cuts),
    dc AS (SELECT DISTINCT doc_id, md5(chunk) AS hsh FROM seg
           WHERE length(chunk) >= 16),
    dcr AS (SELECT doc_id, hsh,
                   row_number() OVER (PARTITION BY hsh ORDER BY doc_id) AS rn
            FROM dc),
    dcc AS (SELECT doc_id, hsh FROM dcr WHERE rn <= 64),
    cd AS (SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
           FROM dcc a JOIN dcc b ON a.hsh = b.hsh AND a.doc_id < b.doc_id),
    u AS (SELECT a, b, max(e) AS e, max(j) AS j, max(c) AS c FROM (
            SELECT a, b, 1 AS e, 0 AS j, 0 AS c FROM ex
            UNION ALL SELECT a, b, 0 AS e, 1 AS j, 0 AS c FROM jc
            UNION ALL SELECT a, b, 0 AS e, 0 AS j, 1 AS c FROM cd)
          GROUP BY a, b)
    SELECT CAST(coalesce(sum(e), 0) AS BIGINT) AS n_exact,
           CAST(coalesce(sum(j), 0) AS BIGINT) AS n_jaccard,
           CAST(coalesce(sum(c), 0) AS BIGINT) AS n_cdc,
           CAST(coalesce(sum(e * j), 0) AS BIGINT) AS n_exact_jaccard,
           CAST(coalesce(sum(e * c), 0) AS BIGINT) AS n_exact_cdc,
           CAST(coalesce(sum(j * c), 0) AS BIGINT) AS n_jaccard_cdc,
           CAST(coalesce(sum(e * j * c), 0) AS BIGINT) AS n_all3
    FROM u
"""
ORACLES["bow_dedup"] = """
    WITH bags AS (SELECT md5(array_to_string(list_sort(
                    string_split(coalesce(text, ''), ' ')), ' ')) AS h
                  FROM documents),
    grp AS (SELECT h, count(*) AS sz FROM bags GROUP BY h)
    SELECT CAST(sz AS BIGINT) AS group_size,
           CAST(count(*) AS BIGINT) AS n_groups,
           CAST(sz * count(*) AS BIGINT) AS n_docs
    FROM grp GROUP BY sz
"""
ORACLES["hard_negatives"] = """
    WITH x AS (SELECT vec_id, CAST(label AS BIGINT) AS lab,
                      generate_subscripts(embedding, 1) - 1 AS d,
                      CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1e6)
                           AS BIGINT) AS q
               FROM embeddings),
    cellv AS (SELECT vec_id, lab,
                string_agg(
                  CAST(CAST(floor(CAST(q AS DOUBLE) / 250000) AS BIGINT)
                       AS VARCHAR), '|' ORDER BY d)
                  FILTER (WHERE d < 4) AS cell
              FROM x GROUP BY 1, 2),
    r AS (SELECT vec_id, lab, cell,
                 row_number() OVER (PARTITION BY cell ORDER BY vec_id) AS rn
          FROM cellv),
    c AS (SELECT vec_id, lab, cell FROM r WHERE rn <= 64),
    p AS (SELECT a.vec_id AS va, b.vec_id AS vb, a.lab AS la, b.lab AS lb
          FROM c a JOIN c b ON a.cell = b.cell AND a.vec_id < b.vec_id
          WHERE a.lab <> b.lab),
    d2 AS (SELECT p.va, p.vb, p.la, p.lb,
                  sum((xa.q - xb.q) * (xa.q - xb.q)) AS d2q
           FROM p JOIN x xa ON xa.vec_id = p.va
                  JOIN x xb ON xb.vec_id = p.vb AND xb.d = xa.d
           GROUP BY 1, 2, 3, 4)
    SELECT va AS vec_a, vb AS vec_b, la AS label_a, lb AS label_b,
           CAST(d2q AS BIGINT) AS d2q
    FROM d2
"""
ORACLES["rare_token_pairs"] = """
    WITH t0 AS (SELECT doc_id,
                       string_split(coalesce(text, ''), ' ') AS w
                FROM documents),
    tok0 AS (SELECT doc_id,
                    unnest(list_transform(
                        range(1, greatest(len(w) - 1, 1)),
                        i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS t
             FROM t0),
    tok AS (SELECT DISTINCT doc_id, t FROM tok0),
    df AS (SELECT t, count(*) AS df FROM tok GROUP BY t),
    rare AS (SELECT t FROM df WHERE df BETWEEN 2 AND 3),
    post AS (SELECT tok.doc_id, tok.t FROM tok JOIN rare USING (t))
    SELECT CAST(a.doc_id AS BIGINT) AS doc_a,
           CAST(b.doc_id AS BIGINT) AS doc_b,
           CAST(count(*) AS BIGINT) AS n_shared_rare
    FROM post a JOIN post b ON a.t = b.t AND a.doc_id < b.doc_id
    GROUP BY 1, 2
"""
ORACLES["bottomk_sample"] = """
    WITH r AS (SELECT doc_id,
                      ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                        ::UBIGINT AS h60,
                      n_chars
               FROM documents)
    SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(h60 AS BIGINT) AS h60,
           CAST(n_chars AS BIGINT) AS n_chars
    FROM r ORDER BY h60, doc_id LIMIT 100
"""
ORACLES["span_kind_transitions"] = """
    WITH d AS (SELECT CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents),
    t AS (
      SELECT 'heading' AS kind_from, 'media_ref' AS kind_to,
             count(*) AS n FROM d WHERE c = 1
      UNION ALL
      SELECT 'heading', 'text', count(*) FROM d WHERE c >= 2
      UNION ALL
      SELECT 'text', 'text', coalesce(sum(c - 2), 0) FROM d WHERE c >= 3
      UNION ALL
      SELECT 'text', 'media_ref', count(*) FROM d WHERE c >= 2
    )
    SELECT kind_from, kind_to, CAST(n AS BIGINT) AS n FROM t WHERE n > 0
"""
ORACLES["media_density"] = """
    WITH d AS (SELECT doc_id, text,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(c + 1 AS BIGINT) AS n_spans,
           CAST(1 AS BIGINT) AS n_media,
           CAST(c AS BIGINT) AS n_text,
           CAST(CASE WHEN c = 0 THEN 0
                     ELSE len(text) - (c - 1) END AS BIGINT) AS text_chars,
           CAST(1000 // (c + 1) AS BIGINT) AS media_permille
    FROM d
"""
ORACLES["span_offset_audit"] = """
    WITH d AS (SELECT text,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents)
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           CAST(count(*) AS BIGINT) AS n_monotonic,
           CAST(coalesce(sum(CASE WHEN c = 0 THEN 0
                                  ELSE len(text) - c + 2 END), 0) AS BIGINT)
               AS sum_final_offset,
           CAST(coalesce(max(c + 1), 0) AS BIGINT) AS max_span_count
    FROM d
"""
ORACLES["kind_runlengths"] = """
    WITH d AS (SELECT CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents),
    t AS (
      SELECT 'heading' AS kind, count(*) AS n_runs, 1 AS max_run,
             count(*) AS n_spans
      FROM d WHERE c >= 1
      UNION ALL
      SELECT 'text', count(*), coalesce(max(c - 1), 0),
             coalesce(sum(c - 1), 0)
      FROM d WHERE c >= 2
      UNION ALL
      SELECT 'media_ref', count(*), 1, count(*) FROM d
    )
    SELECT kind, CAST(n_runs AS BIGINT) AS n_runs,
           CAST(max_run AS BIGINT) AS max_run,
           CAST(n_spans AS BIGINT) AS n_spans
    FROM t WHERE n_spans > 0
"""
ORACLES["media_ref_integrity"] = """
    SELECT CAST(count(*) AS BIGINT) AS n_refs,
           CAST(0 AS BIGINT) AS n_bad_scheme,
           CAST(0 AS BIGINT) AS n_foreign,
           CAST(count(*) AS BIGINT) AS n_docs_with_media,
           CAST(count(*) AS BIGINT) AS n_dense_docs
    FROM documents
"""
ORACLES["kmv_intersection"] = """
    WITH t0 AS (SELECT source, string_split(coalesce(text, ''), ' ') AS w
                FROM documents),
    sh AS (SELECT DISTINCT source,
                  unnest(list_transform(
                      range(1, greatest(len(w) - 1, 1)),
                      i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS t
           FROM t0),
    h AS (SELECT DISTINCT source,
                 CAST(('0x' || substr(md5(t), 1, 15))::UBIGINT AS BIGINT) AS h
          FROM sh),
    ex AS (SELECT a.source AS sa, b.source AS sb, count(*) AS exact_common
           FROM h a JOIN h b ON a.h = b.h AND a.source < b.source
           GROUP BY 1, 2),
    r AS (SELECT source, h,
                 row_number() OVER (PARTITION BY source ORDER BY h) AS rn
          FROM h),
    sk AS (SELECT source, h FROM r WHERE rn <= 128),
    srcs AS (SELECT DISTINCT source FROM h),
    pairs AS (SELECT a.source AS sa, b.source AS sb
              FROM srcs a JOIN srcs b ON a.source < b.source),
    u AS (SELECT p.sa, p.sb, s.h
          FROM pairs p JOIN sk s ON s.source = p.sa OR s.source = p.sb
          GROUP BY 1, 2, 3),
    ur AS (SELECT sa, sb, h,
                  row_number() OVER (PARTITION BY sa, sb ORDER BY h) AS rn,
                  count(*) OVER (PARTITION BY sa, sb) AS usz
           FROM u),
    kk AS (SELECT sa, sb, max(CASE WHEN rn = 128 THEN h END) AS kth,
                  max(usz) AS usz
           FROM ur GROUP BY 1, 2),
    cm AS (SELECT a.source AS sa, b.source AS sb, a.h
           FROM sk a JOIN sk b ON a.h = b.h AND a.source < b.source),
    cc AS (SELECT p.sa, p.sb,
                  count(cm.h) AS c_all,
                  count(CASE WHEN kk.kth IS NOT NULL AND cm.h < kk.kth
                             THEN 1 END) AS c_below,
                  max(kk.kth) AS kth, max(kk.usz) AS usz
           FROM pairs p
           LEFT JOIN kk ON kk.sa = p.sa AND kk.sb = p.sb
           LEFT JOIN cm ON cm.sa = p.sa AND cm.sb = p.sb
           GROUP BY 1, 2),
    est AS (SELECT cc.sa, cc.sb,
                   coalesce(ex.exact_common, 0) AS exact_common,
                   CASE WHEN cc.usz IS NULL OR cc.usz < 128 THEN cc.c_all
                        WHEN cc.kth > 0 THEN CAST(
                            (cc.c_below::HUGEINT * 127 * 1152921504606846976)
                            // (128::HUGEINT * cc.kth) AS BIGINT)
                        ELSE 0 END AS kmv_est
            FROM cc LEFT JOIN ex ON ex.sa = cc.sa AND ex.sb = cc.sb)
    SELECT sa AS src_a, sb AS src_b,
           CAST(exact_common AS BIGINT) AS exact_common,
           CAST(kmv_est AS BIGINT) AS kmv_est,
           CAST(CASE WHEN exact_common > 0
                     THEN abs(kmv_est - exact_common) * 1000 // exact_common
                     ELSE 0 END AS BIGINT) AS abs_err_permille
    FROM est
"""
ORACLES["caption_mining"] = """
    WITH d AS (SELECT doc_id, text,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE len(string_split(text, ' ')) END AS w,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           'media://doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '/0'
               AS media_ref,
           CASE WHEN c = 0 THEN ''
                ELSE array_to_string(
                    list_slice(string_split(text, ' '), 6 * (c - 1) + 1, w),
                    ' ') END AS caption,
           CAST(CASE WHEN c = 0 THEN 0 ELSE w - 6 * (c - 1) END AS BIGINT)
               AS caption_words
    FROM d
"""
ORACLES["span_pack"] = """
    WITH d AS (SELECT doc_id,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE len(string_split(text, ' ')) END AS w,
                      CASE WHEN coalesce(text, '') = '' THEN 0
                           ELSE CAST(ceil(len(string_split(text, ' ')) / 6.0)
                                     AS BIGINT) END AS c
               FROM documents)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(CASE WHEN c = 0 THEN 1 ELSE (c + 3) // 4 END AS BIGINT)
               AS n_chunks,
           CAST(CASE WHEN c = 0 THEN 0
                     WHEN c > ((c - 1) % 4) + 1 THEN 24
                     ELSE 6 * ((c - 1) % 4) + (w - 6 * (c - 1)) END AS BIGINT)
               AS max_chunk_words,
           CAST(w AS BIGINT) AS total_words
    FROM d
"""
