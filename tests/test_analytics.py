"""Corpus statistics and span analytics: crafted-input semantics (skew,
ties, empty inputs, band boundaries) beyond the sf0.01 oracle sweep."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from pdfplumber_ray.pipelines import analytics as an
from pdfplumber_ray.pipelines import exchange


def test_grouped_rank_ties_and_groups(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(6)), pa.int64()),
                "lang": pa.array(["en", "en", "en", "de", "de", "de"]),
                "n_chars": pa.array([10, 10, 20, 5, 6, 7], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r for r in
           an.grouped_rank_ds(docs, "lang", "n_chars", "doc_id").take_all()}
    # ties include peers (RANGE frame): both len-10 docs have n_le=2
    assert out[0]["n_le"] == 2 and out[1]["n_le"] == 2
    assert out[2]["n_le"] == 3 and out[2]["g_total"] == 3
    # groups are independent
    assert out[3]["n_le"] == 1 and out[3]["g_total"] == 3
    assert out[5]["permille"] == 1000


def test_grouped_rank_domain_guard(ray_session, monkeypatch):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(100)), pa.int64()),
                "lang": pa.array(["en"] * 100),
                "n_chars": pa.array(list(range(100)), pa.int64()),
            }
        )
    )
    monkeypatch.setattr(exchange, "MAX_BROADCAST_ROWS", 10)
    with pytest.raises(ValueError, match="MAX_BROADCAST_ROWS"):
        an.grouped_rank_ds(docs, "lang", "n_chars", "doc_id").take_all()


def test_postings_band_and_order(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([3, 1, 2], pa.int64()),
                "text": pa.array(
                    ["shared rare rare", "shared stop", "shared stop solo"]
                ),
            }
        )
    )
    # df: shared=3, stop=2, rare=1 (per-doc distinct), solo=1
    rows = {r["token"]: r for r in
            an.postings_ds(docs, min_df=2, max_df=2).take_all()}
    assert list(rows) == ["stop"]
    assert rows["stop"]["df"] == 2 and rows["stop"]["doc_ids"] == "1,2"
    rows = {r["token"]: r for r in
            an.postings_ds(docs, min_df=2, max_df=50).take_all()}
    assert rows["shared"]["doc_ids"] == "1,2,3"


def test_quality_audit_counts(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(["x", "", None, "y"]),
                "n_chars": pa.array([1, 0, 0, 1], pa.int64()),
                "lang": pa.array(["en", "en", "de", "fr"]),
                "source": pa.array(["web", "web", "web", "web"]),
            }
        )
    )
    rows = {(r["col_name"], r["metric"]): r["value"]
            for r in an.quality_audit_ds(docs).take_all()}
    assert rows[("n_chars", "n_rows")] == 4
    assert rows[("text", "n_null")] == 1
    assert rows[("text", "n_empty")] == 1
    assert rows[("n_chars", "min_value")] == 0
    assert rows[("n_chars", "max_value")] == 1
    assert rows[("lang", "n_distinct")] == 3
    assert rows[("source", "n_distinct")] == 1


def test_empty_inputs(ray_session):
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    assert an.postings_ds(docs).take_all() == []


def test_grouped_heavy_hitters_rank_and_ties(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en", "en", "de"]),
                "text": pa.array(["a a b c", "a b", "x y y"]),
            }
        )
    )
    out = an.grouped_heavy_hitters_ds(docs, k=2).take_all()
    en = sorted(
        [(r["rank_in_group"], r["token"], r["n"]) for r in out if r["lang"] == "en"]
    )
    de = sorted(
        [(r["rank_in_group"], r["token"], r["n"]) for r in out if r["lang"] == "de"]
    )
    assert en == [(1, "a", 3), (2, "b", 2)]
    assert de == [(1, "y", 2), (2, "x", 1)]  # n DESC, token ASC tie-break


def test_length_outliers_integer_rule(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "lang": pa.array(["en", "en", "en", "de"]),
                "n_chars": pa.array([10, 10, 100, 7], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r for r in an.length_outliers_ds(docs).take_all()}
    # en: sum=120, n=3 -> outlier iff v*3 > 3*120 i.e. v > 120
    assert out[2]["is_outlier"] == 0 and out[2]["g_sum"] == 120
    # single-member group is never an outlier (v*1 > 3*v is false)
    assert out[3]["is_outlier"] == 0 and out[3]["g_n"] == 1
    big = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "lang": pa.array(["en"] * 10),
                "n_chars": pa.array([1] * 9 + [100], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r for r in an.length_outliers_ds(big).take_all()}
    assert out[9]["is_outlier"] == 1  # 100*10 > 3*109
    assert out[0]["is_outlier"] == 0


def test_postings_all_groups_empty_keeps_schema(ray_session):
    # every token is a hapax -> every bucket emits zero rows; the schema
    # anchor keeps Dataset.schema() typed, and the queries()-boundary
    # _typed_result guard converts the empty result to a typed
    # pyarrow.Table whose to_pandas() keeps the columns (Ray 2.49's
    # Dataset.to_pandas() on ANY zero-row dataset drops them, which the
    # driver compare would read as a schema mismatch)
    import __ray_entry__ as E

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["alpha beta", "gamma delta"]),
            }
        )
    )
    ds = an.postings_ds(docs, min_df=2, max_df=50)
    assert ds.schema().names == ["token", "df", "doc_ids"]
    out = E._typed_result(ds)
    assert isinstance(out, pa.Table)
    df = out.to_pandas()
    assert len(df) == 0
    assert list(df.columns) == ["token", "df", "doc_ids"]


def test_typed_result_passthrough_nonempty(ray_session):
    import __ray_entry__ as E

    t = pa.table({"a": pa.array([1, 2], pa.int64())})
    out = E._typed_result(ray.data.from_arrow(t))
    assert isinstance(out, ray.data.Dataset)
    assert out.to_pandas()["a"].tolist() == [1, 2]
    # non-Dataset results pass through untouched
    assert E._typed_result(t) is t


def _hash_join(left, right, monkeypatch, how="inner"):
    """``exchange.attach`` on its co-group path, the hash join of two sides
    that both exceed ``MAX_BROADCAST_ROWS``."""
    with monkeypatch.context() as m:
        m.setattr(exchange, "MAX_BROADCAST_ROWS", 0)
        return exchange.attach(left, right, "k", "rk", how).take_all()


def test_hash_join_nm_multiplicity(ray_session, monkeypatch):
    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 3], pa.int64()),
                "lv": pa.array(["l0", "l1", "l2", "l3"]),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "rk": pa.array([1, 1, 2, 9], pa.int64()),
                "rv": pa.array(["r0", "r1", "r2", "r9"]),
            }
        )
    )
    out = sorted(
        (r["k"], r["lv"], r["rv"])
        for r in _hash_join(left, right, monkeypatch)
    )
    # key 1: 2x2 = 4 rows; key 2: 1; key 3 and 9 unmatched
    assert out == [
        (1, "l0", "r0"), (1, "l0", "r1"), (1, "l1", "r0"), (1, "l1", "r1"),
        (2, "l2", "r2"),
    ]


def test_hash_join_collision_guard(ray_session, monkeypatch):
    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()), "v": pa.array(["x"])})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([1], pa.int64()), "v": pa.array(["y"])})
    )
    with pytest.raises(ValueError, match="collision"):
        _hash_join(left, right, monkeypatch)


def test_ntile_sizing_rule(ray_session):
    # N=10, k=4 -> tiles of 3,3,2,2 over (v, id) order
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "n_chars": pa.array([5, 5, 5, 5, 1, 1, 9, 9, 9, 9], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r["tile"] for r in
           an.ntile_ds(docs, "n_chars", "doc_id", k=4).take_all()}
    # order: (1,4) (1,5) (5,0) (5,1) (5,2) (5,3) (9,6) (9,7) (9,8) (9,9)
    assert [out[i] for i in (4, 5, 0, 1, 2, 3, 6, 7, 8, 9)] == [
        1, 1, 1, 2, 2, 2, 3, 3, 4, 4
    ]


def test_ntile_more_tiles_than_rows(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "n_chars": pa.array([7, 3], pa.int64()),
            }
        )
    )
    out = {r["doc_id"]: r["tile"] for r in
           an.ntile_ds(docs, "n_chars", "doc_id", k=5).take_all()}
    assert out == {2: 1, 1: 2}


def test_hash_join_left_keeps_unmatched(ray_session, monkeypatch):
    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3], pa.int64()),
                "lv": pa.array(["a", "b", "c"], pa.string()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "rk": pa.array([2, 2], pa.int64()),
                "rv": pa.array([10, 20], pa.int64()),
            }
        )
    )
    out = _hash_join(left, right, monkeypatch, how="left")
    got = sorted((r["k"], r["lv"], r["rv"]) for r in out)
    assert got == [(1, "a", None), (2, "b", 10), (2, "b", 20), (3, "c", None)]
    inner = _hash_join(left, right, monkeypatch)
    assert sorted((r["k"], r["rv"]) for r in inner) == [(2, 10), (2, 20)]


def test_group_sample_ids_head_and_count(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([9, 3, 7, 1, 5, 11, 2], pa.int64()),
                "lang": pa.array(["en"] * 6 + ["de"], pa.string()),
            }
        )
    ).repartition(3)
    rows = {r["lang"]: r for r in an.group_sample_ids_ds(docs, k=3).take_all()}
    assert rows["en"]["ids"] == "1,3,5" and rows["en"]["n_docs"] == 6
    assert rows["de"]["ids"] == "2" and rows["de"]["n_docs"] == 1


def test_ks_drift_hand_computed(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a"] * 4 + ["b"] * 2),
                "n_chars": pa.array([1, 2, 3, 4, 3, 4], pa.int64()),
            }
        )
    )
    (r,) = an.ks_drift_ds(docs).take_all()
    # cdf_a = [1,2,3,4]/4, cdf_b = [0,0,1,2]/2 at v=1..4
    # cross-multiplied max gap: v=2 -> |2*2 - 0*4| = 4
    assert (r["src_a"], r["src_b"]) == ("a", "b")
    assert (r["n_a"], r["n_b"], r["ks_num"]) == (4, 2, 4)
    assert r["ks_permille"] == 4 * 1000 // 8


def test_ks_drift_identical_distributions(ray_session):
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "a", "b", "b"]),
                "n_chars": pa.array([5, 9, 5, 9], pa.int64()),
            }
        )
    )
    (r,) = an.ks_drift_ds(docs).take_all()
    assert r["ks_num"] == 0 and r["ks_permille"] == 0


def test_row_number_global_and_descending(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "v": pa.array([10, 30, 10, 20, 30], pa.int64()),
            }
        )
    ).repartition(3)
    asc = {r["id"]: r["rn"] for r in an.row_number_ds(ds, "v", "id").take_all()}
    assert asc == {1: 1, 3: 2, 4: 3, 2: 4, 5: 5}
    desc = {
        r["id"]: r["rn"]
        for r in an.row_number_ds(ds, "v", "id", descending=True).take_all()
    }
    assert desc == {2: 1, 5: 2, 4: 3, 1: 4, 3: 5}


def test_rrf_fusion_hand_computed(ray_session):
    # ids 1..4; metric a ranks 1,2,3,4 ; metric b ranks 4,3,2,1
    ds = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array([1, 2, 3, 4], pa.int64()),
                "a": pa.array([40, 30, 20, 10], pa.int64()),
                "b": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
    ).repartition(2)
    rows = an.rrf_fusion_ds(ds, "id", "a", "b", topk=3).take_all()
    e9 = 10**9
    # symmetric rank pairs -> identical scores; id ASC breaks ties
    s_outer = e9 // 61 + e9 // 64   # ranks (1,4) or (4,1)
    s_inner = e9 // 62 + e9 // 63   # ranks (2,3) or (3,2)
    assert [r["id"] for r in rows] == [1, 4, 2]
    assert rows[0]["rrf_e9"] == s_outer and rows[2]["rrf_e9"] == s_inner
    assert (rows[0]["rank_a"], rows[0]["rank_b"]) == (1, 4)


def test_winsorize_cutoff_and_flags(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(list(range(1, 101)), pa.int64()),
                "v": pa.array(list(range(1, 101)), pa.int64()),
            }
        )
    ).repartition(4)
    rows = {r["id"]: (r["clipped"], r["was_clipped"]) for r in
            an.winsorize_ds(ds, "v", "id", pct=90).take_all()}
    # rank = (90*100+99)//100 = 90 -> cutoff value 90
    assert rows[90] == (90, 0)
    assert rows[91] == (90, 1) and rows[100] == (90, 1)
    assert rows[1] == (1, 0)
    assert sum(c for _, c in rows.values()) == 10


def test_rank_sum_hand_computed_and_invariant(ray_session):
    # a: [1, 2, 2], b: [2, 3] pooled sorted: 1 a, 2 a a b (tie of 3), 3 b
    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en", "en", "en", "de", "de"]),
                "n_chars": pa.array([1, 2, 2, 2, 3], pa.int64()),
            }
        )
    )
    (r,) = an.rank_sum_ds(docs, "lang", "n_chars", "en", "de").take_all()
    # doubled midranks: value 1 -> 2; value-2 run (ranks 2-4) -> 6; value 3 -> 10
    assert (r["n_a"], r["n_b"]) == (3, 2)
    assert r["r2_a"] == 2 + 6 + 6
    assert r["u2_a"] == 14 - 3 * 4 and r["u2_a"] + r["u2_b"] == 2 * 3 * 2


def test_chi2_assoc_independence_is_zero(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # perfectly independent 2x2 (equal counts): every cell O == E
    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en", "en", "de", "de"] * 5, pa.string()),
                "source": pa.array(["a", "b", "a", "b"] * 5, pa.string()),
            }
        )
    )
    rows = an.chi2_assoc_ds(docs).take_all()
    assert len(rows) == 4
    assert all(r["contrib_e6"] == 0 for r in rows)
    assert all(r["observed"] == 5 and r["expected_e3"] == 5000 for r in rows)


def test_chi2_assoc_dependence_positive(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # perfectly dependent: lang determines source
    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en"] * 10 + ["de"] * 10, pa.string()),
                "source": pa.array(["a"] * 10 + ["b"] * 10, pa.string()),
            }
        )
    )
    total = sum(r["contrib_e6"] for r in an.chi2_assoc_ds(docs).take_all())
    # chi2 of a perfect 2x2 association = N = 20 -> 20e6 in e6
    assert total == 20_000_000


def test_robust_scale_truncating_division(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # values 1..4: ranks (p*4+99)//100 -> p25=1(rank1), p50=2(rank2), p75=3(rank3)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "source": pa.array(["s"] * 4, pa.string()),
                "n_chars": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
    )
    rows = {r["doc_id"]: r for r in an.robust_scale_ds(docs, "n_chars", "doc_id").take_all()}
    assert rows[1]["median_v"] == 2 and rows[1]["iqr"] == 2
    # (1-2)*1e6 // 2 truncates toward zero: -500000 (not -500001)
    assert rows[1]["scaled_e6"] == -500_000
    assert rows[4]["scaled_e6"] == 1_000_000
    assert all(r["zero_iqr"] == 0 for r in rows.values())


def test_keyness_exclusive_term_tops(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # "zzz" appears only in src b -> highest lift there
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a", "a", "b"], pa.string()),
                "text": pa.array(["w w w w", "w w w w", "zzz w"], pa.string()),
            }
        )
    )
    rows = [r for r in an.keyness_ds(docs, k=1).take_all()]
    by_src = {r["source"]: r for r in rows}
    assert by_src["b"]["term"] == "zzz"
    # c_s=1, T_rest=8, c_rest=0, T_s=2 -> 1*8*1e6 // (1*2) = 4e6
    assert by_src["b"]["lift_e6"] == 4_000_000
    assert by_src["b"]["rank"] == 1


def test_weighted_median_heavy_tail(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # 3 docs of 2 tokens, 1 doc of 100 tokens: plain median = small,
    # weighted median = the big doc (its mass dominates)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "n_chars": pa.array([2, 2, 2, 100], pa.int64()),
                "text": pa.array(
                    ["w w", "w w", "w w", " ".join(["w"] * 100)], pa.string()
                ),
            }
        )
    )
    out = an.weighted_median_ds(docs).take_all()[0]
    assert out["plain_median"] == 2
    # S = 106, (S+1)//2 = 53 -> cumweight reaches 53 only at v=100
    assert out["wmedian"] == 100
    assert out["total_weight"] == 106 and out["n_docs"] == 4


def test_spearman_perfect_and_inverse(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # y (token count) strictly increases with x -> rho exactly +1
    docs = ray.data.from_arrow(
        pa.table(
            {
                "n_chars": pa.array([10, 20, 30], pa.int64()),
                "text": pa.array(["a", "a b", "a b c"], pa.string()),
            }
        )
    )
    out = an.spearman_corr_ds(docs).take_all()[0]
    assert out["n"] == 3 and out["num"] == out["denx"] == out["deny"]

    # inverse ordering -> num = -den
    docs2 = ray.data.from_arrow(
        pa.table(
            {
                "n_chars": pa.array([30, 20, 10], pa.int64()),
                "text": pa.array(["a", "a b", "a b c"], pa.string()),
            }
        )
    )
    out2 = an.spearman_corr_ds(docs2).take_all()[0]
    assert out2["num"] == -out2["denx"] == -out2["deny"]


def test_spearman_tie_handling(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # x has a tie: doubled avg ranks for x=[5,5,9] are [3,3,7] (avg 1.5,1.5,3)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "n_chars": pa.array([5, 5, 9], pa.int64()),
                "text": pa.array(["a", "a b", "a b c"], pa.string()),
            }
        )
    )
    out = an.spearman_corr_ds(docs).take_all()[0]
    # hand-computed: r2x=[3,3,6] (avg ranks 1.5,1.5,3), r2y=[2,4,6]
    # num = 3*(6+12+36) - 12*12 = 162-144 = 18
    assert out["num"] == 18
    assert out["denx"] == 3 * (9 + 9 + 36) - 12 * 12  # 18
    assert out["deny"] == 3 * (4 + 16 + 36) - 12 * 12  # 24


def test_gini_concentration_extremes(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # perfectly equal corpus -> gini_num = 0
    eq = ray.data.from_arrow(
        pa.table({"text": pa.array(["a b", "a b", "a b", "a b"], pa.string())})
    )
    out = an.gini_concentration_ds(eq).take_all()[0]
    assert out["gini_num"] == 0 and out["total"] == 8 and out["n"] == 4

    # one doc holds nearly all mass -> gini near (n-1)/n
    skew = ray.data.from_arrow(
        pa.table(
            {"text": pa.array(["a", "a", "a", " ".join(["w"] * 97)], pa.string())}
        )
    )
    o2 = an.gini_concentration_ds(skew).take_all()[0]
    # sorted x = [1,1,1,97]; coefs (2i-n-1) = [-3,-1,1,3] -> num = -3-1+1+291
    assert o2["gini_num"] == 288 and o2["total"] == 100
    # gini = 288 / (4*100) = 0.72


def test_sentence_stats_segmentation(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "one two. three!! four five six? ",
                        "no terminator here",
                        "...",  # only empty segments -> no row
                    ],
                    pa.string(),
                ),
            }
        )
    )
    rows = {r["doc_id"]: r for r in an.sentence_stats_ds(docs).take_all()}
    assert rows[1]["n_sentences"] == 3
    assert rows[1]["max_sent_tokens"] == 3  # "four five six"
    assert rows[1]["sum_sent_tokens"] == 6
    assert rows[2]["n_sentences"] == 1 and rows[2]["sum_sent_tokens"] == 3
    assert 3 not in rows


def test_stratified_kfold_balance(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(23)), pa.int64()),
                "lang": pa.array(["en"] * 13 + ["de"] * 10, pa.string()),
            }
        )
    )
    rows = co.stratified_kfold_ds(docs, n_folds=5).take_all()
    assert len(rows) == 23
    from collections import Counter
    for stratum, total in (("en", 13), ("de", 10)):
        c = Counter(r["fold"] for r in rows if r["stratum"] == stratum)
        assert sum(c.values()) == total
        # balanced to +/- 1 within each stratum
        assert max(c.values()) - min(c.values()) <= 1


def test_index_gap_stats_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # bigram "a b" appears in docs 0 and 5 -> df 2,
    # gaps (0+1, 5-0) = (1, 5) -> varint bytes (1, 1) -> total 2
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 5], pa.int64()),
                "text": pa.array(["a b x", "a b y"], pa.string()),
            }
        )
    )
    out = {r["df"]: r for r in an.index_gap_stats_ds(docs).take_all()}
    assert out[2]["n_tokens"] == 1          # only "a b" is in-band
    assert out[2]["total_postings"] == 2
    assert out[2]["total_bytes"] == 2


def test_source_prefix_audit_lcp(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import corpus_ops as co

    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    ["header one body a", "header one body b", "header two x"],
                    pa.string(),
                ),
                "source": pa.array(["A", "A", "A"], pa.string()),
            }
        )
    )
    row = co.source_prefix_audit_ds(docs).take_all()[0]
    # min = "header one body a", max = "header two x" -> LCP "header "
    # + "one"/"two" diverge at 'o' vs 't' -> 7 chars
    assert row["source"] == "A" and row["n_docs"] == 3
    assert row["lcp_chars"] == len("header ")


def test_emd_lengths_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # src0 lengths: [1, 3]; src1 lengths: [3, 3]
    # grid 1,3: at v=1: ca=1, cb=0 -> |1*2 - 0*2| * (3-1) = 4
    # emd = 4 / (2*2) = 1.0 (every src0 doc moves 1 token on average... )
    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(["a", "a b c", "x y z", "p q r"], pa.string()),
                "source": pa.array(["src0", "src0", "src1", "src1"], pa.string()),
            }
        )
    )
    row = an.emd_lengths_ds(docs).take_all()[0]
    assert row["n_a"] == 2 and row["n_b"] == 2
    assert row["emd_num"] == 4


def test_lang_fertility_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.functions import textstats as ts
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(["héllo wörld", "", "a b c"], pa.string()),
                "lang": pa.array(["de", "de", "en"], pa.string()),
            }
        )
    )
    rows = {r["lang"]: r for r in an.lang_fertility_ds(docs).take_all()}
    de, en = rows["de"], rows["en"]
    assert de["n_docs"] == 2
    # two 2-byte umlauts: 13 bytes vs 11 codepoints; '' counts 1 ws token
    assert de["n_bytes"] == 13 and de["n_chars"] == 11
    assert de["n_tokens_ws"] == 2 + 1
    assert de["n_tokens_bpe"] == int(ts.bpe_token_count(["héllo wörld"])[0])
    assert en == {
        "lang": "en",
        "n_docs": 1,
        "n_bytes": 5,
        "n_chars": 5,
        "n_tokens_ws": 3,
        "n_tokens_bpe": int(ts.bpe_token_count(["a b c"])[0]),
    }


def test_zonemap_prune_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 100, 101], pa.int64()),
                "n_chars": pa.array([10, 50, 900, 3000], pa.int64()),
            }
        )
    )
    rows = {
        r["shard_id"]: r
        for r in an.zonemap_prune_ds(docs, shard_size=100, threshold=2000).take_all()
    }
    assert rows[0] == {
        "shard_id": 0,
        "n_docs": 2,
        "min_v": 10,
        "max_v": 50,
        "prunable": 1,
    }
    assert rows[1]["prunable"] == 0 and rows[1]["max_v"] == 3000


def test_encoding_size_audit_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en", "en", "de"]),
                "source": pa.array(["s1", "s1", "s1"]),
                "text": pa.array(["aa", "bb", "aa"]),
            }
        )
    )
    rows = {
        r["column_name"]: r for r in an.encoding_size_audit_ds(docs).take_all()
    }
    assert rows["lang"] == {
        "column_name": "lang",
        "n": 3,
        "n_distinct": 2,
        "plain_bytes": 6,
        "dict_bytes": 4 + 12,
    }
    assert rows["source"]["n_distinct"] == 1
    assert rows["text"]["dict_bytes"] == 4 + 12


def test_cdc_chunks_shared_paragraph(ray_session):
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # this paragraph has internal window-hash cuts at char positions
    # 31/70/78/154, so the PREFIXed copy in doc 2 re-synchronizes and
    # shares the post-cut chunks with doc 1
    para = (
        "jumps the lazy zeta alpha gamma quick brown gamma delta zeta "
        "jumps quick delta over delta delta alpha lazy alpha zeta gamma "
        "fox jumps jumps beta dog zeta alpha lazy"
    )
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array([para, "PREFIX " + para, "short"]),
            }
        )
    )
    rows = {r["n_docs"]: r for r in an.cdc_chunks_ds(docs).take_all()}

    # reference chunker (independent scalar implementation)
    def chunks(txt):
        cps = [ord(c) for c in txt]
        cuts = []
        for i in range(7, len(cps)):
            h = sum(cps[i - 7 + k] * 31 ** (7 - k) for k in range(8))
            if h % 64 == 0:
                cuts.append(i + 1)
        if not cuts or cuts[-1] != len(cps):
            cuts.append(len(cps))
        out, s = [], 0
        for e in cuts:
            out.append(txt[s:e])
            s = e
        return out

    exp = {}
    for did, txt in [(1, para), (2, "PREFIX " + para), (3, "short")]:
        for c in chunks(txt):
            key = hashlib.md5(c.encode()).digest()
            occ, dset, _ = exp.get(key, (0, set(), 0))
            exp[key] = (occ + 1, dset | {did}, len(c))
    hist = {}
    for occ, dset, ln in exp.values():
        nd = len(dset)
        a, b, c = hist.get(nd, (0, 0, 0))
        hist[nd] = (a + 1, b + occ, c + ln)
    assert set(rows) == set(hist)
    for nd, (nc, occ, cb) in hist.items():
        assert rows[nd]["n_chunks"] == nc
        assert rows[nd]["occurrences"] == occ
        assert rows[nd]["chunk_chars"] == cb
    # the shared paragraph must contribute at least one 2-doc chunk
    assert 2 in rows


def test_poisson_bootstrap_deterministic(ray_session):
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([10, 11, 12], pa.int64()),
                "source": pa.array(["s"] * 3),
                "n_chars": pa.array([100, 200, 300], pa.int64()),
            }
        )
    )
    rows = {r["rep"]: r for r in an.poisson_bootstrap_ds(docs).take_all()}

    T = an._POIS1_T

    def wt(did, b):
        h = int(hashlib.md5(f"pb|{did}|{b}".encode()).hexdigest()[:8], 16)
        return int(np.searchsorted(T, h, side="right"))

    for b in range(16):
        ne = sum(wt(d, b) for d in (10, 11, 12))
        ws = sum(wt(d, b) * v for d, v in ((10, 100), (11, 200), (12, 300)))
        if ne == 0:
            assert b not in rows
        else:
            assert rows[b]["n_eff"] == ne
            assert rows[b]["sum_chars"] == ws
            assert rows[b]["mean_chars_e3"] == ws * 1000 // ne
    # two runs are identical (pure function of ids)
    again = {r["rep"]: r for r in an.poisson_bootstrap_ds(docs).take_all()}
    assert again == rows


def test_rand_projection_hand_computed(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    vecs = [[0.5, -0.25, 0.125], [1.0, 0.0, -1.0]]
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([7, 8], pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
    )
    rows = {r["vec_id"]: r for r in an.rand_projection_ds(emb).take_all()}
    s = an._rp_signs(16, 3)
    for vid, v in ((7, vecs[0]), (8, vecs[1])):
        q = np.floor(np.array(v, dtype=np.float64) * 1e6).astype(np.int64)
        proj = q @ s.T
        for j in range(16):
            assert rows[vid][f"proj_{j}"] == proj[j]
        assert rows[vid]["l2q"] == int((q * q).sum())
        assert rows[vid]["p2"] == int((proj * proj).sum())


def test_levenshtein_matches_reference_cases():
    """``dup_edit_audit_ds``'s distance kernel, ``textstats.levenshtein``."""
    from pdfplumber_ray.functions.textstats import levenshtein

    def _levenshtein(a, b):
        return int(levenshtein([a], [b])[0])

    assert _levenshtein("kitten", "sitting") == 3
    assert _levenshtein("", "abc") == 3
    assert _levenshtein("abc", "") == 3
    assert _levenshtein("same", "same") == 0
    assert _levenshtein("flaw", "lawn") == 2
    # brute-force cross-check on random short strings
    import itertools
    import random

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(
                    dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb)
                )
        return dp[len(b)]

    rng = random.Random(7)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        assert _levenshtein(a, b) == ref(a, b), (a, b)


def test_dup_edit_audit_blocks_and_caps(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    pfx = "x" * 24
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 9], pa.int64()),
                "text": pa.array(
                    [pfx + "abcdef", pfx + "abXdef", pfx + "zz", "short"]
                ),
            }
        )
    )
    rows = {(r["doc_a"], r["doc_b"]): r["lev"] for r in
            an.dup_edit_audit_ds(docs).take_all()}
    # doc 9 is shorter than the prefix -> excluded entirely
    assert set(rows) == {(1, 2), (1, 3), (2, 3)}
    assert rows[(1, 2)] == 1          # one substitution
    assert rows[(1, 3)] == 6          # abcdef -> zz = 2 sub + 4 del
    # cap: with max_block=2 only the two lowest ids pair
    capped = an.dup_edit_audit_ds(docs, max_block=2).take_all()
    assert {(r["doc_a"], r["doc_b"]) for r in capped} == {(1, 2)}


def test_phonetic_keys_hand_vocab(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # robert/rubart collide on 'rbrt'; aaron keeps leading vowel
    docs = ray.data.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    ["robert rubart robert", "aaron calls Robert", "x 12ab"]
                ),
            }
        )
    )
    rows = {r["pkey"]: r for r in an.phonetic_keys_ds(docs).take_all()}
    # ROBERT lowers to robert: 4 occurrences across docs
    rb = rows["rbrt"]
    assert rb["n_tokens"] == 2
    assert rb["n_occ"] == 4
    assert rb["tok_min"] == "robert" and rb["tok_max"] == "rubart"
    ar = rows["arn"]  # aaron -> a + rn? seq: a,r,n -> collapse 'aa'->a
    assert ar["n_tokens"] == 1 and ar["n_occ"] == 1
    assert "calls" in {rows[k]["tok_min"] for k in rows}
    # '12ab' and single-char 'x' filtered
    assert all(len(r["tok_min"]) >= 4 for r in rows.values())


def test_cdc_families_transitive(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # Paragraph with internal cuts (positions 31/70/78/154, see
    # test_cdc_chunks_shared_paragraph): docs 1+2 share its tail chunks,
    # docs 2+3 share a different >=16-char chunk -> {1,2,3} is ONE
    # family by transitivity; doc 9 is isolated.
    para = (
        "jumps the lazy zeta alpha gamma quick brown gamma delta zeta "
        "jumps quick delta over delta delta alpha lazy alpha zeta gamma "
        "fox jumps jumps beta dog zeta alpha lazy"
    )
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 9], pa.int64()),
                "text": pa.array(
                    [para, "PREFIX " + para, "PREFIX " + para[:31], "unrelated"]
                ),
            }
        )
    )
    rows = {r["doc_id"]: r["family_id"] for r in
            an.cdc_families_ds(docs).take_all()}
    assert rows.get(1) == 1 and rows.get(2) == 1
    assert 9 not in rows
    # doc 3 joins iff it shares a >=16 char chunk with doc 2 — both
    # start with "PREFIX " + same 31 chars, so their first cut chunk
    # matches when the cut re-synchronizes inside the shared prefix.
    # Regardless of that, family ids must be component minima.
    assert all(fid <= d for d, fid in rows.items())


def test_gini_stump_perfect_split(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # n_chars <= 10 is all "en", > 10 all "fr" -> impurity 0 at t=10
    docs = ray.data.from_arrow(
        pa.table(
            {
                "n_chars": pa.array([5, 7, 10, 20, 30, 40], pa.int64()),
                "lang": pa.array(["en", "en", "en", "fr", "fr", "fr"]),
            }
        )
    )
    rows = an.gini_stump_ds(docs).take_all()
    best = rows[0]
    assert best["threshold"] == 10
    assert best["n_left"] == 3 and best["n_right"] == 3
    assert best["impurity_e6"] == 0
    # worst candidate must be positive impurity, ordering ascending
    imps = [r["impurity_e6"] for r in rows]
    assert imps == sorted(imps)


def test_feature_hashing_deterministic_and_additive(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["cat cat dog", "cat"]),
            }
        )
    )
    rows = {r["doc_id"]: r for r in an.feature_hashing_ds(docs).take_all()}

    def hv(w):
        h = int(hashlib.md5(w.encode()).hexdigest()[:8], 16)
        return h % 16, 1 if (h // 16) % 2 == 0 else -1

    exp1 = [0] * 16
    for w, c in (("cat", 2), ("dog", 1)):
        s, g = hv(w)
        exp1[s] += g * c
    got1 = [rows[1][f"fh_{j}"] for j in range(16)]
    assert got1 == exp1
    # single-token doc: exactly one nonzero slot of magnitude 1
    got2 = [rows[2][f"fh_{j}"] for j in range(16)]
    assert sorted(map(abs, got2)) == [0] * 15 + [1]


def test_quantile_map_hand_computed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # a: values 1,2,3,4 (n=4); b: values 10,20 (n=2, counts 1,1)
    # cdf_a: 1->1/4, 2->2/4, 3->3/4, 4->4/4
    # mapped into b: min u with cdf_b(u) >= q: 1/4->10, 2/4->10, 3/4->20, 1->20
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["a"] * 4 + ["b"] * 2),
                "n_chars": pa.array([1, 2, 3, 4, 10, 20], pa.int64()),
            }
        )
    )
    rows = {
        (r["src_a"], r["v"]): r["mapped_v"]
        for r in an.quantile_map_ds(docs).take_all()
        if r["src_a"] == "a"
    }
    assert rows == {("a", 1): 10, ("a", 2): 10, ("a", 3): 20, ("a", 4): 20}


def test_effective_sample_size_flat_vs_skewed(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["flat"] * 4 + ["skew"] * 4),
                "n_chars": pa.array([5, 5, 5, 5, 1, 1, 1, 97], pa.int64()),
            }
        )
    )
    rows = {r["source"]: r for r in an.effective_sample_size_ds(docs).take_all()}
    # flat weights: ESS == n exactly
    assert rows["flat"]["ess_e3"] == 4000
    assert rows["flat"]["ess_ratio_permille"] == 1000
    # skewed: (100)^2*1000 // (1+1+1+9409) = 10_000_000 // 9412
    assert rows["skew"]["ess_e3"] == 10_000_000 // 9412
    assert rows["skew"]["ess_ratio_permille"] == 10_000_000 // (4 * 9412)


def test_dedup_modality_agreement_planted(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # docs 1,2: byte-identical (exact + jaccard + cdc if a >=16 chunk
    # exists); docs 3,4: share a long paragraph but differ (cdc likely,
    # jaccard high); doc 9 unique.
    para = (
        "jumps the lazy zeta alpha gamma quick brown gamma delta zeta "
        "jumps quick delta over delta delta alpha lazy alpha zeta gamma "
        "fox jumps jumps beta dog zeta alpha lazy"
    )
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 9], pa.int64()),
                "text": pa.array(
                    [para, para, para + " tail one", "PREFIX " + para, "zz"]
                ),
            }
        )
    )
    row = an.dedup_modality_agreement_ds(docs).take_all()[0]
    # identical pair (1,2) must be counted by ALL three modalities
    assert row["n_exact"] == 1
    assert row["n_all3"] >= 1
    # the near-identical family makes jaccard and cdc supersets of exact
    assert row["n_jaccard"] >= row["n_exact_jaccard"] >= 1
    assert row["n_cdc"] >= row["n_exact_cdc"] >= 1
    # intersections can never exceed their parents
    assert row["n_exact_jaccard"] <= min(row["n_exact"], row["n_jaccard"])
    assert row["n_jaccard_cdc"] <= min(row["n_jaccard"], row["n_cdc"])
    assert row["n_all3"] <= min(
        row["n_exact_jaccard"], row["n_exact_cdc"], row["n_jaccard_cdc"]
    )


def test_bow_dedup_order_invariant(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    [
                        "the cat sat",
                        "sat the cat",      # same bag, reordered
                        "cat sat the",      # same bag again
                        "the cat cat",      # different multiset
                        "unique words here",
                    ]
                ),
            }
        )
    )
    rows = {r["group_size"]: r for r in an.bow_dedup_ds(docs).take_all()}
    assert rows[3]["n_groups"] == 1 and rows[3]["n_docs"] == 3
    assert rows[1]["n_groups"] == 2 and rows[1]["n_docs"] == 2


def test_hard_negatives_same_cell_diff_label(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # v1/v2: same cell (all coords ~0.01 apart), labels differ -> pair
    # v3: same cell, same label as v1 -> no pair with v1
    # v4: far away cell -> no pairs
    dim = 8
    base = [0.1] * dim
    near = [0.11] * dim
    far = [0.9] * dim
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
                "embedding": pa.array(
                    [base, near, base, far], pa.list_(pa.float32())
                ),
                "label": pa.array([0, 1, 0, 2], pa.int32()),
            }
        )
    )
    rows = {(r["vec_a"], r["vec_b"]): r for r in
            an.hard_negatives_ds(emb).take_all()}
    assert (1, 2) in rows and (2, 3) in rows
    assert (1, 3) not in rows  # same label
    assert all(4 not in k for k in rows)
    # exact integer squared distance: per dim q diff
    qa = np.floor(np.array(base, np.float64) * 1e6).astype(np.int64)
    qb = np.floor(np.array(near, np.float64) * 1e6).astype(np.int64)
    # float32 storage: recompute through float32 like the operator does
    qa32 = np.floor(np.array(base, np.float32).astype(np.float64) * 1e6).astype(np.int64)
    qb32 = np.floor(np.array(near, np.float32).astype(np.float64) * 1e6).astype(np.int64)
    assert rows[(1, 2)]["d2q"] == int(((qa32 - qb32) ** 2).sum())


def test_rare_token_pairs_trigram_blocking(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # docs 1 and 2 share the trigram "quick brown fox" (df=2 -> rare);
    # "the quick brown" appears in 1,2,3,4 (df=4 -> too common);
    # doc 5 shares nothing.
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(
                    [
                        "the quick brown fox jumps",
                        "see the quick brown fox",
                        "the quick brown bear naps",
                        "the quick brown bear runs",
                        "completely different words entirely",
                    ]
                ),
            }
        )
    )
    rows = {(r["doc_a"], r["doc_b"]): r["n_shared_rare"] for r in
            an.rare_token_pairs_ds(docs, max_df=3).take_all()}
    # (1,2): "quick brown fox" (df=2); (3,4): "quick brown bear" (df=2)
    assert rows[(1, 2)] >= 1 and rows[(3, 4)] >= 1
    assert all(5 not in k for k in rows)
    # df=4 trigram "the quick brown" must not link (1,3) on its own:
    assert (1, 3) not in rows and (1, 4) not in rows


def test_bottomk_sample_exact_size_and_merge(ray_session):
    import hashlib
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    n = 500
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(n)), pa.int64()),
                "n_chars": pa.array([i * 7 % 97 for i in range(n)], pa.int64()),
            }
        )
    ).repartition(8)  # force per-block partials to merge
    k = 25
    got = an.bottomk_sample_ds(docs, k=k).take_all()
    assert len(got) == k
    want = sorted(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16), i)
        for i in range(n)
    )[:k]
    assert [(r["h60"], r["doc_id"]) for r in got] == want


def _span_table():
    import pyarrow as pa
    from pdfplumber_ray.sources.synth_corpus import SPAN

    def s(kind, text, media="", off=0):
        return {"kind": kind, "text": text, "media_ref": media, "offset": off}

    docs = [
        # heading -> text -> text -> cell -> cell -> media
        [s("heading", "intro", off=0), s("text", "aaa bbb", off=5),
         s("text", "ccc", off=12), s("table_cell", "x", off=15),
         s("table_cell", "y", off=16),
         s("media_ref", "", "media://d/0", 17)],
        # media-only doc
        [s("media_ref", "", "media://d/1", 0)],
        # NON-monotonic offsets (9 then 3)
        [s("text", "one", off=9), s("text", "two", off=3)],
    ]
    return pa.table(
        {
            "doc_id": pa.array(
                ["doc-00000001", "doc-00000002", "doc-00000003"], pa.string()
            ),
            "spans": pa.array(docs, pa.list_(SPAN)),
        }
    )


def test_span_kind_transitions_bigrams(ray_session):
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(_span_table())
    rows = {(r["kind_from"], r["kind_to"]): r["n"] for r in
            an.span_kind_transitions_ds(docs).take_all()}
    assert rows[("heading", "text")] == 1
    assert rows[("text", "text")] == 2  # doc1 has one, doc3 has one
    assert rows[("text", "table_cell")] == 1
    assert rows[("table_cell", "table_cell")] == 1
    assert rows[("table_cell", "media_ref")] == 1
    # doc boundaries never create transitions
    assert ("media_ref", "text") not in rows
    assert ("media_ref", "media_ref") not in rows


def test_media_density_profile(ray_session):
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(_span_table())
    rows = {r["doc_id"]: r for r in an.media_density_ds(docs).take_all()}
    d1 = rows[1]
    assert d1["n_spans"] == 6 and d1["n_media"] == 1 and d1["n_text"] == 5
    assert d1["text_chars"] == len("intro") + len("aaa bbb") + len("ccc") + 2
    assert d1["media_permille"] == 1000 // 6
    d2 = rows[2]
    assert d2["n_spans"] == 1 and d2["media_permille"] == 1000


def test_span_offset_audit_catches_violation(ray_session):
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(_span_table())
    row = an.span_offset_audit_ds(docs).take_all()[0]
    assert row["n_docs"] == 3
    assert row["n_monotonic"] == 2  # doc3's offsets decrease
    assert row["sum_final_offset"] == 17 + 0 + 3
    assert row["max_span_count"] == 6


def test_kind_runlengths_rle(ray_session):
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    docs = ray.data.from_arrow(_span_table())
    rows = {r["kind"]: r for r in an.kind_runlengths_ds(docs).take_all()}
    assert rows["text"]["n_runs"] == 2  # doc1 run of 2, doc3 run of 2
    assert rows["text"]["max_run"] == 2
    assert rows["text"]["n_spans"] == 4
    assert rows["table_cell"]["n_runs"] == 1
    assert rows["table_cell"]["max_run"] == 2
    assert rows["media_ref"]["n_runs"] == 2 and rows["media_ref"]["max_run"] == 1


def test_media_ref_integrity_flags_violations(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an
    from pdfplumber_ray.sources.synth_corpus import SPAN

    def m(ref, off=0):
        return {"kind": "media_ref", "text": "", "media_ref": ref, "offset": off}

    docs = [
        # clean doc: dense 0..1, owned refs
        [m("media://doc-00000001/0", 0), m("media://doc-00000001/1", 1)],
        # foreign ref (names doc 9) + bad scheme + non-dense (0 then 2)
        [m("media://doc-00000009/0", 0),
         m("http://x/0", 1),
         m("media://doc-00000002/0", 2),
         m("media://doc-00000002/2", 3)],
        # no media at all
        [{"kind": "text", "text": "hi", "media_ref": "", "offset": 0}],
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    ["doc-00000001", "doc-00000002", "doc-00000003"],
                    pa.string(),
                ),
                "spans": pa.array(docs, pa.list_(SPAN)),
            }
        )
    )
    row = an.media_ref_integrity_ds(ds).take_all()[0]
    assert row["n_refs"] == 6
    assert row["n_bad_scheme"] == 1      # http://x/0
    assert row["n_foreign"] == 1         # media://doc-00000009/0
    assert row["n_docs_with_media"] == 2
    assert row["n_dense_docs"] == 1      # doc2's ks are {0,0,2,-1-ish} not dense


def test_kmv_intersection_exact_when_sketch_not_full(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an

    # two sources, < k distinct shingles each -> union sketch not full
    # -> the estimate must EQUAL the exact intersection
    a = "alpha beta gamma delta epsilon zeta"       # shingles: 4
    b = "alpha beta gamma delta other words here"   # shares 'alpha beta gamma', 'beta gamma delta'
    docs = ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(["sA", "sB"], pa.string()),
                "text": pa.array([a, b], pa.string()),
            }
        )
    )
    rows = an.kmv_intersection_ds(docs, k=128).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert (r["src_a"], r["src_b"]) == ("sA", "sB")
    assert r["exact_common"] == 2
    assert r["kmv_est"] == r["exact_common"]
    assert r["abs_err_permille"] == 0


def test_caption_mining_nearest_preceding_text(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an
    from pdfplumber_ray.sources.synth_corpus import SPAN

    def s(kind, text, media="", off=0):
        return {"kind": kind, "text": text, "media_ref": media, "offset": off}

    docs = [
        # media after text -> caption = "second span here"
        [s("text", "first", off=0), s("text", "second span here", off=5),
         s("media_ref", "", "media://a/0", 21)],
        # LEADING media: no preceding text in this doc (the previous
        # doc's text must NOT leak across the boundary)
        [s("media_ref", "", "media://b/0", 0), s("text", "after", off=1)],
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["doc-00000001", "doc-00000002"]),
                "spans": pa.array(docs, pa.list_(SPAN)),
            }
        )
    )
    rows = {r["media_ref"]: r for r in an.caption_mining_ds(ds).take_all()}
    assert rows["media://a/0"]["caption"] == "second span here"
    assert rows["media://a/0"]["caption_words"] == 3
    assert rows["media://b/0"]["caption"] == ""
    assert rows["media://b/0"]["caption_words"] == 0


def test_span_pack_greedy_budget(ray_session):
    import pyarrow as pa
    import ray.data
    from pdfplumber_ray.pipelines import analytics as an
    from pdfplumber_ray.sources.synth_corpus import SPAN

    def t(words):
        return {"kind": "text", "text": " ".join(["w"] * words),
                "media_ref": "", "offset": 0}

    def m():
        return {"kind": "media_ref", "text": "", "media_ref": "media://x",
                "offset": 0}

    docs = [
        # 6+6+6+6 = 24 exact, then 6+media -> 2 chunks, max 24
        [t(6), t(6), t(6), t(6), t(6), m()],
        # leading media + oversized 30-word span: media chunk absorbs the
        # oversized span (zero-word chunks must take the next text span)
        [m(), t(30), t(2)],
        # media-only doc -> exactly one zero-word chunk
        [m(), m()],
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    ["doc-00000001", "doc-00000002", "doc-00000003"]
                ),
                "spans": pa.array(docs, pa.list_(SPAN)),
            }
        )
    )
    rows = {r["doc_id"]: r for r in
            an.span_pack_ds(ds, budget_words=24).take_all()}
    assert rows[1]["n_chunks"] == 2 and rows[1]["max_chunk_words"] == 24
    assert rows[1]["total_words"] == 30
    assert rows[2]["n_chunks"] == 2  # [media + 30w] then [2w]
    assert rows[2]["max_chunk_words"] == 30 and rows[2]["total_words"] == 32
    assert rows[3]["n_chunks"] == 1 and rows[3]["max_chunk_words"] == 0
