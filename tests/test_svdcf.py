import dataclasses
import tracemalloc

import numpy as np
import pytest

from latentrec import svdcf
from latentrec.cli import main
from latentrec.data import parse_csv
from latentrec.errors import ValidationError
from latentrec.svdcf import SvdCfModel, fit, masked_item_similarity, parse_rank_rule
from tests.conftest import dataset_from_dense, make_rank2_ratings


@pytest.fixture
def worked_model(four_by_four):
    """Model built directly from the printed reconstruction and mask."""
    return SvdCfModel(
        r_star=four_by_four["r_star"],
        mask=four_by_four["mask"],
        f=2,
        similarity_mode="paper-dot",
    )


class TestParseRankRule:
    def test_strings(self):
        assert parse_rank_rule("energy:0.95") == ("energy", 0.95)
        assert parse_rank_rule("ratio:10") == ("ratio", 10.0)
        assert parse_rank_rule("fixed:2") == ("fixed", 2)
        assert parse_rank_rule("energy") == ("energy", 0.95)
        assert parse_rank_rule("ratio") == ("ratio", 10.0)

    def test_pairs(self):
        assert parse_rank_rule(("fixed", 3)) == ("fixed", 3)

    def test_rejects(self):
        for bad in ("fixed", "huh:1", "energy:abc", 42):
            with pytest.raises(ValueError):
                parse_rank_rule(bad)

    @pytest.mark.parametrize("bad", ["ratio:inf", "ratio:-inf", "ratio:nan",
                                     ("ratio", float("inf"))])
    def test_rejects_a_ratio_that_is_not_finite(self, bad):
        # c * sum(s[f:]) is inf or nan for every f, so no rank would follow from it
        with pytest.raises(ValueError, match="positive finite value"):
            parse_rank_rule(bad)


class TestFit:
    def test_worked_example_rank(self, four_by_four):
        ds = parse_csv(four_by_four["csv"])
        model = fit(ds, impute_strategy="user", rank_rule="energy:0.95")
        assert model.f == 2
        # reconstruction matches the printed matrix to print precision
        assert np.abs(model.r_star - four_by_four["r_star"]).max() <= 0.05

    def test_rank1_matrix_reproduced(self):
        ratings = np.outer([1.0, 2.0, 4.0], [1.0, 0.5, 1.0, 0.75])
        ds = dataset_from_dense(ratings, scale=(0.1, 5.0))
        model = fit(ds, rank_rule="energy:0.95")
        dense = np.zeros_like(ratings)
        u, i, r = ds.indexed()
        dense[u, i] = r
        assert np.abs(model.r_star - dense).max() <= 1e-8

    def test_fixed_rank_two_beats_one_on_rank2_data(self):
        rng = np.random.default_rng(10)
        base = rng.uniform(0.5, 1.5, (10, 2)) @ rng.uniform(0.5, 1.5, (2, 8))
        holes = rng.random((10, 8)) < 0.3
        ratings = np.where(holes, 0.0, base)
        ratings[0, 0] = base[0, 0]  # keep user 0 populated
        ds = dataset_from_dense(ratings, scale=(0.0001, 10.0))
        errs = {}
        for f in (1, 2):
            model = fit(ds, impute_strategy="user", rank_rule=("fixed", f))
            obs = model.mask == 1
            dense = np.zeros_like(ratings)
            u, i, r = ds.indexed()
            dense[u, i] = r
            errs[f] = np.linalg.norm((model.r_star - dense)[obs])
        assert errs[2] < errs[1]

    def test_implicit_rejected(self):
        ds = parse_csv("u1,i1,1\nu2,i2,0", svdcf_schema())
        with pytest.raises(ValidationError):
            fit(ds)

    def test_peak_memory_holds_one_m_by_n_array_less(self):
        # 200 x 100 at 10% density: the peak was 8.9 m x n float arrays
        # while impute returned a second filled matrix and the dense
        # ratings lived on through the SVD; it is 7.9 without them
        ds, _ = make_rank2_ratings(m=200, n=100, density=0.1, seed=5)
        tracemalloc.start()
        try:
            fit(ds, impute_strategy="user", rank_rule="fixed:2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.4 * (8 * 200 * 100)


def svdcf_schema():
    from latentrec.data import CsvSchema

    return CsvSchema(kind="implicit")


class TestMaskedItemSimilarity:
    def test_pairs_from_worked_example(self, worked_model):
        assert masked_item_similarity(worked_model, 1, 0) == pytest.approx(2.81, abs=0.05)
        assert masked_item_similarity(worked_model, 1, 2) == 0.0
        assert masked_item_similarity(worked_model, 1, 3) == pytest.approx(11.1356, abs=0.05)

    def test_self_similarity_rejected(self, worked_model):
        with pytest.raises(ValueError):
            masked_item_similarity(worked_model, 2, 2)

    def test_index_range(self, worked_model):
        with pytest.raises(ValueError):
            masked_item_similarity(worked_model, 0, 99)

    def test_cosine_zero_column_is_zero(self, four_by_four):
        mask = four_by_four["mask"].copy()
        mask[:, 2] = 0.0  # an item nobody rated
        model = SvdCfModel(four_by_four["r_star"], mask, f=2, similarity_mode="cosine")
        assert masked_item_similarity(model, 2, 0) == 0.0

    def test_cosine_mode_normalizes(self, four_by_four):
        model = SvdCfModel(
            four_by_four["r_star"], four_by_four["mask"], f=2, similarity_mode="cosine"
        )
        val = masked_item_similarity(model, 1, 0)
        assert val == pytest.approx(0.1497, abs=5e-4)


class TestPredict:
    def test_worked_example_cell(self, worked_model):
        info = worked_model.predict_with_info(2, 1)
        assert info.similarity_total == pytest.approx(13.94, abs=0.05)
        assert info.value == pytest.approx(1.4, abs=0.05)
        assert not info.fallback
        assert svdcf.round_to_scale(info.value, (1, 5)) == 1

    def test_matches_pairwise_similarities(self, worked_model):
        # the vectorized row agrees with the per-pair definition
        sims = [masked_item_similarity(worked_model, 1, j) for j in (0, 2, 3)]
        expected = sum(
            s * worked_model.r_star[2, j] for s, j in zip(sims, (0, 2, 3))
        ) / sum(sims)
        assert worked_model.predict(2, 1) == pytest.approx(expected, rel=1e-12)

    def test_convex_combination(self, worked_model):
        for u in range(4):
            for i in range(4):
                info = worked_model.predict_with_info(u, i)
                row = worked_model.r_star[u]
                others = np.delete(row, i)
                assert others.min() - 1e-9 <= info.value <= others.max() + 1e-9

    def test_uniform_similarities_give_row_mean(self):
        # constant columns: every masked dot is the same, so weights cancel
        # and the prediction is the mean over j != i
        r_star = np.ones((3, 3)) * np.array([[1.0], [2.0], [3.0]])
        model = SvdCfModel(r_star, np.ones((3, 3)), f=1)
        info = model.predict_with_info(1, 0)
        assert info.value == pytest.approx(np.delete(r_star[1], 0).mean())

    def test_fallback_on_zero_total(self):
        # masks make the columns disjoint, so every masked dot is 0
        r_star = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = SvdCfModel(r_star, mask, f=1)
        info = model.predict_with_info(0, 1)
        assert info.fallback
        assert info.similarity_total == 0.0
        assert info.value == pytest.approx(r_star[0].mean())

    def test_single_item_catalog(self):
        model = SvdCfModel(np.array([[2.0], [4.0]]), np.array([[1.0], [0.0]]), f=1)
        info = model.predict_with_info(1, 0)
        assert info.fallback
        assert info.value == pytest.approx(4.0)

    def test_scaling_r_star_scales_paper_dot_prediction(self, worked_model):
        doubled = SvdCfModel(
            worked_model.r_star * 2.0, worked_model.mask, f=2, similarity_mode="paper-dot"
        )
        assert doubled.predict(2, 1) == pytest.approx(2.0 * worked_model.predict(2, 1))

    def test_scaling_preserves_cosine_ranking(self, four_by_four):
        base = SvdCfModel(
            four_by_four["r_star"], four_by_four["mask"], f=2, similarity_mode="cosine"
        )
        scaled = SvdCfModel(
            four_by_four["r_star"] * 3.0,
            four_by_four["mask"],
            f=2,
            similarity_mode="cosine",
        )
        for u in range(4):
            base_rank = [i for i, _ in base.recommend(u, 4)]
            scaled_rank = [i for i, _ in scaled.recommend(u, 4)]
            assert base_rank == scaled_rank

    def test_neighborhood_cut(self, worked_model):
        cut = SvdCfModel(
            worked_model.r_star, worked_model.mask, f=2, neighborhood=1
        )
        info = cut.predict_with_info(2, 1)
        # only the strongest neighbor (item 3, sim ~11.14) remains
        assert info.value == pytest.approx(worked_model.r_star[2, 3], rel=1e-9)

    def test_out_of_range(self, worked_model):
        with pytest.raises(ValueError):
            worked_model.predict(9, 0)

    @pytest.mark.parametrize("neighborhood", [0, -1, "2", 1.5, True, [1]])
    def test_neighborhood_must_be_none_or_an_int_of_at_least_1(
            self, worked_model, neighborhood):
        # 0 sent every prediction to the user mean; "2" raised TypeError
        with pytest.raises(ValueError, match="neighborhood must be None or an int >= 1"):
            SvdCfModel(worked_model.r_star, worked_model.mask, f=2,
                       neighborhood=neighborhood)


# item 0's paper-dot similarities to items 1, 2 and 3 are 3, -2 and -4:
# with K = 2 its neighbours are items 1 and 2, so the prediction for
# (0, 0) is (3 * 1 + -2 * -1) / (3 - 2) = 5. The target used to take the
# second slot at similarity 0, leaving item 1 alone: 1.0.
NEGATIVE_R_STAR = [[1.0, 1.0, -1.0, -1.0], [1.0, 2.0, -1.0, -3.0]]


class TestNeighbours:
    def test_target_never_displaces_a_negative_neighbour(self):
        model = SvdCfModel(NEGATIVE_R_STAR, np.ones((2, 4)), f=1, neighborhood=2)
        assert svdcf.predict(model, 0, 0) == 5.0
        info = svdcf.predict_with_info(model, 0, 0)
        assert (info.similarity_total, info.fallback) == (1.0, False)

    def test_through_the_cli(self, tmp_path, capsys):
        ratings = tmp_path / "negative.csv"
        ratings.write_text("user,item,rating\n" + "".join(
            f"{user},{item},{rating:g}\n"
            for user, row in zip("ab", NEGATIVE_R_STAR) for item, rating in zip("wxyz", row)))
        model = tmp_path / "svd.json"
        assert main(["train", "--algo", "svd", "--input", str(ratings), "--output", str(model),
                     "--scale=-5:5", "--rank-rule", "fixed:2", "--neighborhood", "2"]) == 0
        capsys.readouterr()
        assert main(["predict", str(model), "a", "w"]) == 0
        assert capsys.readouterr().out == "5.00 (rounded: 5)\n"

    @pytest.mark.parametrize("mode", ["paper-dot", "cosine"])
    @pytest.mark.parametrize("k", [2, None])
    def test_blocks_of_rows_score_as_one_item_at_a_time(self, mode, k, monkeypatch):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.6, seed=4)
        model = fit(ds, rank_rule="fixed:2", similarity_mode=mode, neighborhood=k)
        monkeypatch.setattr(svdcf, "SORT_ROWS", 3)
        for u in range(ds.n_users):
            scores = model.scores(u, np.arange(ds.n_items))
            assert scores.tolist() == [model.predict(u, i) for i in range(ds.n_items)]

    @pytest.mark.parametrize("mode", ["paper-dot", "cosine"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 7, None])
    def test_scores_follow_the_rule(self, mode, k):
        # centred ratings give negative paper-dot similarities
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.6, seed=4)
        model = fit(ds, rank_rule="fixed:2", similarity_mode=mode, neighborhood=k)
        model = dataclasses.replace(model, r_star=model.r_star - 3.0)
        n = ds.n_items
        for u in range(ds.n_users):
            want = []
            for i in range(n):
                sims = {j: masked_item_similarity(model, i, j) for j in range(n) if j != i}
                if mode == "cosine":
                    sims = {j: max(s, 0.0) for j, s in sims.items()}
                near = sorted(sims, key=lambda j: (-sims[j], j))[:k or n]
                total = sum(sims[j] for j in near)
                want.append(model.r_star[u].mean() if total == 0 else
                            sum(sims[j] * model.r_star[u, j] for j in near) / total)
            assert model.scores(u, np.arange(n)) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestFrozenModel:
    def test_fields_cannot_be_assigned(self, worked_model):
        for name, value in (("r_star", worked_model.r_star - 1.0), ("neighborhood", 2),
                            ("similarity_mode", "cosine")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(worked_model, name, value)

    @pytest.mark.parametrize("mode", ["paper-dot", "cosine"])
    def test_derived_tables_are_built_once_and_fresh_after_replace(self, mode):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.6, seed=4)
        model = fit(ds, rank_rule="fixed:2", similarity_mode=mode)
        assert model.masked is model.masked and model.norms is model.norms
        before = model.scores(0, np.arange(ds.n_items))
        shifted = dataclasses.replace(model, r_star=model.r_star - 3.0)
        fresh = SvdCfModel(model.r_star - 3.0, model.mask, f=2, similarity_mode=mode)
        assert np.array_equal(shifted.masked, fresh.masked)
        assert np.array_equal(shifted.norms, fresh.norms)
        assert not np.array_equal(shifted.masked, model.masked)
        assert shifted.scores(0, np.arange(ds.n_items)).tolist() == \
            fresh.scores(0, np.arange(ds.n_items)).tolist()
        # the original keeps its own tables
        assert model.scores(0, np.arange(ds.n_items)).tolist() == before.tolist()


class TestRoundToScale:
    def test_examples(self):
        assert svdcf.round_to_scale(1.4, (1, 5)) == 1
        assert svdcf.round_to_scale(5.7, (1, 5)) == 5
        assert svdcf.round_to_scale(2.5, (1, 5)) == 3

    def test_clamps_low(self):
        assert svdcf.round_to_scale(-3.2, (1, 5)) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            svdcf.round_to_scale(float("nan"), (1, 5))


class TestRecommend:
    def test_k_larger_than_unobserved(self, worked_model):
        out = worked_model.recommend(3, 10)
        assert [i for i, _ in out] == sorted(i for i, _ in out) or len(out) == 2
        assert len(out) == 2  # user row (0,0,1,1) has two unobserved items

    def test_top1_is_argmax_of_missing(self, worked_model):
        missing = np.flatnonzero(worked_model.mask[3] == 0.0)
        scores = {int(i): worked_model.predict(3, int(i)) for i in missing}
        best = max(scores, key=lambda i: (scores[i], -i))
        out = worked_model.recommend(3, 1)
        assert out[0][0] == best

    def test_fully_observed_user_gets_nothing(self):
        model = SvdCfModel(np.ones((2, 3)), np.ones((2, 3)), f=1)
        assert model.recommend(0, 5) == []

    def test_k_validation(self, worked_model):
        with pytest.raises(ValueError):
            worked_model.recommend(0, 0)

    def test_deterministic(self, worked_model):
        assert worked_model.recommend(3, 2) == worked_model.recommend(3, 2)
