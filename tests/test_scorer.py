"""Tests for metrics.Scorer, the one predict and recommend over a model's
scores, and for the one index check every scorer runs."""

import numpy as np
import pytest

from latentrec.data import RatingDataset
from latentrec.ensemble import BlendModel
from latentrec.errors import IndexRangeError, LatentRecError, PersistenceError
from latentrec.metrics import Scorer, top_k
from latentrec.persist import ModelBundle, load_model, save_model
from tests.test_persist import small_dataset, trained_bundle

ALGOS = ("svd", "funk", "svdpp", "itemcf", "fm", "ffm", "blend")


def scorer_of(algo, ds):
    """The index-space scorer of algo trained on ds; a blend weighs an
    svd, a funk, an itemcf and an fm member."""
    if algo != "blend":
        return trained_bundle(algo, ds).scorer
    members = [trained_bundle(a, ds).scorer for a in ("svd", "funk", "itemcf", "fm")]
    return BlendModel(members=members, weights=[0.4, 0.3, 0.2, 0.1])


def assert_range_error(call):
    with pytest.raises(IndexRangeError) as info:
        call()
    assert isinstance(info.value, IndexError)
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, LatentRecError)


class TestIndexRange:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_recommend_refuses_a_user_outside_the_tables(self, algo):
        ds = small_dataset()
        scorer = scorer_of(algo, ds)
        for u in (-1, ds.n_users):
            assert_range_error(lambda: scorer.recommend(u, 3))

    @pytest.mark.parametrize("algo", [a for a in ALGOS if a != "svdpp"])
    def test_predict_and_scores_refuse_a_user_or_item_outside(self, algo):
        ds = small_dataset()
        scorer = scorer_of(algo, ds)
        for u, i in [(-1, 0), (ds.n_users, 0), (0, -1), (0, ds.n_items)]:
            assert_range_error(lambda: scorer.predict(u, i))
            assert_range_error(lambda: scorer.scores(u, np.array([0, i])))

    def test_svdpp_keeps_its_cold_start_values(self):
        ds = small_dataset()
        model = trained_bundle("svdpp", ds).scorer
        m, n = ds.n_users, ds.n_items
        cases = [((-1, 0), model.mu + model.b_i[0]),
                 ((m, 1), model.mu + model.b_i[1]),
                 ((0, -1), model.mu + model.b_u[0]),
                 ((2, n), model.mu + model.b_u[2]),
                 ((m, n), model.mu)]
        for (u, i), want in cases:
            assert model.predict(u, i) == float(want)
            assert model.scores(u, [i]).tolist() == [float(want)]


class Table(Scorer):
    """A scorer from a fixed table: user 0 has seen items 1 and 3 as
    indices, user 1 item 0 as a boolean row."""

    table = np.array([[0.5, 9.0, 2.0, 9.0, 2.0, -1.0],
                      [3.0, 1.0, 1.0, 4.0, 0.0, 1.0]])
    n_users, n_items = table.shape

    def scores(self, u, items):
        return self.table[u, items]

    def seen(self, u):
        return [1, 3] if u == 0 else np.arange(self.n_items) == 0


class TestScorerBase:
    def test_predict_is_the_one_item_case_of_scores(self):
        table = Table()
        for u in range(table.n_users):
            for i in range(table.n_items):
                value = table.predict(u, i)
                assert type(value) is float and value == Table.table[u, i]

    def test_recommend_ranks_the_unseen_items_as_top_k(self):
        table = Table()
        # ties by ascending index; seen items never appear
        assert table.recommend(0, 3) == [(2, 2.0), (4, 2.0), (0, 0.5)]
        assert table.recommend(1, 10) == [(3, 4.0), (1, 1.0), (2, 1.0), (5, 1.0), (4, 0.0)]
        for u, seen in ((0, [1, 3]), (1, [0])):
            unseen = np.array([i for i in range(6) if i not in seen])
            assert table.recommend(u, 4) == top_k(unseen, Table.table[u, unseen], 4)

    def test_recommend_checks_user_and_k(self):
        table = Table()
        assert_range_error(lambda: table.recommend(2, 1))
        with pytest.raises(ValueError):
            table.recommend(0, 0)


class TestTokenOrder:
    def dataset(self):
        return RatingDataset([("a", "x", 1.0), ("a", "y", 5.0),
                              ("b", "x", 4.0), ("b", "y", 2.0)])

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    @pytest.mark.parametrize("role", ["user", "item"])
    def test_member_built_for_another_token_order_is_not_saved(self, algo, role, tmp_path):
        ds = self.dataset()
        member = trained_bundle(algo, ds).scorer
        index = {"user": dict(ds.user_index), "item": dict(ds.item_index)}
        index[role] = {token: 1 - i for token, i in index[role].items()}
        bundle = ModelBundle("ensemble", BlendModel([member], [1.0]),
                             index["user"], index["item"], ds.scale)
        path = tmp_path / "blend.json"
        with pytest.raises(PersistenceError, match="token order"):
            save_model(bundle, path)
        assert not path.exists()

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_member_in_the_bundle_token_order_is_saved(self, algo, tmp_path):
        ds = self.dataset()
        member = trained_bundle(algo, ds).scorer
        bundle = ModelBundle("ensemble", BlendModel([member], [1.0]),
                             ds.user_index, ds.item_index, ds.scale)
        save_model(bundle, tmp_path / "blend.json")
        loaded = load_model(tmp_path / "blend.json")
        for user in ("a", "b"):
            for item in ("x", "y"):
                assert loaded.predict(user, item) == bundle.predict(user, item)
