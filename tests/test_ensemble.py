"""Tests for predictor combination: blending, voting, bagging, stacking."""

import numpy as np
import pytest

from latentrec.data import RatingDataset, split
from latentrec.ensemble import (
    BlendModel,
    bag_train,
    blend_predict,
    stack_fit,
    vote_recommend,
)
from latentrec.errors import ConditioningError, ValidationError
from latentrec.factor import TrainConfig, funk_predict, funk_train
from tests.conftest import make_rank2_ratings


class Stub:
    """Fixed-output predictor for exercising combination mechanics."""

    def __init__(self, value=0.0, ranked=(), table=None):
        self.value = value
        self.ranked = list(ranked)
        self.table = table

    def predict(self, u, i):
        if self.table is not None:
            return self.table[(u, i)]
        return self.value

    def scores(self, u, items):
        return np.array([self.predict(u, int(i)) for i in items], dtype=float)

    def recommend(self, u, k):
        return self.ranked[:k]


class Boom:
    def predict(self, u, i):
        raise ValueError("boom")

    def scores(self, u, items):
        raise ValueError("boom")

    def recommend(self, u, k):
        raise ValueError("boom")


def grid_dataset(m, n, seed):
    """Fully observed random explicit dataset plus an exact lookup table."""
    rng = np.random.default_rng(seed)
    triples = []
    table = {}
    for u in range(m):
        for i in range(n):
            r = float(rng.uniform(1, 5))
            triples.append((f"u{u:03d}", f"i{i:03d}", r))
            table[(u, i)] = r
    return RatingDataset(triples), table


class TestBlendModel:
    def test_needs_a_member(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[], weights=[])

    def test_weight_count_must_match(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[Stub()], weights=[0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[Stub(), Stub()], weights=[1.5, -0.5])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[Stub()], weights=[0.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[Stub()], weights=[1.0], kind="boost")

    def test_weights_are_normalized(self):
        model = BlendModel(members=[Stub(), Stub()], weights=[2.0, 2.0])
        assert model.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("raw", [[1.0] * 6, [1.0] * 7, [1, 2, 3, 4, 5, 6],
                                     [0.1] * 10])
    def test_normalizing_again_moves_no_bit(self, raw):
        # 6 * (1/6) is not exactly 1, so dividing by the sum once more
        # used to change the weights a saved blend reloaded with
        once = BlendModel(members=[Stub()] * len(raw), weights=raw)
        twice = BlendModel(members=once.members, weights=once.weights)
        assert twice.weights.tobytes() == once.weights.tobytes()
        assert abs(once.weights.sum() - 1.0) <= len(raw) * np.finfo(float).eps

    def test_blend_intercept_rejected(self):
        with pytest.raises(ValidationError):
            BlendModel(members=[Stub()], weights=[1.0], intercept=0.3)

    def test_stack_kind_allows_free_coefficients(self):
        model = BlendModel(members=[Stub(), Stub()], weights=[1.2, -0.2],
                           intercept=0.1, kind="stack")
        assert model.weights.tolist() == [1.2, -0.2]
        assert model.intercept == 0.1


class TestBlendPredict:
    def test_single_member_identity(self):
        model = BlendModel(members=[Stub(value=3.7)], weights=[1.0])
        assert blend_predict(model, 0, 0) == 3.7

    def test_equal_weights_average(self):
        model = BlendModel(members=[Stub(value=2.0), Stub(value=4.0)],
                           weights=[0.5, 0.5])
        assert blend_predict(model, 0, 0) == 3.0

    def test_degenerate_weight_selects_member(self):
        model = BlendModel(members=[Stub(value=1.3), Stub(value=9.9)],
                           weights=[1.0, 0.0])
        assert blend_predict(model, 0, 0) == 1.3

    def test_stays_within_member_range(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            values = rng.uniform(1, 5, size=4)
            raw = rng.random(4)
            model = BlendModel(members=[Stub(value=v) for v in values],
                               weights=raw)
            got = blend_predict(model, 0, 0)
            assert values.min() - 1e-12 <= got <= values.max() + 1e-12

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(22)
        values = rng.uniform(1, 5, size=5)
        weights = rng.random(5)
        order = rng.permutation(5)
        a = BlendModel(members=[Stub(value=v) for v in values], weights=weights)
        b = BlendModel(members=[Stub(value=v) for v in values[order]],
                       weights=weights[order])
        assert blend_predict(a, 0, 0) == pytest.approx(
            blend_predict(b, 0, 0), abs=1e-12
        )

    def test_member_failure_names_the_member(self):
        model = BlendModel(members=[Stub(value=1.0), Boom()], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="ensemble member 1: boom"):
            blend_predict(model, 0, 0)

    def test_stack_intercept_applies(self):
        model = BlendModel(members=[Stub(value=2.0)], weights=[2.0],
                           intercept=-0.5, kind="stack")
        assert blend_predict(model, 0, 0) == 3.5

    def test_model_method_matches_function(self):
        model = BlendModel(members=[Stub(value=2.5)], weights=[1.0])
        assert model.predict(3, 4) == blend_predict(model, 3, 4)


class TestVoteRecommend:
    def test_identical_members_keep_their_list(self):
        members = [Stub(ranked=[(4, 0.9), (1, 0.8), (7, 0.7)])] * 3
        assert vote_recommend(members, 0, 3) == [(4, 3), (1, 3), (7, 3)]

    def test_count_dominates(self):
        common = Stub(ranked=[8])
        other = Stub(ranked=[2])
        got = vote_recommend([common, common, common, other], 0, 2)
        assert got == [(8, 3), (2, 1)]

    def test_disjoint_singletons_tie_break_by_index(self):
        got = vote_recommend([Stub(ranked=[5]), Stub(ranked=[3])], 0, 1)
        assert got == [(3, 1)]

    def test_mean_rank_breaks_count_ties(self):
        a = Stub(ranked=[7, 2])
        b = Stub(ranked=[2, 9])
        assert vote_recommend([a, b], 0, 3) == [(2, 2), (7, 1), (9, 1)]

    def test_truncates_member_lists_to_k(self):
        a = Stub(ranked=[1, 6])
        b = Stub(ranked=[6, 1])
        assert vote_recommend([a, b], 0, 1) == [(1, 1)]

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            vote_recommend([Stub(ranked=[1])], 0, 0)

    def test_member_failure_names_the_member(self):
        with pytest.raises(ValueError, match="ensemble member 0"):
            vote_recommend([Boom()], 0, 2)

    def test_model_recommend_votes(self):
        model = BlendModel(members=[Stub(ranked=[3]), Stub(ranked=[3])],
                           weights=[0.5, 0.5])
        assert model.recommend(0, 1) == [(3, 2)]


class TestBagTrain:
    def trainer(self, epochs=60):
        cfg = TrainConfig(f=2, alpha=0.01, lam=0.02, epochs=epochs, seed=42)
        return lambda d: funk_train(d, cfg)

    def test_member_count_validated(self):
        ds, _ = grid_dataset(3, 3, seed=1)
        with pytest.raises(ValidationError):
            bag_train(self.trainer(), ds, b=0)

    def test_single_triple_resample_is_identity(self):
        """With one triple every bootstrap draw reproduces the dataset."""
        ds = RatingDataset([("u", "i", 3.0)])
        direct = funk_train(ds, TrainConfig(f=2, alpha=0.01, lam=0.0,
                                            epochs=20, seed=1))
        bag = bag_train(
            lambda d: funk_train(d, TrainConfig(f=2, alpha=0.01, lam=0.0,
                                                epochs=20, seed=1)),
            ds, b=1, seed=5,
        )
        assert bag.weights.tolist() == [1.0]
        assert np.array_equal(bag.members[0].P, direct.P)
        assert np.array_equal(bag.members[0].Q, direct.Q)

    def test_same_seed_same_ensemble(self):
        ds, _ = grid_dataset(6, 5, seed=2)
        first = bag_train(self.trainer(epochs=5), ds, b=2, seed=7)
        second = bag_train(self.trainer(epochs=5), ds, b=2, seed=7)
        for a, b in zip(first.members, second.members):
            assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)

    def test_distinct_resamples_give_distinct_members(self):
        ds, _ = grid_dataset(6, 5, seed=2)
        bag = bag_train(self.trainer(epochs=5), ds, b=2, seed=7)
        assert not np.array_equal(bag.members[0].P, bag.members[1].P)

    def test_trainer_failure_names_the_member(self):
        ds, _ = grid_dataset(3, 3, seed=1)

        def bad(d):
            raise ValueError("no fit")

        with pytest.raises(ValueError, match="while training ensemble member 0"):
            bag_train(bad, ds, b=2, seed=1)

    def test_bagging_does_not_degrade_heldout_error(self):
        ds, _ = make_rank2_ratings(m=30, n=20, density=0.7, seed=11, noise=0.25)
        train, test = split(ds, 0.25, seed=5)
        tu, ti, tr = test.indexed()
        single = funk_train(train, TrainConfig(f=2, alpha=0.01, lam=0.02,
                                               epochs=60, seed=42))
        bag = bag_train(self.trainer(epochs=60), train, b=4, seed=9)

        def heldout(predict):
            vals = np.array([predict(int(u), int(i)) for u, i in zip(tu, ti)])
            return float(np.sqrt(np.mean((vals - tr) ** 2)))

        single_rmse = heldout(lambda u, i: funk_predict(single, u, i))
        bag_rmse = heldout(lambda u, i: blend_predict(bag, u, i))
        assert bag_rmse <= single_rmse + 0.02


class TestStackFit:
    def test_needs_members(self):
        ds, _ = grid_dataset(3, 3, seed=1)
        with pytest.raises(ValidationError):
            stack_fit([], ds)

    def test_needs_enough_holdout_points(self):
        ds = RatingDataset([("u", "i", 3.0)])
        with pytest.raises(ValidationError):
            stack_fit([Stub(value=1.0), Stub(value=2.0)], ds)

    def test_perfect_member_gets_unit_coefficient(self):
        ds, table = grid_dataset(8, 6, seed=3)
        model = stack_fit([Stub(table=table)], ds)
        assert model.kind == "stack"
        assert model.weights[0] == pytest.approx(1.0, abs=1e-5)
        assert model.intercept == pytest.approx(0.0, abs=1e-4)

    def test_noise_member_coefficient_vanishes(self):
        ds, table = grid_dataset(40, 25, seed=4)
        rng = np.random.default_rng(17)
        noise = {key: float(rng.normal(3.0, 1.0)) for key in table}
        model = stack_fit([Stub(table=table), Stub(table=noise)], ds)
        assert model.weights[0] == pytest.approx(1.0, abs=0.05)
        assert abs(model.weights[1]) < 0.1

    def test_duplicate_members_stay_finite(self):
        ds, table = grid_dataset(8, 6, seed=3)
        model = stack_fit([Stub(table=table), Stub(table=table)], ds)
        assert np.all(np.isfinite(model.weights))
        assert float(model.weights.sum()) == pytest.approx(1.0, abs=1e-4)

    def test_nonfinite_member_rejected(self):
        ds, _ = grid_dataset(3, 3, seed=1)
        with pytest.raises(ConditioningError):
            stack_fit([Stub(value=np.nan)], ds)

    def test_stacked_predictions_fit_holdout(self):
        ds, table = grid_dataset(10, 8, seed=6)
        shifted = {key: value + 1.0 for key, value in table.items()}
        model = stack_fit([Stub(table=shifted)], ds)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-4)
        assert model.intercept == pytest.approx(-1.0, abs=1e-3)
        assert blend_predict(model, 0, 0) == pytest.approx(table[(0, 0)], abs=1e-5)
