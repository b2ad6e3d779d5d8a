"""Tests for the learned factor models and the item-neighborhood baseline."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentrec.data import RatingDataset, split
from latentrec.errors import DivergenceError, GradientError, ValidationError
from latentrec.factor import (
    FactorModel,
    ItemCfModel,
    TrainConfig,
    cooccurrence,
    funk_loss,
    funk_loss_gradient,
    funk_predict,
    funk_train,
    itemcf_predict,
    itemcf_predict_with_info,
    itemcf_predictions,
    itemcf_similarity,
    run_epochs,
    svdpp_implicit_predict,
    svdpp_loss,
    svdpp_loss_gradient,
    svdpp_predict,
    svdpp_predict_with_info,
    svdpp_train,
)
from latentrec.metrics import SORT_ROWS, neighbours, top_k
from tests.conftest import (dataset_from_dense, make_rank2_ratings, make_svdpp_ratings,
                            overlap_weights)


def funk_model(p, q):
    p = np.asarray(p, dtype=float)
    return FactorModel(kind="funk", P=p, Q=np.asarray(q, dtype=float), f=p.shape[0])


def svdpp_model(p, q, y, mu=0.0, b_u=None, b_i=None, n_sets=None):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return FactorModel(
        kind="svdpp",
        P=p,
        Q=q,
        f=p.shape[0],
        mu=mu,
        b_u=np.zeros(p.shape[1]) if b_u is None else np.asarray(b_u, dtype=float),
        b_i=np.zeros(q.shape[1]) if b_i is None else np.asarray(b_i, dtype=float),
        Y=np.asarray(y, dtype=float),
        N=n_sets,
    )


def finite_difference(loss_fn, array, h=1e-5):
    """Central finite differences of loss_fn w.r.t. every entry of array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        hi_val = loss_fn()
        array[idx] = orig - h
        lo_val = loss_fn()
        array[idx] = orig
        grad[idx] = (hi_val - lo_val) / (2.0 * h)
    return grad


def heldout_rmse(predict_fn, test_ds):
    users, items, ratings = test_ds.indexed()
    preds = np.array([predict_fn(int(u), int(i)) for u, i in zip(users, items)])
    return float(np.sqrt(np.mean((ratings - preds) ** 2)))


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.f == 2 and cfg.optimizer == "sgd" and cfg.strategy == "all"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f": 0},
            {"alpha": 0.0},
            {"alpha": -0.1},
            {"lam": -0.01},
            {"epochs": -1},
            {"optimizer": "newton"},
            {"strategy": "diagonal"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate_and_regularization(self, name, value):
        with pytest.raises(ValidationError, match="finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"f": 0}, "latent dimension f must be an int >= 1, got 0"),
        ({"f": 1.5}, "latent dimension f must be an int >= 1, got 1.5"),
        ({"f": True}, "latent dimension f must be an int >= 1, got True"),
        ({"f": "2"}, "latent dimension f must be an int >= 1, got '2'"),
        ({"epochs": -1}, "epochs must be an int >= 0, got -1"),
        ({"epochs": 2.5}, "epochs must be an int >= 0, got 2.5"),
        ({"epochs": True}, "epochs must be an int >= 0, got True"),
        ({"epochs": "3"}, "epochs must be an int >= 0, got '3'"),
        ({"optimizer": "newton"}, "unknown optimizer 'newton'"),
        ({"strategy": "diagonal"}, "unknown strategy 'diagonal'"),
        # accepted here, then refused by the trainer with a bare ValueError,
        # the momentum factors even under sgd, which reads neither
        ({"beta1": 1.5}, "momentum factors must lie in [0, 1), got 1.5 and 0.999"),
        ({"beta2": 2.0}, "momentum factors must lie in [0, 1), got 0.9 and 2.0"),
        ({"eps": -1.0}, "eps must be finite and positive, got -1.0"),
        ({"eps": math.inf}, "eps must be finite and positive, got inf"),
        # refused by numpy's seeding only when training began
        ({"seed": -1}, "seed must be an int >= 0, got -1"),
    ])
    def test_every_bad_value_raises_validation_error(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            TrainConfig(**kwargs)
        assert str(info.value).startswith(message)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestFactorModel:
    def test_funk_rejects_bias_block(self):
        with pytest.raises(ValueError):
            FactorModel(kind="funk", P=np.ones((1, 2)), Q=np.ones((1, 2)), f=1,
                        b_u=np.zeros(2))

    def test_svdpp_requires_full_bias_block(self):
        with pytest.raises(ValueError):
            FactorModel(kind="svdpp", P=np.ones((1, 2)), Q=np.ones((1, 2)), f=1,
                        b_u=np.zeros(2), b_i=np.zeros(2))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            funk_model([[1.0, np.nan]], [[1.0, 1.0]])

    def test_rejects_wrong_factor_rows(self):
        with pytest.raises(ValueError):
            FactorModel(kind="funk", P=np.ones((2, 3)), Q=np.ones((2, 3)), f=1)

    def test_rejects_bad_item_sets(self):
        with pytest.raises(ValueError):
            FactorModel(kind="funk", P=np.ones((1, 2)), Q=np.ones((1, 3)), f=1,
                        N=[np.array([0]), np.array([5])])
        with pytest.raises(ValueError):
            FactorModel(kind="funk", P=np.ones((1, 2)), Q=np.ones((1, 3)), f=1,
                        N=[np.array([0])])

    def test_predict_dispatches_by_kind(self):
        plain = funk_model([[2.0]], [[3.0]])
        assert plain.predict(0, 0) == funk_predict(plain, 0, 0) == 6.0
        biased = svdpp_model([[0.5]], [[1.0]], [[0.0]], mu=3.0,
                             n_sets=[np.array([0])])
        assert biased.predict(0, 0) == svdpp_predict(biased, 0, 0)

    def test_recommend_excludes_rated_and_ranks(self):
        model = FactorModel(kind="funk", P=np.array([[1.0]]),
                            Q=np.array([[3.0, 1.0, 2.0]]), f=1,
                            N=[np.array([0])])
        assert model.recommend(0, 2) == [(2, 2.0), (1, 1.0)]

    def test_recommend_ties_break_by_index(self):
        model = FactorModel(kind="funk", P=np.array([[1.0]]),
                            Q=np.array([[2.0, 2.0, 2.0]]), f=1, N=[np.array([])])
        assert [i for i, _ in model.recommend(0, 3)] == [0, 1, 2]

    def test_recommend_argument_errors(self):
        model = funk_model([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            model.recommend(0, 0)
        with pytest.raises(IndexError):
            model.recommend(3, 1)


class TestFunkPredict:
    def test_printed_factor_values(self):
        # p_A = (1.2, 0.8) against q_Y = (1.0, 1.1) and q_Z = (0.8, 0.4)
        model = funk_model([[1.2], [0.8]], [[1.0, 0.8], [1.1, 0.4]])
        assert funk_predict(model, 0, 0) == pytest.approx(2.08, abs=1e-12)
        assert funk_predict(model, 0, 1) == pytest.approx(1.28, abs=1e-12)

    def test_zero_factors_predict_zero(self):
        model = funk_model(np.zeros((3, 4)), np.ones((3, 5)))
        assert all(
            funk_predict(model, u, i) == 0.0 for u in range(4) for i in range(5)
        )

    def test_index_out_of_range(self):
        model = funk_model([[1.0]], [[1.0]])
        with pytest.raises(IndexError):
            funk_predict(model, 1, 0)
        with pytest.raises(IndexError):
            funk_predict(model, 0, -1)


class TestFunkLoss:
    def test_perfect_factorization_no_penalty(self):
        model = funk_model([[1.0, 2.0]], [[3.0, 0.5]])
        triples = [(u, i, funk_predict(model, u, i)) for u in (0, 1) for i in (0, 1)]
        assert funk_loss(model, triples, 0.0) == 0.0

    def test_single_pair_values(self):
        model = funk_model([[1.0]], [[1.0]])
        assert funk_loss(model, [(0, 0, 2.0)], 0.0) == 1.0
        assert funk_loss(model, [(0, 0, 2.0)], 0.5) == 2.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            f = int(rng.integers(1, 4))
            model = funk_model(rng.normal(size=(f, m)), rng.normal(size=(f, n)))
            lam = float(rng.uniform(0.0, 0.5))
            triples = [
                (int(rng.integers(m)), int(rng.integers(n)), float(rng.uniform(1, 5)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            d_p, d_q = funk_loss_gradient(model, triples, lam)
            loss = lambda: funk_loss(model, triples, lam)
            np.testing.assert_allclose(
                d_p, finite_difference(loss, model.P), rtol=1e-4, atol=1e-8
            )
            np.testing.assert_allclose(
                d_q, finite_difference(loss, model.Q), rtol=1e-4, atol=1e-8
            )


class TestFunkTrain:
    def one_triple(self, rating=2.0):
        return RatingDataset([("1", "1", rating)], scale=(1.0, 5.0))

    def test_one_step_hand_trace(self):
        """p updates on the old q, then q updates on the new p."""
        cfg = TrainConfig(f=1, alpha=1.0, lam=0.0, epochs=1, seed=0)
        model = funk_train(self.one_triple(), cfg, init=([[1.0]], [[1.0]]))
        assert model.P[0, 0] == 2.0
        assert model.Q[0, 0] == 3.0

    def test_one_step_simultaneous(self):
        cfg = TrainConfig(f=1, alpha=1.0, lam=0.0, epochs=1, seed=0,
                          simultaneous=True)
        model = funk_train(self.one_triple(), cfg, init=([[1.0]], [[1.0]]))
        assert model.P[0, 0] == 2.0
        assert model.Q[0, 0] == 2.0

    def test_heavy_regularization_shrinks_to_zero(self):
        # err is 0 at the start, so with alpha*lam = 1 one step zeroes both
        cfg = TrainConfig(f=1, alpha=1.0, lam=1.0, epochs=1, seed=0)
        model = funk_train(self.one_triple(), cfg, init=([[1.0]], [[2.0]]))
        assert model.P[0, 0] == 0.0
        assert model.Q[0, 0] == 0.0

    def test_zero_epochs_returns_init(self):
        p0 = np.array([[0.3]])
        q0 = np.array([[0.7]])
        cfg = TrainConfig(f=1, epochs=0)
        model = funk_train(self.one_triple(), cfg, init=(p0, q0))
        assert model.P[0, 0] == 0.3 and model.Q[0, 0] == 0.7
        assert model.trace == []

    def test_init_shape_checked(self):
        with pytest.raises(ValueError):
            funk_train(self.one_triple(), TrainConfig(f=2), init=([[1.0]], [[1.0]]))

    def test_implicit_dataset_rejected(self):
        ds = RatingDataset([("a", "x", 1.0)], kind="implicit")
        with pytest.raises(ValidationError):
            funk_train(ds, TrainConfig())

    def test_seed_determinism(self):
        ds, _ = make_rank2_ratings(m=8, n=6, density=0.8, seed=3)
        cfg = TrainConfig(f=2, epochs=3, seed=11)
        a = funk_train(ds, cfg)
        b = funk_train(ds, cfg)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)
        c = funk_train(ds, TrainConfig(f=2, epochs=3, seed=12))
        assert not np.array_equal(a.P, c.P)

    def test_matches_handcoded_update_loop(self):
        """The optimizer-routed trainer is bit-identical to the raw loop."""
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=3, seed=9)
        model = funk_train(ds, cfg)

        users, items, ratings = ds.indexed()
        rng = np.random.default_rng(cfg.seed)
        root = math.sqrt(cfg.f)
        pt = rng.random((ds.n_users, cfg.f)) / root
        qt = rng.random((ds.n_items, cfg.f)) / root
        for _ in range(cfg.epochs):
            for t in range(len(users)):
                u = users[t]
                i = items[t]
                p = pt[u].copy()
                q = qt[i].copy()
                err = ratings[t] - float(np.dot(p, q))
                pt[u] = p + cfg.alpha * (err * q - cfg.lam * p)
                qt[i] = q + cfg.alpha * (err * pt[u] - cfg.lam * q)
        assert np.array_equal(model.P, pt.T)
        assert np.array_equal(model.Q, qt.T)

    def test_trace_is_nonincreasing_at_small_alpha(self):
        rng = np.random.default_rng(0)
        dense = rng.integers(1, 6, size=(5, 5)).astype(float)
        ds = dataset_from_dense(dense)
        cfg = TrainConfig(f=2, alpha=1e-3, lam=0.02, epochs=50, seed=1)
        model = funk_train(ds, cfg)
        assert len(model.trace) == 50
        assert all(b <= a + 1e-12 for a, b in zip(model.trace, model.trace[1:]))

    def test_heldout_rmse_on_rank2_synthetic(self):
        ds, _ = make_rank2_ratings(m=50, n=40, density=0.6, seed=42)
        train, test = split(ds, 0.2, seed=7)
        cfg = TrainConfig(f=2, alpha=0.01, lam=0.02, epochs=200, seed=42)
        model = funk_train(train, cfg)
        assert heldout_rmse(lambda u, i: funk_predict(model, u, i), test) < 0.1

    def test_divergence_names_epoch(self):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=5.0, lam=0.0, epochs=50, seed=9)
        with pytest.raises(DivergenceError) as info:
            funk_train(ds, cfg)
        assert info.value.epoch is not None
        assert "learning rate" in str(info.value)

    def test_momentum_and_adaptive_optimizers_run(self):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        for kind in ("momentum", "adaptive"):
            cfg = TrainConfig(f=2, alpha=0.005, lam=0.01, epochs=20, seed=9,
                              optimizer=kind)
            model = funk_train(ds, cfg)
            assert np.isfinite(model.P).all()
            assert model.trace[-1] < model.trace[0]

    def test_sequential_equals_all_for_one_feature(self):
        ds, _ = make_rank2_ratings(m=8, n=6, density=0.8, seed=2)
        base = dict(f=1, alpha=0.02, lam=0.01, epochs=3, seed=4)
        one = funk_train(ds, TrainConfig(strategy="all", **base))
        two = funk_train(ds, TrainConfig(strategy="sequential", **base))
        assert np.array_equal(one.P, two.P)
        assert np.array_equal(one.Q, two.Q)

    def test_sequential_strategy_fits_rank2(self):
        ds, _ = make_rank2_ratings(m=20, n=15, density=0.7, seed=4)
        cfg = TrainConfig(f=2, alpha=0.02, lam=0.005, epochs=150, seed=8,
                          strategy="sequential")
        model = funk_train(ds, cfg)
        assert len(model.trace) == 2 * 150
        assert model.trace[-1] < 0.3

    def test_records_rated_item_sets(self):
        ds = dataset_from_dense(np.array([[2.0, 0.0], [0.0, 3.0]]))
        model = funk_train(ds, TrainConfig(f=1, epochs=1))
        assert [s.tolist() for s in model.N] == [[0], [1]]


OPTIMIZERS = ["sgd", "momentum", "adaptive"]


class TestSequentialStrategy:
    """Each feature is a one-feature model trained to completion with
    momenta of its own, then left fixed."""

    ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)

    def train(self, f, optimizer, init=None, **extra):
        cfg = TrainConfig(f=f, alpha=0.02, lam=0.01, epochs=6, seed=3,
                          optimizer=optimizer, strategy="sequential", **extra)
        return funk_train(self.ds, cfg, init=init)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_a_finished_feature_stays_fixed(self, optimizer):
        rng = np.random.default_rng(8)
        p0, q0 = rng.random((2, self.ds.n_users)), rng.random((2, self.ds.n_items))
        two = self.train(2, optimizer, init=(p0, q0))
        one = self.train(1, optimizer, init=(p0[:1], q0[:1]))
        assert np.array_equal(two.P[:1], one.P)
        assert np.array_equal(two.Q[:1], one.Q)
        assert two.trace[:6] == one.trace

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_last_trace_entry_is_the_models_training_rmse(self, optimizer):
        model = self.train(2, optimizer)
        users, items, ratings = self.ds.indexed()
        preds = np.array([funk_predict(model, u, i) for u, i in zip(users, items)])
        assert len(model.trace) == 2 * 6
        assert model.trace[-1] == pytest.approx(
            math.sqrt(np.mean((ratings - preds) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_simultaneous_changes_a_sequential_run(self, optimizer):
        plain = self.train(2, optimizer)
        simultaneous = self.train(2, optimizer, simultaneous=True)
        assert not np.array_equal(plain.P, simultaneous.P)
        assert not np.array_equal(plain.Q, simultaneous.Q)


def weights(model):
    """The n x n overlap weights of an itemcf model, by the test oracle,
    after checking that the rows scoring divides from the co-occurrence
    counts are the oracle's, bit for bit."""
    w = overlap_weights(model.ratings, model.n_items)
    divisor = np.maximum(np.diff(model.raters.offsets), 1)
    for at, counts in cooccurrence(model.ratings, model.raters, np.arange(model.n_items)):
        assert (counts / divisor[at, None]).tobytes() == w[at].tobytes()
    return w


class TestItemCfSimilarity:
    def test_identical_rater_sets_give_one(self):
        ds = dataset_from_dense(np.array([[3.0, 4.0], [2.0, 5.0]]))
        w = weights(itemcf_similarity(ds))
        assert w[0, 1] == 1.0 and w[1, 0] == 1.0

    def test_disjoint_rater_sets_give_zero(self):
        ds = dataset_from_dense(np.array([[3.0, 0.0], [0.0, 5.0]]))
        w = weights(itemcf_similarity(ds))
        assert w[0, 1] == 0.0 and w[1, 0] == 0.0

    def test_partial_overlap_is_asymmetric(self):
        # N(item 0) = {u1, u2}, N(item 1) = {u2, u3, u4}
        dense = np.array(
            [[3.0, 0.0], [3.0, 3.0], [0.0, 3.0], [0.0, 3.0]]
        )
        w = weights(itemcf_similarity(dataset_from_dense(dense)))
        assert w[0, 1] == 0.5
        assert w[1, 0] == pytest.approx(1.0 / 3.0)

    def test_diagonal_is_zero(self):
        ds = dataset_from_dense(np.array([[3.0, 4.0], [2.0, 5.0]]))
        assert np.all(np.diag(weights(itemcf_similarity(ds))) == 0.0)

    def test_unrated_item_gets_zero_row(self):
        ds = RatingDataset(
            [("a", "x", 3.0), ("b", "x", 4.0)],
            item_index={"x": 0, "y": 1},
        )
        model = itemcf_similarity(ds)
        assert np.all(weights(model)[1] == 0.0)

    def test_implicit_zeros_are_not_raters(self):
        ds = RatingDataset(
            [("a", "x", 1.0), ("a", "y", 0.0), ("b", "x", 1.0), ("b", "y", 1.0)],
            kind="implicit",
        )
        w = weights(itemcf_similarity(ds))
        # N(x) = {a, b}, N(y) = {b} only
        assert w[0, 1] == 0.5
        assert w[1, 0] == 1.0

    def test_overlap_identity_on_random_data(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dense = (rng.random((6, 5)) < 0.6) * rng.integers(1, 6, size=(6, 5))
            if not dense.any() or not dense.any(axis=0).all() or not dense.any(axis=1).all():
                continue
            ds = dataset_from_dense(dense.astype(float))
            w = weights(itemcf_similarity(ds))
            assert w.min() >= 0.0 and w.max() <= 1.0
            raters = np.array(
                [np.count_nonzero(dense[:, i]) for i in range(dense.shape[1])],
                dtype=float,
            )
            left = w * raters[:, None]
            np.testing.assert_allclose(left, left.T, atol=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ItemCfModel([{}, {}], K=0, n_items=2)


    @pytest.mark.parametrize("ratings", [
        [{5: 1.0}],  # an item past W
        [{-1: 1.0}],
        [{0.5: 1.0}],  # not an integer
        [[[1, 2.0], [1, 3.0]]],  # a repeat
        [[[1, 2.0], [0, 3.0]]],  # out of item order
        [[[0, None]]],  # a rating that is not a number
    ])
    def test_ratings_checked_against_w(self, ratings):
        # a bad list used to be accepted, and predict then raised IndexError
        with pytest.raises(ValueError, match="ratings must be one list per user"):
            ItemCfModel(ratings, K=1, n_items=2)

    @pytest.mark.parametrize("ratings", [
        [[[0, float("nan")]]],
        [[[0, float("inf")]]],
        # numpy reads a bool among numbers as 0 or 1
        [[[0, 2.0], [True, 3.0]]],
        [[[0, 2.0], [1, True]]],
    ])
    def test_ratings_that_are_not_finite_numbers_or_are_bools_refused(self, ratings):
        with pytest.raises(ValueError, match="ratings must be one list per user"):
            ItemCfModel(ratings, K=1, n_items=2)

    def test_ratings_dicts_taken_in_item_order(self):
        model = ItemCfModel([{2: 1.0, 0: 4.0}, {}], K=1, n_items=3)
        assert model.ratings[0].tolist() == [0, 2]
        assert model.ratings.values.tolist() == [4.0, 1.0]
        assert model.n_users == 2


class TestItemCfModel:
    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True, "2", None])
    def test_neighbourhood_size_must_be_an_int_of_at_least_1(self, k):
        # 1.5 used to construct, and recommend then raised a raw TypeError
        # (slice indices must be integers); True was taken as 1
        ds = dataset_from_dense(np.array([[3.0, 4.0, 0.0], [2.0, 0.0, 5.0]]))
        with pytest.raises(ValidationError, match="neighborhood size K must be an int >= 1"):
            ItemCfModel(ds.items_by_user(with_ratings=True), K=k, n_items=3)
        if k is not None:
            with pytest.raises(ValidationError, match="neighborhood size K"):
                itemcf_similarity(ds, k=k)

    def test_numpy_int_neighbourhood_size_accepted(self):
        model = ItemCfModel([{0: 3.0}, {0: 1.0, 1: 2.0}], K=np.int64(1), n_items=2)
        assert model.recommend(0, 1) == [(1, 3.0)]

    def test_fields_cannot_be_assigned(self):
        model = ItemCfModel([{0: 3.0}, {}], K=1, n_items=2)
        for name, value in (("K", 2), ("ratings", [{}, {}]), ("n_items", 3), ("raters", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)

    def test_weights_are_derived_once_and_fresh_after_replace(self):
        # scoring counts co-occurrences through the item -> users index,
        # which is built once per model and follows a replaced model's ratings
        model = ItemCfModel([{0: 3.0, 1: 4.0}, {0: 2.0}], K=1, n_items=3)
        assert model.raters is model.raters
        assert [users.tolist() for users in model.raters] == [[0, 1], [0], []]
        ratings = [{0: 3.0, 2: 4.0}, {1: 2.0}]
        replaced = dataclasses.replace(model, ratings=ratings)
        fresh = ItemCfModel(ratings, K=1, n_items=3)
        assert [users.tolist() for users in replaced.raters] == \
            [users.tolist() for users in fresh.raters] == [[0], [1], [0]]
        assert [users.tolist() for users in model.raters] == [[0, 1], [0], []]
        assert weights(model).tolist() == [[0.0, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        for u in range(2):
            assert replaced.scores(u, np.arange(3)).tolist() == \
                fresh.scores(u, np.arange(3)).tolist()


class TestItemCfPredict:
    def overlap_fixture(self):
        # w[X, Y] = 0.5; user "a" rated only Y with 4.0
        triples = [
            ("a", "Y", 4.0),
            ("b", "X", 3.0),
            ("c", "X", 2.0),
            ("c", "Y", 5.0),
        ]
        return RatingDataset(triples)

    def test_single_overlap_term(self):
        ds = self.overlap_fixture()
        model = itemcf_similarity(ds)
        assert itemcf_predict(model, 0, 0) == 0.5 * 4.0

    def test_user_with_no_ratings_scores_zero(self):
        ds = RatingDataset(
            [("a", "x", 3.0), ("a", "y", 4.0)],
            user_index={"a": 0, "b": 1},
        )
        model = itemcf_similarity(ds)
        info = itemcf_predict_with_info(model, 1, 0)
        assert info.value == 0.0
        assert info.empty_neighborhood

    def test_degenerate_weights_sum_user_ratings(self):
        # everyone rated everything but (u0, item0), so all weights are 1
        dense = np.array([[0.0, 2.0, 3.0], [4.0, 5.0, 1.0], [2.0, 2.0, 2.0]])
        ds = dataset_from_dense(dense)
        model = itemcf_similarity(ds)
        assert itemcf_predict(model, 0, 0) == 2.0 + 3.0

    def test_neighborhood_cut(self):
        # item 2 is more similar to 1 than to 0; K=1 keeps only item 1
        dense = np.array(
            [[3.0, 3.0, 3.0], [0.0, 3.0, 3.0], [3.0, 0.0, 3.0], [3.0, 3.0, 0.0]]
        )
        ds = dataset_from_dense(dense)
        wide = itemcf_similarity(ds)
        narrow = itemcf_similarity(ds, k=1)
        assert narrow.K == 1
        full = itemcf_predict(wide, 3, 2)
        cut = itemcf_predict(narrow, 3, 2)
        assert cut == weights(wide)[2, 1] * 3.0
        assert cut < full

    def test_recommend_ranks_unrated(self):
        ds = self.overlap_fixture()
        model = itemcf_similarity(ds)
        recs = model.recommend(0, 2)
        assert recs[0][0] == 0
        assert recs == [(0, 2.0)]

    def test_index_errors(self):
        ds = self.overlap_fixture()
        model = itemcf_similarity(ds)
        with pytest.raises(IndexError):
            itemcf_predict(model, 9, 0)
        with pytest.raises(IndexError):
            itemcf_predict(model, 0, 9)


class TestItemCfNeighbours:
    def test_target_never_takes_a_slot(self):
        # user 1 rates items 0 and 1, so W[0] ranks item 1 first, then
        # items 0 and 2 tie at 0; with K = 2 the two neighbours of item 0
        # are 1 and 2, so user 0's rating of item 2 is summed (at weight
        # 0). Item 0 used to take the slot.
        model = ItemCfModel([{2: 4.0}, {0: 1.0, 1: 1.0}], K=2, n_items=3)
        assert weights(model)[0].tolist() == [0.0, 1.0, 0.0]
        info = itemcf_predict_with_info(model, 0, 0)
        assert (info.value, info.used, info.empty_neighborhood) == (0.0, 1, False)
        assert type(info.value) is float and type(info.used) is int
        assert type(info.empty_neighborhood) is bool

    @staticmethod
    def brute_scores(model, u):
        """Each item's score by the rule, one Python float term at a time
        in rated-item order, from a neighbour list sorted in Python."""
        n = model.n_items
        row = slice(*model.ratings.offsets[u:u + 2])
        rated = list(zip(model.ratings.items[row].tolist(),
                         model.ratings.values[row].tolist()))
        out = []
        oracle = weights(model)
        for j in range(n):
            w = oracle[j].tolist()
            near = set(sorted((i for i in range(n) if i != j),
                              key=lambda i: (-w[i], i))[:model.K])
            value = 0.0
            for i, r in rated:
                if i in near:
                    value += w[i] * r
            out.append(value)
        return np.array(out)

    @pytest.mark.parametrize("k", [1, 2, 5, None])
    def test_scores_equal_a_brute_force_loop_bit_for_bit(self, k):
        ds, _ = make_rank2_ratings(m=12, n=9, density=0.4, seed=8)
        model = itemcf_similarity(ds, k=k)
        assert model.K == (k or ds.n_items - 1)
        for u in range(ds.n_users):
            got = model.scores(u, np.arange(ds.n_items))
            assert got.view(np.int64).tolist() == \
                self.brute_scores(model, u).view(np.int64).tolist()


def w_predictions(model, u, items):
    """itemcf_predictions as it was before the co-occurrence paths: every
    K reads the candidates' rows of the whole W, the oracle's."""
    items = np.asarray(items, dtype=np.int64)
    w = weights(model)
    blocks = np.split(items, range(SORT_ROWS, items.size, SORT_ROWS))
    neighbors = np.concatenate([neighbours(w[b], b, model.K) for b in blocks])
    value = np.zeros(items.size)
    used = np.zeros(items.size, dtype=np.int64)
    row = slice(*model.ratings.offsets[u:u + 2])
    for i, r in zip(model.ratings.items[row].tolist(),
                    model.ratings.values[row].tolist()):
        hit = neighbors[:, i]
        value[hit] += w[items[hit], i] * r
        used += hit
    return value, used


@st.composite
def itemcf_cases(draw):
    """(model, candidates): an itemcf model with K in 1 ... n + 1, on both
    sides of n - 1, trained on up to 7 users and 9 items, explicit (ratings
    in [-5, 5]) or implicit, whose cells may repeat a pair (as a bootstrap
    resample does, held once with its last rating), leave items unrated
    and users without items, or give one user every item; and a candidate
    list that may repeat items and may pass SORT_ROWS, so that it spans
    more than one block of co-occurrence rows."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["explicit", "implicit"]))
    # negative ratings make -0.0 terms, whose sum must stay 0.0
    rating = st.floats(-5, 5) if kind == "explicit" else st.sampled_from([0.0, 1.0])
    cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), rating),
                          min_size=1, max_size=3 * n))
    if draw(st.booleans()):
        u = draw(st.integers(0, m - 1))
        cells += [(u, i, 1.0) for i in range(n)]
    ds = RatingDataset([(f"u{u}", f"i{i}", r) for u, i, r in cells], kind=kind, scale=(-5, 5),
                       user_index={f"u{u}": u for u in range(m)},
                       item_index={f"i{i}": i for i in range(n)}, allow_duplicate_pairs=True)
    model = itemcf_similarity(ds, k=draw(st.integers(1, n + 1)))
    return model, draw(st.lists(st.integers(0, n - 1), max_size=SORT_ROWS + 8))


class TestItemCfColumns:
    """Scores from the co-occurrence counts, for every K, equal the scores
    from the rows of the whole W, bit for bit: the neighbours that rank
    the integer counts, the sums of the candidates' rows and of the
    columns of the user's items, the sign of a zero and the counts used."""

    @settings(max_examples=200, deadline=None)
    @given(case=itemcf_cases())
    @example(case=(ItemCfModel([{0: 2.0}, {}], K=1, n_items=1), [0, 0]))
    def test_columns_equal_the_rows_of_w(self, case):
        model, candidates = case
        every = np.arange(model.n_items)
        for u in range(model.n_users):
            for items in (every, np.array(candidates, dtype=np.int64)):
                value, used = w_predictions(model, u, items)
                got, got_used = itemcf_predictions(model, u, items)
                assert got.view(np.int64).tolist() == value.view(np.int64).tolist()
                assert got_used.dtype == used.dtype and got_used.tolist() == used.tolist()
                assert model.scores(u, items).view(np.int64).tolist() == \
                    value.view(np.int64).tolist()
            value, used = w_predictions(model, u, every)
            for j in every.tolist():
                info = itemcf_predict_with_info(model, u, j)
                assert (info.value, info.used, info.empty_neighborhood) == \
                    (value[j], used[j], used[j] == 0)
                assert math.copysign(1.0, info.value) == math.copysign(1.0, value[j])
            unseen = np.delete(every, model.seen(u))
            assert model.recommend(u, model.n_items) == \
                top_k(unseen, value[unseen], model.n_items)


class TestSvdppPredict:
    def test_all_zero_model_returns_global_mean(self):
        model = svdpp_model(
            np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), mu=3.4,
            n_sets=[np.array([0]), np.array([]), np.array([1, 2])],
        )
        assert all(
            svdpp_predict(model, u, i) == 3.4 for u in range(3) for i in range(4)
        )

    def test_zero_y_reduces_to_biased_inner_product(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(2, 3))
        q = rng.normal(size=(2, 4))
        b_u = rng.normal(size=3)
        b_i = rng.normal(size=4)
        model = svdpp_model(p, q, np.zeros((2, 4)), mu=3.0, b_u=b_u, b_i=b_i,
                            n_sets=[np.array([0, 1])] * 3)
        for u in range(3):
            for i in range(4):
                want = 3.0 + b_u[u] + b_i[i] + float(np.dot(p[:, u], q[:, i]))
                assert svdpp_predict(model, u, i) == pytest.approx(want, abs=1e-12)

    def test_worked_substitution(self):
        model = svdpp_model(
            [[0.5, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.3], [0.0, 0.0]],
            mu=3.0,
            b_u=[0.1, 0.0],
            b_i=[-0.2, 0.0],
            n_sets=[np.array([1]), np.array([])],
        )
        assert svdpp_predict(model, 0, 0) == pytest.approx(3.7, abs=1e-12)

    def test_implicit_term_empty_set_is_zero(self):
        model = svdpp_model(np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 2)),
                            n_sets=[np.array([])])
        assert svdpp_implicit_predict(model, 0, 0) == 0.0

    def test_implicit_term_single_item(self):
        model = svdpp_model(
            np.zeros((2, 1)),
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 2.0], [0.0, 5.0]],
            n_sets=[np.array([1])],
        )
        assert svdpp_implicit_predict(model, 0, 0) == 2.0

    def test_implicit_term_linear_in_y(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(2, 3))
        base = svdpp_model(np.zeros((2, 2)), rng.normal(size=(2, 3)), y,
                           n_sets=[np.array([0, 2]), np.array([1])])
        double = svdpp_model(base.P, base.Q, 2.0 * y, n_sets=base.N)
        for u in range(2):
            for i in range(3):
                assert svdpp_implicit_predict(double, u, i) == pytest.approx(
                    2.0 * svdpp_implicit_predict(base, u, i), abs=1e-12
                )

    def test_invariant_to_item_set_order(self):
        rng = np.random.default_rng(9)
        model = svdpp_model(
            rng.normal(size=(3, 2)), rng.normal(size=(3, 5)),
            rng.normal(size=(3, 5)), mu=3.0,
            b_u=rng.normal(size=2), b_i=rng.normal(size=5),
            n_sets=[np.array([0, 1, 3, 4]), np.array([2, 3])],
        )
        want = svdpp_predict(model, 0, 1)
        for trial in range(5):
            shuffled = model.N[0].copy()
            rng.shuffle(shuffled)
            other = svdpp_model(model.P, model.Q, model.Y, mu=model.mu,
                                b_u=model.b_u, b_i=model.b_i,
                                n_sets=[shuffled, model.N[1]])
            assert svdpp_predict(other, 0, 1) == pytest.approx(want, abs=1e-12)

    def test_cold_start_paths(self):
        model = svdpp_model(
            [[0.5]], [[1.0]], [[0.2]], mu=3.0, b_u=[0.1], b_i=[-0.2],
            n_sets=[np.array([0])],
        )
        unknown_user = svdpp_predict_with_info(model, 7, 0)
        assert unknown_user.value == pytest.approx(3.0 - 0.2)
        assert unknown_user.cold_user and not unknown_user.cold_item
        unknown_item = svdpp_predict_with_info(model, 0, 7)
        assert unknown_item.value == pytest.approx(3.0 + 0.1)
        assert unknown_item.cold_item and not unknown_item.cold_user
        both = svdpp_predict_with_info(model, 7, 7)
        assert both.value == 3.0 and both.cold_user and both.cold_item


class TestSvdppLoss:
    def random_model(self, rng):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        f = int(rng.integers(1, 4))
        sets = []
        for _ in range(m):
            size = int(rng.integers(0, n + 1))
            sets.append(np.sort(rng.choice(n, size=size, replace=False)))
        return svdpp_model(
            0.5 * rng.normal(size=(f, m)),
            0.5 * rng.normal(size=(f, n)),
            0.5 * rng.normal(size=(f, n)),
            mu=float(rng.uniform(2, 4)),
            b_u=0.3 * rng.normal(size=m),
            b_i=0.3 * rng.normal(size=n),
            n_sets=sets,
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            model = self.random_model(rng)
            m, n = model.n_users, model.n_items
            lam = float(rng.uniform(0.0, 0.5))
            triples = [
                (int(rng.integers(m)), int(rng.integers(n)), float(rng.uniform(1, 5)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            grads = svdpp_loss_gradient(model, triples, lam)
            loss = lambda: svdpp_loss(model, triples, lam)
            for name, tensor in [
                ("b_u", model.b_u), ("b_i", model.b_i),
                ("P", model.P), ("Q", model.Q), ("Y", model.Y),
            ]:
                np.testing.assert_allclose(
                    grads[name], finite_difference(loss, tensor),
                    rtol=1e-4, atol=1e-8, err_msg=name,
                )


class TestSvdppTrain:
    def test_one_step_moves_against_gradient(self):
        ds = RatingDataset([("a", "x", 4.0)], scale=(1.0, 5.0))
        cfg = TrainConfig(f=2, alpha=0.1, lam=0.0, epochs=1, seed=13)
        model = svdpp_train(ds, cfg)

        rng = np.random.default_rng(cfg.seed)
        root = math.sqrt(cfg.f)
        p0 = (rng.random((1, 2)) / root).T.copy()
        q0 = (rng.random((1, 2)) / root).T.copy()
        y0 = (rng.random((1, 2)) / root).T.copy()
        start = svdpp_model(p0, q0, y0, mu=4.0, n_sets=[np.array([0])])
        grads = svdpp_loss_gradient(start, [(0, 0, 4.0)], cfg.lam)
        half = cfg.alpha / 2.0
        np.testing.assert_allclose(model.P - start.P, -half * grads["P"], atol=1e-12)
        np.testing.assert_allclose(model.Q - start.Q, -half * grads["Q"], atol=1e-12)
        np.testing.assert_allclose(model.Y - start.Y, -half * grads["Y"], atol=1e-12)
        np.testing.assert_allclose(model.b_u, -half * grads["b_u"], atol=1e-12)
        np.testing.assert_allclose(model.b_i, -half * grads["b_i"], atol=1e-12)

    def test_frozen_y_matches_biased_handcoded_loop(self):
        """With Y pinned at zero the trainer is exactly biased two-factor SGD."""
        ds, _ = make_rank2_ratings(m=8, n=6, density=0.8, seed=6)
        cfg = TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=4, seed=21)
        model = svdpp_train(ds, cfg, freeze_y=True)

        users, items, ratings = ds.indexed()
        mu = float(ratings.mean())
        rng = np.random.default_rng(cfg.seed)
        root = math.sqrt(cfg.f)
        pt = rng.random((ds.n_users, cfg.f)) / root
        qt = rng.random((ds.n_items, cfg.f)) / root
        b_u = np.zeros(ds.n_users)
        b_i = np.zeros(ds.n_items)
        trace = []
        for _ in range(cfg.epochs):
            for t in range(len(users)):
                u = users[t]
                i = items[t]
                p = pt[u].copy()
                q = qt[i].copy()
                err = ratings[t] - (mu + b_u[u] + b_i[i] + float(np.dot(q, p)))
                b_u[u] = b_u[u] + cfg.alpha * (err - cfg.lam * b_u[u])
                b_i[i] = b_i[i] + cfg.alpha * (err - cfg.lam * b_i[i])
                pt[u] = p + cfg.alpha * (err * q - cfg.lam * p)
                qt[i] = q + cfg.alpha * (err * p - cfg.lam * q)
            preds = (
                mu + b_u[users] + b_i[items]
                + np.einsum("tf,tf->t", pt[users], qt[items])
            )
            trace.append(float(np.sqrt(np.mean((ratings - preds) ** 2))))
        assert np.array_equal(model.P, pt.T)
        assert np.array_equal(model.Q, qt.T)
        assert np.array_equal(model.b_u, b_u)
        assert np.array_equal(model.b_i, b_i)
        assert np.all(model.Y == 0.0)
        assert model.trace == trace

    def test_heldout_rmse_on_synthetic_generator(self):
        ds, _ = make_svdpp_ratings(m=30, n=20, density=0.7, seed=3)
        train, test = split(ds, 0.2, seed=11)
        cfg = TrainConfig(f=2, alpha=0.02, lam=0.005, epochs=200, seed=42)
        model = svdpp_train(train, cfg)
        assert heldout_rmse(lambda u, i: svdpp_predict(model, u, i), test) < 0.15

    def test_seed_determinism(self):
        ds, _ = make_svdpp_ratings(m=8, n=6, density=0.8, seed=5)
        cfg = TrainConfig(f=2, epochs=3, seed=2)
        a = svdpp_train(ds, cfg)
        b = svdpp_train(ds, cfg)
        for field in ("P", "Q", "Y", "b_u", "b_i"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_divergence_names_epoch(self):
        ds, _ = make_svdpp_ratings(m=8, n=6, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=8.0, lam=0.0, epochs=40, seed=2)
        with pytest.raises(DivergenceError) as info:
            svdpp_train(ds, cfg)
        assert info.value.epoch is not None

    def test_zero_epochs_keeps_init(self):
        ds, _ = make_svdpp_ratings(m=5, n=4, density=0.9, seed=5)
        model = svdpp_train(ds, TrainConfig(f=2, epochs=0, seed=3))
        _, _, ratings = ds.indexed()
        assert model.mu == float(ratings.mean())
        assert np.all(model.b_u == 0.0) and np.all(model.b_i == 0.0)
        assert model.trace == []

    def test_implicit_dataset_rejected(self):
        ds = RatingDataset([("a", "x", 1.0)], kind="implicit")
        with pytest.raises(ValidationError):
            svdpp_train(ds, TrainConfig())


class TestRunEpochs:
    def test_gradient_error_names_the_epoch_from_first(self):
        passes = []

        def visit():
            passes.append(len(passes))
            if len(passes) == 3:
                raise GradientError("non-finite gradient")

        with pytest.raises(DivergenceError, match="epoch 12") as info:
            run_epochs(TrainConfig(epochs=5), visit, lambda: 0.5, first=10)
        assert info.value.epoch == 12
        assert isinstance(info.value.__cause__, GradientError)
        assert passes == [0, 1, 2]

    def test_non_finite_loss_names_the_epoch(self):
        losses = iter([1.0, math.inf])
        with pytest.raises(DivergenceError, match="non-finite values") as info:
            run_epochs(TrainConfig(epochs=4), lambda: None, lambda: next(losses))
        assert info.value.epoch == 1

    def test_trace_and_silent_overflow(self):
        def visit():
            assert np.float64(1e308) * 10.0 == math.inf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_epochs(TrainConfig(epochs=3), visit, lambda: 2.0)
        assert trace == [2.0, 2.0, 2.0]
        assert run_epochs(TrainConfig(epochs=0), visit, lambda: 2.0) == []


class TestDivergenceEpoch:
    """DivergenceError.epoch is the 0-based index of the failing epoch."""

    @pytest.mark.parametrize("strategy", ["all", "sequential"])
    @pytest.mark.parametrize("alpha, epoch", [(0.3, 1), (5.0, 0)])
    def test_funk(self, alpha, epoch, strategy):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=alpha, lam=0.0, epochs=50, seed=9,
                          strategy=strategy)
        with pytest.raises(DivergenceError) as info:
            funk_train(ds, cfg)
        assert info.value.epoch == epoch

    def test_svdpp_first_epoch(self):
        ds, _ = make_svdpp_ratings(m=8, n=6, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=8.0, lam=0.0, epochs=40, seed=2)
        with pytest.raises(DivergenceError) as info:
            svdpp_train(ds, cfg)
        assert info.value.epoch == 0

    def test_sequential_funk_raises_without_a_warning(self):
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=0.3, lam=0.0, epochs=50, seed=9,
                          strategy="sequential")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                funk_train(ds, cfg)


class TestEpochLossOverflow:
    def test_funk_loss_overflow_raises_without_a_warning(self):
        # the epoch-2 RMSE overflows before any error turns non-finite
        ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
        cfg = TrainConfig(f=2, alpha=0.5, lam=0.0, epochs=50, seed=9,
                          optimizer="momentum")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                funk_train(ds, cfg)
        assert info.value.epoch == 2
