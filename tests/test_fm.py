"""Tests for the factorization machines, the field-aware variant, and the
feature encoder."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentrec import optim
from latentrec.data import split
from latentrec.errors import (
    DivergenceError,
    EncodingError,
    ShapeError,
    ValidationError,
)
from latentrec.factor import TrainConfig, funk_predict, funk_train
from latentrec.fm import (
    ColumnSpec,
    EncoderSpec,
    FeatureVector,
    FfmModel,
    FmGradient,
    FmModel,
    SampleBatch,
    encode,
    ffm_gradient,
    ffm_predict,
    ffm_train,
    fm_gradient,
    fm_predict_fast,
    fm_predict_naive,
    fm_train,
    one_hot_layout,
)
from tests.conftest import make_rank2_ratings


def fm_model(w0=0.0, w=(0.0,), v=((0.0,),)):
    v = np.asarray(v, dtype=float)
    return FmModel(w0=w0, w=np.asarray(w, dtype=float), V=v, k=v.shape[1])


def random_fm(rng, n, k):
    return FmModel(
        w0=float(rng.normal()),
        w=rng.normal(size=n),
        V=rng.normal(size=(n, k)),
        k=k,
    )


def random_input(rng, n, dense=False):
    if dense:
        return rng.normal(size=n)
    mask = rng.random(n) < 0.4
    if not mask.any():
        mask[rng.integers(n)] = True
    x = np.where(mask, rng.normal(size=n), 0.0)
    return FeatureVector.from_dense(x)


class TestFeatureVector:
    def test_from_dense_drops_zeros(self):
        x = FeatureVector.from_dense([0.0, 2.0, 0.0, -1.0])
        assert x.indices.tolist() == [1, 3]
        assert x.values.tolist() == [2.0, -1.0]
        assert x.n == 4 and x.nnz == 2

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=[2, 1], values=[1.0, 1.0], n=3)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=[1, 1], values=[1.0, 1.0], n=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=[0, 3], values=[1.0, 1.0], n=3)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=[0], values=[np.inf], n=2)

    def test_fields_must_align(self):
        with pytest.raises(ShapeError):
            FeatureVector(indices=[0, 1], values=[1.0, 1.0], n=3, fields=[0])


class TestFmPredictNaive:
    def test_all_zero_input_gives_bias(self):
        model = fm_model(w0=0.7, w=[1.0, 2.0], v=[[0.5], [0.5]])
        assert fm_predict_naive(model, [0.0, 0.0]) == 0.7

    def test_single_feature_has_no_pair_term(self):
        model = fm_model(w0=0.5, w=[2.0, 3.0], v=[[9.0], [9.0]])
        assert fm_predict_naive(model, [0.0, 4.0]) == 0.5 + 3.0 * 4.0

    def test_hand_enumerated_pairs(self):
        model = fm_model(w0=0.0, w=[0.0, 0.0, 0.0], v=[[1.0], [2.0], [3.0]])
        assert fm_predict_naive(model, [1.0, 1.0, 1.0]) == 11.0

    def test_dimension_mismatch(self):
        model = fm_model(w=[1.0, 2.0], v=[[0.5], [0.5]])
        with pytest.raises(ShapeError):
            fm_predict_naive(model, [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            fm_predict_naive(model, FeatureVector(indices=[0], values=[1.0], n=5))


class TestFmPredictFast:
    def test_matches_naive_on_worked_examples(self):
        cases = [
            (fm_model(w0=0.7, w=[1.0, 2.0], v=[[0.5], [0.5]]), [0.0, 0.0]),
            (fm_model(w0=0.5, w=[2.0, 3.0], v=[[9.0], [9.0]]), [0.0, 4.0]),
            (fm_model(w=[0.0, 0.0, 0.0], v=[[1.0], [2.0], [3.0]]), [1.0, 1.0, 1.0]),
        ]
        for model, x in cases:
            assert fm_predict_fast(model, x) == fm_predict_naive(model, x)

    def test_identity_on_random_instances(self):
        """The linear-time evaluator agrees with the double-loop oracle."""
        rng = np.random.default_rng(20)
        for trial in range(1000):
            n = int(rng.integers(2, 65))
            k = int(rng.integers(1, 9))
            model = random_fm(rng, n, k)
            x = random_input(rng, n, dense=trial % 4 == 0)
            naive = fm_predict_naive(model, x)
            fast = fm_predict_fast(model, x)
            assert abs(fast - naive) <= 1e-10 * (1.0 + abs(naive))

    def test_sparse_inputs_ignore_the_empty_dimensions(self):
        rng = np.random.default_rng(3)
        n = 10 ** 6
        model = FmModel(w0=0.1, w=np.zeros(n), V=rng.random((n, 2)), k=2)
        model.w[[5, 999, 500000]] = (1.0, 2.0, 3.0)
        x = FeatureVector(indices=[5, 999, 500000], values=[1.0, -2.0, 0.5], n=n)
        fast = fm_predict_fast(model, x)
        naive = fm_predict_naive(model, x)
        assert abs(fast - naive) <= 1e-10 * (1.0 + abs(naive))

    def test_linear_in_bias_and_weights(self):
        rng = np.random.default_rng(6)
        model = random_fm(rng, 6, 3)
        x = random_input(rng, 6)
        base = fm_predict_fast(model, x)
        bumped = FmModel(w0=model.w0 + 2.5, w=model.w, V=model.V, k=model.k)
        assert fm_predict_fast(bumped, x) == pytest.approx(base + 2.5, abs=1e-10)
        w2 = model.w.copy()
        w2[x.indices[0]] += 1.5
        moved = FmModel(w0=model.w0, w=w2, V=model.V, k=model.k)
        assert fm_predict_fast(moved, x) == pytest.approx(
            base + 1.5 * x.values[0], abs=1e-10
        )


class TestFmGradient:
    def test_bias_slope_is_always_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            model = random_fm(rng, 5, 2)
            assert fm_gradient(model, random_input(rng, 5)).w0 == 1.0

    def test_zero_input_has_only_bias_slope(self):
        model = fm_model(w=[1.0, 1.0], v=[[1.0], [1.0]])
        grad = fm_gradient(model, [0.0, 0.0])
        assert grad.w0 == 1.0 and grad.indices.size == 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, 5))
            model = random_fm(rng, n, k)
            x = random_input(rng, n)
            grad = fm_gradient(model, x)

            model.w0 += h
            up = fm_predict_fast(model, x)
            model.w0 -= 2 * h
            down = fm_predict_fast(model, x)
            model.w0 += h
            assert abs(grad.w0 - (up - down) / (2 * h)) <= 1e-6

            for a, i in enumerate(grad.indices):
                orig = model.w[i]
                model.w[i] = orig + h
                up = fm_predict_fast(model, x)
                model.w[i] = orig - h
                down = fm_predict_fast(model, x)
                model.w[i] = orig
                fd = (up - down) / (2 * h)
                assert abs(grad.w[a] - fd) <= 1e-6 * (1.0 + abs(fd))
                for f in range(k):
                    orig = model.V[i, f]
                    model.V[i, f] = orig + h
                    up = fm_predict_fast(model, x)
                    model.V[i, f] = orig - h
                    down = fm_predict_fast(model, x)
                    model.V[i, f] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(grad.v[a, f] - fd) <= 1e-6 * (1.0 + abs(fd))


class TestFfmPredict:
    def test_shared_latents_collapse_to_fm(self):
        rng = np.random.default_rng(9)
        fm = random_fm(rng, 6, 3)
        shared = np.repeat(fm.V[:, None, :], 2, axis=1)
        ffm = FfmModel(w0=fm.w0, w=fm.w, V=shared, k=3, n_fields=2)
        x = random_input(rng, 6)
        fx = FeatureVector(x.indices, x.values, x.n,
                           fields=np.array([i % 2 for i in range(x.nnz)]))
        assert ffm_predict(ffm, fx) == pytest.approx(
            fm_predict_naive(fm, x), abs=1e-10
        )

    def test_single_field_equals_fm(self):
        rng = np.random.default_rng(10)
        fm = random_fm(rng, 5, 2)
        ffm = FfmModel(w0=fm.w0, w=fm.w, V=fm.V[:, None, :], k=2, n_fields=1)
        x = random_input(rng, 5)
        fx = FeatureVector(x.indices, x.values, x.n,
                           fields=np.zeros(x.nnz, dtype=int))
        assert ffm_predict(ffm, fx) == pytest.approx(
            fm_predict_naive(fm, x), abs=1e-12
        )

    def test_hand_enumerated_fields(self):
        v = np.zeros((3, 2, 1))
        v[0, 0, 0], v[0, 1, 0] = 1.0, 3.0
        v[1, 0, 0], v[1, 1, 0] = 2.0, 4.0
        v[2, 0, 0], v[2, 1, 0] = 3.0, 5.0
        model = FfmModel(w0=0.0, w=np.zeros(3), V=v, k=1, n_fields=2)
        x = FeatureVector(indices=[0, 1, 2], values=[1.0, 1.0, 1.0], n=3,
                          fields=[0, 1, 1])
        # pairs: (0,1) 3*2, (0,2) 3*3, (1,2) 4*5
        assert ffm_predict(model, x) == 6.0 + 9.0 + 20.0

    def test_model_predict_is_ffm_predict(self):
        rng = np.random.default_rng(11)
        model = FfmModel(w0=0.5, w=rng.normal(size=4), V=rng.normal(size=(4, 2, 3)), k=3,
                         n_fields=2)
        x = FeatureVector(indices=[0, 2, 3], values=[1.0, 0.5, 2.0], n=4, fields=[0, 1, 1])
        assert model.predict(x) == ffm_predict(model, x)

    def test_missing_field_ids_rejected(self):
        model = FfmModel(w0=0.0, w=np.zeros(2), V=np.zeros((2, 1, 1)), k=1,
                         n_fields=1)
        with pytest.raises(EncodingError):
            ffm_predict(model, FeatureVector(indices=[0], values=[1.0], n=2))

    def test_field_id_out_of_range_rejected(self):
        model = FfmModel(w0=0.0, w=np.zeros(2), V=np.zeros((2, 1, 1)), k=1,
                         n_fields=1)
        x = FeatureVector(indices=[0], values=[1.0], n=2, fields=[4])
        with pytest.raises(EncodingError):
            ffm_predict(model, x)


class TestFfmGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(50):
            n, n_fields, k = 6, 3, int(rng.integers(1, 4))
            model = FfmModel(
                w0=float(rng.normal()),
                w=rng.normal(size=n),
                V=rng.normal(size=(n, n_fields, k)),
                k=k,
                n_fields=n_fields,
            )
            x = random_input(rng, n)
            fx = FeatureVector(x.indices, x.values, n,
                               fields=rng.integers(0, n_fields, size=x.nnz))
            grad = ffm_gradient(model, fx)
            for a, i in enumerate(grad.indices):
                for f in range(n_fields):
                    for c in range(k):
                        orig = model.V[i, f, c]
                        model.V[i, f, c] = orig + h
                        up = ffm_predict(model, fx)
                        model.V[i, f, c] = orig - h
                        down = ffm_predict(model, fx)
                        model.V[i, f, c] = orig
                        fd = (up - down) / (2 * h)
                        assert abs(grad.v[a, f, c] - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_same_gradient_type_as_plain_machine(self):
        model = FfmModel(w0=0.0, w=np.zeros(4), V=np.ones((4, 2, 3)), k=3,
                         n_fields=2)
        x = FeatureVector([0, 2], [1.0, 2.0], 4, fields=[0, 1])
        grad = ffm_gradient(model, x)
        assert type(grad) is FmGradient
        assert grad.v.shape == (2, 2, 3)
        assert type(fm_gradient(FmModel(0.0, np.zeros(4), np.ones((4, 3)), 3),
                                x)) is FmGradient


class TestFmTrain:
    def ctr_samples(self):
        """Linearly separable two-feature set with a unit margin."""
        rng = np.random.default_rng(4)
        samples = []
        while len(samples) < 26:
            a, b = rng.uniform(-2, 2, size=2)
            if abs(a - b) < 1.0:
                continue
            x = FeatureVector(indices=[0, 1], values=[a, b], n=2)
            samples.append((x, 1.0 if a - b > 0 else 0.0))
        return samples

    def test_zero_epochs_returns_untouched_init(self):
        samples = self.ctr_samples()
        cfg = TrainConfig(f=3, epochs=0, seed=5)
        model = fm_train(samples, loss="squared", config=cfg)
        rng = np.random.default_rng(5)
        want = rng.random((2, 3)) / math.sqrt(3)
        assert model.w0 == 0.0
        assert np.all(model.w == 0.0)
        assert np.array_equal(model.V, want)
        assert model.trace == []

    def test_logistic_targets_validated(self):
        x = FeatureVector(indices=[0], values=[1.0], n=1)
        with pytest.raises(ValidationError):
            fm_train([(x, 0.5)], loss="logistic", config=TrainConfig(epochs=1))

    def test_unknown_loss_rejected(self):
        x = FeatureVector(indices=[0], values=[1.0], n=1)
        with pytest.raises(ValueError):
            fm_train([(x, 1.0)], loss="hinge", config=TrainConfig(epochs=1))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            fm_train([], loss="squared", config=TrainConfig(epochs=1))

    def test_mixed_dimensions_rejected(self):
        a = FeatureVector(indices=[0], values=[1.0], n=2)
        b = FeatureVector(indices=[0], values=[1.0], n=3)
        with pytest.raises(ShapeError):
            fm_train([(a, 1.0), (b, 2.0)], loss="squared",
                     config=TrainConfig(epochs=1))

    def test_separable_ctr_drives_logloss_down(self):
        cfg = TrainConfig(f=2, alpha=0.1, lam=0.0, epochs=100, seed=1)
        model = fm_train(self.ctr_samples(), loss="logistic", config=cfg)
        assert model.trace[-1] < 0.2

    def test_squared_loss_matches_funk_on_rank2_fixture(self):
        """One-hot user/item FM behaves like the plain factor trainer."""
        ds, _ = make_rank2_ratings()
        train, test = split(ds, 0.2, seed=7)
        spec = EncoderSpec([
            ("user", "categorical", sorted(ds.user_index)),
            ("item", "categorical", sorted(ds.item_index)),
        ])
        cache = {}

        def fv(u, i):
            if (u, i) not in cache:
                cache[(u, i)] = encode((u, i), spec)
            return cache[(u, i)]

        funk = funk_train(train, TrainConfig(f=2, alpha=0.01, lam=0.02,
                                             epochs=200, seed=42))
        tu, ti, tr = test.indexed()
        fp = np.array([funk_predict(funk, int(u), int(i)) for u, i in zip(tu, ti)])
        funk_rmse = float(np.sqrt(np.mean((tr - fp) ** 2)))

        samples = [(fv(u, i), r) for u, i, r in train.triples]
        fm = fm_train(samples, loss="squared",
                      config=TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=100,
                                         seed=42))
        preds = np.array([fm.predict(fv(u, i)) for u, i, _ in test.triples])
        truth = np.array([r for _, _, r in test.triples])
        fm_rmse = float(np.sqrt(np.mean((truth - preds) ** 2)))
        assert fm_rmse <= funk_rmse + 0.05

    def test_divergence_raises(self):
        samples = self.ctr_samples()
        cfg = TrainConfig(f=2, alpha=200.0, lam=0.0, epochs=100, seed=1)
        with pytest.raises(DivergenceError) as info:
            fm_train(samples, loss="squared", config=cfg)
        assert info.value.epoch is not None

    def test_divergence_epoch_is_zero_based(self):
        cfg = TrainConfig(f=2, alpha=200.0, lam=0.0, epochs=100, seed=1)
        with pytest.raises(DivergenceError) as info:
            fm_train(self.ctr_samples(), loss="squared", config=cfg)
        assert info.value.epoch == 0


class TestFfmTrain:
    def field_samples(self, rng, count=20, n=6, n_fields=3):
        field_map = np.array([i % n_fields for i in range(n)])
        samples = []
        for _ in range(count):
            x = rng.normal(size=n) * (rng.random(n) < 0.6)
            if not x.any():
                x[0] = 1.0
            fx = FeatureVector.from_dense(x, field_map=field_map)
            samples.append((fx, float(rng.uniform(1, 5))))
        return samples

    def test_zero_epochs_returns_untouched_init(self):
        rng = np.random.default_rng(2)
        samples = self.field_samples(rng)
        cfg = TrainConfig(f=2, epochs=0, seed=7)
        model = ffm_train(samples, loss="squared", config=cfg)
        want = np.random.default_rng(7).random((6, 3, 2)) / math.sqrt(2)
        assert np.array_equal(model.V, want)
        assert model.w0 == 0.0 and np.all(model.w == 0.0)

    def test_single_field_reproduces_fm_trajectory(self):
        """Collapsing every feature into one field recovers plain FM."""
        rng = np.random.default_rng(15)
        n = 5
        plain = []
        tagged = []
        for _ in range(12):
            x = rng.normal(size=n) * (rng.random(n) < 0.7)
            if not x.any():
                x[0] = 1.0
            y = float(rng.uniform(1, 5))
            plain.append((FeatureVector.from_dense(x), y))
            tagged.append((FeatureVector.from_dense(x, field_map=np.zeros(n, int)), y))
        cfg = TrainConfig(f=2, alpha=0.05, lam=0.01, epochs=3, seed=30)
        fm = fm_train(plain, loss="squared", config=cfg)
        ffm = ffm_train(tagged, loss="squared", config=cfg)
        np.testing.assert_allclose(ffm.V[:, 0, :], fm.V, atol=1e-12)
        np.testing.assert_allclose(ffm.w, fm.w, atol=1e-12)
        assert abs(ffm.w0 - fm.w0) <= 1e-12

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(16)
        samples = self.field_samples(rng, count=30)
        cfg = TrainConfig(f=2, alpha=0.02, lam=0.0, epochs=40, seed=3)
        model = ffm_train(samples, loss="squared", config=cfg)
        assert model.trace[-1] < model.trace[0]

    def test_needs_field_ids(self):
        x = FeatureVector(indices=[0], values=[1.0], n=2)
        with pytest.raises(EncodingError):
            ffm_train([(x, 1.0)], loss="squared", config=TrainConfig(epochs=1))


def batch_from(samples):
    """The SampleBatch of a list of (FeatureVector, target) pairs, by hand."""
    xs = [x for x, _ in samples]
    return SampleBatch(
        indices=np.concatenate([x.indices for x in xs]),
        values=np.concatenate([x.values for x in xs]),
        offsets=np.cumsum([0] + [x.nnz for x in xs]),
        targets=[y for _, y in samples],
        n=xs[0].n,
        fields=np.concatenate([x.fields for x in xs]),
    )


def mixed_samples(logistic):
    """Field-tagged samples with 0 to 4 nonzeros, one of them empty."""
    rng = np.random.default_rng(21)
    field_map = np.array([0, 0, 1, 1, 2, 2])
    samples = []
    for t in range(18):
        x = rng.normal(size=6) * (rng.random(6) < 0.5)
        if t == 5:
            x[:] = 0.0
        y = float(rng.random() < 0.5) if logistic else float(rng.uniform(1, 5))
        samples.append((FeatureVector.from_dense(x, field_map=field_map), y))
    return samples


def sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def hand_trained(samples, loss, config, machine):
    """Reference loop over the public checked predict, gradient and step."""
    trainer = fm_train if machine == "fm" else ffm_train
    model = trainer(samples, loss=loss,
                    config=TrainConfig(**{**config.__dict__, "epochs": 0}))
    predict = fm_predict_fast if machine == "fm" else ffm_predict
    gradient = fm_gradient if machine == "fm" else ffm_gradient
    w0 = np.array([model.w0])
    states = [
        optim.make_state(config.optimizer, p.shape, config.alpha)
        for p in (w0, model.w, model.V)
    ]
    trace = []
    for _ in range(config.epochs):
        for x, y in samples:
            pred = predict(model, x)
            slope = pred - y if loss == "squared" else sigmoid(pred) - y
            grad = gradient(model, x)
            optim.step(states[0], w0, np.array([slope * grad.w0]))
            if x.nnz:
                g_w = slope * grad.w + config.lam * model.w[x.indices]
                g_v = slope * grad.v + config.lam * model.V[x.indices]
                optim.step(states[1], model.w, g_w, rows=x.indices)
                optim.step(states[2], model.V, g_v, rows=x.indices)
            model.w0 = float(w0[0])
        losses = []
        for x, y in samples:
            p = predict(model, x)
            if loss == "squared":
                losses.append((y - p) ** 2)
            else:
                q = min(max(sigmoid(p), 1e-12), 1.0 - 1e-12)
                losses.append(-(y * math.log(q) + (1.0 - y) * math.log(1.0 - q)))
        trace.append(sum(losses) / len(samples))
    return model, trace


class TestSampleBatch:
    @pytest.mark.parametrize("machine", ["fm", "ffm"])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("kind", optim.KINDS)
    def test_batch_list_and_hand_loop_agree_bit_for_bit(self, machine, loss, kind):
        samples = mixed_samples(loss == "logistic")
        cfg = TrainConfig(f=2, alpha=0.05, lam=0.01, epochs=3, seed=8,
                          optimizer=kind)
        trainer = fm_train if machine == "fm" else ffm_train
        from_list = trainer(samples, loss=loss, config=cfg)
        from_batch = trainer(batch_from(samples), loss=loss, config=cfg)
        hand, trace = hand_trained(samples, loss, cfg, machine)
        for model in (from_batch, hand):
            assert np.array_equal(model.V, from_list.V)
            assert np.array_equal(model.w, from_list.w)
            assert model.w0 == from_list.w0
        assert from_batch.trace == from_list.trace == trace

    def test_pack_streams_a_generator(self):
        samples = mixed_samples(False)
        batch = SampleBatch.pack(pair for pair in samples)
        want = batch_from(samples)
        for name in ("indices", "values", "offsets", "targets", "fields"):
            assert np.array_equal(getattr(batch, name), getattr(want, name))
        assert batch.targets.size == len(samples) and batch.n == 6

    def test_pack_drops_fields_unless_every_sample_has_them(self):
        x = FeatureVector(indices=[0], values=[1.0], n=2, fields=[0])
        y = FeatureVector(indices=[1], values=[1.0], n=2)
        assert SampleBatch.pack([(x, 1.0), (y, 1.0)]).fields is None
        assert SampleBatch.pack([(x, 1.0), (x, 0.0)]).fields.tolist() == [0, 0]

    def test_ids_may_fall_between_rows(self):
        batch = SampleBatch(indices=[2, 3, 0, 1], values=[1.0] * 4,
                            offsets=[0, 2, 2, 4], targets=[1.0, 2.0, 3.0], n=4)
        model = fm_train(batch, config=TrainConfig(epochs=1))
        assert len(model.trace) == 1

    # each case spoils the first of two samples, or both targets
    BAD = {
        "out-of-range index": (ValidationError, "indices", [0, 3]),
        "non-increasing indices": (ValidationError, "indices", [2, 1]),
        "repeated index": (ValidationError, "indices", [1, 1]),
        "non-finite value": (ValidationError, "values", [1.0, np.nan]),
        "misaligned fields": (ShapeError, "fields", [0]),
        "logistic target": (ValidationError, "target", 0.5),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("trainer", [fm_train, ffm_train])
    def test_malformed_batch_raises_like_list(self, case, trainer):
        error, key, bad = self.BAD[case]
        rows = dict(indices=[[0, 1], [1, 2]], values=[[1.0, 2.0], [0.5, 1.0]],
                    fields=[[0, 1], [0, 1]], target=1.0)
        rows[key] = bad if key == "target" else [bad] + rows[key][1:]
        cfg = TrainConfig(f=2, epochs=1)
        with pytest.raises(error):
            pairs = [
                (FeatureVector(indices=i, values=v, n=3, fields=f), rows["target"])
                for i, v, f in zip(rows["indices"], rows["values"], rows["fields"])
            ]
            trainer(pairs, loss="logistic", config=cfg)
        with pytest.raises(error):
            batch = SampleBatch(
                indices=np.concatenate(rows["indices"]),
                values=np.concatenate(rows["values"]),
                offsets=[0, 2, 4],
                targets=[rows["target"]] * 2,
                n=3,
                fields=np.concatenate(rows["fields"]),
            )
            trainer(batch, loss="logistic", config=cfg)

    def test_offsets_checked(self):
        with pytest.raises(ShapeError):
            SampleBatch(indices=[0, 1], values=[1.0, 1.0], offsets=[0, 1],
                        targets=[1.0, 2.0], n=2)
        with pytest.raises(ShapeError):
            SampleBatch(indices=[0, 1], values=[1.0, 1.0], offsets=[0, 2, 1],
                        targets=[1.0, 2.0], n=2)
        with pytest.raises(ValidationError):
            SampleBatch(indices=[], values=[], offsets=[0], targets=[], n=2)

    def test_from_codes_equals_packing_encoded_records(self):
        spec = EncoderSpec([("user", "categorical", ["u1", "u2", "u3"]),
                            ("item", "categorical", ["a", "b"])])
        # "zz" is unseen and takes its block's reserved last index
        users, items = ["u3", "zz", "u1"], ["b", "a"]
        codes_u, codes_i = [0, 2, 1, 0], [1, 0, 0, 1]
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        batch = SampleBatch.from_codes(spec, [(users, np.array(codes_u)),
                                              (items, np.array(codes_i))],
                                       targets)
        want = SampleBatch.pack(
            (encode((users[u], items[i]), spec), y)
            for u, i, y in zip(codes_u, codes_i, targets)
        )
        for name in ("indices", "values", "offsets", "targets", "fields"):
            assert np.array_equal(getattr(batch, name), getattr(want, name))
        assert batch.indices.tolist()[:6] == [2, 4, 0, 5, 3, 5] and batch.n == 7

    def test_from_codes_needs_categorical_columns_matching_the_spec(self):
        spec = EncoderSpec([("user", "categorical", ["u1"]),
                            ("x", "numeric", None)])
        column = (["u1"], np.array([0]))
        with pytest.raises(EncodingError, match="columns"):
            SampleBatch.from_codes(spec, [column], [1.0])
        with pytest.raises(EncodingError, match="not categorical"):
            SampleBatch.from_codes(spec, [column, column], [1.0])

    def test_from_codes_keeps_the_columns_without_a_copy(self):
        # 20,000 rows: the CSR arrays would take 1.12 MB; the batch holds
        # the caller's columns and one feature index per token
        rng = np.random.default_rng(3)
        users, items = [f"u{j}" for j in range(500)], [f"i{j}" for j in range(300)]
        spec = one_hot_layout(users, items)
        codes_u, codes_i = rng.integers(0, 500, 20_000), rng.integers(0, 300, 20_000)
        targets = rng.random(20_000)
        tracemalloc.start()
        try:
            batch = SampleBatch.from_codes(spec, [(users, codes_u), (items, codes_i)], targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert np.shares_memory(batch.targets, targets)
        assert np.shares_memory(batch.codes[0], codes_u)
        assert np.shares_memory(batch.codes[1], codes_i)

    def test_from_codes_checks_the_codes(self):
        spec = EncoderSpec([("user", "categorical", ["u1", "u2"]),
                            ("item", "categorical", ["a"])])
        users, items = ["u1", "u2"], ["a"]
        for bad in ([0, 2], [-1, 0], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="codes"):
                SampleBatch.from_codes(spec, [(users, np.array(bad)),
                                              (items, np.array([0, 0]))], [1.0, 2.0])
        with pytest.raises(ShapeError):
            SampleBatch.from_codes(spec, [(users, np.array([0, 1])),
                                          (items, np.array([0]))], [1.0, 2.0])
        with pytest.raises(ValidationError, match="at least one"):
            SampleBatch.from_codes(spec, [(users, np.array([], dtype=int)),
                                          (items, np.array([], dtype=int))], [])

    def test_ffm_field_ids_checked_up_front(self):
        batch = SampleBatch(indices=[0, 1], values=[1.0, 1.0], offsets=[0, 2],
                            targets=[1.0], n=2, fields=[0, 2])
        with pytest.raises(EncodingError):
            ffm_train(batch, config=TrainConfig(epochs=0), n_fields=2)
        assert ffm_train(batch, config=TrainConfig(epochs=0)).n_fields == 3


class TestEncoder:
    def spec(self):
        return EncoderSpec([
            ("user", "categorical", ["u1", "u2", "u3", "u4"]),
            ("item", "categorical", ["a", "b"]),
            ("context", "numeric", None),
        ])

    def test_positional_one_hot(self):
        x = encode(("u2", "a", 0.5), self.spec())
        # user block [0..4], item block [5..7], numeric at 8
        assert x.indices.tolist() == [1, 5, 8]
        assert x.values.tolist() == [1.0, 1.0, 0.5]
        assert x.fields.tolist() == [0, 1, 2]
        assert x.n == 5 + 3 + 1

    def test_unseen_category_takes_reserved_index(self):
        x = encode(("nobody", "a", 1.0), self.spec())
        assert x.indices[0] == 4

    def test_zero_numeric_drops_out(self):
        x = encode(("u1", "b", 0.0), self.spec())
        assert x.indices.tolist() == [0, 6]

    def test_record_length_checked(self):
        with pytest.raises(EncodingError):
            encode(("u1", "a"), self.spec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EncoderSpec([])
        with pytest.raises(ValueError):
            EncoderSpec([("a", "categorical", None)])
        with pytest.raises(ValueError):
            EncoderSpec([("a", "blob", None)])
        with pytest.raises(ValueError):
            EncoderSpec([("a", "numeric", ("x",))])
        with pytest.raises(ValueError):
            EncoderSpec([("a", "categorical", ("x", "x"))])
        with pytest.raises(ValueError):
            EncoderSpec([("a", "numeric", None), ("a", "numeric", None)])

    def test_dimension_and_offsets(self):
        spec = self.spec()
        assert spec.dimension == 9
        assert spec.offsets() == [0, 5, 8]
        assert spec.n_fields == 3

    def test_column_width(self):
        assert ColumnSpec("u", "categorical", ("a", "b")).width == 3
        assert ColumnSpec("x", "numeric").width == 1

    def test_category_slots_stay_out_of_equality_and_repr(self):
        col = ColumnSpec("u", "categorical", ("b", "a"))
        assert col.slots == {"b": 0, "a": 1}
        assert "slots" not in repr(col)
        other = ColumnSpec("u", "categorical", ("b", "a"))
        other.slots = {}
        assert col == other


def trained_bits(train):
    """The bytes of every float of the machine train() returns, or the
    epoch its DivergenceError names."""
    try:
        model = train()
    except DivergenceError as exc:
        return ("diverged", exc.epoch)
    return (np.float64(model.w0).tobytes(), model.w.tobytes(), model.V.tobytes(),
            np.array(model.trace, dtype=float).tobytes())


def one_hot_records(draw, width, rows):
    """A spec of width categorical columns and (tokens, codes) columns of
    rows records, tokens in a drawn order with up to two unseen ones."""
    categories, columns = [], []
    for c in range(width):
        seen = [f"t{c}{j}" for j in range(draw(st.integers(1, 4)))]
        unseen = [f"x{c}{j}" for j in range(draw(st.integers(0, 2)))]
        tokens = draw(st.permutations(seen + unseen))
        codes = draw(st.lists(st.integers(0, len(tokens) - 1), min_size=rows, max_size=rows))
        categories.append(seen)
        columns.append((tokens, np.array(codes, dtype=np.int64)))
    spec = EncoderSpec([(f"c{c}", "categorical", seen) for c, seen in enumerate(categories)])
    return spec, columns


class TestOneHotTraining:
    """A from_codes batch trains like SampleBatch.pack of the encoded
    records; a two-column one takes the one-hot pair path."""

    @staticmethod
    def both_ways(trainer, spec, columns, targets, loss, cfg):
        batch = SampleBatch.from_codes(spec, columns, targets)
        packed = SampleBatch.pack(
            (encode([tokens[codes[r]] for tokens, codes in columns], spec), y)
            for r, y in enumerate(targets))
        return (trained_bits(lambda: trainer(batch, loss=loss, config=cfg)),
                trained_bits(lambda: trainer(packed, loss=loss, config=cfg)))

    @settings(max_examples=150, deadline=None)
    @given(
        trainer=st.sampled_from([fm_train, ffm_train]),
        loss=st.sampled_from(["squared", "logistic"]),
        optimizer=st.sampled_from(optim.KINDS),
        alpha=st.sampled_from([0.01, 0.1, 0.5, 4.0]),
        lam=st.sampled_from([0.0, 0.02]),
        width=st.sampled_from([2, 2, 2, 1, 3]),
        data=st.data(),
    )
    def test_from_codes_trains_like_packed_records(self, trainer, loss, optimizer,
                                                   alpha, lam, width, data):
        rows = data.draw(st.integers(1, 25))
        spec, columns = one_hot_records(data.draw, width, rows)
        target = st.sampled_from([0.0, 1.0]) if loss == "logistic" else st.floats(-5, 5)
        targets = data.draw(st.lists(target, min_size=rows, max_size=rows))
        cfg = TrainConfig(f=data.draw(st.integers(1, 3)), alpha=alpha, lam=lam,
                          epochs=data.draw(st.integers(1, 3)),
                          seed=data.draw(st.integers(0, 99)), optimizer=optimizer)
        got, want = self.both_ways(trainer, spec, columns, targets, loss, cfg)
        assert got == want

    @staticmethod
    def ratings():
        """40 ratings 1-5 of users u1-u3 and zz on items p-r, where user zz
        and item q are unseen and take their blocks' reserved indices."""
        rng = np.random.default_rng(2)
        spec = EncoderSpec([("user", "categorical", ["u1", "u2", "u3"]),
                            ("item", "categorical", ["p", "r"])])
        columns = [(["u1", "u2", "u3", "zz"], rng.integers(0, 4, 40)),
                   (["p", "q", "r"], rng.integers(0, 3, 40))]
        return spec, columns, rng.integers(1, 6, 40).astype(float)

    # learning rates at which each machine diverges after its first epoch
    # (the adaptive step is bounded by alpha, so it does not diverge here)
    @pytest.mark.parametrize("trainer, optimizer, alpha, epoch", [
        (fm_train, "sgd", 0.37, 2), (fm_train, "momentum", 0.5, 4),
        (ffm_train, "sgd", 0.4, 1), (ffm_train, "momentum", 0.5, 3),
    ])
    def test_divergence_at_the_same_epoch(self, trainer, optimizer, alpha, epoch):
        cfg = TrainConfig(f=2, alpha=alpha, epochs=6, seed=1, optimizer=optimizer)
        got, want = self.both_ways(trainer, *self.ratings(), "squared", cfg)
        assert got == want == ("diverged", epoch)

    def test_squared_error_past_the_float_range_diverges(self):
        # a finite prediction about 1e155 from its target: err ** 2 of
        # Python floats raised OverflowError from the epoch loss
        cfg = TrainConfig(f=2, alpha=0.4, epochs=6, seed=1)
        got, want = self.both_ways(fm_train, *self.ratings(), "squared", cfg)
        assert got == want == ("diverged", 0)
