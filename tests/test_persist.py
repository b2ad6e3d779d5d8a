"""Round-trip tests for the JSON model file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentrec import factor, svdcf
from latentrec.data import RatingDataset
from latentrec.ensemble import BlendModel, stack_fit
from latentrec.errors import CapacityError, PersistenceError, ValidationError
from latentrec.factor import (
    ItemCfModel,
    TrainConfig,
    funk_train,
    itemcf_similarity,
    overlap_weights,
    svdpp_train,
)
from latentrec.fm import EncoderSpec, encode, ffm_train, fm_train
from latentrec.persist import (
    IndexedModel,
    ModelBundle,
    document,
    load_model,
    save_model,
)
from tests.conftest import (
    dataset_from_dense,
    make_rank2_ratings,
    without_created,
)

FOUR_BY_FOUR = np.array([
    [1.0, 3.0, 0.0, 4.0],
    [5.0, 0.0, 5.0, 4.0],
    [4.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, 4.0, 5.0],
])


def small_dataset():
    ds, _ = make_rank2_ratings(m=8, n=6, density=0.8, seed=13)
    return ds


def funk_bundle(epochs=15):
    ds = small_dataset()
    model = funk_train(ds, TrainConfig(f=2, alpha=0.02, lam=0.01,
                                       epochs=epochs, seed=3))
    return ModelBundle(
        algorithm="funk",
        model=model,
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
    ), ds


def fm_bundle(algo="fm"):
    ds = small_dataset()
    spec = EncoderSpec([
        ("user", "categorical", sorted(ds.user_index)),
        ("item", "categorical", sorted(ds.item_index)),
    ])
    samples = [(encode((u, i), spec), r) for u, i, r in ds.triples]
    train = fm_train if algo == "fm" else ffm_train
    model = train(samples, loss="squared",
                  config=TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=10,
                                     seed=3))
    return ModelBundle(
        algorithm=algo,
        model=model,
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
        encoder=spec,
        observed=[row.tolist() for row in ds.items_by_user()],
    ), ds


def svd_bundle():
    ds = dataset_from_dense(FOUR_BY_FOUR)
    model = svdcf.fit(ds, impute_strategy="user", rank_rule="fixed:2")
    return ModelBundle(
        algorithm="svd",
        model=model,
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
    ), ds


def assert_predictions_match(before, after, ds, tol=1e-12):
    for u in ds.user_index:
        for i in ds.item_index:
            assert abs(before.predict(u, i) - after.predict(u, i)) <= tol


class TestRoundTrip:
    def test_svd(self, tmp_path):
        bundle, ds = svd_bundle()
        model = bundle.model
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.algorithm == "svd"
        assert loaded.model.f == 2
        assert loaded.model.similarity_mode == model.similarity_mode
        assert_predictions_match(bundle, loaded, ds)

    def test_svd_stores_factors_and_rebuilds_exactly(self, tmp_path):
        bundle, ds = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        block = json.loads(path.read_text())["parameters"]
        assert "r_star" not in block and "mask" not in block
        assert np.array(block["u"]).shape == (4, 2)
        assert np.array(block["v"]).shape == (4, 2)
        loaded = load_model(path).model
        assert np.array_equal(loaded.r_star, bundle.model.r_star)
        assert np.array_equal(loaded.mask, bundle.model.mask)
        assert_predictions_match(bundle, load_model(path), ds, tol=0.0)

    def test_svd_resave_is_byte_identical(self, tmp_path):
        bundle, _ = svd_bundle()
        first = save_model(bundle, tmp_path / "a.json")
        second = save_model(load_model(first), tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_svd_version_1_document_loads(self, tmp_path):
        bundle, ds = svd_bundle()
        doc = document(bundle)
        block = doc["parameters"]
        for key in ("u", "s", "v", "rated"):
            del block[key]
        block["r_star"] = bundle.model.r_star.tolist()
        block["mask"] = bundle.model.mask.tolist()
        doc["format_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        loaded = load_model(path)
        assert loaded.model.factors is None
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        # without factors the model is written back in the dense form
        resaved = document(loaded)
        assert resaved["format_version"] == 3
        assert resaved["parameters"]["r_star"] == block["r_star"]

    def test_funk(self, tmp_path):
        bundle, ds = funk_bundle()
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert_predictions_match(bundle, loaded, ds)
        user = next(iter(ds.user_index))
        assert loaded.recommend(user, 3) == bundle.recommend(user, 3)

    def test_funk_reload_is_exact(self, tmp_path):
        bundle, ds = funk_bundle()
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert np.array_equal(loaded.model.P, bundle.model.P)
        assert np.array_equal(loaded.model.Q, bundle.model.Q)

    def test_svdpp(self, tmp_path):
        ds = small_dataset()
        model = svdpp_train(ds, TrainConfig(f=2, alpha=0.02, lam=0.01,
                                            epochs=10, seed=4))
        bundle = ModelBundle(
            algorithm="svdpp",
            model=model,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
        )
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.model.mu == model.mu
        assert_predictions_match(bundle, loaded, ds)

    def test_itemcf(self, tmp_path):
        ds = small_dataset()
        model = itemcf_similarity(ds, k=3)
        bundle = ModelBundle(
            algorithm="itemcf",
            model=model,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
        )
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.model.K == 3
        assert_predictions_match(bundle, loaded, ds)

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_feature_models(self, algo, tmp_path):
        bundle, ds = fm_bundle(algo)
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.encoder.dimension == bundle.encoder.dimension
        assert_predictions_match(bundle, loaded, ds)
        user = next(iter(ds.user_index))
        assert loaded.recommend(user, 2) == bundle.recommend(user, 2)

    def test_blend_ensemble(self, tmp_path):
        first, ds = funk_bundle(epochs=10)
        second, _ = funk_bundle(epochs=20)
        blend = BlendModel(members=[first.scorer, second.scorer],
                           weights=[0.7, 0.3])
        bundle = ModelBundle(
            algorithm="ensemble",
            model=blend,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
        )
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.model.kind == "blend"
        assert len(loaded.model.members) == 2
        assert_predictions_match(bundle, loaded, ds)

    def test_stack_ensemble_keeps_intercept(self, tmp_path):
        first, ds = funk_bundle(epochs=10)
        second, _ = funk_bundle(epochs=20)
        stacked = stack_fit([first.scorer, second.scorer], ds)
        bundle = ModelBundle(
            algorithm="ensemble",
            model=stacked,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
        )
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.model.intercept == stacked.intercept
        assert np.array_equal(loaded.model.weights, stacked.weights)
        assert_predictions_match(bundle, loaded, ds)


def implicit_dataset():
    """0/1 data with zeros; nobody rated item z and user d rated nothing."""
    return RatingDataset([
        ("a", "w", 1.0), ("a", "x", 1.0), ("a", "y", 0.0),
        ("b", "x", 1.0), ("b", "y", 1.0), ("b", "z", 0.0),
        ("c", "w", 1.0), ("c", "y", 1.0), ("c", "z", 0.0),
        ("d", "w", 0.0), ("d", "x", 0.0),
        ("e", "w", 1.0), ("e", "x", 1.0), ("e", "y", 1.0),
    ], kind="implicit")


def itemcf_bundle(kind, k=None):
    if kind == "implicit":
        ds = implicit_dataset()
    else:
        ds = small_dataset()
        if kind == "reversed":  # each user's items in descending order
            ds = RatingDataset(reversed(ds.triples), item_index=ds.item_index)
    return ModelBundle(
        algorithm="itemcf",
        model=itemcf_similarity(ds, k=k),
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
    ), ds


def blend_bundle(kind):
    wide, ds = itemcf_bundle(kind)
    narrow, _ = itemcf_bundle(kind, k=2)
    return ModelBundle(
        algorithm="ensemble",
        model=BlendModel(members=[wide.scorer, narrow.scorer],
                         weights=[0.6, 0.4]),
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
    ), ds


def old_overlap_weights(ds):
    """W built from the dense m x n 0/1 rater matrix, as format 2 did."""
    users, items, ratings = ds.indexed()
    b = np.zeros((ds.n_users, ds.n_items))
    positive = ratings != 0.0 if ds.kind == "implicit" else slice(None)
    b[users[positive], items[positive]] = 1.0
    counts = b.T @ b
    raters = np.diag(counts).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = counts / raters[:, None]
    w[raters == 0.0, :] = 0.0
    np.fill_diagonal(w, 0.0)
    return w


def itemcf_models(bundle):
    if bundle.algorithm == "ensemble":
        return [member.model for member in bundle.model.members]
    return [bundle.model]


class TestItemCfFiles:
    @pytest.mark.parametrize("kind", ["explicit", "reversed", "implicit"])
    @pytest.mark.parametrize("make", [itemcf_bundle, blend_bundle])
    def test_round_trip_rebuilds_weights(self, make, kind, tmp_path):
        bundle, ds = make(kind)
        first = save_model(bundle, tmp_path / "a.json")
        doc = json.loads(first.read_text())
        blocks = [m["parameters"] for m in doc["ensemble"]["members"]] \
            if "ensemble" in doc else [doc["parameters"]]
        assert all(set(block) == {"k", "ratings"} for block in blocks)
        loaded = load_model(first)
        for before, after in zip(itemcf_models(bundle), itemcf_models(loaded)):
            assert np.array_equal(after.W, before.W)
        for user in ds.user_index:
            assert loaded.recommend(user, ds.n_items) == \
                bundle.recommend(user, ds.n_items)
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        second = save_model(loaded, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_unrated_item_has_zero_row_after_load(self, tmp_path):
        bundle, ds = itemcf_bundle("implicit")
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert np.all(loaded.model.W[ds.item_index["z"]] == 0.0)
        assert loaded.model.ratings[ds.user_index["d"]] == {}

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 7),
        n=st.integers(1, 7),
        kind=st.sampled_from(["explicit", "implicit"]),
        cells=st.data(),
    )
    def test_property_rebuilt_weights_match_dense_counts(
            self, m, n, kind, cells, tmp_path_factory):
        values = [0.0, 1.0] if kind == "implicit" else [1.0, 2.5, 5.0]
        grid = cells.draw(st.lists(
            st.lists(st.one_of(st.none(), st.sampled_from(values)),
                     min_size=n, max_size=n),
            min_size=m, max_size=m,
        ))
        triples = [(f"u{u}", f"i{i}", r) for u, row in enumerate(grid)
                   for i, r in enumerate(row) if r is not None]
        if not triples:
            triples = [("u0", "i0", values[-1])]
        ds = RatingDataset(triples, kind=kind,
                           item_index={f"i{i}": i for i in range(n)})
        expected = old_overlap_weights(ds)
        bundle = ModelBundle(algorithm="itemcf", model=itemcf_similarity(ds),
                             user_index=ds.user_index,
                             item_index=ds.item_index, scale=ds.scale)
        assert np.array_equal(bundle.model.W, expected)
        path = tmp_path_factory.mktemp("itemcf") / "m.json"
        assert np.array_equal(load_model(save_model(bundle, path)).model.W,
                              expected)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_version_2_document_with_w_loads_as_stored(self, scale, tmp_path):
        bundle, ds = itemcf_bundle("explicit")
        doc = document(bundle)
        stored = bundle.model.W * scale
        doc["format_version"] = 2
        doc["parameters"]["w"] = stored.tolist()
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        loaded = load_model(path)
        assert np.array_equal(loaded.model.W, stored)
        for u in ds.user_index:
            for i in ds.item_index:
                assert loaded.predict(u, i) == scale * bundle.predict(u, i)
        if scale == 1.0:
            assert document(loaded)["format_version"] == 3
        else:
            # these weights do not follow from the ratings, so no
            # version 3 file can hold them
            with pytest.raises(PersistenceError, match="weights"):
                save_model(loaded, tmp_path / "resaved.json")

    @pytest.mark.parametrize("as_member", [False, True])
    def test_save_refuses_weights_the_ratings_do_not_give(self, as_member,
                                                          tmp_path):
        bundle, ds = itemcf_bundle("explicit")
        model = bundle.model
        tampered = ItemCfModel(W=model.W * 0.5, K=model.K,
                               ratings=model.ratings)
        bundle.model = tampered
        if as_member:
            bundle = ModelBundle(
                algorithm="ensemble",
                model=BlendModel(members=[bundle.scorer], weights=[1.0]),
                user_index=ds.user_index,
                item_index=ds.item_index,
                scale=ds.scale,
            )
        path = tmp_path / "m.json"
        with pytest.raises(PersistenceError, match="weights"):
            save_model(bundle, path)
        assert not path.exists()

    def test_overlap_cap_checked_before_allocating(self):
        # 10001^2 cells exceed DENSE_CELL_CAP; no matrix is built
        with pytest.raises(CapacityError, match="cap"):
            overlap_weights([], 10_001)

    def test_overlap_cap_applies_to_train_and_load(self, monkeypatch,
                                                   tmp_path):
        bundle, ds = itemcf_bundle("explicit")
        path = save_model(bundle, tmp_path / "m.json")
        monkeypatch.setattr(factor, "DENSE_CELL_CAP", ds.n_items ** 2 - 1)
        with pytest.raises(CapacityError):
            itemcf_similarity(ds)
        with pytest.raises(CapacityError):
            load_model(path)

    def test_out_of_range_rating_index_is_malformed(self, tmp_path):
        bundle, ds = itemcf_bundle("explicit")
        doc = document(bundle)
        doc["parameters"]["ratings"][0].append([ds.n_items, 3.0])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)


class TestFileFormat:
    def test_header_fields(self):
        bundle, _ = funk_bundle()
        doc = document(bundle)
        assert doc["format_version"] == 3
        assert doc["algorithm"] == "funk"
        assert doc["created"]
        assert doc["scale"] == [1.0, 5.0]

    def test_reruns_differ_only_in_created(self, tmp_path):
        bundle, ds = funk_bundle()
        fresh = lambda: ModelBundle(
            algorithm="funk",
            model=bundle.model,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
        )
        a = (tmp_path / "a.json")
        b = (tmp_path / "b.json")
        save_model(fresh(), a)
        save_model(fresh(), b)
        assert without_created(a.read_text()) == without_created(b.read_text())

    def test_created_survives_reload(self, tmp_path):
        bundle, _ = funk_bundle()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(bundle, first)
        save_model(load_model(first), second)
        assert first.read_text() == second.read_text()

    def test_unknown_format_version_rejected(self, tmp_path):
        bundle, _ = funk_bundle()
        path = tmp_path / "m.json"
        save_model(bundle, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 4
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="format_version"):
            load_model(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        bundle, _ = funk_bundle()
        path = tmp_path / "m.json"
        save_model(bundle, path)
        doc = json.loads(path.read_text())
        doc["algorithm"] = "mystery"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="algorithm"):
            load_model(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all {")
        with pytest.raises(PersistenceError):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(tmp_path / "absent.json")

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError):
            load_model(path)

    def test_missing_parameters_rejected(self, tmp_path):
        bundle, _ = funk_bundle()
        path = tmp_path / "m.json"
        save_model(bundle, path)
        doc = json.loads(path.read_text())
        del doc["parameters"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_observed_with_too_few_users_rejected(self, tmp_path, algo):
        bundle, _ = fm_bundle(algo)
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["parameters"]["observed"] = doc["parameters"]["observed"][:2]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_observed_item_outside_range_rejected(self, tmp_path, bad):
        bundle, ds = fm_bundle()
        assert ds.n_items == 6
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["parameters"]["observed"][0].append(bad)
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    def test_ensemble_member_observed_checked(self, tmp_path):
        bundle, _ = fm_bundle()
        blend = ModelBundle(
            algorithm="ensemble",
            model=BlendModel(members=[bundle.scorer], weights=[1.0]),
            user_index=bundle.user_index,
            item_index=bundle.item_index,
        )
        path = save_model(blend, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["ensemble"]["members"][0]["parameters"]["observed"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    def test_svd_negative_rated_index_rejected(self, tmp_path):
        bundle, _ = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["parameters"]["rated"][0].append(-1)
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*rated"):
            load_model(path)


class TestIndexedModelRange:
    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_indices_outside_range_raise(self, algo):
        bundle, ds = fm_bundle(algo)
        scorer = bundle.scorer
        for u, i in [(-1, 0), (0, -1), (ds.n_users, 0), (0, ds.n_items)]:
            with pytest.raises(IndexError):
                scorer.predict(u, i)
        for u in (-1, ds.n_users):
            with pytest.raises(IndexError):
                scorer.recommend(u, 2)


class TestBundleQueries:
    def test_unknown_tokens_named(self):
        bundle, _ = funk_bundle()
        with pytest.raises(ValidationError, match="ghost"):
            bundle.predict("ghost", next(iter(bundle.item_index)))
        with pytest.raises(ValidationError, match="nothing"):
            bundle.predict(next(iter(bundle.user_index)), "nothing")

    def test_recommend_returns_tokens(self):
        bundle, ds = funk_bundle()
        ranked = bundle.recommend(next(iter(ds.user_index)), 2)
        assert all(token in ds.item_index for token, _ in ranked)

    def test_fm_bundle_requires_encoder(self):
        ds = small_dataset()
        model = fm_train(
            [(encode((u, i), EncoderSpec([
                ("user", "categorical", sorted(ds.user_index)),
                ("item", "categorical", sorted(ds.item_index)),
            ])), r) for u, i, r in ds.triples],
            loss="squared",
            config=TrainConfig(f=2, epochs=0, seed=1),
        )
        with pytest.raises(ValidationError, match="encoder"):
            ModelBundle(
                algorithm="fm",
                model=model,
                user_index=ds.user_index,
                item_index=ds.item_index,
            )

    def test_bad_algorithm_tag_rejected(self):
        with pytest.raises(ValidationError):
            ModelBundle(algorithm="nope", model=None, user_index={},
                        item_index={})

    def test_foreign_ensemble_member_not_persistable(self):
        class Opaque:
            def predict(self, u, i):
                return 3.0

            def recommend(self, u, k):
                return []

        blend = BlendModel(members=[Opaque()], weights=[1.0])
        bundle = ModelBundle(
            algorithm="ensemble",
            model=blend,
            user_index={"u": 0},
            item_index={"i": 0},
        )
        with pytest.raises(PersistenceError):
            document(bundle)

    def test_fm_recommend_excludes_observed(self):
        bundle, ds = fm_bundle()
        user = next(iter(ds.user_index))
        u = ds.user_index[user]
        seen = set(bundle.observed[u])
        ranked = bundle.recommend(user, ds.n_items)
        got = {ds.item_index[token] for token, _ in ranked}
        assert not (got & seen)

    def test_indexed_model_matches_token_queries(self):
        bundle, ds = funk_bundle()
        scorer = bundle.scorer
        assert isinstance(scorer, IndexedModel)
        for u, i, _ in list(ds.triples)[:5]:
            assert scorer.predict(ds.user_index[u], ds.item_index[i]) == \
                bundle.predict(u, i)


def trained_bundle(algo, ds):
    """A bundle of algo trained on ds, laid out as `train` saves it."""
    config = TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=3, seed=5)
    encoder = observed = None
    if algo == "svd":
        model = svdcf.fit(ds)
    elif algo == "itemcf":
        model = itemcf_similarity(ds)
    elif algo == "funk":
        model = funk_train(ds, config)
    elif algo == "svdpp":
        model = svdpp_train(ds, config)
    else:
        encoder = EncoderSpec([
            ("user", "categorical", sorted(ds.user_index)),
            ("item", "categorical", sorted(ds.item_index)),
        ])
        samples = [(encode((u, i), encoder), r) for u, i, r in ds.triples]
        train = fm_train if algo == "fm" else ffm_train
        model = train(samples, loss="squared", config=config)
        observed = [row.tolist() for row in ds.items_by_user()]
    return ModelBundle(algorithm=algo, model=model, user_index=ds.user_index,
                       item_index=ds.item_index, scale=ds.scale,
                       encoder=encoder, observed=observed)


class TestRecommendMatchesPredict:
    @settings(max_examples=40, deadline=None)
    @given(grid=st.integers(2, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 5.0])),
                 min_size=n, max_size=n),
        min_size=2, max_size=6,
    )))
    def test_property_recommend_sorts_predict_over_unseen(self, grid):
        # every user and every item gets at least one rating
        grid = [list(row) for row in grid]
        m, n = len(grid), len(grid[0])
        for u in range(m):
            if all(r is None for r in grid[u]):
                grid[u][u % n] = 4.0
        for i in range(n):
            if all(row[i] is None for row in grid):
                grid[i % m][i] = 4.0
        ds = RatingDataset([(f"u{u}", f"i{i}", r) for u, row in enumerate(grid)
                            for i, r in enumerate(row) if r is not None])
        rated = ds.items_by_user()
        tokens = sorted(ds.item_index, key=ds.item_index.get)
        for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm"):
            bundle = trained_bundle(algo, ds)
            for user, u in ds.user_index.items():
                unseen = [i for i in range(ds.n_items) if i not in set(rated[u])]
                scored = sorted(
                    ((i, bundle.predict(user, tokens[i])) for i in unseen),
                    key=lambda pair: (-pair[1], pair[0]),
                )
                expected = [(tokens[i], score) for i, score in scored]
                assert bundle.recommend(user, ds.n_items) == expected, algo
