"""Round-trip tests for the JSON model file format."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentrec import factor, persist, svdcf
from latentrec.data import RatingDataset
from latentrec.cli import main
from latentrec.ensemble import BlendModel, bag_train, stack_fit, vote_recommend
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
    _array,
    _floats,
    _json_chunks,
    _ready,
    document,
    load_model,
    save_model,
)
from tests.conftest import (
    dataset_from_dense,
    make_rank2_ratings,
    model_text,
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
        block = json.loads(model_text(path))["parameters"]
        assert "r_star" not in block and "mask" not in block
        assert block["u"]["shape"] == [4, 2]
        assert block["v"]["shape"] == [4, 2]
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
        assert resaved["format_version"] == 4
        assert _array(resaved["parameters"]["r_star"], 4).tolist() == block["r_star"]

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
        doc = json.loads(model_text(first))
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
            assert document(loaded)["format_version"] == 4
        else:
            # these weights do not follow from the ratings, so no file
            # of the current format can hold them
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
        # nor is a file already at the path touched
        before = save_model(funk_bundle()[0], path).read_bytes()
        with pytest.raises(PersistenceError, match="weights"):
            save_model(bundle, path)
        assert path.read_bytes() == before

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

    @pytest.mark.parametrize("version", [2, 4])
    @pytest.mark.parametrize("bad", ["-1", "n"])
    def test_rating_index_outside_items_is_refused(self, bad, version,
                                                   tmp_path, capsys):
        # version 2 files carry "w", so no rebuild of W checks the indices
        bundle, ds = itemcf_bundle("explicit")
        doc = document(bundle)
        if version == 2:
            doc["format_version"] = 2
            doc["parameters"]["w"] = bundle.model.W.tolist()
        index = -1 if bad == "-1" else ds.n_items
        doc["parameters"]["ratings"][0].append([index, 3.0])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)
        user = next(iter(ds.user_index))
        assert main(["recommend", str(path), user]) == 3
        assert capsys.readouterr().err.startswith("error: malformed model file")

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
        assert doc["format_version"] == 4
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
        assert without_created(model_text(a)) == without_created(model_text(b))

    def test_created_survives_reload(self, tmp_path):
        bundle, _ = funk_bundle()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(bundle, first)
        save_model(load_model(first), second)
        assert model_text(first) == model_text(second)

    def test_unknown_format_version_rejected(self, tmp_path):
        bundle, _ = funk_bundle()
        path = tmp_path / "m.json"
        save_model(bundle, path)
        doc = json.loads(model_text(path))
        doc["format_version"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="format_version"):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0, 4.0, "4"])
    def test_format_version_must_be_an_int(self, version, tmp_path):
        # True == 1 and 4.0 == 4, but neither names a format
        bundle, _ = funk_bundle()
        doc = json.loads(model_text(save_model(bundle, tmp_path / "m.json")))
        doc["format_version"] = version
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="unsupported format_version"):
            load_model(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        bundle, _ = funk_bundle()
        path = tmp_path / "m.json"
        save_model(bundle, path)
        doc = json.loads(model_text(path))
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
        doc = json.loads(model_text(path))
        del doc["parameters"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_observed_with_too_few_users_rejected(self, tmp_path, algo):
        bundle, _ = fm_bundle(algo)
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"]["observed"] = doc["parameters"]["observed"][:2]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_observed_item_outside_range_rejected(self, tmp_path, bad):
        bundle, ds = fm_bundle()
        assert ds.n_items == 6
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
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
        doc = json.loads(model_text(path))
        doc["ensemble"]["members"][0]["parameters"]["observed"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    def test_svd_negative_rated_index_rejected(self, tmp_path):
        bundle, _ = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
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


# small rating grids, None for a missing rating
GRIDS = st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 5.0])),
             min_size=n, max_size=n),
    min_size=2, max_size=6,
))


def grid_dataset(grid, user="u"):
    """The grid's ratings, every user and every item given at least one."""
    grid = [list(row) for row in grid]
    m, n = len(grid), len(grid[0])
    for u in range(m):
        if all(r is None for r in grid[u]):
            grid[u][u % n] = 4.0
    for i in range(n):
        if all(row[i] is None for row in grid):
            grid[i % m][i] = 4.0
    return RatingDataset([(f"{user}{u}", f"i{i}", r) for u, row in enumerate(grid)
                          for i, r in enumerate(row) if r is not None])


def assert_scores_are_predict(scorer, n_users, n_items):
    """scorer.scores(u, items) is scorer.predict(u, i) item by item, every
    bit, for items in a shuffled order with a repeat."""
    items = np.r_[np.arange(n_items)[::-1], 0]
    for u in range(n_users):
        want = np.array([scorer.predict(u, i) for i in items.tolist()])
        got = scorer.scores(u, items)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRecommendMatchesPredict:
    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS)
    def test_property_recommend_sorts_predict_over_unseen(self, grid):
        ds = grid_dataset(grid)
        rated = ds.items_by_user()
        tokens = sorted(ds.item_index, key=ds.item_index.get)
        for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm"):
            bundle = trained_bundle(algo, ds)
            assert_scores_are_predict(bundle.scorer, ds.n_users, ds.n_items)
            for user, u in ds.user_index.items():
                unseen = [i for i in range(ds.n_items) if i not in set(rated[u])]
                scored = sorted(
                    ((i, bundle.predict(user, tokens[i])) for i in unseen),
                    key=lambda pair: (-pair[1], pair[0]),
                )
                expected = [(tokens[i], score) for i, score in scored]
                assert bundle.recommend(user, ds.n_items) == expected, algo
        # the svd similarity modes and cuts, itemcf (one cut leaves
        # neighbourhoods empty) sorting 2 rows per block, and a weighted
        # blend of all six
        svd, itemcf = trained_bundle("svd", ds), trained_bundle("itemcf", ds)
        variants = [dataclasses.replace(svd, model=dataclasses.replace(
                        svd.model, similarity_mode=mode, neighborhood=k))
                    for mode in ("paper-dot", "cosine") for k in (None, 1, 2)]
        variants += [itemcf, dataclasses.replace(
            itemcf, model=dataclasses.replace(itemcf.model, K=1))]
        members = [trained_bundle(algo, ds).scorer
                   for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm")]
        variants.append(dataclasses.replace(svd, algorithm="ensemble", model=BlendModel(
            members=members, weights=[0.3, 0.1, 0.2, 0.15, 0.05, 0.2])))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor, "SORT_ROWS", 2)
            for bundle in variants:
                assert_scores_are_predict(bundle.scorer, ds.n_users, ds.n_items)


def writer_bundles(ds):
    """One bundle of every kind the writer meets, trained on ds."""
    bundles = [trained_bundle(algo, ds)
               for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm")]
    svd, funk = bundles[0], bundles[1]
    dense = svdcf.SvdCfModel(r_star=svd.model.r_star, mask=svd.model.mask,
                             f=svd.model.f, scale=ds.scale)
    unrated = dataclasses.replace(funk.model, N=None)
    bundles += [dataclasses.replace(svd, model=dense),
                dataclasses.replace(funk, model=unrated)]
    blend = BlendModel(members=[b.scorer for b in bundles], weights=[0.125] * 8)
    bundles.append(ModelBundle(algorithm="ensemble", model=blend,
                               user_index=ds.user_index,
                               item_index=ds.item_index, scale=ds.scale))
    return bundles


class TestStreamedWriter:
    @settings(max_examples=25, deadline=None)
    @given(grid=GRIDS, user=st.sampled_from(["u", "\u00fc", 'q"', "\\", "\u7528"]),
           block_rows=st.integers(1, 4))
    def test_property_file_is_the_one_dumps_line(self, grid, user, block_rows,
                                                 tmp_path_factory):
        ds = grid_dataset(grid, user)
        path = tmp_path_factory.mktemp("writer") / "m.json"
        # blocks of a few rows, so the small grids cross block boundaries
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persist, "BLOCK_ROWS", block_rows)
            for bundle in writer_bundles(ds):
                bundle.created = "2026-01-01T00:00:00+00:00"
                save_model(bundle, path)
                want = json.dumps(document(bundle), sort_keys=True,
                                  separators=(",", ":")) + "\n"
                assert model_text(path) == want, bundle.algorithm


SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
# any float64 bit pattern: NaN payloads, -0.0, subnormals, infinities
BIT_PATTERNS = hnp.arrays(np.uint64, SHAPES).map(lambda a: a.view(np.float64))
VALUES = hnp.arrays(np.float64, SHAPES, elements=st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, np.nan, -np.inf]),
))


MALFORMED_BLOCKS = {
    "bad-base64": lambda b: b.update(data="!" + b["data"][1:]),
    "unpadded": lambda b: b.update(data=b["data"].rstrip("=")[:-1]),
    "short-data": lambda b: b.update(data=b["data"][:-4]),
    "data-not-text": lambda b: b.update(data=7),
    "no-data": lambda b: b.pop("data"),
    "f4-dtype": lambda b: b.update(dtype="<f4"),
    "big-endian": lambda b: b.update(dtype=">f8"),
    "negative-shape": lambda b: b.update(shape=[-1, 2]),
    "shape-too-big": lambda b: b.update(shape=[b["shape"][0], b["shape"][1] + 1]),
    "shape-not-list": lambda b: b.update(shape=b["shape"][0]),
    "float-shape": lambda b: b.update(shape=[float(d) for d in b["shape"]]),
    "bool-shape": lambda b: b.update(shape=[True] * len(b["shape"])),
}


class TestFloatBlocks:
    @settings(max_examples=200, deadline=None)
    @given(a=st.one_of(BIT_PATTERNS, VALUES), transpose=st.booleans(),
           block_rows=st.integers(1, 4))
    def test_property_block_round_trips_every_bit(self, a, transpose,
                                                  block_rows):
        if transpose:  # a non-contiguous view is stored in row-major order
            a = a.T
        # the writer's pieces of 3 * block_rows values, and document()'s text
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persist, "BLOCK_ROWS", block_rows)
            text = "".join(_json_chunks(_floats(a)))
        assert text == json.dumps(_ready(_floats(a)), sort_keys=True,
                                  separators=(",", ":"))
        back = _array(json.loads(text), 4)
        assert back.shape == a.shape and back.dtype == np.float64
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable and back.flags.c_contiguous

    def test_block_layout(self):
        block = _ready(_floats(np.array([[1.0, -0.0], [0.5, 2.0]])))
        assert block == {
            "data": "AAAAAAAA8D8AAAAAAAAAgAAAAAAAAOA/AAAAAAAAAEA=",
            "dtype": "<f8",
            "shape": [2, 2],
        }

    def test_writer_splits_block_data_at_whole_base64_groups(self, monkeypatch):
        monkeypatch.setattr(persist, "BLOCK_ROWS", 1)
        pieces = list(_json_chunks(np.arange(7.0)))
        # 3 values are 24 bytes, 32 base64 characters with no padding
        assert [len(p) for p in pieces] == [1, 32, 32, 12, 1]
        assert "".join(pieces) == '"' + _ready(np.arange(7.0)) + '"'

    def test_earlier_versions_read_nested_lists(self):
        for version in (1, 2, 3):
            a = _array([[1.5, -0.0], [2.0, 3.25]], version)
            assert a.dtype == np.float64 and a.flags.writeable
            assert a.tobytes() == np.array([[1.5, -0.0], [2.0, 3.25]]).tobytes()

    @pytest.mark.parametrize("edit", MALFORMED_BLOCKS.values(), ids=MALFORMED_BLOCKS)
    def test_malformed_block_rejected(self, edit, tmp_path, capsys):
        bundle, ds = funk_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        edit(doc["parameters"]["q"])
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed model file"):
            load_model(path)
        user, item = next(iter(ds.user_index)), next(iter(ds.item_index))
        assert main(["predict", str(path), user, item]) == 3
        assert capsys.readouterr().err.startswith("error: malformed model file")

    def test_nested_list_in_version_4_file_rejected(self, tmp_path, capsys):
        bundle, ds = funk_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"]["q"] = bundle.model.Q.tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed model file"):
            load_model(path)
        assert main(["recommend", str(path), next(iter(ds.user_index))]) == 3
        assert capsys.readouterr().err.startswith("error: malformed model file")
        # nested lists throughout are a valid version 3 file
        doc["parameters"]["p"] = bundle.model.P.tolist()
        doc["format_version"] = 3
        path.write_text(json.dumps(doc))
        assert np.array_equal(load_model(path).model.Q, bundle.model.Q)

    def test_ensemble_member_block_checked(self, tmp_path):
        bundle, ds = fm_bundle()
        blend = ModelBundle(algorithm="ensemble",
                            model=BlendModel(members=[bundle.scorer], weights=[1.0]),
                            user_index=ds.user_index, item_index=ds.item_index)
        path = save_model(blend, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["ensemble"]["members"][0]["parameters"]["v"]["dtype"] = "<f4"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed model file"):
            load_model(path)


def float_arrays(model):
    """Every float array a model holds, by name."""
    if isinstance(model, svdcf.SvdCfModel):
        arrays = {"r_star": model.r_star, "mask": model.mask}
        if model.factors is not None:
            arrays.update(u=model.factors.u, s=model.factors.s, v=model.factors.v)
        return arrays
    if isinstance(model, factor.FactorModel):
        arrays = {"p": model.P, "q": model.Q}
        if model.kind == "svdpp":
            arrays.update(y=model.Y, b_u=model.b_u, b_i=model.b_i)
        return arrays
    if isinstance(model, ItemCfModel):
        return {"w": model.W}
    return {"w": model.w, "v": model.V}


def every_kind(ds):
    """A bundle of each algorithm and of each ensemble kind, trained on ds."""
    singles = {algo: trained_bundle(algo, ds)
               for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm")}
    members = [b.scorer for b in singles.values()]

    def ensemble(model):
        return ModelBundle(algorithm="ensemble", model=model,
                           user_index=ds.user_index, item_index=ds.item_index,
                           scale=ds.scale)

    return {
        **singles,
        "blend": ensemble(BlendModel(members=members, weights=[1, 2, 3, 4, 5, 6])),
        "stack": ensemble(stack_fit(members, ds)),
        "bag": ensemble(bag_train(lambda d: trained_bundle("funk", d).scorer,
                                  ds, b=3, seed=2)),
    }


class TestExactReload:
    @pytest.mark.parametrize("kind", ["svd", "funk", "svdpp", "itemcf", "fm",
                                      "ffm", "blend", "stack", "bag"])
    def test_reload_predicts_bit_for_bit_and_resaves_identically(self, kind,
                                                                 tmp_path):
        ds = small_dataset()
        bundle = every_kind(ds)[kind]
        first = save_model(bundle, tmp_path / "a.json")
        loaded = load_model(first)
        before, after = itemcf_models(bundle), itemcf_models(loaded)
        for old, new in zip(before, after):
            old_arrays, new_arrays = float_arrays(old), float_arrays(new)
            assert old_arrays.keys() == new_arrays.keys()
            for name, a in old_arrays.items():
                assert new_arrays[name].tobytes() == a.tobytes(), name
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        for user in ds.user_index:  # ensembles recommend by member vote
            assert loaded.recommend(user, ds.n_items) == \
                bundle.recommend(user, ds.n_items)
        second = save_model(loaded, tmp_path / "b.json")
        assert second.read_bytes() == first.read_bytes()

    def test_vote_over_reloaded_members_is_unchanged(self, tmp_path):
        ds = small_dataset()
        bundles = [trained_bundle(algo, ds) for algo in ("svd", "funk", "fm")]
        loaded = [load_model(save_model(b, tmp_path / f"{n}.json"))
                  for n, b in enumerate(bundles)]
        for u in range(ds.n_users):
            assert vote_recommend([b.scorer for b in loaded], u, 3) == \
                vote_recommend([b.scorer for b in bundles], u, 3)


FIXTURES = Path(__file__).parent / "fixtures"
# float-array keys of the parameter blocks
FLOAT_KEYS = {"u", "s", "v", "r_star", "mask", "p", "q", "y", "b_u", "b_i", "w"}


class TestFormat3File:
    """format3_blend.json was written at format_version 3: a blend of svd,
    funk, svdpp, itemcf, fm, ffm and a factorless svd (dense r_star and
    mask) trained on the 4x4 example, weights 1..7. Beside it are the
    predictions of each member and of the blend for every (user, item)
    index pair, and each user's top-3 vote, that the version 3 code
    computed from the file it had just written.
    """

    def test_loads_with_the_stored_parameters_and_predictions(self, tmp_path):
        path = FIXTURES / "format3_blend.json"
        old = json.loads(path.read_text())
        want = json.loads((FIXTURES / "format3_blend_predictions.json").read_text())
        assert old["format_version"] == 3
        bundle = load_model(path)
        model = bundle.model
        m, n = len(bundle.user_index), len(bundle.item_index)
        for member, preds in zip(model.members, want["members"]):
            assert [[member.predict(u, i) for i in range(n)]
                    for u in range(m)] == preds
        assert [[model.predict(u, i) for i in range(n)]
                for u in range(m)] == want["blend"]
        assert [[list(p) for p in model.recommend(u, 3)]
                for u in range(m)] == want["vote"]
        # written again at version 4, every stored array is kept exactly
        new = document(bundle)
        assert new["format_version"] == 4
        pairs = zip(old["ensemble"]["members"], new["ensemble"]["members"])
        compared = 0
        for before, after in pairs:
            for key in FLOAT_KEYS & set(before["parameters"]):
                stored = np.array(before["parameters"][key], dtype=float)
                assert np.array_equal(_array(after["parameters"][key], 4), stored)
                compared += 1
        assert compared == 16
        again = load_model(save_model(bundle, tmp_path / "v4.json"))
        assert [[again.predict(u, i) for i in bundle.item_index]
                for u in bundle.user_index] == \
            [[bundle.predict(u, i) for i in bundle.item_index]
             for u in bundle.user_index]


class TestFormat4File:
    """format4_blend.json is an uncompressed format_version 4 file, written
    before model files were gzip-compressed: the same seven members as
    format3_blend.json, trained on the 4x4 example with trained_bundle's
    settings, weights 1..7. Beside it are the predictions of each member
    and of the blend for every (user, item) index pair, and each user's
    top-3 vote, that the code then computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format4_blend.json"
        want = json.loads((FIXTURES / "format4_blend_predictions.json").read_text())
        assert path.read_bytes()[:1] == b"{"
        bundle = load_model(path)
        model = bundle.model
        m, n = len(bundle.user_index), len(bundle.item_index)
        for member, preds in zip(model.members, want["members"]):
            assert [[member.predict(u, i) for i in range(n)]
                    for u in range(m)] == preds
        assert [[model.predict(u, i) for i in range(n)]
                for u in range(m)] == want["blend"]
        assert [[list(p) for p in model.recommend(u, 3)]
                for u in range(m)] == want["vote"]
        # saved again, the file inflates to exactly the plain file's text
        again = save_model(bundle, tmp_path / "again.json")
        assert model_text(again) == path.read_text()


class TestGzipContainer:
    def test_file_is_one_gzip_member_with_no_timestamp(self, tmp_path):
        bundle, _ = funk_bundle()
        bundle.created = "2026-01-01T00:00:00+00:00"
        first = save_model(bundle, tmp_path / "a.json").read_bytes()
        # magic, deflate method, no flags (no name, no comment), mtime 0
        assert first[:8] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00"
        assert save_model(bundle, tmp_path / "b.json").read_bytes() == first
        assert len(first) < 0.7 * len(model_text(tmp_path / "a.json"))

    @pytest.mark.parametrize("damage", ["truncated", "byte-flipped", "trailing"])
    def test_damaged_stream_exits_3_without_traceback(self, damage, tmp_path,
                                                      capsys):
        bundle, ds = funk_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        data = bytearray(path.read_bytes())
        if damage == "truncated":
            del data[len(data) // 2:]
        elif damage == "byte-flipped":
            data[len(data) // 2] ^= 0x40
        else:
            data += b"{}"
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="cannot read model file"):
            load_model(path)
        assert main(["recommend", str(path), next(iter(ds.user_index))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read model file")
        assert "Traceback" not in captured.err

    def test_plain_json_file_still_loads(self, tmp_path):
        bundle, ds = funk_bundle()
        path = tmp_path / "plain.json"
        path.write_text(model_text(save_model(bundle, tmp_path / "m.json")))
        assert_predictions_match(bundle, load_model(path), ds, tol=0.0)
