"""Round-trip tests for the JSON model file format."""

import base64
import contextlib
import dataclasses
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentrec import data, factor, persist, svdcf
from latentrec.data import RatingDataset, UserItems
from latentrec.cli import main
from latentrec.ensemble import BlendModel, bag_train, stack_fit, vote_recommend
from latentrec.errors import (CapacityError, LatentRecError, PersistenceError, ShapeError,
                              ValidationError)
from latentrec.factor import (
    ItemCfModel,
    TrainConfig,
    funk_train,
    itemcf_similarity,
    svdpp_implicit_predict,
    svdpp_train,
)
from latentrec.metrics import SORT_ROWS
from latentrec.fm import (
    EncoderSpec,
    FfmModel,
    FmModel,
    encode,
    ffm_predict,
    ffm_train,
    fm_predict_fast,
    fm_train,
    one_hot_features,
    one_hot_layout,
    one_hot_scores,
)
from latentrec.persist import (
    FORMAT_VERSION,
    IndexedModel,
    ModelBundle,
    _array,
    _floats,
    _front_coded,
    _ints,
    _json_chunks,
    _members,
    _ready,
    _token_list,
    document,
    load_model,
    save_model,
)
from tests.conftest import (
    FOUR_BY_FOUR_CSV,
    array_block,
    block_array,
    block_ints,
    blocked,
    dataset_from_dense,
    edit_rows,
    flat,
    form_of,
    int_block,
    make_rank2_ratings,
    model_text,
    coded_of,
    LIST_FIELDS,
    inline,
    member_blocks,
    outline,
    overlap_weights,
    rows_of,
    tokens_of,
    whole_ffm_v,
    with_encoders,
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


def old_layout(doc, version):
    """A current document laid out as version (5 or earlier) stores its
    header, per-user lists and fm/ffm members: token index maps, nested
    per-user lists, each machine's encoder and each ffm member's whole V
    (with_encoders). Other float blocks are left as they are."""
    doc = with_encoders(doc, version)
    for role in ("user", "item"):
        doc[f"{role}_index"] = {token: at for at, token in
                                enumerate(doc.pop(f"{role}_tokens"))}
    members = doc["ensemble"]["members"] if "ensemble" in doc else [doc]
    for block in (member["parameters"] for member in members):
        for key in ("rated", "ratings", "observed"):
            if block.get(key) is not None:
                block[key] = rows_of(block[key])
    return doc


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

    def test_svd_load_is_capped_before_its_dense_arrays(self, monkeypatch, tmp_path):
        # loading rebuilds the m x n mask and r_star from the factors
        bundle, ds = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        monkeypatch.setattr(data, "DENSE_CELL_CAP", ds.n_users * ds.n_items - 1)
        with pytest.raises(CapacityError, match="dense matrix of 4 x 4 = 16 cells"):
            load_model(path)
        code = main(["predict", str(path), next(iter(ds.user_index)),
                     next(iter(ds.item_index))])
        assert code == 3

    def test_svd_resave_is_byte_identical(self, tmp_path):
        bundle, _ = svd_bundle()
        first = save_model(bundle, tmp_path / "a.json")
        second = save_model(load_model(first), tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_svd_version_1_document_loads(self, tmp_path):
        bundle, ds = svd_bundle()
        doc = old_layout(document(bundle), 1)
        block = doc["parameters"]
        for key in ("u", "s", "v", "rated"):
            del block[key]
        block["r_star"] = bundle.model.r_star.tolist()
        block["mask"] = bundle.model.mask.tolist()
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        loaded = load_model(path)
        assert loaded.model.factors is None
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        # without factors the model is written back in the dense form
        resaved = document(loaded)
        assert resaved["format_version"] == FORMAT_VERSION
        assert _array(resaved["parameters"]["r_star"], FORMAT_VERSION).tolist() == \
            block["r_star"]

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

    def test_svdpp_without_rated_lists(self, tmp_path):
        # the writer called N.lists() on None and raised AttributeError
        ds = small_dataset()
        trained = trained_bundle("svdpp", ds)
        bundle = dataclasses.replace(
            trained, model=dataclasses.replace(trained.model, N=None),
            created="2026-01-01T00:00:00+00:00")
        first = save_model(bundle, tmp_path / "a.json")
        assert json.loads(model_text(first))["parameters"]["rated"] is None
        loaded = load_model(first)
        assert loaded.model.N is None
        items = np.arange(ds.n_items)
        for u in range(ds.n_users):
            assert np.array_equal(loaded.scorer.scores(u, items),
                                  bundle.scorer.scores(u, items))
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        assert save_model(loaded, tmp_path / "b.json").read_bytes() == \
            first.read_bytes()

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


def weights(model):
    """The n x n overlap weights of an itemcf model, by the test oracle."""
    return overlap_weights(model.ratings, model.n_items)


def itemcf_models(bundle):
    if bundle.algorithm == "ensemble":
        # an fm or ffm member is the IndexedModel view of its machine
        return [member.model if isinstance(member, IndexedModel) else member
                for member in bundle.model.members]
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
        # the items of each list name a lists entry; the ratings stay in the block
        assert all(set(block) == {"k", "ratings", "values"} for block in blocks)
        loaded = load_model(first)
        for before, after in zip(itemcf_models(bundle), itemcf_models(loaded)):
            assert np.array_equal(weights(after), weights(before))
        for user in ds.user_index:
            assert loaded.recommend(user, ds.n_items) == \
                bundle.recommend(user, ds.n_items)
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        second = save_model(loaded, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_unrated_item_has_zero_row_after_load(self, tmp_path):
        bundle, ds = itemcf_bundle("implicit")
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert np.all(weights(loaded.model)[ds.item_index["z"]] == 0.0)
        assert loaded.model.ratings[ds.user_index["d"]].tolist() == []

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
        # the raters are the dataset's users with a (positive) rating
        users, items, ratings = ds.indexed()
        positive = ratings != 0.0 if kind == "implicit" else slice(None)
        expected = overlap_weights(UserItems.from_columns(
            users[positive], items[positive], ds.n_users, n), n)
        bundle = ModelBundle(algorithm="itemcf", model=itemcf_similarity(ds),
                             user_index=ds.user_index,
                             item_index=ds.item_index, scale=ds.scale)
        assert np.array_equal(weights(bundle.model), expected)
        folder = tmp_path_factory.mktemp("itemcf")
        assert np.array_equal(weights(load_model(save_model(bundle, folder / "m.json")).model),
                              expected)
        # a version 2 file loads with these weights, and with no other
        doc = old_layout(document(bundle), 2)
        for w, loads in ((expected, True), (expected + 1.0, False)):
            doc["parameters"]["w"] = w.tolist()
            (folder / "v2.json").write_text(json.dumps(doc))
            if loads:
                loaded = load_model(folder / "v2.json").scorer
                for u in range(ds.n_users):
                    assert loaded.scores(u, np.arange(n)).tobytes() == \
                        bundle.scorer.scores(u, np.arange(n)).tobytes()
            else:
                with pytest.raises(PersistenceError, match="weights"):
                    load_model(folder / "v2.json")

    @pytest.mark.parametrize("edit", ["none", "scale", "cell", "row", "column", "flat"])
    def test_version_2_document_loads_only_with_the_w_its_ratings_give(
            self, edit, tmp_path):
        bundle, ds = itemcf_bundle("explicit")
        bundle = dataclasses.replace(bundle, created="2026-01-01T00:00:00+00:00")
        doc = old_layout(document(bundle), 2)
        stored = weights(bundle.model)
        n = stored.shape[0]
        if edit == "cell":  # the last row, after every row that passes
            stored[n - 1, 0] = np.nextafter(stored[n - 1, 0], 1.0)
        stored = {"none": stored, "scale": stored * 0.5, "cell": stored,
                  "row": stored[:-1], "column": stored[:, :-1], "flat": stored.ravel()}[edit]
        doc["parameters"]["w"] = stored.tolist()
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        if edit != "none":
            # these weights do not follow from the ratings, which no
            # ItemCfModel can hold, or are not n x n
            with pytest.raises(PersistenceError, match="weights w do not follow"):
                load_model(path)
            return
        loaded = load_model(path)
        assert np.array_equal(weights(loaded.model), stored)
        for u in ds.user_index:
            for i in ds.item_index:
                assert loaded.predict(u, i) == bundle.predict(u, i)
        # it re-saves at the current format, as the model it was saved from
        resaved = save_model(loaded, tmp_path / "resaved.json")
        assert json.loads(model_text(resaved))["format_version"] == FORMAT_VERSION
        assert resaved.read_bytes() == save_model(bundle, tmp_path / "m.json").read_bytes()

    def test_version_2_w_the_ratings_do_not_give_exits_3(self, tmp_path, capsys):
        bundle, ds = itemcf_bundle("explicit")
        doc = old_layout(document(bundle), 2)
        doc["parameters"]["w"] = (weights(bundle.model) * 0.5).tolist()
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        assert main(["recommend", str(path), min(ds.user_index)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed model file")
        assert "weights w do not follow from the stored ratings" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("k", [None, 2])
    def test_overlap_cap_checked_before_allocating(self, k, monkeypatch):
        # a scoring call counts SORT_ROWS rows of n co-occurrences at a
        # time, and with K < n - 1 every candidate's whole row; the cap
        # bounds those cells, and a refusal builds nothing
        n = 20_000
        cells = (SORT_ROWS if k is None else n) * n
        monkeypatch.setattr(data, "DENSE_CELL_CAP", cells - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"{cells // n} x {n} = {cells} cells"):
                ItemCfModel([], K=k or n - 1, n_items=n)
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(data, "DENSE_CELL_CAP", cells)
        assert ItemCfModel([], K=k or n - 1, n_items=n).n_items == n

    @pytest.mark.parametrize("k", [None, 2])
    def test_overlap_cap_applies_to_train_and_load(self, k, monkeypatch, tmp_path):
        # more items than SORT_ROWS, so that SORT_ROWS x n and n x n
        # differ and either cap, for the wrong K, shows
        ds, _ = make_rank2_ratings(m=20, n=40, density=0.5, seed=2)
        n = ds.n_items
        assert n > SORT_ROWS
        bundle = ModelBundle(algorithm="itemcf", model=itemcf_similarity(ds, k=k),
                             user_index=ds.user_index, item_index=ds.item_index,
                             scale=ds.scale)
        path = save_model(bundle, tmp_path / "m.json")
        cells = (SORT_ROWS if k is None else n) * n
        monkeypatch.setattr(data, "DENSE_CELL_CAP", cells - 1)
        with pytest.raises(CapacityError, match=f"{cells // n} x {n} = {cells} cells"):
            itemcf_similarity(ds, k=k)
        with pytest.raises(CapacityError, match=f"{cells // n} x {n} = {cells} cells"):
            load_model(path)
        monkeypatch.setattr(data, "DENSE_CELL_CAP", cells)
        assert itemcf_similarity(ds, k=k).K == (k or n - 1)
        user = min(ds.user_index)
        assert load_model(path).recommend(user, n) == bundle.recommend(user, n)

    @pytest.mark.parametrize("version", [2, 4, FORMAT_VERSION])
    @pytest.mark.parametrize("bad", ["-1", "n"])
    def test_rating_index_outside_items_is_refused(self, bad, version,
                                                   tmp_path, capsys):
        # version 2 files carry "w", so no rebuild of W checks the indices
        bundle, ds = itemcf_bundle("explicit")
        doc = document(bundle)
        index = -1 if bad == "-1" else ds.n_items
        if version == FORMAT_VERSION:
            doc = inline(doc)
            block = doc["parameters"]
            block["ratings"] = edit_rows(block["ratings"],
                                         lambda rows: rows[0].append([index, 3.0]))
            doc = outline(doc)
        else:
            doc = old_layout(doc, version)
            if version == 2:
                doc["parameters"]["w"] = weights(bundle.model).tolist()
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
        doc = inline(document(bundle))
        block = doc["parameters"]
        block["ratings"] = edit_rows(block["ratings"],
                                     lambda rows: rows[0].append([ds.n_items, 3.0]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(outline(doc)))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)


class TestFileFormat:
    def test_header_fields(self):
        bundle, _ = funk_bundle()
        doc = document(bundle)
        assert doc["format_version"] == FORMAT_VERSION == 10
        assert doc["algorithm"] == "funk"
        assert doc["created"]
        assert doc["scale"] == [1.0, 5.0]
        # the tokens of each role in index order, front-coded, in place of the maps
        assert "user_index" not in doc and "item_index" not in doc
        assert tokens_of(doc["user_tokens"]) == sorted(bundle.user_index,
                                                       key=bundle.user_index.get)
        assert tokens_of(doc["item_tokens"]) == sorted(bundle.item_index,
                                                       key=bundle.item_index.get)
        # the one per-user list, the rated lists, is entry 0 of the lists table
        assert doc["parameters"]["rated"] == 0
        assert rows_of(doc["lists"][0]) == [row.tolist() for row in bundle.model.N]

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
        doc["format_version"] = FORMAT_VERSION + 1
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

    @pytest.mark.parametrize("version", [7, 8, 9, 10])
    def test_ffm_v_of_the_other_version_rejected(self, tmp_path, version):
        # versions 8 to 10 store the (dimension, k) cross-field table and
        # earlier versions the whole (dimension, 2, k) V; each is refused in
        # the other
        bundle, ds = fm_bundle("ffm")
        doc = {10: document, 9: lambda b: flat(document(b))}.get(
            version, lambda b: inline(document(b)))(bundle)
        if version >= 8:
            doc["parameters"]["v"] = whole_ffm_v(doc["parameters"]["v"], ds.n_users)
        doc["format_version"] = version
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed.*V must be shaped"):
            load_model(path)

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_observed_with_too_few_users_rejected(self, tmp_path, algo):
        bundle, _ = fm_bundle(algo)
        path = save_model(bundle, tmp_path / "m.json")
        doc = inline(json.loads(model_text(path)))
        block = doc["parameters"]
        block["observed"] = form_of(rows_of(block["observed"])[:2])
        path.write_text(json.dumps(outline(doc)))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_observed_item_outside_range_rejected(self, tmp_path, bad):
        bundle, ds = fm_bundle()
        assert ds.n_items == 6
        path = save_model(bundle, tmp_path / "m.json")
        doc = inline(json.loads(model_text(path)))
        block = doc["parameters"]
        block["observed"] = edit_rows(block["observed"], lambda rows: rows[0].append(bad))
        path.write_text(json.dumps(outline(doc)))
        # the lists entry the observed field names holds the item
        with pytest.raises(PersistenceError, match=r"malformed.*lists\[0\] must be one list"):
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
        doc = inline(json.loads(model_text(path)))
        block = doc["ensemble"]["members"][0]["parameters"]
        block["observed"] = edit_rows(block["observed"], list.pop)
        path.write_text(json.dumps(outline(doc)))
        with pytest.raises(PersistenceError, match="malformed.*observed"):
            load_model(path)

    def test_svd_negative_rated_index_rejected(self, tmp_path):
        bundle, _ = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = inline(json.loads(model_text(path)))
        block = doc["parameters"]
        block["rated"] = edit_rows(block["rated"], lambda rows: rows[0].append(-1))
        path.write_text(json.dumps(outline(doc)))
        with pytest.raises(PersistenceError, match=r"malformed.*lists\[0\] must be one list"):
            load_model(path)

    @pytest.mark.parametrize("make, key, axis", [(funk_bundle, "q", 1),
                                                  (svd_bundle, "v", 0)])
    def test_factor_tables_short_of_the_item_index_rejected(self, make, key,
                                                            axis, tmp_path):
        # the last item's factors go, and no rated list names that item
        bundle, ds = make()
        path = save_model(bundle, tmp_path / "m.json")
        doc = inline(json.loads(model_text(path)))
        block = doc["parameters"]
        a = _array(block[key], FORMAT_VERSION)
        block[key] = _ready(_floats(np.delete(a, -1, axis=axis)))
        block["rated"] = form_of([[i for i in row if i < ds.n_items - 1]
                                  for row in rows_of(block["rated"])])
        path.write_text(json.dumps(outline(doc)))
        with pytest.raises(PersistenceError, match=(
                f"hold {ds.n_items - 1} items where the item index has {ds.n_items}")):
            load_model(path)


def edited_funk_file(tmp_path, edit):
    """A saved funk file with edit applied to its document, and its dataset."""
    bundle, ds = funk_bundle()
    doc = json.loads(model_text(save_model(bundle, tmp_path / "m.json")))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path), ds


def assert_exits_3(capsys, path, user, item, match):
    """predict and recommend both exit 3 with one error line holding match."""
    for argv in (["predict", path, user, item], ["recommend", path, user]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed model file")
        assert match in captured.err
        assert len(captured.err.splitlines()) == 1


# (algorithm, per-user list key, the name its error line gives)
PER_USER_LISTS = [("svd", "rated", "svd rated"), ("funk", "rated", "N"),
                  ("itemcf", "ratings", "itemcf ratings"), ("fm", "observed", "observed")]


class TestPerUserListLayout:
    """Each per-user list is read only in the layout its format_version
    names: an index into the lists table from version 9, the gap-coded
    object in versions 6 to 8, nested lists before."""

    def edited_file(self, tmp_path, algo, edit, version=FORMAT_VERSION):
        """A saved file in the layout of version (4, 5, 6, 8, 9 or the
        current one), with edit applied to its document."""
        ds = small_dataset()
        doc = json.loads(model_text(save_model(trained_bundle(algo, ds),
                                               tmp_path / "m.json")))
        if version < 6:
            doc = old_layout(doc, version)
        elif version == 9:
            doc = flat(doc)
        elif version < FORMAT_VERSION:
            doc = with_encoders(doc, version) if version == 6 else inline(doc)
            assert doc["format_version"] == version
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path), min(ds.user_index), min(ds.item_index)

    # the list name used to be missing from numpy's "inhomogeneous
    # shape" message; from version 9 the list is named by its lists entry.
    # Only a version 9 entry, JSON lists, can be ragged
    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_ragged_list_exits_3_naming_it(self, algo, key, name, tmp_path, capsys):
        def edit(doc):
            form = doc["lists"][doc["parameters"][key]]
            form["gaps"][0] = [form["gaps"][0]]

        path, user, item = self.edited_file(tmp_path, algo, edit, 9)
        assert_exits_3(capsys, path, user, item, "lists[0] must be one list per user")

    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_ragged_list_in_version_6_exits_3_naming_it(self, algo, key, name, tmp_path,
                                                        capsys):
        def edit(doc):
            form = doc["parameters"][key]
            form["gaps"][0] = [form["gaps"][0]]

        path, user, item = self.edited_file(tmp_path, algo, edit, 6)
        assert_exits_3(capsys, path, user, item, f"{name} must be one list per user")

    # both used to load and serve
    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_nested_lists_in_version_6_exit_3(self, algo, key, name, tmp_path, capsys):
        def edit(doc):
            doc["parameters"][key] = rows_of(doc["parameters"][key])

        path, user, item = self.edited_file(tmp_path, algo, edit, 6)
        assert_exits_3(capsys, path, user, item, f"{key} must be a JSON object in format_version 6")

    @pytest.mark.parametrize("stored", ["object", "nested", -1, 1, True, None])
    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_field_that_is_not_an_index_into_lists_exits_3(self, algo, key, name, stored,
                                                           tmp_path, capsys):
        # from version 9 a field names its list by index: the list itself,
        # in either older layout, a negative index, one past the table and
        # true are refused; null only where the model allows no list
        def edit(doc):
            block = doc["parameters"]
            form = doc["lists"][block[key]]
            block[key] = {"object": form, "nested": rows_of(form)}.get(stored, stored)

        if stored is None and key != "ratings" and algo != "svd":
            return  # funk and fm hold no lists as null
        path, user, item = self.edited_file(tmp_path, algo, edit)
        assert_exits_3(capsys, path, user, item, "must be one list per user, got null"
                       if stored is None else
                       f"{key} must be an index into lists in format_version {FORMAT_VERSION}")

    @pytest.mark.parametrize("version", [4, 5])
    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_gap_coded_object_before_version_6_exits_3(self, algo, key, name, version,
                                                        tmp_path, capsys):
        def edit(doc):
            block = doc["parameters"]
            block[key] = form_of(block[key], valued=key == "ratings")

        path, user, item = self.edited_file(tmp_path, algo, edit, version)
        assert_exits_3(capsys, path, user, item,
                       f"{key} must be a JSON array in format_version {version}")

    @pytest.mark.parametrize("version", [5, 6, 8, FORMAT_VERSION])
    @pytest.mark.parametrize("algo, key, name", PER_USER_LISTS)
    def test_layout_of_the_version_loads(self, algo, key, name, version, tmp_path):
        path, user, item = self.edited_file(tmp_path, algo, lambda doc: None, version)
        trained = trained_bundle(algo, small_dataset())
        assert load_model(path).recommend(user, 2) == trained.recommend(user, 2)


class TestHeaderChecks:
    @pytest.mark.parametrize("key", ["user_index", "item_index"])
    @pytest.mark.parametrize("bad", [-1, "repeat", True, 0.7, "1", None])
    def test_index_map_not_one_to_one_onto_the_indices_exits_3(
            self, key, bad, capsys, tmp_path):
        # -1 ended in a raw IndexError; a repeat, true or 0.7 (which int()
        # read as 0) loaded and answered for the wrong user or item.
        # Versions 1 to 5 hold these maps, so the committed version 5 file
        # is edited.
        doc = json.loads(model_text(FIXTURES / "format5_blend.json"))
        token = min(doc[key], key=doc[key].get)
        doc[key][token] = 0 if bad == "repeat" else bad
        if bad == "repeat":
            doc[key][max(doc[key], key=doc[key].get)] = 0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        assert_exits_3(capsys, str(path), token, token,
                       f"{key} must map its tokens one to one onto 0..n-1")

    @pytest.mark.parametrize("key", ["user_tokens", "item_tokens"])
    @pytest.mark.parametrize("bad", ["map", "u000", None, "list", "extra key"])
    def test_token_list_that_is_not_a_list_exits_3(self, key, bad, capsys,
                                                    tmp_path):
        # from version 9 a token list is front-coded: two lists of one length
        def edit(doc):
            # "map": the index map versions 1 to 5 hold; "list": the plain
            # token list of versions 6 to 8
            tokens = tokens_of(doc[key])
            doc[key] = {"map": {token: at for at, token in enumerate(tokens)},
                        "list": tokens, "extra key": dict(doc[key], tokens=tokens)
                        }.get(bad, bad)

        path, ds = edited_funk_file(tmp_path, edit)
        user, item = min(ds.user_index), min(ds.item_index)
        assert_exits_3(capsys, path, user, item,
                       f"{key} must be two lists of one length, shared and suffixes")

    @pytest.mark.parametrize("bad", [[5, 1], [3, 3], "15", [1, 5, 9], [1],
                                     [True, 5], [1, "5"], [1, math.nan],
                                     [-math.inf, 5], [1, math.inf], [1, 10**400],
                                     None])
    def test_scale_that_is_not_two_finite_rising_numbers_exits_3(
            self, bad, capsys, tmp_path):
        # [5, 1] clamped every rounding to 1, "15" was read as (1, 5), and
        # a NaN or infinite bound made predict fail with a traceback
        def edit(doc):
            doc["scale"] = bad

        path, ds = edited_funk_file(tmp_path, edit)
        assert_exits_3(capsys, path, min(ds.user_index), min(ds.item_index),
                       "scale must be two finite numbers lo < hi")

    @pytest.mark.parametrize("scale", [(5.0, 1.0), (1.0, math.inf),
                                       (math.nan, 5.0), ("1", "5"), (1.0,),
                                       (1, 10**400)])
    def test_bundle_refuses_the_same_scales(self, scale):
        bundle, _ = funk_bundle()
        with pytest.raises(ValidationError, match="scale must be"):
            dataclasses.replace(bundle, scale=scale)

    @pytest.mark.parametrize("index", [{"a": 1}, {"a": 0, "b": 0},
                                       {"a": 0, "b": True}, {"a": 0.0}, ["a"],
                                       # built, then answered no query: lookups
                                       # str() the token, so user 1 was unknown
                                       {1: 0, 2: 1}])
    def test_bundle_refuses_an_index_map_that_is_not_one_to_one(self, index):
        bundle, _ = funk_bundle()
        with pytest.raises(ValidationError, match="user_index must map"):
            dataclasses.replace(bundle, user_index=index)


class TestParameterKinds:
    @pytest.mark.parametrize("algo, key, bad", [
        ("funk", "f", 1.5), ("funk", "f", "3"), ("funk", "f", True),
        ("itemcf", "k", 2.0), ("svd", "f", None), ("svdpp", "mu", "3"),
        ("svdpp", "mu", True), ("fm", "w0", None), ("ffm", "n_fields", True),
        ("svd", "similarity_mode", 3), ("svd", "neighborhood", "2"),
        ("svd", "neighborhood", 1.5), ("svd", "neighborhood", False),
    ])
    def test_scalar_of_the_wrong_json_kind_rejected(self, algo, key, bad,
                                                    tmp_path):
        # int() read 1.5, "3" and true as 1, 3 and 1
        ds = small_dataset()
        path = save_model(trained_bundle(algo, ds), tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"][key] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=f"parameter {key} must be a JSON"):
            load_model(path)

    @pytest.mark.parametrize("key, bad", [("weights", ["3", 0.5]),
                                          ("weights", [True, 0.5]),
                                          ("intercept", "0")])
    def test_ensemble_scalar_of_the_wrong_json_kind_rejected(self, key, bad,
                                                            tmp_path):
        # float() read "3" and true as 3.0 and 1.0
        ds = small_dataset()
        members = [trained_bundle(algo, ds).scorer for algo in ("funk", "svdpp")]
        bundle = ModelBundle(algorithm="ensemble",
                             model=BlendModel(members=members, weights=[0.5, 0.5]),
                             user_index=ds.user_index, item_index=ds.item_index,
                             scale=ds.scale)
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["ensemble"][key] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=f"parameter {key} must be a JSON number"):
            load_model(path)

    @pytest.mark.parametrize("key, bad, match", [
        # 0 sent every prediction to the user mean
        ("neighborhood", 0, "neighborhood must be None or an int >= 1"),
        ("neighborhood", -2, "neighborhood must be None or an int >= 1"),
        # f = 5 over rank-2 factors loaded as a model of rank 5
        ("f", 5, r"retained rank 5 but factors s of shape \(2,\)"),
    ], ids=["neighborhood-0", "neighborhood--2", "f-5"])
    def test_svd_parameter_the_model_refuses_rejected(self, key, bad, match, tmp_path,
                                                     capsys):
        bundle, ds = svd_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"][key] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=f"malformed model file .*{match}"):
            load_model(path)
        assert main(["predict", str(path), min(ds.user_index), min(ds.item_index)]) == 3
        assert capsys.readouterr().err.startswith("error: malformed model file")

    @pytest.mark.parametrize("algo, key", [("svd", "rated"), ("itemcf", "ratings")])
    def test_null_lists_rejected_where_the_model_needs_them(self, algo, key,
                                                            tmp_path):
        # an svd rated null ended in an AttributeError traceback
        ds = small_dataset()
        path = save_model(trained_bundle(algo, ds), tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"][key] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=f"{algo} {key} must be one list per user"):
            load_model(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    def test_itemcf_rating_that_is_not_a_finite_number_rejected(
            self, bad, tmp_path, capsys):
        # NaN or inf made predict fail with "cannot round non-finite value"
        ds = small_dataset()
        path = save_model(trained_bundle("itemcf", ds), tmp_path / "m.json")
        doc = json.loads(model_text(path))
        doc["parameters"]["values"][0] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="with finite values"):
            load_model(path)
        assert main(["predict", str(path), min(ds.user_index), min(ds.item_index)]) == 3
        assert capsys.readouterr().err.startswith("error: malformed model file")

    @pytest.mark.parametrize("width", [1, 2])
    def test_itemcf_ratings_held_in_lists_rejected(self, width, tmp_path, capsys):
        # [r] loaded as r, and [r, r] made predict exit 1 with a raw ValueError
        ds = small_dataset()
        path = save_model(trained_bundle("itemcf", ds), tmp_path / "m.json")
        doc = json.loads(model_text(path))
        block = doc["parameters"]
        block["values"] = [[r] * width for r in block["values"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="with finite values"):
            load_model(path)
        for argv in (["predict", str(path), min(ds.user_index), min(ds.item_index)],
                     ["recommend", str(path), min(ds.user_index)]):
            assert main(argv) == 3
            assert capsys.readouterr().err.startswith("error: malformed model file")


class TestBootstrapRepeats:
    """A bootstrap resample (allow_duplicate_pairs, as bag_train builds it)
    repeats (user, item) pairs."""

    def resample(self):
        # user a rates x three times (2, 5, then 4) and y once
        triples = [("a", "x", 2.0), ("a", "y", 1.0), ("a", "x", 5.0),
                   ("b", "y", 3.0), ("a", "x", 4.0), ("b", "x", 2.0)]
        return RatingDataset(triples, allow_duplicate_pairs=True)

    def test_itemcf_holds_each_pair_once_with_the_last_rating(self):
        ds = self.resample()
        model = itemcf_similarity(ds)
        bundle = ModelBundle(algorithm="itemcf", model=model,
                             user_index=ds.user_index,
                             item_index=ds.item_index, scale=ds.scale)
        x, y = ds.item_index["x"], ds.item_index["y"]
        doc = document(bundle)
        assert flat(doc)["lists"] == [{"lengths": [2, 2], "gaps": [x, y - x, x, y - x]}]
        assert doc["parameters"]["ratings"] == 0
        assert doc["parameters"]["values"] == [4.0, 1.0, 2.0, 3.0]
        assert [int(i) for i in model.ratings[ds.user_index["a"]]] == [x, y]

    def test_funk_and_svdpp_keep_the_repeats(self):
        ds = self.resample()
        a, x, y = ds.user_index["a"], ds.item_index["x"], ds.item_index["y"]
        config = TrainConfig(f=2, epochs=1, seed=4)
        funk, svdpp = funk_train(ds, config), svdpp_train(ds, config)
        assert funk.N[a].tolist() == svdpp.N[a].tolist() == [x, x, x, y]
        # svdpp's implicit sum counts each repeat
        implicit = svdpp.Y[:, [x, x, x, y]].sum(axis=1) / 2.0
        for i in (x, y):
            assert svdpp_implicit_predict(svdpp, a, i) == pytest.approx(
                float(np.dot(svdpp.Q[:, i], implicit)), abs=1e-12)


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

    @settings(max_examples=60, deadline=None)
    @given(algo=st.sampled_from(["fm", "ffm"]), k=st.integers(1, 40),
           n_items=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_fm_scores_are_predict_of_encoded_pairs(self, algo, k, n_items, seed):
        # bit for bit, over the one-hot layout of tokens in a drawn order,
        # two of which differ from another only by a trailing "\x00"
        # (numpy's string arrays drop it, so its sort would tie them)
        rng = np.random.default_rng(seed)
        users, items = ["u0", "u0\x00", "u1"], [f"i{j}" for j in range(5)] + ["i0\x00"]
        users, items = ([tokens[j] for j in rng.permutation(len(tokens))]
                        for tokens in (users, items))
        spec = one_hot_layout(users, items)
        n, scale = spec.dimension, 10.0 ** rng.integers(-2, 3)
        if algo == "fm":
            model = FmModel(w0=float(rng.normal()), w=rng.normal(size=n) * scale,
                            V=rng.normal(size=(n, k)) * scale, k=k)
        else:
            model = FfmModel(w0=float(rng.normal()), w=rng.normal(size=n) * scale,
                             V=rng.normal(size=(n, 2, k)) * scale, k=k, n_fields=2)
        predict = fm_predict_fast if algo == "fm" else ffm_predict
        user_features, item_features = one_hot_features(model, spec, users, items)
        chosen = rng.integers(0, len(items), size=n_items)
        for u, user in enumerate(users):
            got = one_hot_scores(model, user_features[u], item_features[chosen])
            want = np.array([predict(model, encode((user, items[i]), spec)) for i in chosen])
            assert got.shape == (n_items,) and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_machine_that_does_not_fit_its_encoder_raises_at_construction(self, algo):
        bundle, ds = fm_bundle(algo)
        model = bundle.model
        short = dataclasses.replace(model, w=model.w[:-3], V=model.V[:-3])
        with pytest.raises(LatentRecError, match="dimension"):
            dataclasses.replace(bundle, model=short)


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

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    @pytest.mark.parametrize("change", ["permuted", "superset"])
    def test_fm_encoder_other_than_the_sorted_layout_is_refused(self, algo, change,
                                                                tmp_path, capsys):
        # both were saved and loaded before version 7; a version 7 file
        # stores no encoder, so the sorted layout is the only one it means
        bundle, ds = fm_bundle(algo)
        columns = [[c.name, c.kind, list(c.categories)] for c in bundle.encoder.columns]
        model = bundle.model
        if change == "permuted":
            columns[1][2].reverse()
        else:
            # one more item category, and a machine row for it
            columns[1][2].append("zzz")
            model = dataclasses.replace(model, w=np.append(model.w, 0.5),
                                        V=np.concatenate([model.V, model.V[-1:]]))
        # the machine and encoder in a version 6 file
        path = tmp_path / "m.json"
        doc = with_encoders(document(bundle))
        doc["encoder"]["columns"][1]["categories"] = columns[1][2]
        doc["parameters"]["w"], doc["parameters"]["v"] = (
            _ready(_floats(a)) for a in (model.w, model.V))
        path.write_text(json.dumps(doc))
        assert_exits_3(capsys, str(path), min(ds.user_index), min(ds.item_index),
                       f"{algo} encoder must be a categorical user column")

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
        assert scorer is bundle.model
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
                       item_index=ds.item_index, scale=ds.scale, observed=observed)


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
                             f=svd.model.f)
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
                bundle = dataclasses.replace(bundle, created="2026-01-01T00:00:00+00:00")
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


def planes_text(data):
    """Base64 float block data in value order, rewritten in byte-plane
    order: byte 0 of every float64, then byte 1 of every one, and so on."""
    raw = base64.b64decode(data)
    return base64.b64encode(b"".join(raw[k::8] for k in range(8))).decode("ascii")


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
    @example(a=np.empty(0), transpose=False, block_rows=1)
    @example(a=np.array([-0.0]), transpose=False, block_rows=1)
    @example(a=np.array([np.inf, -np.inf, 5e-324, -0.0, 1.0, np.nan, -5e-324]),
             transpose=False, block_rows=1)
    @example(a=np.array([[0x7FF0000000000001, 0xFFF8DEADBEEF0001, 0x000FFFFFFFFFFFFF],
                         [0x8000000000000000, 0x7FF0000000000000, 1]],
                        dtype=np.uint64).view(np.float64),
             transpose=True, block_rows=2)
    def test_property_block_round_trips_every_bit(self, a, transpose,
                                                  block_rows):
        if transpose:  # a non-contiguous view is stored in row-major order
            a = a.T
        # the writer's pieces of 24 * block_rows bytes, and document()'s text
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(persist, "BLOCK_ROWS", block_rows)
            text = "".join(_json_chunks(_floats(a)))
        assert text == json.dumps(_ready(_floats(a)), sort_keys=True,
                                  separators=(",", ":"))
        block = json.loads(text)
        value_order = base64.b64encode(a.tobytes()).decode("ascii")
        assert block["data"] == planes_text(value_order)
        # the same bytes in value order are a version 4 block
        for version, stored in ((FORMAT_VERSION, block),
                                (4, dict(block, data=value_order))):
            back = _array(stored, version)
            assert back.shape == a.shape and back.dtype == np.float64
            assert back.tobytes() == a.tobytes()
            assert back.flags.writeable and back.flags.c_contiguous

    def test_block_layout(self):
        a = np.array([[1.0, -0.0], [0.5, 2.0]])
        block = _ready(_floats(a))
        # bytes 0-5 of each value are zero; byte 6 is f0 00 e0 00 and
        # byte 7 (sign and high exponent) 3f 80 3f 40
        assert block == {
            "data": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA8ADgAD+AP0A=",
            "dtype": "<f8",
            "shape": [2, 2],
        }
        assert _array(block, FORMAT_VERSION).tobytes() == a.tobytes()
        # version 4 stored the same bytes value by value
        v4 = dict(block, data="AAAAAAAA8D8AAAAAAAAAgAAAAAAAAOA/AAAAAAAAAEA=")
        assert _array(v4, 4).tobytes() == a.tobytes()

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
        doc = old_layout(doc, 3)
        doc["parameters"]["p"] = bundle.model.P.tolist()
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


# items at the edges of the int dtypes: every gap between two of them, or
# from 0 to one, is at or next to +-127/128 or +-32767/32768, or needs "<i4"
EDGE_ITEMS = [0, 1, 126, 127, 128, 129, 255, 256, 32766, 32767, 32768, 32769, 65535, 39999]


@st.composite
def edge_rows(draw):
    """(per-user item lists, n_items): short unsorted rows over the edge
    items and any others, repeats and empty rows allowed, and now and then
    a row of 128 or more items, whose length needs "<i2"."""
    n_items = draw(st.sampled_from([300, 40000]), label="n_items")
    item = st.sampled_from([i for i in EDGE_ITEMS if i < n_items]) | st.integers(0, n_items - 1)
    row = st.lists(item, max_size=6) | st.lists(st.integers(0, n_items - 1), min_size=128,
                                                 max_size=140)
    return draw(st.lists(row, min_size=1, max_size=5), label="rows"), n_items


def edit_ints(key, change):
    """An edit of lists[0]'s key block (lengths or gaps): change(values,
    n_items) edits its ints in place, and they are stored again as an int
    block."""
    def edit(doc):
        entry = doc["lists"][0]
        values = block_ints(entry[key])
        change(values, len(tokens_of(doc["item_tokens"])))
        entry[key] = int_block(values)
    return edit


def shift_first(values, by):
    values[0] += by
    values[1] -= by


# faults of an int block, or of a block of the other kind in its place, as
# edits of a saved funk document; each load refuses
INT_BLOCK_EDITS = {
    "unsigned-dtype": lambda doc: doc["lists"][0]["gaps"].update(dtype="<u1"),
    "big-endian": lambda doc: doc["lists"][0]["gaps"].update(dtype=">i2"),
    "i3-dtype": lambda doc: doc["lists"][0]["lengths"].update(dtype="<i3"),
    "f8-dtype": lambda doc: doc["lists"][0]["lengths"].update(dtype="<f8"),
    "byte-count-past-shape": lambda doc: doc["lists"][0]["gaps"].update(
        shape=[doc["lists"][0]["gaps"]["shape"][0] + 1]),
    "byte-count-of-another-dtype": lambda doc: doc["lists"][0]["gaps"].update(dtype="<i2"),
    "two-d-gaps": lambda doc: doc["lists"][0]["gaps"].update(
        shape=[1, doc["lists"][0]["gaps"]["shape"][0]]),
    "negative-length": edit_ints("lengths", lambda v, n: shift_first(v, -v[0] - 1)),
    "lengths-past-gaps": edit_ints("lengths", lambda v, n: v.__setitem__(0, v[0] + 1)),
    "lengths-short-of-gaps": edit_ints("lengths", lambda v, n: v.__setitem__(0, v[0] - 1)),
    "gap-of-n-items": edit_ints("gaps", lambda v, n: v.__setitem__(0, n)),
    "gap-of-minus-n-items": edit_ints("gaps", lambda v, n: v.__setitem__(1, -n)),
    "float-block-for-gaps": lambda doc: doc["lists"][0].update(
        gaps=array_block(np.array(block_ints(doc["lists"][0]["gaps"]), dtype=float))),
    "int-block-for-q": lambda doc: doc["parameters"].update(q=dict(
        int_block(list(range(math.prod(doc["parameters"]["q"]["shape"])))),
        shape=doc["parameters"]["q"]["shape"])),
}


class TestIntBlocks:
    """From format 10 a lists entry stores its lengths and gaps as int
    blocks: the narrowest little-endian signed dtype that holds them,
    their bytes in byte planes."""

    @settings(max_examples=25, deadline=None)
    @given(drawn=edge_rows())
    @example(drawn=([[127, 0, 128, 0, 255], [], [32767, 0, 32768, 0, 39999, 129, 1]], 40000))
    @example(drawn=([[126, 254, 126], [0, 0], []], 300))
    def test_property_save_load_round_trip(self, drawn, tmp_path_factory):
        rows, n_items = drawn
        model = factor.FactorModel(P=np.ones((1, len(rows))), Q=np.zeros((1, n_items)), f=1,
                                   kind="funk", N=rows)
        bundle = ModelBundle("funk", model, {f"u{u}": u for u in range(len(rows))},
                             {f"i{i}": i for i in range(n_items)})
        path = save_model(bundle, tmp_path_factory.mktemp("ints") / "m.json")
        doc = json.loads(model_text(path))
        # each block is the narrowest dtype's, built apart from the writer
        entry, form = doc["lists"][doc["parameters"]["rated"]], form_of(rows)
        assert entry == {key: int_block(form[key]) for key in ("lengths", "gaps")}
        assert [row.tolist() for row in load_model(path).model.N] == rows

    @pytest.mark.parametrize("values, dtype", [
        ([], "<i1"), ([-128, 127], "<i1"), ([128], "<i2"), ([-129], "<i2"),
        ([-32768, 32767], "<i2"), ([32768], "<i4"), ([-32769], "<i4"),
        ([2**31 - 1, -2**31], "<i4"), ([2**31], "<i8"), ([-2**63, 2**63 - 1], "<i8"),
    ])
    def test_dtype_is_the_narrowest_that_holds_the_values(self, values, dtype):
        block = _ints(np.array(values, dtype=np.int64))
        assert block["dtype"] == dtype and block["shape"] == [len(values)]
        text = json.loads(json.dumps(_ready(block)))
        if dtype != "<i8":  # int_block and json hold Python ints
            assert text == int_block(values)
        back = _array(text, FORMAT_VERSION, persist.INT_DTYPES)
        assert back.dtype == np.int64 and back.tolist() == values

    @pytest.mark.parametrize("edit", INT_BLOCK_EDITS.values(), ids=INT_BLOCK_EDITS)
    def test_malformed_int_block_exits_3(self, edit, tmp_path, capsys):
        bundle, ds = funk_bundle()
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="malformed model file"):
            load_model(path)
        assert main(["recommend", str(path), min(ds.user_index)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model file") and len(err.splitlines()) == 1

    def test_tokens_that_differ_by_a_trailing_nul_predict_as_before(self, tmp_path):
        # the one-hot features are the tokens' ranks in Python's sort, which
        # tells "a" from "a\x00"; numpy's string sort would tie them
        ds = RatingDataset([("a", "x", 1.0), ("a\x00", "x\x00", 5.0), ("b", "x", 4.0),
                            ("a", "x\x00", 2.0), ("a\x00", "x", 3.0)])
        bundle = trained_bundle("fm", ds)
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        assert loaded.user_index == bundle.user_index
        spec = one_hot_layout(ds.user_index, ds.item_index)
        for user in ds.user_index:
            for item in ds.item_index:
                want = fm_predict_fast(bundle.model, encode((user, item), spec))
                assert bundle.predict(user, item) == loaded.predict(user, item) == want
        assert sorted(bundle.scorer.user_features.tolist()) == [0, 1, 2]


# the tag the "tag" edit gives each algorithm's model: another algorithm's
OTHER_TAG = {"svd": "itemcf", "itemcf": "svd", "funk": "svdpp", "svdpp": "funk",
             "fm": "ffm", "ffm": "fm"}
# faults a model file cannot hold, as edits of a trained bundle; "r-star"
# applies to svd only
EDITS = ("none", "extra-user", "tag", "r-star")


def edited_bundle(bundle, edit):
    """bundle with one fault: "extra-user" gives its user index a token
    the model's tables have no row for, "tag" labels its model with
    another algorithm, "r-star" doubles an svd model's reconstruction
    off its factors; "none" returns bundle."""
    if edit == "extra-user":
        observed = None if bundle.observed is None else \
            [row.tolist() for row in bundle.observed] + [[]]
        return dataclasses.replace(
            bundle, user_index={**bundle.user_index, "extra": len(bundle.user_index)},
            observed=observed)
    if edit == "tag":
        return dataclasses.replace(bundle, algorithm=OTHER_TAG[bundle.algorithm])
    if edit == "r-star":
        model = bundle.model
        return dataclasses.replace(bundle, model=dataclasses.replace(
            model, r_star=2.0 * model.r_star))
    return bundle


class TestSaveChecks:
    """save_model refuses, with no file written, every bundle whose file
    load_model would refuse or read back as another model."""

    @staticmethod
    def assert_refused(bundle, path, match):
        with pytest.raises(PersistenceError, match=match):
            save_model(bundle, path)
        assert not path.exists()

    def test_single_tables_short_of_the_tokens(self, tmp_path):
        bundle = edited_bundle(funk_bundle()[0], "extra-user")
        self.assert_refused(bundle, tmp_path / "m.json",
                            "funk tables hold 8 users where the user index has 9")

    def test_member_tables_short_of_the_tokens(self, tmp_path):
        funk, ds = funk_bundle()
        bundle = ModelBundle("ensemble", BlendModel([funk.model], [1.0]),
                             {**ds.user_index, "extra": ds.n_users}, ds.item_index,
                             ds.scale)
        self.assert_refused(bundle, tmp_path / "m.json",
                            "funk tables hold 8 users where the user index has 9")

    def test_svdpp_tag_on_a_funk_model(self, tmp_path):
        bundle = edited_bundle(funk_bundle()[0], "tag")
        self.assert_refused(bundle, tmp_path / "m.json", "svdpp bundle holds a funk model")

    def test_svd_reconstruction_off_its_factors(self, tmp_path):
        bundle, ds = svd_bundle()
        edited = edited_bundle(bundle, "r-star")
        user, item = min(ds.user_index), max(ds.item_index)
        assert edited.predict(user, item) != bundle.predict(user, item)
        self.assert_refused(edited, tmp_path / "m.json",
                            "r_star values do not follow from the stored factors")

    @settings(max_examples=40, deadline=None)
    @given(grid=GRIDS, algo=st.sampled_from(sorted(OTHER_TAG)), data=st.data())
    def test_property_save_succeeds_exactly_when_load_does(self, grid, algo, data,
                                                           tmp_path_factory):
        edit = data.draw(st.sampled_from(EDITS if algo == "svd" else EDITS[:-1]))
        ds = grid_dataset(grid)
        if algo in ("fm", "ffm") and edit == "extra-user":
            # an fm or ffm view is built from the tokens, so the machine,
            # one user row short of them, is refused with the bundle
            with pytest.raises(ShapeError):
                edited_bundle(trained_bundle(algo, ds), edit)
            return
        bundle = edited_bundle(trained_bundle(algo, ds), edit)
        path = tmp_path_factory.mktemp("edited") / "m.json"
        try:
            save_model(bundle, path)
        except PersistenceError:
            assert edit != "none" and not path.exists()
            return
        assert edit == "none"
        loaded = load_model(path)
        items = np.arange(ds.n_items)
        for u in range(ds.n_users):
            assert loaded.scorer.scores(u, items).tobytes() == \
                bundle.scorer.scores(u, items).tobytes()


class TestServingObject:
    def test_scorer_is_the_model_but_for_fm_and_ffm(self):
        bundles = every_kind(small_dataset())
        for kind, bundle in bundles.items():
            if kind in ("fm", "ffm"):
                assert isinstance(bundle.scorer, IndexedModel)
                assert bundle.scorer.model is bundle.model
            else:
                assert bundle.scorer is bundle.model, kind
        # ensemble members are the models, and fm/ffm ones their views
        members = bundles["blend"].model.members
        assert [type(m) for m in members] == \
            [type(bundles[algo].scorer) for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm")]

    @pytest.mark.parametrize("name", ["algorithm", "model", "observed", "created", "scorer"])
    def test_fields_cannot_be_assigned(self, name):
        bundle, _ = fm_bundle()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bundle, name, getattr(bundle, name))

    def test_fm_evaluate_looks_features_up_once(self, tmp_path, monkeypatch):
        ratings, model = tmp_path / "r.csv", tmp_path / "fm.json"
        ratings.write_text(FOUR_BY_FOUR_CSV)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["train", "--algo", "fm", "--epochs", "2", "--input", str(ratings),
                         "--output", str(model)]) == 0
            calls = []
            lookup = persist.one_hot_features
            monkeypatch.setattr(persist, "one_hot_features",
                                lambda *args: calls.append(args) or lookup(*args))
            assert main(["evaluate", str(model), "--test", str(ratings), "--k", "5,10"]) == 0
        assert len(calls) == 1

    def test_bundle_takes_no_encoder(self):
        bundle, ds = fm_bundle()
        assert "encoder" not in {field.name for field in dataclasses.fields(ModelBundle)}
        with pytest.raises(TypeError, match="encoder"):
            ModelBundle("fm", bundle.model, ds.user_index, ds.item_index, ds.scale,
                        encoder=bundle.encoder)

    def test_encoder_is_the_one_hot_layout_of_the_tokens(self):
        for kind, bundle in every_kind(small_dataset()).items():
            if kind in ("fm", "ffm"):
                assert bundle.encoder == one_hot_layout(bundle.user_index, bundle.item_index)
                assert bundle.encoder is bundle.scorer.encoder
            else:
                assert bundle.encoder is None, kind

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_view_of_unsorted_index_maps_saves_and_reloads(self, algo, tmp_path):
        # features follow the sorted layout, not the index order, so a
        # feature is not the index arithmetic gives
        ds = RatingDataset([("a", "x", 1.0), ("b", "y", 5.0), ("c", "x", 4.0)])
        trained = trained_bundle(algo, ds)
        bundle = ModelBundle(algo, trained.model, {"b": 0, "a": 1, "c": 2}, ds.item_index,
                             ds.scale)
        assert bundle.scorer.user_features.tolist() == [1, 0, 2]
        loaded = load_model(save_model(bundle, tmp_path / "m.json"))
        for user in "abc":
            for item in "xy":
                assert bundle.predict(user, item) == trained.predict(user, item)
                assert loaded.predict(user, item) == trained.predict(user, item)

    @pytest.mark.parametrize("kind", ["svd", "svd-dense", "funk", "svdpp", "itemcf", "blend"])
    def test_observed_lists_on_another_algorithm_are_refused(self, kind):
        # only an fm or ffm scorer reads them; any other bundle would drop them
        bundle = every_kind(small_dataset())[kind]
        observed = [[0]] * len(bundle.user_index)
        with pytest.raises(ValidationError, match="observed"):
            dataclasses.replace(bundle, observed=observed)

    def test_blend_save_looks_no_feature_up(self, tmp_path, monkeypatch):
        blend = every_kind(small_dataset())["blend"]
        calls = []
        lookup = persist.one_hot_features
        monkeypatch.setattr(persist, "one_hot_features",
                            lambda *args: calls.append(args) or lookup(*args))
        save_model(blend, tmp_path / "m.json")
        assert calls == []


def ffm_blocks(V, n_users):
    """(cross-field table, same-field vectors) of an ffm V over the one-hot
    layout, whose user block is its first n_users + 1 features: row j of
    the table is V[j, 1] in the user block and V[j, 0] in the item block,
    and the same-field vectors are the other halves."""
    user, item = V[:n_users + 1], V[n_users + 1:]
    return (np.concatenate((user[:, 1], item[:, 0])),
            np.concatenate((user[:, 0], item[:, 1])))


def float_arrays(model, n_users):
    """Every float array a model file stores, by name; an ffm model's V as
    its cross-field table (ffm_blocks), as a file stores it from format 8."""
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
        return {"w": weights(model)}
    if isinstance(model, FfmModel):
        return {"w": model.w, "v": ffm_blocks(model.V, n_users)[0]}
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

    svd = singles["svd"].model
    dense = svdcf.SvdCfModel(r_star=svd.r_star, mask=svd.mask, f=svd.f)
    return {
        **singles,
        "svd-dense": dataclasses.replace(singles["svd"], model=dense),
        "blend": ensemble(BlendModel(members=members, weights=[1, 2, 3, 4, 5, 6])),
        "stack": ensemble(stack_fit(members, ds)),
        "bag": ensemble(bag_train(lambda d: trained_bundle("funk", d).scorer,
                                  ds, b=3, seed=2)),
    }


class TestExactReload:
    @pytest.mark.parametrize("kind", ["svd", "svd-dense", "funk", "svdpp",
                                      "itemcf", "fm", "ffm", "blend", "stack",
                                      "bag"])
    def test_reload_predicts_bit_for_bit_and_resaves_identically(self, kind,
                                                                 tmp_path):
        ds = small_dataset()
        bundle = every_kind(ds)[kind]
        first = save_model(bundle, tmp_path / "a.json")
        loaded = load_model(first)
        before, after = itemcf_models(bundle), itemcf_models(loaded)
        for old, new in zip(before, after):
            old_arrays, new_arrays = float_arrays(old, ds.n_users), float_arrays(new, ds.n_users)
            assert old_arrays.keys() == new_arrays.keys()
            for name, a in old_arrays.items():
                assert new_arrays[name].tobytes() == a.tobytes(), name
            # the same-field vectors no score reads are not stored
            if isinstance(new, FfmModel):
                assert (ffm_blocks(new.V, ds.n_users)[1] == 0.0).all()
        assert_predictions_match(bundle, loaded, ds, tol=0.0)
        # every member's scores, and the bundle's, bit for bit
        items = np.arange(ds.n_items)
        for before, after in zip(_members(bundle), _members(loaded), strict=True):
            for u in range(ds.n_users):
                assert after.scores(u, items).tobytes() == before.scores(u, items).tobytes()
        for u in range(ds.n_users):
            assert loaded.scorer.scores(u, items).tobytes() == \
                bundle.scorer.scores(u, items).tobytes()
        for user in ds.user_index:  # ensembles recommend by member vote
            assert loaded.recommend(user, ds.n_items) == \
                bundle.recommend(user, ds.n_items)
        second = save_model(loaded, tmp_path / "b.json")
        assert json.loads(model_text(first))["format_version"] == FORMAT_VERSION
        assert model_text(second) == model_text(first)
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(grid=GRIDS)
    def test_property_save_load_round_trip(self, grid, tmp_path_factory):
        # the per-user lists (svd rated, funk/svdpp N, itemcf ratings, fm/ffm
        # observed) cross the file boundary with the scores, lists and bytes
        ds = grid_dataset(grid)
        folder = tmp_path_factory.mktemp("round-trip")
        items = np.arange(ds.n_items)
        for algo in ("svd", "funk", "svdpp", "itemcf", "fm", "ffm"):
            bundle = dataclasses.replace(trained_bundle(algo, ds),
                                         created="2026-01-01T00:00:00+00:00")
            first = save_model(bundle, folder / f"{algo}.json")
            loaded = load_model(first)
            for u in range(ds.n_users):
                assert np.array_equal(loaded.scorer.scores(u, items),
                                      bundle.scorer.scores(u, items)), algo
            for user in ds.user_index:
                assert loaded.recommend(user, ds.n_items) == \
                    bundle.recommend(user, ds.n_items), algo
            second = save_model(loaded, folder / f"{algo}-again.json")
            assert second.read_bytes() == first.read_bytes(), algo

    def test_vote_over_reloaded_members_is_unchanged(self, tmp_path):
        ds = small_dataset()
        bundles = [trained_bundle(algo, ds) for algo in ("svd", "funk", "fm")]
        loaded = [load_model(save_model(b, tmp_path / f"{n}.json"))
                  for n, b in enumerate(bundles)]
        for u in range(ds.n_users):
            assert vote_recommend([b.scorer for b in loaded], u, 3) == \
                vote_recommend([b.scorer for b in bundles], u, 3)


# tokens drawn from a small alphabet share prefixes often; the wide one
# covers the empty string, non-ASCII and characters outside the BMP
TOKEN_LISTS = st.lists(st.text(alphabet="ab\u00e9\U0001f600", max_size=5)
                       | st.text(max_size=4), unique=True, max_size=12)


def member_lists(scorer):
    """The UserItems a loaded member scores with: svd holds its mask
    instead, so None for it."""
    model = scorer.model if isinstance(scorer, IndexedModel) else scorer
    if isinstance(model, ItemCfModel):
        return model.ratings
    return scorer.observed if isinstance(scorer, IndexedModel) else getattr(model, "N", None)


# the error of a suffix that is not a string
SUFFIX_REFUSED = r"shared\[1\] must be .* and suffixes\[1\] a string"


class TestListsTableAndTokenCoding:
    """Format 9 front-codes each token list and stores each distinct
    per-user list once, in the lists table its fields name by index."""

    @settings(max_examples=200, deadline=None)
    @given(tokens=TOKEN_LISTS)
    def test_property_front_coding_round_trips(self, tokens):
        coded = _front_coded(tokens)
        # shared[k] is the whole common prefix with the token before
        assert coded == coded_of(tokens)
        text = json.loads(json.dumps(coded))
        assert _token_list({"user_tokens": text}, "user", FORMAT_VERSION) == tokens
        assert tokens_of(text) == tokens
        for shared, before, token in zip(coded["shared"][1:], tokens, tokens[1:]):
            assert before[:shared] == token[:shared]
            assert shared == min(len(before), len(token)) or before[shared] != token[shared]

    @settings(max_examples=20, deadline=None)
    @given(users=TOKEN_LISTS.filter(lambda t: len(t) >= 2), items=TOKEN_LISTS.filter(len))
    def test_property_bundle_with_any_tokens_reloads(self, users, items, tmp_path_factory):
        rng = np.random.default_rng(len(users) + len(items))
        model = factor.FactorModel(P=rng.normal(size=(2, len(users))),
                            Q=rng.normal(size=(2, len(items))), f=2, kind="funk")
        bundle = ModelBundle("funk", model, {t: at for at, t in enumerate(users)},
                             {t: at for at, t in enumerate(items)})
        path = save_model(bundle, tmp_path_factory.mktemp("tokens") / "m.json")
        loaded = load_model(path)
        assert loaded.user_index == bundle.user_index
        assert loaded.item_index == bundle.item_index
        assert [loaded.predict(u, i) for u in users for i in items] == \
            [bundle.predict(u, i) for u in users for i in items]

    @pytest.mark.parametrize("edit, match", [
        (lambda c: c["shared"].__setitem__(1, -1), r"shared\[1\] must be an int in \[0, "),
        (lambda c: c["shared"].__setitem__(1, 99), r"shared\[1\] must be an int in \[0, "),
        (lambda c: c["shared"].__setitem__(0, 1), r"shared\[0\] must be an int in \[0, 0\]"),
        (lambda c: c["shared"].pop(), "must be two lists of one length"),
        (lambda c: c["suffixes"].append("x"), "must be two lists of one length"),
        (lambda c: c["shared"].__setitem__(1, 1.0), r"shared\[1\] must be an int"),
        (lambda c: c["shared"].__setitem__(1, True), r"shared\[1\] must be an int"),
        (lambda c: c["shared"].__setitem__(1, "0"), r"shared\[1\] must be an int"),
        (lambda c: c["suffixes"].__setitem__(1, 2), SUFFIX_REFUSED),
        (lambda c: c["suffixes"].__setitem__(1, None), SUFFIX_REFUSED),
        (lambda c: c.__setitem__("shared", "0000"), "must be two lists of one length"),
        (lambda c: c.__setitem__("suffixes", {"0": "u"}), "must be two lists of one length"),
    ])
    @pytest.mark.parametrize("key", ["user_tokens", "item_tokens"])
    def test_malformed_front_coding_is_refused(self, key, edit, match, tmp_path):
        bundle, _ = funk_bundle()
        doc = document(bundle)
        edit(doc[key])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=f"malformed model file .*{key} {match}"):
            load_model(path)

    def test_blend_members_share_one_lists_entry(self, tmp_path):
        # every member of the blend was trained on the same ratings, so
        # their per-user lists are one entry, stored once and decoded once
        ds = small_dataset()
        bundle = every_kind(ds)["blend"]
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        assert len(doc["lists"]) == 1
        assert [block[LIST_FIELDS[algorithm]] for algorithm, block in member_blocks(doc)] \
            == [0] * 6
        assert rows_of(doc["lists"][0]) == [row.tolist() for row in ds.items_by_user()]
        held = [member_lists(m) for m in load_model(path).model.members[1:]]
        assert all(np.shares_memory(rows.items, held[0].items) for rows in held)
        assert all(np.shares_memory(rows.offsets, held[0].offsets) for rows in held)
        # the lists entry holds no values; itemcf's ratings stay in its block
        assert doc["ensemble"]["members"][3]["parameters"]["values"] == \
            bundle.model.members[3].ratings.values.tolist()

    def test_bag_members_name_their_own_entries(self, tmp_path):
        # each member is trained on its own bootstrap resample
        ds = small_dataset()
        bundle = every_kind(ds)["bag"]
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        assert [block["rated"] for _, block in member_blocks(doc)] == [0, 1, 2]
        assert len({json.dumps(entry) for entry in doc["lists"]}) == 3
        for member, entry in zip(load_model(path).model.members, doc["lists"], strict=True):
            assert [row.tolist() for row in member.N] == rows_of(entry)
        for member, entry in zip(bundle.model.members, doc["lists"], strict=True):
            assert [row.tolist() for row in member.N] == rows_of(entry)

    @pytest.mark.parametrize("kind", ["svd", "funk", "itemcf", "fm", "ffm", "blend", "bag"])
    def test_inline_layout_is_a_version_8_file_of_the_same_model(self, kind, tmp_path):
        # the test helpers inline and outline are each other's inverse on
        # saved documents, and the inline layout loads as version 8
        ds = small_dataset()
        bundle = dataclasses.replace(every_kind(ds)[kind], created="2026-01-01T00:00:00+00:00")
        path = save_model(bundle, tmp_path / "m.json")
        doc = json.loads(model_text(path))
        assert outline(inline(doc)) == doc
        old = tmp_path / "v8.json"
        old.write_text(json.dumps(inline(doc)))
        assert save_model(load_model(old), tmp_path / "again.json").read_bytes() == \
            path.read_bytes()


FIXTURES = Path(__file__).parent / "fixtures"
# float-array keys of the parameter blocks
FLOAT_KEYS = {"u", "s", "v", "r_star", "mask", "p", "q", "y", "b_u", "b_i", "w"}


def assert_stored_predictions(bundle, name):
    """The bundle, loaded from a committed blend file, predicts each
    member's and the blend's scores for every (user, item) index pair,
    and each user's top-3 vote, exactly as stored in the name file."""
    want = json.loads((FIXTURES / name).read_text())
    model = bundle.model
    m, n = len(bundle.user_index), len(bundle.item_index)
    for member, preds in zip(model.members, want["members"]):
        assert [[member.predict(u, i) for i in range(n)]
                for u in range(m)] == preds
    assert [[model.predict(u, i) for i in range(n)]
            for u in range(m)] == want["blend"]
    assert [[list(p) for p in model.recommend(u, 3)]
            for u in range(m)] == want["vote"]


def current_layout(doc):
    """A version 4 or 5 document with the header, per-user lists and
    members of the current version: each index map as its tokens in index
    order, each per-user list in its gap-coded form, and no fm or ffm
    encoder, and each ffm member's v as the cross-field table of its V
    (ffm_table), in the byte order of the document's version, then
    front-coded tokens and the lists table (outline). Other float blocks
    are left as they are."""
    planes = doc["format_version"] >= 5
    doc["format_version"] = FORMAT_VERSION
    for role in ("user", "item"):
        index = doc.pop(f"{role}_index")
        doc[f"{role}_tokens"] = sorted(index, key=index.get)
    for member in doc["ensemble"]["members"]:
        member.pop("encoder", None)
        block = member["parameters"]
        for key in {"rated", "ratings", "observed"} & set(block):
            block[key] = form_of(block[key], valued=key == "ratings")
        if member["algorithm"] == "ffm":
            block["v"] = ffm_table(block["v"], len(doc["user_tokens"]), planes)
    return outline(doc)


def ffm_table(block, n_users, planes=True):
    """The float block of the cross-field table (ffm_blocks) of the ffm V
    in block, both in byte planes or, with planes=False, value by value."""
    return array_block(ffm_blocks(block_array(block, planes), n_users)[0], planes)


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
        assert old["format_version"] == 3
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format3_blend_predictions.json")
        # written again at the current version, every stored array is
        # kept exactly
        new = document(bundle)
        assert new["format_version"] == FORMAT_VERSION
        pairs = zip(old["ensemble"]["members"], new["ensemble"]["members"])
        compared = 0
        for before, after in pairs:
            for key in FLOAT_KEYS & set(before["parameters"]):
                stored = np.array(before["parameters"][key], dtype=float)
                if (before["algorithm"], key) == ("ffm", "v"):  # stored as its table
                    stored = ffm_blocks(stored, len(bundle.user_index))[0]
                assert np.array_equal(_array(after["parameters"][key], FORMAT_VERSION),
                                      stored)
                compared += 1
        assert compared == 16
        again = load_model(save_model(bundle, tmp_path / "current.json"))
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
        assert path.read_bytes()[:1] == b"{"
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format4_blend_predictions.json")
        # saved again, the file inflates to exactly the plain file's text
        # at the current version: each float block holds the same bytes,
        # in byte planes, and the header and per-user lists hold the same
        # tokens and items in the current layout
        again = save_model(bundle, tmp_path / "again.json")
        doc = current_layout(json.loads(path.read_text()))
        for member in doc["ensemble"]["members"]:
            block = member["parameters"]
            for key in FLOAT_KEYS & set(block):
                block[key]["data"] = planes_text(block[key]["data"])
        for text, plain in ((model_text(again), doc),
                            (path.read_text(), json.loads(path.read_text()))):
            assert text == json.dumps(plain, sort_keys=True,
                                      separators=(",", ":")) + "\n"


class TestFormat5File:
    """format5_blend.json is a gzip-compressed format_version 5 file,
    written by the version 5 code when it loaded format4_blend.json and
    saved it again: the same seven members, with index maps and nested
    per-user lists. Beside it are the predictions of each member and of
    the blend for every (user, item) index pair, and each user's top-3
    vote, that the version 5 code computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format5_blend.json"
        old = json.loads(model_text(path))
        assert old["format_version"] == 5
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format5_blend_predictions.json")
        # saved again, the file inflates to the version 5 text with only
        # the header, per-user lists and encoders in the current layout:
        # every float block keeps its text
        again = save_model(bundle, tmp_path / "again.json")
        assert model_text(again) == json.dumps(
            current_layout(old), sort_keys=True, separators=(",", ":")) + "\n"
        reloaded = load_model(again)
        assert_stored_predictions(reloaded, "format5_blend_predictions.json")


class TestFormat6File:
    """format6_blend.json is a gzip-compressed format_version 6 file,
    written by the version 6 code when it loaded format5_blend.json and
    saved it again: the same seven members, with token lists, gap-coded
    per-user lists and the encoders of the fm and ffm members. Beside it
    are the predictions of each member and of the blend for every (user,
    item) index pair, and each user's top-3 vote, that the version 6 code
    computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format6_blend.json"
        old = json.loads(model_text(path))
        assert old["format_version"] == 6
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format6_blend_predictions.json")
        # saved again, the file inflates to the version 6 text at the
        # current version without the two encoder blocks, with the ffm V
        # as its cross-field table, front-coded tokens and the lists table
        again = save_model(bundle, tmp_path / "again.json")
        members = old["ensemble"]["members"]
        assert [member["algorithm"] for member in members if member.pop("encoder", None)] \
            == ["fm", "ffm"]
        members[5]["parameters"]["v"] = ffm_table(members[5]["parameters"]["v"],
                                                  len(old["user_tokens"]))
        assert model_text(again) == json.dumps(
            outline(old), sort_keys=True, separators=(",", ":")) + "\n"
        reloaded = load_model(again)
        assert_stored_predictions(reloaded, "format6_blend_predictions.json")
        assert [m.encoder for m in reloaded.model.members[4:6]] == \
            [m.encoder for m in bundle.model.members[4:6]]


class TestFormat7File:
    """format7_blend.json is a gzip-compressed format_version 7 file,
    written by the version 7 code when it loaded format6_blend.json and
    saved it again: the same seven members, with no encoder blocks and
    the whole (dimension, 2, k) V of the ffm member. Beside it are the
    predictions of each member and of the blend for every (user, item)
    index pair, and each user's top-3 vote, that the version 7 code
    computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format7_blend.json"
        old = json.loads(model_text(path))
        assert old["format_version"] == 7
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format7_blend_predictions.json")
        # saved again, the file inflates to the version 7 text at the
        # current version with each ffm v the cross-field table of its V,
        # front-coded tokens and the lists table
        again = save_model(bundle, tmp_path / "again.json")
        tables = 0
        for member in old["ensemble"]["members"]:
            if member["algorithm"] == "ffm":
                block = member["parameters"]
                assert block["v"]["shape"][1] == 2
                block["v"] = ffm_table(block["v"], len(old["user_tokens"]))
                tables += 1
        assert tables == 1
        assert model_text(again) == json.dumps(
            outline(old), sort_keys=True, separators=(",", ":")) + "\n"
        reloaded = load_model(again)
        assert_stored_predictions(reloaded, "format7_blend_predictions.json")


class TestFormat8File:
    """format8_blend.json is a gzip-compressed format_version 8 file,
    written by the version 8 code when it loaded format7_blend.json and
    saved it again: the same seven members, with token lists whole, each
    per-user list in its member's block and the ffm member's cross-field
    table. Beside it are the predictions of each member and of the blend
    for every (user, item) index pair, and each user's top-3 vote, that
    the version 8 code computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format8_blend.json"
        old = json.loads(model_text(path))
        assert old["format_version"] == 8
        assert isinstance(old["user_tokens"], list) and "lists" not in old
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format8_blend_predictions.json")
        # saved again, the file inflates to the version 8 text with tokens
        # front-coded and each distinct per-user list once in the lists
        # table: every float block keeps its text
        again = save_model(bundle, tmp_path / "again.json")
        new = json.loads(model_text(again))
        assert model_text(again) == json.dumps(
            outline(old), sort_keys=True, separators=(",", ":")) + "\n"
        assert len(new["lists"]) < len(new["ensemble"]["members"])
        reloaded = load_model(again)
        assert_stored_predictions(reloaded, "format8_blend_predictions.json")


class TestFormat9File:
    """format9_blend.json is a gzip-compressed format_version 9 file,
    written by the version 9 code when it loaded format8_blend.json and
    saved it again: the same seven members, with front-coded tokens and
    the lists table, each entry's lengths and gaps as JSON lists. Beside
    it are the predictions of each member and of the blend for every
    (user, item) index pair, and each user's top-3 vote, that the version
    9 code computed from the file it had written.
    """

    def test_loads_and_predicts_bit_for_bit(self, tmp_path):
        path = FIXTURES / "format9_blend.json"
        old = json.loads(model_text(path))
        assert old["format_version"] == 9
        assert all(type(part) is list for entry in old["lists"] for part in entry.values())
        bundle = load_model(path)
        assert_stored_predictions(bundle, "format9_blend_predictions.json")
        # saved again, the file inflates to the version 9 text with each
        # lists entry's lengths and gaps as int blocks: every other section
        # keeps its text
        again = save_model(bundle, tmp_path / "again.json")
        assert model_text(again) == json.dumps(
            blocked(old), sort_keys=True, separators=(",", ":")) + "\n"
        reloaded = load_model(again)
        assert_stored_predictions(reloaded, "format9_blend_predictions.json")


class TestGzipContainer:
    def test_file_is_one_gzip_member_with_no_timestamp(self, tmp_path):
        bundle, _ = funk_bundle()
        bundle = dataclasses.replace(bundle, created="2026-01-01T00:00:00+00:00")
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


# what the leaf property writes in place of one leaf of a model file;
# 10**400 is a JSON integer too large for a float
LEAF_VALUES = [True, -1, 0, 1.5, "3", None, [], {}, 1e308, math.nan, 10**400]


def leaf_paths(value, path=()):
    """Key paths of every leaf (scalar or empty container) of a JSON
    document, float-block data left out."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            if not (key == "data" and "dtype" in value):
                yield from leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for n, item in enumerate(value):
            yield from leaf_paths(item, path + (n,))
    else:
        yield path


@pytest.fixture(scope="module")
def cli_trained(tmp_path_factory):
    """(folder, {name: (inflated document, leaf paths)}) of CLI-trained
    svd, funk, svdpp, itemcf, fm, ffm and blend files on the 4x4 ratings,
    and of the blend as version 6 lays it out (blend6), whose fm and ffm
    members store their encoders."""
    folder = tmp_path_factory.mktemp("cli-trained")
    ratings = folder / "ratings.csv"
    ratings.write_text(FOUR_BY_FOUR_CSV)
    algos = ("svd", "funk", "svdpp", "itemcf", "fm", "ffm")
    for algo in algos:
        extra = ["--rank-rule", "fixed:2"] if algo == "svd" else ["--epochs", "3"]
        assert main(["train", "--algo", algo, "--input", str(ratings),
                     "--output", str(folder / algo), *extra]) == 0
    assert main(["ensemble", "blend", "--output", str(folder / "blend"),
                 *(str(folder / algo) for algo in algos)]) == 0
    docs = {}
    for name in algos + ("blend",):
        doc = json.loads(model_text(folder / name))
        docs[name] = doc, list(leaf_paths(doc))
    blend6 = with_encoders(docs["blend"][0])
    docs["blend6"] = blend6, list(leaf_paths(blend6))
    return folder, docs


class TestEditedLeaves:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_property_edited_leaf_exits_0_or_3(self, cli_trained, data):
        # an index of -1, a NaN scale bound or itemcf rating and an svd
        # neighborhood of "3" or 1.5 each made the CLI exit 1 with a traceback
        folder, docs = cli_trained
        doc, paths = docs[data.draw(st.sampled_from(sorted(docs)), label="file")]
        path = data.draw(st.sampled_from(paths), label="leaf")
        value = data.draw(st.sampled_from(LEAF_VALUES), label="value")
        edited = json.loads(json.dumps(doc))
        at = edited
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = value
        target = folder / "edited.json"
        target.write_text(json.dumps(edited))
        # query the user and item whose index entry was edited, if any
        user = path[-1] if path[0] == "user_index" else "1"
        item = path[-1] if path[0] == "item_index" else "2"
        for argv in (["predict", str(target), user, item],
                     ["recommend", str(target), user]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 3), (path, value, argv[0], err.getvalue())
            if code == 3:
                assert err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1


class TestTokenLists:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_token_other_than_a_distinct_string_exits_3(self, cli_trained,
                                                                 data):
        folder, docs = cli_trained
        doc = json.loads(json.dumps(docs[data.draw(st.sampled_from(sorted(docs)),
                                                    label="file")][0]))
        key = data.draw(st.sampled_from(["user_tokens", "item_tokens"]), label="key")
        # blend6 holds plain token lists, the other files front-coded ones
        coded = doc["format_version"] >= 9
        tokens = tokens_of(doc[key]) if coded else doc[key]
        at = data.draw(st.integers(0, len(tokens) - 1), label="at")
        bad = data.draw(
            st.sampled_from(tokens[:at] + tokens[at + 1:])  # a repeat
            | st.integers() | st.floats() | st.booleans() | st.none()
            | st.lists(st.text(max_size=2), max_size=1), label="token")
        if isinstance(bad, str) or not coded:
            tokens[at] = bad
            doc[key] = coded_of(tokens) if coded else tokens
            message = f"{key} must be a list of distinct strings"
        else:  # a suffix that is not a string
            doc[key]["suffixes"][at] = bad
            message = f"{key} shared[{at}] must be an int in"
        target = folder / "tokens.json"
        target.write_text(json.dumps(doc))
        for argv in (["predict", str(target), "1", "2"],
                     ["recommend", str(target), "1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 3, (key, bad, argv[0], err.getvalue())
            assert err.getvalue().startswith("error: malformed model file")
            assert message in err.getvalue()
            assert len(err.getvalue().splitlines()) == 1


def key_paths(value, path=()):
    """Key paths of every dict entry of a JSON document, the entries of
    float blocks left out."""
    if isinstance(value, dict) and "dtype" not in value:
        for key, item in value.items():
            yield path + (key,)
            yield from key_paths(item, path + (key,))
    elif isinstance(value, list):
        for n, item in enumerate(value):
            yield from key_paths(item, path + (n,))


class TestDeletedKeys:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["svd", "funk", "svdpp", "itemcf", "fm", "ffm", "blend",
                                 "blend6"]),
           at=st.integers(min_value=0))
    # a version 6 blend's fm member without its encoder loaded; predict
    # and recommend then exited 1 with an AttributeError
    @example(name="blend6", at=("ensemble", "members", 4, "encoder"))
    def test_property_deleted_key_exits_0_or_3(self, cli_trained, name, at):
        # at is a key path, or an index into the document's key paths
        folder, docs = cli_trained
        doc = json.loads(json.dumps(docs[name][0]))
        paths = list(key_paths(doc))
        path = at if isinstance(at, tuple) else paths[at % len(paths)]
        assert path in paths
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        target = folder / "deleted.json"
        target.write_text(json.dumps(doc))
        # query the user and item whose index entry was deleted, if any
        user = path[-1] if path[:1] == ("user_index",) else "1"
        item = path[-1] if path[:1] == ("item_index",) else "2"
        for argv in (["predict", str(target), user, item],
                     ["recommend", str(target), user]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 3), (path, argv[0], err.getvalue())
            if code == 3:
                assert err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1
