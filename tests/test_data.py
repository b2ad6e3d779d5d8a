import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentrec import data
from latentrec.data import (
    CsvSchema,
    RatingDataset,
    UserItems,
    impute,
    negative_sample,
    parse_csv,
    split,
    to_dense,
)
from latentrec.errors import (
    CapacityError,
    NoDataError,
    ParseError,
    ValidationError,
)
from tests.conftest import dataset_from_dense, form_of, rows_of


class TestParseCsv:
    def test_two_triples(self):
        ds = parse_csv("u1,i1,5\nu1,i2,3")
        assert ds.n_users == 1
        assert ds.n_items == 2
        assert len(ds.triples) == 2

    def test_empty_stream(self):
        with pytest.raises(NoDataError):
            parse_csv("")
        with pytest.raises(NoDataError):
            parse_csv("# only a comment\n\n")

    def test_out_of_scale(self):
        with pytest.raises(ValidationError):
            parse_csv("u1,i1,9")

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_csv("u1,i1,5\nu2;i2;3")
        assert err.value.line_number == 2

    def test_bad_rating_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_csv("u1,i1,5\nu2,i2,abc", CsvSchema(has_header=False))
        assert err.value.line_number == 2

    def test_header_autodetected(self, four_by_four):
        ds = parse_csv(four_by_four["csv"])
        assert len(ds.triples) == 11
        assert ds.user_index == {"1": 0, "2": 1, "3": 2, "4": 3}

    def test_header_declared(self):
        ds = parse_csv("user,item,rating\nu1,i1,4", CsvSchema(has_header=True))
        assert len(ds.triples) == 1

    def test_comments_and_blanks_skipped(self):
        ds = parse_csv("# ratings\n\nu1,i1,2\n# trailer\n")
        assert len(ds.triples) == 1

    def test_duplicate_keep_last(self):
        ds = parse_csv("u1,i1,2\nu1,i1,5")
        assert ds.triples[0][2] == 5.0

    def test_duplicate_keep_first(self):
        ds = parse_csv("u1,i1,2\nu1,i1,5", CsvSchema(duplicate_policy="first"))
        assert ds.triples[0][2] == 2.0

    def test_duplicate_error_policy(self):
        with pytest.raises(ValidationError):
            parse_csv("u1,i1,2\nu1,i1,5", CsvSchema(duplicate_policy="error"))

    def test_timestamps_preserved(self):
        ds = parse_csv("u1,i1,3,86400\nu1,i2,4")
        assert ds.metadata["timestamps"][("u1", "i1")] == 86400.0

    def test_implicit_must_be_binary(self):
        with pytest.raises(ValidationError):
            parse_csv("u1,i1,3", CsvSchema(kind="implicit"))
        ds = parse_csv("u1,i1,1\nu1,i2,0", CsvSchema(kind="implicit"))
        assert ds.kind == "implicit"


def reference_parse(text, has_header, policy):
    """The dict-based parse that columnar parse_csv replaced.

    Returns (triples, timestamps, duplicate_line); duplicate_line is the
    line the "error" policy stops at, or None.
    """
    kept = {}  # (user, item) -> (order, rating)
    timestamps = {}
    expect_header = has_header
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if expect_header is not False:
            expect_header = False
            try:
                float(parts[2])
                numeric = True
            except ValueError:
                numeric = False
            if has_header or not numeric:
                continue
        key = (parts[0], parts[1])
        if key in kept:
            if policy == "error":
                return None, None, line_no
            if policy == "first":
                continue
            kept[key] = (kept[key][0], float(parts[2]))
        else:
            kept[key] = (len(kept), float(parts[2]))
        if len(parts) == 4:
            timestamps[key] = float(parts[3])
    ordered = sorted(kept.items(), key=lambda kv: kv[1][0])
    return [(u, i, r) for (u, i), (_, r) in ordered], timestamps, None


@st.composite
def csv_cases(draw):
    kind = draw(st.sampled_from(["explicit", "implicit"]))
    values = ["0", "1"] if kind == "implicit" else ["1", "2.5", "3", "4", "5"]
    row = st.builds(
        lambda u, i, r, ts: f" {u} ,{i},{r}" + ("" if ts is None else f",{ts}"),
        st.sampled_from(["u1", "u2", "u10", "b"]),
        st.sampled_from(["i1", "i2", "i3", "a", "i20"]),
        st.sampled_from(values),
        st.none() | st.integers(0, 10**9),
    )
    lines = draw(st.lists(row | st.sampled_from(["", "# comment", "  "]), max_size=30))
    header = draw(st.booleans())
    if header:
        lines.insert(0, "user,item,rating")
    has_header = draw(st.sampled_from([None, header]))
    policy = draw(st.sampled_from(["last", "first", "error"]))
    return "\n".join(lines), kind, has_header, policy


class TestParseCsvProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_cases())
    def test_matches_dict_reference(self, case):
        text, kind, has_header, policy = case
        schema = CsvSchema(kind=kind, has_header=has_header, duplicate_policy=policy)
        triples, timestamps, duplicate_line = reference_parse(text, has_header, policy)
        for source in (text, io.StringIO(text)):
            if duplicate_line is not None:
                with pytest.raises(ValidationError,
                                   match=f"^line {duplicate_line}: duplicate pair"):
                    parse_csv(source, schema)
                continue
            if not triples:
                with pytest.raises(NoDataError):
                    parse_csv(source, schema)
                continue
            ds = parse_csv(source, schema)
            assert ds.triples == tuple(triples)
            users = sorted({u for u, _, _ in triples})
            items = sorted({i for _, i, _ in triples})
            assert ds.user_index == {u: k for k, u in enumerate(users)}
            assert ds.item_index == {i: k for k, i in enumerate(items)}
            assert list(ds.metadata.get("timestamps", {}).items()) == list(timestamps.items())
            again = RatingDataset(ds.triples, kind=kind, scale=ds.scale)
            assert again.triples == ds.triples
            assert again.user_index == ds.user_index
            assert again.item_index == ds.item_index
            for a, b in zip(again.indexed(), ds.indexed()):
                np.testing.assert_array_equal(a, b)

    def test_parse_keeps_no_per_row_objects(self):
        # 20,000 distinct pairs from a file handle; the dict-and-tuple parse
        # peaked near 770 B and kept about 215 B per row
        rows = 20_000
        text = "user,item,rating\n" + "".join(
            f"u{c // 40},i{(c % 40) * 7 + (c // 40) % 7},{1 + c % 5}\n"
            for c in range(rows)
        )
        source = io.StringIO(text)
        tracemalloc.start()
        try:
            ds = parse_csv(source, CsvSchema(has_header=True))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == rows
        assert peak / rows < 400
        assert retained / rows < 80

    def test_parse_error_after_duplicate_reports_the_duplicate(self):
        with pytest.raises(ValidationError, match="^line 2: duplicate pair"):
            parse_csv("u1,i1,2\nu1,i1,5\nu2;i2;3", CsvSchema(duplicate_policy="error"))
        with pytest.raises(ParseError) as err:
            parse_csv("u1,i1,2\nu2;i2;3\nu1,i1,5", CsvSchema(duplicate_policy="error"))
        assert err.value.line_number == 2


class TestToDense:
    def test_worked_example_mask(self, four_by_four):
        ds = parse_csv(four_by_four["csv"])
        dense, mask = to_dense(ds)
        np.testing.assert_array_equal(mask, four_by_four["mask"])
        np.testing.assert_array_equal(
            np.where(mask == 1, dense, 0.0), four_by_four["ratings"]
        )

    def test_fully_observed(self):
        ds = parse_csv("u1,i1,1\nu1,i2,2\nu2,i1,3\nu2,i2,4")
        _, mask = to_dense(ds)
        np.testing.assert_array_equal(mask, np.ones((2, 2)))

    def test_single_triple_in_2x2(self):
        ds = RatingDataset(
            [("u1", "i1", 3.0)],
            user_index={"u1": 0, "u2": 1},
            item_index={"i1": 0, "i2": 1},
        )
        _, mask = to_dense(ds)
        assert mask.sum() == 1.0
        assert mask[0, 0] == 1.0

    def test_capacity_cap(self, monkeypatch):
        ds = parse_csv("u1,i1,1\nu2,i2,2")
        monkeypatch.setattr(data, "DENSE_CELL_CAP", 3)
        with pytest.raises(CapacityError):
            to_dense(ds)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(4)
        ratings = np.where(rng.random((6, 5)) < 0.5, rng.integers(1, 6, (6, 5)), 0)
        ratings[0, 0] = 3  # keep at least one triple
        ds = dataset_from_dense(ratings.astype(float))
        dense, mask = to_dense(ds)
        for u, i, r in ds.triples:
            ui, ii = ds.user_index[u], ds.item_index[i]
            assert mask[ui, ii] == 1.0
            assert dense[ui, ii] == r


class TestImpute:
    def test_global_mean(self, four_by_four):
        dense, mask = to_dense(parse_csv(four_by_four["csv"]))
        filled = impute(dense, mask, "global")
        assert filled[0, 2] == pytest.approx(37 / 11)
        assert filled[0, 2] == pytest.approx(3.36, abs=0.005)

    def test_user_mean_row_one(self, four_by_four):
        dense, mask = to_dense(parse_csv(four_by_four["csv"]))
        filled = impute(dense, mask, "user")
        assert filled[0, 2] == pytest.approx((1 + 3 + 4) / 3)
        assert filled[0, 2] == pytest.approx(2.67, abs=0.005)

    def test_item_mean(self, four_by_four):
        dense, mask = to_dense(parse_csv(four_by_four["csv"]))
        filled = impute(dense, mask, "item")
        assert filled[1, 1] == pytest.approx(3.0)  # column 2 observed value is 3

    def test_fully_observed_unchanged(self):
        matrix = np.arange(1.0, 7.0).reshape(2, 3)
        for strategy in ("global", "user", "item"):
            np.testing.assert_array_equal(impute(matrix, np.ones((2, 3)), strategy), matrix)

    def test_observed_cells_never_altered(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            matrix = rng.uniform(1, 5, size=(5, 4))
            mask = (rng.random((5, 4)) < 0.6).astype(float)
            mask[0, 0] = 1.0
            shown = np.where(mask == 1, matrix, np.nan)
            for strategy in ("global", "user", "item"):
                filled = impute(shown, mask, strategy)
                np.testing.assert_array_equal(filled[mask == 1], matrix[mask == 1])
                assert np.isfinite(filled).all()

    def test_empty_row_falls_back_to_global(self):
        matrix = np.array([[2.0, 4.0], [np.nan, np.nan]])
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        filled = impute(matrix, mask, "user")
        np.testing.assert_allclose(filled[1], [3.0, 3.0])

    def test_empty_mask_rejected(self):
        with pytest.raises(NoDataError):
            impute(np.full((2, 2), np.nan), np.zeros((2, 2)))


def implicit_dataset(pairs, n_items=None, extra_items=()):
    """Implicit dataset from (user, item) positives."""
    triples = [(u, i, 1.0) for u, i in pairs]
    item_tokens = sorted({i for _, i in pairs} | set(extra_items))
    item_index = {t: k for k, t in enumerate(item_tokens)}
    user_tokens = sorted({u for u, _ in pairs})
    user_index = {t: k for k, t in enumerate(user_tokens)}
    return RatingDataset(
        triples, kind="implicit", user_index=user_index, item_index=item_index
    )


class TestNegativeSample:
    def test_balance_two_positives(self):
        ds = implicit_dataset(
            [("u1", "a"), ("u1", "b")], extra_items=[f"x{k}" for k in range(10)]
        )
        out = negative_sample(ds, ratio=1.0, seed=0)
        negs = [t for t in out.triples if t[0] == "u1" and t[2] == 0.0]
        assert len(negs) == 2

    def test_ratio_three(self):
        ds = implicit_dataset([("u1", "a")], extra_items=["b", "c", "d", "e"])
        out = negative_sample(ds, ratio=3.0, seed=1)
        assert sum(1 for t in out.triples if t[2] == 0.0) == 3

    def test_balance_within_rounding(self):
        rng = np.random.default_rng(3)
        pairs = set()
        for u in range(8):
            for i in rng.choice(30, size=int(rng.integers(1, 8)), replace=False):
                pairs.add((f"u{u}", f"i{i:02d}"))
        ds = implicit_dataset(sorted(pairs), extra_items=[f"i{k:02d}" for k in range(30)])
        for ratio in (0.5, 1.0, 2.5, 3.0):
            out = negative_sample(ds, ratio=ratio, seed=7)
            positives = {}
            negatives = {}
            for u, _, r in out.triples:
                bucket = positives if r > 0 else negatives
                bucket[u] = bucket.get(u, 0) + 1
            for u, npos in positives.items():
                assert abs(negatives.get(u, 0) - ratio * npos) < 1.0

    def test_never_emits_seen_items(self):
        ds = implicit_dataset(
            [("u1", "a"), ("u1", "b"), ("u2", "a")], extra_items=["c", "d"]
        )
        out = negative_sample(ds, ratio=2.0, seed=5)
        seen = {("u1", "a"), ("u1", "b"), ("u2", "a")}
        negs = [(t[0], t[1]) for t in out.triples if t[2] == 0.0]
        assert not set(negs) & seen
        assert len(set(negs)) == len(negs)  # without replacement

    def test_skip_user_with_no_unseen(self):
        ds = implicit_dataset([("u1", "a"), ("u1", "b"), ("u2", "a")])
        out = negative_sample(ds, ratio=1.0, seed=2)
        assert out.metadata["negative_users_skipped"] == 1  # u1 has seen everything

    def test_cap_when_few_unseen(self):
        ds = implicit_dataset([("u1", "a")], extra_items=["b"])
        out = negative_sample(ds, ratio=3.0, seed=2)
        assert out.metadata["negative_users_capped"] == 1
        assert sum(1 for t in out.triples if t[2] == 0.0) == 1

    def test_deterministic(self):
        ds = implicit_dataset(
            [("u1", "a"), ("u2", "b"), ("u3", "a")], extra_items=["c", "d", "e"]
        )
        first = negative_sample(ds, ratio=2.0, seed=9)
        second = negative_sample(ds, ratio=2.0, seed=9)
        assert first.triples == second.triples

    def test_explicit_rejected(self):
        ds = parse_csv("u1,i1,4")
        with pytest.raises(ValidationError):
            negative_sample(ds, ratio=1.0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan, math.inf])
    def test_ratio_must_be_finite_and_positive(self, ratio):
        ds = implicit_dataset([("u1", "a")], extra_items=["b", "c"])
        with pytest.raises(ValidationError, match="finite and above 0"):
            negative_sample(ds, ratio=ratio)

    def test_popularity_bias(self):
        # Items A and B with global popularity 9 and 1; 10,000 users each
        # draw one negative from {A, B}. The multinomial expectation puts A
        # at 90%.
        pairs = [(f"p{k}", "A") for k in range(9)] + [("p9", "B")]
        pairs += [(f"t{k:05d}", "C") for k in range(10_000)]
        ds = implicit_dataset(pairs)
        out = negative_sample(ds, ratio=1.0, seed=42)
        draws = [t for t in out.triples if t[2] == 0.0 and t[0].startswith("t")]
        assert len(draws) == 10_000
        share_a = sum(1 for t in draws if t[1] == "A") / len(draws)
        assert share_a == pytest.approx(0.9, abs=0.02)


class TestSplit:
    def test_even_split(self):
        ds = parse_csv("\n".join(f"u{k % 2},i{k},3" for k in range(10)))
        train, test = split(ds, 0.5, seed=0)
        assert len(train.triples) == 5
        assert len(test.triples) == 5

    def test_deterministic(self):
        ds = parse_csv("\n".join(f"u{k % 3},i{k},3" for k in range(12)))
        a = split(ds, 0.25, seed=11)
        b = split(ds, 0.25, seed=11)
        assert a[0].triples == b[0].triples
        assert a[1].triples == b[1].triples

    def test_disjoint_union(self):
        ds = parse_csv("\n".join(f"u{k % 4},i{k},4" for k in range(20)))
        train, test = split(ds, 0.3, seed=5)
        train_set = set(train.triples)
        test_set = set(test.triples)
        assert not train_set & test_set
        assert train_set | test_set == set(ds.triples)

    def test_every_train_user_keeps_a_rating(self):
        rng = np.random.default_rng(6)
        triples = []
        for u in range(6):
            for i in rng.choice(20, size=int(rng.integers(1, 6)), replace=False):
                triples.append((f"u{u}", f"i{i:02d}", 3.0))
        ds = RatingDataset(triples)
        train, _ = split(ds, 0.5, seed=3)
        trained_users = {t[0] for t in train.triples}
        assert trained_users == {t[0] for t in ds.triples}

    def test_eighty_twenty(self):
        ds = parse_csv("\n".join(f"u{k % 10},i{k},2" for k in range(100)))
        train, test = split(ds, 0.2, seed=1)
        assert len(test.triples) == 20
        assert len(train.triples) == 80

    def test_shortfall_recorded(self):
        # three singleton users cap at zero test ratings each
        ds = parse_csv("u1,i1,3\nu2,i2,3\nu3,i3,3\nu4,i4,3\nu4,i5,3")
        train, test = split(ds, 0.6, seed=0)
        assert test.metadata.get("stratification_short", 0) > 0

    def test_subsets_keep_parent_maps(self):
        ds = parse_csv("u1,i1,3\nu1,i2,4\nu2,i1,5\nu2,i3,2")
        train, test = split(ds, 0.25, seed=0)
        assert train.user_index == ds.user_index
        assert test.item_index == ds.item_index

    def test_bad_fraction(self):
        ds = parse_csv("u1,i1,3\nu1,i2,4")
        with pytest.raises(ValueError):
            split(ds, 0.0)
        with pytest.raises(ValueError):
            split(ds, 1.0)


class TestDatasetInvariants:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError):
            RatingDataset([("u1", "i1", 3.0), ("u1", "i1", 4.0)])

    def test_duplicates_allowed_when_asked(self):
        ds = RatingDataset(
            [("u1", "i1", 3.0), ("u1", "i1", 3.0)], allow_duplicate_pairs=True
        )
        assert len(ds.triples) == 2

    def test_index_maps_are_dense_and_sorted(self):
        ds = RatingDataset([("zz", "b", 3.0), ("aa", "a", 2.0)])
        assert ds.user_index == {"aa": 0, "zz": 1}
        assert ds.item_index == {"a": 0, "b": 1}

    def test_indexed_arrays_align(self):
        ds = RatingDataset([("u2", "i1", 3.0), ("u1", "i2", 4.0)])
        u, i, r = ds.indexed()
        assert u.tolist() == [1, 0]
        assert i.tolist() == [0, 1]
        assert r.tolist() == [3.0, 4.0]

    def test_items_by_user(self):
        ds = RatingDataset(
            [("u1", "b", 1.0), ("u1", "a", 0.0), ("u2", "a", 1.0)], kind="implicit"
        )
        all_items = ds.items_by_user()
        pos_items = ds.items_by_user(positive_only=True)
        assert all_items[0].tolist() == [0, 1]
        assert pos_items[0].tolist() == [1]

    def test_items_by_user_keeps_repeats_and_unrated_users(self):
        ds = RatingDataset(
            [("u2", "b", 1.0), ("u0", "c", 1.0), ("u2", "a", 1.0), ("u2", "b", 1.0)],
            kind="implicit",
            user_index={"u0": 0, "u1": 1, "u2": 2},
            allow_duplicate_pairs=True,
        )
        assert [s.tolist() for s in ds.items_by_user()] == [[2], [], [0, 1, 1]]

    def test_columns_are_read_only(self):
        ds = RatingDataset([("u1", "i1", 3.0)])
        for column in ds.indexed():
            with pytest.raises(ValueError):
                column[0] = 0

    def test_replace_validates_new_columns(self):
        ds = RatingDataset([("u1", "i1", 3.0), ("u2", "i2", 4.0)])
        with pytest.raises(ValidationError, match="duplicate"):
            ds.replace(([0, 0], [1, 1], [2.0, 2.0]))
        with pytest.raises(ValidationError, match="outside scale"):
            ds.replace(([0], [1], [7.0]))
        assert ds.replace(([1], [0], [2.0])).triples == (("u2", "i1", 2.0),)

    def test_replace_moves_ratings_to_new_maps(self):
        ds = RatingDataset([("b", "y", 3.0), ("a", "x", 4.0)])
        moved = ds.replace(user_index={"z": 0, "a": 1, "b": 2},
                           item_index={"y": 0, "x": 1})
        assert moved.triples == ds.triples
        assert moved.users.tolist() == [2, 1]
        assert moved.items.tolist() == [0, 1]
        with pytest.raises(ValidationError, match=r"triple \(a, x\) not covered"):
            ds.replace(user_index={"b": 0})



@st.composite
def user_items(draw, valued=None, min_entries=0):
    """(rows, n_items, valued): per-user lists over n_items items, some
    rows empty. Unvalued rows are in any order and may repeat an item;
    valued rows are [item, value] pairs with strictly increasing items and
    finite values."""
    valued = draw(st.booleans()) if valued is None else valued
    n_items = draw(st.integers(1, 12))
    items = st.integers(0, n_items - 1)
    if valued:
        values = st.floats(allow_nan=False, allow_infinity=False)
        row = st.lists(st.tuples(items, values), unique_by=lambda pair: pair[0],
                       max_size=n_items).map(lambda pairs: [list(p) for p in sorted(pairs)])
    else:
        row = st.lists(items, max_size=8)
    rows = draw(st.lists(row, max_size=6).filter(
        lambda rows: sum(map(len, rows)) >= min_entries))
    return rows, n_items, valued


def decoded(form, n_users, n_items, valued):
    """UserItems.of over a form as a model file holds it: JSON text read
    back."""
    form = json.loads(json.dumps(form))
    return UserItems.of(form, n_users, n_items, "rated", valued=valued)


def assert_refused(form, n_items, valued):
    with pytest.raises(ValueError, match="rated must be one list per user"):
        decoded(form, None, n_items, valued)


def at_entry(data, rows):
    """(row, position in the row, position in the gaps) of a drawn entry
    of a non-empty row."""
    u = data.draw(st.sampled_from([u for u, row in enumerate(rows) if row]), label="row")
    j = data.draw(st.integers(0, len(rows[u]) - 1), label="position")
    return u, j, sum(map(len, rows[:u])) + j


class TestUserItemsForm:
    @settings(max_examples=200, deadline=None)
    @given(drawn=user_items())
    # rows at the last item, a repeat, an empty row and an unsorted row
    @example(drawn=([[4, 4], [], [3, 0, 4]], 5, False))
    def test_property_round_trip_is_bit_for_bit(self, drawn):
        rows, n_items, valued = drawn
        held = UserItems.of(rows, len(rows), n_items, valued=valued)
        form = held.form()
        # each row's gaps are its items' differences, the first from 0
        assert form == form_of(rows, valued)
        back = decoded(form, len(rows), n_items, valued)
        assert back.offsets.tolist() == held.offsets.tolist()
        assert back.items.dtype == np.int64
        assert back.items.tolist() == held.items.tolist()
        if valued:
            assert back.values.view(np.int64).tolist() == \
                held.values.view(np.int64).tolist()
        assert rows_of(back.form()) == rows

    @settings(max_examples=100, deadline=None)
    @given(drawn=user_items(), extra=st.integers(1, 3), more_lengths=st.booleans())
    def test_property_lengths_that_miss_the_gap_count_are_refused(
            self, drawn, extra, more_lengths):
        rows, n_items, valued = drawn
        form = form_of(rows + [[]], valued)
        if more_lengths:
            form["lengths"][-1] += extra
        else:
            form["gaps"] += [0] * extra
            form.get("values", []).extend([1.0] * extra)
        assert_refused(form, n_items, valued)

    # int64 sums of these lengths wrap to the gap count
    @pytest.mark.parametrize("lengths, gaps", [([2**62] * 4, []),
                                               ([2**63 - 1, 2**63 - 1, 3], [0])])
    def test_lengths_whose_sum_wraps_to_the_gap_count_are_refused(self, lengths, gaps):
        assert_refused({"lengths": lengths, "gaps": gaps}, 5, False)

    @settings(max_examples=100, deadline=None)
    @given(drawn=user_items(), step=st.integers(1, 2**62), data=st.data())
    def test_property_negative_length_is_refused(self, drawn, step, data):
        # the lengths still sum to the gap count
        rows, n_items, valued = drawn
        form = form_of(rows + [[], []], valued)
        u, v = data.draw(st.permutations(range(len(rows) + 2)))[:2]
        moved = form["lengths"][u] + step
        form["lengths"][u] -= moved
        form["lengths"][v] += moved
        assert_refused(form, n_items, valued)

    @settings(max_examples=100, deadline=None)
    @given(drawn=user_items(), far=st.integers(12, 2**70) | st.integers(-2**63, -12))
    # four gaps of 2**62 sum to 2**64, which wraps an int64 to 0
    @example(drawn=([[1]], 5, False), far=2**62)
    def test_property_gap_n_items_or_more_from_0_is_refused(self, drawn, far):
        # n_items is at most 12
        rows, n_items, valued = drawn
        row = [far] * 4 if far == 2**62 else [far]
        form = form_of(rows, valued)
        form["lengths"].append(len(row))
        form["gaps"] += row
        form.get("values", []).extend([1.0] * len(row))
        assert_refused(form, n_items, valued)

    @settings(max_examples=100, deadline=None)
    @given(drawn=user_items(min_entries=1), below=st.booleans(), data=st.data())
    def test_property_item_outside_the_items_is_refused(self, drawn, below, data):
        rows, n_items, valued = drawn
        u, j, at = at_entry(data, rows)
        row = [item for item, _ in rows[u]] if valued else rows[u]
        before = row[j - 1] if j else 0
        # a gap less than n_items from 0 (unless n_items is 1) that takes
        # the item to -1 or to n_items
        up = before > 0 and (not below or before == n_items - 1)
        form = form_of(rows, valued)
        form["gaps"][at] = n_items - before if up else -before - 1
        assert_refused(form, n_items, valued)

    @settings(max_examples=200, deadline=None)
    @given(drawn=user_items(min_entries=1), data=st.data())
    def test_property_entry_that_is_not_a_number_is_refused(self, drawn, data):
        # gaps and lengths of 0 and 1 are common, and a bool among them
        # reads as 0 or 1
        rows, n_items, valued = drawn
        form = form_of(rows, valued)
        key = data.draw(st.sampled_from(sorted(form)), label="key")
        entries = form[key]
        at = data.draw(st.integers(0, len(entries) - 1), label="at")
        bad = [True, False, str(entries[at]), None]
        if key != "values":
            bad += [bool(entries[at]), float(entries[at])]
        entries[at] = data.draw(st.sampled_from(bad), label="entry")
        assert_refused(form, n_items, valued)

    @settings(max_examples=100, deadline=None)
    @given(drawn=user_items(valued=True).filter(
        lambda drawn: any(len(row) > 1 for row in drawn[0])), data=st.data())
    def test_property_valued_row_not_strictly_increasing_is_refused(self, drawn, data):
        rows, n_items, valued = drawn
        u = data.draw(st.sampled_from([u for u, row in enumerate(rows) if len(row) > 1]))
        j = data.draw(st.integers(1, len(rows[u]) - 1))
        form = form_of(rows, valued)
        # the item stays in [0, n_items), at or below the one before it
        form["gaps"][sum(map(len, rows[:u])) + j] = -data.draw(
            st.integers(0, rows[u][j - 1][0]))
        assert_refused(form, n_items, valued)

    # both used to raise numpy's "inhomogeneous shape" ValueError, which
    # names no list
    @pytest.mark.parametrize("form", [
        {"lengths": [2], "gaps": [[1], 2]},
        {"lengths": [2], "gaps": [[1], [2, 3]]},
        {"lengths": [2], "gaps": [1, 1], "values": [[4.0], 5.0]},
    ])
    def test_ragged_dict_form_is_refused_naming_the_list(self, form):
        assert_refused(form, 5, "values" in form)

    @pytest.mark.parametrize("rows, valued", [
        ([[1, [2]]], False),
        ([[1, 2], [[3]]], False),
        ([[[1, 2.0], [2, [3.0]]]], True),
    ])
    def test_ragged_nested_lists_are_refused_naming_the_list(self, rows, valued):
        with pytest.raises(ValueError, match="observed must be one list per user"):
            UserItems.of(rows, None, 5, "observed", valued=valued)
