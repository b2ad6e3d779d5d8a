"""Tests for rating-error and top-N metrics."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentrec.errors import NoDataError, ShapeError, ValidationError
from latentrec.metrics import MetricReport, mae, neighbours, rmse, top_k, topn_metrics


class TestRmse:
    def test_perfect_predictions(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        assert rmse([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_worked_pair(self):
        value = rmse([1.0, 3.0], [2.0, 5.0])
        assert value == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert value == pytest.approx(1.581, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(NoDataError):
            rmse([], [])

    def test_misaligned_rejected(self):
        with pytest.raises(ShapeError):
            rmse([1.0], [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            rmse([np.nan], [1.0])


class TestMae:
    def test_perfect_predictions(self):
        assert mae([4.0, 5.0], [4.0, 5.0]) == 0.0

    def test_constant_offset(self):
        assert mae([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_worked_pair(self):
        assert mae([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(NoDataError):
            mae([], [])


class TestErrorOrdering:
    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            p = rng.uniform(1, 5, size=n)
            t = rng.uniform(1, 5, size=n)
            assert rmse(p, t) >= mae(p, t) - 1e-12

    def test_order_invariance(self):
        p = [1.0, 2.0, 4.0]
        t = [1.5, 2.5, 3.0]
        assert rmse(p, t) == pytest.approx(rmse(p[::-1], t[::-1]), abs=1e-12)
        assert mae(p, t) == pytest.approx(mae(p[::-1], t[::-1]), abs=1e-12)


class TestTopnMetrics:
    def test_exact_match(self):
        recs = {0: [3, 7]}
        pos = {0: {3, 7}}
        assert topn_metrics(recs, pos, 2) == (1.0, 1.0)

    def test_zero_overlap(self):
        assert topn_metrics({0: [1, 2]}, {0: {5}}, 2) == (0.0, 0.0)

    def test_no_recommendations(self):
        # no user was recommended anything: precision 0 and every user
        # with positives recalls nothing
        assert topn_metrics({}, {0: {5}, 1: {2, 3}}, 2) == (0.0, 0.0)

    def test_single_hit(self):
        recs = {0: [1, 2, 3, 4, 5]}
        pos = {0: {3, 9}}
        precision, recall = topn_metrics(recs, pos, 5)
        assert precision == pytest.approx(0.2)
        assert recall == pytest.approx(0.5)

    def test_macro_average_over_users(self):
        recs = {0: [1], 1: [2]}
        pos = {0: {1}, 1: {9}}
        precision, recall = topn_metrics(recs, pos, 1)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    def test_scored_pairs_accepted(self):
        recs = {0: [(3, 4.5), (8, 4.0)]}
        pos = {0: {8}}
        precision, recall = topn_metrics(recs, pos, 2)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(1.0)

    def test_truncates_to_cutoff(self):
        recs = {0: [1, 2, 3]}
        pos = {0: {3}}
        assert topn_metrics(recs, pos, 2) == (0.0, 0.0)

    def test_recall_counts_users_without_recommendations(self):
        recs = {0: [1]}
        pos = {0: {1}, 1: {2}}
        _, recall = topn_metrics(recs, pos, 1)
        assert recall == pytest.approx(0.5)

    def test_no_positives_rejected(self):
        with pytest.raises(NoDataError):
            topn_metrics({0: [1]}, {}, 1)
        with pytest.raises(NoDataError):
            topn_metrics({0: [1]}, {0: set()}, 1)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            topn_metrics({0: [1]}, {0: {1}}, 0)


class TestTopK:
    def test_score_descending_then_index_ascending(self):
        items = np.array([4, 0, 3, 1, 2])
        scores = np.array([1.0, 2.0, 2.0, -1.0, 1.0])
        ranked = top_k(items, scores, 3)
        assert ranked == [(0, 2.0), (3, 2.0), (2, 1.0)]
        assert all(type(i) is int and type(s) is float for i, s in ranked)

    def test_k_beyond_candidates_returns_all(self):
        assert top_k(np.arange(3), np.arange(3.0), 10) == [(2, 2.0), (1, 1.0), (0, 0.0)]
        assert top_k(np.array([], dtype=np.int64), np.array([]), 1) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be an int >= 1, got 0"):
            top_k(np.arange(3), np.arange(3.0), 0)


def brute_neighbours(sim, target, k):
    """The k items other than target that rank highest by (-sim, index)."""
    others = [j for j in range(len(sim)) if j != target]
    return sorted(sorted(others, key=lambda j: (-sim[j], j))[:k])


# rows of few distinct values, so ties are common; zeros and negatives too
SIM_ROWS = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
             min_size=n, max_size=n), min_size=1, max_size=4))


class TestNeighbours:
    @settings(max_examples=300, deadline=None)
    @given(rows=SIM_ROWS, data=st.data())
    # the target ties at 0 with the item it used to displace
    @example(rows=[[0.0, 0.5, 0.0]], data=None)
    def test_property_equals_the_brute_force_rule(self, rows, data):
        sims = np.array(rows)
        r, n = sims.shape
        if data is None:
            targets, k = [0], 2
        else:
            targets = data.draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r),
                                label="targets")
            k = data.draw(st.integers(1, n + 1), label="k")
        mask = neighbours(sims, np.array(targets, dtype=np.int64), k)
        assert mask.shape == (r, n) and mask.dtype == bool
        for row, target, marked in zip(rows, targets, mask):
            assert not marked[target]
            assert np.flatnonzero(marked).tolist() == brute_neighbours(row, target, k)

    @pytest.mark.parametrize("k", [3, 4, 10])
    def test_k_of_n_minus_1_or_more_marks_every_other_item_unsorted(self, k, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("sorted")

        monkeypatch.setattr(np, "argsort", no_sort)
        mask = neighbours(np.array([[0.0, 3.0, -1.0, 2.0]] * 2), np.array([1, 3]), k)
        assert mask.tolist() == [[True, False, True, True], [True, True, True, False]]

    def test_no_targets_give_an_empty_mask(self):
        assert neighbours(np.zeros((0, 5)), np.zeros(0, dtype=np.int64), 2).shape == (0, 5)


class TestMetricReport:
    def report(self):
        return MetricReport(
            rmse=1.25,
            mae=1.0,
            precision_at_k={5: 0.2, 10: 0.15},
            recall_at_k={5: 0.5, 10: 0.6},
            n_pairs=40,
            n_users=8,
        )

    def test_invariant_rmse_below_mae_rejected(self):
        with pytest.raises(ValidationError):
            MetricReport(rmse=0.5, mae=1.0)

    def test_negative_mae_rejected(self):
        with pytest.raises(ValidationError):
            MetricReport(rmse=1.0, mae=-0.1)

    def test_precision_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            MetricReport(rmse=1.0, mae=0.5,
                         precision_at_k={5: 1.2}, recall_at_k={5: 0.1})

    def test_mismatched_cutoffs_rejected(self):
        with pytest.raises(ValidationError):
            MetricReport(rmse=1.0, mae=0.5,
                         precision_at_k={5: 0.2}, recall_at_k={10: 0.1})

    def test_table_is_aligned(self):
        lines = self.report().format_table().splitlines()
        assert len(lines) == 8
        assert len(set(len(line) for line in lines)) == 1
        assert lines[0].startswith("rmse")
        assert "precision@5" in lines[2]
        assert lines[-1].split() == ["users", "8"]

    def test_table_skips_topn_when_absent(self):
        table = MetricReport(rmse=1.0, mae=0.5, n_pairs=3).format_table()
        assert "precision" not in table and "users" not in table

    def test_json_round_trip(self):
        doc = json.loads(self.report().to_json())
        assert doc["rmse"] == 1.25
        assert doc["precision_at_k"]["10"] == 0.15
        assert doc["recall_at_k"]["5"] == 0.5
        assert doc["pairs"] == 40 and doc["users"] == 8

    def test_json_keys_sorted(self):
        text = self.report().to_json()
        assert text.index('"mae"') < text.index('"rmse"')
