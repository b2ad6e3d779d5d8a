"""Accuracy metrics for rating prediction and top-N recommendation.

Rating metrics (rmse, mae) score aligned prediction/truth pairs. Top-N
metrics are macro averaged: precision is hits/k averaged over the users
that received recommendations, recall is hits/|positives(u)| averaged
over the users with held-out positives.

The scoring path every model shares lives here too. Every model is a
Scorer: it supplies scores(u, items), its predictions for user u at an
array of item indices, and the base writes predict (the one-item case of
scores, bit for bit) and recommend (one scores call over the user's
unseen items, ranked by top_k) once for all of them. in_range checks
such indices, and pair_scores scores aligned user/item pairs with one
scores call per distinct user. All three call scores under
np.errstate(over="ignore", invalid="ignore"): finite but huge model
entries may multiply to inf or nan without a numpy warning, and whoever
needs a finite score checks it (recommend itself; rmse and mae;
svdcf.round_to_scale; ensemble.stack_fit), raising ValidationError or
ConditioningError. neighbours picks every item neighbourhood
that itemcf and svdcf score from. check_count is the one rule for a
count: a neighbourhood size, a list length or cutoff, a member count.
"""

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexRangeError, NoDataError, ShapeError, ValidationError

# candidate rows that itemcf and svdcf score at a time, one block of
# similarity rows per neighbours call. The bound matters only where
# neighbours sorts (k < n - 1) and where svdcf builds its rows per block:
# whole-catalogue sorts of a 300-item itemcf model raised the benchmark's
# implicit-topn peak RSS by 1.7 MB (heap growth), blocks of 32 rows
# (77 KB) by none
SORT_ROWS = 32


def _paired(preds, truth):
    p = np.asarray(preds, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size:
        raise ShapeError(f"{p.size} predictions vs {t.size} truths")
    if p.size == 0:
        raise NoDataError("no prediction pairs to score")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("predictions and truths must be finite")
    return p, t


def rmse(preds, truth):
    """Root mean squared error over aligned pairs.

    Raises NoDataError when the pair set is empty.
    """
    p, t = _paired(preds, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(preds, truth):
    """Mean absolute error over aligned pairs."""
    p, t = _paired(preds, truth)
    return float(np.mean(np.abs(p - t)))


def _item_only(entry):
    if isinstance(entry, (tuple, list)):
        return entry[0]
    return entry


def topn_metrics(recommendations, positives, k):
    """Macro-averaged precision and recall at a cutoff.

    Args:
        recommendations: mapping user -> ranked items; entries may be bare
            items or (item, score) pairs as produced by the recommenders.
        positives: mapping user -> collection of held-out relevant items.
        k: cutoff, at least 1. Longer recommendation lists are truncated.

    Returns:
        (precision, recall) pair.

    Raises:
        ValidationError: k is not an int >= 1 (check_count).
        NoDataError: no user has any positives.
    """
    check_count(k, "cutoff k")
    hits = {}
    for user, ranked in recommendations.items():
        top = [_item_only(e) for e in list(ranked)[:k]]
        relevant = set(positives.get(user, ()))
        hits[user] = sum(1 for item in top if item in relevant)

    with_positives = [u for u, items in positives.items() if len(items) > 0]
    if not with_positives:
        raise NoDataError("no user has held-out positives")

    if recommendations:
        precision = float(np.mean([hits[u] / k for u in recommendations]))
    else:
        precision = 0.0
    recall = float(np.mean(
        [hits.get(u, 0) / len(set(positives[u])) for u in with_positives]
    ))
    return precision, recall


def in_range(u, items, n_users, n_items):
    """items as an int64 array, once u and every item are valid indices.

    Raises IndexRangeError (an IndexError and a ValueError) naming the
    user or the first item outside [0, n_users) or [0, n_items).
    """
    items = np.asarray(items, dtype=np.int64)
    if not 0 <= u < n_users:
        raise IndexRangeError(f"user index {u} out of range for {n_users}")
    bad = items[(items < 0) | (items >= n_items)]
    if bad.size:
        raise IndexRangeError(f"item index {bad[0]} out of range for {n_items}")
    return items


def top_k(items, scores, k):
    """The k best items as (item, score) pairs of Python numbers.

    items (ints) and scores (floats) are aligned arrays. Highest score
    first, ties broken by ascending item index; Scorer.recommend ranks
    every recommend list here, so they all share this rule.

    Raises:
        ValidationError: k is not an int >= 1 (check_count).
    """
    check_count(k, "k")
    order = np.lexsort((items, -scores))[:k]
    return list(zip(items[order].tolist(), scores[order].tolist()))


def check_count(k, name, optional=False):
    """Raise ValidationError naming k unless it is a count: an int >= 1
    and not a bool, or with optional also None."""
    if optional and k is None:
        return
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValidationError(f"{name} must be {'None or ' * optional}an int >= 1, got {k!r}")


def neighbours(sims, targets, k):
    """Boolean mask of each target's k nearest neighbours.

    sims is an (r, n) array whose row r holds the similarities of item
    targets[r] (an int array) to the n items. Row r of the mask marks the
    k entries of sims[r] that rank highest, by descending similarity with
    ties broken by ascending index, among all entries but targets[r]: the
    target never takes a slot. With k >= n - 1 every other entry is
    marked and nothing is sorted. itemcf and svdcf pick every
    neighbourhood here.
    """
    mask = np.ones(sims.shape, dtype=bool)
    mask[np.arange(targets.size), targets] = False
    if k < sims.shape[1] - 1:
        order = np.argsort(-sims, axis=-1, kind="stable")
        # each row's order without its target, n - 1 entries per row
        order = order[order != targets[:, None]].reshape(-1, sims.shape[1] - 1)
        mask[np.arange(targets.size)[:, None], order[:, k:]] = False
    return mask


class Scorer:
    """The queries every model answers, written once over its scores.

    A subclass supplies scores(u, items), its predictions for user u at
    an array of item indices; n_users and n_items, the sizes of its
    tables; and seen(u), the items (indices, or a boolean row) that
    recommend leaves out for user u.
    """

    def predict(self, u, i):
        """Predicted score of (u, i); the one-item case of scores. It may
        be inf or nan, without a numpy warning (see the module doc)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.scores(u, [i])[0])

    def recommend(self, u, k):
        """Top-k items for user u outside seen(u), as top_k's (item,
        score) pairs, from one scores call over the candidates.

        Raises:
            IndexRangeError: u is not a user index.
            ValidationError: k is not a count, or a candidate's score is
                not finite (naming the user and the first such item).
        """
        in_range(u, [], self.n_users, self.n_items)
        items = np.delete(np.arange(self.n_items), self.seen(u))
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self.scores(u, items)
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValidationError(f"non-finite score {scores[bad[0]]} for user index {u} "
                                  f"at item index {items[bad[0]]}")
        return top_k(items, scores, k)


def pair_scores(model, users, items):
    """model's score of each (users[t], items[t]) pair, in pair order;
    like Scorer.predict, a score may be inf or nan.

    users and items are aligned int arrays. One model.scores call per
    distinct user, over that user's items in pair order; the results are
    written back to the pairs' positions.
    """
    out = np.empty(users.size)
    order = np.argsort(users, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in np.split(order, np.flatnonzero(np.diff(users[order])) + 1):
            if rows.size:
                out[rows] = model.scores(int(users[rows[0]]), items[rows])
    return out


@dataclass
class MetricReport:
    """Bundle of accuracy numbers for one evaluation run.

    Attributes:
        rmse / mae: rating-prediction errors over the scored pairs.
        precision_at_k / recall_at_k: cutoff -> macro-averaged value, one
            entry per requested cutoff (empty when top-N was not scored).
        n_pairs: number of scored prediction pairs.
        n_users: number of users contributing to the top-N averages.
    """

    rmse: float
    mae: float
    precision_at_k: dict = field(default_factory=dict)
    recall_at_k: dict = field(default_factory=dict)
    n_pairs: int = 0
    n_users: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mae <= self.rmse + 1e-9 * (1.0 + self.mae)):
            raise ValidationError(
                f"need rmse >= mae >= 0, got rmse={self.rmse} mae={self.mae}"
            )
        if sorted(self.precision_at_k) != sorted(self.recall_at_k):
            raise ValidationError("precision and recall cutoffs differ")
        for name, table in (("precision", self.precision_at_k),
                            ("recall", self.recall_at_k)):
            for k, value in table.items():
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(f"{name}@{k}={value} outside [0, 1]")

    def rows(self):
        """Report content as (label, formatted value) pairs, table order."""
        out = [("rmse", f"{self.rmse:.4f}"), ("mae", f"{self.mae:.4f}")]
        for k in sorted(self.precision_at_k):
            out.append((f"precision@{k}", f"{self.precision_at_k[k]:.4f}"))
            out.append((f"recall@{k}", f"{self.recall_at_k[k]:.4f}"))
        out.append(("pairs", str(self.n_pairs)))
        if self.precision_at_k:
            out.append(("users", str(self.n_users)))
        return out

    def format_table(self):
        """Aligned two-column text table."""
        rows = self.rows()
        label_width = max(len(label) for label, _ in rows)
        value_width = max(len(value) for _, value in rows)
        return "\n".join(
            f"{label:<{label_width}}  {value:>{value_width}}"
            for label, value in rows
        )

    def to_json(self):
        """Machine-readable JSON with sorted keys."""
        doc = {
            "rmse": self.rmse,
            "mae": self.mae,
            "precision_at_k": {str(k): v for k, v in self.precision_at_k.items()},
            "recall_at_k": {str(k): v for k, v in self.recall_at_k.items()},
            "pairs": self.n_pairs,
            "users": self.n_users,
        }
        return json.dumps(doc, sort_keys=True)
