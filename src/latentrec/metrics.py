"""Accuracy metrics for rating prediction and top-N recommendation.

Rating metrics (rmse, mae) score aligned prediction/truth pairs. Top-N
metrics are macro averaged: precision is hits/k averaged over the users
that received recommendations, recall is hits/|positives(u)| averaged
over the users with held-out positives.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NoDataError, ShapeError, ValidationError


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
        ValidationError: k < 1.
        NoDataError: no user has any positives.
    """
    if k < 1:
        raise ValidationError(f"cutoff k must be >= 1, got {k}")
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


def top_k(candidates, score, k):
    """The k best candidates as (candidate, score(candidate)) pairs.

    Highest score first, ties broken by ascending candidate index. Every
    recommend method ranks through here, so they all share this rule.

    Raises:
        ValueError: k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scored = [(c, score(c)) for c in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


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
