"""Combine trained predictors: weighted blending, voting, bagging, stacking.

A member is any object exposing scores(u, items) -> float array (its
prediction for each item, in order), predict(u, i) -> real and
recommend(u, k) -> ranked list; every trained model in this package is
such a metrics.Scorer. Members always see index-space ids.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ValidationError
from .metrics import Scorer, pair_scores

STACK_RIDGE = 1e-8


def _member_failure(exc, label):
    """Re-raise a member error with the member id folded into the message.

    The original type is kept when possible so downstream handling (for
    example the CLI exit-code mapping) still sees the real failure class.
    """
    try:
        wrapped = type(exc)(f"{label}: {exc}")
    except TypeError:
        wrapped = RuntimeError(f"{label}: {exc}")
    wrapped.__dict__.update(getattr(exc, "__dict__", {}))
    return wrapped


@dataclass
class BlendModel(Scorer):
    """Weighted combination of member predictors.

    Attributes:
        members: predictor objects, at least one.
        weights: per-member coefficients. Blend and bag ensembles keep
            them nonnegative and normalized to sum 1 (a vector already
            within n * machine epsilon of 1 is kept); stacked ensembles
            carry free-sign least-squares coefficients plus an intercept.
        intercept: additive constant, zero except for stacked ensembles.
        kind: "blend", "bag", or "stack".
    """

    members: list
    weights: np.ndarray
    intercept: float = 0.0
    kind: str = "blend"

    def __post_init__(self):
        self.members = list(self.members)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.intercept = float(self.intercept)
        if not self.members:
            raise ValidationError("ensemble needs at least one member")
        if self.weights.size != len(self.members):
            raise ValidationError(
                f"{len(self.members)} members but {self.weights.size} weights"
            )
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.intercept):
            raise ValidationError("ensemble coefficients must be finite")
        if self.kind not in ("blend", "bag", "stack"):
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.kind in ("blend", "bag"):
            if np.any(self.weights < 0):
                raise ValidationError("blend weights must be nonnegative")
            total = float(self.weights.sum())
            if total <= 0:
                raise ValidationError("blend weights must not all be zero")
            # weights that sum to 1 within rounding are kept as given, so
            # normalizing twice (at training and again on load) moves no bit
            if abs(total - 1.0) > self.weights.size * np.finfo(float).eps:
                self.weights = self.weights / total
            if self.intercept != 0.0:
                raise ValidationError("only stacked ensembles carry an intercept")

    def scores(self, u, items):
        """Weighted sum of member scores, in member order, plus any
        stacking intercept, as an array.

        A member failure is re-raised with the member's position in the
        message.
        """
        total = self.intercept
        for m, (member, weight) in enumerate(zip(self.members, self.weights)):
            try:
                total = total + weight * member.scores(u, items)
            except Exception as exc:
                raise _member_failure(exc, f"ensemble member {m}") from exc
        return total

    def recommend(self, u, k):
        """Member vote over index-space top-k lists; see vote_recommend."""
        return vote_recommend(self.members, u, k)


# the blend's prediction for (u, i): the one-item case of BlendModel.scores
blend_predict = Scorer.predict


def vote_recommend(members, u, k):
    """Rank items by how many members put them in their own top-k.

    Ties break by mean member rank (over the members that listed the
    item), then by ascending item id. Members may return bare items or
    (item, score) pairs.

    Returns:
        up to k (item, votes) pairs, best first.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ranks = {}
    for m, member in enumerate(members):
        try:
            ranked = member.recommend(u, k)
        except Exception as exc:
            raise _member_failure(exc, f"ensemble member {m}") from exc
        for position, entry in enumerate(list(ranked)[:k]):
            item = entry[0] if isinstance(entry, (tuple, list)) else entry
            ranks.setdefault(item, []).append(position)
    # an item's vote count is the number of member ranks it collected
    order = sorted(
        ranks,
        key=lambda item: (-len(ranks[item]), float(np.mean(ranks[item])), item),
    )
    return [(item, len(ranks[item])) for item in order[:k]]


def bag_train(trainer, ds, b=10, seed=42):
    """Train b members on bootstrap resamples and weight them uniformly.

    Args:
        trainer: closure mapping a RatingDataset to a trained predictor.
        ds: source dataset; each resample draws len(ds) ratings from it
            with replacement.
        b: member count, at least 1.
        seed: seeds the resampling stream; member training determinism
            is the trainer's business.

    Returns:
        BlendModel of kind "bag" with weights 1/b.
    """
    if b < 1:
        raise ValidationError(f"member count must be >= 1, got {b}")
    rng = np.random.default_rng(seed)
    count = len(ds)
    columns = ds.indexed()
    members = []
    for m in range(b):
        picks = rng.integers(0, count, size=count)
        resampled = ds.replace(
            [c[picks] for c in columns], allow_duplicate_pairs=True
        )
        try:
            members.append(trainer(resampled))
        except Exception as exc:
            raise _member_failure(exc, f"while training ensemble member {m}") from exc
    return BlendModel(members=members, weights=np.full(b, 1.0 / b), kind="bag")


def stack_fit(members, holdout):
    """Least-squares blend coefficients fit on held-out ratings.

    Solves the normal equations for ratings against member predictions
    plus an intercept column, with ridge damping STACK_RIDGE so duplicate
    or constant members stay solvable.

    Args:
        members: predictor list.
        holdout: RatingDataset disjoint from member training data, with
            at least as many triples as there are members.

    Returns:
        BlendModel of kind "stack".

    Raises:
        ConditioningError: non-finite member predictions, or a system
            still unsolvable after damping.
    """
    members = list(members)
    if not members:
        raise ValidationError("stacking needs at least one member")
    users, items, ratings = holdout.indexed()
    if ratings.size < len(members):
        raise ValidationError(
            f"{ratings.size} holdout points cannot fit {len(members)} members"
        )
    columns = []
    for m, member in enumerate(members):
        try:
            columns.append(pair_scores(member, users, items))
        except Exception as exc:
            raise _member_failure(exc, f"ensemble member {m}") from exc
    design = np.column_stack(columns + [np.ones(ratings.size)])
    if not np.all(np.isfinite(design)):
        raise ConditioningError("member predictions contain non-finite values")
    gram = design.T @ design + STACK_RIDGE * np.eye(design.shape[1])
    try:
        beta = np.linalg.solve(gram, design.T @ ratings)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "normal equations stayed singular after ridge damping"
        ) from exc
    if not np.all(np.isfinite(beta)):
        raise ConditioningError("stacking produced non-finite coefficients")
    return BlendModel(
        members=members,
        weights=beta[:-1],
        intercept=float(beta[-1]),
        kind="stack",
    )
