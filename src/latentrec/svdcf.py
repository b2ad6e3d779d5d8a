"""Classical SVD recommender: impute, decompose, truncate, predict.

The pipeline fills the missing cells of the rating matrix, takes the thin
SVD, keeps the top f singular triplets, and predicts unseen cells from
item-to-item similarities computed on the masked columns of the rank-f
reconstruction.

Two similarity modes exist. "paper-dot" (the default) scores a pair of
items by the raw dot product of their masked reconstruction columns;
"cosine" normalizes that product by the column norms, drops negative
similarities, and treats fully-unobserved columns as similarity 0.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .data import impute, to_dense
from .errors import MagnitudeError, ValidationError, ZeroNormError
from .metrics import SORT_ROWS, Scorer, check_count, in_range, neighbours


def parse_rank_rule(rule, max_rank=None):
    """Normalize a rank rule into a (name, value) pair.

    Accepts ("energy", 0.95) style pairs or the compact strings
    "energy:0.95", "ratio:10", "fixed:2"; bare "energy" and "ratio" take
    their default parameter (0.95 and 10). The value must suit its rule:
    an energy threshold in (0, 1], a positive finite ratio, a fixed rank of at
    least 1 and, when max_rank is given, at most max_rank.

    Raises:
        ValueError: a malformed rule or a value outside its range.
    """
    if isinstance(rule, (tuple, list)) and len(rule) == 2:
        name, value = rule
    elif isinstance(rule, str):
        name, _, raw = rule.partition(":")
        if raw:
            value = raw
        elif name == "energy":
            value = 0.95
        elif name == "ratio":
            value = 10.0
        else:
            raise ValueError(f"rank rule {rule!r} needs a value, e.g. 'fixed:2'")
    else:
        raise ValueError(f"unrecognized rank rule {rule!r}")
    name = str(name).strip().lower()
    if name not in ("energy", "ratio", "fixed"):
        raise ValueError(f"unknown rank rule {name!r}; expected energy, ratio, or fixed")
    try:
        value = int(value) if name == "fixed" else float(value)
    except (TypeError, ValueError):
        raise ValueError(f"rank rule {name} has a non-numeric value {value!r}") from None
    if name == "energy" and not 0.0 < value <= 1.0:
        raise ValueError(f"rank rule energy needs a threshold in (0, 1], got {value}")
    if name == "ratio" and not 0.0 < value < math.inf:
        raise ValueError(f"rank rule ratio needs a positive finite value, got {value}")
    if name == "fixed" and (value < 1 or max_rank is not None and value > max_rank):
        limit = "" if max_rank is None else f" and at most min(m, n) = {max_rank}"
        raise ValueError(f"rank rule fixed needs a rank of at least 1{limit}, got {value}")
    return name, value


class PredictionInfo(NamedTuple):
    """A prediction plus how it was formed.

    Attributes:
        value: predicted rating.
        similarity_total: denominator of the weighted average (0 when the
            fallback fired).
        fallback: True when no usable neighbor existed and the user's mean
            reconstructed rating was returned instead.
    """

    value: float
    similarity_total: float
    fallback: bool


@dataclass(frozen=True)
class SvdCfModel(Scorer):
    """Rank-f reconstruction plus the observation mask.

    The model is frozen: assigning a field raises FrozenInstanceError,
    and dataclasses.replace builds a new, checked model. What scoring
    derives from the fields (masked, norms) is built on first use and
    kept.

    Attributes:
        r_star: (m, n) rank-f reconstruction of the imputed rating matrix.
        mask: (m, n) 0/1 observation indicator of the training data.
        f: retained rank.
        similarity_mode: "paper-dot" or "cosine".
        neighborhood: optional top-K cut on neighbors per prediction, an
            int >= 1; None means all items participate.
        factors: the rank-f triplets (u (m, f), s (f,), v (n, f)) that
            r_star was built from by reconstruct(); set by fit, None for
            a model built from r_star alone.
    """

    r_star: np.ndarray
    mask: np.ndarray
    f: int
    similarity_mode: str = "paper-dot"
    neighborhood: int | None = None
    factors: linalg.SvdResult | None = None

    def __post_init__(self):
        for name in ("r_star", "mask"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.r_star.shape != self.mask.shape:
            raise ValueError(
                f"reconstruction {self.r_star.shape} and mask {self.mask.shape} differ"
            )
        if self.f < 1:
            raise ValueError(f"retained rank must be >= 1, got {self.f}")
        if self.similarity_mode not in ("paper-dot", "cosine"):
            raise ValueError(f"unknown similarity mode {self.similarity_mode!r}")
        check_count(self.neighborhood, "neighborhood", optional=True)

    @functools.cached_property
    def masked(self):
        """The masked reconstruction r_star * mask, whose columns are the
        items' similarity vectors."""
        return self.r_star * self.mask

    @functools.cached_property
    def norms(self):
        """The column norms of masked, cosine mode's denominators."""
        return np.linalg.norm(self.masked, axis=0)

    # predict and recommend are Scorer's, called through this module's
    # names, which perfbench's tracer patches to count and time them
    def predict(self, u, i):
        return predict(self, u, i)

    def recommend(self, u, k):
        return recommend(self, u, k)

    def predict_with_info(self, u, i):
        return predict_with_info(self, u, i)

    def scores(self, u, items):
        """Predictions for user u at each item index in items, as an array;
        predict of every (u, i), bit for bit."""
        return _predictions(self, u, items)[0]

    @property
    def n_users(self):
        return self.r_star.shape[0]

    @property
    def n_items(self):
        return self.r_star.shape[1]

    def seen(self, u):
        """The cells of user u's row that the mask observes."""
        return self.mask[u] != 0.0


def fit(ds, impute_strategy="user", rank_rule="energy:0.95",
        similarity_mode="paper-dot", neighborhood=None):
    """Train an SvdCfModel on an explicit dataset.

    Args:
        ds: explicit RatingDataset.
        impute_strategy: "global", "user", or "item" mean fill.
        rank_rule: how to pick the retained rank f; see parse_rank_rule.
        similarity_mode: "paper-dot" or "cosine".
        neighborhood: optional top-K neighbor cut, default off.

    Returns:
        SvdCfModel with r_star the rank-f reconstruction of the imputed
        matrix.

    Raises:
        MagnitudeError: the singular values or the reconstruction of
            ratings near the float64 maximum overflow.
    """
    if ds.kind != "explicit":
        raise ValidationError("svd completion expects an explicit dataset")
    rule, value = parse_rank_rule(rank_rule, max_rank=min(ds.n_users, ds.n_items))
    dense, mask = to_dense(ds)
    filled = impute(dense, mask, impute_strategy)
    del dense  # one m x n array fewer while the SVD runs
    res = linalg.svd(filled)
    if rule == "energy":
        f = linalg.rank_by_energy(res.s, value)
    elif rule == "ratio":
        f = linalg.rank_by_ratio(res.s, value)
    else:
        f = value
    u_f, s_f, v_f = linalg.truncate(res, f)
    factors = linalg.SvdResult(u=u_f, s=np.diag(s_f).copy(), v=v_f)
    with np.errstate(over="ignore", invalid="ignore"):
        r_star = reconstruct(factors)
    if not np.isfinite(r_star).all():
        raise MagnitudeError(f"the rank-{f} reconstruction of the ratings overflows float64")
    return SvdCfModel(
        r_star=r_star,
        mask=mask,
        f=f,
        similarity_mode=similarity_mode,
        neighborhood=neighborhood,
        factors=factors,
    )


def reconstruct(factors):
    """The rank-f matrix ``u @ diag(s) @ v.T`` of truncated SVD factors.

    fit and the model-file loader both build r_star here, so a reloaded
    model reproduces the trained reconstruction bit for bit.
    """
    return (factors.u * factors.s) @ factors.v.T


def masked_item_similarity(model, i, j):
    """Similarity of items i and j on their masked reconstruction columns.

    Raises:
        ValueError: if i == j (self-similarity is never used by the
            predictor and asking for it is a caller bug) or on a bad index.
    """
    n = model.r_star.shape[1]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"item index out of range: ({i}, {j}) with {n} items")
    if i == j:
        raise ValueError("self-similarity is not defined for prediction")
    a = model.r_star[:, i] * model.mask[:, i]
    b = model.r_star[:, j] * model.mask[:, j]
    if model.similarity_mode == "paper-dot":
        return float(np.dot(a, b))
    try:
        return linalg.cosine(a, b)
    except ZeroNormError:
        return 0.0


def _predictions(model, u, items):
    """Predictions of each cell (u, i), i in items, and the similarity
    total behind each, as two arrays (values, totals).

    The prediction is sum_j sim(i, j) * r_star[u, j] / sum_j sim(i, j)
    over the neighbours j of i by metrics.neighbours: the top
    model.neighborhood items by descending similarity, ties by ascending
    index, i itself never taking a slot; with no neighborhood (k = n), or
    one of at least n - 1, every other item, and nothing is sorted. When
    the similarity total is zero there is nothing to average, so the mean
    of the user's reconstructed row is returned with a total of 0. Each
    item takes its own similarity row from the model's masked
    reconstruction (and in cosine mode its column norms), and
    metrics.neighbours picks from SORT_ROWS rows at a time.
    """
    m, n = model.r_star.shape
    items = in_range(u, items, m, n)
    masked = model.masked
    values, totals = [], []
    for block in np.split(items, range(SORT_ROWS, items.size, SORT_ROWS)):
        # one gemv per item: a matrix product of the block rounds differently
        sims = np.array([masked.T @ masked[:, i] for i in block.tolist()]).reshape(-1, n)
        if model.similarity_mode == "cosine":
            denom = model.norms * model.norms[block, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                sims = np.where(denom > 0, sims / denom, 0.0)
            # clipped at 1; negative neighbors excluded
            sims = np.where(sims > 0, np.minimum(sims, 1.0), 0.0)
        sims[~neighbours(sims, block, model.neighborhood or n)] = 0.0
        for row in sims:
            totals.append(float(row.sum()))
            values.append(float(model.r_star[u].mean()) if totals[-1] == 0.0
                          else float(np.dot(row, model.r_star[u])) / totals[-1])
    return np.array(values), np.array(totals)


def predict_with_info(model, u, i):
    """Weighted-average prediction for cell (u, i) with diagnostics; the
    one-item case of _predictions."""
    values, totals = _predictions(model, u, [i])
    return PredictionInfo(float(values[0]), float(totals[0]), bool(totals[0] == 0.0))


# the predicted rating for cell (u, i): the one-item case of scores
predict = Scorer.predict


def round_to_scale(value, scale=(1.0, 5.0)):
    """Round to the nearest integer rating, half away from zero, clamped.

    Examples: 1.4 -> 1; 2.5 -> 3; 5.7 on a 1-5 scale -> 5. Raises
    ValidationError for a non-finite value, such as the inf that finite
    but huge factors multiply to.
    """
    if not math.isfinite(value):
        raise ValidationError(f"cannot round non-finite value {value}")
    rounded = math.floor(value + 0.5) if value >= 0 else math.ceil(value - 0.5)
    lo, hi = scale
    return int(min(max(rounded, math.ceil(lo)), math.floor(hi)))


# the top-k unobserved items for user u as (item index, score) pairs,
# highest score first, ties broken by ascending item index; a user with
# nothing unobserved gets an empty list
recommend = Scorer.recommend
