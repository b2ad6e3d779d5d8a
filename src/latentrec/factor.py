"""Learned latent-factor models and the item-neighborhood baseline.

Three model families live here:

    funk_*    plain two-factor approximation R ~ P^T Q trained by
              per-triple gradient descent with L2 regularization
    svdpp_*   the biased extension with implicit item factors
              mu + b_u + b_i + q_i^T (p_u + |N(u)|^(-1/2) sum y_j)
    itemcf_*  statistical item-to-item overlap weights, no learning

User and item vectors are the COLUMNS of P (f x m) and Q (f x n). The
trainers keep row-major transposed working copies internally so that
per-row optimizer updates stay contiguous, and build the model at the end.

Update convention: every SGD step moves a tensor by

    theta += alpha * (err * d(pred)/d(theta) - lambda * theta)

which is -alpha/2 times the gradient of the squared-error-plus-L2 loss as
written (the conventional halved-gradient reading of the update rule). The
loss/gradient helpers below expose the full factor-2 gradients so finite
differences can check them coordinate by coordinate.

The regularizer is summed per training pair, not per parameter, so
frequently observed users and items are penalized more often. That is the
documented behavior, kept as written.

Every per-sample trainer (funk, svdpp and the fm machines) runs through
run_epochs, passing two closures: visit makes one pass over the samples
and loss returns the epoch's trace figure (training RMSE, or the mean
sample loss). Both run under np.errstate(over="ignore", invalid="ignore").
Parameters move through optim.updater closures, which do not check the
gradient: a non-finite error or prediction raises GradientError inside the
pass, and a non-finite update shows there or, at the latest, in the epoch
loss, which reads every trained row. Either becomes DivergenceError naming
the 0-based epoch (sequential funk counts epochs across features).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import optim
from .data import UserItems, check_cells
from .errors import DivergenceError, GradientError, ValidationError
from .metrics import SORT_ROWS, Scorer, check_count, in_range, neighbours

STRATEGIES = ("all", "sequential")


@dataclass
class TrainConfig:
    """Hyperparameters shared by the gradient-descent trainers.

    Args:
        f: latent dimension, at least 1.
        alpha: learning rate, finite and positive.
        lam: L2 regularization weight, finite and nonnegative.
        epochs: full passes over the training triples; 0 returns the
            freshly initialized model untouched.
        seed: RNG seed for factor initialization.
        optimizer: "sgd", "momentum", or "adaptive" (see optim module).
        beta1 / beta2 / eps: optimizer hyperparameters, passed through.
        simultaneous: when True the q-update reads the pre-update p
            instead of the already-updated one, under either strategy.
            Off by default; the default follows the pseudocode statement
            order where the q-update sees the new p.
        strategy: "all" trains every feature at each triple visit;
            "sequential" trains one feature at a time to completion, with
            momenta of its own, shifting its contribution onto a cached
            residual pile before moving to the next feature, which leaves
            it fixed.

    Every field is checked here and a bad value raises ValidationError;
    f must be an int >= 1 and epochs an int >= 0 (metrics.check_count).
    """

    f: int = 2
    alpha: float = 0.01
    lam: float = 0.02
    epochs: int = 100
    seed: int = 42
    optimizer: str = "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    simultaneous: bool = False
    strategy: str = "all"

    def __post_init__(self):
        check_count(self.f, "latent dimension f")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(
                f"learning rate must be finite and positive, got {self.alpha}"
            )
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(
                f"regularization must be finite and >= 0, got {self.lam}"
            )
        check_count(self.epochs, "epochs", low=0)
        for name, value, kinds in (("optimizer", self.optimizer, optim.KINDS),
                                   ("strategy", self.strategy, STRATEGIES)):
            if value not in kinds:
                raise ValidationError(f"unknown {name} {value!r}; pick from {kinds}")


@dataclass
class FactorModel(Scorer):
    """A trained factor model.

    Fields:
        kind: "funk" or "svdpp".
        P: f x m user factors (column u is user u's vector).
        Q: f x n item factors (column i is item i's vector).
        f: latent dimension.
        mu / b_u / b_i: global mean and bias vectors, svdpp only.
        Y: f x n implicit item factors, svdpp only.
        N: the items each user rated (N(u) of svdpp), a UserItems; a
            plain per-user list is checked and converted here. Trained
            models hold them ascending, a bootstrap repeat as often as it
            occurs, which svdpp's implicit sum counts.
        trace: per-epoch training RMSE recorded by the trainer.
    """

    kind: str
    P: np.ndarray
    Q: np.ndarray
    f: int
    mu: float = 0.0
    b_u: np.ndarray = None
    b_i: np.ndarray = None
    Y: np.ndarray = None
    N: UserItems = None
    trace: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("funk", "svdpp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        self.P = np.asarray(self.P, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.P.ndim != 2 or self.Q.ndim != 2:
            raise ValueError("P and Q must be 2-d arrays")
        if self.P.shape[0] != self.f or self.Q.shape[0] != self.f:
            raise ValueError(
                f"factor arrays must have {self.f} rows, got "
                f"{self.P.shape[0]} and {self.Q.shape[0]}"
            )
        extra = (self.b_u, self.b_i, self.Y)
        if self.kind == "svdpp":
            if any(a is None for a in extra):
                raise ValueError("svdpp models need b_u, b_i and Y")
            self.b_u, self.b_i, self.Y = extra = tuple(
                np.asarray(a, dtype=float) for a in extra)
            if self.b_u.shape != (self.n_users,) or self.b_i.shape != (self.n_items,):
                raise ValueError("bias vectors must match the factor widths")
            if self.Y.shape != self.Q.shape:
                raise ValueError("Y must be shaped like Q")
        elif any(a is not None for a in extra):
            raise ValueError("bias block and Y are svdpp-only fields")
        checked = (self.P, self.Q) + (extra + (self.mu,) if self.kind == "svdpp" else ())
        if not all(np.isfinite(a).all() for a in checked):
            raise ValueError("model entries must all be finite")
        self.N = UserItems.of(self.N, self.n_users, self.n_items, "N")

    @property
    def n_users(self):
        return self.P.shape[1]

    @property
    def n_items(self):
        return self.Q.shape[1]

    def scores(self, u, items):
        """Predictions for user u at each item index in items, as an array;
        predict of every (u, i), bit for bit."""
        if self.kind == "funk":
            return funk_scores(self, u, items)
        return svdpp_predictions(self, u, items)[0]

    def seen(self, u):
        """N(u), which recommend leaves out; with no N every item is a
        candidate."""
        return [] if self.N is None else self.N[u]


def funk_scores(model, u, items):
    """Inner products of user column u of P with item columns of Q, one
    np.dot per item (a batched product rounds differently)."""
    items = in_range(u, items, model.n_users, model.n_items)
    p = model.P[:, u]
    return np.array([float(np.dot(p, model.Q[:, i])) for i in items.tolist()])


def funk_predict(model, u, i):
    """Inner product of user column u of P and item column i of Q."""
    return float(funk_scores(model, u, [i])[0])


def funk_loss(model, triples, lam):
    """Squared error plus per-pair L2 penalty over the given triples.

    Each (u, i, r) contributes (r - p_u.q_i)^2 + lam*(|p_u|^2 + |q_i|^2);
    the regularizer is summed once per training pair, as written in the
    objective, so heavy users and items are shrunk more.
    """
    total = 0.0
    for u, i, r in triples:
        p = model.P[:, u]
        q = model.Q[:, i]
        err = r - float(np.dot(p, q))
        total += err * err + lam * (float(np.dot(p, p)) + float(np.dot(q, q)))
    return total


def funk_loss_gradient(model, triples, lam):
    """Full analytic gradient of funk_loss w.r.t. (P, Q).

    Returns (dP, dQ) shaped like the model arrays, carrying the factor-2
    gradients of the squared loss. Used to validate the SGD updates
    against finite differences.
    """
    dP = np.zeros_like(model.P)
    dQ = np.zeros_like(model.Q)
    for u, i, r in triples:
        p = model.P[:, u]
        q = model.Q[:, i]
        err = r - float(np.dot(p, q))
        dP[:, u] += -2.0 * err * q + 2.0 * lam * p
        dQ[:, i] += -2.0 * err * p + 2.0 * lam * q
    return dP, dQ


def _diverged(epoch, alpha):
    return DivergenceError(
        f"training diverged at epoch {epoch} (non-finite values); "
        f"try a smaller learning rate than {alpha}",
        epoch=epoch,
    )


def run_epochs(config, visit, loss, first=0):
    """Run config.epochs passes of a per-sample trainer; returns the trace.

    visit() makes one pass over the samples, updating the parameters in
    place; it raises GradientError as soon as an error or a prediction
    turns non-finite. loss() returns the epoch's figure for the trace; it
    runs under the same np.errstate as visit(), because a non-finite
    update that no later prediction in the pass read makes it non-finite.
    Epochs are numbered first, first + 1, ... (0-based), and either
    failure raises DivergenceError naming the epoch in which it happened.
    """
    trace = []
    for epoch in range(first, first + config.epochs):
        # overflow on the way to divergence is expected; the isfinite
        # checks and the GradientError handler turn it into a clean error
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                visit()
            except GradientError as exc:
                raise _diverged(epoch, config.alpha) from exc
            value = loss()
        if not math.isfinite(value):
            raise _diverged(epoch, config.alpha)
        trace.append(value)
    return trace


def _rmse(targets, preds):
    err = targets - preds
    return float(np.sqrt(np.mean(err * err)))


def funk_train(ds, config, init=None):
    """Train a plain factor model by per-triple gradient descent.

    P and Q start entrywise uniform(0, 1)/sqrt(f) from the seed, or from
    init=(P0, Q0) in model layout when given. Each epoch visits the
    triples in dataset order; for every (u, i, r) the error
    err = r - p_u.q_i is computed once, then both vectors move through
    the configured optimizer. In the default statement order the q-update
    reads the already-updated p; config.simultaneous makes both updates
    read pre-update values. The returned model carries a per-epoch
    training RMSE trace.

    Raises:
        CapacityError: max(users, items) x f exceeds DENSE_CELL_CAP.
        DivergenceError: if the loss or any update turns non-finite,
            naming the epoch.
    """
    if ds.kind != "explicit":
        raise ValidationError("gradient factorization needs an explicit dataset")
    users, items, ratings = ds.indexed()
    m, n, f = ds.n_users, ds.n_items, config.f
    check_cells("funk factor table", (max(m, n), f), "use fewer factors")
    if init is not None:
        p0, q0 = init
        pt = np.array(p0, dtype=float).T.copy()
        qt = np.array(q0, dtype=float).T.copy()
        if pt.shape != (m, f) or qt.shape != (n, f):
            raise ValueError(
                f"init arrays must be shaped ({f}, {m}) and ({f}, {n})"
            )
    else:
        rng = np.random.default_rng(config.seed)
        root = math.sqrt(f)
        pt = rng.random((m, f)) / root
        qt = rng.random((n, f)) / root
    if config.strategy == "sequential":
        trace = _funk_train_sequential(config, users, items, ratings, pt, qt)
    else:
        trace = _funk_train_all(config, users, items, ratings, pt, qt)
    return FactorModel(
        kind="funk",
        P=pt.T.copy(),
        Q=qt.T.copy(),
        f=f,
        N=ds.items_by_user(),
        trace=trace,
    )


def _make_updaters(config, params_names):
    """One optim.updater per (parameter array, name), fresh momenta each."""
    return [
        optim.updater(
            optim.make_state(
                config.optimizer,
                params.shape,
                config.alpha,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.eps,
                name=name,
            ),
            params,
        )
        for params, name in params_names
    ]


def _funk_train_all(config, users, items, ratings, pt, qt, first=0):
    """Move every feature of the row-major tables pt and qt at each visit
    of a triple, with fresh momenta, toward ratings; returns the trace,
    whose epochs are numbered from first. Sequential training runs it on
    one-feature column views."""
    lam = config.lam
    step_p, step_q = _make_updaters(config, [(pt, "P"), (qt, "Q")])
    count = len(users)

    def visit():
        for t in range(count):
            u = users[t]
            i = items[t]
            p = pt[u]
            q = qt[i]
            err = ratings[t] - float(np.dot(p, q))
            if not math.isfinite(err):
                raise GradientError("non-finite prediction error")
            g_p = lam * p - err * q
            if config.simultaneous:
                p = p.copy()  # the q-update reads the pre-update p
            step_p(u, g_p)
            step_q(i, lam * q - err * p)

    def loss():
        return _rmse(ratings, np.einsum("tf,tf->t", pt[users], qt[items]))

    return run_epochs(config, visit, loss, first)


def _funk_train_sequential(config, users, items, ratings, pt, qt):
    """One feature at a time against cached residuals.

    Feature k is a one-feature model, the column views pt[:, k:k+1] and
    qt[:, k:k+1], which _funk_train_all trains for the full epoch budget,
    with momenta of its own, on the residual targets left over from
    features 0..k-1. Its contribution is then shifted onto the pile and
    it stays fixed. The trace logs the residual RMSE including the feature
    in training, so the final entry is the returned model's training RMSE.
    Epochs are numbered across features, so feature k's first epoch is
    k * config.epochs.
    """
    trace = []
    res = ratings.astype(float)
    for k in range(config.f):
        pk, qk = pt[:, k:k + 1], qt[:, k:k + 1]
        trace += _funk_train_all(config, users, items, res, pk, qk, first=len(trace))
        res = res - pk[users, 0] * qk[items, 0]
    return trace


@dataclass(frozen=True)
class ItemCfModel(Scorer):
    """Each user's ratings, from which the item-to-item overlap weights
    follow.

    The model is frozen: assigning a field raises FrozenInstanceError,
    and dataclasses.replace builds a new, checked model. What scoring
    reads is not a field but derived state, built from the ratings on
    first use and kept, so it always follows from them: the item -> users
    index raters, from which each call counts the rows of the
    co-occurrences it needs (itemcf_predictions), for every K.

    Fields:
        ratings: each user's rated items with their ratings as values, a
            UserItems whose rows hold strictly increasing items (so
            set(ratings[u]) is the items user u rated). itemcf_similarity
            holds a pair that a bootstrap resample repeats once, with its
            last rating. Per-user dicts from item to rating, or lists of
            [item, rating] pairs, are checked and converted here.
        K: neighborhood size used by predict, an int >= 1.
        n_items: the number of items. A scoring call counts SORT_ROWS
            rows of n_items co-occurrences at a time, and with K < n - 1
            every candidate's whole row, so SORT_ROWS x n_items, or
            n_items x n_items when K < n - 1, must not exceed
            DENSE_CELL_CAP (checked here).
    """

    ratings: UserItems
    K: int
    n_items: int

    def __post_init__(self):
        check_count(self.K, "neighborhood size K")
        rows = SORT_ROWS if self.K >= self.n_items - 1 else self.n_items
        check_cells("item co-occurrence counts", (rows, self.n_items),
                    "use a factor model instead")
        object.__setattr__(self, "ratings", UserItems.of(
            self.ratings, None, self.n_items, "itemcf ratings", valued=True))

    @functools.cached_property
    def raters(self):
        """The item -> users inverse index of the ratings, a UserItems
        whose row i holds, ascending, the users who rated item i; one
        stable sort of the entries."""
        return UserItems.from_columns(self.ratings.items, self.ratings.rows(),
                                      self.n_items, self.n_users)

    @property
    def n_users(self):
        return len(self.ratings)

    def scores(self, u, items):
        """Neighborhood scores of user u for each item index in items, as
        an array; predict of every (u, j), bit for bit."""
        return itemcf_predictions(self, u, items)[0]

    def seen(self, u):
        """The items user u rated, which recommend leaves out."""
        return self.ratings[u]


class ItemCfPrediction(NamedTuple):
    """Neighborhood score with diagnostics.

    Fields:
        value: the unnormalized weighted sum.
        used: number of rated items inside the neighborhood.
        empty_neighborhood: True when the intersection was empty.
    """

    value: float
    used: int
    empty_neighborhood: bool


def cooccurrence(ratings, raters, targets):
    """Yield (at, counts) over blocks of targets (an int array): counts[k, j]
    is |N(t) & N(j)|, the number of users who rated both t = targets[at][k]
    and j, as an exact int64 (len(at), n) array, 0 at j = t.

    ratings is a UserItems and raters its item -> users index
    (ItemCfModel.raters). A block walks its targets' users and then those
    users' items (Linden, Smith & York 2003) into one np.bincount over the
    codes k * n + j. It holds at most SORT_ROWS targets, and a new one
    starts when the items walked pass a multiple of nnz (the number of
    entries in ratings). One target walks at most nnz items, so a block
    walks at most 2 nnz, and the transient stays O(SORT_ROWS * n + nnz)
    for any targets, a user who rated every item among them.
    """
    n = len(raters)
    users, per_target = raters.take(targets)
    first = np.concatenate(([0], per_target.cumsum()))
    # the items walked for the targets before each one, in units of nnz
    walked = np.concatenate(([0], (ratings.offsets[users + 1] - ratings.offsets[users]).cumsum()))
    units = walked[first[:-1]] // max(ratings.items.size, 1)
    starts = np.flatnonzero((np.arange(targets.size) % SORT_ROWS == 0)
                            | (units != np.concatenate(([-1], units[:-1]))))
    for s, e in zip(starts.tolist(), starts[1:].tolist() + [targets.size]):
        items, per_user = ratings.take(users[first[s]:first[e]])
        codes = np.repeat(np.repeat(np.arange(e - s), per_target[s:e]), per_user) * n + items
        counts = np.bincount(codes, minlength=(e - s) * n).reshape(e - s, n)
        counts[np.arange(e - s), targets[s:e]] = 0
        yield slice(s, e), counts


def itemcf_similarity(ds, k=None):
    """ItemCF model of a dataset's ratings; scoring counts the overlaps
    it needs (see itemcf_predictions).

    N(i) collects the users with a triple for item i (implicit zeros do
    not count as raters). k sets the prediction neighborhood size and
    defaults to n - 1, meaning every other item.

    Raises:
        CapacityError: the counts a scoring call makes exceed
            DENSE_CELL_CAP (see ItemCfModel).
    """
    n = ds.n_items
    # item order, as model files store them, so that a loaded model sums
    # each user's ratings in the same order and predicts bit for bit alike
    ratings = ds.items_by_user(positive_only=ds.kind == "implicit", with_ratings=True)
    return ItemCfModel(ratings, K=k if k is not None else max(n - 1, 1), n_items=n)


def itemcf_predictions(model, u, items):
    """Scores of each (u, j), j in items, and how many rated items each
    sums, as two arrays (value, used).

    The score is sum over i in N(u) & S(j, K) of W[j, i] * r_ui, with the
    overlap weight W[j, i] = |N(j) & N(i)| / |N(j)| (Sarwar et al. 2001),
    0 for j = i and for an item nobody rated. S(j, K) holds the K items
    most similar to j by metrics.neighbours: descending weight, ties by
    ascending index, and j itself never takes a slot. An empty
    intersection scores 0. The sum runs over the user's ratings in their
    stored (item) order, one term per item.

    No n x n array is built: W[j, i] is C[j, i] / max(|N(j)|, 1) for the
    cooccurrence counts C, which are symmetric, and the counts come a
    block of rows at a time, so a call holds O(SORT_ROWS * n + nnz) and
    never d_u x n.
    The candidates' rows of C rank j's neighbours as W's row j does:
    dividing integers below 2^53 by one positive integer keeps their
    order and their ties. Each candidate then sums its hit terms, a miss
    adding 0. With K >= n - 1, S(j, K) is every item but j, so when the
    user rated no more items than there are candidates the sum reads the
    rows of C for the user's items instead, as columns of W: the zero
    count at j = i adds 0 to the sum, as skipping j does. Both divide
    the same two integers, so both give the same W[j, i].
    """
    items = in_range(u, items, model.n_users, model.n_items)
    row = slice(*model.ratings.offsets[u:u + 2])
    rated, ratings = model.ratings.items[row], model.ratings.values[row]
    offsets = model.raters.offsets
    # W[j, i] = C[j, i] / |N(j)|; an item nobody rated has counts of 0,
    # and 0 / 1 is the 0 of its row in W
    divisor = np.maximum(offsets[1:] - offsets[:-1], 1)
    value = np.zeros(items.size)
    # the running sum below needs a term; a user with no items walks none
    if rated.size == 0 or (model.K >= model.n_items - 1 and rated.size <= items.size):
        for at, counts in cooccurrence(model.ratings, model.raters, rated):
            for terms in counts[:, items] / divisor[items] * ratings[at, None]:
                value += terms
        return value, rated.size - np.bincount(rated, minlength=model.n_items)[items]
    used = np.zeros(items.size, dtype=np.int64)
    for at, counts in cooccurrence(model.ratings, model.raters, items):
        hit = neighbours(counts, items[at], model.K)[:, rated]
        terms = np.where(hit, counts[:, rated] / divisor[items[at], None] * ratings, 0.0)
        # a running sum adds each row's terms in the stored order; it
        # starts at the first term, not at 0.0 as the loop above does,
        # which can change only the sign of a zero sum, and adding it to
        # 0.0 makes that 0.0 as the loop's is
        value[at] += np.add.accumulate(terms, axis=1)[:, -1]
        used[at] = hit.sum(axis=1)
    return value, used


def itemcf_predict_with_info(model, u, j):
    """Neighborhood score for (u, j) with diagnostics; the one-item case
    of itemcf_predictions."""
    values, used = itemcf_predictions(model, u, [j])
    return ItemCfPrediction(float(values[0]), int(used[0]), bool(used[0] == 0))


# the neighborhood score for (u, j): the one-item case of scores
itemcf_predict = Scorer.predict


class SvdppPrediction(NamedTuple):
    """Biased-model prediction with cold-start flags."""

    value: float
    cold_user: bool
    cold_item: bool


def _implicit_sum(model, u):
    nu = model.N[u] if model.N is not None else np.empty(0, dtype=np.int64)
    if nu.size == 0:
        return np.zeros(model.f)
    return model.Y[:, nu].sum(axis=1) / math.sqrt(nu.size)


def svdpp_implicit_predict(model, u, i):
    """The implicit term |N(u)|^(-1/2) * q_i . sum of y_j over N(u).

    The item-side vector is the model's q_i (the x = q tying). An empty
    N(u) makes the whole term 0 by convention, the limit of no implicit
    evidence.
    """
    in_range(u, [i], model.n_users, model.n_items)
    return float(np.dot(model.Q[:, i], _implicit_sum(model, u)))


def svdpp_predictions(model, u, items):
    """Predictions of each (u, i), i in items, and their cold-start flags,
    as three arrays (value, cold_user, cold_item).

    The prediction is mu + b_u + b_i + q_i.(p_u + implicit sum), with
    z = p_u + implicit sum formed once per call and one np.dot per item.
    Out-of-range indices take the cold-start path: the prediction keeps
    mu plus whichever bias is still known and the matching flag is set.
    """
    items = np.asarray(items, dtype=np.int64)
    cold_user = not 0 <= u < model.n_users
    cold_item = (items < 0) | (items >= model.n_items)
    warm = ~cold_item
    base = model.mu if cold_user else model.mu + float(model.b_u[u])
    value = np.full(items.size, base, dtype=float)
    value[warm] += model.b_i[items[warm]]
    if not cold_user:
        z = model.P[:, u] + _implicit_sum(model, u)
        value[warm] += [np.dot(model.Q[:, i], z) for i in items[warm].tolist()]
    return value, np.full(items.size, cold_user), cold_item


def svdpp_predict_with_info(model, u, i):
    """Biased prediction with cold-start flags; the one-item case of
    svdpp_predictions."""
    value, cold_user, cold_item = svdpp_predictions(model, u, [i])
    return SvdppPrediction(float(value[0]), bool(cold_user[0]), bool(cold_item[0]))


def svdpp_predict(model, u, i):
    """Biased prediction value; see svdpp_predict_with_info."""
    return svdpp_predict_with_info(model, u, i).value


def svdpp_loss(model, triples, lam):
    """Squared error plus per-pair L2 on every learned tensor.

    Each (u, i, r) contributes the squared residual of the biased
    prediction plus lam times (b_u^2 + b_i^2 + |p_u|^2 + |q_i|^2 +
    sum over j in N(u) of |y_j|^2).
    """
    total = 0.0
    for u, i, r in triples:
        err = r - svdpp_predict(model, u, i)
        nu = model.N[u]
        reg = (
            float(model.b_u[u]) ** 2
            + float(model.b_i[i]) ** 2
            + float(np.dot(model.P[:, u], model.P[:, u]))
            + float(np.dot(model.Q[:, i], model.Q[:, i]))
            + float((model.Y[:, nu] ** 2).sum())
        )
        total += err * err + lam * reg
    return total


def svdpp_loss_gradient(model, triples, lam):
    """Full analytic gradient of svdpp_loss.

    Returns a dict with keys "b_u", "b_i", "P", "Q", "Y", each shaped like
    the corresponding model field, carrying the factor-2 gradients.
    """
    d_bu = np.zeros_like(model.b_u)
    d_bi = np.zeros_like(model.b_i)
    d_p = np.zeros_like(model.P)
    d_q = np.zeros_like(model.Q)
    d_y = np.zeros_like(model.Y)
    for u, i, r in triples:
        nu = model.N[u]
        s = 1.0 / math.sqrt(nu.size) if nu.size else 0.0
        z = model.P[:, u] + _implicit_sum(model, u)
        q = model.Q[:, i]
        err = r - (model.mu + model.b_u[u] + model.b_i[i] + float(np.dot(q, z)))
        d_bu[u] += -2.0 * err + 2.0 * lam * model.b_u[u]
        d_bi[i] += -2.0 * err + 2.0 * lam * model.b_i[i]
        d_p[:, u] += -2.0 * err * q + 2.0 * lam * model.P[:, u]
        d_q[:, i] += -2.0 * err * z + 2.0 * lam * q
        if nu.size:
            d_y[:, nu] += (-2.0 * err * s) * q[:, None] + 2.0 * lam * model.Y[:, nu]
    return {"b_u": d_bu, "b_i": d_bi, "P": d_p, "Q": d_q, "Y": d_y}


def svdpp_train(ds, config, freeze_y=False):
    """Train the biased implicit-factor model by per-triple SGD.

    mu is fixed to the training mean. P, Q and Y start entrywise
    uniform(0, 1)/sqrt(f) from the seed (drawn in that order); biases
    start at zero. Every tensor touched by a triple moves simultaneously,
    all gradients read the pre-update values. With freeze_y the Y draw is
    skipped and Y stays zero, which reduces the model to its biased
    two-factor core; useful for equivalence checks.

    Raises:
        CapacityError: max(users, items) x f exceeds DENSE_CELL_CAP.
        DivergenceError: when training turns non-finite, naming the epoch.
    """
    if ds.kind != "explicit":
        raise ValidationError("gradient factorization needs an explicit dataset")
    users, items, ratings = ds.indexed()
    m, n, f = ds.n_users, ds.n_items, config.f
    check_cells("svdpp factor table", (max(m, n), f), "use fewer factors")
    lam = config.lam
    mu = float(ratings.mean())
    rng = np.random.default_rng(config.seed)
    root = math.sqrt(f)
    pt = rng.random((m, f)) / root
    qt = rng.random((n, f)) / root
    yt = np.zeros((n, f)) if freeze_y else rng.random((n, f)) / root
    b_u = np.zeros(m)
    b_i = np.zeros(n)
    sets = ds.items_by_user()
    rated = list(sets)  # a list of views: the cheapest N(u) per sample
    ninv = np.array([1.0 / math.sqrt(s.size) if s.size else 0.0 for s in rated])
    step_bu, step_bi, step_p, step_q, step_y = _make_updaters(
        config,
        [(b_u, "b_u"), (b_i, "b_i"), (pt, "P"), (qt, "Q"), (yt, "Y")],
    )
    count = len(users)

    def visit():
        for t in range(count):
            u = users[t]
            i = items[t]
            nu = rated[u]
            s = ninv[u]
            p = pt[u]
            q = qt[i]
            z = p + s * yt[nu].sum(axis=0) if nu.size else p.copy()
            err = ratings[t] - (mu + b_u[u] + b_i[i] + float(np.dot(q, z)))
            if not math.isfinite(err):
                raise GradientError("non-finite prediction error")
            g_bu = lam * b_u[u] - err
            g_bi = lam * b_i[i] - err
            g_p = lam * p - err * q
            g_q = lam * q - err * z
            if not freeze_y and nu.size:
                g_y = lam * yt[nu] - (err * s) * q
            else:
                g_y = None
            step_bu(u, g_bu)
            step_bi(i, g_bi)
            step_p(u, g_p)
            step_q(i, g_q)
            if g_y is not None:
                step_y(nu, g_y)

    def loss():
        impl = np.zeros((m, f))
        np.add.at(impl, sets.rows(), yt[sets.items])
        impl *= ninv[:, None]
        preds = (
            mu
            + b_u[users]
            + b_i[items]
            + np.einsum("tf,tf->t", pt[users] + impl[users], qt[items])
        )
        return _rmse(ratings, preds)

    trace = run_epochs(config, visit, loss)
    return FactorModel(
        kind="svdpp",
        P=pt.T.copy(),
        Q=qt.T.copy(),
        f=f,
        mu=mu,
        b_u=b_u,
        b_i=b_i,
        Y=yt.T.copy(),
        N=sets,
        trace=trace,
    )
