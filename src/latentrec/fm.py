"""Factorization machines, the field-aware variant, and a feature encoder.

The 2-way machine scores a sparse feature vector x as

    y(x) = w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j

fm_predict_naive evaluates that double sum literally and serves as the
oracle; fm_predict_fast uses the algebraic identity

    sum_{i<j} <v_i, v_j> x_i x_j
        = 1/2 sum_f ((sum_i v_if x_i)^2 - sum_i v_if^2 x_i^2)

which touches each nonzero once per factor. The field-aware variant keeps
one latent vector per (feature, opposing field) pair and has no such
identity, so its pair loop is quadratic in the nonzero count.

Everything is sparse-first: predictors and gradients only ever walk the
nonzero entries, and dense inputs are converted up front.

Training reads one SampleBatch: the samples' indices, values and field
ids in flat arrays with row offsets (the CSR layout of the design
matrix) plus a targets array, checked once, in whole-array operations,
when the batch is built. A list of (feature vector, target) pairs is
packed into one first, so there is a single training path. Each epoch
(factor.run_epochs) walks the rows in order; per row, one unchecked
kernel call gives the score and its latent gradient together (the plain
machine computes V[indices] and s = sum_j v_j x_j once for both, the
field-aware one walks the nonzero pairs once), and optim.updater
closures move w0, w and V. The epoch loss scores with the same kernel.
The public predictors and gradients wrap the same kernels with their
input checks, so training from a batch, from a list, or by hand through
them and optim.step gives bit-identical models. The squared loss uses
the same halved-gradient convention as the factor trainers, the
logistic loss uses the exact log-loss slope sigma(y) - target.

Records of categorical columns given as token codes, the CLI's
user/item layout, become a OneHotBatch (SampleBatch.from_codes): the
code columns and targets as given, with no copy, and one feature index
per token, with no CSR array and no per-record vector. Its CSR arrays
are derived only when read. A two-column one is trained from the codes:
each row is the feature pair (a, b), both values 1.0, so the plain
machine's score is w0 + (w_a + w_b) + v_a.v_b, taken as
0.5 * sum_f((v_a + v_b)^2 - (v_a^2 + v_b^2)), and the field-aware one's
is w0 + w_a + w_b + V[a, 1].V[b, 0] (Rendle 2010; Juan et al. 2016).
Each row forms both latent gradient rows before either moves, through
the same updater closures, and the epoch loss scores a block of rows at
a time, so the models and traces equal those of the CSR rows bit for
bit.

Scoring a trained machine on (user, item) pairs, as the CLI does, needs
no batch. Each pair's row holds two nonzeros, both 1.0: the user's
feature a and the item's feature b. one_hot_features checks the machine
against its encoder, one_hot_layout of the tokens, and maps every user
and item token to its feature index, once per model, from the token's
rank in its role's sorted tokens, which is the ColumnSpec.slot encode
and SampleBatch.from_codes look up. one_hot_scores then scores every
candidate of a user at once. For the plain machine on two one-hot
fields the pair term is the inner product v_a.v_b, as in biased matrix
factorization; for the field-aware one it is V[a, item field].V[b, user
field]. Both keep the floating-point order of the per-row kernels, so
the scores equal predict of the encoded records bit for bit.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import check_cells
from .errors import (
    EncodingError,
    GradientError,
    ShapeError,
    ValidationError,
)
from .factor import TrainConfig, _make_updaters, _uniform_tables, run_epochs
from .metrics import check_choice

LOSSES = ("squared", "logistic")


@dataclass
class FeatureVector:
    """Sparse feature vector: parallel (index, value) arrays of length nnz.

    Args:
        indices: strictly increasing feature ids, all < n.
        values: finite reals aligned with indices.
        n: the full dimension.
        fields: optional field id per nonzero, aligned with indices;
            required by the field-aware model.
    """

    indices: np.ndarray
    values: np.ndarray
    n: int
    fields: np.ndarray = None

    def __post_init__(self):
        # one row of a SampleBatch, so one validator checks both
        row = SampleBatch(self.indices, self.values, [0, np.size(self.indices)],
                          [0.0], self.n, self.fields)
        self.indices, self.values, self.fields = row.indices, row.values, row.fields

    @classmethod
    def from_dense(cls, x, field_map=None):
        """Sparse view of a dense vector; zeros are dropped.

        field_map, when given, is a length-n array of field ids sampled at
        the nonzero positions.
        """
        x = np.asarray(x, dtype=float)
        idx = np.flatnonzero(x)
        fields = None if field_map is None else np.asarray(field_map)[idx]
        return cls(indices=idx, values=x[idx], n=x.size, fields=fields)

    @property
    def nnz(self):
        return self.indices.size


def _as_features(x, n):
    if isinstance(x, FeatureVector):
        if x.n != n:
            raise ShapeError(f"feature vector has dimension {x.n}, model has {n}")
        return x
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ShapeError(f"input has shape {x.shape}, model expects ({n},)")
    return FeatureVector.from_dense(x)


def _check_machine(model, middle):
    """Convert w and V to float arrays and check a machine's parameters:
    k >= 1, V shaped (w.size, *middle, k), every value finite."""
    model.w = np.asarray(model.w, dtype=float)
    model.V = np.asarray(model.V, dtype=float)
    if model.k < 1:
        raise ValueError(f"latent dimension must be >= 1, got {model.k}")
    shape = (model.w.size, *middle, model.k)
    if model.V.shape != shape:
        raise ShapeError(f"V must be shaped {shape}, got {model.V.shape}")
    if not (math.isfinite(model.w0) and np.isfinite(model.w).all()
            and np.isfinite(model.V).all()):
        raise ValueError("model parameters must all be finite")


@dataclass
class FmModel:
    """2-way factorization machine parameters.

    Fields: w0 global bias, w linear weights (n,), V latent rows (n, k).
    """

    w0: float
    w: np.ndarray
    V: np.ndarray
    k: int
    trace: list = field(default_factory=list)

    def __post_init__(self):
        _check_machine(self, ())

    @property
    def n(self):
        return self.w.size

    def predict(self, x):
        return fm_predict_fast(self, x)


@dataclass
class FfmModel:
    """Field-aware machine: one latent vector per (feature, field) pair.

    V is indexed [feature j, field f] -> k reals; n_fields counts fields.
    """

    w0: float
    w: np.ndarray
    V: np.ndarray
    k: int
    n_fields: int
    trace: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_fields < 1:
            raise ValueError(f"field count must be >= 1, got {self.n_fields}")
        _check_machine(self, (self.n_fields,))

    @property
    def n(self):
        return self.w.size

    def predict(self, x):
        return ffm_predict(self, x)


def fm_predict_naive(model, x):
    """Score by the literal double loop over nonzero pairs; the oracle."""
    x = _as_features(x, model.n)
    total = model.w0
    for a in range(x.nnz):
        total += model.w[x.indices[a]] * x.values[a]
    for a in range(x.nnz):
        for b in range(a + 1, x.nnz):
            inner = float(np.dot(model.V[x.indices[a]], model.V[x.indices[b]]))
            total += inner * x.values[a] * x.values[b]
    return float(total)


def fm_predict_fast(model, x):
    """Score via the squared-sum identity; touches nonzeros only."""
    x = _as_features(x, model.n)
    return _fm_terms(model, x.indices, x.values)[0]


def _fm_terms(model, indices, values, fields=None, grad=False):
    """Score of one sparse sample and, with grad, d(y)/d(V[indices]).

    The unchecked kernel behind fm_predict_fast, fm_gradient and training:
    rows = V[indices], vx = x * rows and s = sum_a vx[a] feed both the
    squared-sum identity and the latent gradient x_a * s - v_a * x_a^2.
    fields is ignored; it is there so that both machines' kernels take
    the same arguments.
    """
    if indices.size == 0:
        return float(model.w0), (np.zeros((0, model.k)) if grad else None)
    rows = model.V[indices]
    vx = values[:, None] * rows
    s = vx.sum(axis=0)
    s2 = (vx * vx).sum(axis=0)
    pair = 0.5 * float((s * s - s2).sum())
    score = float(model.w0 + np.dot(model.w[indices], values) + pair)
    if not grad:
        return score, None
    return score, values[:, None] * s[None, :] - rows * (values ** 2)[:, None]


class FmGradient(NamedTuple):
    """Gradient of the score, sparse over the nonzero features.

    w0 is the scalar bias derivative (always 1); w and v align with
    indices: w[a] = d(y)/d(w_{indices[a]}), v[a] = d(y)/d(V[indices[a]]).
    Both machine variants return it; v[a] is shaped like V[indices[a]].
    """

    w0: float
    w: np.ndarray
    v: np.ndarray
    indices: np.ndarray


def fm_gradient(model, x):
    """Analytic score gradient w.r.t. (w0, w, V) at the nonzeros of x.

    d(y)/d(w0) = 1, d(y)/d(w_i) = x_i, and
    d(y)/d(v_if) = x_i * sum_j v_jf x_j - v_if x_i^2.
    """
    x = _as_features(x, model.n)
    gv = _fm_terms(model, x.indices, x.values, grad=True)[1]
    return FmGradient(1.0, x.values.copy(), gv, x.indices)


def ffm_predict(model, x):
    """Field-aware score: pair (a, b) uses <v_{ja, f_b}, v_{jb, f_a}>."""
    x = _as_features(x, model.n)
    return _ffm_terms(model, x.indices, x.values, _checked_fields(model, x))[0]


def _ffm_terms(model, indices, values, fields, grad=False):
    """Field-aware score of one sample and, with grad, d(y)/d(V[indices]).

    The unchecked kernel behind ffm_predict, ffm_gradient and training.
    One walk over the nonzero pairs adds each pair's term to the score
    and, with grad, to the (nnz, n_fields, k) latent gradient.
    """
    nnz = indices.size
    total = model.w0
    for a in range(nnz):
        total += model.w[indices[a]] * values[a]
    gv = np.zeros((nnz, model.n_fields, model.k)) if grad else None
    for a in range(nnz):
        for b in range(a + 1, nnz):
            left = model.V[indices[a], fields[b]]
            right = model.V[indices[b], fields[a]]
            total += float(np.dot(left, right)) * values[a] * values[b]
            if grad:
                coeff = values[a] * values[b]
                gv[a, fields[b]] += coeff * right
                gv[b, fields[a]] += coeff * left
    return float(total), gv


def _checked_fields(model, x):
    if x.fields is None:
        raise EncodingError("field-aware prediction needs field ids on the input")
    _check_field_range(x.fields, model.n_fields)
    return x.fields


def _check_field_range(fields, n_fields):
    if fields.size and (fields.min() < 0 or fields.max() >= n_fields):
        raise EncodingError(
            f"field ids must lie in [0, {n_fields}), got "
            f"[{fields.min()}, {fields.max()}]"
        )


def ffm_gradient(model, x):
    """Analytic field-aware score gradient over the nonzeros of x.

    Returns an FmGradient whose v has shape (nnz, n_fields, k): v[a, f]
    is d(y)/d(V[indices[a], f]). The plain machine's v is (nnz, k).
    """
    x = _as_features(x, model.n)
    fields = _checked_fields(model, x)
    gv = _ffm_terms(model, x.indices, x.values, fields, grad=True)[1]
    return FmGradient(1.0, x.values.copy(), gv, x.indices)


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-min(z, 500.0)))
    e = math.exp(max(z, -500.0))
    return e / (1.0 + e)


def _sample_loss(pred, y, loss):
    if loss == "squared":
        try:
            return (y - pred) ** 2
        except OverflowError:  # a finite error whose square is not
            return math.inf
    p = min(max(_sigmoid(pred), 1e-12), 1.0 - 1e-12)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def _loss_slope(pred, y, loss):
    # squared uses the halved-gradient convention shared by the factor
    # trainers; logistic is the exact log-loss derivative through sigmoid
    if loss == "squared":
        return pred - y
    return _sigmoid(pred) - y


@dataclass
class SampleBatch:
    """Training samples packed into flat arrays, one row per sample.

    Row r holds the nonzeros indices[offsets[r]:offsets[r + 1]], with
    values (and fields, when given) aligned to them, and the target
    targets[r]: the CSR layout of a sparse design matrix plus its target
    column. Construction checks every row in whole-array operations; a
    FeatureVector is checked as the one row of a batch, by the same code.

    Args:
        indices: int64 (nnz,) feature ids, strictly increasing within a
            row, all in [0, n).
        values: (nnz,) finite reals aligned with indices.
        offsets: int64 (rows + 1,) row starts: 0 first, nnz last, never
            decreasing.
        targets: (rows,) one target per row; at least one row.
        n: the full dimension.
        fields: optional int64 (nnz,) field id per nonzero; the
            field-aware machine needs them.

    Raises:
        ShapeError: misaligned arrays or offsets.
        ValidationError: no rows, a feature id out of range or not
            strictly increasing within its row, or a non-finite value.
    """

    indices: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    n: int
    fields: np.ndarray = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=float)
        nnz = self.indices.size
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ShapeError("indices and values must be equal-length 1-d arrays")
        if self.targets.ndim != 1 or self.offsets.shape != (self.targets.size + 1,):
            raise ShapeError("offsets must hold one entry more than targets")
        if self.targets.size == 0:
            raise ValidationError("training needs at least one sample")
        if (
            self.offsets[0] != 0
            or self.offsets[-1] != nnz
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise ShapeError(f"offsets must rise from 0 to the nonzero count {nnz}")
        if nnz:
            low, high = self.indices.min(), self.indices.max()
            if low < 0 or high >= self.n:
                raise ValidationError(
                    f"feature ids must lie in [0, {self.n}), got [{low}, {high}]"
                )
            # a step from one row's last id to the next row's first may fall
            rising = np.diff(self.indices) > 0
            starts = self.offsets[1:-1]
            rising[starts[(starts > 0) & (starts < nnz)] - 1] = True
            if not rising.all():
                raise ValidationError("feature ids must be strictly increasing")
        if not np.isfinite(self.values).all():
            raise ValidationError("feature values must be finite")
        if self.fields is not None:
            self.fields = np.asarray(self.fields, dtype=np.int64)
            if self.fields.shape != self.indices.shape:
                raise ShapeError("fields must align with indices")

    def rows(self):
        """(indices, values, fields) of each row in order, as array views;
        fields is None when the batch has no field ids."""
        indices, values, offsets, fields = self.indices, self.values, self.offsets, self.fields
        for r in range(self.targets.size):
            a, b = offsets[r], offsets[r + 1]
            yield indices[a:b], values[a:b], None if fields is None else fields[a:b]

    @classmethod
    def pack(cls, samples):
        """Pack (feature vector, target) pairs into one batch.

        samples may be any iterable, a generator included, of pairs whose
        first item is a FeatureVector or a dense array; dense inputs are
        converted as the predictors convert them, and the first sample
        sets the dimension that every other must match. Every pair is held
        until the batch is built; from_codes builds a one-hot batch without
        a vector per record. fields is None unless every sample carries
        field ids.

        Raises:
            ShapeError: a sample's dimension differs from the first's.
            ValidationError: samples is empty.
        """
        pairs = list(samples)
        if not pairs:
            raise ValidationError("training needs at least one sample")
        first = pairs[0][0]
        n = first.n if isinstance(first, FeatureVector) else len(first)
        xs = [_as_features(x, n) for x, _ in pairs]
        fields = [x.fields for x in xs]
        return cls(indices=np.concatenate([x.indices for x in xs]),
                   values=np.concatenate([x.values for x in xs]),
                   offsets=np.cumsum([0] + [x.nnz for x in xs]),
                   targets=[float(y) for _, y in pairs], n=n,
                   fields=None if any(f is None for f in fields) else np.concatenate(fields))

    @classmethod
    def from_codes(cls, spec, columns, targets):
        """One-hot rows for records of categorical columns, given as codes.

        columns holds one (tokens, codes) pair per spec column: record r's
        raw value in column c is tokens[codes[r]]. Each row gets one
        nonzero per column, value 1.0 and field c, at the index encode
        gives that value (the block's reserved last index for an unseen
        one). The result is a OneHotBatch, which keeps the code columns
        and targets as given, with no copy, and one feature index per
        token: one category lookup per token and no per-record vector.
        Its CSR arrays equal those of SampleBatch.pack over encode of the
        same records, array for array, but are built only when read.

        Raises:
            EncodingError: the column count differs from the spec's, or a
                spec column is not categorical.
            ShapeError: a code column or targets is not 1-d, or their
                lengths differ.
            ValidationError: there are no records, or a code is not an
                integer index into its column's tokens.
        """
        features = _one_hot(spec, [tokens for tokens, _ in columns])
        codes = [np.asarray(c) for _, c in columns]
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 1 or any(c.shape != targets.shape for c in codes):
            raise ShapeError("code columns and targets must be equal-length 1-d arrays")
        if targets.size == 0:
            raise ValidationError("training needs at least one sample")
        for c, feature in zip(codes, features):
            if c.dtype.kind not in "iu" or c.min() < 0 or c.max() >= feature.size:
                raise ValidationError(f"codes must index a column's {feature.size} tokens")
        return OneHotBatch(features, codes, targets, spec.dimension)


# rows per block of the two-column training path: a block's feature lists
# and score temporaries take some tens of KB, where all rows at once would
# take (rows x k) floats per temporary
_BLOCK = 256


class OneHotBatch(SampleBatch):
    """The rows of SampleBatch.from_codes, kept as code columns.

    Row r has one nonzero per column c, value 1.0 and field c, at the
    feature features[c][codes[c][r]]: features holds one int64 array per
    column that maps each token to its feature index, and codes and
    targets are the caller's arrays. indices, values, offsets and fields
    are the CSR arrays of the same rows, built on each read and never
    kept; fm_train and ffm_train train a two-column batch from the codes.
    """

    def __init__(self, features, codes, targets, n):
        self.features, self.codes, self.targets, self.n = features, codes, targets, n

    @property
    def width(self):
        return len(self.codes)

    @property
    def indices(self):
        return np.stack([f[c] for f, c in zip(self.features, self.codes)], axis=1).ravel()

    @property
    def values(self):
        return np.ones(self.targets.size * self.width)

    @property
    def offsets(self):
        return np.arange(0, self.targets.size * self.width + 1, self.width)

    @property
    def fields(self):
        return np.tile(np.arange(self.width), self.targets.size)

    def pair_blocks(self):
        """(a, b, targets) arrays of each block of _BLOCK rows of a
        two-column batch, in row order: the field-0 and the field-1
        feature of every row, and its target."""
        (fa, fb), (ca, cb) = self.features, self.codes
        for lo in range(0, self.targets.size, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            yield fa[ca[rows]], fb[cb[rows]], self.targets[rows]


def _one_hot(spec, columns):
    """The feature index of every token of each column, one int64 array
    per spec column: a token's category index in its column's block, or
    the block's reserved last index for an unseen one, as encode gives.

    Raises:
        EncodingError: the column count differs from the spec's, or a
            spec column is not categorical.
    """
    if len(columns) != len(spec.columns):
        raise EncodingError(
            f"records have {len(columns)} columns, encoder expects "
            f"{len(spec.columns)}"
        )
    for col in spec.columns:
        if col.kind != "categorical":
            raise EncodingError(f"column {col.name!r} is not categorical")
    return [start + np.array([col.slot(t) for t in tokens], dtype=np.int64)
            for col, start, tokens in zip(spec.columns, spec.offsets(), columns)]


def _ranks(tokens):
    """The position of each of the distinct tokens, as strings, in their
    sorted order: its category index in its one_hot_layout column. The
    sort is Python's, as one_hot_layout's is: numpy's string arrays drop
    trailing "\x00", so "a" and "a\x00" would tie there."""
    keys = [str(t) for t in tokens]
    ranks = np.empty(len(keys), np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def one_hot_features(model, spec, user_tokens, item_tokens):
    """The feature index of each user token and of each item token, as two
    int64 arrays, for one_hot_scores.

    spec must be the machine's encoder, one_hot_layout(user_tokens,
    item_tokens), of the machine's dimension, and a field-aware machine
    must have one field per column; these two are checked first. A
    token's feature is its block's start plus its rank among its role's
    tokens, the slot encode looks up, found by one sort per role.

    Raises:
        ShapeError: the spec's dimension differs from the machine's.
        EncodingError: a field-aware machine has another field count.
    """
    if model.n != spec.dimension:
        raise ShapeError(f"encoder has dimension {spec.dimension}, model has {model.n}")
    if isinstance(model, FfmModel) and model.n_fields != spec.n_fields:
        raise EncodingError(f"encoder has {spec.n_fields} fields, model has {model.n_fields}")
    return [start + _ranks(tokens)
            for start, tokens in zip(spec.offsets(), (user_tokens, item_tokens))]


def one_hot_scores(model, a, b):
    """The machine's score of the one-hot rows {a: 1.0, b[t]: 1.0}, for a
    feature a of field 0, or an int array of them aligned with b, and an
    int array b of features of field 1 (from one_hot_features): predict
    of each row's vector, bit for bit.

    With every value 1.0 the plain machine's pair term is the inner
    product v_a.v_b, taken in _fm_terms' order as
    0.5 * sum_f((v_a + v_b)^2 - (v_a^2 + v_b^2)), in whole-array
    operations. The field-aware one is V[a, 1].V[b, 0], one np.dot per
    row, because a batched product rounds differently.
    """
    w, V = model.w, model.V
    if isinstance(model, FfmModel):
        rows = zip(np.broadcast_to(a, b.shape).tolist(), b.tolist())
        pair = np.array([np.dot(V[i, 1], V[j, 0]) for i, j in rows], dtype=float)
        return (model.w0 + w[a]) + w[b] + pair
    va, vb = V[a], V[b]
    return (model.w0 + (w[a] + w[b])) + 0.5 * ((va + vb) ** 2 - (va ** 2 + vb ** 2)).sum(axis=1)


def _as_batch(samples, loss):
    check_choice(loss, "loss", LOSSES)
    batch = samples if isinstance(samples, SampleBatch) else SampleBatch.pack(samples)
    if loss == "logistic":
        bad = batch.targets[(batch.targets != 0.0) & (batch.targets != 1.0)]
        if bad.size:
            raise ValidationError(f"logistic targets must be 0 or 1, got {bad[0]}")
    return batch


def _fm_pair_terms(model, a, b):
    """_fm_terms with grad of the one-hot row {a: 1.0, b: 1.0}, a != b, in
    the same floating-point order: the score, the latent score gradient
    rows of a and b (s - v_a and s - v_b), and the rows V[a] and V[b]."""
    rows = model.V.take((a, b), axis=0)
    s = rows[0] + rows[1]
    squares = rows * rows
    pair = 0.5 * float((s * s - (squares[0] + squares[1])).sum())
    return float(model.w0 + (model.w[a] + model.w[b]) + pair), s - rows, rows


def _ffm_pair_terms(model, a, b):
    """_ffm_terms with grad of the one-hot row {a: 1.0, b: 1.0}, a of
    field 0 and b of field 1: the score, the latent score gradients of a
    and b, nonzero only at V[a, 1] and V[b, 0], and the rows V[a] and V[b]."""
    rows = model.V.take((a, b), axis=0)
    left, right = rows[0, 1], rows[1, 0]
    gv = np.zeros_like(rows)
    gv[0, 1] += right
    gv[1, 0] += left
    return float(model.w0 + model.w[a] + model.w[b] + float(np.dot(left, right))), gv, rows


def _train_machine(batch, loss, config, model, terms, pair_terms):
    """Per-sample descent over a SampleBatch, shared by both machines.

    terms is the machine's unchecked kernel (_fm_terms or _ffm_terms). One
    call per visited sample gives the score and the latent score gradient
    together; the epoch loss scores with the same kernel. A two-column
    OneHotBatch, the command line's user/item rows, is visited from its
    codes instead: pair_terms (_fm_pair_terms or _ffm_pair_terms) takes
    each row's two features as Python ints, and the epoch loss scores a
    block of rows at a time with one_hot_scores. Both give the general
    path's models and traces bit for bit.
    """
    targets = batch.targets
    count = targets.size
    w0 = np.array([model.w0])
    step_w0, step_w, step_v = _make_updaters(
        config, [(w0, "w0"), (model.w, "w"), (model.V, "V")])
    lam = config.lam

    def visit():
        for (idx, vals, fld), target in zip(batch.rows(), targets):
            pred, g_latent = terms(model, idx, vals, fld, grad=True)
            if not math.isfinite(pred):
                raise GradientError("non-finite prediction")
            slope = _loss_slope(pred, float(target), loss)
            step_w0(0, slope)
            if idx.size:
                step_w(idx, slope * vals + lam * model.w[idx])
                step_v(idx, slope * g_latent + lam * model.V[idx])
            model.w0 = float(w0[0])

    def mean_loss():
        return sum(_sample_loss(terms(model, *row)[0], float(target), loss)
                   for row, target in zip(batch.rows(), targets)) / count

    def visit_pairs():
        w = model.w
        for a_block, b_block, y_block in batch.pair_blocks():
            for a, b, y in zip(a_block.tolist(), b_block.tolist(), y_block.tolist()):
                pred, g_latent, rows = pair_terms(model, a, b)
                if not math.isfinite(pred):
                    raise GradientError("non-finite prediction")
                slope = _loss_slope(pred, y, loss)
                # both rows' steps are formed before either row moves; with
                # x_a = x_b = 1.0 the w steps are slope + lam * w
                g_v = slope * g_latent + lam * rows
                step_w0(0, slope)
                step_w(a, slope + lam * w[a])
                step_w(b, slope + lam * w[b])
                step_v(a, g_v[0])
                step_v(b, g_v[1])
                model.w0 = float(w0[0])

    def mean_pair_loss():
        return sum(_sample_loss(pred, y, loss)
                   for a, b, y_block in batch.pair_blocks()
                   for pred, y in zip(one_hot_scores(model, a, b).tolist(),
                                      y_block.tolist())) / count

    if isinstance(batch, OneHotBatch) and batch.width == 2:
        visit, mean_loss = visit_pairs, mean_pair_loss
    model.trace = run_epochs(config, visit, mean_loss)
    return model


def fm_train(samples, loss="squared", config=None):
    """Train a 2-way machine by per-sample descent in sample order.

    samples is a SampleBatch, or a sequence of (feature vector, target)
    pairs, which is packed into one first (SampleBatch.pack); targets
    must be 0/1 for the logistic loss. config is a factor.TrainConfig
    whose f field is the latent dimension k and whose optimizer picks the
    update rule. Latents start from the seed by factor._uniform_tables,
    w and w0 at zero; w0 is left unregularized. Each visit makes
    one fused predict-and-gradient call that computes V[indices] and
    s = sum_j v_j x_j once for both, then moves w0, w[indices] and
    V[indices] through optim.updater. The per-epoch trace records the mean
    data loss. Zero epochs return the untouched init.

    Raises:
        CapacityError: dimension x k exceeds data.DENSE_CELL_CAP.
        DivergenceError: when predictions or updates turn non-finite.
    """
    config = config if config is not None else TrainConfig()
    batch = _as_batch(samples, loss)
    check_cells("fm latent table", (batch.n, config.f), "use fewer factors")
    (v,) = _uniform_tables(config, (batch.n, config.f))
    model = FmModel(w0=0.0, w=np.zeros(batch.n), V=v, k=config.f)
    return _train_machine(batch, loss, config, model, _fm_terms, _fm_pair_terms)


def ffm_train(samples, loss="squared", config=None, n_fields=None):
    """Train the field-aware variant; see fm_train for the shared contract.

    The batch must carry field ids (every sample of a packed list must).
    n_fields defaults to one past the batch's largest field id. Each
    visit walks the sample's nonzero pairs once for the score and the
    latent gradient together.

    Raises:
        CapacityError: dimension x n_fields x k exceeds data.DENSE_CELL_CAP.
        EncodingError: the batch has no field ids, or one outside
            [0, n_fields).
    """
    config = config if config is not None else TrainConfig()
    batch = _as_batch(samples, loss)
    # a OneHotBatch's field ids are its column numbers, read without
    # building its CSR arrays
    fields = np.arange(batch.width) if isinstance(batch, OneHotBatch) else batch.fields
    if fields is None or (n_fields is None and not fields.size):
        raise EncodingError("field-aware training needs field ids on the inputs")
    if n_fields is None:
        n_fields = int(fields.max()) + 1
    _check_field_range(fields, n_fields)
    check_cells("ffm latent table", (batch.n, n_fields, config.f), "use fewer factors")
    (v,) = _uniform_tables(config, (batch.n, n_fields, config.f))
    model = FfmModel(w0=0.0, w=np.zeros(batch.n), V=v, k=config.f, n_fields=n_fields)
    return _train_machine(batch, loss, config, model, _ffm_terms, _ffm_pair_terms)


@dataclass
class ColumnSpec:
    """One raw input column: a categorical one-hot block or a numeric.

    slots maps each category to its position in the block; it is built
    from categories once and takes no part in equality or repr.
    """

    name: str
    kind: str
    categories: tuple = None
    slots: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_choice(self.kind, "column kind", ("categorical", "numeric"))
        if self.kind == "categorical":
            if not self.categories:
                raise ValueError(f"column {self.name!r} needs categories")
            self.categories = tuple(str(c) for c in self.categories)
            self.slots = {c: pos for pos, c in enumerate(self.categories)}
            if len(self.slots) != len(self.categories):
                raise ValueError(f"column {self.name!r} has duplicate categories")
        elif self.categories is not None:
            raise ValueError(f"numeric column {self.name!r} cannot take categories")

    @property
    def width(self):
        # one reserved slot per block for unseen categories
        return len(self.categories) + 1 if self.kind == "categorical" else 1

    def slot(self, value):
        """The position of a raw value in this categorical block: its
        category's, or the reserved last one for an unseen value."""
        return self.slots.get(str(value), self.width - 1)


@dataclass
class EncoderSpec:
    """Fixed column layout mapping raw records to feature vectors.

    Columns are laid out left to right; each column is its own field.
    Categorical columns own a one-hot block whose last index is reserved
    for unseen categories; numeric columns own a single index carrying the
    raw value.
    """

    columns: list

    def __post_init__(self):
        self.columns = [
            c if isinstance(c, ColumnSpec) else ColumnSpec(*c) for c in self.columns
        ]
        if not self.columns:
            raise ValueError("encoder needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")

    @property
    def dimension(self):
        return sum(c.width for c in self.columns)

    @property
    def n_fields(self):
        return len(self.columns)

    def offsets(self):
        """Starting feature index of each column block."""
        out = []
        at = 0
        for c in self.columns:
            out.append(at)
            at += c.width
        return out


def one_hot_layout(user_tokens, item_tokens):
    """The encoder of a machine over the two one-hot variables user and
    item: a categorical user column, then a categorical item column, each
    holding its role's tokens, as strings, in sorted order.

    Training builds every fm and ffm encoder with it, and a model file
    from format_version 7 stores none: the layout follows from the token
    lists (Rendle 2010: an FM over two one-hot variables is biased matrix
    factorization, so the layout carries nothing beyond the index maps).
    """
    return EncoderSpec([("user", "categorical", sorted(map(str, user_tokens))),
                        ("item", "categorical", sorted(map(str, item_tokens)))])


def encode(record, spec):
    """Encode one raw record against the spec's column layout.

    record is a sequence aligned with spec.columns. Categorical values hit
    their category's index (value 1.0) or the block's reserved unknown
    index; numerics pass through as (index, value). Zero-valued numerics
    drop out of the sparse vector.
    """
    if len(record) != len(spec.columns):
        raise EncodingError(
            f"record has {len(record)} values, encoder expects {len(spec.columns)}"
        )
    indices = []
    values = []
    fields = []
    offsets = spec.offsets()
    for pos, (raw, col) in enumerate(zip(record, spec.columns)):
        if col.kind == "categorical":
            indices.append(offsets[pos] + col.slot(raw))
            values.append(1.0)
            fields.append(pos)
        else:
            value = float(raw)
            if value != 0.0:
                indices.append(offsets[pos])
                values.append(value)
                fields.append(pos)
    return FeatureVector(
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=float),
        n=spec.dimension,
        fields=np.array(fields, dtype=np.int64),
    )
