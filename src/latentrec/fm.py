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
nonzero entries, and dense inputs are converted up front. Training runs
per-sample gradient descent through the optim module, epoch by epoch in
factor.run_epochs; the squared loss uses the same halved-gradient
convention as the factor trainers, the logistic loss uses the exact
log-loss slope sigma(y) - target.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import optim
from .errors import (
    EncodingError,
    GradientError,
    ShapeError,
    ValidationError,
)
from .factor import TrainConfig, _make_factor_states, run_epochs

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
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ShapeError("indices and values must be equal-length 1-d arrays")
        if self.indices.size:
            if self.indices[0] < 0 or self.indices[-1] >= self.n:
                raise ValidationError(
                    f"feature ids must lie in [0, {self.n}), got "
                    f"[{self.indices.min()}, {self.indices.max()}]"
                )
            if np.any(np.diff(self.indices) <= 0):
                raise ValidationError("feature ids must be strictly increasing")
        if not np.isfinite(self.values).all():
            raise ValidationError("feature values must be finite")
        if self.fields is not None:
            self.fields = np.asarray(self.fields, dtype=np.int64)
            if self.fields.shape != self.indices.shape:
                raise ShapeError("fields must align with indices")

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
        self.w = np.asarray(self.w, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.k < 1:
            raise ValueError(f"latent dimension must be >= 1, got {self.k}")
        if self.V.shape != (self.w.size, self.k):
            raise ShapeError(
                f"V must be shaped ({self.w.size}, {self.k}), got {self.V.shape}"
            )
        if not (
            math.isfinite(self.w0)
            and np.isfinite(self.w).all()
            and np.isfinite(self.V).all()
        ):
            raise ValueError("model parameters must all be finite")

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
        self.w = np.asarray(self.w, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.k < 1:
            raise ValueError(f"latent dimension must be >= 1, got {self.k}")
        if self.n_fields < 1:
            raise ValueError(f"field count must be >= 1, got {self.n_fields}")
        if self.V.shape != (self.w.size, self.n_fields, self.k):
            raise ShapeError(
                f"V must be shaped ({self.w.size}, {self.n_fields}, {self.k}), "
                f"got {self.V.shape}"
            )
        if not (
            math.isfinite(self.w0)
            and np.isfinite(self.w).all()
            and np.isfinite(self.V).all()
        ):
            raise ValueError("model parameters must all be finite")

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
    if x.nnz == 0:
        return float(model.w0)
    rows = model.V[x.indices]
    vx = x.values[:, None] * rows
    s = vx.sum(axis=0)
    s2 = (vx * vx).sum(axis=0)
    pair = 0.5 * float((s * s - s2).sum())
    return float(model.w0 + np.dot(model.w[x.indices], x.values) + pair)


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
    if x.nnz == 0:
        return FmGradient(1.0, np.zeros(0), np.zeros((0, model.k)), x.indices)
    rows = model.V[x.indices]
    s = (x.values[:, None] * rows).sum(axis=0)
    gv = x.values[:, None] * s[None, :] - rows * (x.values ** 2)[:, None]
    return FmGradient(1.0, x.values.copy(), gv, x.indices)


def ffm_predict(model, x):
    """Field-aware score: pair (a, b) uses <v_{ja, f_b}, v_{jb, f_a}>."""
    x = _as_features(x, model.n)
    fields = _checked_fields(model, x)
    total = model.w0
    for a in range(x.nnz):
        total += model.w[x.indices[a]] * x.values[a]
    for a in range(x.nnz):
        for b in range(a + 1, x.nnz):
            left = model.V[x.indices[a], fields[b]]
            right = model.V[x.indices[b], fields[a]]
            total += float(np.dot(left, right)) * x.values[a] * x.values[b]
    return float(total)


def _checked_fields(model, x):
    if x.fields is None:
        raise EncodingError("field-aware prediction needs field ids on the input")
    if x.nnz and (x.fields.min() < 0 or x.fields.max() >= model.n_fields):
        raise EncodingError(
            f"field ids must lie in [0, {model.n_fields}), got "
            f"[{x.fields.min()}, {x.fields.max()}]"
        )
    return x.fields


def ffm_gradient(model, x):
    """Analytic field-aware score gradient over the nonzeros of x.

    Returns an FmGradient whose v has shape (nnz, n_fields, k): v[a, f]
    is d(y)/d(V[indices[a], f]). The plain machine's v is (nnz, k).
    """
    x = _as_features(x, model.n)
    fields = _checked_fields(model, x)
    gv = np.zeros((x.nnz, model.n_fields, model.k))
    for a in range(x.nnz):
        for b in range(a + 1, x.nnz):
            coeff = x.values[a] * x.values[b]
            gv[a, fields[b]] += coeff * model.V[x.indices[b], fields[a]]
            gv[b, fields[a]] += coeff * model.V[x.indices[a], fields[b]]
    return FmGradient(1.0, x.values.copy(), gv, x.indices)


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-min(z, 500.0)))
    e = math.exp(max(z, -500.0))
    return e / (1.0 + e)


def _sample_loss(pred, y, loss):
    if loss == "squared":
        return (y - pred) ** 2
    p = min(max(_sigmoid(pred), 1e-12), 1.0 - 1e-12)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def _loss_slope(pred, y, loss):
    # squared uses the halved-gradient convention shared by the factor
    # trainers; logistic is the exact log-loss derivative through sigmoid
    if loss == "squared":
        return pred - y
    return _sigmoid(pred) - y


def _check_samples(samples, loss):
    if not samples:
        raise ValidationError("training needs at least one sample")
    n = samples[0][0].n if isinstance(samples[0][0], FeatureVector) else len(samples[0][0])
    out = []
    for x, y in samples:
        fx = _as_features(x, n)
        y = float(y)
        if loss == "logistic" and y not in (0.0, 1.0):
            raise ValidationError(f"logistic targets must be 0 or 1, got {y}")
        out.append((fx, y))
    return out, n


def _train_machine(samples, loss, config, optimizer, gradient_fn, make_model):
    """Shared per-sample descent loop for both machine variants."""
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; pick from {LOSSES}")
    samples, n = _check_samples(samples, loss)
    model = make_model(n)
    w0 = np.array([model.w0])
    st_w0, st_w, st_v = _make_factor_states(
        config, [(w0.shape, "w0"), (model.w.shape, "w"), (model.V.shape, "V")],
        kind=optimizer,
    )
    lam = config.lam

    def visit():
        for x, y in samples:
            pred = model.predict(x)
            if not math.isfinite(pred):
                raise GradientError("non-finite prediction")
            slope = _loss_slope(pred, y, loss)
            grad = gradient_fn(model, x)
            optim.step(st_w0, w0, np.array([slope * grad.w0]))
            if grad.indices.size:
                g_w = slope * grad.w + lam * model.w[grad.indices]
                g_v = slope * grad.v + lam * model.V[grad.indices]
                optim.step(st_w, model.w, g_w, rows=grad.indices)
                optim.step(st_v, model.V, g_v, rows=grad.indices)
            model.w0 = float(w0[0])

    def mean_loss():
        total = sum(_sample_loss(model.predict(x), y, loss) for x, y in samples)
        return total / len(samples)

    model.trace = run_epochs(config, visit, mean_loss)
    return model


def fm_train(samples, loss="squared", config=None, optimizer=None):
    """Train a 2-way machine by per-sample descent in sample order.

    samples is a sequence of (feature vector, target) pairs; targets must
    be 0/1 for the logistic loss. config is a factor.TrainConfig whose f
    field is the latent dimension k; optimizer overrides config.optimizer
    when given. Latents start uniform(0, 1/sqrt(k)) from the seed, w and
    w0 at zero; w0 is left unregularized. The per-epoch trace records the
    mean data loss. Zero epochs return the untouched init.

    Raises:
        DivergenceError: when predictions or updates turn non-finite.
    """
    config = config if config is not None else TrainConfig()

    def make_model(n):
        rng = np.random.default_rng(config.seed)
        v = rng.random((n, config.f)) / math.sqrt(config.f)
        return FmModel(w0=0.0, w=np.zeros(n), V=v, k=config.f)

    return _train_machine(samples, loss, config, optimizer, fm_gradient, make_model)


def ffm_train(samples, loss="squared", config=None, optimizer=None, n_fields=None):
    """Train the field-aware variant; see fm_train for the shared contract.

    Every sample must carry field ids. n_fields defaults to one past the
    largest field id seen in the samples.
    """
    config = config if config is not None else TrainConfig()
    probe = [x for x, _ in samples if isinstance(x, FeatureVector)]
    if n_fields is None:
        seen = [int(x.fields.max()) for x in probe if x.fields is not None and x.nnz]
        if not seen:
            raise EncodingError("field-aware training needs field ids on the inputs")
        n_fields = max(seen) + 1

    def make_model(n):
        rng = np.random.default_rng(config.seed)
        v = rng.random((n, n_fields, config.f)) / math.sqrt(config.f)
        return FfmModel(w0=0.0, w=np.zeros(n), V=v, k=config.f, n_fields=n_fields)

    return _train_machine(samples, loss, config, optimizer, ffm_gradient, make_model)


@dataclass
class ColumnSpec:
    """One raw input column: a categorical one-hot block or a numeric."""

    name: str
    kind: str
    categories: tuple = None

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.categories:
                raise ValueError(f"column {self.name!r} needs categories")
            self.categories = tuple(str(c) for c in self.categories)
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"column {self.name!r} has duplicate categories")
        elif self.categories is not None:
            raise ValueError(f"numeric column {self.name!r} cannot take categories")

    @property
    def width(self):
        # one reserved slot per block for unseen categories
        return len(self.categories) + 1 if self.kind == "categorical" else 1


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
            token = str(raw)
            if token in col.categories:
                indices.append(offsets[pos] + col.categories.index(token))
            else:
                indices.append(offsets[pos] + col.width - 1)
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
