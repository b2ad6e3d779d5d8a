"""Pluggable gradient-step framework shared by all trainers.

Every update follows the same four-step outline: accumulate a first
momentum m_t and a second momentum V_t from the gradient stream, form the
step eta_t = alpha * m_t / (sqrt(V_t) + eps), and move the parameters by
-eta_t. Three instantiations are provided:

    sgd       m_t = g_t, denominator bypassed: theta -= alpha * g_t
    momentum  m_t = b1*m + (1-b1)*g, denominator bypassed
    adaptive  m_t as momentum, V_t = b2*V + (1-b2)*g^2, full step form

The sgd instantiation is exact textbook SGD on purpose; running it through
the sqrt(V)+eps denominator would silently rescale the factor-model update
rules, so the denominator only participates in the adaptive variant. Its
m_t is the gradient itself, so sgd stores nothing and its state.m stays
zero. No bias correction is applied to the momenta. Momenta start at
zero.

updater() holds the one update body per kind, as a closure that a
trainer's inner loop calls without any per-call checks; a trainer that
uses it finds divergence through its own finiteness checks on
predictions and on the epoch loss. step() is the checked public form: it
converts the gradient, rejects non-finite values, then applies the same
update.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GradientError, ValidationError
from .metrics import check_choice

KINDS = ("sgd", "momentum", "adaptive")


@dataclass
class OptimizerState:
    """Per-tensor optimizer accumulators.

    m and v are shaped like the parameter tensor; t counts steps. The state
    belongs to exactly one trainer and is mutated in place by step().
    """

    kind: str
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    t: int = 0
    name: str = "param"

    def __post_init__(self):
        check_settings(self.kind, self.alpha, self.beta1, self.beta2, self.eps)


def check_settings(kind, alpha, beta1, beta2, eps):
    """Raise ValidationError unless kind is one of KINDS, alpha and eps
    are finite and positive, and both momentum factors lie in [0, 1).

    The one check of the optimizer settings: OptimizerState and
    factor.TrainConfig both call it, so a config that builds trains.
    """
    check_choice(kind, "optimizer", KINDS)
    for name, value in (("learning rate", alpha), ("eps", eps)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValidationError(f"momentum factors must lie in [0, 1), got {beta1} and {beta2}")


def make_state(kind, shape, alpha, beta1=0.9, beta2=0.999, eps=1e-8, name="param"):
    """Fresh zero-momentum state for a parameter tensor of the given shape."""
    return OptimizerState(
        kind=kind,
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        m=np.zeros(shape),
        v=np.zeros(shape),
        name=name,
    )


def step(state, params, grads, rows=None):
    """Apply one update in place; returns params.

    Args:
        state: OptimizerState owning the momenta for this tensor.
        params: parameter ndarray, modified in place.
        grads: gradient of the loss w.r.t. params (or w.r.t. params[rows]).
        rows: optional index (int or unique index array) selecting the
            leading-axis slice that grads refers to; momenta update only
            there. None updates the whole tensor.

    Raises:
        GradientError: if grads contains non-finite values.
    """
    grads = np.asarray(grads, dtype=float)
    if not np.isfinite(grads).all():
        raise GradientError(f"non-finite gradient for tensor {state.name!r}")
    updater(state, params)(slice(None) if rows is None else rows, grads)
    return params


def updater(state, params):
    """Unchecked row update for a trainer's inner loop: update(rows, grads).

    update(rows, grads) is step(state, params, grads, rows=rows) without
    step's conversion and finiteness check, and step runs through it, so
    both give bit-identical parameters and momenta. grads must already be
    a float ndarray or scalar shaped like params[rows], and rows an int, a
    unique index array or a slice. A non-finite gradient is applied as it
    is.
    """
    alpha = state.alpha
    if state.kind == "sgd":
        def update(rows, grads):
            state.t += 1
            params[rows] -= alpha * grads

        return update
    m_all = state.m
    beta1 = state.beta1
    fresh1 = 1.0 - beta1
    if state.kind == "momentum":
        def update(rows, grads):
            state.t += 1
            m = beta1 * m_all[rows] + fresh1 * grads
            m_all[rows] = m
            params[rows] -= alpha * m

        return update
    v_all = state.v
    beta2 = state.beta2
    fresh2 = 1.0 - beta2
    eps = state.eps

    def update(rows, grads):
        state.t += 1
        m = beta1 * m_all[rows] + fresh1 * grads
        v = beta2 * v_all[rows] + fresh2 * grads * grads
        m_all[rows] = m
        v_all[rows] = v
        params[rows] -= alpha * m / (np.sqrt(v) + eps)

    return update
