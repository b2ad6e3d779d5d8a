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
rules, so the denominator only participates in the adaptive variant. No
bias correction is applied to the momenta. Momenta start at zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GradientError

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; pick from {KINDS}")
        if self.alpha <= 0:
            raise ValueError(f"learning rate must be positive, got {self.alpha}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("momentum factors must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


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
    state.t += 1
    if rows is None:
        rows = slice(None)
    if state.kind == "sgd":
        state.m[rows] = grads
        params[rows] -= state.alpha * grads
    elif state.kind == "momentum":
        m = state.beta1 * state.m[rows] + (1.0 - state.beta1) * grads
        state.m[rows] = m
        params[rows] -= state.alpha * m
    else:
        m = state.beta1 * state.m[rows] + (1.0 - state.beta1) * grads
        v = state.beta2 * state.v[rows] + (1.0 - state.beta2) * grads * grads
        state.m[rows] = m
        state.v[rows] = v
        params[rows] -= state.alpha * m / (np.sqrt(v) + state.eps)
    return params
