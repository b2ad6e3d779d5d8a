"""optim.updater and optim.step against the written update rule."""

import numpy as np
import pytest

from latentrec import optim


def written_rule(kind, params, m, v, rows, g, alpha, b1=0.9, b2=0.999, eps=1e-8):
    """One update as the optim module docstring writes it, on copies."""
    params, m, v = params.copy(), m.copy(), v.copy()
    if kind == "sgd":
        params[rows] = params[rows] - alpha * g
        return params, m, v
    m[rows] = b1 * m[rows] + (1.0 - b1) * g
    if kind == "momentum":
        params[rows] = params[rows] - alpha * m[rows]
        return params, m, v
    v[rows] = b2 * v[rows] + (1.0 - b2) * g * g
    params[rows] = params[rows] - alpha * m[rows] / (np.sqrt(v[rows]) + eps)
    return params, m, v


@pytest.mark.parametrize("kind", optim.KINDS)
def test_updater_and_step_follow_the_written_rule_bit_for_bit(kind):
    rng = np.random.default_rng(4)
    checked = optim.make_state(kind, (6, 3), alpha=0.05)
    fast = optim.make_state(kind, (6, 3), alpha=0.05)
    a = rng.normal(size=(6, 3))
    b = a.copy()
    want, m, v = a.copy(), np.zeros((6, 3)), np.zeros((6, 3))
    update = optim.updater(fast, b)
    for t in range(60):
        if t % 4 == 0:
            rows, g = t % 6, rng.normal(size=3)
        elif t % 4 == 1:
            rows, g = np.array([1, 4, 5]), rng.normal(size=(3, 3))
        elif t % 4 == 2:
            rows, g = slice(None), rng.normal(size=(6, 3))
        else:
            rows, g = (t // 4) % 6, float(rng.normal())
        optim.step(checked, a, g, rows=rows)
        update(rows, g)
        want, m, v = written_rule(kind, want, m, v, rows, g, 0.05)
    for state, params in ((checked, a), (fast, b)):
        assert np.array_equal(params, want)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.t == 60


def test_updater_applies_non_finite_gradients_unchecked():
    state = optim.make_state("sgd", (2,), alpha=0.1)
    params = np.zeros(2)
    optim.updater(state, params)(0, np.inf)
    assert params[0] == -np.inf and params[1] == 0.0


def test_sgd_keeps_no_momentum():
    for apply in (
        lambda st, p, g: optim.step(st, p, g, rows=1),
        lambda st, p, g: optim.updater(st, p)(1, g),
    ):
        state = optim.make_state("sgd", (3, 2), alpha=0.5)
        apply(state, np.zeros((3, 2)), np.array([1.0, -2.0]))
        assert not state.m.any() and not state.v.any()
