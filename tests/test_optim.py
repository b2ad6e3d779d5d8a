import math

import numpy as np
import pytest

from latentrec import optim
from latentrec.errors import GradientError, ValidationError


class TestSgd:
    def test_vanilla_step(self):
        state = optim.make_state("sgd", (1,), alpha=0.1)
        params = np.zeros(1)
        optim.step(state, params, np.array([1.0]))
        assert params[0] == pytest.approx(-0.1)
        assert params[0] == -(0.1 * 1.0)  # exact, no denominator involved

    def test_matches_hand_loop_bitwise(self):
        rng = np.random.default_rng(0)
        params = rng.normal(size=6)
        hand = params.copy()
        state = optim.make_state("sgd", (6,), alpha=0.05)
        for _ in range(100):
            g = rng.normal(size=6)
            optim.step(state, params, g)
            hand -= 0.05 * g
        np.testing.assert_array_equal(params, hand)

    def test_zero_gradient_no_move(self):
        state = optim.make_state("sgd", (3,), alpha=0.5)
        params = np.ones(3)
        optim.step(state, params, np.zeros(3))
        np.testing.assert_array_equal(params, np.ones(3))


class TestMomentum:
    def test_recurrence(self):
        state = optim.make_state("momentum", (1,), alpha=1.0, beta1=0.5)
        params = np.zeros(1)
        optim.step(state, params, np.array([2.0]))  # m = 0.5*0 + 0.5*2 = 1
        assert params[0] == pytest.approx(-1.0)
        optim.step(state, params, np.array([0.0]))  # m = 0.5*1 = 0.5
        assert params[0] == pytest.approx(-1.5)
        assert state.m[0] == pytest.approx(0.5)

    def test_zero_gradient_decays_momentum(self):
        state = optim.make_state("momentum", (1,), alpha=1.0, beta1=0.9)
        params = np.zeros(1)
        optim.step(state, params, np.array([1.0]))
        m_before = state.m.copy()
        optim.step(state, params, np.array([0.0]))
        assert abs(state.m[0]) < abs(m_before[0])


class TestAdaptive:
    def test_steady_state_step_is_alpha_sign(self):
        # constant gradient: m -> g and V -> g^2, so eta -> alpha * sign(g)
        state = optim.make_state("adaptive", (2,), alpha=0.01)
        params = np.zeros(2)
        g = np.array([3.0, -0.2])
        for _ in range(12000):  # 0.999^t must die out for V to reach g^2
            before = params.copy()
            optim.step(state, params, g)
        eta = before - params
        np.testing.assert_allclose(eta, 0.01 * np.sign(g), rtol=1e-3)

    def test_no_bias_correction(self):
        # first step uses raw m_1 = (1-b1) g, not the corrected estimate
        state = optim.make_state("adaptive", (1,), alpha=1.0, beta1=0.9, beta2=0.999)
        params = np.zeros(1)
        g = 2.0
        optim.step(state, params, np.array([g]))
        m1 = 0.1 * g
        v1 = 0.001 * g * g
        assert params[0] == pytest.approx(-m1 / (np.sqrt(v1) + 1e-8))

    def test_step_magnitude_bound(self):
        state = optim.make_state("adaptive", (1,), alpha=0.5, eps=1e-8)
        params = np.zeros(1)
        rng = np.random.default_rng(1)
        for _ in range(200):
            before = params.copy()
            optim.step(state, params, rng.normal(size=1))
            eta = abs(before[0] - params[0])
            assert eta <= 0.5 * abs(state.m[0]) / 1e-8 + 1e-15

    def test_zero_gradient_keeps_params(self):
        state = optim.make_state("adaptive", (2,), alpha=0.1)
        params = np.ones(2)
        optim.step(state, params, np.zeros(2))
        np.testing.assert_array_equal(params, np.ones(2))


class TestRowUpdates:
    def test_only_selected_rows_move(self):
        state = optim.make_state("adaptive", (4, 3), alpha=0.1)
        params = np.ones((4, 3))
        g = np.full((2, 3), 2.0)
        optim.step(state, params, g, rows=np.array([1, 3]))
        np.testing.assert_array_equal(params[[0, 2]], np.ones((2, 3)))
        assert (params[[1, 3]] != 1.0).all()
        assert (state.v[[0, 2]] == 0.0).all()

    def test_int_row(self):
        state = optim.make_state("sgd", (3, 2), alpha=1.0)
        params = np.zeros((3, 2))
        optim.step(state, params, np.array([1.0, 2.0]), rows=1)
        np.testing.assert_array_equal(params[1], [-1.0, -2.0])
        np.testing.assert_array_equal(params[0], [0.0, 0.0])

    def test_row_momenta_independent(self):
        state = optim.make_state("momentum", (2, 2), alpha=1.0, beta1=0.5)
        params = np.zeros((2, 2))
        optim.step(state, params, np.ones((1, 2)), rows=np.array([0]))
        optim.step(state, params, np.ones((1, 2)), rows=np.array([0]))
        optim.step(state, params, np.ones((1, 2)), rows=np.array([1]))
        assert state.m[0, 0] == pytest.approx(0.75)
        assert state.m[1, 0] == pytest.approx(0.5)


class TestValidation:
    def test_non_finite_gradient_names_tensor(self):
        state = optim.make_state("sgd", (2,), alpha=0.1, name="item_factors")
        with pytest.raises(GradientError, match="item_factors"):
            optim.step(state, np.zeros(2), np.array([np.nan, 0.0]))

    def test_bad_hyperparameters(self):
        for kind, settings in [
            ("sgd", {"alpha": 0.0}),
            ("nope", {"alpha": 0.1}),
            ("adaptive", {"alpha": 0.1, "beta1": 1.0}),
            ("adaptive", {"alpha": 0.1, "eps": 0.0}),
            # a NaN or infinite learning rate, and an infinite eps, were accepted
            ("sgd", {"alpha": math.nan}),
            ("momentum", {"alpha": math.inf}),
            ("adaptive", {"alpha": 0.1, "eps": math.inf}),
        ]:
            with pytest.raises(ValidationError):
                optim.make_state(kind, (1,), **settings)

    def test_deterministic(self):
        out = []
        for _ in range(2):
            state = optim.make_state("adaptive", (3,), alpha=0.2)
            params = np.linspace(0, 1, 3)
            for k in range(20):
                optim.step(state, params, np.sin(np.arange(3) + k))
            out.append(params.copy())
        np.testing.assert_array_equal(out[0], out[1])
