"""Energy-based attention: closed form vs numeric minimization, weights, grads."""

import numpy as np
import pytest

from microdet.simam import (
    energy_numeric_oracle,
    simam_energy_min,
    simam_forward,
)
from microdet.tensor import DomainError, GradTape, ShapeError, Tensor4, backward, grad_check


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestEnergyClosedForm:
    def test_target_at_mean_gives_two(self):
        for s2 in (0.0, 0.3, 5.0):
            for lam in (1e-4, 1.0):
                assert simam_energy_min(1.0, 1.0, s2, lam) == pytest.approx(2.0)

    def test_direct_substitution(self):
        # sigma2 = 0, (t - mu) = 2, lam = 1  ->  4/(4+2)
        assert simam_energy_min(2.0, 0.0, 0.0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_positive_and_decreasing_in_distance(self):
        es = [simam_energy_min(t, 0.0, 0.5, 1e-2) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(e > 0 for e in es)
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_lambda_must_be_positive(self):
        with pytest.raises(DomainError):
            simam_energy_min(1.0, 0.0, 1.0, 0.0)


class TestEnergyOracle:
    def test_degenerate_neighbors_match_closed_form(self):
        e, _, _ = energy_numeric_oracle(1.7, [1.7, 1.7, 1.7], 1e-3)
        assert e == pytest.approx(2.0, abs=1e-6)

    def test_matches_closed_form_on_random_instances(self):
        """100 random draws: |oracle - closed form| <= 1e-6."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 50))
            xs = rng.normal(0, 3, size=m)
            t = float(rng.normal(0, 3))
            lam = float(10 ** rng.uniform(-5, 0))
            e_num, _, _ = energy_numeric_oracle(t, xs, lam)
            e_closed = simam_energy_min(t, float(xs.mean()), float(xs.var()), lam)
            assert abs(e_num - e_closed) <= 1e-6

    def test_regularizer_only_adds_energy(self):
        xs = [0.3, -1.2, 2.0]
        e_small, _, _ = energy_numeric_oracle(1.0, xs, 1e-9)
        e_big, _, _ = energy_numeric_oracle(1.0, xs, 1.0)
        assert e_small < e_big

    def test_requires_neighbors(self):
        with pytest.raises(DomainError):
            energy_numeric_oracle(1.0, [], 1e-4)


class TestForward:
    def test_constant_channel_uniform_weight(self):
        """All-equal values force inverse energy 0.5 everywhere."""
        x = Tensor4(np.full((2, 3, 4, 4), 2.5))
        out = simam_forward(x)
        np.testing.assert_allclose(out.data, sigmoid(0.5) * x.data, rtol=1e-12)
        assert sigmoid(0.5) == pytest.approx(0.6224593, abs=1e-7)

    def test_2x2_known_weights(self):
        """Independent scalar recomputation of the 1x1x2x2 example at the SimAM paper's lambda."""
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        lam = 1e-4
        mu = vals.mean()
        s2 = ((vals - mu) ** 2).sum() / (len(vals) - 1)
        expect_w = sigmoid((vals - mu) ** 2 / (4 * (s2 + lam)) + 0.5)
        out = simam_forward(Tensor4(vals.reshape(1, 1, 2, 2)))
        np.testing.assert_allclose(out.data.reshape(-1), vals * expect_w, rtol=1e-12)
        np.testing.assert_allclose(expect_w, [0.6980, 0.6312, 0.6312, 0.6980], atol=1e-4)
        np.testing.assert_allclose(out.data.reshape(-1), [0.698, 1.262, 1.894, 2.792], atol=1e-3)

    def test_positive_scaling_preserves_weight_order(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        for scale in (0.1, 3.0, 42.0):
            w1 = simam_forward(Tensor4(x)).data / x
            w2 = simam_forward(Tensor4(scale * x)).data / (scale * x)
            for c in range(2):
                o1 = np.argsort(w1[0, c].reshape(-1), kind="stable")
                o2 = np.argsort(w2[0, c].reshape(-1), kind="stable")
                np.testing.assert_array_equal(o1, o2)

    def test_weights_in_halfsigmoid_band(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 5)) + 0.7
        out = simam_forward(Tensor4(x))
        w = out.data / x
        assert (w >= sigmoid(0.5) - 1e-12).all()
        assert (w < 1.0).all()

    def test_shape_preserved_and_spatial_error(self):
        x = Tensor4(np.random.default_rng(3).normal(size=(2, 4, 3, 5)))
        assert simam_forward(x).shape == x.shape
        with pytest.raises(ShapeError, match="spatial"):
            simam_forward(Tensor4.zeros(1, 2, 1, 1))


class TestBackward:
    def test_perturbation_stays_in_channel(self):
        """One pixel moves every weight in its channel, none elsewhere."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 3, 3))
        base = simam_forward(Tensor4(x)).data
        xp = x.copy()
        xp[0, 1, 0, 0] += 0.25
        pert = simam_forward(Tensor4(xp)).data
        diff = np.abs(pert - base)
        assert (diff[0, 1] > 0).all()
        assert diff[0, 0].max() == 0.0
        assert diff[0, 2].max() == 0.0

    def test_constant_input_gradient_matches_fd(self):
        x = Tensor4(np.full((1, 2, 3, 3), 1.3))
        rep = grad_check(simam_forward, x, tol=1e-4)
        assert rep.passed, rep

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check_random_seeds(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        rep = grad_check(simam_forward, x, tol=1e-4, seed=seed)
        assert rep.passed, rep

    def test_contributes_no_parameters(self):
        """The op records only its input on the tape; nothing learnable."""
        tape = GradTape()
        x = Tensor4(np.random.default_rng(5).normal(size=(1, 2, 3, 3)))
        x.requires_grad = True
        simam_forward(x, tape)
        assert len(tape) == 1
        backward(tape)
        assert x.grad is not None
