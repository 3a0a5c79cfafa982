"""Mish/SiLU/ReLU values, asymptotes, and derivative agreement."""

import numpy as np
import pytest

from microdet.activations import (
    apply_activation,
    mish,
    mish_np,
    mish_value_grad,
    relu,
    relu_np,
    relu_value_grad,
    silu,
    silu_np,
    silu_value_grad,
)
from microdet.tensor import DomainError, GradTape, Tensor4, backward, grad_check


class TestMishValues:
    def test_zero(self):
        assert mish_np(np.array([0.0]))[0] == 0.0

    def test_global_minimum_location(self):
        """Dense scan pins the minimum near -0.30884 at x ~ -1.1924."""
        xs = np.arange(-3.0, 0.0, 1e-5)
        ys = mish_np(xs)
        i = ys.argmin()
        assert ys[i] == pytest.approx(-0.30884, abs=1e-4)
        assert -0.309 <= ys[i] <= -0.308
        assert xs[i] == pytest.approx(-1.1924, abs=1e-3)

    def test_identity_asymptote(self):
        assert mish_np(np.array([20.0]))[0] == pytest.approx(20.0, abs=1e-6)

    def test_vanishes_at_negative_infinity(self):
        assert abs(mish_np(np.array([-40.0]))[0]) <= 1e-12

    def test_monotone_for_nonnegative_inputs(self):
        xs = np.arange(0.0, 10.0, 1e-4)
        assert (np.diff(mish_np(xs)) >= 0).all()

    def test_overflow_safe(self):
        out = mish_np(np.array([500.0, -500.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(500.0)


class TestMishBackward:
    def test_derivative_at_zero_is_exactly_point_six(self):
        # tanh(ln 2) = (2 - 1/2)/(2 + 1/2) = 0.6
        assert mish_value_grad(np.array([0.0]))[1][0] == pytest.approx(0.6, abs=1e-15)

    def test_small_but_nonzero_at_large_negative(self):
        g = mish_value_grad(np.array([-20.0]))[1][0]
        assert abs(g) <= 1e-6
        assert g != 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-10, 10, size=1000)
        h = 1e-6
        numeric = (mish_np(xs + h) - mish_np(xs - h)) / (2 * h)
        np.testing.assert_allclose(mish_value_grad(xs)[1], numeric, atol=1e-6)

    def test_applies_upstream(self):
        x = Tensor4(np.zeros((1, 1, 1, 2)))
        x.requires_grad = True
        tape = GradTape()
        mish(x, tape)
        backward(tape, Tensor4(np.array([[[[2.0, -3.0]]]])))
        np.testing.assert_allclose(x.grad.reshape(-1), [1.2, -1.8])


class TestSiluRelu:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu_np(np.array([-3.0, 3.0])), [0.0, 3.0])

    def test_relu_grad_zero_at_kink(self):
        assert relu_value_grad(np.array([0.0]))[1][0] == 0.0

    def test_silu_values(self):
        assert silu_np(np.array([0.0]))[0] == 0.0
        assert silu_value_grad(np.array([0.0]))[1][0] == 0.5

    def test_mish_dominates_silu_envelope(self):
        """mish >= silu - 0.11 on a dense grid of [-6, 6]."""
        xs = np.arange(-6.0, 6.0, 1e-3)
        assert (mish_np(xs) >= silu_np(xs) - 0.11).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_checks(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = Tensor4(rng.normal(size=(2, 2, 4, 4)))
        for f in (mish, silu):
            rep = grad_check(f, x, tol=1e-6, seed=seed)
            assert rep.passed, rep
        # keep relu inputs away from the kink
        xr = Tensor4(np.where(np.abs(x.data) < 0.05, 0.5, x.data))
        rep = grad_check(relu, xr, tol=1e-6, seed=seed)
        assert rep.passed, rep


class TestDispatch:
    def test_tags(self):
        x = Tensor4(np.array([[[[1.0]]]]))
        assert apply_activation(x, "mish").item() == pytest.approx(mish_np(np.array([1.0]))[0])
        assert apply_activation(x, "silu").item() == pytest.approx(silu_np(np.array([1.0]))[0])
        assert apply_activation(x, "relu").item() == 1.0

    def test_unknown_tag(self):
        with pytest.raises(DomainError, match="unknown"):
            apply_activation(Tensor4.scalar(0.0), "gelu")
