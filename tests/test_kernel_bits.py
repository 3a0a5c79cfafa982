"""The one-exp elementwise kernels, the centred-once batchnorm and the 1x1 conv
backward reproduce the formulas they replaced bit for bit."""

import numpy as np
import pytest

from microdet.activations import mish, mish_grad_np, mish_np, silu_grad_np
from microdet.losses import bce_logits
from microdet.tensor import (
    BatchNormState,
    ConvSpec,
    GradTape,
    Tensor4,
    _stable_sigmoid,
    _stable_softplus,
    backward,
    batchnorm2d,
    conv2d,
)
from oracles import (
    bce_logits_two_exp_oracle,
    conv2d_scalar_oracle,
    conv2d_scatter_dx_oracle,
    mish_grad_two_exp_oracle,
    sigmoid_masked_oracle,
    silu_grad_masked_oracle,
    softplus_two_exp_oracle,
)

EDGES = np.array([0.0, -0.0, 1e-320, -1e-320, 37.0, -37.0, 710.0, -710.0,
                  745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan])


def _inputs():
    rng = np.random.default_rng(12)
    return [
        EDGES,
        rng.normal(size=(3, 4, 5, 6)),
        rng.normal(scale=40.0, size=(2, 3, 7, 7)),
        rng.uniform(-800.0, 800.0, size=500),
    ]


def assert_same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal takes -0.0 == 0.0; the sign of every non-NaN zero must match too
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


# inf * 0 and inf - inf at the infinite inputs give NaN in both forms
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("a", _inputs(), ids=["edges", "normal", "wide", "uniform"])
class TestOneExpKernels:
    def test_sigmoid(self, a):
        assert_same_bits(_stable_sigmoid(a), sigmoid_masked_oracle(a))

    def test_softplus(self, a):
        assert_same_bits(_stable_softplus(a), softplus_two_exp_oracle(a))

    def test_mish_grad(self, a):
        assert_same_bits(mish_grad_np(a), mish_grad_two_exp_oracle(a))

    def test_silu_grad(self, a):
        assert_same_bits(silu_grad_np(a), silu_grad_masked_oracle(a))

    def test_bce_logits(self, a):
        t = np.random.default_rng(13).uniform(size=a.shape)
        got, want = bce_logits(a, t), bce_logits_two_exp_oracle(a, t)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("kernel, args", [
    (mish_grad_np, ()),
    (mish_np, ()),
    (silu_grad_np, ()),
    (bce_logits, (np.zeros((2, 3, 4, 4)),)),
])
def test_one_exp_per_call(monkeypatch, kernel, args):
    """Each kernel takes its sigmoid and softplus from a single e^{-|x|}."""
    calls = []
    real_exp = np.exp

    def counting_exp(*a, **kw):
        calls.append(1)
        return real_exp(*a, **kw)

    monkeypatch.setattr(np, "exp", counting_exp)
    kernel(np.random.default_rng(14).normal(size=(2, 3, 4, 4)), *args)
    assert len(calls) == 1


class TestBatchnormCentredOnce:
    def test_running_var_is_the_np_var_update(self):
        rng = np.random.default_rng(15)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 5, 6, 7))
        state = BatchNormState.create(5, momentum=0.3)
        rv0 = rng.uniform(0.5, 2.0, size=5)
        rm0 = rng.normal(size=5)
        state.running_var = rv0.copy()
        state.running_mean = rm0.copy()
        batchnorm2d(Tensor4(x), state)
        cnt = 4 * 6 * 7
        var = x.var(axis=(0, 2, 3))
        assert np.array_equal(state.running_var, 0.7 * rv0 + 0.3 * (var * cnt / (cnt - 1)))
        assert np.array_equal(state.running_mean, 0.7 * rm0 + 0.3 * x.mean(axis=(0, 2, 3)))

    def test_output_is_the_np_var_normalisation(self):
        rng = np.random.default_rng(16)
        x = rng.normal(loc=-1.0, scale=3.0, size=(3, 4, 5, 5))
        state = BatchNormState.create(4)
        state.gamma = Tensor4(rng.normal(size=(1, 4, 1, 1)))
        state.beta = Tensor4(rng.normal(size=(1, 4, 1, 1)))
        out = batchnorm2d(Tensor4(x), state).data
        mu = x.mean(axis=(0, 2, 3)).reshape(1, 4, 1, 1)
        inv = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + state.eps)
        xhat = (x - mu) * inv.reshape(1, 4, 1, 1)
        assert np.array_equal(out, state.gamma.data * xhat + state.beta.data)


class TestConv1x1Backward:
    def _grad(self, x, spec, w, up):
        xt, wt = Tensor4(x), Tensor4(w)
        tape = GradTape()
        out = conv2d(xt, spec, wt, tape=tape)
        backward(tape, Tensor4(up.reshape(out.shape)))
        return xt.grad

    def test_matches_scatter_path(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 6, 5, 4))
        w = rng.normal(size=(7, 6, 1, 1))
        up = rng.normal(size=(3, 7, 5, 4))
        got = self._grad(x, ConvSpec(6, 7, k=1), w, up)
        assert np.array_equal(got, conv2d_scatter_dx_oracle(w, up, x.shape, 1, 0))

    @pytest.mark.parametrize("k, s, p", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (1, 1, 1)])
    def test_general_path_matches_scatter_oracle(self, k, s, p):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, k, k))
        spec = ConvSpec(3, 4, k=k, s=s, p=p)
        ho, wo = spec.out_hw(7, 6)
        up = rng.normal(size=(2, 4, ho, wo))
        got = self._grad(x, spec, w, up)
        assert np.array_equal(got, conv2d_scatter_dx_oracle(w, up, x.shape, s, p))

    def test_matches_scalar_oracle_finite_differences(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 3, 4, 3))
        w = rng.normal(size=(5, 3, 1, 1))
        up = rng.normal(size=(2, 5, 4, 3))
        got = self._grad(x, ConvSpec(3, 5, k=1), w, up)
        h = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            diff = conv2d_scalar_oracle(xp, w, 1, 0) - conv2d_scalar_oracle(xm, w, 1, 0)
            numeric[idx] = (up * diff).sum() / (2 * h)
        np.testing.assert_allclose(got, numeric, rtol=1e-7, atol=1e-8)


def test_activation_tape_uses_the_kernels():
    """The recorded Mish backward is the upstream times mish_grad_np, to the bit."""
    x = Tensor4(np.concatenate([EDGES[np.isfinite(EDGES)],
                                np.linspace(-9.0, 9.0, 13)]).reshape(1, 1, 5, 5))
    tape = GradTape()
    up = np.random.default_rng(20).normal(size=x.shape)
    out = mish(x, tape)
    backward(tape, Tensor4(up))
    assert np.array_equal(out.data, x.data * np.tanh(softplus_two_exp_oracle(x.data)))
    assert np.array_equal(x.grad, up * mish_grad_two_exp_oracle(x.data))
