"""The one-exp elementwise kernels, the centred-once batchnorm, the 1x1 and
depthwise conv paths, the per-image k x k weight gradient and the tape-free
maxpool reproduce the formulas they replaced bit for bit."""

import numpy as np
import pytest

from microdet.activations import mish, mish_np, mish_value_grad, silu_np, silu_value_grad
from microdet.losses import bce_logits
from microdet.tensor import (
    BatchNormState,
    ConvSpec,
    GradTape,
    ShapeError,
    Tensor4,
    _stable_sigmoid,
    _im2col,
    _stable_softplus,
    backward,
    batchnorm2d,
    conv2d,
    maxpool2d,
)
from oracles import (
    bce_logits_two_exp_oracle,
    conv2d_grouped_einsum_oracle,
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
        value, grad = mish_value_grad(a)
        assert_same_bits(grad, mish_grad_two_exp_oracle(a))
        assert_same_bits(value, mish_np(a))
        assert_same_bits(value, a * np.tanh(softplus_two_exp_oracle(a)))

    def test_silu_grad(self, a):
        value, grad = silu_value_grad(a)
        assert_same_bits(grad, silu_grad_masked_oracle(a))
        assert_same_bits(value, silu_np(a))
        assert_same_bits(value, a * sigmoid_masked_oracle(a))

    def test_bce_logits(self, a):
        t = np.random.default_rng(13).uniform(size=a.shape)
        got, want = bce_logits(a, t), bce_logits_two_exp_oracle(a, t)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("kernel, args", [
    (mish_value_grad, ()),
    (mish_np, ()),
    (silu_value_grad, ()),
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
        state = BatchNormState.create(5)
        rv0 = rng.uniform(0.5, 2.0, size=5)
        rm0 = rng.normal(size=5)
        state.running_var = rv0.copy()
        state.running_mean = rm0.copy()
        batchnorm2d(Tensor4(x), state)
        cnt = 4 * 6 * 7
        var = x.var(axis=(0, 2, 3))
        assert np.array_equal(state.running_var, 0.9 * rv0 + 0.1 * (var * cnt / (cnt - 1)))
        assert np.array_equal(state.running_mean, 0.9 * rm0 + 0.1 * x.mean(axis=(0, 2, 3)))

    def test_output_is_the_np_var_normalisation(self):
        rng = np.random.default_rng(16)
        x = rng.normal(loc=-1.0, scale=3.0, size=(3, 4, 5, 5))
        state = BatchNormState.create(4)
        state.gamma = Tensor4(rng.normal(size=(1, 4, 1, 1)))
        state.beta = Tensor4(rng.normal(size=(1, 4, 1, 1)))
        out = batchnorm2d(Tensor4(x), state).data
        mu = x.mean(axis=(0, 2, 3)).reshape(1, 4, 1, 1)
        inv = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + 0.01)
        xhat = (x - mu) * inv.reshape(1, 4, 1, 1)
        assert np.array_equal(out, state.gamma.data * xhat + state.beta.data)


def _conv_grads(x, spec, w, up, bias=None):
    """Output, x.grad and weight.grad of one taped conv2d seeded with up."""
    xt, wt = Tensor4(x), Tensor4(w)
    xt.requires_grad = wt.requires_grad = True
    bt = None if bias is None else Tensor4(bias)
    tape = GradTape()
    out = conv2d(xt, spec, wt, bt, tape=tape)
    backward(tape, Tensor4(up.reshape(out.shape)))
    return out.data, xt.grad, wt.grad


class TestConv1x1Backward:
    def _grad(self, x, spec, w, up):
        return _conv_grads(x, spec, w, up)[1]

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


class TestConv1x1Columns:
    """A 1x1, stride-1, unpadded conv reads the input as its im2col columns."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_forward_and_backward_match_im2col(self, n, with_bias):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(n, 6, 5, 4))
        w = rng.normal(size=(7, 6, 1, 1))
        bias = rng.normal(size=(1, 7, 1, 1)) if with_bias else None
        up = rng.normal(size=(n, 7, 5, 4))
        out, dx, dw = _conv_grads(x, ConvSpec(6, 7, k=1), w, up, bias)
        col = _im2col(x, 1, 1, 5, 4).reshape(n, 6, 20)
        want = np.matmul(w.reshape(7, 6), col).reshape(n, 7, 5, 4)
        if with_bias:
            want = want + bias
        up2 = up.reshape(n, 7, 20)
        assert_same_bits(out, want)
        assert_same_bits(dw, np.zeros(w.shape) + np.matmul(
            up2, col.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        assert_same_bits(dx, np.zeros(x.shape) + np.matmul(
            w.reshape(7, 6).T, up2).reshape(x.shape))


@pytest.mark.parametrize("n, k, s, p", [(1, 3, 1, 1), (3, 3, 2, 1), (20, 3, 1, 1),
                                        (20, 3, 2, 1), (5, 5, 1, 2), (4, 2, 1, 0)])
def test_kxk_weight_gradient_is_the_batched_sum(n, k, s, p):
    """Summed one image at a time, a dense k x k conv's weight gradient equals
    the whole batch's (n, c_out, c_in*k*k) products summed over axis 0."""
    rng = np.random.default_rng(23 + n + k + s)
    x = rng.normal(size=(n, 5, 7, 6))
    w = rng.normal(size=(4, 5, k, k))
    spec = ConvSpec(5, 4, k=k, s=s, p=p)
    ho, wo = spec.out_hw(7, 6)
    up = rng.normal(size=(n, 4, ho, wo))
    dw = _conv_grads(x, spec, w, up)[2]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    col = _im2col(xp, k, s, ho, wo).reshape(n, 5 * k * k, ho * wo)
    products = np.matmul(up.reshape(n, 4, ho * wo), col.transpose(0, 2, 1))
    assert_same_bits(dw, np.zeros(w.shape) + products.sum(axis=0).reshape(w.shape))


def _depthwise_cases():
    for k in (1, 3, 5):
        for s in (1, 2):
            for p in sorted({0, k // 2}):
                for n in (1, 3):
                    for special in (False, True):
                        yield k, s, p, n, special


# inf * 0 and inf - inf give NaN in both paths
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("k, s, p, n, special", list(_depthwise_cases()))
def test_depthwise_matches_grouped_einsum(k, s, p, n, special):
    """Forward, x.grad and weight.grad of g == c_in == c_out equal the einsum loop."""
    rng = np.random.default_rng(22 + k + 10 * s + 100 * p + 1000 * n)
    c = 4
    x = rng.normal(size=(n, c, 7, 6))
    if special:
        x[0, 0, 1, 2] = np.inf
        x[-1, 1, 3, 3] = -np.inf
        x[0, 2, 0, 0] = np.nan
        x[-1, 3, 6, 5] = 0.0
        x[0, 3, 2, 1] = -0.0
    w = rng.normal(size=(c, 1, k, k))
    spec = ConvSpec(c, c, k=k, s=s, p=p, g=c)
    ho, wo = spec.out_hw(7, 6)
    up = rng.normal(size=(n, c, ho, wo))
    out, dx, dw = _conv_grads(x, spec, w, up)
    want_out, want_dx, want_dw = conv2d_grouped_einsum_oracle(x, w, c, s, p, up)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)
    assert_same_bits(dw, want_dw)


def test_grouped_non_depthwise_matches_einsum():
    """No other group count has a conv path: g=2 with two channels per group
    is rejected by the spec, naming the groups."""
    with pytest.raises(ShapeError, match="groups 2 must be 1 or equal c_in=4 and c_out=4"):
        ConvSpec(4, 4, k=3, s=2, p=1, g=2)


class TestMaxpoolWithoutTape:
    # rounded inputs tie inside windows; the first cell in (ki, kj) order wins
    @staticmethod
    def _input():
        rng = np.random.default_rng(24)
        x = np.round(rng.normal(size=(2, 3, 7, 6)), 1)
        x[0, 0, 2, 2] = np.inf
        x[1, 2, 4, 1] = -np.inf
        return x

    @pytest.mark.parametrize("k, s, p", [(5, 1, 2), (3, 2, 1), (2, 2, 0)])
    def test_same_output_with_and_without_tape(self, k, s, p):
        x = self._input()
        taped = maxpool2d(Tensor4(x), k, s, p, GradTape()).data
        assert_same_bits(maxpool2d(Tensor4(x), k, s, p).data, taped)

    @pytest.mark.parametrize("k, s, p", [(5, 1, 2), (3, 2, 1), (2, 2, 0)])
    def test_backward_routes_to_the_first_winner(self, k, s, p):
        x = self._input()
        xt = Tensor4(x)
        xt.requires_grad = True
        tape = GradTape()
        out = maxpool2d(xt, k, s, p, tape)
        up = np.random.default_rng(25).normal(size=out.shape)
        backward(tape, Tensor4(up))
        n, c, h, w = x.shape
        winner = {}
        for idx in np.ndindex(out.shape):
            best = -np.inf
            for ki in range(k):
                for kj in range(k):
                    ii, jj = idx[2] * s + ki - p, idx[3] * s + kj - p
                    if 0 <= ii < h and 0 <= jj < w and x[idx[:2] + (ii, jj)] > best:
                        best, winner[idx] = x[idx[:2] + (ii, jj)], (ki, kj)
        # sums over the kernel cells in (ki, kj) order, as the backward does
        want = np.zeros_like(x)
        for cell in np.ndindex(k, k):
            for idx, won in winner.items():
                if won == cell:
                    want[idx[:2] + (idx[2] * s + cell[0] - p, idx[3] * s + cell[1] - p)] += up[idx]
        assert_same_bits(xt.grad, want)


def test_activation_tape_uses_the_kernels():
    """The recorded Mish backward is the upstream times Mish's derivative kernel, to the bit."""
    x = Tensor4(np.concatenate([EDGES[np.isfinite(EDGES)],
                                np.linspace(-9.0, 9.0, 13)]).reshape(1, 1, 5, 5))
    x.requires_grad = True
    tape = GradTape()
    up = np.random.default_rng(20).normal(size=x.shape)
    out = mish(x, tape)
    backward(tape, Tensor4(up))
    assert np.array_equal(out.data, x.data * np.tanh(softplus_two_exp_oracle(x.data)))
    assert np.array_equal(x.grad, up * mish_grad_two_exp_oracle(x.data))
