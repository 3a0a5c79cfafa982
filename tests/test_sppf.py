"""SimConv composition and the cascaded pooling pyramid."""

import gc
import tracemalloc

import numpy as np
import pytest
from oracles import simconv_chain_oracle

from microdet.activations import mish_np
from microdet.sppf import POOL_K, POOL_P, POOL_S, PlainSppf, SimConv, SimSppf
from microdet.selftest import gradcheck_row
from microdet.tensor import GradTape, ShapeError, Tensor4, backward, maxpool2d


class TestSimConv:
    def test_same_padding_preserves_dims(self):
        rng = np.random.default_rng(0)
        for k in (1, 3, 5):
            conv = SimConv(3, 4, k=k, rng=rng)
            out = conv.forward(Tensor4(rng.normal(size=(2, 3, 6, 6))))
            assert out.shape == (2, 4, 6, 6)

    def test_stride_two_halves_dims(self):
        conv = SimConv(2, 2, k=3, s=2, rng=np.random.default_rng(1))
        out = conv.forward(Tensor4.zeros(1, 2, 8, 8))
        assert out.shape == (1, 2, 4, 4)

    def test_composes_conv_bn_mish(self):
        """Identity 1x1 weights + unit inference stats reduce to mish(x)."""
        conv = SimConv(2, 2, k=1, rng=np.random.default_rng(2))
        conv.weight = Tensor4(np.eye(2).reshape(2, 2, 1, 1))
        conv.bn.training = False
        conv.bn.running_mean[:] = 0.0
        conv.bn.running_var[:] = 1.0 - 0.01  # eps is 0.01, so inv std is exactly 1
        x = np.random.default_rng(3).normal(size=(1, 2, 4, 4))
        out = conv.forward(Tensor4(x))
        np.testing.assert_allclose(out.data, mish_np(x), rtol=1e-12)

    def test_bias_free(self):
        conv = SimConv(2, 3, k=3, rng=np.random.default_rng(4))
        assert not any("bias" in name for name, _ in conv.named_params())

    def test_registry_names(self):
        conv = SimConv(2, 3, k=3, rng=np.random.default_rng(5))
        names = dict(conv.named_params())
        assert set(names) == {"weight", "bn.gamma", "bn.beta"}
        assert dict(conv.named_buffers()).keys() == {"bn.running_mean", "bn.running_var"}

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check(self, seed):
        rep = gradcheck_row("sim_conv", 400 + seed)
        assert rep.passed, rep


def _pyramid(block, x):
    """The block's concat, from its taped forward, and the four maps it should
    hold: x1 from `cv1` and the three cascaded pools from `maxpool2d`."""
    tape = GradTape()
    block.forward(x, tape)
    cat = next(e.output for e in tape._entries if len(e.inputs) == 4)
    x1 = block.cv1.forward(x, GradTape())
    pools = [x1]
    for _ in range(3):
        pools.append(maxpool2d(pools[-1], POOL_K, POOL_S, POOL_P))
    assert np.array_equal(cat.data, np.concatenate([p.data for p in pools], axis=1))
    return cat, pools


def _simconv_run(forward, kind, mode):
    """Tape length, output, running stats and every gradient, as bytes, of one
    seeded SimConv forward and backward with the input marked."""
    rng = np.random.default_rng(31)
    conv = SimConv(3, 4, k=3, activation=kind, rng=rng)
    bn = conv.bn
    bn.gamma.data[...] = rng.normal(size=bn.gamma.shape)
    bn.beta.data[...] = rng.normal(size=bn.beta.shape)
    bn.running_mean = rng.normal(size=4)
    bn.running_var = rng.uniform(0.5, 2.0, size=4)
    bn.training, bn.track_stats = mode != "eval", mode == "train"
    x = Tensor4(rng.normal(size=(2, 3, 6, 6)))
    x.requires_grad = True
    tape = GradTape()
    out = forward(conv, x, tape)
    backward(tape, Tensor4(rng.normal(size=out.shape)))
    arrays = [out.data, bn.running_mean, bn.running_var, x.grad,
              *(p.grad for _, p in conv.named_params())]
    return len(tape), [a.tobytes() for a in arrays]


@pytest.mark.parametrize("mode", ["train", "train_frozen_stats", "eval"])
@pytest.mark.parametrize("kind", ["mish", "silu", "relu"])
def test_fused_batchnorm_activation_matches_the_chain_oracle(kind, mode):
    """Conv plus one batchnorm-and-activation entry gives the three-entry
    chain's output, running statistics and gradients bit for bit."""
    fused_len, fused = _simconv_run(lambda conv, x, tape: conv.forward(x, tape), kind, mode)
    chain_len, chain = _simconv_run(simconv_chain_oracle, kind, mode)
    assert (fused_len, chain_len) == (2, 3)
    assert fused == chain


def test_training_forward_keeps_three_output_sized_arrays():
    """The taped forward keeps the conv output, the activation's derivative
    and the output: no normalised input x̂ and no batchnorm output."""
    rng = np.random.default_rng(32)
    conv = SimConv(8, 8, k=3, rng=rng)
    x = Tensor4(rng.normal(size=(4, 8, 32, 32)))
    tape = GradTape()
    gc.collect()
    tracemalloc.start()
    try:
        out = conv.forward(x, tape)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3.5 * out.data.nbytes, held / out.data.nbytes


class TestSimSppf:
    def test_256_channel_shapes(self):
        """(1,256,8,8) with c_mid 128: concat has 512 channels, output 256."""
        rng = np.random.default_rng(6)
        block = SimSppf(256, rng=rng)
        x = Tensor4(rng.normal(size=(1, 256, 8, 8)))
        tape = GradTape()
        out = block.forward(x, tape)
        assert out.shape == (1, 256, 8, 8)
        shapes = [e.output.shape for e in tape._entries]
        assert (1, 128, 8, 8) in shapes     # x1
        assert (1, 512, 8, 8) in shapes     # concat

    def test_spatial_preserved_any_size(self):
        rng = np.random.default_rng(7)
        block = SimSppf(8, rng=rng)
        for h, w in ((1, 1), (2, 3), (7, 5)):
            out = block.forward(Tensor4(rng.normal(size=(1, 8, h, w))))
            assert out.shape == (1, 8, h, w)

    def test_constant_input_stacks_four_copies(self):
        """Pooling a constant map is the identity, so concat = 4 x x1."""
        rng = np.random.default_rng(8)
        block = SimSppf(6, rng=rng)
        block.cv1.bn.training = False
        block.cv2.bn.training = False
        x = Tensor4(np.full((1, 6, 5, 5), 0.37))
        cat, (x1, *_) = _pyramid(block, x)
        assert x1.shape == (1, 3, 5, 5)
        for i in range(4):
            np.testing.assert_array_equal(cat.data[:, 3 * i:3 * (i + 1)], x1.data)

    def test_cascade_equals_wide_kernels(self):
        """y2 == 9x9 pool of x1 and y3 == 13x13 pool, element-exact."""
        rng = np.random.default_rng(9)
        block = SimSppf(8, rng=rng)
        x = Tensor4(rng.normal(size=(2, 8, 6, 7)))
        _, (x1, _, y2, y3) = _pyramid(block, x)
        np.testing.assert_array_equal(y2.data, maxpool2d(x1, 9, 1, 4).data)
        np.testing.assert_array_equal(y3.data, maxpool2d(x1, 13, 1, 6).data)

    def test_monotone_receptive_field(self):
        rng = np.random.default_rng(10)
        block = SimSppf(4, rng=rng)
        x = Tensor4(rng.normal(size=(1, 4, 8, 8)))
        _, (_, y1, y2, y3) = _pyramid(block, x)
        assert (y1.data <= y2.data).all()
        assert (y2.data <= y3.data).all()

    def test_channel_mismatch(self):
        block = SimSppf(8, rng=np.random.default_rng(11))
        with pytest.raises(ShapeError, match="channels"):
            block.forward(Tensor4.zeros(1, 4, 4, 4))

    @pytest.mark.parametrize("c1, c_mid", [(8, 4), (7, 3), (1, 1)])
    def test_hidden_width_is_half_the_input(self, c1, c_mid):
        block = SimSppf(c1, rng=np.random.default_rng(12))
        assert (block.cv1.spec.c_out, block.cv2.spec.c_in) == (c_mid, 4 * c_mid)
        assert block.forward(Tensor4.zeros(1, c1, 4, 4)).shape == (1, c1, 4, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check(self, seed):
        rep = gradcheck_row("simsppf_forward", 500 + seed)
        assert rep.passed, rep

    def test_backward_runs_through_block(self):
        rng = np.random.default_rng(13)
        block = SimSppf(4, rng=rng)
        x = Tensor4(rng.normal(size=(1, 4, 5, 5)))
        x.requires_grad = True
        tape = GradTape()
        block.forward(x, tape)
        backward(tape)
        assert np.isfinite(x.grad).all()
        assert np.abs(block.cv1.weight.grad).max() > 0


class TestPlainSppf:
    def test_parameter_count_differs_from_sim_variant(self):
        sim = SimSppf(16, rng=np.random.default_rng(14))
        plain = PlainSppf(16, rng=np.random.default_rng(14))
        assert plain.param_count() < sim.param_count()

    def test_forward_shape(self):
        block = PlainSppf(8, rng=np.random.default_rng(15))
        assert block.forward(Tensor4.zeros(1, 8, 4, 4)).shape == (1, 8, 4, 4)
        assert (block.cv2.spec.k, block.cv1.activation, block.cv2.activation) == (1, "silu",
                                                                                  "silu")
