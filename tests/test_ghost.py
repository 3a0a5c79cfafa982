"""Ghost conv / C3Ghost behavior and the parameter-economy accounting."""

import inspect

import numpy as np
import pytest

from oracles import batchnorm_scalar_oracle, conv2d_scalar_oracle, mish_scalar

from microdet.ghost import (
    CHEAP_K,
    PRIMARY_K,
    C3Block,
    GhostBottleneck,
    GhostConv,
    PlainBottleneck,
    count_params_flops,
)
from microdet.neck import IgdNeck
from microdet.selftest import gradcheck_row
from microdet.sppf import PlainSppf, SimConv, SimSppf
from microdet.tensor import ShapeError, Tensor4


class TestGhostConv:
    def test_channel_accounting(self):
        """ratio=2, c_out=16: 8 intrinsic + 8 ghost channels."""
        gc = GhostConv(4, 16, rng=np.random.default_rng(0))
        assert gc.primary.spec.c_out == gc.cheap.spec.c_out == 8
        out = gc.forward(Tensor4(np.random.default_rng(1).normal(size=(2, 4, 5, 5))))
        assert out.shape == (2, 16, 5, 5)

    def test_zero_cheap_weights_zero_ghosts(self):
        rng = np.random.default_rng(2)
        gc = GhostConv(4, 8, rng=rng)
        gc.cheap.weight = Tensor4(np.zeros_like(gc.cheap.weight.data))
        x = Tensor4(rng.normal(size=(1, 4, 4, 4)))
        out = gc.forward(x)
        intrinsic = gc.primary.forward(x)
        np.testing.assert_array_equal(out.data[:, :4], intrinsic.data)
        np.testing.assert_array_equal(out.data[:, 4:], np.zeros((1, 4, 4, 4)))

    def test_matches_two_stage_scalar_reimplementation(self):
        """Independent scalar conv+bn+mish pipeline reproduces the block."""
        rng = np.random.default_rng(3)
        gc = GhostConv(3, 8, rng=rng)
        x = rng.normal(size=(2, 3, 5, 5))

        def stage(conv, inp):
            raw = conv2d_scalar_oracle(inp, conv.weight.data, conv.spec.s, conv.spec.p,
                                       g=conv.spec.g)
            normed = batchnorm_scalar_oracle(raw, conv.bn.gamma.data.reshape(-1),
                                             conv.bn.beta.data.reshape(-1), 0.01)
            return mish_scalar(normed)

        intrinsic = stage(gc.primary, x)
        ghosts = stage(gc.cheap, intrinsic)
        expect = np.concatenate([intrinsic, ghosts], axis=1)
        out = gc.forward(Tensor4(x))
        np.testing.assert_allclose(out.data, expect, rtol=1e-10, atol=1e-12)

    def test_divisibility_error(self):
        with pytest.raises(ShapeError, match="must be even"):
            GhostConv(4, 15, rng=np.random.default_rng(4))

    def test_input_channel_error(self):
        gc = GhostConv(4, 8, rng=np.random.default_rng(4))
        with pytest.raises(ShapeError):
            gc.forward(Tensor4.zeros(1, 3, 4, 4))

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check(self, seed):
        rep = gradcheck_row("ghost_conv", 600 + seed)
        assert rep.passed, rep


class TestC3Ghost:
    def test_shape_preserved(self):
        rng = np.random.default_rng(5)
        blk = C3Block(8, 8, n=1, rng=rng)
        out = blk.forward(Tensor4(rng.normal(size=(2, 8, 6, 6))))
        assert out.shape == (2, 8, 6, 6)

    def test_identity_residual_when_bottleneck_zeroed(self):
        """Zeroed bottleneck convs leave branch A equal to its cv1 input."""
        rng = np.random.default_rng(6)
        blk = C3Block(8, 8, n=1, rng=rng)
        bn = blk.blocks[0]
        for conv in (bn.expand.primary, bn.expand.cheap, bn.project.primary,
                     bn.project.cheap):
            conv.weight = Tensor4(np.zeros_like(conv.weight.data))
        x = Tensor4(rng.normal(size=(1, 8, 4, 4)))
        a_in = blk.cv1.forward(x)
        a_out = bn.forward(a_in)
        np.testing.assert_array_equal(a_out.data, a_in.data)

    def test_ghost_bottleneck_adds_its_input(self):
        """c -> 2c -> c, and the input is always added back."""
        rng = np.random.default_rng(8)
        blk = GhostBottleneck(8, rng=rng)
        halves = [(g.primary.spec.c_out, g.cheap.spec.c_out) for g in (blk.expand, blk.project)]
        assert halves == [(8, 8), (4, 4)]
        x = Tensor4(rng.normal(size=(1, 8, 4, 4)))
        branch = blk.project.forward(blk.expand.forward(x))
        np.testing.assert_array_equal(blk.forward(x).data, x.data + branch.data)

    def test_full_width(self):
        """Both branches and the bottlenecks carry c_out channels, as the paper builds C3."""
        blk = C3Block(8, 16, rng=np.random.default_rng(7))
        assert blk.cv1.spec.c_out == blk.cv2.spec.c_out == 16
        assert blk.blocks[0].expand.primary.spec.c_in == 16
        with pytest.raises(ShapeError, match="c_out 0 < 1"):
            C3Block(8, 0, rng=np.random.default_rng(7))

    def test_channel_mismatch(self):
        blk = C3Block(8, 8, rng=np.random.default_rng(7))
        with pytest.raises(ShapeError):
            blk.forward(Tensor4.zeros(1, 4, 4, 4))

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check(self, seed):
        rep = gradcheck_row("c3ghost_block", 700 + seed)
        assert rep.passed, rep


@pytest.mark.parametrize("block", [SimConv, GhostConv, GhostBottleneck, PlainBottleneck,
                                   C3Block, SimSppf, PlainSppf, IgdNeck])
def test_block_requires_its_callers_generator(block):
    """`rng` is keyword-only with no default: no block seeds a generator of its own."""
    rng = inspect.signature(block).parameters["rng"]
    assert rng.kind is inspect.Parameter.KEYWORD_ONLY
    assert rng.default is inspect.Parameter.empty


class TestCounting:
    def test_standard_conv_3x3(self):
        """Conv weights only: the batchnorm's gamma and beta are not counted."""
        conv = SimConv(64, 64, k=3, rng=np.random.default_rng(0))
        params, _ = count_params_flops(conv, 8, 8)
        assert params == 36864 == conv.param_count() - 2 * 64

    def test_ghost_closed_form(self):
        """ratio=2, k=1, d=3, 64->64: 32*64 + 32*9 = 2336 vs plain 4096."""
        rng = np.random.default_rng(0)
        params, _ = count_params_flops(GhostConv(64, 64, rng=rng), 8, 8)
        assert params == 32 * 64 + 32 * 9 == 2336
        plain, _ = count_params_flops(SimConv(64, 64, k=1, rng=rng), 8, 8)
        assert plain == 4096
        assert params < plain

    def test_flops_convention(self):
        _, flops = count_params_flops(SimConv(4, 8, k=3, rng=np.random.default_rng(0)), 10, 10)
        assert flops == 2 * 8 * 4 * 3 * 3 * 10 * 10

    def test_ghost_cheaper_across_grid(self):
        """Economy holds wherever the cheap kernel costs less than a primary column,
        against a plain conv of the primary's size and of the cheap kernel's."""
        rng = np.random.default_rng(0)
        for c in (8, 16, 32, 64):
            if CHEAP_K * CHEAP_K >= c * PRIMARY_K * PRIMARY_K:  # cheap op would not be cheap
                continue
            g, _ = count_params_flops(GhostConv(c, c, rng=rng), 8, 8)
            for k in (PRIMARY_K, CHEAP_K):
                s, _ = count_params_flops(SimConv(c, c, k=k, rng=rng), 8, 8)
                assert g < s, (c, k)

    def test_c3ghost_cheaper_than_plain_closed_form(self):
        rng = np.random.default_rng(0)
        for c_in, c_out in ((16, 16), (32, 32), (16, 32), (64, 64)):
            for n in (1, 2, 3):
                gp, gf = count_params_flops(C3Block(c_in, c_out, n, rng=rng), 8, 8)
                pp, pf = count_params_flops(C3Block(c_in, c_out, n, ghost=False, rng=rng), 8, 8)
                assert gp < pp, (c_in, c_out, n, gp, pp)
                assert gf < pf, (c_in, c_out, n, gf, pf)

    def test_closed_form_matches_registry_enumeration(self):
        """Closed forms written out from the paper's wiring arbitrate the counts
        read off the built blocks' registries."""

        def ghost(c_in, c_out):  # GhostNet ratio 2: 1x1 primary, 3x3 depthwise cheap
            return (c_out // 2) * c_in * 1 * 1 + (c_out // 2) * 3 * 3

        def c3(c_in, c, n, bottleneck):  # cv1, cv2: c_in -> c; cv3: 2c -> c
            return 2 * c_in * c + 2 * c * c + n * bottleneck(c)

        def ghost_bottleneck(c):
            return ghost(c, 2 * c) + ghost(2 * c, c)

        def plain_bottleneck(c):  # 1x1 then 3x3, both c -> c
            return c * c * 1 * 1 + c * c * 3 * 3

        rng = np.random.default_rng(9)
        for c_in, c_out, n in ((8, 8, 1), (16, 16, 2), (8, 16, 1)):
            for flag, bottleneck in ((True, ghost_bottleneck), (False, plain_bottleneck)):
                want = c3(c_in, c_out, n, bottleneck)
                blk = C3Block(c_in, c_out, n, ghost=flag, rng=rng)
                assert count_params_flops(blk, 8, 8) == (want, 2 * want * 8 * 8), (c_in, c_out, n)
            assert c3(c_in, c_out, n, ghost_bottleneck) < c3(c_in, c_out, n, plain_bottleneck)
