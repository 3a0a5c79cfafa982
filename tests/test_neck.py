"""Gather-distribute neck: shape contracts, gating, and cross-scale flow."""

import numpy as np
import pytest

from microdet.neck import IgdNeck, PyramidFeatures
from microdet.selftest import gradcheck_row
from microdet.tensor import GradTape, ShapeError, Tensor4, backward, grad_check


def make_pyramid(rng, n=1, channels=(4, 8, 12), dims=((8, 8), (4, 4), (2, 2))):
    return PyramidFeatures(
        *[Tensor4(rng.normal(size=(n, c, h, w))) for c, (h, w) in zip(channels, dims)]
    )


class TestPyramid:
    def test_validate_accepts_halving(self):
        make_pyramid(np.random.default_rng(0)).validate()

    def test_validate_rejects_bad_dims(self):
        rng = np.random.default_rng(1)
        feats = make_pyramid(rng, dims=((8, 8), (4, 4), (3, 3)))
        with pytest.raises(ShapeError, match="halve"):
            feats.validate()

    def test_validate_rejects_batch_mismatch(self):
        rng = np.random.default_rng(2)
        feats = make_pyramid(rng)
        feats.p5 = Tensor4(rng.normal(size=(2, 12, 2, 2)))
        with pytest.raises(ShapeError, match="batch"):
            feats.validate()


class TestGather:
    def test_fused_at_p4_resolution(self):
        rng = np.random.default_rng(3)
        neck = IgdNeck((4, 8, 12), rng=rng)
        fused = neck.top_down.gather(make_pyramid(rng))
        assert fused.shape == (1, 8, 4, 4)

    def test_zero_input_gives_constant_channels(self):
        rng = np.random.default_rng(4)
        neck = IgdNeck((4, 8, 12), rng=rng)
        zeros = PyramidFeatures(Tensor4.zeros(1, 4, 8, 8), Tensor4.zeros(1, 8, 4, 4),
                                Tensor4.zeros(1, 12, 2, 2))
        fused = neck.top_down.gather(zeros)
        for c in range(fused.shape[1]):
            vals = fused.data[0, c]
            assert np.ptp(vals) == 0.0

    def test_every_level_perturbation_moves_fused(self):
        rng = np.random.default_rng(5)
        neck = IgdNeck((4, 8, 12), rng=rng)
        feats = make_pyramid(rng)
        base = neck.top_down.gather(feats).data
        for name in ("p3", "p4", "p5"):
            pert = make_pyramid(rng)
            for other in ("p3", "p4", "p5"):
                getattr(pert, other).data[:] = getattr(feats, other).data
            getattr(pert, name).data[0, 0, 0, 0] += 0.5
            moved = neck.top_down.gather(pert).data
            assert np.abs(moved - base).max() > 0, name


class TestInject:
    def test_zero_projection_is_identity(self):
        rng = np.random.default_rng(6)
        neck = IgdNeck((4, 8, 12), rng=rng)
        inj = neck.top_down.inject3
        inj.proj_weight = Tensor4(np.zeros_like(inj.proj_weight.data))
        level = Tensor4(rng.normal(size=(1, 4, 8, 8)))
        fused = Tensor4(rng.normal(size=(1, 8, 4, 4)))
        out = inj.forward(level, fused)
        np.testing.assert_array_equal(out.data, level.data)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        neck = IgdNeck((4, 8, 12), rng=rng)
        inj = neck.top_down.inject4
        tape = GradTape()
        inj.forward(Tensor4(rng.normal(size=(1, 8, 4, 4))),
                    Tensor4(rng.normal(size=(1, 8, 4, 4))), tape)
        gates = [e.output for e in tape._entries][-3]  # sigmoid before mul/add
        assert (gates.data > 0).all() and (gates.data < 1).all()

    def test_grads_reach_both_level_and_fused(self):
        rng = np.random.default_rng(8)
        neck = IgdNeck((4, 8, 12), rng=rng)
        inj = neck.top_down.inject3
        level = Tensor4(rng.normal(size=(1, 4, 8, 8)))
        fused = Tensor4(rng.normal(size=(1, 8, 4, 4)))
        level.requires_grad = fused.requires_grad = True
        tape = GradTape()
        inj.forward(level, fused, tape)
        backward(tape)
        assert np.abs(level.grad).max() > 0
        assert np.abs(fused.grad).max() > 0

        rep = grad_check(lambda t, tape: inj.forward(level, t, tape), fused, tol=1e-4)
        assert rep.passed, rep


class TestNeckForward:
    def test_shapes_preserved(self):
        rng = np.random.default_rng(9)
        neck = IgdNeck((4, 8, 12), rng=rng)
        feats = make_pyramid(rng, n=2)
        out = neck.forward(feats)
        for a, b in zip(out.levels(), feats.levels()):
            assert a.shape == b.shape

    def test_channel_mismatch_error(self):
        rng = np.random.default_rng(10)
        neck = IgdNeck((4, 8, 12), rng=rng)
        feats = make_pyramid(rng, channels=(4, 8, 16))
        with pytest.raises(ShapeError):
            neck.forward(feats)

    def test_full_cross_scale_sensitivity(self):
        """All nine (input level, output level) pairs carry signal."""
        rng = np.random.default_rng(11)
        neck = IgdNeck((4, 8, 12), rng=rng)
        neck.set_training(False)
        feats = make_pyramid(rng)
        base = [t.data.copy() for t in neck.forward(feats).levels()]
        for i, name in enumerate(("p3", "p4", "p5")):
            pert = make_pyramid(rng)
            for other in ("p3", "p4", "p5"):
                getattr(pert, other).data[:] = getattr(feats, other).data
            getattr(pert, name).data[0, 0, 0, 0] += 1e-3
            moved = neck.forward(pert).levels()
            for j in range(3):
                delta = np.abs(moved[j].data - base[j]).max()
                assert delta > 0, f"input {name} does not reach output level {j + 3}"

    def test_deterministic_forward(self):
        rng = np.random.default_rng(12)
        neck = IgdNeck((4, 8, 12), rng=rng)
        neck.set_training(False)
        feats = make_pyramid(rng)
        a = neck.forward(feats)
        b = neck.forward(feats)
        for ta, tb in zip(a.levels(), b.levels()):
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_check_micro_pyramid(self, seed):
        rep = gradcheck_row("igd_neck_forward", 800 + seed)
        assert rep.passed, rep

    def test_param_registry_covers_both_passes(self):
        neck = IgdNeck((4, 8, 12), rng=np.random.default_rng(13))
        names = [n for n, _ in neck.named_params()]
        assert any(n.startswith("top_down.") for n in names)
        assert any(n.startswith("bottom_up.") for n in names)
        assert any("inject3" in n for n in names)
        assert any("inject5" in n for n in names)
