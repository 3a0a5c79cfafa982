"""SimConv's inference forward folds batchnorm into the conv.

The folded forward must stay within 1e-12 of the conv -> batchnorm forward,
relative to the largest output of each level, and the cached folded
parameters must never outlive the weights or statistics they were built from:
`set_training` and `load_weights` drop them.
"""

from dataclasses import replace

import numpy as np
import pytest

import microdet.sppf
from microdet.activations import apply_activation
from microdet.losses import Box, LossWeights, detection_loss
from microdet.metrics import GroundTruth
from microdet.model import ModelConfig, ablation_configs, build_model, load_weights, save_weights
from microdet.tensor import GradTape, Tensor4, backward, batchnorm2d, conv2d
from microdet.train import LrSchedule, TrainParams, TrainState, adamw_step

REL_TOL = 1e-12
CONFIGS = {**ablation_configs(), "full_c3ghost": ModelConfig()}


def _image(seed, n=1):
    return Tensor4(np.random.default_rng(seed).normal(size=(n, 3, 64, 64)) * 0.3 + 0.4)


def _model_with_moved_stats(cfg, seed):
    """A model whose affine parameters and running statistics are off their init values."""
    model = build_model(cfg, seed)
    rng = np.random.default_rng(seed + 100)
    for bn in model.batchnorms():
        c = bn.channels
        bn.gamma.data = rng.uniform(0.5, 1.5, size=(1, c, 1, 1))
        bn.beta.data = rng.normal(0.0, 0.2, size=(1, c, 1, 1))
    model.set_training(True, track_stats=True)
    for i in range(2):
        model.forward(_image(seed + i, n=2))
    model.set_training(False)
    return model


def _assert_within_fold_tolerance(got, want):
    for lv_got, lv_want in zip(got.levels, want.levels):
        for a, b in ((lv_got.cls.data, lv_want.cls.data), (lv_got.box.data, lv_want.box.data)):
            assert np.abs(a - b).max() <= REL_TOL * np.abs(b).max()


def _count_batchnorm_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return batchnorm2d(*args, **kwargs)

    monkeypatch.setattr(microdet.sppf, "batchnorm2d", counting)
    return calls


@pytest.mark.parametrize("name", list(CONFIGS))
def test_folded_forward_within_tolerance(monkeypatch, name):
    model = _model_with_moved_stats(CONFIGS[name], seed=len(name))
    bn = next(model.batchnorms())
    assert not np.array_equal(bn.running_var, np.ones(bn.channels))
    x = _image(7)
    calls = _count_batchnorm_calls(monkeypatch)
    folded = model.forward(x)
    assert calls == []
    unfolded = model.forward(x, GradTape())  # a tape keeps conv -> batchnorm
    assert calls
    _assert_within_fold_tolerance(folded, unfolded)


def test_fold_is_reused_until_dropped():
    model = _model_with_moved_stats(ModelConfig(), seed=1)
    model.forward(_image(2))
    cached = model.stem1._folded
    model.forward(_image(3))
    assert model.stem1._folded is cached
    model.set_training(False)
    assert model.stem1._folded is None


def test_load_weights_drops_the_fold(tmp_path):
    """set_inference, forward, load other weights, forward == a fresh load of that file."""
    path = tmp_path / "other.w1"
    save_weights(_model_with_moved_stats(ModelConfig(), seed=3), path)
    x = _image(4)
    model = build_model(ModelConfig(), 0)
    model.set_inference()
    model.forward(x)
    load_weights(model, path)
    got = model.forward(x)
    fresh = build_model(ModelConfig(), 0)
    load_weights(fresh, path)
    fresh.set_inference()
    want = fresh.forward(x)
    for lv_got, lv_want in zip(got.levels, want.levels):
        assert np.array_equal(lv_got.cls.data, lv_want.cls.data)
        assert np.array_equal(lv_got.box.data, lv_want.box.data)


def test_set_training_drops_the_fold():
    """An optimizer step between two inference phases is seen by the second one."""
    cfg = replace(ModelConfig(), num_classes=2)
    model = _model_with_moved_stats(cfg, seed=5)
    x = _image(6)
    model.forward(x)
    model.set_training(True, track_stats=True)
    state = TrainState(model=model, schedule=LrSchedule(0.01, 10, warmup_steps=1))
    state.init_moments()
    gts = [[GroundTruth(0, Box(0.4, 0.4, 0.3, 0.3), "0"),
            GroundTruth(1, Box(0.75, 0.7, 0.2, 0.25), "0")]]
    tape = GradTape()
    detection_loss(model.forward(_image(8), tape), gts, LossWeights(), tape)
    backward(tape)
    adamw_step(state, TrainParams())
    model.set_training(False)

    conv = model.stem1
    by_hand = apply_activation(batchnorm2d(conv2d(x, conv.spec, conv.weight), conv.bn),
                               conv.activation).data
    got = conv.forward(x).data
    assert np.abs(got - by_hand).max() <= REL_TOL * np.abs(by_hand).max()
    _assert_within_fold_tolerance(model.forward(x), model.forward(x, GradTape()))
