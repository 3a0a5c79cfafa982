"""The handoff backward on the whole model plus loss.

Parameters, and the input image when it is marked requires_grad, must get
the gradients of the earlier pre-zeroing replay byte for byte, sign of zero
included; an image that is not marked gets none. Backward's own allocations
must stay below the forward arrays it replays, skipping the image's gradient
must save at least the image's bytes, and a k x k conv's weight gradient
must not hold a whole batch of per-image products.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from microdet.dataio import generate_toy_scene
from microdet.losses import LossWeights, detection_loss
from microdet.model import ModelConfig, ablation_configs, build_model
from microdet.tensor import ConvSpec, GradTape, Tensor4, backward, conv2d
from oracles import backward_prezero_oracle

CONFIGS = {**ablation_configs(), "full_c3ghost": ModelConfig()}


def _model_tape(cfg, seed, n, image=False):
    """Model and detection loss recorded on n toy scenes of 64 px, with the
    image marked requires_grad when `image` is set."""
    model = build_model(cfg, seed)
    model.set_training(True, track_stats=False)
    scenes = [generate_toy_scene(seed * 10 + i, image_size=64) for i in range(n)]
    x = Tensor4(np.concatenate([img.data for img, _ in scenes], axis=0))
    x.requires_grad = image
    tape = GradTape()
    detection_loss(model.forward(x, tape), [gts for _, gts in scenes], LossWeights(), tape)
    return tape, model, x


def _leaf_grads(cfg, seed, replay, image):
    tape, model, x = _model_tape(cfg, seed, n=2, image=image)
    replay(tape, x)
    grads = {name: p.grad.tobytes() for name, p in model.named_params()}
    if image:
        grads["image"] = x.grad.tobytes()
    return grads


def _backward(tape, x):
    backward(tape)
    assert (x.grad is not None) == x.requires_grad


def _prezero(tape, x):
    backward_prezero_oracle(tape)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_leaf_grads_match_prezero_oracle(name, seed):
    """By default only the parameters get gradients, and the image none."""
    got = _leaf_grads(CONFIGS[name], seed, _backward, image=False)
    want = _leaf_grads(CONFIGS[name], seed, _prezero, image=False)
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_named_image_grads_match_prezero_oracle(name, seed):
    """Marking the image gives it, and every parameter, the oracle's gradient."""
    got = _leaf_grads(CONFIGS[name], seed, _backward, image=True)
    want = _leaf_grads(CONFIGS[name], seed, _prezero, image=True)
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_tape_is_freed_without_the_cycle_collector():
    """No backward closure holds the tape, so dropping the last reference frees
    it and its forward arrays at once; a cycle would keep each step's tape
    alive until the collector ran."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape, _, _ = _model_tape(ModelConfig(), 0, n=1)
        backward(tape)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _traced_peak(fn):
    """Bytes fn allocates at its peak, above what was allocated before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - base


def test_backward_peak_below_forward_arrays():
    """Produced gradients are released after use, so backward never holds as
    many bytes as the tape's forward arrays (batch 4 at 64 px)."""
    tape, _, _ = _model_tape(ModelConfig(), 0, n=4)
    forward_bytes = sum(t.data.nbytes for t in tape.tensors())
    peak = _traced_peak(lambda: backward(tape))
    assert peak < forward_bytes, (peak, forward_bytes)


def test_unnamed_image_saves_at_least_its_bytes():
    """Without the image's gradient the stem conv allocates no dx, dcol or
    padded scatter, so backward's peak falls by at least the image's size."""
    peaks = {}
    for image in (True, False):
        tape, _, x = _model_tape(ModelConfig(), 0, n=4, image=image)
        peaks[image] = _traced_peak(lambda: backward(tape))
    assert x.grad is None
    marked, default = peaks[True], peaks[False]
    assert default + x.data.nbytes <= marked, (default, marked, x.data.nbytes)


def test_dense_conv_weight_gradient_is_summed_per_image():
    """A 3x3 conv sums its weight gradient one image at a time, so backward
    never holds the batch's (n, c_out, c_in * 9) products, which alone are
    6.6 MB for 96 -> 48 channels at batch 20."""
    rng = np.random.default_rng(5)
    spec = ConvSpec(96, 48, k=3, p=1)
    x = Tensor4(rng.normal(size=(20, 96, 2, 2)))
    w = Tensor4(rng.normal(size=spec.weight_shape()))
    x.requires_grad = w.requires_grad = True
    tape = GradTape()
    conv2d(x, spec, w, tape=tape)
    peak = _traced_peak(lambda: backward(tape))
    product_bytes = 20 * 48 * 96 * 9 * 8
    assert peak < product_bytes, (peak, product_bytes)
    assert w.grad.shape == spec.weight_shape() and x.grad.shape == x.shape
