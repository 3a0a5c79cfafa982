"""The handoff backward on the whole model plus loss.

Leaves (parameters and the input image) must get the gradients of the
earlier pre-zeroing replay byte for byte, sign of zero included, and
backward's own allocations must stay below the forward arrays it replays.
"""

import tracemalloc

import numpy as np
import pytest

from microdet.dataio import generate_toy_scene
from microdet.losses import LossWeights, detection_loss
from microdet.model import ModelConfig, ablation_configs, build_model
from microdet.tensor import GradTape, Tensor4, backward
from oracles import backward_prezero_oracle

CONFIGS = {**ablation_configs(), "full_c3ghost": ModelConfig()}


def _model_tape(cfg, seed, n):
    """Model and detection loss recorded on n toy scenes of 64 px."""
    model = build_model(cfg, seed)
    model.set_training(True, track_stats=False)
    scenes = [generate_toy_scene(seed * 10 + i, image_size=64) for i in range(n)]
    x = Tensor4(np.concatenate([img.data for img, _ in scenes], axis=0))
    tape = GradTape()
    detection_loss(model.forward(x, tape), [gts for _, gts in scenes], LossWeights(), tape)
    return tape, model, x


def _leaf_grads(cfg, seed, replay):
    tape, model, x = _model_tape(cfg, seed, n=2)
    replay(tape)
    grads = {name: p.grad.tobytes() for name, p in model.named_params()}
    grads["image"] = x.grad.tobytes()
    return grads


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_leaf_grads_match_prezero_oracle(name, seed):
    got = _leaf_grads(CONFIGS[name], seed, backward)
    want = _leaf_grads(CONFIGS[name], seed, backward_prezero_oracle)
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_backward_peak_below_forward_arrays():
    """Produced gradients are released after use, so backward never holds as
    many bytes as the tape's forward arrays (batch 4 at 64 px)."""
    tape, _, _ = _model_tape(ModelConfig(), 0, n=4)
    forward_bytes = sum(t.data.nbytes for t in tape.tensors())
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        backward(tape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak - base < forward_bytes, (peak - base, forward_bytes)
