"""Toy training loop: decoupled-weight-decay adaptive moments on the registry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import DatasetManifest
from .losses import LossWeights, detection_loss
from .metrics import Detection, GroundTruth
from .model import MicroDetector, ModelConfig, build_model, decode
from .tensor import DomainError, GradTape, ShapeError, Tensor4, backward


@dataclass
class TrainParams:
    """A run: `steps` full-batch steps from `seed`.

    The recipe is YOLOv8's and fixed, so these are class constants, not
    config keys: AdamW with first-moment coefficient `momentum`, linear
    warmup over `warmup_steps` then cosine decay from `lr` to
    `lr_final_frac * lr`, and the loss gains of `LossWeights`.
    """

    lr = 0.01
    weight_decay = 0.0005
    momentum = 0.937
    beta2 = 0.999
    eps = 1e-8
    warmup_steps = 30
    lr_final_frac = 0.05

    steps: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError("train_params", f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise DomainError("train_params", f"seed must be >= 0, got {self.seed}")

    def loss_weights(self):
        return LossWeights()


@dataclass
class LrSchedule:
    """Linear warmup then cosine decay to final_frac * base."""

    base_lr: float
    total_steps: int
    warmup_steps: int
    final_frac: float

    def lr(self, step):
        if step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        span = max(1, self.total_steps - self.warmup_steps)
        t = min(1.0, (step - self.warmup_steps) / span)
        lo = self.base_lr * self.final_frac
        return lo + 0.5 * (self.base_lr - lo) * (1.0 + np.cos(np.pi * t))


@dataclass
class TrainState:
    model: MicroDetector
    schedule: LrSchedule
    moment1: dict = field(default_factory=dict)
    moment2: dict = field(default_factory=dict)
    step: int = 0
    seed: int = 0

    def init_moments(self):
        for name, p in self.model.named_params():
            self.moment1[name] = np.zeros_like(p.data)
            self.moment2[name] = np.zeros_like(p.data)


def adamw_step(state: TrainState, params: TrainParams):
    """One decoupled-weight-decay update over the registry, in registry order."""
    lr = state.schedule.lr(state.step)
    b1, b2 = params.momentum, params.beta2
    t = state.step + 1
    for name, p in state.model.named_params():
        g = p.grad
        if g is None:
            continue
        m = state.moment1[name] = b1 * state.moment1[name] + (1 - b1) * g
        v = state.moment2[name] = b2 * state.moment2[name] + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data -= lr * (mhat / (np.sqrt(vhat) + params.eps)
                        + params.weight_decay * p.data)
    state.model.drop_caches()  # folded inference weights are stale now
    state.step += 1
    return lr


def _stack_images(manifest: DatasetManifest):
    """The whole manifest as one (n, 3, h, w) batch; every image must share a shape."""
    imgs = [manifest.load_image(i) for i in range(len(manifest.entries))]
    shape = imgs[0].shape
    for i, img in enumerate(imgs):
        if img.shape != shape:
            raise ShapeError("train", f"image {i} shape {img.shape} != {shape}")
    return Tensor4(np.concatenate([im.data for im in imgs], axis=0))


def train_toy(manifest: DatasetManifest, model_cfg: ModelConfig,
              params: TrainParams, log_every=0):
    """Optimize the detection loss on a toy manifest; deterministic per seed.

    Every one of the `params.steps` steps runs the whole manifest as one
    batch. Returns (TrainState, curve) where curve holds one
    (step, lr, total, cls, box, dfl) row per step. Non-finite losses abort
    with the offending term named.
    """
    if not manifest.entries:
        raise DomainError("train", "manifest has no images")
    batch = _stack_images(manifest)
    gts = [manifest.load_gts(i) for i in range(len(manifest.entries))]
    model = build_model(model_cfg, params.seed)
    model.set_training(True, track_stats=True)
    state = TrainState(model=model, seed=params.seed,
                       schedule=LrSchedule(params.lr, params.steps,
                                           params.warmup_steps, params.lr_final_frac))
    state.init_moments()
    weights = params.loss_weights()
    curve = []
    for step in range(params.steps):
        tape = GradTape()
        preds = model.forward(batch, tape)
        _, breakdown = detection_loss(preds, gts, weights, tape)
        for term in ("cls", "box", "dfl", "total"):
            if not np.isfinite(breakdown[term]):
                raise DomainError("train", f"non-finite {term} loss at step {step}")
        backward(tape)
        lr = adamw_step(state, params)
        curve.append((step, lr, breakdown["total"], breakdown["cls"],
                      breakdown["box"], breakdown["dfl"]))
        if log_every and step % log_every == 0:
            print(f"step {step} lr {lr:.5f} total {breakdown['total']:.5f} "
                  f"cls {breakdown['cls']:.5f} box {breakdown['box']:.5f} "
                  f"dfl {breakdown['dfl']:.5f}")
    return state, curve


def predict_manifest(model: MicroDetector, cfg: ModelConfig, manifest: DatasetManifest):
    """Inference over a manifest: (detections, ground truths) with file-stem ids."""
    model.set_training(False)
    dets, gts = [], []
    for i, (img_path, _) in enumerate(manifest.entries):
        stem = img_path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        img = manifest.load_image(i)
        preds = model.forward(img)
        for d in decode(preds, cfg):
            dets.append(Detection(d.class_id, d.confidence, d.box, stem))
        for g in manifest.load_gts(i):
            gts.append(GroundTruth(g.class_id, g.box, stem))
    return dets, gts
