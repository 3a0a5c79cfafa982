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
    """A model under training, its schedule, and AdamW's state.

    init_moments() lays the parameters out in one flat float64 buffer,
    `values`, in registry order: each parameter's .data becomes a view into
    it, and the two moments are flat arrays of the same length. Anything that
    writes parameters afterwards (load_weights, say) must write into .data,
    not rebind it.
    """

    model: MicroDetector
    schedule: LrSchedule
    step: int = 0
    seed: int = 0
    values: np.ndarray = field(default=None, init=False, repr=False)
    moment1: np.ndarray = field(default=None, init=False, repr=False)
    moment2: np.ndarray = field(default=None, init=False, repr=False)
    bounds: list = field(default_factory=list, init=False, repr=False)

    def init_moments(self):
        params = [p for _, p in self.model.named_params()]
        self.values = np.concatenate([p.data for p in params], axis=None)
        self.moment1 = np.zeros_like(self.values)
        self.moment2 = np.zeros_like(self.values)
        self.bounds = []
        lo = 0
        for p in params:
            hi = lo + p.numel
            p.data = self.values[lo:hi].reshape(p.shape)
            self.bounds.append((lo, hi))
            lo = hi


def _grad_runs(state: TrainState):
    """(lo, hi, grads) per maximal run of registry neighbours marked requires_grad with a grad."""
    runs = []
    open_run = None
    for (name, p), (lo, hi) in zip(state.model.named_params(), state.bounds, strict=True):
        if p.data.base is not state.values:
            raise DomainError("train", f"parameter {name} no longer views the optimizer "
                                       "buffer; call init_moments after replacing it")
        if not p.requires_grad:
            p.grad = None  # stale: backward refreshes only marked leaves
        if p.grad is None:
            open_run = None
        elif open_run is None:
            open_run = [lo, hi, [p.grad]]
            runs.append(open_run)
        else:
            open_run[1] = hi
            open_run[2].append(p.grad)
    return runs


def adamw_step(state: TrainState, params: TrainParams):
    """One decoupled-weight-decay update of the flat parameter buffer, in place.

    Per element, in this order (an unmarked parameter, or one without a grad,
    keeps its value and its moments; an unmarked one's stale grad is dropped):

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1**t) / (sqrt(v / (1 - b2**t)) + eps) + weight_decay * p)

    The grads are gathered with one concatenate; one more array of that size
    is the only other scratch.
    """
    lr = state.schedule.lr(state.step)
    b1, b2 = params.momentum, params.beta2
    t = state.step + 1
    for lo, hi, grads in _grad_runs(state):
        p, m, v = state.values[lo:hi], state.moment1[lo:hi], state.moment2[lo:hi]
        g = np.concatenate(grads, axis=None)
        a = np.multiply(g, 1 - b1)
        m *= b1
        m += a
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v *= b2
        v += a
        np.divide(v, 1 - b2**t, out=a)
        np.sqrt(a, out=a)
        a += params.eps
        np.divide(m, 1 - b1**t, out=g)
        g /= a
        g += np.multiply(p, params.weight_decay, out=a)
        g *= lr
        p -= g
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


def train_toy(manifest: DatasetManifest, model_cfg: ModelConfig, params: TrainParams):
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
