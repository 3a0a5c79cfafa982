"""Micro detector assembly: backbone, fusion neck, anchor-free decoupled head.

The backbone is two stride-2 stem convs followed by three stages of
{stride-2 downsample, C3 block, energy attention} emitting strides 8/16/32,
with the pooling pyramid on the deepest level. Every architectural piece is
toggleable so the ablation axes (pyramid block, attention, fusion neck,
activation, ghost bottlenecks) can each be switched independently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .activations import ACTIVATION_KINDS
from .dataio import _MAX_HEADER, _read_exact, _read_t4_record, _write_t4_record
from .ghost import C3Block
from .losses import Box, box_iou
from .metrics import Detection
from .module import Module, ModuleList, he_weight
from .neck import IgdNeck, PyramidFeatures
from .simam import simam_forward
from .sppf import PlainSppf, SimConv, SimSppf
from .tensor import (
    ConvSpec,
    DomainError,
    GradTape,
    ShapeError,
    Tensor4,
    conv2d,
    _stable_sigmoid,
)

# output strides of the three levels: two stride-2 stem convs, then a stride-2
# downsample per stage
STRIDES = (8, 16, 32)
STEM_CHANNELS = (4, 8)
STAGE_CHANNELS = (16, 32, 48)
REPEATS = 2  # bottlenecks per stage's C3 block
REG_MAX = 8  # distance bins per box side


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int = 2
    activation: str = "mish"
    use_simsppf: bool = True
    use_simam: bool = True
    use_igd: bool = True
    use_c3ghost: bool = True
    conf_threshold: float = 0.25
    nms_iou: float = 0.5

    def __post_init__(self):
        if self.num_classes < 1:
            raise DomainError("model_config", f"num_classes must be >= 1, got {self.num_classes}")
        if self.activation not in ACTIVATION_KINDS:
            raise DomainError("model_config", f"activation {self.activation!r} not in "
                                              f"{ACTIVATION_KINDS}")
        if not 0 <= self.conf_threshold <= 1:
            raise DomainError("model_config",
                              f"conf_threshold {self.conf_threshold} not in [0, 1]")
        if not 0 < self.nms_iou <= 1:
            raise DomainError("model_config", f"nms_iou {self.nms_iou} not in (0, 1]")


@dataclass
class LevelPreds:
    cls: Tensor4
    box: Tensor4
    stride: int


@dataclass
class RawPredictions:
    """Per-level predictions; the class and bin counts are read off the tensors."""

    levels: list[LevelPreds]

    @property
    def num_classes(self):
        return self.levels[0].cls.shape[1]

    @property
    def reg_max(self):
        return self.levels[0].box.shape[1] // 4


class _Head(Module):
    """Per-level decoupled branches for class logits and bin-distribution logits."""

    def __init__(self, c, num_classes, activation, rng):
        super().__init__()
        self.cls_stem = SimConv(c, c, k=1, activation=activation, rng=rng)
        self.cls_spec = ConvSpec(c, num_classes, k=1)
        self.cls_weight = he_weight(rng, num_classes, c, 1)
        # start object confidence near 1% so early training is not flooded
        self.cls_bias = Tensor4(np.full((1, num_classes, 1, 1), -np.log(99.0)))
        self.box_stem = SimConv(c, c, k=1, activation=activation, rng=rng)
        self.box_spec = ConvSpec(c, 4 * REG_MAX, k=1)
        self.box_weight = he_weight(rng, 4 * REG_MAX, c, 1)
        self.box_bias = Tensor4(np.zeros((1, 4 * REG_MAX, 1, 1)))

    def forward(self, x: Tensor4, tape=None):
        cls = conv2d(self.cls_stem.forward(x, tape), self.cls_spec, self.cls_weight,
                     bias=self.cls_bias, tape=tape)
        box = conv2d(self.box_stem.forward(x, tape), self.box_spec, self.box_weight,
                     bias=self.box_bias, tape=tape)
        return cls, box


class _Stage(Module):
    def __init__(self, c_in, c_out, cfg: ModelConfig, rng):
        super().__init__()
        self.down = SimConv(c_in, c_out, k=3, s=2, activation=cfg.activation, rng=rng)
        self.c3 = C3Block(c_out, c_out, n=REPEATS, ghost=cfg.use_c3ghost,
                          activation=cfg.activation, rng=rng)
        self.use_simam = cfg.use_simam

    def forward(self, x: Tensor4, tape=None):
        y = self.c3.forward(self.down.forward(x, tape), tape)
        # attention needs at least two spatial positions for a variance
        if self.use_simam and y.shape[2] * y.shape[3] >= 2:
            y = simam_forward(y, tape)
        return y


class MicroDetector(Module):
    """The assembled graph; named_params() is the parameter registry."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        c0, c1 = STEM_CHANNELS
        ch = STAGE_CHANNELS
        act = cfg.activation
        self.stem1 = SimConv(3, c0, k=3, s=2, activation=act, rng=rng)
        self.stem2 = SimConv(c0, c1, k=3, s=2, activation=act, rng=rng)
        self.stages = ModuleList([_Stage(c_in, c_out, cfg, rng)
                                  for c_in, c_out in zip((c1, *ch[:2]), ch)])
        # the Sim pyramid block is Conv-BN-Mish by definition; the plain one
        # keeps the SiLU baseline regardless of the global activation toggle
        self.sppf = (SimSppf(ch[2], activation="mish", rng=rng) if cfg.use_simsppf
                     else PlainSppf(ch[2], rng=rng))
        self.neck = IgdNeck(ch, activation=act, rng=rng) if cfg.use_igd else None
        self.heads = ModuleList([_Head(c, cfg.num_classes, act, rng) for c in ch])

    def forward(self, image: Tensor4, tape: GradTape | None = None) -> RawPredictions:
        n, c, h, w = image.shape
        if c != 3:
            raise ShapeError("model", f"expected 3 input channels, got {c}")
        max_stride = STRIDES[-1]
        if h % max_stride or w % max_stride:
            raise ShapeError("model", f"input dims ({h},{w}) not divisible by {max_stride}")
        x = self.stem2.forward(self.stem1.forward(image, tape), tape)
        feats = []
        for stage in self.stages:
            x = stage.forward(x, tape)
            feats.append(x)
        feats[2] = self.sppf.forward(feats[2], tape)
        pyramid = PyramidFeatures(*feats)
        if self.neck is not None:
            pyramid = self.neck.forward(pyramid, tape)
        levels = []
        for head, level, stride in zip(self.heads, pyramid.levels(), STRIDES):
            cls, box = head.forward(level, tape)
            levels.append(LevelPreds(cls, box, stride))
        return RawPredictions(levels)

    def set_inference(self):
        self.set_training(False)


def build_model(cfg: ModelConfig, rng_seed: int = 0) -> MicroDetector:
    """Deterministic build: same config and seed give bit-identical weights."""
    return MicroDetector(cfg, np.random.default_rng(rng_seed))


# ---------------------------------------------------------------------------
# decoding


def _nms_class(corners, nms_iou):
    """Greedy NMS over one class's (K, 4) corners in visit order.

    Returns the kept indices: a candidate is kept iff its IoU with every
    earlier kept one is below nms_iou, so a NaN IoU suppresses.
    """
    ious = box_iou(corners, corners)
    live = np.ones(len(corners), dtype=bool)
    kept = []
    for i in range(len(corners)):
        if live[i]:
            kept.append(i)
            live &= ious[:, i] < nms_iou
    return kept


def decode(preds: RawPredictions, cfg: ModelConfig) -> list[Detection]:
    """Expectation-decode distributions, threshold confidences, then greedy NMS.

    Boxes are clipped to [0,1]^4 and dropped when empty. The candidates of
    an image, one per (cell, class) at or above conf_threshold, are visited
    in the order (-confidence, level, cell index, class). Classes come out
    in ascending order, each suppressing same-class overlaps at or above
    nms_iou. Each box is stored as `Box.from_corners` of the clipped
    corners, and NMS compares that box's own `corners()`, which need not
    equal the clipped ones bit for bit.
    """
    lv0 = preds.levels[0]
    batch, nc = lv0.cls.shape[:2]
    img_h, img_w = lv0.cls.shape[2] * lv0.stride, lv0.cls.shape[3] * lv0.stride
    reg_max = preds.reg_max
    # every cell of every level is one column: level by level, row-major within one
    grids = [(lv.stride, *lv.cls.shape[2:]) for lv in preds.levels]
    s = np.concatenate([np.full(gh * gw, stride) for stride, gh, gw in grids])
    ci, cj = np.concatenate([np.divmod(np.arange(gh * gw), gw) for _, gh, gw in grids], axis=1)
    conf = _stable_sigmoid(np.concatenate(
        [lv.cls.data.reshape(batch, nc, -1) for lv in preds.levels], axis=2))
    zs = np.concatenate([lv.box.data.reshape(batch, 4, reg_max, -1) for lv in preds.levels],
                        axis=3)
    zmax = zs.max(axis=2, keepdims=True)
    p = np.exp(zs - zmax)
    p /= p.sum(axis=2, keepdims=True)
    bins = np.arange(reg_max).reshape(reg_max, 1)
    l, t, r, d = (p * bins).sum(axis=2).transpose(1, 0, 2)  # (batch, cells), stride units
    cxc, cyc = (cj + 0.5) * s, (ci + 0.5) * s
    # fmax/fmin map NaN to the bound, as Python's max(0.0, v) and min(1.0, v) do
    x1 = np.fmax(0.0, (cxc - l * s) / img_w)
    y1 = np.fmax(0.0, (cyc - t * s) / img_h)
    x2 = np.fmin(1.0, (cxc + r * s) / img_w)
    y2 = np.fmin(1.0, (cyc + d * s) / img_h)
    ok = ~((x2 - x1 <= 0) | (y2 - y1 <= 0))
    img, k, cell = np.nonzero((conf >= cfg.conf_threshold) & ok[:, None, :])
    confv = conf[img, k, cell]
    order = np.lexsort((k, cell, -confv, img))
    img, k, cell, confv = img[order], k[order], cell[order], confv[order]
    x1, y1, x2, y2 = x1[img, cell], y1[img, cell], x2[img, cell], y2[img, cell]
    cx, cy, w, h = (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1
    nms_corners = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    out = []
    for b in range(batch):
        for c in range(nc):
            idx = np.flatnonzero((img == b) & (k == c))
            if not idx.size:
                continue
            keep = idx[_nms_class(nms_corners[idx], cfg.nms_iou)]
            for confidence, *box in zip(confv[keep].tolist(), cx[keep].tolist(),
                                        cy[keep].tolist(), w[keep].tolist(), h[keep].tolist()):
                out.append(Detection(c, confidence, Box(*box), str(b)))
    return out


# ---------------------------------------------------------------------------
# weight container ("W1": named T4v1 records)


def save_weights(model: MicroDetector, path):
    """Magic line, then per record: u32 LE name length, name bytes, T4v1 record."""
    records = [(name, p.data) for name, p in model.named_params()]
    records += [(name, buf.reshape(1, -1, 1, 1)) for name, buf in model.named_buffers()]
    with open(path, "wb") as fh:
        fh.write(f"W1 {len(records)}\n".encode())
        for name, arr in records:
            raw = name.encode()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            _write_t4_record(fh, arr)


def load_weights(model: MicroDetector, path):
    """Fill the registry in place from a W1 file.

    Every record is read and checked before any is assigned, so a file that
    is malformed, truncated, or holds an unknown, repeated or missing record
    raises and leaves the model untouched.
    """
    params = dict(model.named_params())
    buffers = dict(model.named_buffers())
    staged = {}
    with open(path, "rb") as fh:
        header = fh.readline(_MAX_HEADER)
        parts = header.split()
        if len(parts) != 2 or parts[0] != b"W1" or not parts[1].isdigit():
            raise DomainError("weights", f"{path}: bad W1 header {header!r}")
        for i in range(int(parts[1])):
            where = f"{path}: record {i}"
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, f"{where} name length"))
            name = _read_exact(fh, name_len, f"{where} name").decode(errors="replace")
            arr = _read_t4_record(fh, f"{path}: record {name!r}")
            if name in staged:
                raise DomainError("weights", f"{where}: repeated record {name!r}")
            if name in params:
                if params[name].shape != arr.shape:
                    raise ShapeError("weights", f"{name}: file shape {arr.shape} != "
                                                f"model shape {params[name].shape}")
            elif name in buffers:
                if buffers[name].size != arr.size:
                    raise ShapeError("weights", f"{name}: file holds {arr.size} values, "
                                                f"buffer {buffers[name].size}")
            else:
                raise DomainError("weights", f"unknown record {name!r}")
            staged[name] = arr
        if fh.read(1):
            raise DomainError("weights", f"{path}: bytes after the last record")
    missing = (set(params) | set(buffers)) - set(staged)
    if missing:
        raise DomainError("weights", f"missing records: {sorted(missing)[:4]}")
    model.drop_caches()
    for name, arr in staged.items():
        if name in params:
            params[name].data[...] = arr  # in place: the optimizer's buffer may hold it
        else:
            buffers[name][:] = arr.reshape(-1)


def ablation_configs():
    """The five cumulative ablation rows: baseline through the full model."""
    rows = {
        "expr1_baseline": dict(use_simsppf=False, use_simam=False, use_igd=False,
                               use_c3ghost=False, activation="silu"),
        "exp2_sppf": dict(use_simsppf=True, use_simam=False, use_igd=False,
                          use_c3ghost=False, activation="silu"),
        "exp3_simam": dict(use_simsppf=True, use_simam=True, use_igd=False,
                           use_c3ghost=False, activation="silu"),
        "exp4_gd": dict(use_simsppf=True, use_simam=True, use_igd=True,
                        use_c3ghost=False, activation="silu"),
        "exp5_mish": dict(use_simsppf=True, use_simam=True, use_igd=True,
                          use_c3ghost=False, activation="mish"),
    }
    return {name: ModelConfig(**kw) for name, kw in rows.items()}
