"""Gather-and-distribute feature fusion across the pyramid.

Instead of pairwise top-down/bottom-up merging, every level is aligned to a
common width, fused at the middle resolution, and the fused tensor is
injected back into individual levels through a sigmoid gate. Two sequential
passes (top-down then bottom-up) give every output level a gradient path to
every input level in one module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .module import Module, he_weight
from .sppf import SimConv
from .tensor import (
    ConvSpec,
    GradTape,
    ShapeError,
    Tensor4,
    add,
    concat_channels,
    conv2d,
    mul,
    resize_nearest,
    sigmoid,
)


@dataclass
class PyramidFeatures:
    """p3/p4/p5 feature maps at strides 8/16/32; spatial dims halve level to level."""

    p3: Tensor4
    p4: Tensor4
    p5: Tensor4

    def validate(self):
        n3, _, h3, w3 = self.p3.shape
        n4, _, h4, w4 = self.p4.shape
        n5, _, h5, w5 = self.p5.shape
        if not (n3 == n4 == n5):
            raise ShapeError("pyramid", f"batch sizes differ: {n3}, {n4}, {n5}")
        for name, (ha, wa), (hb, wb) in (("p3->p4", (h3, w3), (h4, w4)),
                                         ("p4->p5", (h4, w4), (h5, w5))):
            if (max(1, ha // 2), max(1, wa // 2)) != (hb, wb):
                raise ShapeError("pyramid", f"{name} spatial dims do not halve: "
                                            f"({ha},{wa}) vs ({hb},{wb})")

    def levels(self):
        return (self.p3, self.p4, self.p5)

    def channels(self):
        return tuple(t.shape[1] for t in self.levels())


class _Inject(Module):
    """1x1 projection of the fused tensor plus a sigmoid gate, added to a level."""

    def __init__(self, c_fused, c_level, rng: np.random.Generator):
        super().__init__()
        self.proj_spec = ConvSpec(c_fused, c_level, k=1)
        self.proj_weight = he_weight(rng, c_level, c_fused, 1)
        self.proj_bias = Tensor4(np.zeros((1, c_level, 1, 1)))
        self.gate_spec = ConvSpec(c_level, c_level, k=1)
        self.gate_weight = he_weight(rng, c_level, c_level, 1)
        self.gate_bias = Tensor4(np.zeros((1, c_level, 1, 1)))

    def forward(self, level: Tensor4, fused: Tensor4, tape: GradTape | None = None) -> Tensor4:
        proj = conv2d(fused, self.proj_spec, self.proj_weight, bias=self.proj_bias, tape=tape)
        if proj.shape[1] != level.shape[1]:
            raise ShapeError("inject", f"projected channels {proj.shape[1]} != "
                                       f"level channels {level.shape[1]}")
        proj = resize_nearest(proj, level.shape[2], level.shape[3], tape)
        gate = sigmoid(conv2d(proj, self.gate_spec, self.gate_weight,
                              bias=self.gate_bias, tape=tape), tape)
        return add(level, mul(gate, proj, tape), tape)


class _GatherPass(Module):
    """Align every level to the p4 width c_g, pool them at p4 resolution, fuse
    with a 1x1 SimConv."""

    def __init__(self, channels, activation, rng: np.random.Generator, inject_levels):
        super().__init__()
        c_g = channels[1]
        self.inject_levels = inject_levels
        self.align3 = SimConv(channels[0], c_g, k=1, activation=activation, rng=rng)
        self.align4 = SimConv(channels[1], c_g, k=1, activation=activation, rng=rng)
        self.align5 = SimConv(channels[2], c_g, k=1, activation=activation, rng=rng)
        self.fuse = SimConv(3 * c_g, c_g, k=1, activation=activation, rng=rng)
        for lvl in inject_levels:
            setattr(self, f"inject{lvl}", _Inject(c_g, channels[lvl - 3], rng))

    def gather(self, feats: PyramidFeatures, tape=None) -> Tensor4:
        feats.validate()
        _, _, h4, w4 = feats.p4.shape
        aligned = []
        for conv, lvl in ((self.align3, feats.p3), (self.align4, feats.p4),
                          (self.align5, feats.p5)):
            a = conv.forward(lvl, tape)
            if a.shape[2:] != (h4, w4):
                a = resize_nearest(a, h4, w4, tape)
            aligned.append(a)
        return self.fuse.forward(concat_channels(aligned, tape), tape)

    def forward(self, feats: PyramidFeatures, tape=None) -> PyramidFeatures:
        fused = self.gather(feats, tape)
        out = [feats.p3, feats.p4, feats.p5]
        for lvl in self.inject_levels:
            inj = getattr(self, f"inject{lvl}")
            out[lvl - 3] = inj.forward(out[lvl - 3], fused, tape)
        return PyramidFeatures(*out)


class IgdNeck(Module):
    """Two sequential gather/distribute passes: top-down into p3/p4, then
    bottom-up into p4/p5. Every weight is drawn from `rng`, the caller's generator."""

    def __init__(self, channels, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        self.channels = tuple(channels)
        self.top_down = _GatherPass(channels, activation, rng, inject_levels=(3, 4))
        self.bottom_up = _GatherPass(channels, activation, rng, inject_levels=(4, 5))

    def forward(self, feats: PyramidFeatures, tape: GradTape | None = None) -> PyramidFeatures:
        if feats.channels() != self.channels:
            raise ShapeError("igd", f"level channels {feats.channels()} != {self.channels}")
        return self.bottom_up.forward(self.top_down.forward(feats, tape), tape)
