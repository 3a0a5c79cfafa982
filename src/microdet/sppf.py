"""SimConv (conv -> batchnorm -> activation) and the cascaded-pool pyramid block."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .activations import apply_activation
from .module import Module, he_weight
from .tensor import (
    BatchNormState,
    ConvSpec,
    GradTape,
    ShapeError,
    Tensor4,
    batchnorm2d,
    concat_channels,
    conv2d,
    maxpool2d,
)


class SimConv(Module):
    """Bias-free conv with same-padding (p = k//2), batchnorm, then activation.

    An inference forward (no tape, batchnorm not training) runs one conv with
    the batchnorm folded in: weight W*gamma/sqrt(var+eps), bias
    beta - mean*gamma/sqrt(var+eps). The folded pair is computed on first use
    and cached until `drop_caches`, which `set_training` and `load_weights`
    call.
    """

    def __init__(self, c_in, c_out, k=1, s=1, g=1, activation="mish",
                 rng: np.random.Generator | None = None,
                 bn_eps=0.01, bn_momentum=0.1):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.spec = ConvSpec(c_in, c_out, k=k, s=s, p=k // 2, g=g, has_bias=False)
        self.weight = he_weight(rng, c_out, c_in // g, k)
        self.bn = BatchNormState.create(c_out, eps=bn_eps, momentum=bn_momentum)
        self.activation = activation
        self._folded = None

    def drop_caches(self):
        self._folded = None

    def _fold(self):
        """(spec, weight, bias) of the conv with the inference batchnorm folded in."""
        bn = self.bn
        scale = bn.gamma.data.reshape(-1) / np.sqrt(bn.running_var + bn.eps)
        weight = Tensor4(self.weight.data * scale.reshape(-1, 1, 1, 1))
        bias = Tensor4((bn.beta.data.reshape(-1) - bn.running_mean * scale).reshape(1, -1, 1, 1))
        return replace(self.spec, has_bias=True), weight, bias

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if tape is None and not self.bn.training:
            if self._folded is None:
                self._folded = self._fold()
            y = conv2d(x, *self._folded)
        else:
            y = conv2d(x, self.spec, self.weight, tape=tape)
            y = batchnorm2d(y, self.bn, tape)
        return apply_activation(y, self.activation, tape)


@dataclass(frozen=True)
class SimSppfSpec:
    """c_mid defaults to c1/2 and c_out to c1; the pool triple is (5,1,2)."""

    c1: int
    c_mid: int | None = None
    c_out: int | None = None
    pool_k: int = 5
    pool_s: int = 1
    pool_p: int = 2

    def resolved(self):
        c_mid = self.c_mid if self.c_mid is not None else max(1, self.c1 // 2)
        c_out = self.c_out if self.c_out is not None else self.c1
        if c_mid < 1:
            raise ShapeError("simsppf", f"c_mid must be >= 1, got {c_mid}")
        return c_mid, c_out


class SimSppf(Module):
    """Spatial pyramid: 1x1 SimConv, three chained maxpools, concat, 3x3 SimConv.

    With the (5,1,2) pools the cascade reproduces 9x9 and 13x13 receptive
    fields while preserving spatial dims end to end.
    """

    def __init__(self, spec: SimSppfSpec, activation="mish",
                 rng: np.random.Generator | None = None):
        super().__init__()
        c_mid, c_out = spec.resolved()
        self.spec = spec
        self.cv1 = SimConv(spec.c1, c_mid, k=1, s=1, activation=activation, rng=rng)
        self.cv2 = SimConv(4 * c_mid, c_out, k=3, s=1, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        sp = self.spec
        if x.shape[1] != sp.c1:
            raise ShapeError("simsppf", f"input channels {x.shape[1]} != c1 {sp.c1}")
        x1 = self.cv1.forward(x, tape)
        y1 = maxpool2d(x1, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        y2 = maxpool2d(y1, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        y3 = maxpool2d(y2, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        cat = concat_channels([x1, y1, y2, y3], tape)
        return self.cv2.forward(cat, tape)


class PlainSppf(Module):
    """Baseline pyramid block: SiLU convs and a 1x1 fuse, for ablation runs."""

    def __init__(self, spec: SimSppfSpec, rng: np.random.Generator | None = None,
                 activation="silu"):
        super().__init__()
        c_mid, c_out = spec.resolved()
        self.spec = spec
        self.cv1 = SimConv(spec.c1, c_mid, k=1, s=1, activation=activation, rng=rng)
        self.cv2 = SimConv(4 * c_mid, c_out, k=1, s=1, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        sp = self.spec
        if x.shape[1] != sp.c1:
            raise ShapeError("sppf", f"input channels {x.shape[1]} != c1 {sp.c1}")
        x1 = self.cv1.forward(x, tape)
        y1 = maxpool2d(x1, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        y2 = maxpool2d(y1, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        y3 = maxpool2d(y2, sp.pool_k, sp.pool_s, sp.pool_p, tape)
        cat = concat_channels([x1, y1, y2, y3], tape)
        return self.cv2.forward(cat, tape)
