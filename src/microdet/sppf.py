"""SimConv (conv -> batchnorm -> activation) and the cascaded-pool pyramid block."""

from __future__ import annotations

import numpy as np

from .activations import apply_activation, lookup
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

    Its weight is drawn from `rng`, which every block takes from its caller and
    passes on, so one generator seeds a whole model and no two convs start
    alike. Two paths. An inference forward (no tape, batchnorm not training)
    runs one conv with the batchnorm folded in: weight W*gamma/sqrt(var+eps),
    bias beta - mean*gamma/sqrt(var+eps), then the activation. The folded pair
    is computed on first use and cached until `drop_caches`, which
    `set_training`, `load_weights` and `adamw_step` call. Any other forward
    runs the conv, then `batchnorm2d` with the activation's kernels, so a tape
    gets two entries: the conv, and batchnorm plus activation, which keeps the
    activation's derivative and neither x̂ nor the batchnorm output.
    `tests/oracles.simconv_chain_oracle` is the three-entry chain it matches
    bit for bit.
    """

    def __init__(self, c_in, c_out, k=1, s=1, g=1, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        self.spec = ConvSpec(c_in, c_out, k=k, s=s, p=k // 2, g=g)
        self.weight = he_weight(rng, c_out, c_in // g, k)
        self.bn = BatchNormState.create(c_out)
        self.activation = activation
        self._folded = None

    def drop_caches(self):
        self._folded = None

    def _fold(self):
        """(spec, weight, bias) of the conv with the inference batchnorm folded in."""
        bn = self.bn
        scale = bn.gamma.data.reshape(-1) / np.sqrt(bn.running_var + bn.EPS)
        weight = Tensor4(self.weight.data * scale.reshape(-1, 1, 1, 1))
        bias = Tensor4((bn.beta.data.reshape(-1) - bn.running_mean * scale).reshape(1, -1, 1, 1))
        return self.spec, weight, bias

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if tape is None and not self.bn.training:
            if self._folded is None:
                self._folded = self._fold()
            return apply_activation(conv2d(x, *self._folded), self.activation)
        y = conv2d(x, self.spec, self.weight, tape=tape)
        return batchnorm2d(y, self.bn, tape, lookup(self.activation))


# the three chained pools: 5x5, stride 1, padding 2 keep the spatial dims
POOL_K, POOL_S, POOL_P = 5, 1, 2


class SimSppf(Module):
    """Spatial pyramid: 1x1 SimConv to c1/2, three chained maxpools, concat,
    fuse SimConv back to c1.

    The 5x5 pool cascade reproduces 9x9 and 13x13 receptive fields while
    preserving spatial dims end to end. The fuse is 3x3 here. Both convs draw from `rng`.
    """

    fuse_k = 3

    def __init__(self, c1, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        c_mid = max(1, c1 // 2)
        self.c1 = c1
        self.cv1 = SimConv(c1, c_mid, k=1, s=1, activation=activation, rng=rng)
        self.cv2 = SimConv(4 * c_mid, c1, k=self.fuse_k, s=1, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if x.shape[1] != self.c1:
            raise ShapeError("simsppf", f"input channels {x.shape[1]} != c1 {self.c1}")
        x1 = self.cv1.forward(x, tape)
        y1 = maxpool2d(x1, POOL_K, POOL_S, POOL_P, tape)
        y2 = maxpool2d(y1, POOL_K, POOL_S, POOL_P, tape)
        y3 = maxpool2d(y2, POOL_K, POOL_S, POOL_P, tape)
        cat = concat_channels([x1, y1, y2, y3], tape)
        return self.cv2.forward(cat, tape)


class PlainSppf(SimSppf):
    """Baseline pyramid block: SiLU convs and a 1x1 fuse, for ablation runs; weights from `rng`."""

    fuse_k = 1

    def __init__(self, c1, *, rng: np.random.Generator):
        super().__init__(c1, activation="silu", rng=rng)

    # perfbench/tracer.py wraps `forward` only in a class that defines it
    # itself, and it wraps PlainSppf's by name
    forward = SimSppf.forward
