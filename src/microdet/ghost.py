"""Ghost convolutions and the CSP block built from ghost bottlenecks.

A ghost conv spends a standard conv only on c_out/2 intrinsic channels
and derives the other half with a cheap depthwise transform (GhostNet's
ratio 2), cutting both parameters and FLOPs. C3Ghost swaps these into the
bottlenecks of a cross-stage-partial block. `count_params_flops` reads the
parameter and FLOP counts off a built block, so the economy claim is
checkable.
"""

from __future__ import annotations

import numpy as np

from .module import Module, ModuleList
from .sppf import SimConv
from .tensor import GradTape, ShapeError, Tensor4, add, concat_channels


PRIMARY_K = 1  # kernel of the conv that makes the intrinsic maps
CHEAP_K = 3  # kernel of the depthwise transform that makes the ghost maps


class GhostConv(Module):
    """Primary conv (intrinsic maps) and depthwise conv (ghost maps), both from `rng`."""

    def __init__(self, c_in, c_out, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        if c_out % 2:
            raise ShapeError("ghost", f"c_out {c_out} must be even: half intrinsic, half ghost")
        self.c_in = c_in
        ci = c_out // 2
        self.primary = SimConv(c_in, ci, k=PRIMARY_K, activation=activation, rng=rng)
        self.cheap = SimConv(ci, ci, k=CHEAP_K, g=ci, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if x.shape[1] != self.c_in:
            raise ShapeError("ghost_conv", f"input channels {x.shape[1]} != {self.c_in}")
        intrinsic = self.primary.forward(x, tape)
        ghosts = self.cheap.forward(intrinsic, tape)
        return concat_channels([intrinsic, ghosts], tape)


class GhostBottleneck(Module):
    """ghost expand(c -> 2c), ghost project back to c, residual; weights from `rng`."""

    def __init__(self, c, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        self.expand = GhostConv(c, 2 * c, activation, rng=rng)
        self.project = GhostConv(2 * c, c, activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        return add(x, self.project.forward(self.expand.forward(x, tape), tape), tape)


class PlainBottleneck(Module):
    """1x1 + 3x3 bottleneck with residual, the module ghost replaces; weights from `rng`."""

    def __init__(self, c, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        self.cv1 = SimConv(c, c, k=1, activation=activation, rng=rng)
        self.cv2 = SimConv(c, c, k=3, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        return add(x, self.cv2.forward(self.cv1.forward(x, tape), tape), tape)


class C3Block(Module):
    """Cross-stage partial block: processed branch + bypass branch, fused by 1x1.

    Both branches and the bottlenecks are c_out wide, the full width the
    paper builds. ghost=True builds ghost bottlenecks; ghost=False is the
    plain baseline used by the ablation toggle. Every conv draws from `rng`.
    """

    def __init__(self, c_in, c_out, n=1, ghost=True, activation="mish", *,
                 rng: np.random.Generator):
        super().__init__()
        if c_out < 1:
            raise ShapeError("c3ghost", f"c_out {c_out} < 1")
        self.c_in = c_in
        self.cv1 = SimConv(c_in, c_out, k=1, activation=activation, rng=rng)
        self.cv2 = SimConv(c_in, c_out, k=1, activation=activation, rng=rng)
        maker = GhostBottleneck if ghost else PlainBottleneck
        self.blocks = ModuleList([maker(c_out, activation, rng=rng) for _ in range(n)])
        self.cv3 = SimConv(2 * c_out, c_out, k=1, activation=activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if x.shape[1] != self.c_in:
            raise ShapeError("c3", f"input channels {x.shape[1]} != {self.c_in}")
        a = self.cv1.forward(x, tape)
        for blk in self.blocks:
            a = blk.forward(a, tape)
        b = self.cv2.forward(x, tape)
        return self.cv3.forward(concat_channels([a, b], tape), tape)


def count_params_flops(block: Module, h, w):
    """(params, FLOPs) of a built block at spatial dims (h, w).

    Params are the conv weights: every registered parameter whose name ends
    in `weight`, so batchnorm's gamma and beta and any bias are left out.
    FLOPs are 2 * params * h * w, two per weight multiply at each output
    position; activation and normalization arithmetic are not counted. That
    holds for the blocks here because each of their convs is stride 1 with
    padding k//2, so every conv's output is h x w.
    """
    params = sum(p.numel for name, p in block.named_params() if name.endswith("weight"))
    return params, 2 * params * h * w
