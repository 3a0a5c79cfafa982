"""Ghost convolutions and the CSP block built from ghost bottlenecks.

A ghost conv spends a standard conv only on c_out/2 intrinsic channels
and derives the other half with a cheap depthwise transform (GhostNet's
ratio 2), cutting both parameters and FLOPs. C3Ghost swaps these into the
bottlenecks of a cross-stage-partial block. Closed-form parameter/FLOP counting lives here
too so the economy claim is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .module import Module, ModuleList
from .sppf import SimConv
from .tensor import ConvSpec, GradTape, ShapeError, Tensor4, add, concat_channels


PRIMARY_K = 1  # kernel of the conv that makes the intrinsic maps
CHEAP_K = 3  # kernel of the depthwise transform that makes the ghost maps


@dataclass(frozen=True)
class GhostSpec:
    c_in: int
    c_out: int
    activation: str = "mish"

    def __post_init__(self):
        if self.c_out % 2:
            raise ShapeError("ghost", f"c_out {self.c_out} must be even: half intrinsic, "
                                      f"half ghost")

    @property
    def intrinsic(self):
        return self.c_out // 2


@dataclass(frozen=True)
class C3GhostSpec:
    c_in: int
    c_out: int
    n: int = 1
    activation: str = "mish"

    def __post_init__(self):
        if self.c_out < 1:
            raise ShapeError("c3ghost", f"c_out {self.c_out} < 1")


class GhostConv(Module):
    """Primary conv (intrinsic maps) and depthwise conv (ghost maps), both from `rng`."""

    def __init__(self, spec: GhostSpec, *, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        ci = spec.intrinsic
        self.primary = SimConv(spec.c_in, ci, k=PRIMARY_K, activation=spec.activation,
                               rng=rng)
        self.cheap = SimConv(ci, ci, k=CHEAP_K, g=ci,
                             activation=spec.activation, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if x.shape[1] != self.spec.c_in:
            raise ShapeError("ghost_conv", f"input channels {x.shape[1]} != {self.spec.c_in}")
        intrinsic = self.primary.forward(x, tape)
        ghosts = self.cheap.forward(intrinsic, tape)
        return concat_channels([intrinsic, ghosts], tape)


class GhostBottleneck(Module):
    """ghost expand(c -> 2c), ghost project back to c, residual; weights from `rng`."""

    def __init__(self, c, activation="mish", *, rng: np.random.Generator):
        super().__init__()
        self.expand = GhostConv(GhostSpec(c, 2 * c, activation=activation), rng=rng)
        self.project = GhostConv(GhostSpec(2 * c, c, activation=activation), rng=rng)

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

    def __init__(self, spec: C3GhostSpec, ghost=True, *, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        c, act = spec.c_out, spec.activation
        self.cv1 = SimConv(spec.c_in, c, k=1, activation=act, rng=rng)
        self.cv2 = SimConv(spec.c_in, c, k=1, activation=act, rng=rng)
        maker = GhostBottleneck if ghost else PlainBottleneck
        self.blocks = ModuleList([maker(c, activation=act, rng=rng) for _ in range(spec.n)])
        self.cv3 = SimConv(2 * c, c, k=1, activation=act, rng=rng)

    def forward(self, x: Tensor4, tape: GradTape | None = None) -> Tensor4:
        if x.shape[1] != self.spec.c_in:
            raise ShapeError("c3", f"input channels {x.shape[1]} != {self.spec.c_in}")
        a = self.cv1.forward(x, tape)
        for blk in self.blocks:
            a = blk.forward(a, tape)
        b = self.cv2.forward(x, tape)
        return self.cv3.forward(concat_channels([a, b], tape), tape)


# ---------------------------------------------------------------------------
# closed-form parameter / FLOP accounting
#
# Convention: params count conv weights (no bias, no batchnorm). FLOPs are
# 2 * (weight multiplies) * output positions; activation and normalization
# arithmetic are not counted.


def _conv_cost(c_in, c_out, k, g, h_out, w_out):
    weights = c_out * (c_in // g) * k * k
    return weights, 2 * weights * h_out * w_out


def count_params_flops(spec, h, w, ghost=True):
    """Exact parameter and FLOP counts for a block spec at spatial dims (h, w).

    Accepts ConvSpec (bare conv), GhostSpec, or C3GhostSpec (same-padding
    stride-1 assumed for the composite blocks, so spatial dims carry
    through). For a ghost conv the count is (c_out/2)*c_in*k^2 + (c_out/2)*d^2.
    For a C3GhostSpec, ghost=False counts the plain-bottleneck block, as
    C3Block(ghost=False) builds it.
    """
    if isinstance(spec, ConvSpec):
        return _conv_cost(spec.c_in, spec.c_out, spec.k, spec.g, *spec.out_hw(h, w))
    if isinstance(spec, GhostSpec):
        ci = spec.intrinsic
        p1, f1 = _conv_cost(spec.c_in, ci, PRIMARY_K, 1, h, w)
        p2, f2 = _conv_cost(ci, ci, CHEAP_K, ci, h, w)
        return p1 + p2, f1 + f2
    if isinstance(spec, C3GhostSpec):
        c = spec.c_out
        costs = [_conv_cost(c_in, c_out, 1, 1, h, w)
                 for c_in, c_out in ((spec.c_in, c), (spec.c_in, c), (2 * c, c))]
        for _ in range(spec.n):
            if ghost:
                costs += [count_params_flops(gs, h, w)
                          for gs in (GhostSpec(c, 2 * c, activation=spec.activation),
                                     GhostSpec(2 * c, c, activation=spec.activation))]
            else:  # PlainBottleneck: 1x1 then 3x3, both c -> c
                costs += [_conv_cost(c, c, k, 1, h, w) for k in (1, 3)]
        return sum(p for p, _ in costs), sum(f for _, f in costs)
    raise ShapeError("count_params_flops", f"unsupported spec type {type(spec).__name__}")
