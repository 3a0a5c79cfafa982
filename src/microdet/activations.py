"""Activation functions: Mish as the default, SiLU/ReLU as ablation baselines.

Each activation has a value kernel, f(a), and one value-and-derivative kernel,
(f(a), f'(a)), which a tape needs; `ACTIVATIONS` holds the pair per kind.
SimConv hands its pair to `tensor.batchnorm2d`, which applies it; the
standalone ops below record the same kernel as their own tape entry, and
call it only when the backward replays that entry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .tensor import (
    DomainError,
    GradTape,
    Tensor4,
    _exp_neg_abs,
    _record_unary,
    _stable_sigmoid,
    _stable_softplus,
)


def mish_np(a: np.ndarray) -> np.ndarray:
    """x * tanh(softplus(x)), with the overflow-safe softplus."""
    return a * np.tanh(_stable_softplus(a))


def mish_value_grad(a: np.ndarray):
    # d/dx [x tanh(sp(x))] = tanh(sp(x)) + x (1 - tanh^2(sp(x))) sigmoid(x);
    # value and derivative share one e^{-|x|} and one tanh(sp(x)), and the
    # in-place steps keep the rounding of that left-to-right expression
    e = _exp_neg_abs(a)
    t = np.tanh(_stable_softplus(a, e))
    g = t * t
    np.subtract(1.0, g, out=g)
    g *= a
    g *= _stable_sigmoid(a, e)
    g += t
    t *= a
    return t, g


def silu_np(a: np.ndarray) -> np.ndarray:
    return a * _stable_sigmoid(a)


def silu_value_grad(a: np.ndarray):
    s = _stable_sigmoid(a)
    return a * s, s * (1.0 + a * (1.0 - s))


def relu_np(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def relu_value_grad(a: np.ndarray):
    # subgradient 0 at the kink
    return np.maximum(a, 0.0), (a > 0).astype(np.float64)


class Activation(NamedTuple):
    value: Callable  # a -> f(a)
    value_grad: Callable  # a -> (f(a), f'(a))


# read at call time, so every taped path uses whatever kernel is bound here
ACTIVATIONS = {
    "mish": Activation(mish_np, mish_value_grad),
    "silu": Activation(silu_np, silu_value_grad),
    "relu": Activation(relu_np, relu_value_grad),
}
ACTIVATION_KINDS = tuple(ACTIVATIONS)


def lookup(kind: str) -> Activation:
    """The kernels of an activation kind; DomainError for an unknown one."""
    if kind not in ACTIVATIONS:
        raise DomainError("activation",
                          f"unknown kind {kind!r}, expected one of {ACTIVATION_KINDS}")
    return ACTIVATIONS[kind]


def _apply(x: Tensor4, act: Activation, tape: GradTape | None) -> Tensor4:
    # the derivative is worked out in the backward from x.data, which the tape
    # already holds, so a standalone activation keeps no array of its own
    xd = x.data
    return _record_unary(x, act.value(xd), lambda: act.value_grad(xd)[1], tape)


def mish(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    return _apply(x, ACTIVATIONS["mish"], tape)


def silu(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    return _apply(x, ACTIVATIONS["silu"], tape)


def relu(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    return _apply(x, ACTIVATIONS["relu"], tape)


def apply_activation(x: Tensor4, kind: str, tape: GradTape | None = None) -> Tensor4:
    return _apply(x, lookup(kind), tape)
