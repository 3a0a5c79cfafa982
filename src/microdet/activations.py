"""Activation functions: Mish as the default, SiLU/ReLU as ablation baselines."""

from __future__ import annotations

import numpy as np

from .tensor import DomainError, GradTape, Tensor4, _record_unary, _stable_sigmoid, _stable_softplus

ACTIVATION_KINDS = ("mish", "silu", "relu")


def mish_np(a: np.ndarray) -> np.ndarray:
    """x * tanh(softplus(x)), with the overflow-safe softplus."""
    return a * np.tanh(_stable_softplus(a))


def mish_grad_np(a: np.ndarray) -> np.ndarray:
    # d/dx [x tanh(sp(x))] = tanh(sp(x)) + x (1 - tanh^2(sp(x))) sigmoid(x)
    t = np.tanh(_stable_softplus(a))
    return t + a * (1.0 - t * t) * _stable_sigmoid(a)


def silu_np(a: np.ndarray) -> np.ndarray:
    return a * _stable_sigmoid(a)


def silu_grad_np(a: np.ndarray) -> np.ndarray:
    s = _stable_sigmoid(a)
    return s * (1.0 + a * (1.0 - s))


def relu_np(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def relu_grad_np(a: np.ndarray) -> np.ndarray:
    # subgradient 0 at the kink
    return (a > 0).astype(np.float64)


_TABLE = {
    "mish": (mish_np, mish_grad_np),
    "silu": (silu_np, silu_grad_np),
    "relu": (relu_np, relu_grad_np),
}


def mish(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    xd = x.data
    return _record_unary(x, mish_np(xd), lambda: mish_grad_np(xd), tape)


def silu(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    xd = x.data
    return _record_unary(x, silu_np(xd), lambda: silu_grad_np(xd), tape)


def relu(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    xd = x.data
    return _record_unary(x, relu_np(xd), lambda: relu_grad_np(xd), tape)


def apply_activation(x: Tensor4, kind: str, tape: GradTape | None = None) -> Tensor4:
    if kind not in _TABLE:
        raise DomainError("activation", f"unknown kind {kind!r}, expected one of {ACTIVATION_KINDS}")
    fn, dfn = _TABLE[kind]
    xd = x.data
    return _record_unary(x, fn(xd), lambda: dfn(xd), tape)
