"""Tiny block base class: attribute assignment registers params and children."""

from __future__ import annotations

import numpy as np

from .tensor import BatchNormState, Tensor4


class Module:
    """Composable block tracking parameters, batchnorm states and submodules.

    Assigning a Tensor4 attribute registers a learnable parameter, a
    BatchNormState registers its gamma/beta plus running-stat buffers, and a
    Module registers a child. Iteration order is insertion order, so the
    parameter registry is deterministic given a deterministic build.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_bns", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor4):
            self._params[name] = value
        elif isinstance(value, BatchNormState):
            self._bns[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_params(self, prefix=""):
        for n, p in self._params.items():
            yield prefix + n, p
        for n, bn in self._bns.items():
            yield f"{prefix}{n}.gamma", bn.gamma
            yield f"{prefix}{n}.beta", bn.beta
        for n, child in self._children.items():
            yield from child.named_params(f"{prefix}{n}.")

    def named_buffers(self, prefix=""):
        for n, bn in self._bns.items():
            yield f"{prefix}{n}.running_mean", bn.running_mean
            yield f"{prefix}{n}.running_var", bn.running_var
        for n, child in self._children.items():
            yield from child.named_buffers(f"{prefix}{n}.")

    def batchnorms(self):
        yield from self._bns.values()
        for child in self._children.values():
            yield from child.batchnorms()

    def param_count(self):
        return sum(p.numel for _, p in self.named_params())

    def drop_caches(self):
        """Forget everything derived from parameters or batchnorm statistics."""
        for child in self._children.values():
            child.drop_caches()

    def set_training(self, training: bool, track_stats: bool | None = None):
        self.drop_caches()
        for bn in self.batchnorms():
            bn.training = training
            if track_stats is not None:
                bn.track_stats = track_stats


class ModuleList(Module):
    """Sequence container so repeated blocks land in the registry."""

    def __init__(self, mods):
        super().__init__()
        self._order = []
        for i, m in enumerate(mods):
            setattr(self, f"b{i}", m)
            self._order.append(m)

    def __iter__(self):
        return iter(self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, i):
        return self._order[i]


def he_weight(rng: np.random.Generator, c_out, c_in_per_group, k):
    """Fan-in scaled normal init for a conv weight."""
    fan_in = c_in_per_group * k * k
    std = np.sqrt(2.0 / fan_in)
    return Tensor4(rng.normal(0.0, std, size=(c_out, c_in_per_group, k, k)))
