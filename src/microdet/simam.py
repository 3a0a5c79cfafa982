"""Parameter-free 3-D attention from per-neuron energy minimization.

Each spatial position in a channel gets a weight sigmoid(1/e*) where e* is
the closed-form minimum of a binary-separation energy between the position
and its channel neighbors. No learnable parameters anywhere.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    DomainError,
    GradTape,
    ShapeError,
    Tensor4,
    _stable_sigmoid,
    accumulate,
)

LAMBDA = 1e-4  # the energy regularization coefficient of the attention


def simam_energy_min(t: float, mu: float, sigma2: float, lam: float) -> float:
    """Closed-form minimum energy for one neuron: 4(s2+l) / ((t-mu)^2 + 2 s2 + 2 l)."""
    if lam <= 0:
        raise DomainError("simam", f"lambda must be positive, got {lam}")
    return 4.0 * (sigma2 + lam) / ((t - mu) ** 2 + 2.0 * sigma2 + 2.0 * lam)


def energy_numeric_oracle(t: float, neighbors, lam: float):
    """Minimize the raw separation energy over (w, b) and return (e_min, w, b).

    The objective
        e(w,b) = (1/M') sum_i (-1 - (w x_i + b))^2 + (1 - (w t + b))^2 + lam w^2
    is a strictly convex quadratic, so the normal equations give the exact
    minimizer; the minimum value is evaluated by direct substitution. This
    path shares no algebra with simam_energy_min and arbitrates it.
    """
    xs = np.asarray(neighbors, dtype=np.float64)
    if xs.size < 1:
        raise DomainError("simam_oracle", "need at least one neighbor")
    if lam <= 0:
        raise DomainError("simam_oracle", f"lambda must be positive, got {lam}")
    mu = xs.mean()
    ex2 = (xs * xs).mean()
    # stationarity of e(w,b):
    #   w (E[x^2] + t^2 + lam) + b (mu + t) = t - mu
    #   w (mu + t)             + 2 b       = 0
    a_mat = np.array([[ex2 + t * t + lam, mu + t], [mu + t, 2.0]])
    rhs = np.array([t - mu, 0.0])
    try:
        w, b = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:  # strictly convex => should not happen
        raise DomainError("simam_oracle", f"normal equations singular: {exc}") from None
    e_min = float(
        np.mean((-1.0 - (w * xs + b)) ** 2) + (1.0 - (w * t + b)) ** 2 + lam * w * w
    )
    if not np.isfinite(e_min):
        raise DomainError("simam_oracle", "minimization produced a non-finite energy")
    return e_min, float(w), float(b)


def simam_forward(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    """Weight every position by sigmoid of its inverse minimum energy.

    Statistics are shared across each (sample, channel) slice: mean over all
    M = h*w positions, variance with divisor M-1. The inverse energy is
    (t-mu)^2 / (4 (sigma2 + LAMBDA)) + 0.5, so a constant channel gets the
    uniform weight sigmoid(0.5).
    """
    n, c, h, w = x.shape
    m = h * w
    if m < 2:
        raise ShapeError("simam", f"spatial size {h}x{w} < 2, variance undefined")

    xd = x.data
    mu = xd.mean(axis=(2, 3), keepdims=True)
    d = xd - mu
    sigma2 = (d * d).sum(axis=(2, 3), keepdims=True) / (m - 1)
    v = sigma2 + LAMBDA
    inv_energy = d * d / (4.0 * v) + 0.5
    s = _stable_sigmoid(inv_energy)
    out = Tensor4(xd * s)

    if tape is not None:
        def back(up):
            # through the weights AND the statistics they depend on;
            # sum(d) == 0 per slice kills the mean-path term of dsigma2
            a = up * xd * s * (1.0 - s)
            a1 = (a * d).sum(axis=(2, 3), keepdims=True)
            a2 = (a * d * d).sum(axis=(2, 3), keepdims=True)
            accumulate(x, up * s + a * d / (2.0 * v) - a1 / (2.0 * v * m)
                       - d * a2 / (2.0 * v * v * (m - 1)))

        tape.record((x,), out, back)
    return out
