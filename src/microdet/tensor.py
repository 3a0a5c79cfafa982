"""Dense 4-D tensor engine with explicit per-op backward rules.

Every array is (batch, channels, rows, cols) in row-major float64. Forward
ops are pure; when handed a GradTape they record a closure that replays the
analytic backward rule. backward() walks the tape in reverse execution
order, accumulating into .grad buffers additively, so fan-out just works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """A tensor shape violates an op contract."""

    def __init__(self, op: str, detail: str):
        self.op = op
        self.detail = detail
        super().__init__(f"{op}: {detail}")


class DomainError(ValueError):
    """A value left the numeric domain of an op (non-positive log input, NaN, ...)."""

    def __init__(self, op: str, detail: str):
        self.op = op
        self.detail = detail
        super().__init__(f"{op}: {detail}")


class Tensor4:
    """Dense (n, c, h, w) float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, grad=None):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 4:
            raise ShapeError("tensor", f"expected 4 axes (n,c,h,w), got {arr.ndim}")
        self.data = arr
        self.grad = grad

    @classmethod
    def zeros(cls, n, c, h, w):
        return cls(np.zeros((n, c, h, w)))

    @classmethod
    def scalar(cls, value):
        return cls(np.full((1, 1, 1, 1), float(value)))

    @property
    def shape(self):
        return self.data.shape

    @property
    def numel(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item", f"needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def copy(self):
        return Tensor4(self.data.copy())

    def __repr__(self):
        return f"Tensor4(shape={self.shape})"


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D cross-correlation: square kernel, zero padding."""

    c_in: int
    c_out: int
    k: int
    s: int = 1
    p: int = 0
    g: int = 1
    has_bias: bool = False

    def __post_init__(self):
        if self.k < 1 or self.s < 1 or self.p < 0:
            raise ShapeError("conv_spec", f"k={self.k}, s={self.s}, p={self.p} out of range")
        if self.g < 1 or self.c_in % self.g or self.c_out % self.g:
            raise ShapeError(
                "conv_spec",
                f"groups {self.g} must divide c_in={self.c_in} and c_out={self.c_out}",
            )

    def out_hw(self, h, w):
        ho = (h + 2 * self.p - self.k) // self.s + 1
        wo = (w + 2 * self.p - self.k) // self.s + 1
        if ho < 1 or wo < 1:
            raise ShapeError(
                "conv2d",
                f"non-positive output dims ({ho},{wo}) for input ({h},{w}) "
                f"with k={self.k}, s={self.s}, p={self.p}",
            )
        return ho, wo

    def weight_shape(self):
        return (self.c_out, self.c_in // self.g, self.k, self.k)

    def param_count(self):
        co, cg, k, _ = self.weight_shape()
        n = co * cg * k * k
        return n + (co if self.has_bias else 0)


@dataclass
class BatchNormState:
    """Per-channel affine + running statistics for batch normalization.

    gamma/beta are learnable (1,c,1,1) tensors; running stats are plain
    buffers. `training` selects batch vs running statistics; `track_stats`
    gates the running-stat update so finite-difference checks stay pure.
    """

    gamma: Tensor4
    beta: Tensor4
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 0.01
    momentum: float = 0.1
    training: bool = True
    track_stats: bool = True

    @classmethod
    def create(cls, c, eps=0.01, momentum=0.1):
        if eps <= 0:
            raise DomainError("batchnorm", f"eps must be positive, got {eps}")
        if not 0 < momentum < 1:
            raise DomainError("batchnorm", f"momentum must be in (0,1), got {momentum}")
        return cls(
            gamma=Tensor4(np.ones((1, c, 1, 1))),
            beta=Tensor4(np.zeros((1, c, 1, 1))),
            running_mean=np.zeros(c),
            running_var=np.ones(c),
            eps=eps,
            momentum=momentum,
        )

    @property
    def channels(self):
        return self.gamma.shape[1]


class _TapeEntry:
    __slots__ = ("inputs", "output", "backfn")

    def __init__(self, inputs, output, backfn):
        self.inputs = inputs
        self.output = output
        self.backfn = backfn


class GradTape:
    """Ordered record of executed ops, replayed once in reverse by backward()."""

    def __init__(self):
        self._entries = []

    def record(self, inputs, output, backfn):
        self._entries.append(_TapeEntry(tuple(inputs), output, backfn))

    def __len__(self):
        return len(self._entries)

    def tensors(self):
        seen = {}
        for e in self._entries:
            for t in e.inputs + (e.output,):
                seen[id(t)] = t
        return list(seen.values())


def backward(tape: GradTape, seed: Tensor4 | None = None):
    """Replay the tape in reverse, accumulating grads into every recorded tensor.

    The seed is applied to the output of the last recorded op; it defaults
    to ones. All tensors referenced by the tape get zero-initialized grads
    first, so leaves the graph never touched report zero gradient.
    """
    if len(tape) == 0:
        raise ShapeError("backward", "tape is empty")
    final = tape._entries[-1].output
    if seed is None:
        seed_arr = np.ones_like(final.data)
    else:
        if seed.shape != final.shape:
            raise ShapeError(
                "backward", f"seed shape {seed.shape} != final output shape {final.shape}"
            )
        seed_arr = seed.data
    for t in tape.tensors():
        t.grad = np.zeros_like(t.data)
    final.grad += seed_arr
    for entry in reversed(tape._entries):
        entry.backfn(entry.output.grad)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp, k, s, ho, wo):
    # (n,c,hp,wp) -> view (n,c,k,k,ho,wo); reshape by the caller copies it.
    n, c, hp, wp = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, ho, wo), (s0, s1, s2, s3, s2 * s, s3 * s), writeable=False
    )


def _pad2d(a, p, value=0.0):
    if p == 0:
        return a
    n, c, h, w = a.shape
    out = np.full((n, c, h + 2 * p, w + 2 * p), value)
    out[:, :, p:p + h, p:p + w] = a
    return out


def conv2d(x: Tensor4, spec: ConvSpec, weight: Tensor4, bias: Tensor4 | None = None,
           tape: GradTape | None = None) -> Tensor4:
    """Grouped 2-D cross-correlation (no kernel flip).

    weight is (c_out, c_in/g, k, k); bias, when the spec asks for one, is a
    (1, c_out, 1, 1) tensor. Output spatial dims follow
    floor((d + 2p - k)/s) + 1.
    """
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError("conv2d", f"input channels {c} != spec c_in {spec.c_in}")
    if weight.shape != spec.weight_shape():
        raise ShapeError(
            "conv2d", f"weight shape {weight.shape} != expected {spec.weight_shape()}"
        )
    if spec.has_bias:
        if bias is None or bias.shape != (1, spec.c_out, 1, 1):
            got = None if bias is None else bias.shape
            raise ShapeError("conv2d", f"bias shape {got} != (1,{spec.c_out},1,1)")
    elif bias is not None:
        raise ShapeError("conv2d", "bias passed but spec.has_bias is False")

    k, s, p, g = spec.k, spec.s, spec.p, spec.g
    ho, wo = spec.out_hw(h, w)
    xp = _pad2d(x.data, p)
    pointwise = k == 1 and s == 1 and p == 0
    depthwise = g == c == spec.c_out

    def columns(xpad):
        # a 1x1, stride-1, unpadded conv reads the input itself as its columns
        if pointwise:
            return xpad.reshape(n, c, h * w)
        return _im2col(xpad, k, s, ho, wo).reshape(n, c * k * k, ho * wo)

    if g == 1:
        w2 = weight.data.reshape(spec.c_out, c * k * k)
        out_arr = np.matmul(w2, columns(xp)).reshape(n, spec.c_out, ho, wo)
    elif depthwise:
        # one multiply-add per kernel cell, in the cell order of the grouped path
        wd = weight.data.reshape(c, k, k, 1, 1)
        out_arr = np.zeros((n, c, ho, wo))
        for ki in range(k):
            for kj in range(k):
                out_arr += wd[:, ki, kj] * xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
    else:
        # grouped path: fixed (ki,kj) loop, one contraction per kernel cell
        cg = c // g
        m = spec.c_out // g
        xg = xp.reshape(n, g, cg, xp.shape[2], xp.shape[3])
        wg = weight.data.reshape(g, m, cg, k, k)
        out_arr = np.zeros((n, g, m, ho, wo))
        for ki in range(k):
            for kj in range(k):
                xs = xg[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
                out_arr += np.einsum("gmc,ngchw->ngmhw", wg[:, :, :, ki, kj], xs)
        out_arr = out_arr.reshape(n, spec.c_out, ho, wo)

    if bias is not None:
        out_arr += bias.data
    out = Tensor4(out_arr)

    if tape is not None:
        inputs = (x, weight) + ((bias,) if bias is not None else ())

        def back(up):
            upr = up
            if g == 1:
                col_b = columns(_pad2d(x.data, p))
                up2 = upr.reshape(n, spec.c_out, ho * wo)
                w2b = weight.data.reshape(spec.c_out, c * k * k)
                weight.grad += np.matmul(up2, col_b.transpose(0, 2, 1)).sum(axis=0).reshape(
                    weight.shape
                )
                dcol = np.matmul(w2b.T, up2)
                if pointwise:
                    # the columns are the input itself, so dcol is already dx
                    x.grad += dcol.reshape(n, c, h, w)
                else:
                    dcol = dcol.reshape(n, c, k, k, ho, wo)
                    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
                    for ki in range(k):
                        for kj in range(k):
                            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcol[:, :, ki, kj]
                    x.grad += dxp[:, :, p:p + h, p:p + w]
            else:
                cg = c // g
                m = spec.c_out // g
                xpb = _pad2d(x.data, p)
                xg = xpb.reshape(n, g, cg, xpb.shape[2], xpb.shape[3])
                upg = upr.reshape(n, g, m, ho, wo)
                wg = weight.data.reshape(g, m, cg, k, k)
                dw = np.zeros_like(wg)
                dxp = np.zeros((n, g, cg, xpb.shape[2], xpb.shape[3]))
                for ki in range(k):
                    for kj in range(k):
                        xs = xg[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
                        dw[:, :, :, ki, kj] = np.einsum("ngmhw,ngchw->gmc", upg, xs)
                        if depthwise:
                            dxp[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += (
                                wg[:, :, :, ki, kj, None] * upg)
                        else:
                            dxp[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += np.einsum(
                                "gmc,ngmhw->ngchw", wg[:, :, :, ki, kj], upg
                            )
                weight.grad += dw.reshape(weight.shape)
                x.grad += dxp.reshape(n, c, h + 2 * p, w + 2 * p)[:, :, p:p + h, p:p + w]
            if bias is not None:
                bias.grad += upr.sum(axis=(0, 2, 3)).reshape(1, spec.c_out, 1, 1)

        tape.record(inputs, out, back)
    return out


# ---------------------------------------------------------------------------
# pooling


def maxpool2d(x: Tensor4, k: int, s: int, p: int, tape: GradTape | None = None) -> Tensor4:
    """Max pooling; padding is -inf so padded cells never win."""
    if k < 1 or s < 1 or p < 0:
        raise ShapeError("maxpool2d", f"k={k}, s={s}, p={p} out of range")
    if p > k // 2:
        raise ShapeError("maxpool2d", f"padding {p} > k//2 = {k // 2} would pool pure padding")
    n, c, h, w = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError("maxpool2d", f"non-positive output dims ({ho},{wo})")

    xp = _pad2d(x.data, p, value=-np.inf)
    out_arr = np.full((n, c, ho, wo), -np.inf)
    # the winner of each window is needed only by the backward
    win = np.zeros((n, c, ho, wo), dtype=np.int16) if tape is not None else None
    idx = 0
    for ki in range(k):
        for kj in range(k):
            sl = xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
            better = sl > out_arr
            np.copyto(out_arr, sl, where=better)
            if win is not None:
                win[better] = idx
            idx += 1
    out = Tensor4(out_arr)

    if tape is not None:
        def back(up):
            dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
            i = 0
            for ki in range(k):
                for kj in range(k):
                    mask = win == i
                    if mask.any():
                        dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += up * mask
                    i += 1
            x.grad += dxp[:, :, p:p + h, p:p + w]

        tape.record((x,), out, back)
    return out


# ---------------------------------------------------------------------------
# normalization


def batchnorm2d(x: Tensor4, state: BatchNormState, tape: GradTape | None = None) -> Tensor4:
    """Batch normalization over (n,h,w) per channel, then the affine transform."""
    n, c, h, w = x.shape
    if c != state.channels:
        raise ShapeError("batchnorm2d", f"input channels {c} != state channels {state.channels}")
    gamma, beta = state.gamma, state.beta

    if state.training:
        cnt = n * h * w
        mu = x.data.mean(axis=(0, 2, 3))
        d = x.data - mu.reshape(1, c, 1, 1)
        # numpy's var to the bit (sum of squared deviations over cnt), centred once
        var = (d * d).sum(axis=(0, 2, 3)) / cnt
        if state.track_stats:
            unbiased = var * cnt / (cnt - 1) if cnt > 1 else var
            m = state.momentum
            state.running_mean = (1 - m) * state.running_mean + m * mu
            state.running_var = (1 - m) * state.running_var + m * unbiased
    else:
        d = x.data - state.running_mean.reshape(1, c, 1, 1)
        var = state.running_var

    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = d
    xhat *= inv.reshape(1, c, 1, 1)
    out_arr = gamma.data * xhat
    out_arr += beta.data
    out = Tensor4(out_arr)

    if tape is not None:
        training = state.training

        def back(up):
            g = gamma.data.reshape(c)
            t = up * xhat
            gamma.grad += t.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            beta.grad += up.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            if training:
                # inv * (gu - mean_gu - xhat * mean_gux), evaluated in place in that order
                gu = up * g.reshape(1, c, 1, 1)
                mean_gu = gu.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                mean_gux = np.multiply(gu, xhat, out=t).mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                gu -= mean_gu
                gu -= np.multiply(xhat, mean_gux, out=t)
                gu *= inv.reshape(1, c, 1, 1)
                x.grad += gu
            else:
                x.grad += up * (g * inv).reshape(1, c, 1, 1)

        tape.record((x, gamma, beta), out, back)
    return out


# ---------------------------------------------------------------------------
# layout ops


def concat_channels(parts: list[Tensor4], tape: GradTape | None = None) -> Tensor4:
    """Concatenate along the channel axis; (n,h,w) must agree across parts."""
    if not parts:
        raise ShapeError("concat_channels", "empty part list")
    n, _, h, w = parts[0].shape
    for i, part in enumerate(parts[1:], 1):
        pn, _, ph, pw = part.shape
        if (pn, ph, pw) != (n, h, w):
            raise ShapeError(
                "concat_channels",
                f"part {i} has (n,h,w)=({pn},{ph},{pw}), expected ({n},{h},{w})",
            )
    out = Tensor4(np.concatenate([p.data for p in parts], axis=1))

    if tape is not None:
        splits = np.cumsum([p.shape[1] for p in parts])[:-1]

        def back(up):
            for part, sl in zip(parts, np.split(up, splits, axis=1)):
                part.grad += sl

        tape.record(tuple(parts), out, back)
    return out


def resize_nearest(x: Tensor4, target_h: int, target_w: int,
                   tape: GradTape | None = None) -> Tensor4:
    """Nearest-neighbor resample with src = floor(dst * src_dim / dst_dim)."""
    if target_h < 1 or target_w < 1:
        raise ShapeError("resize_nearest", f"targets ({target_h},{target_w}) must be >= 1")
    n, c, h, w = x.shape
    src_r = (np.arange(target_h) * h) // target_h
    src_c = (np.arange(target_w) * w) // target_w
    out = Tensor4(x.data[:, :, src_r[:, None], src_c[None, :]])

    if tape is not None:
        def back(up):
            np.add.at(x.grad, (slice(None), slice(None), src_r[:, None], src_c[None, :]), up)

        tape.record((x,), out, back)
    return out


# ---------------------------------------------------------------------------
# elementwise suite


def _exp_neg_abs(a):
    """e^{-|a|} in [0, 1]: the one exp the sigmoid and softplus below share."""
    e = np.abs(a, out=np.empty(np.shape(a)))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _stable_sigmoid(a, e=None):
    # 1/(1+e^-a) for a >= 0 and e^a/(1+e^a) below, from one e = e^{-|a|} and
    # no masks; NaN, +-inf and +-0 map as in the two-branch form
    if e is None:
        e = _exp_neg_abs(a)
    return np.maximum(e, a >= 0) / (1.0 + e)


def _stable_softplus(a, e=None):
    # max(x,0) + log1p(e^{-|x|}) never overflows
    if e is None:
        e = _exp_neg_abs(a)
    return np.maximum(a, 0.0) + np.log1p(e)


def _record_unary(x, out_arr, dfn, tape):
    out = Tensor4(out_arr)
    if tape is not None:
        def back(up):
            x.grad += up * dfn()

        tape.record((x,), out, back)
    return out


def sigmoid(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    s = _stable_sigmoid(x.data)
    return _record_unary(x, s, lambda: s * (1.0 - s), tape)


def tanh(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    t = np.tanh(x.data)
    return _record_unary(x, t, lambda: 1.0 - t * t, tape)


def softplus(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    xd = x.data
    return _record_unary(x, _stable_softplus(xd), lambda: _stable_sigmoid(xd), tape)


def exp(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    e = np.exp(x.data)
    return _record_unary(x, e, lambda: e, tape)


def log(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    bad = x.data <= 0
    if bad.any():
        coord = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DomainError("log", f"non-positive value at coordinate {coord}")
    xd = x.data
    return _record_unary(x, np.log(xd), lambda: 1.0 / xd, tape)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(op, f"shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor4, b: Tensor4, tape: GradTape | None = None) -> Tensor4:
    _check_same_shape("add", a, b)
    out = Tensor4(a.data + b.data)
    if tape is not None:
        def back(up):
            a.grad += up
            b.grad += up

        tape.record((a, b), out, back)
    return out


def mul(a: Tensor4, b: Tensor4, tape: GradTape | None = None) -> Tensor4:
    _check_same_shape("mul", a, b)
    out = Tensor4(a.data * b.data)
    if tape is not None:
        def back(up):
            a.grad += up * b.data
            b.grad += up * a.data

        tape.record((a, b), out, back)
    return out


def scalar_mul(x: Tensor4, c: float, tape: GradTape | None = None) -> Tensor4:
    out = Tensor4(x.data * float(c))
    if tape is not None:
        def back(up):
            x.grad += up * float(c)

        tape.record((x,), out, back)
    return out


def sum_all(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    """Reduce to a (1,1,1,1) scalar tensor; backward broadcasts the seed."""
    out = Tensor4(np.full((1, 1, 1, 1), x.data.sum()))
    if tape is not None:
        def back(up):
            x.grad += up.reshape(())

        tape.record((x,), out, back)
    return out


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int
    worst_coord: tuple

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} max_rel_err={self.max_rel_err:.3e} over {self.n_coords} coords "
            f"(worst at {self.worst_coord})"
        )


def grad_check(f, x: Tensor4, h: float = 1e-5, tol: float = 1e-4,
               n_sample: int = 32, seed: int = 0) -> GradCheckReport:
    """Compare f's recorded backward against central finite differences.

    f must be deterministic with signature f(t: Tensor4, tape) -> Tensor4.
    The output is projected onto a fixed random vector so a single backward
    pass yields the full Jacobian-transpose product; each checked coordinate
    then needs two forward evaluations. Tensors larger than n_sample
    coordinates are checked on a random coordinate sample (>= 32).

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if h <= 0:
        raise DomainError("grad_check", f"step h must be positive, got {h}")
    tape = GradTape()
    y = f(x, tape)
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal(y.shape)
    if len(tape) > 0:
        backward(tape, Tensor4(proj))
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    if not np.isfinite(analytic).all():
        coord = tuple(int(v) for v in np.argwhere(~np.isfinite(analytic))[0])
        raise DomainError("grad_check", f"non-finite analytic gradient at {coord}")

    numel = x.numel
    n_sample = max(32, n_sample)
    if numel <= n_sample:
        flat_coords = np.arange(numel)
    else:
        flat_coords = np.sort(rng.choice(numel, size=n_sample, replace=False))

    base = x.data
    max_rel = 0.0
    worst = (0, 0, 0, 0)
    for flat in flat_coords:
        coord = np.unravel_index(int(flat), x.shape)
        xp = base.copy()
        xp[coord] += h
        xm = base.copy()
        xm[coord] -= h
        yp = f(Tensor4(xp), None).data
        ym = f(Tensor4(xm), None).data
        if not (np.isfinite(yp).all() and np.isfinite(ym).all()):
            raise DomainError("grad_check", f"non-finite forward value perturbing {coord}")
        # elementwise difference first: untouched outputs cancel exactly
        num = float((proj * (yp - ym)).sum() / (2.0 * h))
        ana = float(analytic[coord])
        rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = tuple(int(v) for v in coord)
    return GradCheckReport(max_rel, max_rel <= tol, len(flat_coords), worst)
