"""Dense 4-D tensor engine with explicit per-op backward rules.

Every array is (batch, channels, rows, cols) in row-major float64. Forward
ops are pure; when handed a GradTape they record a closure that replays the
analytic backward rule. backward() walks the tape in reverse execution
order. One flag, requires_grad, decides who gets a gradient. A Module marks
the parameters it registers, a caller marks an input before the forward, and
recording an op marks its output when any of its inputs is marked. Closures
send gradients through `accumulate`, which drops those for unmarked tensors.
Marked leaves accumulate into zero-filled .grad buffers, so fan-out just
works; unmarked leaves get none. A produced tensor holds a gradient only from
its first contribution until its own closure takes it; after backward only
the marked leaves hold one.

The tape holds every op's output until it is freed, so closures keep little
else. Batchnorm rebuilds its normalised input from its own input instead of
keeping it, and when it applies the activation of a conv -> batchnorm ->
activation block it is one entry that keeps only the activation's
derivative. A dense conv with k > 1 sums its weight gradient one image at a
time, so its backward holds one image's columns rather than the batch's.
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
    """Dense (n, c, h, w) float64 array with an optional gradient buffer.

    requires_grad marks a parameter, or an input whose gradient a caller wants:
    backward gives it a gradient whenever it is on the tape. An op recorded on
    a tape marks its output when any of its inputs is marked.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 4:
            raise ShapeError("tensor", f"expected 4 axes (n,c,h,w), got {arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = False

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

    def __post_init__(self):
        if self.k < 1 or self.s < 1 or self.p < 0:
            raise ShapeError("conv_spec", f"k={self.k}, s={self.s}, p={self.p} out of range")
        # dense, or depthwise as in the ghost cheap op; no other grouping runs
        if self.g != 1 and not self.g == self.c_in == self.c_out:
            raise ShapeError(
                "conv_spec",
                f"groups {self.g} must be 1 or equal c_in={self.c_in} and c_out={self.c_out}",
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


@dataclass
class BatchNormState:
    """Per-channel affine + running statistics for batch normalization.

    gamma/beta are learnable (1,c,1,1) tensors, marked requires_grad by the
    Module that registers the state; running stats are plain buffers.
    `training` selects batch vs running statistics; `track_stats` gates the
    running-stat update so finite-difference checks stay pure.
    EPS is added to the variance, MOMENTUM weights each new batch in the
    running statistics.
    """

    EPS = 0.01
    MOMENTUM = 0.1

    gamma: Tensor4
    beta: Tensor4
    running_mean: np.ndarray
    running_var: np.ndarray
    training: bool = True
    track_stats: bool = True

    @classmethod
    def create(cls, c):
        return cls(
            gamma=Tensor4(np.ones((1, c, 1, 1))),
            beta=Tensor4(np.zeros((1, c, 1, 1))),
            running_mean=np.zeros(c),
            running_var=np.ones(c),
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


def accumulate(t: Tensor4, g):
    """Add g into t.grad; the first contribution to a tensor without one becomes it.

    g must be an array that no other grad holds, since it may be adopted and
    later added into. A tensor that does not require grad drops g.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


class GradTape:
    """Ordered record of executed ops, replayed once in reverse by backward().

    record marks an op's output requires_grad when any of its inputs has the
    flag, and keeps the marked inputs that no entry of this tape produced: the
    leaves backward zero-fills. A backward closure sends its gradients through
    `accumulate` and captures no tape, so tape and closures form no reference
    cycle and a tape is freed as soon as its last user drops it.
    """

    def __init__(self):
        self._entries = []
        self._produced = set()  # ids of the entries' outputs
        self._leaves = {}  # id -> marked input that no entry produced

    def record(self, inputs, output, backfn):
        inputs = tuple(inputs)
        for t in inputs:
            if t.requires_grad:
                output.requires_grad = True
                if id(t) not in self._produced:
                    self._leaves[id(t)] = t
        self._produced.add(id(output))
        self._entries.append(_TapeEntry(inputs, output, backfn))

    def __len__(self):
        return len(self._entries)

    def tensors(self):
        seen = {}
        for e in self._entries:
            for t in e.inputs + (e.output,):
                seen[id(t)] = t
        return list(seen.values())


def backward(tape: GradTape, seed: Tensor4 | None = None):
    """Replay the tape in reverse, handing each gradient to its tensor once.

    Gradients go to the tensors that require grad: parameters, inputs the
    caller marked before the forward (`x.requires_grad = True`) and every op
    output made from one of them. Each marked leaf of the tape gets a
    zero-filled grad first, so one the graph never reaches reports zero; an
    entry whose output is unmarked is not replayed, and unmarked tensors get no
    .grad. The seed is copied to the output of the last recorded op; it
    defaults to ones. A produced tensor starts with no grad; before its
    entry's closure runs, the engine hands the closure its grad (zeros if
    nothing consumed the output) and clears it, so the closure owns that
    array. Afterwards only the marked leaves hold .grad.
    """
    if len(tape) == 0:
        raise ShapeError("backward", "tape is empty")
    final = tape._entries[-1].output
    if seed is not None and seed.shape != final.shape:
        raise ShapeError(
            "backward", f"seed shape {seed.shape} != final output shape {final.shape}"
        )
    leaves = tape._leaves.values()
    # every old gradient is freed before the first new one is allocated
    for t in leaves:
        t.grad = None
    for t in leaves:
        t.grad = np.zeros_like(t.data)
    if not final.requires_grad:
        return
    final.grad = np.ones_like(final.data) if seed is None else seed.data.copy()
    for entry in reversed(tape._entries):
        out = entry.output
        if not out.requires_grad:
            continue
        up = out.grad if out.grad is not None else np.zeros_like(out.data)
        out.grad = None
        entry.backfn(up)


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
    """Dense or depthwise 2-D cross-correlation (no kernel flip).

    weight is (c_out, c_in/g, k, k); bias, when given, is a (1, c_out, 1, 1)
    tensor. Output spatial dims follow floor((d + 2p - k)/s) + 1.
    """
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError("conv2d", f"input channels {c} != spec c_in {spec.c_in}")
    if weight.shape != spec.weight_shape():
        raise ShapeError(
            "conv2d", f"weight shape {weight.shape} != expected {spec.weight_shape()}"
        )
    if bias is not None and bias.shape != (1, spec.c_out, 1, 1):
        raise ShapeError("conv2d", f"bias shape {bias.shape} != (1,{spec.c_out},1,1)")

    k, s, p = spec.k, spec.s, spec.p
    ho, wo = spec.out_hw(h, w)
    xp = _pad2d(x.data, p)
    pointwise = k == 1 and s == 1 and p == 0

    def columns(xpad):
        # a 1x1, stride-1, unpadded conv reads the input itself as its columns
        if pointwise:
            return xpad.reshape(len(xpad), c, h * w)
        return _im2col(xpad, k, s, ho, wo).reshape(len(xpad), c * k * k, ho * wo)

    def window(a, ki, kj):
        return a[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]

    if spec.g == 1:
        w2 = weight.data.reshape(spec.c_out, c * k * k)
        out_arr = np.matmul(w2, columns(xp)).reshape(n, spec.c_out, ho, wo)
    else:
        # depthwise: one multiply-add per kernel cell
        wd = weight.data.reshape(c, k, k, 1, 1)
        out_arr = np.zeros((n, c, ho, wo))
        for ki in range(k):
            for kj in range(k):
                out_arr += wd[:, ki, kj] * window(xp, ki, kj)

    if bias is not None:
        out_arr += bias.data
    out = Tensor4(out_arr)

    if tape is not None:
        inputs = (x, weight) + ((bias,) if bias is not None else ())

        def scatter(cell_grad):
            # dx through the padded input, one strided add per kernel cell
            dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
            for ki in range(k):
                for kj in range(k):
                    window(dxp, ki, kj)[...] += cell_grad(ki, kj)
            return dxp[:, :, p:p + h, p:p + w]

        def back(up):
            xpb = _pad2d(x.data, p)
            if spec.g == 1:
                up2 = up.reshape(n, spec.c_out, ho * wo)
                w2b = weight.data.reshape(spec.c_out, c * k * k)
                if k == 1:
                    dw = np.matmul(up2, columns(xpb).transpose(0, 2, 1)).sum(axis=0)
                else:
                    # one image's columns at a time, added in image order as
                    # sum(axis=0) adds the batched products: no whole-batch
                    # columns and no (n, c_out, c_in*k*k) product
                    parts = (np.matmul(up2[i], columns(xpb[i:i + 1])[0].T) for i in range(n))
                    dw = next(parts)
                    for part in parts:
                        dw += part
                accumulate(weight, dw.reshape(weight.shape))
                # an input that requires no gradient (the image) costs no dx
                if x.requires_grad:
                    dcol = np.matmul(w2b.T, up2)
                    if pointwise:
                        # the columns are the input itself, so dcol is already dx
                        accumulate(x, dcol.reshape(n, c, h, w))
                    else:
                        dcol = dcol.reshape(n, c, k, k, ho, wo)
                        accumulate(x, scatter(lambda ki, kj: dcol[:, :, ki, kj]))
            else:
                dw = np.zeros((c, k, k))
                for ki in range(k):
                    for kj in range(k):
                        dw[:, ki, kj] = np.einsum("nchw,nchw->c", up, window(xpb, ki, kj))
                accumulate(weight, dw.reshape(weight.shape))
                if x.requires_grad:
                    accumulate(x, scatter(lambda ki, kj: wd[:, ki, kj] * up))
            if bias is not None:
                accumulate(bias, up.sum(axis=(0, 2, 3)).reshape(1, spec.c_out, 1, 1))

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
            accumulate(x, dxp[:, :, p:p + h, p:p + w])

        tape.record((x,), out, back)
    return out


# ---------------------------------------------------------------------------
# normalization


def batchnorm2d(x: Tensor4, state: BatchNormState, tape: GradTape | None = None,
                activation=None) -> Tensor4:
    """Batch normalization over (n,h,w) per channel, the affine transform, then
    the activation when one is given.

    activation is a (value, value_grad) pair of kernels, as in
    `activations.ACTIVATIONS`: value(a) is f(a), value_grad(a) is (f(a), f'(a)).
    With a tape, batchnorm and activation are one entry. It keeps f' and
    neither x̂ nor the batchnorm output: its backward is up * f' followed by
    the batchnorm backward, which rebuilds x̂ from the input x with the
    forward's own centre, scale and in-place steps.
    """
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
            m = state.MOMENTUM
            state.running_mean = (1 - m) * state.running_mean + m * mu
            state.running_var = (1 - m) * state.running_var + m * unbiased
    else:
        # a copy: the backward must centre on the statistics of this forward
        mu = state.running_mean.copy()
        d = x.data - mu.reshape(1, c, 1, 1)
        var = state.running_var

    inv = 1.0 / np.sqrt(var + state.EPS)
    xhat = d
    xhat *= inv.reshape(1, c, 1, 1)
    out_arr = gamma.data * xhat
    out_arr += beta.data
    del d, xhat  # rebuilt by the backward; freed before the activation's temporaries
    deriv = None
    if activation is not None:
        value, value_grad = activation
        if tape is None:
            out_arr = value(out_arr)
        else:
            out_arr, deriv = value_grad(out_arr)
    out = Tensor4(out_arr)

    if tape is not None:
        training = state.training

        def back(up):
            if deriv is not None:
                up *= deriv  # the closure owns up
            # x̂ to the bit: the forward's subtraction and in-place scaling
            xhat = x.data - mu.reshape(1, c, 1, 1)
            xhat *= inv.reshape(1, c, 1, 1)
            g = gamma.data.reshape(c)
            t = up * xhat
            accumulate(gamma, t.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1))
            accumulate(beta, up.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1))
            if training:
                # inv * (gu - mean_gu - xhat * mean_gux), evaluated in place in that order
                gu = up * g.reshape(1, c, 1, 1)
                mean_gu = gu.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                mean_gux = np.multiply(gu, xhat, out=t).mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                gu -= mean_gu
                gu -= np.multiply(xhat, mean_gux, out=t)
                gu *= inv.reshape(1, c, 1, 1)
                accumulate(x, gu)
            else:
                accumulate(x, up * (g * inv).reshape(1, c, 1, 1))

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
            # each part gets its own disjoint view of up
            for part, sl in zip(parts, np.split(up, splits, axis=1)):
                accumulate(part, sl)

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
            # a source cell read by several output cells sums their gradients
            g = np.zeros_like(x.data)
            np.add.at(g, (slice(None), slice(None), src_r[:, None], src_c[None, :]), up)
            accumulate(x, g)

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
            accumulate(x, up * dfn())

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
            # up to one input and its copy to the other: no two grads share it
            accumulate(a, up)
            accumulate(b, up.copy())

        tape.record((a, b), out, back)
    return out


def mul(a: Tensor4, b: Tensor4, tape: GradTape | None = None) -> Tensor4:
    _check_same_shape("mul", a, b)
    out = Tensor4(a.data * b.data)
    if tape is not None:
        def back(up):
            accumulate(a, up * b.data)
            accumulate(b, up * a.data)

        tape.record((a, b), out, back)
    return out


def scalar_mul(x: Tensor4, c: float, tape: GradTape | None = None) -> Tensor4:
    out = Tensor4(x.data * float(c))
    if tape is not None:
        def back(up):
            accumulate(x, up * float(c))

        tape.record((x,), out, back)
    return out


def sum_all(x: Tensor4, tape: GradTape | None = None) -> Tensor4:
    """Reduce to a (1,1,1,1) scalar tensor; backward broadcasts the seed."""
    out = Tensor4(np.full((1, 1, 1, 1), x.data.sum()))
    if tape is not None:
        def back(up):
            accumulate(x, np.full(x.shape, up.reshape(())))

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


GRAD_CHECK_STEP = 1e-5  # central-difference step
GRAD_CHECK_COORDS = 32  # coordinates checked per tensor, at most


def grad_check(f, x: Tensor4, tol: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Compare f's recorded backward against central finite differences.

    f must be deterministic with signature f(t: Tensor4, tape) -> Tensor4.
    The output is projected onto a fixed random vector so a single backward
    pass yields the full Jacobian-transpose product; each checked coordinate
    then needs two forward evaluations. Tensors larger than GRAD_CHECK_COORDS
    coordinates are checked on a random sample of that many.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator. The
    backward runs on a marked tensor of its own over x.data, so x itself is
    neither marked nor given a .grad.
    """
    xt = Tensor4(x.data)
    xt.requires_grad = True
    tape = GradTape()
    y = f(xt, tape)
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal(y.shape)
    if len(tape) > 0:
        backward(tape, Tensor4(proj))
    analytic = xt.grad if xt.grad is not None else np.zeros_like(x.data)
    if not np.isfinite(analytic).all():
        coord = tuple(int(v) for v in np.argwhere(~np.isfinite(analytic))[0])
        raise DomainError("grad_check", f"non-finite analytic gradient at {coord}")

    numel = x.numel
    if numel <= GRAD_CHECK_COORDS:
        flat_coords = np.arange(numel)
    else:
        flat_coords = np.sort(rng.choice(numel, size=GRAD_CHECK_COORDS, replace=False))

    base = x.data
    max_rel = 0.0
    worst = (0, 0, 0, 0)
    for flat in flat_coords:
        coord = np.unravel_index(int(flat), x.shape)
        xp = base.copy()
        xp[coord] += GRAD_CHECK_STEP
        xm = base.copy()
        xm[coord] -= GRAD_CHECK_STEP
        yp = f(Tensor4(xp), None).data
        ym = f(Tensor4(xm), None).data
        if not (np.isfinite(yp).all() and np.isfinite(ym).all()):
            raise DomainError("grad_check", f"non-finite forward value perturbing {coord}")
        # elementwise difference first: untouched outputs cancel exactly
        num = float((proj * (yp - ym)).sum() / (2.0 * GRAD_CHECK_STEP))
        ana = float(analytic[coord])
        rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = tuple(int(v) for v in coord)
    return GradCheckReport(max_rel, max_rel <= tol, len(flat_coords), worst)
