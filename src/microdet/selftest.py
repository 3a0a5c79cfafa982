"""Self-contained invariant suites for the CLI, one deterministic line per suite.

The brute-force references embedded here (scalar convolution, exhaustive AP
sweep) are intentionally separate from the package's fast paths so each
check still runs two independent routes.
"""

from __future__ import annotations

import numpy as np

from .activations import mish, mish_grad_np, mish_np
from .dataio import generate_toy_scene
from .droi import DroiConfig, critical_width
from .ghost import C3GhostSpec, ConvSpec, GhostSpec, count_params_flops
from .losses import Box, DflTarget, bce_logits, ciou_loss, dfl_loss, iou
from .metrics import Detection, GroundTruth, average_precision
from .model import ModelConfig, build_model
from .simam import SimamConfig, energy_numeric_oracle, simam_energy_min, simam_forward
from .sppf import SimSppf, SimSppfSpec
from .tensor import (
    BatchNormState,
    GradTape,
    Tensor4,
    batchnorm2d,
    conv2d,
    grad_check,
    maxpool2d,
)


def _conv_scalar(x, w, s, p):
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    out = np.zeros((n, c_out, ho, wo))
    for ni in range(n):
        for oc in range(c_out):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                ii, jj = oi * s + ki - p, oj * s + kj - p
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni, ci, ii, jj] * w[oc, ci, ki, kj]
                    out[ni, oc, oi, oj] = acc
    return out


def suite_conv_oracle():
    rng = np.random.default_rng(0)
    x = rng.integers(-4, 5, size=(2, 3, 6, 6)).astype(float)
    w = rng.integers(-3, 4, size=(4, 3, 3, 3)).astype(float)
    spec = ConvSpec(3, 4, k=3, s=2, p=1)
    fast = conv2d(Tensor4(x), spec, Tensor4(w)).data
    if not np.array_equal(fast, _conv_scalar(x, w, 2, 1)):
        return "conv2d disagrees with the scalar quadruple loop"
    again = conv2d(Tensor4(x), spec, Tensor4(w)).data
    if not np.array_equal(fast, again):
        return "conv2d is not bit-identical across runs"
    return None


def suite_maxpool():
    rng = np.random.default_rng(1)
    x = Tensor4(-1.0 - rng.random((1, 2, 6, 6)))
    out = maxpool2d(x, 5, 1, 2)
    if not np.isfinite(out.data).all() or not (out.data < 0).all():
        return "maxpool selected padding over real entries"
    y = Tensor4(rng.normal(size=(1, 2, 9, 9)))
    twice = maxpool2d(maxpool2d(y, 5, 1, 2), 5, 1, 2).data
    if not np.array_equal(twice, maxpool2d(y, 9, 1, 4).data):
        return "cascaded 5x5 pools != single 9x9 pool"
    return None


def suite_gradients():
    rng = np.random.default_rng(2)
    spec = ConvSpec(2, 3, k=3, s=1, p=1)
    w = Tensor4(rng.normal(size=(3, 2, 3, 3)))
    st = BatchNormState.create(3)
    st.track_stats = False

    def chain(t, tape):
        return mish(batchnorm2d(conv2d(t, spec, w, tape=tape), st, tape), tape)

    for name, f in (("conv+bn+mish", chain), ("mish", mish)):
        rep = grad_check(f, Tensor4(rng.normal(size=(2, 2, 5, 5))), tol=1e-4)
        if not rep.passed:
            return f"grad_check failed for {name}: {rep}"
    return None


def suite_simam():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(2, 30))
        xs = rng.normal(0, 2, size=m)
        t = float(rng.normal(0, 2))
        lam = float(10 ** rng.uniform(-4, 0))
        e_num, _, _ = energy_numeric_oracle(t, xs, lam)
        e_closed = simam_energy_min(t, float(xs.mean()), float(xs.var()), lam)
        if abs(e_num - e_closed) > 1e-6:
            return f"closed form {e_closed} != numeric oracle {e_num}"
    out = simam_forward(Tensor4(np.full((1, 1, 3, 3), 2.0)), SimamConfig())
    expect = 2.0 / (1.0 + np.exp(-0.5))
    if abs(out.data[0, 0, 0, 0] - expect) > 1e-9:
        return "uniform-input attention weight is not sigmoid(0.5)"
    return None


def suite_mish_values():
    if mish_np(np.array([0.0]))[0] != 0.0:
        return "mish(0) != 0"
    if abs(mish_grad_np(np.array([0.0]))[0] - 0.6) > 1e-9:
        return "mish'(0) != 0.6"
    xs = np.arange(-3.0, 0.0, 1e-5)
    mn = mish_np(xs).min()
    if not -0.309 <= mn <= -0.308:
        return f"mish minimum {mn} outside [-0.309, -0.308]"
    return None


def suite_sppf():
    rng = np.random.default_rng(4)
    block = SimSppf(SimSppfSpec(4), rng=rng)
    x = Tensor4(rng.normal(size=(1, 4, 6, 6)))
    tape = GradTape()
    block.forward(x, tape)
    outs = [e.output for e in tape._entries]
    x1, y2, y3 = outs[2], outs[4], outs[5]
    if not np.array_equal(y2.data, maxpool2d(x1, 9, 1, 4).data):
        return "sppf cascade y2 != 9x9 pool"
    if not np.array_equal(y3.data, maxpool2d(x1, 13, 1, 6).data):
        return "sppf cascade y3 != 13x13 pool"
    return None


def suite_losses():
    b = Box(0.5, 0.5, 0.25, 0.25)
    if ciou_loss(b, b) > 1e-12:
        return "ciou(b, b) != 0"
    pred = Box(1 / 8, 1 / 8, 2 / 8, 2 / 8)
    gt = Box(3 / 8, 1 / 8, 2 / 8, 2 / 8)
    if abs(ciou_loss(pred, gt) - 1.2) > 1e-9:
        return "disjoint hand case != 1.2"
    logits = np.full(8, -40.0)
    logits[2] = 10.0
    logits[3] = 10.0
    if abs(dfl_loss(logits, DflTarget.for_value(2.5, 8)) - np.log(2)) > 1e-9:
        return "midpoint dfl != ln 2"
    if abs(bce_logits(0.0, 1.0) - np.log(2)) > 1e-12 or bce_logits(100.0, 1.0) > 1e-12:
        return "bce values wrong"
    return None


def _ap_bruteforce(dets, gts, iou_t):
    if not gts:
        return 0.0
    points = [(0.0, 1.0)]
    for thr in sorted({d.confidence for d in dets}, reverse=True):
        kept = sorted([d for d in dets if d.confidence >= thr],
                      key=lambda d: -d.confidence)
        used = [False] * len(gts)
        tp = 0
        for d in kept:
            best, bi = iou_t, -1
            for gi, g in enumerate(gts):
                if used[gi] or g.image_id != d.image_id:
                    continue
                val = iou(d.box, g.box)
                if val <= 0:
                    continue
                if val > best or (val == best and bi == -1):
                    best, bi = val, gi
            if bi >= 0:
                used[bi] = True
                tp += 1
        points.append((tp / len(gts), tp / len(kept) if kept else 0.0))
    points.sort(key=lambda rp: rp[0])
    rc = np.array([r for r, _ in points])
    pr = np.array([p for _, p in points])
    env = np.maximum.accumulate(pr[::-1])[::-1]
    return float(((rc[1:] - rc[:-1]) * env[1:]).sum())


def suite_metrics():
    rng = np.random.default_rng(5)
    for _ in range(25):
        gts, dets = [], []
        for img in ("0", "1"):
            for _ in range(int(rng.integers(1, 5))):
                cx, cy = rng.uniform(0.25, 0.75, size=2)
                w, h = rng.uniform(0.08, 0.2, size=2)
                gts.append(GroundTruth(0, Box(cx, cy, w, h), img))
                if rng.random() < 0.8:
                    j = rng.normal(0, 0.02, size=2)
                    dets.append(Detection(0, float(rng.uniform(0.2, 1.0)),
                                          Box(cx + j[0], cy + j[1], w, h), img))
            for _ in range(int(rng.integers(0, 3))):
                dets.append(Detection(0, float(rng.uniform(0.2, 1.0)),
                                      Box(*rng.uniform(0.3, 0.6, size=2), 0.1, 0.1), img))
        fast = average_precision(dets, gts, 0, 0.5)
        slow = _ap_bruteforce(dets, gts, 0.5)
        if abs(fast - slow) > 1e-9:
            return f"AP {fast} != brute force {slow}"
    return None


def suite_droi():
    cfg_off = DroiConfig(deadband=False)
    if critical_width(0.0, 0.0, cfg_off).w_c != cfg_off.w0:
        return "straight at rest != base width"
    if abs(critical_width(45.0, 10.0, cfg_off).w_c - 6.25) > 1e-12:
        return "verbatim width law broken"
    if abs(critical_width(45.0, 10.0, DroiConfig(deadband=True)).w_c - 4.75) > 1e-12:
        return "deadband width law broken"
    return None


def suite_model_structure():
    ghost = build_model(ModelConfig(use_c3ghost=True), 0).param_count()
    plain = build_model(ModelConfig(use_c3ghost=False), 0).param_count()
    if not ghost < plain or ghost / plain > 0.75:
        return f"ghost/plain parameter ratio {ghost / plain:.3f} > 0.75"
    on = build_model(ModelConfig(use_simam=True), 0).param_count()
    off = build_model(ModelConfig(use_simam=False), 0).param_count()
    if on != off:
        return "attention toggle changed the parameter count"
    img, _ = generate_toy_scene(0)
    model = build_model(ModelConfig(), 0)
    model.set_training(False)
    preds = model.forward(img)
    dims = [lv.cls.shape[2] for lv in preds.levels]
    if dims != [8, 4, 2]:
        return f"pyramid dims {dims} != [8, 4, 2]"
    a = model.forward(img)
    for l1, l2 in zip(preds.levels, a.levels):
        if not np.array_equal(l1.cls.data, l2.cls.data):
            return "repeated forward is not bit-identical"
    gp, gf = count_params_flops(C3GhostSpec(16, 16), 8, 8)
    pp, pf = count_params_flops(C3GhostSpec(16, 16), 8, 8, ghost=False)
    if not (gp < pp and gf < pf):
        return "C3 ghost counting shows no economy"
    if count_params_flops(GhostSpec(64, 64), 8, 8)[0] != 2336:
        return "ghost closed-form count != 2336"
    return None


SUITES = [
    ("conv-oracle", suite_conv_oracle),
    ("maxpool", suite_maxpool),
    ("gradients", suite_gradients),
    ("simam-energy", suite_simam),
    ("mish-values", suite_mish_values),
    ("sppf-cascade", suite_sppf),
    ("loss-values", suite_losses),
    ("metrics-ap", suite_metrics),
    ("droi", suite_droi),
    ("model-structure", suite_model_structure),
]


def run_selftest(out=print):
    """Run every suite; returns the number of failures."""
    failures = 0
    for name, fn in SUITES:
        detail = fn()
        if detail is None:
            out(f"ok {name}")
        else:
            failures += 1
            out(f"FAIL {name}: {detail}")
    out(f"{len(SUITES) - failures}/{len(SUITES)} suites passed")
    return failures
