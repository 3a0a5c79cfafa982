"""Self-contained invariant suites for the CLI, one deterministic line per suite,
and the finite-difference gradient table behind `microdet gradcheck`.

The brute-force references here (scalar convolution, exhaustive AP sweep with
its own corner IoU) are intentionally separate from the package's fast paths
so each check still runs two independent routes; the test suite uses the
same references.
"""

from __future__ import annotations

import numpy as np

from .activations import ACTIVATIONS, mish, mish_np, relu, silu
from .dataio import generate_toy_scene
from .droi import DroiConfig, critical_width
from .ghost import C3Block, GhostConv, count_params_flops
from .losses import Box, bce_logits, ciou, dfl
from .metrics import Detection, GroundTruth, average_precision
from .model import ModelConfig, build_model
from .neck import IgdNeck, PyramidFeatures
from .simam import energy_numeric_oracle, simam_energy_min, simam_forward
from .sppf import SimConv, SimSppf
from .tensor import (
    BatchNormState,
    ConvSpec,
    DomainError,
    Tensor4,
    add,
    batchnorm2d,
    concat_channels,
    conv2d,
    grad_check,
    maxpool2d,
    resize_nearest,
    sum_all,
)


# ---------------------------------------------------------------------------
# brute-force references


def conv2d_scalar_oracle(x, w, s, p, g=1, bias=None):
    """Quadruple-loop cross-correlation over explicit indices."""
    n, c_in, h, wd = x.shape
    c_out, cg, k, _ = w.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    out = np.zeros((n, c_out, ho, wo))
    for ni in range(n):
        for oc in range(c_out):
            gi = oc // (c_out // g)
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        ic = gi * cg + ci
                        for ki in range(k):
                            for kj in range(k):
                                ii = oi * s + ki - p
                                jj = oj * s + kj - p
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni, ic, ii, jj] * w[oc, ci, ki, kj]
                    if bias is not None:
                        acc += bias[oc]
                    out[ni, oc, oi, oj] = acc
    return out


def iou_corner_oracle(a, b):
    """IoU of two (x1,y1,x2,y2) boxes from the definition."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    ua = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / ua if ua > 0 else 0.0


def ap_exhaustive_oracle(dets, gts, iou_t):
    """Exhaustive threshold-sweep AP for one class, rematched per threshold.

    dets: list of (confidence, corners, image_id); gts: list of
    (corners, image_id), both already filtered to the class. For every
    distinct confidence the kept subset is matched greedily from scratch
    (confidence order, best IoU >= iou_t, per image); the resulting PR
    points are integrated under the monotone envelope.
    """
    n_gt = len(gts)
    if n_gt == 0 or not dets:
        return 0.0

    def match_subset(thr):
        kept = [d for d in dets if d[0] >= thr]
        kept = [kept[i] for i in sorted(range(len(kept)),
                                        key=lambda i: (-kept[i][0], i))]
        used = [False] * len(gts)
        tp = 0
        for conf, corners, img in kept:
            best_iou, best_gi = iou_t, -1
            for gi, (gcorners, gimg) in enumerate(gts):
                if used[gi] or gimg != img:
                    continue
                val = iou_corner_oracle(corners, gcorners)
                if val <= 0:
                    continue
                if val > best_iou or (val == best_iou and best_gi == -1):
                    best_iou, best_gi = val, gi
            if best_gi >= 0:
                used[best_gi] = True
                tp += 1
        return tp, len(kept)

    points = []
    for thr in sorted({c for c, _, _ in dets}, reverse=True):
        tp, n_det = match_subset(thr)
        recall = tp / n_gt
        precision = tp / n_det if n_det else 0.0
        points.append((recall, precision))
    points.sort(key=lambda rp: rp[0])
    points = [(0.0, 1.0)] + points
    recalls = np.array([r for r, _ in points])
    precs = np.array([p for _, p in points])
    env = np.maximum.accumulate(precs[::-1])[::-1]
    area = 0.0
    for i in range(1, len(recalls)):
        area += (recalls[i] - recalls[i - 1]) * env[i]
    return float(area)


# ---------------------------------------------------------------------------
# invariant suites


def suite_conv_oracle():
    rng = np.random.default_rng(0)
    x = rng.integers(-4, 5, size=(2, 3, 6, 6)).astype(float)
    w = rng.integers(-3, 4, size=(4, 3, 3, 3)).astype(float)
    spec = ConvSpec(3, 4, k=3, s=2, p=1)
    fast = conv2d(Tensor4(x), spec, Tensor4(w)).data
    if not np.array_equal(fast, conv2d_scalar_oracle(x, w, 2, 1)):
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
    for row in GRADCHECK_TABLE:
        if row[0] in ("sim_conv", "mish"):
            name, err, ok = _table_row(row, seeds=(0,))
            if not ok:
                return f"gradient check failed for {name}: max_rel_err={err:.3e}"
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
    out = simam_forward(Tensor4(np.full((1, 1, 3, 3), 2.0)))
    expect = 2.0 / (1.0 + np.exp(-0.5))
    if abs(out.data[0, 0, 0, 0] - expect) > 1e-9:
        return "uniform-input attention weight is not sigmoid(0.5)"
    return None


def suite_mish_values():
    if mish_np(np.array([0.0]))[0] != 0.0:
        return "mish(0) != 0"
    if abs(ACTIVATIONS["mish"].value_grad(np.array([0.0]))[1][0] - 0.6) > 1e-9:
        return "mish'(0) != 0.6"
    xs = np.arange(-3.0, 0.0, 1e-5)
    mn = mish_np(xs).min()
    if not -0.309 <= mn <= -0.308:
        return f"mish minimum {mn} outside [-0.309, -0.308]"
    return None


def suite_sppf():
    # the chained 5x5 pools equal single 5, 9 and 13 pools on cv1's output
    rng = np.random.default_rng(4)
    block = SimSppf(4, rng=rng)
    x = Tensor4(rng.normal(size=(1, 4, 6, 6)))
    x1 = block.cv1.forward(x)
    pools = [maxpool2d(x1, k, 1, k // 2) for k in (5, 9, 13)]
    want = block.cv2.forward(concat_channels([x1] + pools))
    if not np.array_equal(block.forward(x).data, want.data):
        return "sppf cascade != cv2(concat[x1, pool5, pool9, pool13](cv1(x)))"
    return None


def suite_losses():
    b = np.array([[0.5, 0.5, 0.25, 0.25]])
    if ciou(b, b)[0][0] > 1e-12:
        return "ciou(b, b) != 0"
    pred = np.array([[1 / 8, 1 / 8, 2 / 8, 2 / 8]])
    gt = np.array([[3 / 8, 1 / 8, 2 / 8, 2 / 8]])
    if abs(ciou(pred, gt)[0][0] - 1.2) > 1e-9:
        return "disjoint hand case != 1.2"
    logits = np.full(8, -40.0)
    logits[2] = 10.0
    logits[3] = 10.0
    if abs(dfl(logits, 2.5)[0] - np.log(2)) > 1e-9:
        return "midpoint dfl != ln 2"
    if abs(bce_logits(0.0, 1.0)[0] - np.log(2)) > 1e-12 or bce_logits(100.0, 1.0)[0] > 1e-12:
        return "bce values wrong"
    return None


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
        slow = ap_exhaustive_oracle(
            [(d.confidence, d.box.corners(), d.image_id) for d in dets],
            [(g.box.corners(), g.image_id) for g in gts], 0.5)
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
    rng = np.random.default_rng(0)
    gp, gf = count_params_flops(C3Block(16, 16, rng=rng), 8, 8)
    pp, pf = count_params_flops(C3Block(16, 16, ghost=False, rng=rng), 8, 8)
    if not (gp < pp and gf < pf):
        return "C3 ghost counting shows no economy"
    if count_params_flops(GhostConv(64, 64, rng=rng), 8, 8)[0] != 2336:
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


# ---------------------------------------------------------------------------
# gradcheck

GRADCHECK_TOL = 1e-4  # the largest relative error a row may show and pass
LOSS_FD_STEP = 1e-6  # central-difference step of the loss-kernel rows


def _conv(rng):
    spec = ConvSpec(3, 4, k=3, s=2, p=1)
    w = Tensor4(rng.normal(size=(4, 3, 3, 3)))
    return lambda t, tape: conv2d(t, spec, w, tape=tape)


def _batchnorm(rng):
    st = BatchNormState.create(3)
    st.track_stats = False
    return lambda t, tape: batchnorm2d(t, st, tape)


def _train_forward(block):
    """block.forward in training mode, without updating running statistics."""
    block.set_training(True, track_stats=False)
    return block.forward


def _neck(rng):
    forward = _train_forward(IgdNeck((2, 4, 6), rng=rng))
    p4 = Tensor4(rng.normal(size=(1, 4, 4, 4)))
    p5 = Tensor4(rng.normal(size=(1, 6, 2, 2)))

    def f(t, tape):
        out = forward(PyramidFeatures(t, p4, p5), tape)
        s = sum_all(out.p3, tape)
        s = add(s, sum_all(out.p4, tape), tape)
        return add(s, sum_all(out.p5, tape), tape)

    return f


def _model(rng):
    forward = _train_forward(build_model(ModelConfig(), int(rng.integers(1 << 16))))

    def f(t, tape):
        acc = None
        for lv in forward(t, tape).levels:
            for tensor in (lv.cls, lv.box):
                s = sum_all(tensor, tape)
                acc = s if acc is None else add(acc, s, tape)
        return acc

    return f


# (name, build(rng) -> f(t, tape), input shape, tolerance), in print order;
# the loss-kernel rows print between the blocks and the whole model (the last row)
GRADCHECK_TABLE = [
    ("conv2d", _conv, (2, 3, 6, 6), GRADCHECK_TOL),
    ("batchnorm2d", _batchnorm, (2, 3, 5, 5), GRADCHECK_TOL),
    ("maxpool2d", lambda rng: (lambda t, tape: maxpool2d(t, 3, 1, 1, tape)),
     (1, 2, 6, 6), GRADCHECK_TOL),
    ("resize_nearest", lambda rng: (lambda t, tape: resize_nearest(t, 9, 4, tape)),
     (1, 2, 3, 4), GRADCHECK_TOL),
    ("mish", lambda rng: mish, (2, 2, 4, 4), GRADCHECK_TOL),
    ("silu", lambda rng: silu, (2, 2, 4, 4), GRADCHECK_TOL),
    ("relu", lambda rng: relu, (2, 2, 4, 4), GRADCHECK_TOL),
    ("simam_forward", lambda rng: simam_forward, (2, 3, 4, 4), GRADCHECK_TOL),
    ("ghost_conv", lambda rng: _train_forward(GhostConv(3, 8, rng=rng)),
     (2, 3, 4, 4), GRADCHECK_TOL),
    ("c3ghost_block", lambda rng: _train_forward(C3Block(4, 4, rng=rng)),
     (1, 4, 4, 4), GRADCHECK_TOL),
    # conv -> batchnorm -> Mish
    ("sim_conv", lambda rng: _train_forward(SimConv(3, 4, k=3, rng=rng)), (2, 3, 5, 5),
     GRADCHECK_TOL),
    ("simsppf_forward", lambda rng: _train_forward(SimSppf(4, rng=rng)), (1, 4, 5, 5),
     GRADCHECK_TOL),
    ("igd_neck_forward", _neck, (1, 2, 8, 8), GRADCHECK_TOL),
    ("model_end_to_end", _model, (1, 3, 32, 32), 1e-3),
]


def gradcheck_row(name, seed):
    """grad_check of the table row `name` at one seed; the row's builder and
    input draw from default_rng(9000 + seed)."""
    _, build, shape, tol = next(row for row in GRADCHECK_TABLE if row[0] == name)
    rng = np.random.default_rng(9000 + seed)
    return grad_check(build(rng), Tensor4(rng.normal(size=shape)), tol=tol, seed=seed)


def _table_row(row, seeds):
    """(name, max relative error over seeds, passed) of one table row."""
    name, tol = row[0], row[3]
    worst = max(gradcheck_row(name, seed).max_rel_err for seed in seeds)
    return name, worst, worst <= tol


def _loss_cases(rng):
    """One draw of each loss kernel training runs: (row name, scalar loss of x,
    x, analytic gradient at x). CIoU is differentiated with alpha pinned at its
    base value, the map its analytic gradient differentiates."""
    def box():
        return np.concatenate([rng.uniform(0.35, 0.65, size=2),
                               rng.uniform(0.1, 0.3, size=2)])[None]

    pred, gt = box(), box()
    _, grad, (_, _, _, alpha) = ciou(pred, gt)
    z, y = rng.normal(size=8), float(rng.uniform(0, 7))
    x, t = np.array([rng.normal()]), float(rng.uniform())
    return [
        ("ciou_loss", lambda p: ciou(p, gt, alpha)[0][0], pred, grad),
        ("dfl_loss", lambda v: dfl(v, y)[0], z, dfl(z, y)[1]),
        ("bce_logits", lambda v: bce_logits(v, t)[0][0], x, bce_logits(x, t)[1]),
    ]


def _central_diff_error(f, x, grad):
    """Worst relative error of grad against central differences of f at every coordinate of x."""
    worst = 0.0
    for k in range(x.size):
        step = np.zeros(x.shape)
        step.flat[k] = LOSS_FD_STEP
        num = (f(x + step) - f(x - step)) / (2 * LOSS_FD_STEP)
        ana = grad.flat[k]
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    return worst


def _loss_rows(seeds):
    worst = {}
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            for name, f, x, grad in _loss_cases(rng):
                worst[name] = max(worst.get(name, 0.0), _central_diff_error(f, x, grad))
    return [(name, err, err <= GRADCHECK_TOL) for name, err in worst.items()]


def gradcheck_rows(seeds=range(5)):
    """(row name, max relative error, passed) for every row, in print order."""
    if not seeds:
        raise DomainError("gradcheck", f"no seeds to check in {seeds!r}")
    rows = [_table_row(row, seeds) for row in GRADCHECK_TABLE]
    return rows[:-1] + _loss_rows(seeds) + rows[-1:]
