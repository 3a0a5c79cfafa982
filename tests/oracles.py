"""Independent brute-force reference implementations shared by the test suite.

Everything here is deliberately slow and written from the definitions, with
no code shared with the package paths it checks. The scalar convolution and
the exhaustive AP sweep (with its corner IoU) live in `microdet.selftest`,
since the CLI selftest runs them too, and are re-exported here.
`assign_loop_oracle` is the earlier assigner, a loop over each ground truth
and each cell with the scalar `iou`, the bit-exact reference for the batched
`assign_targets`. The loss oracle takes its cells from it and loops over them
with the scalar CIoU, DFL and BCE below, so it shares no code with
`loss_and_grads`. The masked sigmoid, the two-exp softplus and the gradient
formulas built on them are the engine's earlier elementwise kernels, kept as
the bit-exact reference for the one-exp ones. `mf1_sweep_oracle` is the
earlier mF1 sweep, which rematches every class at every distinct confidence;
it shares only `match` with the prefix-sum sweep it checks.
`decode_loop_oracle` is the earlier per-cell decode with its tuple NMS over
the scalar `iou`, the bit-exact reference for the array decode; it shares
only `_stable_sigmoid`, `Box` and `iou` with it.
`conv2d_grouped_einsum_oracle` is the einsum loop of a conv with any group
count, the bit-exact reference for the engine's depthwise path.
`simconv_chain_oracle` is the earlier SimConv: conv, a batchnorm that keeps
x̂ (`batchnorm_kept_xhat_oracle`) and the activation, each its own tape
entry, with the activation's value and derivative from the oracle kernels;
it is the bit-exact reference for SimConv's conv plus fused batchnorm and
activation. `backward_prezero_oracle` is the earlier tape replay, which
gives every tape tensor a zero-filled grad before the first closure runs,
replays every entry and keeps them all; it is the bit-exact reference for
the engine's handoff `backward` (for the parameters, and for the inputs a
caller marks).
`adamw_loop_oracle` is the earlier optimizer, one AdamW expression per
parameter with moments kept by name, the bit-exact reference for the flat
in-place `adamw_step`.
"""

import math

import numpy as np

from microdet.losses import Box, LevelGrid, iou
from microdet.metrics import Detection, match
from microdet.selftest import ap_exhaustive_oracle, conv2d_scalar_oracle  # re-exported
from microdet.tensor import (
    DomainError,
    ShapeError,
    Tensor4,
    _stable_sigmoid,
    accumulate,
    conv2d,
)


def maxpool_scalar_oracle(x, k, s, p):
    n, c, h, w = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    out = np.full((n, c, ho, wo), -np.inf)
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    for ki in range(k):
                        for kj in range(k):
                            ii = oi * s + ki - p
                            jj = oj * s + kj - p
                            if 0 <= ii < h and 0 <= jj < w:
                                out[ni, ci, oi, oj] = max(out[ni, ci, oi, oj],
                                                          x[ni, ci, ii, jj])
    return out


def batchnorm_scalar_oracle(x, gamma, beta, eps):
    """Training-mode batchnorm from the definition (biased variance)."""
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gamma.reshape(1, -1, 1, 1) * xhat + beta.reshape(1, -1, 1, 1)


def mish_scalar(x):
    return x * np.tanh(np.logaddexp(0.0, x))


# The elementwise kernels as the engine first wrote them: a sigmoid split by
# boolean masks into its two stable branches, and a separate exp for every
# softplus and sigmoid. The one-exp kernels must reproduce them bit for bit.


def sigmoid_masked_oracle(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def softplus_two_exp_oracle(a):
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def mish_grad_two_exp_oracle(a):
    t = np.tanh(softplus_two_exp_oracle(a))
    return t + a * (1.0 - t * t) * sigmoid_masked_oracle(a)


def silu_grad_masked_oracle(a):
    s = sigmoid_masked_oracle(a)
    return s * (1.0 + a * (1.0 - s))


def batchnorm_kept_xhat_oracle(x, state, tape=None):
    """The earlier taped batchnorm: its closure keeps the normalised input x̂
    from the forward instead of rebuilding it."""
    n, c, h, w = x.shape
    gamma, beta = state.gamma, state.beta
    if state.training:
        cnt = n * h * w
        mu = x.data.mean(axis=(0, 2, 3))
        d = x.data - mu.reshape(1, c, 1, 1)
        var = (d * d).sum(axis=(0, 2, 3)) / cnt
        if state.track_stats:
            unbiased = var * cnt / (cnt - 1) if cnt > 1 else var
            m = state.MOMENTUM
            state.running_mean = (1 - m) * state.running_mean + m * mu
            state.running_var = (1 - m) * state.running_var + m * unbiased
    else:
        d = x.data - state.running_mean.reshape(1, c, 1, 1)
        var = state.running_var
    inv = 1.0 / np.sqrt(var + state.EPS)
    xhat = d
    xhat *= inv.reshape(1, c, 1, 1)
    out = Tensor4(gamma.data * xhat + beta.data)
    if tape is not None:
        training = state.training

        def back(up):
            g = gamma.data.reshape(c)
            t = up * xhat
            accumulate(gamma, t.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1))
            accumulate(beta, up.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1))
            if training:
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


# (value, derivative) of each activation from the oracle kernels above
ACTIVATION_ORACLES = {
    "mish": (lambda a: a * np.tanh(softplus_two_exp_oracle(a)), mish_grad_two_exp_oracle),
    "silu": (lambda a: a * sigmoid_masked_oracle(a), silu_grad_masked_oracle),
    "relu": (lambda a: np.maximum(a, 0.0), lambda a: (a > 0).astype(np.float64)),
}


def simconv_chain_oracle(conv, x, tape=None):
    """The earlier SimConv forward: conv, batchnorm and the activation as three
    tape entries, the activation's derivative worked out in the backward from
    the batchnorm output that the tape keeps."""
    y = batchnorm_kept_xhat_oracle(conv2d(x, conv.spec, conv.weight, tape=tape), conv.bn, tape)
    value, grad = ACTIVATION_ORACLES[conv.activation]
    out = Tensor4(value(y.data))
    if tape is not None:
        tape.record((y,), out, lambda up: accumulate(y, up * grad(y.data)))
    return out


def bce_logits_two_exp_oracle(x, t):
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    return loss, sigmoid_masked_oracle(x) - t


def conv2d_scatter_dx_oracle(w, up, x_shape, s, p):
    """dx of an ungrouped conv the general way: im2col gradient columns
    scattered cell by cell through a zero padded buffer."""
    n, c, h, wd = x_shape
    c_out, _, k, _ = w.shape
    ho, wo = up.shape[2:]
    dcol = np.matmul(w.reshape(c_out, c * k * k).T, up.reshape(n, c_out, ho * wo))
    dcol = dcol.reshape(n, c, k, k, ho, wo)
    dxp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcol[:, :, ki, kj]
    return np.zeros(x_shape) + dxp[:, :, p:p + h, p:p + wd]


def conv2d_grouped_einsum_oracle(x, w, g, s, p, up):
    """Forward, dx and dw of a grouped conv the general way: one einsum per
    kernel cell for the output, for dw and for dx scattered through a zero
    padded buffer. `up` is the upstream gradient of the output."""
    n, c, h, wd = x.shape
    c_out, cg, k, _ = w.shape
    m = c_out // g
    ho, wo = up.shape[2:]
    xp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    xp[:, :, p:p + h, p:p + wd] = x
    xg = xp.reshape(n, g, cg, h + 2 * p, wd + 2 * p)
    wg = w.reshape(g, m, cg, k, k)
    upg = up.reshape(n, g, m, ho, wo)
    out = np.zeros((n, g, m, ho, wo))
    dw = np.zeros_like(wg)
    dxp = np.zeros_like(xg)
    for ki in range(k):
        for kj in range(k):
            xs = xg[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
            out += np.einsum("gmc,ngchw->ngmhw", wg[:, :, :, ki, kj], xs)
            dw[:, :, :, ki, kj] = np.einsum("ngmhw,ngchw->gmc", upg, xs)
            dxp[:, :, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += np.einsum(
                "gmc,ngmhw->ngchw", wg[:, :, :, ki, kj], upg)
    dx = np.zeros(x.shape) + dxp.reshape(n, c, h + 2 * p, wd + 2 * p)[:, :, p:p + h, p:p + wd]
    return out.reshape(n, c_out, ho, wo), dx, np.zeros(w.shape) + dw.reshape(w.shape)


def iou_raster_oracle(a, b, cells=2000):
    """Rasterized IoU estimate on a cells x cells grid over [0,1]^2."""
    xs = (np.arange(cells) + 0.5) / cells
    gx, gy = np.meshgrid(xs, xs)

    def inside(box):
        x1, y1, x2, y2 = box
        return (gx >= x1) & (gx < x2) & (gy >= y1) & (gy < y2)

    ma, mb = inside(a), inside(b)
    inter = np.count_nonzero(ma & mb)
    union = np.count_nonzero(ma | mb)
    return inter / union if union else 0.0


def ciou_oracle(pred, gt, alpha=None):
    """CIoU of one (cx, cy, w, h) box pair with its gradient w.r.t. pred.

    Branches on which edge attains each min/max of the intersection and the
    enclosing hull. alpha is held constant in the gradient; a given alpha
    pins it. Returns (loss, grad (4,), (iou, rho2/c2, v, alpha)).
    """
    pcx, pcy, pw, ph = pred
    gcx, gcy, gw, gh = gt
    px1, py1, px2, py2 = pcx - pw / 2, pcy - ph / 2, pcx + pw / 2, pcy + ph / 2
    gx1, gy1, gx2, gy2 = gcx - gw / 2, gcy - gh / 2, gcx + gw / 2, gcy + gh / 2

    iw = min(px2, gx2) - max(px1, gx1)
    ih = min(py2, gy2) - max(py1, gy1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    iou_val = inter / union

    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2
    cw = max(px2, gx2) - min(px1, gx1)
    ch = max(py2, gy2) - min(py1, gy1)
    c2 = cw * cw + ch * ch

    delta = math.atan2(gw, gh) - math.atan2(pw, ph)
    v = (4.0 / math.pi**2) * delta * delta
    if alpha is None:
        denom = (1.0 - iou_val) + v
        alpha = 0.0 if denom == 0.0 else v / denom

    loss = 1.0 - iou_val + rho2 / c2 + alpha * v

    # the intersection term is zero when the boxes are disjoint
    dinter = np.zeros(4)
    if iw > 0 and ih > 0:
        diw = np.zeros(4)
        dih = np.zeros(4)
        if px2 < gx2:     # min attained by pred's right edge
            diw[0] += 1.0
            diw[2] += 0.5
        if px1 > gx1:     # max attained by pred's left edge
            diw[0] -= 1.0
            diw[2] += 0.5
        if py2 < gy2:
            dih[1] += 1.0
            dih[3] += 0.5
        if py1 > gy1:
            dih[1] -= 1.0
            dih[3] += 0.5
        dinter = diw * ih + dih * iw
    dunion = np.array([0.0, 0.0, ph, pw]) - dinter
    diou = (dinter * union - inter * dunion) / (union * union)

    drho2 = np.array([2 * (pcx - gcx), 2 * (pcy - gcy), 0.0, 0.0])
    dcw = np.zeros(4)
    dch = np.zeros(4)
    if px2 > gx2:
        dcw[0] += 1.0
        dcw[2] += 0.5
    if px1 < gx1:
        dcw[0] -= 1.0
        dcw[2] += 0.5
    if py2 > gy2:
        dch[1] += 1.0
        dch[3] += 0.5
    if py1 < gy1:
        dch[1] -= 1.0
        dch[3] += 0.5
    dc2 = 2 * cw * dcw + 2 * ch * dch
    ddist = (drho2 * c2 - rho2 * dc2) / (c2 * c2)

    wh2 = pw**2 + ph**2
    dv = np.array([0.0, 0.0, -(8.0 / math.pi**2) * delta * ph / wh2,
                   (8.0 / math.pi**2) * delta * pw / wh2])

    grad = -diou + ddist + alpha * dv
    return loss, grad, (iou_val, rho2 / c2, v, alpha)


def _softmax_oracle(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def expected_bin_oracle(logits):
    """Expectation of one bin distribution: sum_i i * softmax(logits)_i."""
    z = np.asarray(logits, dtype=np.float64)
    return float((_softmax_oracle(z) * np.arange(z.size)).sum())


def dfl_oracle(logits, y):
    """DFL of one bin distribution against target y, with its gradient.

    -((y_r - y) log p[y_l] + (y - y_l) log p[y_r]) for p = softmax(logits)
    and the unit-spaced bins y_l = min(floor(y), reg_max - 2), y_r = y_l + 1.
    """
    z = np.asarray(logits, dtype=np.float64)
    y_l = min(int(math.floor(y)), z.size - 2)
    y_r = y_l + 1
    p = _softmax_oracle(z)
    w_l, w_r = y_r - y, y - y_l
    loss = -(w_l * math.log(p[y_l]) + w_r * math.log(p[y_r]))
    grad = p * (w_l + w_r)
    grad[y_l] -= w_l
    grad[y_r] -= w_r
    return loss, grad


def bce_oracle(x, t):
    """log(1 + e^x) - x t and its gradient sigmoid(x) - t, elementwise."""
    return np.logaddexp(0.0, x) - x * t, 0.5 * (1.0 + np.tanh(x / 2)) - t


def gt_table(gts_per_image):
    """The (boxes, image) arrays `losses.assign_targets` takes, from GroundTruth lists."""
    boxes = np.array([(g.box.cx, g.box.cy, g.box.w, g.box.h)
                      for gts in gts_per_image for g in gts], dtype=np.float64).reshape(-1, 4)
    image = np.repeat(np.arange(len(gts_per_image)), [len(gts) for gts in gts_per_image])
    return boxes, image


def assign_loop_oracle(boxes, image, grids):
    """`losses.assign_targets` as a loop over each ground truth and each cell of
    its level, one scalar `iou` per candidate cell.

    Same arguments and the same per-level (P, 4) int arrays of (image, i, j,
    k) rows. Unlike the package it raises on a degenerate box only where a
    cell centre falls inside it.
    """
    img_h = grids[0].h * grids[0].stride
    img_w = grids[0].w * grids[0].stride
    per_level = [dict() for _ in grids]  # (image, i, j) -> (metric, k)
    for k, (row, b) in enumerate(zip(boxes, image)):
        box = Box(*(float(v) for v in row))
        x1 = (box.cx - box.w / 2) * img_w
        x2 = (box.cx + box.w / 2) * img_w
        y1 = (box.cy - box.h / 2) * img_h
        y2 = (box.cy + box.h / 2) * img_h
        max_side = max(x2 - x1, y2 - y1)
        best_level = min(range(len(grids)),
                         key=lambda l: (abs(max_side - 4 * grids[l].stride), l))
        g = grids[best_level]
        s = g.stride
        for ci in range(g.h):
            cyc = (ci + 0.5) * s
            if not y1 <= cyc <= y2:
                continue
            for cj in range(g.w):
                cxc = (cj + 0.5) * s
                if not x1 <= cxc <= x2:
                    continue
                cell = Box(cxc / img_w, cyc / img_h, s / img_w, s / img_h)
                metric = iou(cell, box)
                cur = per_level[best_level].get((int(b), ci, cj))
                if cur is None or metric > cur[0]:
                    per_level[best_level][(int(b), ci, cj)] = (metric, k)
    return [np.array(sorted((*cell, k) for cell, (_, k) in lvl.items()),
                     dtype=np.intp).reshape(-1, 4)
            for lvl in per_level]


# YOLOv8's loss gains, written out here apart from `losses.LossWeights`
ORACLE_CLS_GAIN, ORACLE_BOX_GAIN, ORACLE_DFL_GAIN = 0.5, 7.5, 1.5


def loss_per_cell_oracle(preds, gts_per_image, frozen_alphas=None):
    """`losses.loss_and_grads` as a loop over positive cells, one scalar CIoU and
    four scalar DFL calls each, with one BCE map per image and level.

    Same contract and the same level-major alpha order: (total, breakdown,
    grads, alphas).
    """
    reg_max = preds.reg_max
    nc = preds.num_classes
    batch = preds.levels[0].cls.shape[0]
    if len(gts_per_image) != batch:
        raise DomainError("loss", f"{len(gts_per_image)} gt lists for batch of {batch}")
    grids = [LevelGrid(lv.stride, lv.cls.shape[2], lv.cls.shape[3]) for lv in preds.levels]
    img_h = grids[0].h * grids[0].stride
    img_w = grids[0].w * grids[0].stride
    n_cells = sum(g.h * g.w for g in grids)

    cls_sum = 0.0
    box_sum = 0.0
    dfl_sum = 0.0
    grads = [(np.zeros_like(lv.cls.data), np.zeros_like(lv.box.data))
             for lv in preds.levels]

    flat = [g for gts in gts_per_image for g in gts]
    assignments = assign_loop_oracle(*gt_table(gts_per_image), grids)
    n_pos = sum(len(rows) for rows in assignments)
    alphas = []

    for li, lv in enumerate(preds.levels):
        g = grids[li]
        for b in range(batch):
            cells = [(ci, cj, flat[k]) for bi, ci, cj, k in assignments[li] if bi == b]
            targets = np.zeros((nc, g.h, g.w))
            for ci, cj, gt in cells:
                targets[gt.class_id, ci, cj] = 1.0
            loss_map, grad_map = bce_oracle(lv.cls.data[b], targets)
            cls_sum += loss_map.sum()
            grads[li][0][b] += grad_map

            for ci, cj, gt in cells:
                gt = gt.box
                gt_box = (gt.cx, gt.cy, gt.w, gt.h)
                gx1, gy1 = gt.cx - gt.w / 2, gt.cy - gt.h / 2
                gx2, gy2 = gt.cx + gt.w / 2, gt.cy + gt.h / 2
                s = g.stride
                cxc, cyc = (cj + 0.5) * s, (ci + 0.5) * s
                tdist = np.array([
                    cxc - gx1 * img_w, cyc - gy1 * img_h,
                    gx2 * img_w - cxc, gy2 * img_h - cyc,
                ]) / s
                tdist = np.clip(tdist, 0.0, reg_max - 1.0)

                zs = lv.box.data[b, :, ci, cj].reshape(4, reg_max)
                pdist = np.array([expected_bin_oracle(zs[k]) for k in range(4)])

                pred_box = (
                    (cxc + (pdist[2] - pdist[0]) * s / 2) / img_w,
                    (cyc + (pdist[3] - pdist[1]) * s / 2) / img_h,
                    (pdist[0] + pdist[2]) * s / img_w,
                    (pdist[1] + pdist[3]) * s / img_h,
                )
                override = frozen_alphas[len(alphas)] if frozen_alphas is not None else None
                closs, cgrad, (_, _, _, alpha) = ciou_oracle(pred_box, gt_box, override)
                alphas.append(alpha)
                box_sum += closs

                # d(box params)/d(dist): cx <- (r - l), w <- (l + r), per axis
                sx, sy = s / img_w, s / img_h
                ddist = np.array([
                    -cgrad[0] * sx / 2 + cgrad[2] * sx,
                    -cgrad[1] * sy / 2 + cgrad[3] * sy,
                    cgrad[0] * sx / 2 + cgrad[2] * sx,
                    cgrad[1] * sy / 2 + cgrad[3] * sy,
                ])

                dz = np.zeros((4, reg_max))
                for k in range(4):
                    dloss, dgrad = dfl_oracle(zs[k], float(tdist[k]))
                    dfl_sum += dloss / 4.0
                    dz[k] += dgrad / 4.0 * ORACLE_DFL_GAIN
                    # chain CIoU through the expectation decode
                    p = _softmax_oracle(zs[k])
                    bins = np.arange(reg_max, dtype=np.float64)
                    dz[k] += ddist[k] * p * (bins - (p * bins).sum()) * ORACLE_BOX_GAIN
                grads[li][1][b, :, ci, cj] += dz.reshape(-1)

    cls_den = batch * n_cells * nc
    cls_term = cls_sum / cls_den
    box_term = box_sum / n_pos if n_pos else 0.0
    dfl_term = dfl_sum / n_pos if n_pos else 0.0
    total = ORACLE_CLS_GAIN * cls_term + ORACLE_BOX_GAIN * box_term + ORACLE_DFL_GAIN * dfl_term
    for li in range(len(preds.levels)):
        grads[li][0][:] *= ORACLE_CLS_GAIN / cls_den
        if n_pos:
            grads[li][1][:] /= n_pos
    breakdown = {"cls": cls_term, "box": box_term, "dfl": dfl_term, "total": total}
    return total, breakdown, grads, alphas


def mf1_sweep_oracle(dets, gts, supported):
    """(best mean F1, its confidence, per-class stats) by rematching at every confidence.

    Keeps the detections with confidence >= each distinct confidence, orders
    each class by (-confidence, input index) and greedily matches it at IoU
    0.5. P is 0 with nothing kept, R is 1 with nothing to recall; the first
    confidence (from the top) with the highest class-mean F1 wins.
    """
    candidates = sorted({d.confidence for d in dets}, reverse=True) or [0.0]
    best_f1, best_conf, best_stats = -1.0, candidates[0], {}
    for conf in candidates:
        kept = [d for d in dets if d.confidence >= conf]
        f1s, stats = [], {}
        for c in supported:
            keyed = [d for d in kept if d.class_id == c]
            order = sorted(range(len(keyed)), key=lambda i: (-keyed[i].confidence, i))
            class_gts = [g for g in gts if g.class_id == c]
            n_tp = sum(match([keyed[i] for i in order], class_gts, 0.5))
            n_dets, n_gts = len(keyed), len(class_gts)
            p = n_tp / n_dets if n_dets else 0.0
            r = n_tp / n_gts if n_gts else 1.0
            f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
            f1s.append(f1)
            stats[c] = {"precision": p, "recall": r, "f1": f1}
        mean_f1 = float(np.mean(f1s)) if f1s else 0.0
        if mean_f1 > best_f1:
            best_f1, best_conf, best_stats = mean_f1, conf, stats
    return max(best_f1, 0.0), best_conf, best_stats


def decode_loop_oracle(preds, cfg):
    """The per-cell, per-class decode: `Box` candidates, sorted, then tuple NMS."""
    batch = preds.levels[0].cls.shape[0]
    img_h = preds.levels[0].cls.shape[2] * preds.levels[0].stride
    img_w = preds.levels[0].cls.shape[3] * preds.levels[0].stride
    out = []
    for b in range(batch):
        cands = []
        for li, lv in enumerate(preds.levels):
            s = lv.stride
            _, nc, gh, gw = lv.cls.shape
            conf = _stable_sigmoid(lv.cls.data[b])
            zs = lv.box.data[b].reshape(4, preds.reg_max, gh, gw)
            zmax = zs.max(axis=1, keepdims=True)
            p = np.exp(zs - zmax)
            p /= p.sum(axis=1, keepdims=True)
            bins = np.arange(preds.reg_max).reshape(1, preds.reg_max, 1, 1)
            dist = (p * bins).sum(axis=1)  # (4, gh, gw) in stride units
            for ci in range(gh):
                cyc = (ci + 0.5) * s
                for cj in range(gw):
                    cxc = (cj + 0.5) * s
                    best = conf[:, ci, cj]
                    if best.max() < cfg.conf_threshold:
                        continue
                    l, t, r, d = dist[:, ci, cj]
                    x1 = max(0.0, (cxc - l * s) / img_w)
                    y1 = max(0.0, (cyc - t * s) / img_h)
                    x2 = min(1.0, (cxc + r * s) / img_w)
                    y2 = min(1.0, (cyc + d * s) / img_h)
                    if x2 - x1 <= 0 or y2 - y1 <= 0:
                        continue
                    box = Box.from_corners(x1, y1, x2, y2)
                    cell_idx = ci * gw + cj
                    for k in range(nc):
                        if best[k] >= cfg.conf_threshold:
                            cands.append((k, float(best[k]), li, cell_idx, box))
        cands.sort(key=lambda cand: (-cand[1], cand[2], cand[3], cand[0]))
        for k in sorted({cand[0] for cand in cands}):
            kept = []
            for cand in (cand for cand in cands if cand[0] == k):
                if all(iou(cand[-1], other[-1]) < cfg.nms_iou for other in kept):
                    kept.append(cand)
            for cls_id, confv, _, _, box in kept:
                out.append(Detection(cls_id, confv, box, str(b)))
    return out


def backward_prezero_oracle(tape, seed=None):
    """Replay the tape in reverse after zero-filling the grad of every tape tensor.

    Every entry is replayed, marked or not. Every closure adds into a buffer
    that already exists (`accumulate` drops what it sends to an unmarked
    tensor, whose buffer stays zero), and each reads its output's buffer as
    `up` in place.
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


def adamw_loop_oracle(model, moments, lr, t, hp):
    """One AdamW step parameter by parameter, in registry order.

    moments maps a parameter name to its (first, second) moment arrays, zeros
    when absent; hp carries momentum, beta2, eps and weight_decay. A parameter
    whose grad is None is skipped.
    """
    b1, b2 = hp.momentum, hp.beta2
    for name, p in model.named_params():
        g = p.grad
        if g is None:
            continue
        m0, v0 = moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = b1 * m0 + (1 - b1) * g
        v = b2 * v0 + (1 - b2) * g * g
        moments[name] = (m, v)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data -= lr * (mhat / (np.sqrt(vhat) + hp.eps) + hp.weight_decay * p.data)
