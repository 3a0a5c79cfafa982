"""Detection loss: BCE classification + CIoU box regression + distribution focal.

The box head predicts, per cell, a discrete distribution over distances to
each box side; the distance is decoded as the distribution's expectation.
CIoU acts on the decoded box, DFL on the distribution itself, and both
gradients are chained analytically back to the raw logits so the whole loss
is one tape op.

Each term has one array kernel returning the loss with its analytic
gradient: `ciou` over box pairs, `dfl` over bin distributions and
`bce_logits` elementwise. `loss_and_grads` applies them level by level to
all positive cells of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DomainError,
    GradTape,
    ShapeError,
    Tensor4,
    _exp_neg_abs,
    _stable_sigmoid,
    accumulate,
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in normalized image coordinates, center + extents."""

    cx: float
    cy: float
    w: float
    h: float

    def validate(self):
        if self.w <= 0 or self.h <= 0:
            raise DomainError("box", f"degenerate extents w={self.w}, h={self.h}")

    def corners(self):
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    @classmethod
    def from_corners(cls, x1, y1, x2, y2):
        return cls((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


class LossWeights:
    """YOLOv8's loss gains, which the paper keeps: fixed, so class constants."""

    lambda_cls = 0.5
    lambda_box = 7.5
    lambda_dfl = 1.5


# ---------------------------------------------------------------------------
# box geometry


def iou(a: Box, b: Box) -> float:
    a.validate()
    b.validate()
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    # areas from the same corner values so identical boxes give exactly 1
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def box_iou(a, b):
    """IoU of every pair of (N, 4) and (M, 4) corner arrays as an (N, M) matrix.

    The float operations are those of `iou`, so each entry equals it bit for
    bit on finite corners: 0 where either overlap extent is <= 0, and the
    union from corner differences, so identical boxes give exactly 1. Unlike
    `iou` it does not reject degenerate boxes.
    """
    # contiguous coordinate rows: broadcasting over strided columns is slower
    ax1, ay1, ax2, ay2 = np.ascontiguousarray(a.T)[:, :, None]
    bx1, by1, bx2, by2 = np.ascontiguousarray(b.T)
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    disjoint = (iw <= 0) | (ih <= 0)
    # a zero union only occurs in disjoint pairs of zero-area boxes
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(disjoint, 0.0, inter / union)


def _check_extents(*arrays):
    """Reject the first (cx, cy, w, h) row with w <= 0 or h <= 0, as `Box.validate` does."""
    for boxes in arrays:
        bad = np.flatnonzero((boxes[:, 2] <= 0) | (boxes[:, 3] <= 0))
        if bad.size:
            w, h = boxes[bad[0], 2:]
            raise DomainError("box", f"degenerate extents w={w}, h={h}")


def ciou(pred, gt, alpha=None):
    """CIoU loss of P box pairs: 1 - IoU + rho^2/c^2 + alpha * v (Zheng et al. 2020).

    pred and gt are (P, 4) arrays of (cx, cy, w, h). Returns (loss (P,),
    dloss/dpred (P, 4), terms), terms being the (P,) arrays (iou, rho2/c2, v,
    alpha). The gradient holds alpha constant, the convention of mainstream
    CIoU backward passes; passing the returned alpha back as `alpha` pins it,
    which gives the map the gradient differentiates. alpha is 0 where its
    denominator 1 - IoU + v is 0, and the intersection gradient is 0 for
    disjoint pairs.
    """
    _check_extents(pred, gt)
    pcx, pcy, pw, ph = pred.T
    gcx, gcy, gw, gh = gt.T
    px1, py1, px2, py2 = pcx - pw / 2, pcy - ph / 2, pcx + pw / 2, pcy + ph / 2
    gx1, gy1, gx2, gy2 = gcx - gw / 2, gcy - gh / 2, gcx + gw / 2, gcy + gh / 2

    iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    iou_val = inter / union

    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2
    cw = np.maximum(px2, gx2) - np.minimum(px1, gx1)
    ch = np.maximum(py2, gy2) - np.minimum(py1, gy1)
    c2 = cw * cw + ch * ch

    delta = np.arctan2(gw, gh) - np.arctan2(pw, ph)
    v = (4.0 / math.pi**2) * delta * delta
    if alpha is None:
        denom = (1.0 - iou_val) + v
        alpha = np.divide(v, denom, out=np.zeros_like(v), where=denom != 0.0)

    loss = 1.0 - iou_val + rho2 / c2 + alpha * v

    # which pred edge attains the intersection's min/max (in) or the hull's (out)
    f = np.float64
    r_in, l_in = (px2 < gx2).astype(f), (px1 > gx1).astype(f)
    b_in, t_in = (py2 < gy2).astype(f), (py1 > gy1).astype(f)
    r_out, l_out = (px2 > gx2).astype(f), (px1 < gx1).astype(f)
    b_out, t_out = (py2 > gy2).astype(f), (py1 < gy1).astype(f)
    zero = np.zeros_like(pw)

    overlap = ((iw > 0) & (ih > 0))[:, None]
    dinter = np.where(overlap, np.stack([
        (r_in - l_in) * ih, (b_in - t_in) * iw,
        (r_in * 0.5 + l_in * 0.5) * ih, (b_in * 0.5 + t_in * 0.5) * iw,
    ], axis=1), 0.0)
    darea = np.stack([zero, zero, ph, pw], axis=1)
    dunion = darea - dinter
    diou = (dinter * union[:, None] - inter[:, None] * dunion) / (union * union)[:, None]

    drho2 = np.stack([2 * (pcx - gcx), 2 * (pcy - gcy), zero, zero], axis=1)
    dc2 = np.stack([
        2 * cw * (r_out - l_out), 2 * ch * (b_out - t_out),
        2 * cw * (r_out * 0.5 + l_out * 0.5), 2 * ch * (b_out * 0.5 + t_out * 0.5),
    ], axis=1)
    ddist = (drho2 * c2[:, None] - rho2[:, None] * dc2) / (c2 * c2)[:, None]

    wh2 = pw**2 + ph**2
    dv = np.stack([
        zero, zero,
        -(8.0 / math.pi**2) * delta * ph / wh2,
        (8.0 / math.pi**2) * delta * pw / wh2,
    ], axis=1)

    grad = -diou + ddist + alpha[:, None] * dv
    return loss, grad, (iou_val, rho2 / c2, v, alpha)


# ---------------------------------------------------------------------------
# distribution focal loss


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dfl(logits, y):
    """Distribution focal loss (Li et al. 2020) of bin distributions against continuous targets.

    logits are (..., reg_max), y the (...) targets in [0, reg_max - 1]. With
    p = softmax(logits) and the bracketing bins y_l = min(floor(y), reg_max - 2),
    y_r = y_l + 1, the loss is -((y_r - y) log p[y_l] + (y - y_l) log p[y_r]).
    Returns (loss (...), dloss/dlogits (..., reg_max)).
    """
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_dfl(logits.shape, y)
    return _dfl(_softmax(logits), y)


def _check_dfl(shape, y):
    """Reject a bin axis below 2, targets not shaped shape[:-1], and targets off the bins."""
    reg_max = shape[-1]
    if reg_max < 2:
        raise DomainError("dfl", f"reg_max must be >= 2, got {reg_max}")
    if y.shape != shape[:-1]:
        raise ShapeError("dfl", f"targets {y.shape} do not match logits {shape}")
    outside = ~((y >= 0.0) & (y <= reg_max - 1.0))
    if outside.any():
        raise DomainError("dfl", f"target {y[outside][0]} outside [0, {reg_max - 1}]")


def _dfl(p, y):
    """`dfl` from the bin probabilities p = softmax(logits), for checked targets y."""
    reg_max = p.shape[-1]
    bins = np.arange(reg_max, dtype=np.float64)
    y_l = np.minimum(np.floor(y), reg_max - 2.0)
    y_r = y_l + 1.0
    w_l, w_r = y_r - y, y - y_l
    p_l = np.take_along_axis(p, y_l.astype(np.intp)[..., None], axis=-1)[..., 0]
    p_r = np.take_along_axis(p, y_r.astype(np.intp)[..., None], axis=-1)[..., 0]
    # a bin of zero weight adds exactly 0, even where its probability underflowed to 0
    log_l = np.log(p_l, out=np.zeros_like(p_l), where=w_l > 0)
    log_r = np.log(p_r, out=np.zeros_like(p_r), where=w_r > 0)
    loss = -(w_l * log_l + w_r * log_r)
    grad = (p * (w_l + w_r)[..., None] - w_l[..., None] * (bins == y_l[..., None])
            - w_r[..., None] * (bins == y_r[..., None]))
    return loss, grad


# ---------------------------------------------------------------------------
# binary cross entropy with logits


def bce_logits(x, t):
    """Elementwise stable BCE with logits and its gradient.

    The loss is max(x, 0) - x t + log(1 + e^{-|x|}), the gradient sigmoid(x) - t.
    Returns (loss, dloss/dx), both shaped like x.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    e = _exp_neg_abs(x)
    loss = np.maximum(x, 0.0) - x * t + np.log1p(e)
    return loss, _stable_sigmoid(x, e) - t


# ---------------------------------------------------------------------------
# target assignment


@dataclass(frozen=True)
class LevelGrid:
    stride: int
    h: int
    w: int


def assign_targets(boxes, image, grids: list[LevelGrid]):
    """Center-inside + best-scale-match assignment of a batch's (G, 4) table of
    (cx, cy, w, h) ground-truth rows, row g in batch element image[g].

    Rows with w <= 0 or h <= 0 are rejected. A ground truth goes to the level
    whose 4*stride is closest to its max side (ties to the finer level), where
    every cell whose center lies inside the box, bounds included, is positive.
    A cell contested within an image takes the ground truth of highest IoU
    against the cell's stride-sized square, ties to the smaller row. Returns
    per level an int (P, 4) array of sorted (image, i, j, row) positives.
    """
    _check_extents(boxes)
    img_h, img_w = grids[0].h * grids[0].stride, grids[0].w * grids[0].stride
    cx, cy, w, h = boxes.T
    corners = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    x1, y1, x2, y2 = (corners * [img_w, img_h, img_w, img_h]).T
    sides = np.maximum(x2 - x1, y2 - y1)
    best_level = np.abs(sides[:, None] - [4 * g.stride for g in grids]).argmin(axis=1)
    per_level = []
    for li, g in enumerate(grids):
        cxc, cyc = (np.arange(g.w) + 0.5) * g.stride, (np.arange(g.h) + 0.5) * g.stride
        k = np.flatnonzero(best_level == li)
        n, i, j = np.nonzero(((y1[k, None] <= cyc) & (cyc <= y2[k, None]))[:, :, None]
                             & ((x1[k, None] <= cxc) & (cxc <= x2[k, None]))[:, None, :])
        # cell i * w + j as Box(cxc / img_w, cyc / img_h, stride / img_w, stride / img_h)
        # gives its corners, so that every entry equals iou(cell, box)
        centres = np.stack([np.tile(cxc / img_w, g.h), np.repeat(cyc / img_h, g.w)], axis=1)
        half = (g.stride / img_w / 2, g.stride / img_h / 2)
        metric = box_iou(np.hstack([centres - half, centres + half]), corners[k])[i * g.w + j, n]
        k = k[n]
        key = image[k] * (g.h * g.w) + i * g.w + j
        # per (image, cell) the highest IoU first; the stable sort keeps row order on ties
        order = np.lexsort((-metric, key))
        first = order[np.diff(key[order], prepend=-1) != 0]
        per_level.append(np.stack([image[k], i, j, k], axis=1)[first])
    return per_level


# ---------------------------------------------------------------------------
# the combined loss


def _box_terms(zs, gt, cxc, cyc, s, img_w, img_h, weights, alpha_override):
    """CIoU and DFL over the P positives of one level.

    zs is (P, 4, reg_max) side logits (left, top, right, bottom), gt the
    (P, 4) matched boxes, (cxc, cyc) the cell centres in pixels. Returns the
    per-positive CIoU and side-averaged DFL losses, the unnormalised
    gradient of lambda_box * CIoU + lambda_dfl * DFL w.r.t. zs, and the
    CIoU alphas.
    """
    reg_max = zs.shape[-1]
    gx1, gy1 = gt[:, 0] - gt[:, 2] / 2, gt[:, 1] - gt[:, 3] / 2
    gx2, gy2 = gt[:, 0] + gt[:, 2] / 2, gt[:, 1] + gt[:, 3] / 2
    tdist = np.stack([
        cxc - gx1 * img_w, cyc - gy1 * img_h, gx2 * img_w - cxc, gy2 * img_h - cyc,
    ], axis=1) / s
    tdist = np.clip(tdist, 0.0, reg_max - 1.0)
    # first, so a reg_max below 2 is reported before any box check
    _check_dfl(zs.shape, tdist)
    p = _softmax(zs)
    dloss, dgrad = _dfl(p, tdist)

    bins = np.arange(reg_max, dtype=np.float64)
    pdist = (p * bins).sum(axis=-1)

    pred = np.stack([
        (cxc + (pdist[:, 2] - pdist[:, 0]) * s / 2) / img_w,
        (cyc + (pdist[:, 3] - pdist[:, 1]) * s / 2) / img_h,
        (pdist[:, 0] + pdist[:, 2]) * s / img_w,
        (pdist[:, 1] + pdist[:, 3]) * s / img_h,
    ], axis=1)
    closs, cgrad, (_, _, _, alpha) = ciou(pred, gt, alpha_override)

    # d(box params)/d(dist): cx <- (r - l), w <- (l + r), per axis
    sx, sy = s / img_w, s / img_h
    ddist = np.stack([
        -cgrad[:, 0] * sx / 2 + cgrad[:, 2] * sx,
        -cgrad[:, 1] * sy / 2 + cgrad[:, 3] * sy,
        cgrad[:, 0] * sx / 2 + cgrad[:, 2] * sx,
        cgrad[:, 1] * sy / 2 + cgrad[:, 3] * sy,
    ], axis=1)

    # DFL on the distribution, plus CIoU chained through the expectation decode
    dz = (dgrad / 4.0 * weights.lambda_dfl
          + ddist[..., None] * p * (bins - pdist[..., None]) * weights.lambda_box)
    return closs, (dloss / 4.0).sum(axis=1), dz, alpha


def loss_and_grads(preds, gts_per_image, weights: LossWeights, frozen_alphas=None):
    """The weighted detection loss with its gradients, one pass per pyramid level.

    preds carries per-level (cls, box) tensors plus strides (see
    model.RawPredictions); gts_per_image is one GroundTruth list per batch
    element. Returns (total, breakdown, grads, alphas): breakdown holds the
    unweighted cls/box/dfl terms and the total, grads one (dcls, dbox)
    array pair per level, and alphas the CIoU alpha of every positive cell,
    level-major (level, then batch element, then cell in `assign_targets`
    order). Passing those alphas back as frozen_alphas pins them, so the
    evaluation is exactly the map the analytic gradients differentiate.
    """
    reg_max = preds.reg_max
    batch = preds.levels[0].cls.shape[0]
    if len(gts_per_image) != batch:
        raise DomainError("loss", f"{len(gts_per_image)} gt lists for batch of {batch}")
    grids = [LevelGrid(lv.stride, lv.cls.shape[2], lv.cls.shape[3]) for lv in preds.levels]
    img_h = grids[0].h * grids[0].stride
    img_w = grids[0].w * grids[0].stride
    cls_den = batch * sum(g.h * g.w for g in grids) * preds.num_classes

    # every ground truth of the batch as one table, in image order
    flat = [g for gts in gts_per_image for g in gts]
    gt_cls = np.array([g.class_id for g in flat], dtype=np.intp)
    gt_box = np.array([(g.box.cx, g.box.cy, g.box.w, g.box.h) for g in flat],
                      dtype=np.float64).reshape(-1, 4)
    gt_img = np.repeat(np.arange(batch), [len(gts) for gts in gts_per_image])
    assignments = assign_targets(gt_box, gt_img, grids)
    n_pos = sum(len(rows) for rows in assignments)
    if frozen_alphas is not None:
        frozen_alphas = np.asarray(frozen_alphas, dtype=np.float64)
        if frozen_alphas.shape != (n_pos,):
            raise DomainError("loss", f"{frozen_alphas.size} frozen alphas "
                                      f"for {n_pos} positive cells")

    cls_sum = box_sum = dfl_sum = 0.0
    grads, alphas = [], []
    for lv, rows in zip(preds.levels, assignments):
        b, i, j, k = rows.T
        targets = np.zeros_like(lv.cls.data)
        targets[b, gt_cls[k], i, j] = 1.0
        loss_map, grad_map = bce_logits(lv.cls.data, targets)
        cls_sum += loss_map.sum()
        dbox = np.zeros_like(lv.box.data)
        grads.append((grad_map * (weights.lambda_cls / cls_den), dbox))
        if not b.size:
            continue

        s = lv.stride
        zs = lv.box.data[b, :, i, j].reshape(-1, 4, reg_max)
        done = sum(a.size for a in alphas)  # positives of the finer levels
        override = None if frozen_alphas is None else frozen_alphas[done:done + b.size]
        closs, dloss, dz, alpha = _box_terms(zs, gt_box[k], (j + 0.5) * s, (i + 0.5) * s,
                                             s, img_w, img_h, weights, override)
        box_sum += closs.sum()
        dfl_sum += dloss.sum()
        dbox[b, :, i, j] = dz.reshape(b.size, -1) / n_pos
        alphas.append(alpha)

    cls_term = float(cls_sum) / cls_den
    box_term = float(box_sum) / n_pos if n_pos else 0.0
    dfl_term = float(dfl_sum) / n_pos if n_pos else 0.0
    total = (weights.lambda_cls * cls_term + weights.lambda_box * box_term
             + weights.lambda_dfl * dfl_term)
    breakdown = {"cls": cls_term, "box": box_term, "dfl": dfl_term, "total": total}
    return total, breakdown, grads, np.concatenate(alphas) if alphas else np.zeros(0)


def detection_loss(preds, gts_per_image, weights: LossWeights, tape: GradTape | None = None):
    """Tape-recorded loss: backward writes analytic grads into the head tensors."""
    total, breakdown, grads, _ = loss_and_grads(preds, gts_per_image, weights)
    out = Tensor4.scalar(total)
    if tape is not None:
        inputs = []
        for lv in preds.levels:
            inputs.extend((lv.cls, lv.box))

        def back(up):
            scale = up.reshape(())
            for lv, (dcls, dbox) in zip(preds.levels, grads):
                accumulate(lv.cls, scale * dcls)
                accumulate(lv.box, scale * dbox)

        tape.record(tuple(inputs), out, back)
    return out, breakdown
