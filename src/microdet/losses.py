"""Detection loss: BCE classification + CIoU box regression + distribution focal.

The box head predicts, per cell, a discrete distribution over distances to
each box side; the distance is decoded as the distribution's expectation.
CIoU acts on the decoded box, DFL on the distribution itself, and both
gradients are chained analytically back to the raw logits so the whole loss
is one tape op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DomainError, GradTape, Tensor4, _stable_sigmoid


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


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 0.5
    lambda_box: float = 7.5
    lambda_dfl: float = 1.5

    def __post_init__(self):
        if min(self.lambda_cls, self.lambda_box, self.lambda_dfl) < 0:
            raise DomainError("loss_weights", "weights must be non-negative")
        if self.lambda_cls == self.lambda_box == self.lambda_dfl == 0:
            raise DomainError("loss_weights", "at least one weight must be positive")


@dataclass(frozen=True)
class DflTarget:
    """Continuous bin target y with its bracketing unit-spaced bins."""

    y: float
    y_l: int
    y_r: int

    @classmethod
    def for_value(cls, y: float, reg_max: int):
        if reg_max < 2:
            raise DomainError("dfl", f"reg_max must be >= 2, got {reg_max}")
        if not 0.0 <= y <= reg_max - 1:
            raise DomainError("dfl", f"target {y} outside [0, {reg_max - 1}]")
        y_l = min(int(math.floor(y)), reg_max - 2)
        return cls(float(y), y_l, y_l + 1)


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


def ciou_loss(pred: Box, gt: Box) -> float:
    """1 - IoU + center-distance/diagonal ratio + aspect consistency term."""
    return _ciou(pred, gt)[0]


def ciou_loss_grad(pred: Box, gt: Box):
    """Returns (loss, dloss/d(cx,cy,w,h) of pred); alpha is held constant.

    Freezing alpha matches the convention of mainstream CIoU backward
    passes; finite-difference checks must therefore evaluate the loss with
    alpha pinned (see ciou_loss_frozen_alpha).
    """
    loss, grad, _ = _ciou(pred, gt)
    return loss, grad


def ciou_loss_frozen_alpha(pred: Box, gt: Box, alpha: float) -> float:
    """The loss with alpha pinned to a given value: the map the backward differentiates."""
    return _ciou(pred, gt, alpha_override=alpha)[0]


def _ciou(pred: Box, gt: Box, alpha_override: float | None = None):
    pred.validate()
    gt.validate()
    px1, py1, px2, py2 = pred.corners()
    gx1, gy1, gx2, gy2 = gt.corners()

    iw = min(px2, gx2) - max(px1, gx1)
    ih = min(py2, gy2) - max(py1, gy1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    iou_val = inter / union

    rho2 = (pred.cx - gt.cx) ** 2 + (pred.cy - gt.cy) ** 2
    cw = max(px2, gx2) - min(px1, gx1)
    ch = max(py2, gy2) - min(py1, gy1)
    c2 = cw * cw + ch * ch

    delta = math.atan2(gt.w, gt.h) - math.atan2(pred.w, pred.h)
    v = (4.0 / math.pi**2) * delta * delta
    if alpha_override is None:
        denom = (1.0 - iou_val) + v
        alpha = 0.0 if denom == 0.0 else v / denom
    else:
        alpha = alpha_override

    loss = 1.0 - iou_val + rho2 / c2 + alpha * v

    # gradients w.r.t. pred (cx, cy, w, h); intersection term is zero when disjoint
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
    else:
        dinter = np.zeros(4)
    darea = np.array([0.0, 0.0, pred.h, pred.w])
    dunion = darea - dinter
    diou = (dinter * union - inter * dunion) / (union * union)

    drho2 = np.array([2 * (pred.cx - gt.cx), 2 * (pred.cy - gt.cy), 0.0, 0.0])
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

    wh2 = pred.w**2 + pred.h**2
    dv = np.array([
        0.0,
        0.0,
        -(8.0 / math.pi**2) * delta * pred.h / wh2,
        (8.0 / math.pi**2) * delta * pred.w / wh2,
    ])

    grad = -diou + ddist + alpha * dv
    return loss, grad, (iou_val, rho2 / c2, v, alpha)


def ciou_terms(pred: Box, gt: Box):
    """(iou, rho2/c2, v, alpha) for inspection and range checks."""
    return _ciou(pred, gt)[2]


# ---------------------------------------------------------------------------
# distribution focal loss


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dfl_loss(logits: np.ndarray, target: DflTarget) -> float:
    """-( (y_r - y) log p[y_l] + (y - y_l) log p[y_r] ) with p = softmax(logits)."""
    return dfl_loss_grad(logits, target)[0]


def dfl_loss_grad(logits: np.ndarray, target: DflTarget):
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise DomainError("dfl", f"logits must be a reg_max vector, got shape {z.shape}")
    if target.y_r > z.size - 1:
        raise DomainError("dfl", f"target bins ({target.y_l},{target.y_r}) exceed "
                                 f"reg_max-1 = {z.size - 1}")
    p = _softmax(z)
    w_l = target.y_r - target.y
    w_r = target.y - target.y_l
    loss = -(w_l * math.log(p[target.y_l]) + w_r * math.log(p[target.y_r]))
    grad = p * (w_l + w_r)
    grad[target.y_l] -= w_l
    grad[target.y_r] -= w_r
    return loss, grad


def expected_bin(logits: np.ndarray):
    """Expectation decode of a bin distribution: sum_i i * softmax(logits)_i."""
    p = _softmax(np.asarray(logits, dtype=np.float64))
    bins = np.arange(p.shape[-1], dtype=np.float64)
    return float((p * bins).sum()) if p.ndim == 1 else (p * bins).sum(axis=-1)


# ---------------------------------------------------------------------------
# binary cross entropy with logits


def bce_logits(logit, target) -> float:
    """Numerically stable max(x,0) - x t + log(1 + e^{-|x|})."""
    x = float(logit)
    t = float(target)
    return max(x, 0.0) - x * t + math.log1p(math.exp(-abs(x)))


def bce_logits_grad(logit, target):
    x = float(logit)
    s = 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
    return bce_logits(logit, target), s - float(target)


def bce_logits_map(logits: np.ndarray, targets: np.ndarray):
    """Elementwise stable BCE and its gradient over arrays."""
    x = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    return loss, _stable_sigmoid(x) - t


# ---------------------------------------------------------------------------
# target assignment


@dataclass(frozen=True)
class LevelGrid:
    stride: int
    h: int
    w: int


def assign_targets(gts, grids: list[LevelGrid]):
    """Center-inside + best-scale-match assignment.

    A ground truth goes to the level whose 4*stride is closest to its max
    side (ties to the finer level); within that level every cell whose
    center falls inside the box is positive. A cell contested by several
    ground truths takes the one with the highest IoU against the cell's
    stride-sized square, ties to the smaller index. Returns, per level, a
    list of (cell_i, cell_j, gt_index).
    """
    img_h = grids[0].h * grids[0].stride
    img_w = grids[0].w * grids[0].stride
    per_level = [dict() for _ in grids]  # (i,j) -> (metric, gt_idx)
    for gi, gt in enumerate(gts):
        box = gt.box
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
                cur = per_level[best_level].get((ci, cj))
                if cur is None or metric > cur[0]:
                    per_level[best_level][(ci, cj)] = (metric, gi)
    return [
        sorted((i, j, gi) for (i, j), (_, gi) in lvl.items())
        for lvl in per_level
    ]


# ---------------------------------------------------------------------------
# the combined loss


def total_loss(preds, gts_per_image, weights: LossWeights, frozen_alphas=None):
    """Scalar loss and per-term breakdown; pure evaluation, no gradients.

    preds carries per-level (cls, box) tensors plus strides (see
    model.RawPredictions); gts_per_image is one GroundTruth list per batch
    element. frozen_alphas, when given (a list collected by collect_alphas),
    pins the CIoU alpha of every positive cell so the evaluation is exactly
    the map the analytic backward differentiates.
    """
    total, breakdown, _, _ = _loss_and_grads(preds, gts_per_image, weights,
                                             want_grads=False,
                                             frozen_alphas=frozen_alphas)
    return total, breakdown


def collect_alphas(preds, gts_per_image, weights: LossWeights):
    """The per-positive-cell CIoU alphas, in deterministic traversal order."""
    _, _, _, alphas = _loss_and_grads(preds, gts_per_image, weights,
                                      want_grads=False, want_alphas=True)
    return alphas


def detection_loss(preds, gts_per_image, weights: LossWeights, tape: GradTape | None = None):
    """Tape-recorded loss: backward writes analytic grads into the head tensors."""
    total, breakdown, grads, _ = _loss_and_grads(preds, gts_per_image, weights,
                                                 want_grads=True)
    out = Tensor4.scalar(total)
    if tape is not None:
        inputs = []
        for lv in preds.levels:
            inputs.extend((lv.cls, lv.box))

        def back(up):
            scale = up.reshape(())
            for lv, (dcls, dbox) in zip(preds.levels, grads):
                lv.cls.grad += scale * dcls
                lv.box.grad += scale * dbox

        tape.record(tuple(inputs), out, back)
    return out, breakdown


def _loss_and_grads(preds, gts_per_image, weights, want_grads,
                    frozen_alphas=None, want_alphas=False):
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

    assignments = [assign_targets(gts, grids) for gts in gts_per_image]
    n_pos = sum(len(lvl) for asn in assignments for lvl in asn)
    alphas = []
    pos_idx = 0

    for b in range(batch):
        gts = gts_per_image[b]
        asn = assignments[b]
        for li, lv in enumerate(preds.levels):
            g = grids[li]
            targets = np.zeros((nc, g.h, g.w))
            for ci, cj, gi in asn[li]:
                targets[gts[gi].class_id, ci, cj] = 1.0
            loss_map, grad_map = bce_logits_map(lv.cls.data[b], targets)
            cls_sum += loss_map.sum()
            if want_grads:
                grads[li][0][b] += grad_map

            for ci, cj, gi in asn[li]:
                gt_box = gts[gi].box
                gx1, gy1, gx2, gy2 = gt_box.corners()
                s = g.stride
                cxc, cyc = (cj + 0.5) * s, (ci + 0.5) * s
                tdist = np.array([
                    cxc - gx1 * img_w, cyc - gy1 * img_h,
                    gx2 * img_w - cxc, gy2 * img_h - cyc,
                ]) / s
                tdist = np.clip(tdist, 0.0, reg_max - 1.0)

                zs = lv.box.data[b, :, ci, cj].reshape(4, reg_max)
                pdist = np.array([expected_bin(zs[k]) for k in range(4)])

                pred_box = Box(
                    (cxc + (pdist[2] - pdist[0]) * s / 2) / img_w,
                    (cyc + (pdist[3] - pdist[1]) * s / 2) / img_h,
                    (pdist[0] + pdist[2]) * s / img_w,
                    (pdist[1] + pdist[3]) * s / img_h,
                )
                override = frozen_alphas[pos_idx] if frozen_alphas is not None else None
                closs, cgrad, (_, _, _, alpha) = _ciou(pred_box, gt_box,
                                                       alpha_override=override)
                if want_alphas:
                    alphas.append(alpha)
                pos_idx += 1
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
                    tgt = DflTarget.for_value(float(tdist[k]), reg_max)
                    dloss, dgrad = dfl_loss_grad(zs[k], tgt)
                    dfl_sum += dloss / 4.0
                    if want_grads:
                        dz[k] += dgrad / 4.0 * weights.lambda_dfl
                        # chain CIoU through the expectation decode
                        p = _softmax(zs[k])
                        bins = np.arange(reg_max, dtype=np.float64)
                        dz[k] += ddist[k] * p * (bins - (p * bins).sum()) * weights.lambda_box
                if want_grads:
                    grads[li][1][b, :, ci, cj] += dz.reshape(-1)

    cls_den = batch * n_cells * nc
    cls_term = cls_sum / cls_den
    box_term = box_sum / n_pos if n_pos else 0.0
    dfl_term = dfl_sum / n_pos if n_pos else 0.0
    total = (weights.lambda_cls * cls_term + weights.lambda_box * box_term
             + weights.lambda_dfl * dfl_term)
    if want_grads:
        for li in range(len(preds.levels)):
            grads[li][0][:] *= weights.lambda_cls / cls_den
            if n_pos:
                grads[li][1][:] /= n_pos
    breakdown = {"cls": cls_term, "box": box_term, "dfl": dfl_term, "total": total}
    return total, breakdown, grads, alphas
