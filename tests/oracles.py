"""Independent brute-force reference implementations shared by the test suite.

Everything here is deliberately slow and written from the definitions, with
no code shared with the package paths it checks. The loss oracle is the
exception: it loops over positive cells, takes them from the package's
`assign_targets` and calls its scalar CIoU/DFL functions, which are
themselves checked against definitions and finite differences in
test_losses.py.
"""

import numpy as np

from microdet.losses import (
    Box,
    DflTarget,
    LevelGrid,
    _ciou,
    _softmax,
    assign_targets,
    bce_logits_map,
    dfl_loss_grad,
    expected_bin,
)
from microdet.tensor import DomainError


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


def iou_corner_oracle(a, b):
    """IoU of two (x1,y1,x2,y2) boxes from the definition."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    ua = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / ua if ua > 0 else 0.0


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


def loss_per_cell_oracle(preds, gts_per_image, weights, frozen_alphas=None):
    """`losses.loss_and_grads` as one scalar CIoU and four scalar DFL calls per positive.

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

    assignments = [assign_targets(gts, grids) for gts in gts_per_image]
    n_pos = sum(len(lvl) for asn in assignments for lvl in asn)
    alphas = []

    for li, lv in enumerate(preds.levels):
        g = grids[li]
        for b in range(batch):
            gts = gts_per_image[b]
            asn = assignments[b]
            targets = np.zeros((nc, g.h, g.w))
            for ci, cj, gi in asn[li]:
                targets[gts[gi].class_id, ci, cj] = 1.0
            loss_map, grad_map = bce_logits_map(lv.cls.data[b], targets)
            cls_sum += loss_map.sum()
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
                override = frozen_alphas[len(alphas)] if frozen_alphas is not None else None
                closs, cgrad, (_, _, _, alpha) = _ciou(pred_box, gt_box,
                                                       alpha_override=override)
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
                    tgt = DflTarget.for_value(float(tdist[k]), reg_max)
                    dloss, dgrad = dfl_loss_grad(zs[k], tgt)
                    dfl_sum += dloss / 4.0
                    dz[k] += dgrad / 4.0 * weights.lambda_dfl
                    # chain CIoU through the expectation decode
                    p = _softmax(zs[k])
                    bins = np.arange(reg_max, dtype=np.float64)
                    dz[k] += ddist[k] * p * (bins - (p * bins).sum()) * weights.lambda_box
                grads[li][1][b, :, ci, cj] += dz.reshape(-1)

    cls_den = batch * n_cells * nc
    cls_term = cls_sum / cls_den
    box_term = box_sum / n_pos if n_pos else 0.0
    dfl_term = dfl_sum / n_pos if n_pos else 0.0
    total = (weights.lambda_cls * cls_term + weights.lambda_box * box_term
             + weights.lambda_dfl * dfl_term)
    for li in range(len(preds.levels)):
        grads[li][0][:] *= weights.lambda_cls / cls_den
        if n_pos:
            grads[li][1][:] /= n_pos
    breakdown = {"cls": cls_term, "box": box_term, "dfl": dfl_term, "total": total}
    return total, breakdown, grads, alphas
