"""Detection evaluation: greedy matching, AP/mAP over IoU sweeps, mF1, confusion.

AP integrates the exact area under the monotone precision envelope (every
distinct confidence is a threshold), so values depend only on confidence
ranks. Matching for AP is class-aware; the confusion matrix matches
class-agnostically to expose cross-class mistakes, with a background
row/column for missed and spurious boxes.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .losses import Box, iou
from .tensor import DomainError


@dataclass(frozen=True)
class Detection:
    class_id: int
    confidence: float
    box: Box
    image_id: str = "0"


@dataclass(frozen=True)
class GroundTruth:
    class_id: int
    box: Box
    image_id: str = "0"


@dataclass
class EvalReport:
    class_names: list[str]
    iou_thresholds: list[float]
    ap: dict  # (class_id, threshold) -> AP
    map50: float
    map50_95: float
    mf1: float
    mf1_confidence: float
    per_class: dict  # class_id -> {"precision", "recall", "f1"} at mf1_confidence
    confusion_raw: np.ndarray
    confusion_normalized: np.ndarray
    supported_classes: list[int] = field(default_factory=list)
    # (class_id, threshold) -> (ranked class detections, TP flags, GT count),
    # the matches map_and_mf1 made for the supported classes
    matched: dict = field(default_factory=dict, repr=False, compare=False)

    def to_text(self):
        lines = ["detection evaluation report", ""]
        lines.append(f"iou_thresholds: {' '.join(f'{t:g}' for t in self.iou_thresholds)}")
        lines.append(f"map50: {self.map50:.6f}")
        lines.append(f"map50_95: {self.map50_95:.6f}")
        lines.append(f"mf1: {self.mf1:.6f}")
        lines.append(f"mf1_confidence: {self.mf1_confidence:.6f}")
        lines.append("")
        lines.append("class ap50 ap50_95 precision recall f1")
        for ci, name in enumerate(self.class_names):
            ap50 = self.ap.get((ci, 0.5), 0.0)
            ap_all = np.mean([self.ap.get((ci, t), 0.0) for t in self.iou_thresholds])
            pc = self.per_class.get(ci, {"precision": 0.0, "recall": 0.0, "f1": 0.0})
            lines.append(f"{name} {ap50:.6f} {ap_all:.6f} "
                         f"{pc['precision']:.6f} {pc['recall']:.6f} {pc['f1']:.6f}")
        lines.append("")
        lines.append("confusion_raw (rows: true incl background, cols: predicted)")
        for row in self.confusion_raw:
            lines.append(" ".join(str(int(v)) for v in row))
        lines.append("confusion_normalized")
        for row in self.confusion_normalized:
            lines.append(" ".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"

    def pr_curve_rows(self, class_id: int):
        """(confidence, recall, precision) rows of the cumulative sweep at IoU 0.5,
        for CSV export; empty with no ground truth."""
        class_dets, flags, n_gt = self.matched.get((class_id, 0.5), ([], [], 0))
        tp_cum = np.cumsum(flags)
        return [(det.confidence, tp_cum[i] / n_gt, tp_cum[i] / (i + 1))
                for i, det in enumerate(class_dets)]


def _group(items):
    by_key = {}
    for it in items:
        by_key.setdefault(it.image_id, []).append(it)
    return by_key


def match(dets, gts, iou_t: float):
    """Greedy confidence-ordered matching within one class.

    Detections must already be sorted by descending confidence (ties keep
    input order). Each detection takes the unmatched ground truth of its
    image with the highest IoU >= iou_t (ties to the lower index). Returns
    the TP flags aligned with the detections.
    """
    gts_by_image = _group(gts)
    used = {img: [False] * len(g) for img, g in gts_by_image.items()}
    flags = []
    for det in dets:
        cand = gts_by_image.get(det.image_id, [])
        best_iou, best_idx = iou_t, -1
        for gi, gt in enumerate(cand):
            if used[det.image_id][gi]:
                continue
            val = iou(det.box, gt.box)
            if val > 0 and (val > best_iou or (val == best_iou and best_idx == -1)):
                best_iou, best_idx = val, gi
        if best_idx >= 0:
            used[det.image_id][best_idx] = True
        flags.append(best_idx >= 0)
    return flags


def precision_recall(n_tp: int, n_det: int, n_gt: int):
    """P := 0 with no detections; R := 1 when there is nothing to recall."""
    p = n_tp / n_det if n_det else 0.0
    r = n_tp / n_gt if n_gt else 1.0
    return p, r


def _class_flags(dets, gts, class_id: int, iou_t: float):
    """(class detections by descending confidence, ties in input order, TP flags, GT count)."""
    class_dets = sorted((d for d in dets if d.class_id == class_id), key=lambda d: -d.confidence)
    class_gts = [g for g in gts if g.class_id == class_id]
    return class_dets, match(class_dets, class_gts, iou_t), len(class_gts)


def _ap_from_flags(flags, n_gt: int) -> float:
    """Area under the monotone precision envelope of one ranked TP sequence."""
    if n_gt == 0 or not flags:
        return 0.0
    tp_cum = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    recalls = np.concatenate([[0.0], tp_cum / n_gt])
    precisions = np.concatenate([[1.0], tp_cum / ranks])
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    return float(np.sum((recalls[1:] - recalls[:-1]) * env[1:]))


def average_precision(dets, gts, class_id: int, iou_t: float) -> float:
    """Exact all-point AP for one class at one IoU threshold."""
    return _ap_from_flags(*_class_flags(dets, gts, class_id, iou_t)[1:])


DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
CONFUSION_CONF, CONFUSION_IOU = 0.25, 0.5  # the confusion matrix's fixed cut-offs


def map_and_mf1(dets, gts, num_classes, iou_thresholds=DEFAULT_IOU_THRESHOLDS):
    """(map50, map50_95, mf1, mf1_confidence, ap dict, per-class stats, support,
    matches by (class, IoU threshold)).

    Classes with no ground-truth instances are excluded from every mean.
    map50_95 averages `iou_thresholds`; map50 and mF1 read IoU 0.5 whatever
    the sweep, so `ap` and the matches cover it too. mF1 is taken at the
    confidence (swept over all detection confidences) that maximizes the
    class-mean F1.
    """
    supported = [c for c in range(num_classes) if any(g.class_id == c for g in gts)]
    thresholds = dict.fromkeys([*iou_thresholds, 0.5])
    matched = {(c, t): _class_flags(dets, gts, c, t) for c in supported for t in thresholds}
    ap = {(c, t): _ap_from_flags(*matched[(c, t)][1:]) if c in supported else 0.0
          for c in range(num_classes) for t in thresholds}
    class_means = [np.mean([ap[(c, t)] for t in iou_thresholds]) for c in supported]
    map50 = float(np.mean([ap[(c, 0.5)] for c in supported])) if supported else 0.0
    map50_95 = float(np.mean(class_means)) if supported else 0.0

    # A confidence keeps a prefix of each class's ranked detections (ties enter
    # together) and greedy matching decides them in rank order, so the IoU-0.5
    # flags give the TP count at every confidence as a prefix sum.
    prefixes = {}  # class -> (negated confidences ascending, TP prefix sums, GT count)
    for c in supported:
        class_dets, flags, n_gt = matched[(c, 0.5)]
        prefixes[c] = ([-d.confidence for d in class_dets],
                       list(itertools.accumulate(flags, initial=0)), n_gt)
    candidates = sorted({d.confidence for d in dets}, reverse=True) or [0.0]
    best_f1, best_conf, best_stats = -1.0, candidates[0], {}
    for conf in candidates:
        f1s, stats = [], {}
        for c in supported:
            neg_confs, tp_cum, n_gt = prefixes[c]
            n = bisect.bisect_right(neg_confs, -conf)
            p, r = precision_recall(tp_cum[n], n, n_gt)
            f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
            f1s.append(f1)
            stats[c] = {"precision": p, "recall": r, "f1": f1}
        mean_f1 = float(np.mean(f1s)) if f1s else 0.0
        if mean_f1 > best_f1:
            best_f1, best_conf, best_stats = mean_f1, conf, stats
    return map50, map50_95, max(best_f1, 0.0), best_conf, ap, best_stats, supported, matched


def confusion_matrix(dets, gts, num_classes: int):
    """(C+1)x(C+1) raw counts and row-normalized matrix, background last.

    Detections below confidence CONFUSION_CONF are dropped. Matching is
    class-agnostic, best IoU (>= CONFUSION_IOU) first, one-to-one. Matched
    pairs land at (true class, predicted class); unmatched ground truths at
    (true, background); unmatched detections at (background, predicted).
    """
    raw = np.zeros((num_classes + 1, num_classes + 1), dtype=np.int64)
    kept = [d for d in dets if d.confidence >= CONFUSION_CONF]
    gts_by_image, dets_by_image = _group(gts), _group(kept)
    for img in dict.fromkeys([*gts_by_image, *dets_by_image]):
        img_gts = gts_by_image.get(img, [])
        img_dets = dets_by_image.get(img, [])
        pairs = []
        for di, d in enumerate(img_dets):
            for gi, g in enumerate(img_gts):
                val = iou(d.box, g.box)
                if val >= CONFUSION_IOU:
                    pairs.append((val, di, gi))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        det_used = [False] * len(img_dets)
        gt_used = [False] * len(img_gts)
        for val, di, gi in pairs:
            if det_used[di] or gt_used[gi]:
                continue
            det_used[di] = True
            gt_used[gi] = True
            raw[img_gts[gi].class_id, img_dets[di].class_id] += 1
        for gi, g in enumerate(img_gts):
            if not gt_used[gi]:
                raw[g.class_id, num_classes] += 1
        for di, d in enumerate(img_dets):
            if not det_used[di]:
                raw[num_classes, d.class_id] += 1

    norm = np.zeros_like(raw, dtype=np.float64)
    sums = raw.sum(axis=1)
    for i in range(num_classes + 1):
        if sums[i] > 0:
            norm[i] = raw[i] / sums[i]
    return raw, norm


def evaluate(dets, gts, class_names, iou_thresholds=DEFAULT_IOU_THRESHOLDS) -> EvalReport:
    """Full evaluation over a detection/ground-truth corpus.

    `iou_thresholds` is the sweep behind map50_95 and the ap50_95 column;
    map50, the ap50 column, mF1 and the PR curves are at IoU 0.5 whatever
    the sweep, and the confusion matrix is `confusion_matrix`'s.
    """
    if not class_names:
        raise DomainError("evaluate", "class name list is empty")
    nc = len(class_names)
    bad = [d for d in dets if not 0 <= d.class_id < nc]
    bad += [g for g in gts if not 0 <= g.class_id < nc]
    if bad:
        raise DomainError("evaluate", f"class id {bad[0].class_id} outside 0..{nc - 1}")
    bad = [t for t in iou_thresholds if not 0 < t <= 1]  # NaN fails it too
    if bad or not iou_thresholds:
        raise DomainError("evaluate", f"IoU thresholds must be a non-empty list in (0, 1], "
                          f"got {bad[0] if bad else 'none'}")
    map50, map50_95, mf1, mf1_conf, ap, per_class, supported, matched = map_and_mf1(
        dets, gts, nc, iou_thresholds
    )
    raw, norm = confusion_matrix(dets, gts, nc)
    return EvalReport(
        class_names=list(class_names),
        iou_thresholds=list(iou_thresholds),
        ap=ap,
        map50=map50,
        map50_95=map50_95,
        mf1=mf1,
        mf1_confidence=mf1_conf,
        per_class=per_class,
        confusion_raw=raw,
        confusion_normalized=norm,
        supported_classes=supported,
        matched=matched,
    )
