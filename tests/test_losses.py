"""IoU/CIoU/DFL/BCE values, gradients vs finite differences, assignment."""

import math

import numpy as np
import pytest

from oracles import iou_raster_oracle

from microdet.losses import (
    Box,
    DflTarget,
    LevelGrid,
    LossWeights,
    assign_targets,
    bce_logits,
    bce_logits_grad,
    bce_logits_map,
    ciou_loss,
    ciou_loss_frozen_alpha,
    ciou_loss_grad,
    ciou_terms,
    dfl_loss,
    dfl_loss_grad,
    expected_bin,
    iou,
    loss_and_grads,
)
from microdet.tensor import DomainError


def random_box(rng, lo=0.2, hi=0.8):
    cx, cy = rng.uniform(lo, hi, size=2)
    w, h = rng.uniform(0.05, 0.3, size=2)
    return Box(cx, cy, w, h)


class TestIou:
    def test_identical_boxes(self):
        b = Box(0.5, 0.5, 0.2, 0.4)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0.2, 0.2, 0.1, 0.1), Box(0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_shift_matches_rasterization(self):
        """Shift by half a width: exact value vs a 2000^2 grid estimate."""
        a = Box(0.5, 0.5, 0.5, 0.5)
        b = Box(0.75, 0.5, 0.5, 0.5)
        exact = iou(a, b)
        raster = iou_raster_oracle(a.corners(), b.corners())
        assert exact == pytest.approx(1 / 3)
        assert abs(exact - raster) <= 1e-3

    def test_random_boxes_match_rasterization(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = random_box(rng), random_box(rng)
            assert abs(iou(a, b) - iou_raster_oracle(a.corners(), b.corners())) <= 2e-3

    def test_degenerate_box_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            iou(Box(0.5, 0.5, 0.0, 0.1), Box(0.5, 0.5, 0.1, 0.1))

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            val = iou(random_box(rng), random_box(rng))
            assert 0.0 <= val <= 1.0


class TestCiou:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = random_box(rng)
            assert abs(ciou_loss(b, b)) <= 1e-12

    def test_hand_case_disjoint_same_shape(self):
        """Unit-square pair two units apart in an 8-unit frame: 1 + 4/20 = 1.2."""
        pred = Box(1 / 8, 1 / 8, 2 / 8, 2 / 8)
        gt = Box(3 / 8, 1 / 8, 2 / 8, 2 / 8)
        assert ciou_loss(pred, gt) == pytest.approx(1.2, abs=1e-9)

    def test_aspect_term_positive_for_swapped_aspect(self):
        pred = Box(0.5, 0.5, 0.4, 0.2)
        gt = Box(0.5, 0.5, 0.2, 0.4)
        i, dist, v, alpha = ciou_terms(pred, gt)
        expect_v = (4 / math.pi**2) * (math.atan(0.5) - math.atan(2.0)) ** 2
        assert v == pytest.approx(expect_v, rel=1e-12)
        assert v > 0
        assert ciou_loss(pred, gt) > 1 - i

    def test_alpha_v_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            _, _, v, alpha = ciou_terms(a, b)
            assert 0.0 <= v <= 1.0
            assert 0.0 <= alpha <= 1.0

    def test_loss_range(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            val = ciou_loss(random_box(rng), random_box(rng))
            assert 0.0 <= val < 3.0

    def test_gradient_matches_frozen_alpha_finite_differences(self):
        """The backward freezes alpha, so FD must pin alpha at the base point."""
        rng = np.random.default_rng(5)
        h = 1e-6
        checked = 0
        while checked < 50:
            pred, gt = random_box(rng), random_box(rng)
            if iou(pred, gt) == 0.0:  # keep away from the touching boundary
                continue
            _, _, _, alpha = ciou_terms(pred, gt)
            _, grad = ciou_loss_grad(pred, gt)
            for k, name in enumerate(["cx", "cy", "w", "h"]):
                vals = [pred.cx, pred.cy, pred.w, pred.h]
                vals[k] += h
                up = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
                vals[k] -= 2 * h
                dn = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
                num = (up - dn) / (2 * h)
                assert abs(num - grad[k]) <= 1e-5 * max(1.0, abs(num)), (name, num, grad[k])
            checked += 1

    def test_raw_fd_residual_is_exactly_the_alpha_path(self):
        """FD of the raw loss differs from the analytic grad by v * d(alpha)."""
        rng = np.random.default_rng(50)
        h = 1e-6
        checked = 0
        while checked < 20:
            pred, gt = random_box(rng), random_box(rng)
            if iou(pred, gt) == 0.0:
                continue
            _, _, v, alpha = ciou_terms(pred, gt)
            _, grad = ciou_loss_grad(pred, gt)
            for k in range(4):
                vals = [pred.cx, pred.cy, pred.w, pred.h]
                vals[k] += h
                up_box = Box(*vals)
                vals[k] -= 2 * h
                dn_box = Box(*vals)
                full = (ciou_loss(up_box, gt) - ciou_loss(dn_box, gt)) / (2 * h)
                dalpha = (ciou_terms(up_box, gt)[3] - ciou_terms(dn_box, gt)[3]) / (2 * h)
                assert full - grad[k] == pytest.approx(v * dalpha, abs=1e-4)
            checked += 1

    def test_gradient_disjoint_case(self):
        pred = Box(0.2, 0.2, 0.1, 0.1)
        gt = Box(0.7, 0.7, 0.1, 0.1)
        _, _, _, alpha = ciou_terms(pred, gt)
        _, grad = ciou_loss_grad(pred, gt)
        h = 1e-6
        for k in range(4):
            vals = [pred.cx, pred.cy, pred.w, pred.h]
            vals[k] += h
            up = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
            vals[k] -= 2 * h
            dn = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
            assert (up - dn) / (2 * h) == pytest.approx(grad[k], abs=1e-5)


class TestDfl:
    def test_one_hot_at_integer_target_is_zero(self):
        logits = np.full(8, -40.0)
        logits[3] = 40.0
        tgt = DflTarget.for_value(3.0, 8)
        assert dfl_loss(logits, tgt) <= 1e-12

    def test_midpoint_uniform_pair_gives_ln2(self):
        logits = np.full(8, -40.0)
        logits[2] = 10.0
        logits[3] = 10.0
        tgt = DflTarget.for_value(2.5, 8)
        assert dfl_loss(logits, tgt) == pytest.approx(math.log(2), abs=1e-9)

    def test_top_edge_target_uses_last_pair(self):
        tgt = DflTarget.for_value(7.0, 8)
        assert (tgt.y_l, tgt.y_r) == (6, 7)
        logits = np.full(8, -40.0)
        logits[7] = 40.0
        assert dfl_loss(logits, tgt) <= 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(DomainError, match="outside"):
            DflTarget.for_value(7.5, 8)
        with pytest.raises(DomainError):
            DflTarget.for_value(-0.1, 8)

    def test_minimizer_matches_interpolation_weight(self):
        """1-D convex scan: optimal p[y_l] equals y_r - y to 1e-6."""
        for y in (2.2, 2.5, 2.9, 5.0 - 1e-9):
            tgt = DflTarget.for_value(y, 8)

            def two_bin_loss(pl):
                return -((tgt.y_r - y) * math.log(pl) + (y - tgt.y_l) * math.log(1 - pl))

            ps = np.linspace(1e-9, 1 - 1e-9, 2_000_001)
            losses = -((tgt.y_r - y) * np.log(ps) + (y - tgt.y_l) * np.log(1 - ps))
            best = ps[np.argmin(losses)]
            assert abs(best - (tgt.y_r - y)) <= 1e-6
            # and the minimum value equals the binary entropy bound
            a = tgt.y_r - y
            entropy = 0.0
            for q in (a, 1 - a):
                if q > 0:
                    entropy -= q * math.log(q)
            assert two_bin_loss(min(max(a, 1e-12), 1 - 1e-12)) == pytest.approx(
                entropy, abs=1e-9
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.normal(size=8)
            tgt = DflTarget.for_value(float(rng.uniform(0, 7)), 8)
            _, grad = dfl_loss_grad(z, tgt)
            h = 1e-6
            for k in range(8):
                zp = z.copy()
                zp[k] += h
                zm = z.copy()
                zm[k] -= h
                num = (dfl_loss(zp, tgt) - dfl_loss(zm, tgt)) / (2 * h)
                assert num == pytest.approx(grad[k], abs=1e-5)

    def test_expected_bin(self):
        one_hot = np.full(8, -40.0)
        one_hot[3] = 40.0
        assert expected_bin(one_hot) == pytest.approx(3.0, abs=1e-9)
        assert expected_bin(np.zeros(8)) == pytest.approx(3.5, abs=1e-12)


class TestBce:
    def test_logit_zero_target_one(self):
        assert bce_logits(0.0, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_logit_stable(self):
        assert bce_logits(100.0, 1.0) <= 1e-12
        assert np.isfinite(bce_logits(-100.0, 1.0))

    def test_half_target_symmetric(self):
        assert bce_logits(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient(self):
        for x, t in ((0.3, 1.0), (-2.0, 0.0), (5.0, 0.5)):
            _, g = bce_logits_grad(x, t)
            h = 1e-6
            num = (bce_logits(x + h, t) - bce_logits(x - h, t)) / (2 * h)
            assert num == pytest.approx(g, abs=1e-6)

    def test_map_matches_scalar(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        t = rng.uniform(size=(3, 4))
        loss, grad = bce_logits_map(x, t)
        for i in range(3):
            for j in range(4):
                l2, g2 = bce_logits_grad(x[i, j], t[i, j])
                assert loss[i, j] == pytest.approx(l2, abs=1e-12)
                assert grad[i, j] == pytest.approx(g2, abs=1e-12)


class _Gt:
    def __init__(self, class_id, box):
        self.class_id = class_id
        self.box = box


class TestAssign:
    GRIDS = [LevelGrid(8, 8, 8), LevelGrid(16, 4, 4), LevelGrid(32, 2, 2)]

    def test_full_image_gt_assigns_best_level(self):
        """A 60-px box (image 64) sits closest to 4*16, so level 1 is chosen."""
        gt = _Gt(0, Box(0.5, 0.5, 60 / 64, 60 / 64))
        per_level = assign_targets([gt], self.GRIDS)
        assert per_level[0] == []
        assert len(per_level[1]) > 0
        assert per_level[2] == []
        for ci, cj, gi in per_level[1]:
            assert gi == 0

    def test_no_gts_all_negative(self):
        per_level = assign_targets([], self.GRIDS)
        assert all(lvl == [] for lvl in per_level)

    def test_disjoint_gts_disjoint_cells(self):
        a = _Gt(0, Box(0.25, 0.25, 0.3, 0.3))
        b = _Gt(1, Box(0.75, 0.75, 0.3, 0.3))
        per_level = assign_targets([a, b], self.GRIDS)
        cells_a = {(l, i, j) for l, lvl in enumerate(per_level)
                   for i, j, gi in lvl if gi == 0}
        cells_b = {(l, i, j) for l, lvl in enumerate(per_level)
                   for i, j, gi in lvl if gi == 1}
        assert cells_a and cells_b
        assert not cells_a & cells_b

    def test_contested_cell_prefers_higher_cell_iou(self):
        big = _Gt(0, Box(0.25, 0.25, 0.45, 0.45))
        small = _Gt(1, Box(0.25, 0.25, 0.2, 0.2))
        per_level = assign_targets([big, small], self.GRIDS)
        # both land on the stride-8 level; the small box overlaps cell squares more
        owners = {(i, j): gi for i, j, gi in per_level[0]}
        assert owners[(2, 2)] == 1  # center cell of the small box


class TestWeights:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            LossWeights(-1.0, 1.0, 1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            LossWeights(0.0, 0.0, 0.0)


def _preds(nc=2, reg_max=8, grids=((8, 8), (4, 4), (2, 2)), strides=(8, 16, 32)):
    from microdet.model import LevelPreds, RawPredictions
    from microdet.tensor import Tensor4

    levels = [
        LevelPreds(Tensor4(np.zeros((1, nc, h, w))),
                   Tensor4(np.zeros((1, 4 * reg_max, h, w))), s)
        for (h, w), s in zip(grids, strides)
    ]
    return RawPredictions(levels, nc, reg_max)


class TestTotalLoss:
    def test_cls_only_weights(self):
        """Weights (1,0,0) reduce the total to the classification term."""
        preds = _preds()
        gts = [[_Gt(0, Box(0.5, 0.5, 0.4, 0.4))]]
        total, breakdown, _, _ = loss_and_grads(preds, gts, LossWeights(1.0, 0.0, 0.0))
        assert total == pytest.approx(breakdown["cls"], abs=1e-15)
        assert breakdown["box"] > 0  # term still reported, just unweighted

    def test_no_gts_zero_box_and_dfl(self):
        total, breakdown, _, _ = loss_and_grads(_preds(), [[]], LossWeights())
        assert breakdown["box"] == 0.0
        assert breakdown["dfl"] == 0.0
        assert breakdown["cls"] > 0.0

    def test_doubling_box_weight_doubles_its_contribution(self):
        preds = _preds()
        gts = [[_Gt(1, Box(0.5, 0.5, 0.3, 0.3))]]
        w1 = LossWeights(0.5, 7.5, 1.5)
        w2 = LossWeights(0.5, 15.0, 1.5)
        t1, b1, _, _ = loss_and_grads(preds, gts, w1)
        t2, b2, _, _ = loss_and_grads(preds, gts, w2)
        assert b1["box"] == b2["box"]  # raw term unchanged
        assert t2 - t1 == pytest.approx(7.5 * b1["box"], rel=1e-12)

    def test_constructed_optimum_is_essentially_zero(self):
        """Perfect logits and point-mass distributions on an aligned one-GT scene."""
        reg_max = 8
        preds = _preds(reg_max=reg_max)
        # corners at 4 and 36 px of a 64-px image: every covered stride-8 cell
        # center sits an integer number of strides from each box side
        gt_box = Box(20 / 64, 20 / 64, 32 / 64, 32 / 64)
        gts = [[_Gt(1, gt_box)]]
        for lv in preds.levels:
            lv.cls.data[:] = -20.0
        grids = [LevelGrid(lv.stride, lv.cls.shape[2], lv.cls.shape[3])
                 for lv in preds.levels]
        per_level = assign_targets(gts[0], grids)
        assert sum(len(l) for l in per_level) == 25
        for li, cells in enumerate(per_level):
            lv = preds.levels[li]
            s = lv.stride
            for ci, cj, _ in cells:
                lv.cls.data[0, 1, ci, cj] = 20.0
                cxc, cyc = (cj + 0.5) * s, (ci + 0.5) * s
                x1, y1, x2, y2 = gt_box.corners()
                dists = [(cxc - x1 * 64) / s, (cyc - y1 * 64) / s,
                         (x2 * 64 - cxc) / s, (y2 * 64 - cyc) / s]
                box = lv.box.data[0, :, ci, cj].reshape(4, reg_max)
                box[:] = -40.0
                for k, d in enumerate(dists):
                    assert d == pytest.approx(round(d), abs=1e-12)
                    box[k, int(round(d))] = 40.0
        total, breakdown, _, _ = loss_and_grads(preds, gts, LossWeights())
        assert total <= 1e-6, breakdown

    def test_all_terms_non_negative(self):
        rng = np.random.default_rng(8)
        preds = _preds()
        for lv in preds.levels:
            lv.cls.data[:] = rng.normal(size=lv.cls.shape)
            lv.box.data[:] = rng.normal(size=lv.box.shape)
        gts = [[_Gt(0, Box(0.4, 0.4, 0.3, 0.25)), _Gt(1, Box(0.7, 0.7, 0.2, 0.2))]]
        total, breakdown, _, _ = loss_and_grads(preds, gts, LossWeights())
        for term in ("cls", "box", "dfl", "total"):
            assert breakdown[term] >= 0.0

    def test_tape_op_gradients_match_finite_differences(self):
        """detection_loss grads on the raw head tensors vs frozen-alpha FD."""
        from microdet.losses import detection_loss
        from microdet.tensor import GradTape, backward

        rng = np.random.default_rng(9)
        preds = _preds()
        for lv in preds.levels:
            lv.cls.data[:] = rng.normal(size=lv.cls.shape)
            lv.box.data[:] = rng.normal(size=lv.box.shape)
        gts = [[_Gt(0, Box(0.4, 0.45, 0.35, 0.3)), _Gt(1, Box(0.72, 0.7, 0.2, 0.22))]]
        weights = LossWeights()
        tape = GradTape()
        detection_loss(preds, gts, weights, tape)
        backward(tape)
        alphas = loss_and_grads(preds, gts, weights)[3]

        h = 1e-6
        for lv in preds.levels[:1]:
            for tensor in (lv.cls, lv.box):
                flat = rng.choice(tensor.numel, size=10, replace=False)
                for idx in flat:
                    coord = np.unravel_index(int(idx), tensor.shape)
                    base = tensor.data[coord]
                    tensor.data[coord] = base + h
                    up = loss_and_grads(preds, gts, weights, frozen_alphas=alphas)[0]
                    tensor.data[coord] = base - h
                    dn = loss_and_grads(preds, gts, weights, frozen_alphas=alphas)[0]
                    tensor.data[coord] = base
                    num = (up - dn) / (2 * h)
                    ana = tensor.grad[coord]
                    assert abs(num - ana) <= 1e-5 * max(1.0, abs(num)), (coord, num, ana)
