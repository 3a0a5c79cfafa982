"""IoU/CIoU/DFL/BCE values, gradients vs finite differences, assignment.

The CIoU, DFL and BCE checks run the array kernels `ciou`, `dfl` and
`bce_logits` that `loss_and_grads` applies during training.
"""

import math
import warnings

import numpy as np
import pytest

from oracles import iou_raster_oracle

from microdet.losses import (
    Box,
    LevelGrid,
    LossWeights,
    assign_targets,
    bce_logits,
    ciou,
    dfl,
    iou,
    loss_and_grads,
)
from microdet.tensor import DomainError, ShapeError


def random_box(rng, lo=0.2, hi=0.8):
    cx, cy = rng.uniform(lo, hi, size=2)
    w, h = rng.uniform(0.05, 0.3, size=2)
    return Box(cx, cy, w, h)


def as_rows(*boxes):
    """(P, 4) array of (cx, cy, w, h) rows, the layout `ciou` takes."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes])


def random_rows(rng, n, lo=0.2, hi=0.8):
    return np.concatenate([rng.uniform(lo, hi, size=(n, 2)),
                           rng.uniform(0.05, 0.3, size=(n, 2))], axis=1)


def two_bin_dfl(y, ps, reg_max=8, chunk=250_000):
    """`dfl` at target y over the distributions p[y_l] = ps, p[y_l + 1] = 1 - ps.

    The other bins get probability 0 (logit -inf); the scan runs in chunks
    to keep memory small.
    """
    y_l = min(int(math.floor(y)), reg_max - 2)
    out = np.empty(ps.size)
    for lo in range(0, ps.size, chunk):
        part = ps[lo:lo + chunk]
        z = np.full((part.size, reg_max), -np.inf)
        z[:, y_l] = np.log(part)
        z[:, y_l + 1] = np.log1p(-part)
        out[lo:lo + chunk] = dfl(z, np.full(part.size, y))[0]
    return out


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
        rows = random_rows(np.random.default_rng(2), 100)
        assert np.abs(ciou(rows, rows)[0]).max() <= 1e-12

    def test_hand_case_disjoint_same_shape(self):
        """Unit-square pair two units apart in an 8-unit frame: 1 + 4/20 = 1.2."""
        pred = Box(1 / 8, 1 / 8, 2 / 8, 2 / 8)
        gt = Box(3 / 8, 1 / 8, 2 / 8, 2 / 8)
        assert ciou(as_rows(pred), as_rows(gt))[0][0] == pytest.approx(1.2, abs=1e-9)

    def test_aspect_term_positive_for_swapped_aspect(self):
        pred = as_rows(Box(0.5, 0.5, 0.4, 0.2))
        gt = as_rows(Box(0.5, 0.5, 0.2, 0.4))
        loss, _, (i, dist, v, alpha) = ciou(pred, gt)
        expect_v = (4 / math.pi**2) * (math.atan(0.5) - math.atan(2.0)) ** 2
        assert v[0] == pytest.approx(expect_v, rel=1e-12)
        assert v[0] > 0
        assert loss[0] > 1 - i[0]

    def test_alpha_v_ranges(self):
        rng = np.random.default_rng(3)
        _, _, (_, _, v, alpha) = ciou(random_rows(rng, 10_000), random_rows(rng, 10_000))
        assert v.shape == alpha.shape == (10_000,)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all((0.0 <= alpha) & (alpha <= 1.0))

    def test_loss_range(self):
        rng = np.random.default_rng(4)
        loss = ciou(random_rows(rng, 1000), random_rows(rng, 1000))[0]
        assert np.all((0.0 <= loss) & (loss < 3.0))

    def test_degenerate_box_rejected_in_either_argument(self):
        good = as_rows(Box(0.5, 0.5, 0.1, 0.1), Box(0.4, 0.4, 0.2, 0.2))
        for bad in (Box(0.5, 0.5, 0.0, 0.1), Box(0.5, 0.5, 0.1, -0.1)):
            rows = good.copy()
            rows[1] = as_rows(bad)[0]
            with pytest.raises(DomainError, match="degenerate"):
                ciou(rows, good)
            with pytest.raises(DomainError, match="degenerate"):
                ciou(good, rows)

    def test_gradient_matches_frozen_alpha_finite_differences(self):
        """The backward freezes alpha, so FD must pin alpha at the base point."""
        rng = np.random.default_rng(5)
        h = 1e-6
        pairs = []
        while len(pairs) < 50:
            pred, gt = random_box(rng), random_box(rng)
            if iou(pred, gt) > 0.0:  # keep away from the touching boundary
                pairs.append((pred, gt))
        pred = as_rows(*(p for p, _ in pairs))
        gt = as_rows(*(g for _, g in pairs))
        _, grad, (_, _, _, alpha) = ciou(pred, gt)
        for k, name in enumerate(["cx", "cy", "w", "h"]):
            step = np.zeros(4)
            step[k] = h
            up = ciou(pred + step, gt, alpha)[0]
            dn = ciou(pred - step, gt, alpha)[0]
            num = (up - dn) / (2 * h)
            for n in range(len(pairs)):
                assert abs(num[n] - grad[n, k]) <= 1e-5 * max(1.0, abs(num[n])), (
                    name, n, num[n], grad[n, k])

    def test_raw_fd_residual_is_exactly_the_alpha_path(self):
        """FD of the raw loss differs from the analytic grad by v * d(alpha)."""
        rng = np.random.default_rng(50)
        h = 1e-6
        pairs = []
        while len(pairs) < 20:
            pred, gt = random_box(rng), random_box(rng)
            if iou(pred, gt) > 0.0:
                pairs.append((pred, gt))
        pred = as_rows(*(p for p, _ in pairs))
        gt = as_rows(*(g for _, g in pairs))
        _, grad, (_, _, v, _) = ciou(pred, gt)
        for k in range(4):
            step = np.zeros(4)
            step[k] = h
            up_loss, _, up_terms = ciou(pred + step, gt)
            dn_loss, _, dn_terms = ciou(pred - step, gt)
            full = (up_loss - dn_loss) / (2 * h)
            dalpha = (up_terms[3] - dn_terms[3]) / (2 * h)
            for n in range(len(pairs)):
                assert full[n] - grad[n, k] == pytest.approx(v[n] * dalpha[n], abs=1e-4)

    def test_gradient_disjoint_case(self):
        pred = as_rows(Box(0.2, 0.2, 0.1, 0.1))
        gt = as_rows(Box(0.7, 0.7, 0.1, 0.1))
        _, grad, (_, _, _, alpha) = ciou(pred, gt)
        h = 1e-6
        for k in range(4):
            step = np.zeros(4)
            step[k] = h
            up = ciou(pred + step, gt, alpha)[0][0]
            dn = ciou(pred - step, gt, alpha)[0][0]
            assert (up - dn) / (2 * h) == pytest.approx(grad[0, k], abs=1e-5)


class TestDfl:
    def test_one_hot_at_integer_target_is_zero(self):
        logits = np.full(8, -40.0)
        logits[3] = 40.0
        assert dfl(logits, 3.0)[0] <= 1e-12

    def test_midpoint_uniform_pair_gives_ln2(self):
        logits = np.full(8, -40.0)
        logits[2] = 10.0
        logits[3] = 10.0
        assert dfl(logits, 2.5)[0] == pytest.approx(math.log(2), abs=1e-9)

    def test_top_edge_target_uses_last_pair(self):
        """y = reg_max - 1 brackets with bins (6, 7): all its weight falls on bin 7."""
        logits = np.full(8, -40.0)
        logits[7] = 40.0
        loss, grad = dfl(logits, 7.0)
        assert loss <= 1e-12
        uniform = dfl(np.zeros(8), 7.0)[1]
        expect = np.full(8, 1 / 8)
        expect[7] -= 1.0
        np.testing.assert_allclose(uniform, expect, atol=1e-15)

    def test_out_of_range_target(self):
        with pytest.raises(DomainError, match="outside"):
            dfl(np.zeros(8), 7.5)
        with pytest.raises(DomainError):
            dfl(np.zeros(8), -0.1)
        with pytest.raises(DomainError, match="outside"):
            dfl(np.zeros((2, 8)), np.array([1.0, np.nan]))

    def test_perfect_prediction_with_underflowed_neighbour_is_finite(self):
        """A zero-weight bin adds exactly 0 even where its probability is 0."""
        logits = np.full(8, -800.0)
        logits[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = dfl(logits, 0.0)
            batch_loss, _ = dfl(np.stack([logits, logits[::-1]]), np.array([0.0, 7.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(8))
        assert np.array_equal(batch_loss, [0.0, 0.0])

    def test_reg_max_and_shape_checks(self):
        with pytest.raises(DomainError, match="reg_max"):
            dfl(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ShapeError, match="targets"):
            dfl(np.zeros((3, 8)), np.zeros(4))

    def test_minimizer_matches_interpolation_weight(self):
        """1-D convex scan of `dfl`: optimal p[y_l] equals y_r - y to 1e-6."""
        ps = np.linspace(1e-9, 1 - 1e-9, 2_000_001)
        for y in (2.2, 2.5, 2.9, 5.0 - 1e-9):
            y_r = min(math.floor(y), 6) + 1
            best = ps[np.argmin(two_bin_dfl(y, ps))]
            assert abs(best - (y_r - y)) <= 1e-6
            # and the minimum value equals the binary entropy bound
            a = y_r - y
            entropy = 0.0
            for q in (a, 1 - a):
                if q > 0:
                    entropy -= q * math.log(q)
            p_min = np.array([min(max(a, 1e-12), 1 - 1e-12)])
            assert two_bin_dfl(y, p_min)[0] == pytest.approx(entropy, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(20, 8))
        y = rng.uniform(0, 7, size=20)
        _, grad = dfl(z, y)
        h = 1e-6
        for k in range(8):
            zp = z.copy()
            zp[:, k] += h
            zm = z.copy()
            zm[:, k] -= h
            num = (dfl(zp, y)[0] - dfl(zm, y)[0]) / (2 * h)
            for n in range(20):
                assert num[n] == pytest.approx(grad[n, k], abs=1e-5)

    def test_expected_bin(self):
        """The expectation decode the loss oracle uses: sum_i i * softmax(z)_i."""
        from oracles import expected_bin_oracle

        one_hot = np.full(8, -40.0)
        one_hot[3] = 40.0
        assert expected_bin_oracle(one_hot) == pytest.approx(3.0, abs=1e-9)
        assert expected_bin_oracle(np.zeros(8)) == pytest.approx(3.5, abs=1e-12)


class TestBce:
    def test_logit_zero_target_one(self):
        assert bce_logits(0.0, 1.0)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_large_logit_stable(self):
        assert bce_logits(100.0, 1.0)[0] <= 1e-12
        assert np.isfinite(bce_logits(-100.0, 1.0)[0])

    def test_half_target_symmetric(self):
        assert bce_logits(0.0, 0.5)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient(self):
        x = np.array([0.3, -2.0, 5.0])
        t = np.array([1.0, 0.0, 0.5])
        _, g = bce_logits(x, t)
        h = 1e-6
        num = (bce_logits(x + h, t)[0] - bce_logits(x - h, t)[0]) / (2 * h)
        for n in range(3):
            assert num[n] == pytest.approx(g[n], abs=1e-6)

    def test_map_matches_scalar(self):
        """The array kernel against the scalar definition, element by element."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        t = rng.uniform(size=(3, 4))
        loss, grad = bce_logits(x, t)
        for i in range(3):
            for j in range(4):
                xi, ti = float(x[i, j]), float(t[i, j])
                l2 = max(xi, 0.0) - xi * ti + math.log1p(math.exp(-abs(xi)))
                g2 = 1.0 / (1.0 + math.exp(-xi)) - ti
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
