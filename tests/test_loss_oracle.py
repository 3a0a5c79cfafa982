"""The level-wise loss against its per-cell loop.

`loss_and_grads` must match `oracles.loss_per_cell_oracle` to 1e-12
relative on the total, every breakdown term, every gradient array and the
CIoU alphas. Gradient arrays are compared elementwise against 1e-12 of the
array's largest magnitude, since single entries can cancel to near zero.
"""

import numpy as np
import pytest

from oracles import assign_loop_oracle, ciou_oracle, gt_table, loss_per_cell_oracle

from microdet import losses
from microdet.dataio import generate_toy_dataset, load_manifest
from microdet.losses import (
    Box,
    LevelGrid,
    LossWeights,
    assign_targets,
    ciou,
    loss_and_grads,
)
from microdet.model import LevelPreds, RawPredictions
from microdet.tensor import DomainError, Tensor4

TOL = 1e-12
GRIDS = [LevelGrid(8, 8, 8), LevelGrid(16, 4, 4), LevelGrid(32, 2, 2)]


class _Gt:
    def __init__(self, class_id, box):
        self.class_id = class_id
        self.box = box


def make_preds(rng, batch, nc=3, reg_max=8, scale=1.0):
    levels = [
        LevelPreds(Tensor4(rng.normal(size=(batch, nc, g.h, g.w)) * scale),
                   Tensor4(rng.normal(size=(batch, 4 * reg_max, g.h, g.w)) * scale),
                   g.stride)
        for g in GRIDS
    ]
    return RawPredictions(levels)


def px_box(x1, y1, x2, y2, size=64):
    """A box from pixel corners of a size x size image."""
    return Box((x1 + x2) / 2 / size, (y1 + y2) / 2 / size,
               (x2 - x1) / size, (y2 - y1) / size)


def assert_close(got, want, what):
    assert abs(got - want) <= TOL * max(abs(want), abs(got)), (what, got, want)


def assert_matches_oracle(preds, gts, frozen_alphas=None):
    total, breakdown, grads, alphas = loss_and_grads(preds, gts, LossWeights(), frozen_alphas)
    o_total, o_breakdown, o_grads, o_alphas = loss_per_cell_oracle(preds, gts, frozen_alphas)
    assert_close(total, o_total, "total")
    assert breakdown.keys() == o_breakdown.keys()
    for key in breakdown:
        assert_close(breakdown[key], o_breakdown[key], key)
    assert len(grads) == len(o_grads)
    for li, (pair, o_pair) in enumerate(zip(grads, o_grads)):
        for name, g, og in zip(("cls", "box"), pair, o_pair):
            assert g.shape == og.shape
            err = np.abs(g - og).max(initial=0.0)
            assert err <= TOL * np.abs(og).max(initial=0.0), (li, name, err)
    assert alphas.shape == (len(o_alphas),)
    for a, oa in zip(alphas, o_alphas):
        assert abs(a - oa) <= TOL * max(abs(oa), 1e-300) or a == oa, (a, oa)
    return total, breakdown, grads, alphas


def assign(gts, grids=GRIDS):
    """`assign_targets` on a batch given as GroundTruth lists."""
    return assign_targets(*gt_table(gts), grids)


def n_positives(gts):
    return sum(len(lvl) for lvl in assign(gts))


def set_sides(preds, li, b, i, j, side_logits):
    """Overwrite the four side distributions of one cell."""
    lv = preds.levels[li]
    lv.box.data[b, :, i, j] = np.asarray(side_logits, dtype=np.float64).reshape(-1)


class TestLossMatchesPerCellLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        preds = make_preds(rng, batch=3)
        # small, medium and larger-than-image boxes so every level receives positives
        gts = [
            [_Gt(0, px_box(6, 8, 24, 30)), _Gt(2, px_box(30, 4, 58, 50))],
            [_Gt(1, px_box(2, 2, 62, 60)), _Gt(0, px_box(40, 40, 50, 52))],
            [_Gt(2, px_box(10, 30, 40, 44)), _Gt(1, px_box(-20, -16, 84, 82))],
        ]
        _, _, _, alphas = assert_matches_oracle(preds, gts)
        per_level = [len(lvl) for lvl in assign(gts)]
        assert all(per_level), per_level
        assert np.all(alphas > 0)

    def test_targets_clipped_to_last_bin(self):
        """A 40 px box at stride 8 lies up to 4.5 strides from its cells; reg_max 4 clips at 3."""
        rng = np.random.default_rng(3)
        preds = make_preds(rng, batch=1, reg_max=4)
        gt = _Gt(1, px_box(10, 12, 50, 50))
        gts = [[gt]]
        cells = assign(gts)[0]
        x1 = gt.box.corners()[0] * 64
        assert max((j + 0.5) * 8 - x1 for _, _, j, _ in cells) / 8 > 3
        assert_matches_oracle(preds, gts)

    def test_predicted_box_only_touching_its_gt(self):
        """The GT's left edge sits on a cell centre; the prediction points away from it."""
        rng = np.random.default_rng(4)
        preds = make_preds(rng, batch=1)
        gts = [[_Gt(0, px_box(12, 12, 28, 28))]]
        assert [0, 1, 1, 0] in assign(gts)[0].tolist()
        far_left = np.full(8, -30.0)
        far_left[2] = 0.0
        nothing_right = np.full(8, -30.0)
        nothing_right[0] = 0.0
        set_sides(preds, 0, 0, 1, 1, [far_left, far_left, nothing_right, nothing_right])
        assert_matches_oracle(preds, gts)

    def test_ciou_disjoint_and_edge_pairs(self):
        """The masked CIoU kernel agrees with the scalar branches pair by pair."""
        rng = np.random.default_rng(5)
        pairs = [
            (Box(0.2, 0.2, 0.1, 0.1), Box(0.8, 0.7, 0.2, 0.1)),      # disjoint
            (Box(0.25, 0.5, 0.1, 0.2), Box(0.35, 0.5, 0.1, 0.2)),    # touching edges
            (Box(0.5, 0.5, 0.4, 0.4), Box(0.5, 0.5, 0.1, 0.2)),      # nested
            (Box(0.5, 0.5, 0.3, 0.2), Box(0.5, 0.5, 0.3, 0.2)),      # identical: alpha 0/0
            (Box(0.5, 0.5, 1e-9, 2e-9), Box(0.5, 0.5, 0.2, 0.3)),    # near-degenerate
        ]
        pairs += [(Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.01, 0.4, 2)),
                   Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.01, 0.4, 2)))
                  for _ in range(40)]
        pred = np.array([(p.cx, p.cy, p.w, p.h) for p, _ in pairs])
        gt = np.array([(g.cx, g.cy, g.w, g.h) for _, g in pairs])
        for override in (None, np.linspace(0.0, 1.0, len(pairs))):
            loss, grad, terms = ciou(pred, gt, override)
            if override is None:
                assert terms[0][0] == 0.0  # disjoint: IoU 0
                assert terms[3][3] == 0.0  # identical: alpha 0/0 taken as 0
            for n in range(len(pairs)):
                o_loss, o_grad, o_terms = ciou_oracle(pred[n], gt[n], None if override is None
                                                      else override[n])
                assert abs(loss[n] - o_loss) <= TOL * abs(o_loss) + 1e-300
                assert np.abs(grad[n] - o_grad).max() <= TOL * max(np.abs(o_grad).max(), 1e-300)
                for got, want in zip(terms, o_terms):
                    assert abs(got[n] - want) <= TOL * abs(want), (n, got[n], want)

    def test_near_degenerate_boxes(self):
        """A GT 1e-9 wide around a cell centre, predicted as a near-point box."""
        rng = np.random.default_rng(6)
        preds = make_preds(rng, batch=1)
        gts = [[_Gt(0, Box(12 / 64, 20 / 64, 1e-9, 2e-9))]]
        assert assign(gts)[0].tolist() == [[0, 2, 1, 0]]
        point = np.full(8, -30.0)
        point[0] = 0.0
        set_sides(preds, 0, 0, 2, 1, [point] * 4)
        assert_matches_oracle(preds, gts)

    def test_two_gts_contest_cells(self):
        rng = np.random.default_rng(7)
        preds = make_preds(rng, batch=2)
        overlapping = [_Gt(0, px_box(4, 4, 36, 36)), _Gt(1, px_box(12, 12, 28, 28))]
        # identical boxes tie on every cell: the lower index keeps them all
        identical = [_Gt(2, px_box(20, 8, 44, 40)), _Gt(0, px_box(20, 8, 44, 40))]
        gts = [overlapping, identical]
        per_level = assign(gts)
        owners = {(b, k) for b, _, _, k in per_level[0]}
        assert owners == {(0, 0), (0, 1), (1, 2)}
        assert {k for lvl in per_level for b, _, _, k in lvl if b == 1} == {2}
        assert_matches_oracle(preds, gts)

    def test_image_without_gts(self):
        rng = np.random.default_rng(8)
        preds = make_preds(rng, batch=3)
        gts = [[], [_Gt(1, px_box(8, 8, 30, 26))], []]
        assert_matches_oracle(preds, gts)
        _, breakdown, _, alphas = assert_matches_oracle(make_preds(rng, batch=1), [[]])
        assert breakdown["box"] == breakdown["dfl"] == 0.0 and alphas.size == 0

    def test_frozen_alphas(self):
        rng = np.random.default_rng(9)
        preds = make_preds(rng, batch=2)
        gts = [[_Gt(0, px_box(6, 8, 24, 30)), _Gt(1, px_box(2, 2, 62, 60))],
               [_Gt(2, px_box(30, 4, 58, 50))]]
        alphas = loss_and_grads(preds, gts, LossWeights())[3]
        frozen = np.linspace(0.05, 0.95, alphas.size)
        total, _, _, returned = assert_matches_oracle(preds, gts, frozen_alphas=frozen)
        assert np.array_equal(returned, frozen)
        assert total != loss_and_grads(preds, gts, LossWeights())[0]

    def test_bench_toy_set(self, tmp_path):
        """The 20 two-object scenes of the benchmark's `train` set at seed 11."""
        manifest = load_manifest(generate_toy_dataset(tmp_path, seed=11, n_images=20,
                                                      min_objects=2, max_objects=2))
        gts = [manifest.load_gts(idx) for idx in range(len(manifest.entries))]
        preds = make_preds(np.random.default_rng(11), batch=len(gts), nc=2)
        _, _, _, alphas = assert_matches_oracle(preds, gts)
        assert alphas.size == n_positives(gts) > 0

    def test_weights_scale_each_term(self):
        """The fixed gains differ from each other, so a swapped gain fails the oracle."""
        rng = np.random.default_rng(10)
        preds = make_preds(rng, batch=1)
        gts = [[_Gt(0, px_box(6, 8, 24, 30))]]
        assert_matches_oracle(preds, gts)


def random_batch(rng):
    """A batch of 1-3 images at 32-128 px with 0-8 boxes each, as (boxes, image, grids).

    Half the boxes have edges on the half-stride grid of the finest level, so
    cell centres land exactly on their bounds; some repeat an earlier box of
    the same image; the rest are random, out to larger than the image.
    """
    size = int(rng.choice([32, 64, 96, 128]))
    grids = [LevelGrid(s, size // s, size // s) for s in (8, 16, 32)]
    rows, image = [], []
    for b in range(int(rng.integers(1, 4))):
        first = len(rows)
        for _ in range(int(rng.integers(0, 9))):
            if len(rows) > first and rng.random() < 0.15:
                rows.append(rows[int(rng.integers(first, len(rows)))])
            elif rng.random() < 0.5:
                x1, x2, y1, y2 = rng.integers(-2, size // 4 + 3, size=4) * 4
                x2, y2 = max(x2, x1 + 4), max(y2, y1 + 4)
                rows.append(((x1 + x2) / 2 / size, (y1 + y2) / 2 / size,
                             (x2 - x1) / size, (y2 - y1) / size))
            else:
                rows.append((*rng.uniform(-0.1, 1.1, 2), *rng.uniform(0.01, 1.3, 2)))
            image.append(b)
    return np.array(rows, dtype=np.float64).reshape(-1, 4), np.array(image, dtype=np.intp), grids


def test_assign_matches_loop_on_random_batches():
    """The batched assigner equals the per-cell loop bit for bit, 1000 seeded batches."""
    rng = np.random.default_rng(12)
    n_pos = contested = 0
    for _ in range(1000):
        boxes, image, grids = random_batch(rng)
        got = assign_targets(boxes, image, grids)
        want = assign_loop_oracle(boxes, image, grids)
        assert len(got) == len(want) == 3
        for rows, o_rows in zip(got, want):
            assert rows.dtype == o_rows.dtype and rows.shape == o_rows.shape
            assert np.array_equal(rows, o_rows), (boxes, image, rows, o_rows)
            n_pos += len(rows)
        # a repeated box claims nothing: every cell it covers stays with its first copy
        for k in range(len(boxes)):
            twin = (image[:k] == image[k]) & (boxes[:k] == boxes[k]).all(axis=1)
            contested += twin.any()
            if twin.any():
                assert all(k not in lvl[:, 3] for lvl in got)
    assert n_pos > 10_000 and contested > 100


def test_one_softmax_per_level_with_positives(monkeypatch):
    """The DFL and the expectation decode share the softmax of the side logits."""
    calls = []
    real_softmax = losses._softmax

    def counting_softmax(z):
        calls.append(z.shape)
        return real_softmax(z)

    monkeypatch.setattr(losses, "_softmax", counting_softmax)
    gts = [[_Gt(0, px_box(6, 8, 24, 30))], [_Gt(1, px_box(30, 30, 50, 60))]]
    loss_and_grads(make_preds(np.random.default_rng(0), batch=2), gts, LossWeights())
    assert calls == [(n_positives(gts), 4, 8)]


class TestChecks:
    def test_batch_mismatch(self):
        preds = make_preds(np.random.default_rng(0), batch=2)
        with pytest.raises(DomainError, match="batch of 2"):
            loss_and_grads(preds, [[]], LossWeights())

    def test_degenerate_predicted_box(self):
        preds = make_preds(np.random.default_rng(0), batch=1)
        gts = [[_Gt(0, px_box(4, 4, 20, 20))]]
        zero = np.full(8, -800.0)  # exp underflows: all mass on bin 0, width exactly 0
        zero[0] = 0.0
        set_sides(preds, 0, 0, 1, 1, [zero] * 4)
        with pytest.raises(DomainError, match="degenerate"):
            loss_and_grads(preds, gts, LossWeights())

    def test_degenerate_gt_box(self):
        preds = make_preds(np.random.default_rng(0), batch=1)
        gts = [[_Gt(0, Box(12 / 64, 12 / 64, 0.0, 0.1))]]
        with pytest.raises(DomainError, match="degenerate"):
            loss_and_grads(preds, gts, LossWeights())

    def test_reg_max_below_two(self):
        preds = make_preds(np.random.default_rng(0), batch=1, reg_max=1)
        with pytest.raises(DomainError, match="reg_max"):
            loss_and_grads(preds, [[_Gt(0, px_box(4, 4, 20, 20))]], LossWeights())

    def test_one_alpha_per_positive(self):
        gts = [[_Gt(0, px_box(6, 8, 24, 30))], [_Gt(0, px_box(2, 2, 62, 60))]]
        alphas = loss_and_grads(make_preds(np.random.default_rng(0), batch=2), gts,
                                LossWeights())[3]
        assert alphas.size == n_positives(gts)

    def test_frozen_alpha_count(self):
        preds = make_preds(np.random.default_rng(0), batch=1)
        gts = [[_Gt(0, px_box(4, 4, 20, 20))]]
        with pytest.raises(DomainError, match="frozen alphas"):
            loss_and_grads(preds, gts, LossWeights(), frozen_alphas=[0.5])
