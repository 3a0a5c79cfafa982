"""The array decode and its IoU kernel against the per-cell loop and the scalar IoU.

`decode` must reproduce `oracles.decode_loop_oracle` bit for bit: the same
detections in the same order, with every confidence and box field equal by
`float.hex`. The inputs cover batch 2, one to three classes, the edges of
`conf_threshold` and `nms_iou`, tied confidences, empty boxes, boxes clipped
to the image, and NaN and infinite logits.
"""

import numpy as np
import pytest

from microdet.losses import Box, box_iou, iou
from microdet.model import LevelPreds, ModelConfig, RawPredictions, decode
from microdet.tensor import Tensor4
from oracles import decode_loop_oracle

REG_MAX = 8
STRIDES = (8, 16, 32)


def bits(dets):
    return [(d.class_id, d.image_id, d.confidence.hex(),
             *(float(v).hex() for v in (d.box.cx, d.box.cy, d.box.w, d.box.h)))
            for d in dets]


def seeded_preds(seed, nc, batch=2, size=64):
    """Random logits at 64 px, then the edge cases written over random cells."""
    rng = np.random.default_rng(seed)
    levels = []
    for s in STRIDES:
        g = size // s
        cls = rng.normal(0.0, 2.0, (batch, nc, g, g))
        box = rng.normal(0.0, 3.0, (batch, 4, REG_MAX, g, g))

        def cells(n):
            return rng.integers(0, batch, n), rng.integers(0, g, n), rng.integers(0, g, n)

        # tied confidences: one logit shared by cells of every level and class
        b, i, j = cells(3)
        cls[b, :, i, j] = 1.5
        # saturated confidences, so conf_threshold 1.0 keeps some candidates
        b, i, j = cells(2)
        cls[b, rng.integers(0, nc, 2), i, j] = [40.0, np.inf]
        b, i, j = cells(3)
        cls[b, rng.integers(0, nc, 3), i, j] = [np.nan, np.inf, -np.inf]
        # point mass on bin 0 for left and right (or top and bottom): an empty box
        for sides in ((0, 2), (1, 3)):
            b, i, j = cells(2)
            for side in sides:
                box[b, side, :, i, j] = -1000.0
                box[b, side, 0, i, j] = 0.0
        # point mass on the last bin everywhere: clipped at the image border
        b, i, j = cells(2)
        box[b, :, :, i, j] = -1000.0
        box[b, :, REG_MAX - 1, i, j] = 0.0
        b, i, j = cells(3)
        box[b, rng.integers(0, 4, 3), rng.integers(0, REG_MAX, 3), i, j] = [np.nan, np.inf,
                                                                            -np.inf]
        levels.append(LevelPreds(Tensor4(cls), Tensor4(box.reshape(batch, -1, g, g)), s))
    return RawPredictions(levels, nc, REG_MAX)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nc", [1, 2, 3])
@pytest.mark.parametrize("conf_threshold", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("nms_iou", [0.3, 0.5, 1.0])
def test_decode_matches_loop_oracle(nc, conf_threshold, nms_iou):
    cfg = ModelConfig(num_classes=nc, conf_threshold=conf_threshold, nms_iou=nms_iou)
    for seed in range(3):
        preds = seeded_preds(100 * nc + seed, nc)
        want = bits(decode_loop_oracle(preds, cfg))
        assert want, "every case keeps some detection"
        assert bits(decode(preds, cfg)) == want


def test_decode_ties_follow_level_then_cell_then_class():
    """Equal logits everywhere: the visit order alone decides which box survives."""
    levels = [LevelPreds(Tensor4(np.zeros((1, 2, 64 // s, 64 // s))),
                         Tensor4(np.zeros((1, 4 * REG_MAX, 64 // s, 64 // s))), s)
              for s in STRIDES]
    preds = RawPredictions(levels, 2, REG_MAX)
    for nms_iou in (0.3, 0.5, 1.0):
        cfg = ModelConfig(conf_threshold=0.5, nms_iou=nms_iou)
        dets = decode(preds, cfg)
        assert bits(dets) == bits(decode_loop_oracle(preds, cfg))
        assert {d.confidence for d in dets} == {0.5}


def test_nms_compares_the_stored_boxes():
    """NMS reads the corners of each stored `Box`, not the clipped corners it came from.

    The two round the other way here: the clipped corners of these two boxes
    give an IoU four ulps below that of the stored boxes, so at a threshold
    equal to the stored boxes' IoU only the stored corners suppress.
    """
    levels = [LevelPreds(Tensor4(np.full((1, 1, 64 // s, 64 // s), -40.0)),
                         Tensor4(np.zeros((1, 4 * REG_MAX, 64 // s, 64 // s))), s)
              for s in STRIDES]
    lv = levels[0]
    lv.cls.data[0, 0, 3, 3:5] = [5.0, 4.0]
    lv.box.data[0, :, 3, 3:5] = np.random.default_rng(3).normal(0.0, 2.0, (2, 4 * REG_MAX)).T
    preds = RawPredictions(levels, 1, REG_MAX)
    cfg = ModelConfig(num_classes=1, conf_threshold=0.9, nms_iou=1.0)
    first, second = decode(preds, cfg)
    cfg = ModelConfig(num_classes=1, conf_threshold=0.9, nms_iou=iou(second.box, first.box))
    assert bits(decode(preds, cfg)) == bits(decode_loop_oracle(preds, cfg)) == bits([first])


def corner_rows(boxes):
    return np.array([b.corners() for b in boxes])


def iou_pairs():
    """(name, boxes A, boxes B) for each kind of pair the scalar IoU must agree on."""
    rng = np.random.default_rng(11)
    rand = [Box(*rng.uniform(0.1, 0.9, 2), *rng.uniform(0.01, 0.5, 2)) for _ in range(40)]
    base = Box.from_corners(0.25, 0.25, 0.5, 0.5)
    touching = [Box.from_corners(0.5, 0.25, 0.75, 0.5), Box.from_corners(0.25, 0.5, 0.5, 0.75),
                Box.from_corners(0.5, 0.5, 0.75, 0.75)]
    nested = [Box.from_corners(0.3, 0.3, 0.4, 0.4), Box.from_corners(0.0, 0.0, 1.0, 1.0),
              Box.from_corners(0.25, 0.25, 0.5, 0.375)]
    disjoint = [Box.from_corners(0.6, 0.6, 0.9, 0.9), Box.from_corners(0.0, 0.6, 0.2, 0.9)]
    tiny = np.nextafter(0.5, 1.0) - 0.5
    degenerate = [Box(0.375, 0.375, 1e-300, 0.25), Box(0.375, 0.375, 0.25, tiny),
                  Box(0.5, 0.5, tiny, tiny), Box(0.375, 0.375, 0.25, 0.25 + tiny)]
    return [
        ("random", rand, rand[::-1]),
        ("touching", [base], touching),
        ("nested", [base], nested),
        ("disjoint", [base], disjoint),
        ("identical", rand[:5], rand[:5]),
        ("near-degenerate", [base, *degenerate], degenerate),
    ]


@pytest.mark.parametrize("name,boxes_a,boxes_b", iou_pairs(), ids=[p[0] for p in iou_pairs()])
def test_box_iou_equals_scalar_iou(name, boxes_a, boxes_b):
    got = box_iou(corner_rows(boxes_a), corner_rows(boxes_b))
    assert got.shape == (len(boxes_a), len(boxes_b))
    want = [[iou(a, b).hex() for b in boxes_b] for a in boxes_a]
    assert [[v.hex() for v in row] for row in got.tolist()] == want
    back = box_iou(corner_rows(boxes_b), corner_rows(boxes_a))
    assert back.T.tobytes() == got.tobytes()
    if name == "identical":
        assert (np.diag(got) == 1.0).all()
    if name in ("touching", "disjoint"):
        assert not got.any()
