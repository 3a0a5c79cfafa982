"""Matching, AP oracle equivalence, mAP/mF1, and confusion matrices."""

import numpy as np
import pytest

from oracles import ap_exhaustive_oracle, mf1_sweep_oracle

from microdet import metrics
from microdet.losses import Box
from microdet.metrics import (
    DEFAULT_IOU_THRESHOLDS,
    Detection,
    GroundTruth,
    average_precision,
    confusion_matrix,
    evaluate,
    map_and_mf1,
    match,
    precision_recall,
)
from microdet.tensor import DomainError


def det(cls, conf, cx, cy, w=0.1, h=0.1, img="0"):
    return Detection(cls, conf, Box(cx, cy, w, h), img)


def gt(cls, cx, cy, w=0.1, h=0.1, img="0"):
    return GroundTruth(cls, Box(cx, cy, w, h), img)


def random_instance(rng, n_images=3, n_classes=3, max_gts=6, max_dets=12):
    """A random scene where detections jitter around true boxes plus noise."""
    gts, dets = [], []
    for img in range(n_images):
        for _ in range(rng.integers(0, max_gts)):
            cls = int(rng.integers(n_classes))
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            w, h = rng.uniform(0.08, 0.25, size=2)
            gts.append(GroundTruth(cls, Box(cx, cy, w, h), str(img)))
            if rng.random() < 0.8:  # a detection near this gt
                jitter = rng.normal(0, 0.02, size=4)
                dets.append(Detection(
                    int(rng.integers(n_classes)) if rng.random() < 0.2 else cls,
                    float(rng.uniform(0.1, 1.0)),
                    Box(cx + jitter[0], cy + jitter[1],
                        max(0.02, w + jitter[2]), max(0.02, h + jitter[3])),
                    str(img)))
        for _ in range(rng.integers(0, max_dets - max_gts)):
            cls = int(rng.integers(n_classes))
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            w, h = rng.uniform(0.05, 0.2, size=2)
            dets.append(Detection(cls, float(rng.uniform(0.1, 1.0)),
                                  Box(cx, cy, w, h), str(img)))
    return dets, gts


class TestMatch:
    def test_perfect_predictions(self):
        gts = [gt(0, 0.3, 0.3), gt(0, 0.7, 0.7)]
        dets = [det(0, 1.0, 0.3, 0.3), det(0, 1.0, 0.7, 0.7)]
        assert match(dets, gts, 0.5) == [True, True]

    def test_no_detections(self):
        assert match([], [gt(0, 0.5, 0.5)] * 3, 0.5) == []

    def test_double_detection_single_match(self):
        """Two hits on one gt: the higher-confidence one is the TP."""
        gts = [gt(0, 0.5, 0.5)]
        dets = [det(0, 0.9, 0.5, 0.5), det(0, 0.8, 0.5, 0.5)]
        assert match(dets, gts, 0.5) == [True, False]

    def test_cross_image_isolation(self):
        gts = [gt(0, 0.5, 0.5, img="a")]
        dets = [det(0, 0.9, 0.5, 0.5, img="b")]
        assert match(dets, gts, 0.5) == [False]


class TestPrecisionRecall:
    def test_direct_formula(self):
        assert precision_recall(8, 10, 10) == (0.8, 0.8)

    def test_no_detection_conventions(self):
        assert precision_recall(0, 0, 5) == (0.0, 0.0)

    def test_all_correct(self):
        assert precision_recall(3, 3, 3) == (1.0, 1.0)

    def test_vacuous_recall(self):
        assert precision_recall(0, 2, 0) == (0.0, 1.0)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([det(0, 0.9, 0.5, 0.5)], [gt(0, 0.5, 0.5)], 0, 0.5) == 1.0

    def test_fp_before_tp_halves_ap(self):
        dets = [det(0, 0.9, 0.1, 0.1), det(0, 0.8, 0.5, 0.5)]
        ap = average_precision(dets, [gt(0, 0.5, 0.5)], 0, 0.5)
        assert ap == pytest.approx(0.5)

    def test_fp_after_tp_keeps_full_ap(self):
        dets = [det(0, 0.9, 0.5, 0.5), det(0, 0.8, 0.1, 0.1)]
        ap = average_precision(dets, [gt(0, 0.5, 0.5)], 0, 0.5)
        assert ap == pytest.approx(1.0)

    def test_monotone_confidence_transform_invariance(self):
        rng = np.random.default_rng(0)
        dets, gts = random_instance(rng)
        base = average_precision(dets, gts, 0, 0.5)
        squashed = [Detection(d.class_id, d.confidence**3 / 2, d.box, d.image_id)
                    for d in dets]
        assert average_precision(squashed, gts, 0, 0.5) == pytest.approx(base, abs=1e-12)

    def test_matches_exhaustive_oracle_on_random_instances(self):
        """100 random instances: engine AP == per-threshold rematch oracle to 1e-9."""
        rng = np.random.default_rng(1)
        for trial in range(100):
            dets, gts = random_instance(rng)
            cls = int(rng.integers(3))
            iou_t = float(rng.choice([0.5, 0.6, 0.75]))
            fast = average_precision(dets, gts, cls, iou_t)
            slow = ap_exhaustive_oracle(
                [(d.confidence, d.box.corners(), d.image_id)
                 for d in dets if d.class_id == cls],
                [(g.box.corners(), g.image_id) for g in gts if g.class_id == cls],
                iou_t,
            )
            assert abs(fast - slow) <= 1e-9, trial

    def test_adding_detection_never_raises_fn(self):
        rng = np.random.default_rng(2)
        dets, gts = random_instance(rng)
        class_dets = sorted((d for d in dets if d.class_id == 0),
                            key=lambda d: -d.confidence)
        class_gts = [g for g in gts if g.class_id == 0]
        tp_before = sum(match(class_dets, class_gts, 0.5))
        extra = class_dets + [det(0, 0.01, 0.9, 0.9)]
        tp_after = sum(match(extra, class_gts, 0.5))
        assert tp_after >= tp_before


class TestMapMf1:
    def test_two_class_average(self):
        gts = [gt(0, 0.3, 0.3), gt(1, 0.7, 0.7), gt(1, 0.2, 0.8)]
        dets = [det(0, 0.9, 0.3, 0.3),           # class 0 perfect
                det(1, 0.9, 0.7, 0.7), det(1, 0.8, 0.5, 0.1)]  # class 1: tp then fp
        map50, map50_95, mf1, conf, ap, stats, supported, _ = map_and_mf1(dets, gts, 2)
        assert ap[(0, 0.5)] == 1.0
        assert ap[(1, 0.5)] == pytest.approx(0.5)
        assert map50 == pytest.approx(0.75)

    def test_perfect_everything(self):
        gts = [gt(0, 0.3, 0.3), gt(1, 0.7, 0.7)]
        dets = [det(0, 1.0, 0.3, 0.3), det(1, 1.0, 0.7, 0.7)]
        map50, map50_95, mf1, conf, ap, stats, _, _ = map_and_mf1(dets, gts, 2)
        assert map50 == 1.0
        assert map50_95 == 1.0
        assert mf1 == 1.0
        for c in (0, 1):
            assert stats[c]["precision"] == 1.0
            assert stats[c]["recall"] == 1.0

    def test_gtless_class_excluded_from_mean(self):
        gts = [gt(0, 0.3, 0.3)]
        dets = [det(0, 1.0, 0.3, 0.3), det(1, 0.9, 0.7, 0.7)]
        map50, _, mf1, _, ap, _, supported, _ = map_and_mf1(dets, gts, 2)
        assert supported == [0]
        assert map50 == 1.0
        assert ap[(1, 0.5)] == 0.0


def sweep_corpus(rng, tied):
    """A random scene over classes 0-2, plus: detections on an image with no
    ground truth, and class 3 with ground truth but no detections. With
    `tied`, confidences are rounded to one decimal, so many are equal."""
    dets, gts = random_instance(rng, n_images=4)
    dets += [Detection(int(rng.integers(3)), float(rng.uniform(0.1, 1.0)),
                       Box(*rng.uniform(0.3, 0.7, size=2), 0.1, 0.1), "no_gt")
             for _ in range(3)]
    gts.append(gt(3, 0.5, 0.5, img="0"))
    if tied:
        dets = [Detection(d.class_id, round(d.confidence, 1), d.box, d.image_id)
                for d in dets]
    return dets, gts


class TestMf1Sweep:
    THRESHOLD_LISTS = [DEFAULT_IOU_THRESHOLDS, (0.5,), (0.3, 0.7), (0.75,), (0.95, 0.55)]

    def test_prefix_sweep_equals_rematch_oracle(self):
        """mF1, its confidence and every per-class stat equal the rematch sweep exactly."""
        rng = np.random.default_rng(6)
        tied_trials = 0
        for trial in range(120):
            dets, gts = sweep_corpus(rng, tied=trial % 2 == 0)
            thresholds = self.THRESHOLD_LISTS[trial % len(self.THRESHOLD_LISTS)]
            _, _, mf1, conf, _, stats, supported, _ = map_and_mf1(dets, gts, 4, thresholds)
            assert 3 in supported
            assert (mf1, conf, stats) == mf1_sweep_oracle(dets, gts, supported), trial
            confs = [d.confidence for d in dets]
            tied_trials += len(set(confs)) < len(confs)
        assert tied_trials >= 60

    def test_no_ground_truth_at_all(self):
        dets = [det(0, 0.7, 0.5, 0.5), det(1, 0.4, 0.2, 0.2)]
        _, _, mf1, conf, _, stats, supported, _ = map_and_mf1(dets, [], 2)
        assert supported == []
        assert (mf1, conf, stats) == mf1_sweep_oracle(dets, [], []) == (0.0, 0.7, {})

    @pytest.mark.parametrize("thresholds", [DEFAULT_IOU_THRESHOLDS, (0.3, 0.7)])
    def test_one_match_per_class_and_threshold(self, monkeypatch, thresholds):
        """The sweep reads prefix sums; it never rematches per confidence."""
        dets, gts = random_instance(np.random.default_rng(7), n_classes=2)
        gts += [gt(0, 0.5, 0.5), gt(1, 0.5, 0.5)]
        assert len({d.confidence for d in dets}) > 10
        calls = []
        real_match = metrics.match

        def counting_match(*args, **kwargs):
            calls.append(args[2])
            return real_match(*args, **kwargs)

        monkeypatch.setattr(metrics, "match", counting_match)
        map_and_mf1(dets, gts, 2, thresholds)
        assert sorted(calls) == sorted([*{*thresholds, 0.5}] * 2)
        assert len(calls) == {DEFAULT_IOU_THRESHOLDS: 20, (0.3, 0.7): 6}[thresholds]


class TestConfusion:
    def test_cut_offs_are_conf_025_and_iou_05(self):
        """A detection at confidence exactly 0.25 counts and one at 0.24 does not;
        a pair at IoU 0.6 matches and one at IoU 0.38 stays two background hits."""
        assert (metrics.CONFUSION_CONF, metrics.CONFUSION_IOU) == (0.25, 0.5)
        gts = [gt(0, 0.3, 0.3), gt(1, 0.7, 0.7)]
        dets = [det(0, 0.25, 0.325, 0.3), det(1, 0.9, 0.745, 0.7), det(0, 0.24, 0.7, 0.3)]
        raw, norm = confusion_matrix(dets, gts, 2)
        np.testing.assert_array_equal(raw, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(norm, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_perfect_identity_block(self):
        gts = [gt(0, 0.3, 0.3), gt(1, 0.7, 0.7)]
        dets = [det(0, 1.0, 0.3, 0.3), det(1, 1.0, 0.7, 0.7)]
        raw, norm = confusion_matrix(dets, gts, 2)
        np.testing.assert_array_equal(raw, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        np.testing.assert_allclose(norm[0], [1, 0, 0])

    def test_missed_gt_goes_to_background_column(self):
        raw, _ = confusion_matrix([], [gt(1, 0.5, 0.5)], 2)
        np.testing.assert_array_equal(raw, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])

    def test_spurious_detection_background_row(self):
        raw, _ = confusion_matrix([det(0, 0.9, 0.5, 0.5)], [], 2)
        assert raw[2, 0] == 1

    def test_cross_class_confusion_recorded(self):
        """Class-agnostic matching books a wrong-class hit at (true, pred)."""
        raw, _ = confusion_matrix([det(1, 0.9, 0.5, 0.5)], [gt(0, 0.5, 0.5)], 2)
        assert raw[0, 1] == 1

    def test_total_count_conservation(self):
        rng = np.random.default_rng(3)
        dets, gts = random_instance(rng)
        kept = [d for d in dets if d.confidence >= 0.25]
        raw, _ = confusion_matrix(dets, gts, 3)
        matched = raw[:3, :3].sum()
        assert raw.sum() == matched + (len(gts) - matched) + (len(kept) - matched)

    def test_rows_with_support_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dets, gts = random_instance(rng)
            raw, norm = confusion_matrix(dets, gts, 3)
            for i in range(4):
                if raw[i].sum() > 0:
                    assert abs(norm[i].sum() - 1.0) <= 1e-9
                else:
                    assert norm[i].sum() == 0.0


class TestEvaluate:
    def test_report_fields_and_text(self):
        gts = [gt(0, 0.3, 0.3), gt(1, 0.7, 0.7)]
        dets = [det(0, 1.0, 0.3, 0.3), det(1, 1.0, 0.7, 0.7)]
        rep = evaluate(dets, gts, ["car", "person"])
        assert rep.map50 == 1.0
        assert rep.mf1 == 1.0
        text = rep.to_text()
        assert "map50: 1.000000" in text
        assert "car" in text and "person" in text

    def test_class_id_validation(self):
        with pytest.raises(DomainError):
            evaluate([det(5, 1.0, 0.5, 0.5)], [], ["a"])

    def test_empty_class_names(self):
        with pytest.raises(DomainError):
            evaluate([], [], [])

    @pytest.mark.parametrize("thresholds", [
        [], [0.5, float("nan")], [1.5], [float("inf")], [0.0], [-1.0]])
    def test_meaningless_iou_thresholds(self, thresholds):
        with pytest.raises(DomainError, match="IoU thresholds"):
            evaluate([det(0, 0.9, 0.5, 0.5)], [gt(0, 0.5, 0.5)], ["a"],
                     iou_thresholds=thresholds)

    def test_pr_curve_rows(self):
        gts = [gt(0, 0.5, 0.5)]
        dets = [det(0, 0.9, 0.5, 0.5), det(0, 0.8, 0.1, 0.1)]
        rows = evaluate(dets, gts, ["a"], iou_thresholds=[0.5]).pr_curve_rows(0)
        assert rows[0] == (0.9, 1.0, 1.0)
        assert rows[1] == (0.8, 1.0, 0.5)

    def test_pr_curve_rows_read_the_ap_flags(self):
        """The last row's recall and the AP@0.5 come from one ranked flag sequence,
        which is the IoU-0.5 one even for a sweep that leaves 0.5 out."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            dets, gts = random_instance(rng)
            report = evaluate(dets, gts, ["a", "b", "c"], iou_thresholds=[0.6])
            rows = report.pr_curve_rows(0)
            ap = average_precision(dets, gts, 0, 0.5)
            if not rows:
                assert ap == 0.0
                continue
            assert [r[0] for r in rows] == sorted((d.confidence for d in dets
                                                   if d.class_id == 0), reverse=True)
            env = [max(r[2] for r in rows[i:]) for i in range(len(rows))]
            recalls = [0.0] + [r[1] for r in rows]
            area = sum((recalls[i + 1] - recalls[i]) * env[i] for i in range(len(rows)))
            assert ap == pytest.approx(area, abs=1e-12)
