"""Assembly: shapes, registry invariants, decode/NMS, weights IO, ablations."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from microdet.dataio import load_config, write_config
from microdet.losses import (
    Box,
    LossWeights,
    detection_loss,
    loss_and_grads,
)
from microdet.metrics import GroundTruth
from microdet.model import (
    LevelPreds,
    ModelConfig,
    RawPredictions,
    _nms_class,
    ablation_configs,
    build_model,
    decode,
    load_weights,
    save_weights,
)
from microdet.tensor import (
    DomainError,
    GradTape,
    ShapeError,
    Tensor4,
    add,
    backward,
    grad_check,
    sum_all,
)


@pytest.fixture(scope="module")
def default_model():
    return build_model(ModelConfig(), rng_seed=0)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ModelConfig()
        assert cfg.strides == (8, 16, 32)
        assert all((cfg.use_simsppf, cfg.use_simam, cfg.use_igd, cfg.use_c3ghost))

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            ModelConfig(num_classes=0)
        with pytest.raises(DomainError):
            ModelConfig(reg_max=1)

    def test_config_file_round_trip(self, tmp_path):
        cfg = ModelConfig(num_classes=3, width=0.5, activation="silu", use_igd=False,
                          simam_lambda=1.25e-5, igd_passes=1)
        write_config(tmp_path / "m.cfg", cfg)
        assert load_config(tmp_path / "m.cfg", ModelConfig) == (cfg,)

    def test_rejects_unknown_activation(self):
        with pytest.raises(DomainError, match="activation"):
            ModelConfig(activation="bogus")

    def test_zero_width_error(self):
        with pytest.raises(DomainError, match="channels"):
            ModelConfig(width=0.01).stage_channels()

    def test_sppf_channel_overrides(self):
        cfg = ModelConfig(sppf_c_mid=8, sppf_c_out=32)
        model = build_model(cfg, 0)
        preds = model.forward(Tensor4.zeros(1, 3, 64, 64))
        assert model.sppf.cv1.spec.c_out == 8
        assert preds.levels[2].cls.shape[2:] == (2, 2)
        default_mid = build_model(ModelConfig(), 0).sppf.cv1.spec.c_out
        assert default_mid == 24  # c1 // 2 of the 48-channel deep stage

    def test_igd_knobs(self):
        narrow = build_model(ModelConfig(igd_c_g=8), 0)
        assert narrow.neck.c_g == 8
        single = build_model(ModelConfig(igd_passes=1), 0)
        double = build_model(ModelConfig(igd_passes=2), 0)
        assert single.param_count() < double.param_count()
        preds = single.forward(Tensor4.zeros(1, 3, 64, 64))
        assert preds.levels[0].cls.shape[2:] == (8, 8)
        with pytest.raises(DomainError, match="passes"):
            ModelConfig(igd_passes=3)


class TestBuildForward:
    def test_stride_arithmetic_64(self, default_model):
        preds = default_model.forward(Tensor4.zeros(1, 3, 64, 64))
        dims = [(lv.cls.shape[2], lv.cls.shape[3]) for lv in preds.levels]
        assert dims == [(8, 8), (4, 4), (2, 2)]
        for lv in preds.levels:
            assert lv.cls.shape[1] == 2
            assert lv.box.shape[1] == 4 * 8

    def test_simam_toggle_is_parameter_free(self):
        on = build_model(ModelConfig(use_simam=True), 0).param_count()
        off = build_model(ModelConfig(use_simam=False), 0).param_count()
        assert on == off

    def test_ghost_economy_ratio(self):
        ghost = build_model(ModelConfig(use_c3ghost=True), 0).param_count()
        plain = build_model(ModelConfig(use_c3ghost=False), 0).param_count()
        assert ghost < plain
        assert ghost / plain <= 0.75

    def test_registry_unique_names(self, default_model):
        names = [n for n, _ in default_model.named_params()]
        assert len(names) == len(set(names))

    def test_deterministic_build_and_forward(self):
        a = build_model(ModelConfig(), 7)
        b = build_model(ModelConfig(), 7)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        x = Tensor4(np.random.default_rng(0).normal(size=(1, 3, 64, 64)))
        a.set_training(False)
        outs1 = a.forward(x)
        outs2 = a.forward(x)
        for l1, l2 in zip(outs1.levels, outs2.levels):
            assert np.array_equal(l1.cls.data, l2.cls.data)
            assert np.array_equal(l1.box.data, l2.box.data)

    def test_batch_independence(self, default_model):
        rng = np.random.default_rng(1)
        one = rng.normal(size=(1, 3, 64, 64))
        default_model.set_training(False)
        pair = default_model.forward(Tensor4(np.concatenate([one, one], axis=0)))
        for lv in pair.levels:
            np.testing.assert_array_equal(lv.cls.data[0], lv.cls.data[1])
            np.testing.assert_array_equal(lv.box.data[0], lv.box.data[1])

    def test_outputs_finite(self, default_model):
        rng = np.random.default_rng(2)
        preds = default_model.forward(Tensor4(rng.normal(size=(1, 3, 64, 64))))
        for lv in preds.levels:
            assert np.isfinite(lv.cls.data).all()
            assert np.isfinite(lv.box.data).all()

    def test_dimension_errors(self, default_model):
        with pytest.raises(ShapeError, match="divisible"):
            default_model.forward(Tensor4.zeros(1, 3, 48, 48))
        with pytest.raises(ShapeError, match="channels"):
            default_model.forward(Tensor4.zeros(1, 1, 64, 64))

    def test_runs_on_32_with_1x1_deepest_level(self, default_model):
        preds = default_model.forward(Tensor4.zeros(1, 3, 32, 32))
        assert preds.levels[2].cls.shape[2:] == (1, 1)


class TestEndToEndGradients:
    def test_grad_check_wrt_image(self):
        """Whole-graph backward matches finite differences at 1e-3 on 32x32."""
        model = build_model(ModelConfig(), 3)
        model.set_training(True, track_stats=False)
        rng = np.random.default_rng(3)

        def f(t, tape):
            preds = model.forward(t, tape)
            acc = None
            for lv in preds.levels:
                for tensor in (lv.cls, lv.box):
                    s = sum_all(tensor, tape)
                    acc = s if acc is None else add(acc, s, tape)
            return acc

        rep = grad_check(f, Tensor4(rng.normal(size=(1, 3, 32, 32))), tol=1e-3)
        assert rep.passed, rep

    def test_loss_gradient_wrt_parameter(self):
        """d(loss)/d(stem weight) against central differences.

        The CIoU alphas are collected once and pinned during the FD
        evaluations, since the analytic backward holds them constant.
        """
        model = build_model(ModelConfig(), 4)
        model.set_training(True, track_stats=False)
        rng = np.random.default_rng(4)
        img = Tensor4(rng.normal(size=(1, 3, 64, 64)) * 0.2 + 0.4)
        gts = [[GroundTruth(0, Box(0.4, 0.4, 0.3, 0.3), "0"),
                GroundTruth(1, Box(0.75, 0.7, 0.2, 0.25), "0")]]
        weights = LossWeights()

        tape = GradTape()
        preds = model.forward(img, tape)
        detection_loss(preds, gts, weights, tape)
        backward(tape)
        alphas = loss_and_grads(preds, gts, weights)[3]

        def frozen_eval():
            return loss_and_grads(model.forward(img), gts, weights,
                                  frozen_alphas=alphas)[0]

        w = model.stem1.weight
        analytic = w.grad.copy()
        h = 1e-5
        flat = np.random.default_rng(5).choice(w.numel, size=8, replace=False)
        for idx in flat:
            coord = np.unravel_index(int(idx), w.shape)
            base = w.data[coord]
            w.data[coord] = base + h
            up = frozen_eval()
            w.data[coord] = base - h
            dn = frozen_eval()
            w.data[coord] = base
            num = (up - dn) / (2 * h)
            rel = abs(num - analytic[coord]) / max(abs(num), abs(analytic[coord]), 1e-8)
            assert rel <= 1e-3, (coord, num, analytic[coord])


def _empty_preds(nc=2, reg_max=8, grids=((8, 8), (4, 4), (2, 2)), strides=(8, 16, 32)):
    levels = [
        LevelPreds(Tensor4(np.full((1, nc, h, w), -40.0)),
                   Tensor4(np.zeros((1, 4 * reg_max, h, w))), s)
        for (h, w), s in zip(grids, strides)
    ]
    return RawPredictions(levels, nc, reg_max)


class TestDecode:
    def test_point_mass_distribution_decodes_to_exact_strides(self):
        """One-hot at bin 3 on all sides: every distance is 3 stride units."""
        preds = _empty_preds()
        lv = preds.levels[0]
        lv.cls.data[0, 0, 4, 4] = 12.0  # confident class-0 hit at cell (4,4)
        box = lv.box.data[0, :, 4, 4].reshape(4, 8)
        box[:] = -40.0
        box[:, 3] = 40.0
        dets = decode(preds, ModelConfig())
        assert len(dets) == 1
        d = dets[0]
        # cell center (36, 36) px, distances 24 px, image 64
        expect = Box.from_corners(12 / 64, 12 / 64, 60 / 64, 60 / 64)
        assert d.class_id == 0
        for got, want in zip((d.box.cx, d.box.cy, d.box.w, d.box.h),
                             (expect.cx, expect.cy, expect.w, expect.h)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_uniform_distribution_decodes_to_mean_bin(self):
        """Uniform over 8 bins: distance 3.5 strides per side."""
        preds = _empty_preds()
        lv = preds.levels[0]
        lv.cls.data[0, 1, 0, 0] = 12.0
        # box logits already uniform (zeros): expectation 3.5
        dets = decode(preds, ModelConfig())
        assert len(dets) == 1
        d = dets[0]
        cxc = 0.5 * 8  # cell (0,0) center in px
        half = 3.5 * 8
        assert d.box.w == pytest.approx((min(cxc + half, 64) - 0) / 64, abs=1e-9)

    def test_nms_keeps_highest_confidence_of_identical_boxes(self):
        """Candidates arrive in confidence order, so the first of two equal boxes stays."""
        corners = np.array([Box(0.5, 0.5, 0.2, 0.2).corners()] * 2)
        assert _nms_class(corners, 0.5) == [0]

    def test_nms_suppression_is_not_transitive(self):
        """A suppresses B; B would suppress C, but B is gone, so C stays."""
        a, b, c = ([x, 0.0, x + 1.0, 1.0] for x in (0.0, 0.3, 0.6))
        # IoU(A, B) = IoU(B, C) = 0.7 / 1.3, IoU(A, C) = 0.4 / 1.6
        assert _nms_class(np.array([a, b, c]), 0.5) == [0, 2]

    def test_nms_nan_iou_suppresses(self):
        """A candidate is kept only if its IoU is below the threshold, and NaN is not."""
        corners = np.array([[0.1, 0.1, 0.4, 0.4], [0.6, 0.1, 0.9, 0.4]])
        assert _nms_class(corners, 0.5) == [0, 1]
        corners[1, 0] = np.nan
        assert _nms_class(corners, 0.5) == [0]

    def test_adjacent_cells_suppressed(self):
        """Two near-identical boxes from neighboring cells: one survives."""
        preds = _empty_preds()
        lv = preds.levels[0]
        for cell, conf in (((4, 4), 12.0), ((4, 5), 8.0)):
            lv.cls.data[0, 0, cell[0], cell[1]] = conf
            box = lv.box.data[0, :, cell[0], cell[1]].reshape(4, 8)
            box[:] = -40.0
            box[:, 3] = 40.0
        dets = decode(preds, ModelConfig(nms_iou=0.5))
        assert len(dets) == 1
        assert dets[0].confidence > 0.99

    def test_all_boxes_clipped_to_unit_square(self):
        rng = np.random.default_rng(6)
        preds = _empty_preds()
        for lv in preds.levels:
            lv.cls.data[:] = rng.normal(2.0, 1.0, size=lv.cls.shape)
            lv.box.data[:] = rng.normal(0.0, 4.0, size=lv.box.shape)
        for d in decode(preds, ModelConfig(conf_threshold=0.25, nms_iou=0.9)):
            x1, y1, x2, y2 = d.box.corners()
            assert -1e-12 <= x1 <= x2 <= 1 + 1e-12
            assert -1e-12 <= y1 <= y2 <= 1 + 1e-12

    def test_below_threshold_dropped(self):
        preds = _empty_preds()
        dets = decode(preds, ModelConfig())
        assert dets == []

    def test_inference_does_not_import_numpy_ma(self):
        """`numpy.ma` costs about 1 MB of resident memory once imported (`np.unique`
        imports it), so one forward and decode in a fresh process must not load it."""
        code = (
            "import sys, numpy as np\n"
            "from microdet.model import ModelConfig, build_model, decode\n"
            "from microdet.tensor import Tensor4\n"
            "cfg = ModelConfig(conf_threshold=0.0)\n"
            "model = build_model(cfg, 0)\n"
            "model.set_inference()\n"
            "image = Tensor4(np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))\n"
            "assert decode(model.forward(image), cfg)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        model = build_model(ModelConfig(), 5)
        x = Tensor4(np.random.default_rng(7).normal(size=(1, 3, 64, 64)))
        model.set_training(True)
        model.forward(x)  # move the running stats off their init values
        model.set_training(False)
        before = model.forward(x)
        path = tmp_path / "weights.w1"
        save_weights(model, path)

        fresh = build_model(ModelConfig(), 999)
        load_weights(fresh, path)
        fresh.set_training(False)
        after = fresh.forward(x)
        for l1, l2 in zip(before.levels, after.levels):
            np.testing.assert_array_equal(l1.cls.data, l2.cls.data)
            np.testing.assert_array_equal(l1.box.data, l2.box.data)

    def test_load_rejects_wrong_architecture(self, tmp_path):
        model = build_model(ModelConfig(), 0)
        path = tmp_path / "weights.w1"
        save_weights(model, path)
        other = build_model(ModelConfig(width=2.0), 0)
        with pytest.raises((ShapeError, DomainError)):
            load_weights(other, path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.w1"
        path.write_bytes(b"not a weights file\n")
        with pytest.raises(DomainError, match="W1"):
            load_weights(build_model(ModelConfig(), 0), path)


class TestAblationMatrix:
    def test_five_rows_build_and_run(self):
        rows = ablation_configs()
        assert list(rows) == ["expr1_baseline", "exp2_sppf", "exp3_simam",
                              "exp4_gd", "exp5_mish"]
        x = Tensor4(np.random.default_rng(8).normal(size=(1, 3, 64, 64)))
        outputs = {}
        for name, cfg in rows.items():
            model = build_model(cfg, 0)
            model.set_training(False)
            preds = model.forward(x)
            assert all(np.isfinite(lv.cls.data).all() for lv in preds.levels), name
            outputs[name] = preds.levels[0].cls.data.copy()

    def test_each_toggle_changes_params_or_output(self):
        """Flipping any single toggle moves the registry size or the forward."""
        base_cfg = ModelConfig()
        x = Tensor4(np.random.default_rng(9).normal(size=(1, 3, 64, 64)))

        def signature(cfg):
            model = build_model(cfg, 0)
            model.set_training(False)
            preds = model.forward(x)
            return model.param_count(), preds.levels[0].cls.data.copy()

        base_params, base_out = signature(base_cfg)
        for toggle in ("use_simsppf", "use_simam", "use_igd", "use_c3ghost"):
            params, out = signature(replace(base_cfg, **{toggle: False}))
            changed = params != base_params or not np.array_equal(out, base_out)
            assert changed, toggle
        params, out = signature(replace(base_cfg, activation="silu"))
        assert not np.array_equal(out, base_out)
