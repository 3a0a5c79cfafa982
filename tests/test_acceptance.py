"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; a failed assertion surfaces as the pytest FAILED line for that
criterion.
"""

import io
import math
import time

import numpy as np
import pytest

from oracles import ap_exhaustive_oracle

from microdet.activations import mish_np, mish_value_grad
from microdet.dataio import generate_toy_dataset, load_manifest
from microdet.droi import DroiConfig, critical_width
from microdet.losses import Box, ciou, dfl
from microdet.metrics import average_precision, confusion_matrix, map_and_mf1
from microdet.model import (
    ModelConfig,
    ablation_configs,
    build_model,
    decode,
    save_weights,
)
from microdet.selftest import gradcheck_rows, run_selftest
from microdet.simam import energy_numeric_oracle, simam_energy_min, simam_forward
from microdet.tensor import Tensor4, maxpool2d
from microdet.train import TrainParams, predict_manifest, train_toy
from microdet.metrics import evaluate


def report(n, detail):
    print(f"\nACCEPTANCE {n:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def toy_twenty(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_toy")
    path = generate_toy_dataset(root, seed=11, n_images=20, image_size=64,
                                num_classes=2)
    return load_manifest(path)


def test_criterion_01_gradient_suite():
    """All listed ops pass grad_check at 1e-4 on 5 seeds; end-to-end at 1e-3."""
    t0 = time.time()
    rows = gradcheck_rows(seeds=range(5))
    names = {name for name, _, _ in rows}
    required = {"conv2d", "batchnorm2d", "mish", "silu", "simam_forward",
                "ghost_conv", "c3ghost_block", "sim_conv", "simsppf_forward",
                "igd_neck_forward", "ciou_loss", "dfl_loss", "bce_logits",
                "model_end_to_end"}
    assert required <= names, required - names
    for name, err, ok in rows:
        assert ok, f"{name} failed with max rel err {err:.3e}"
    elapsed = time.time() - t0
    assert elapsed <= 300, f"gradient suite took {elapsed:.0f}s > 5 min"
    worst = max(err for _, err, _ in rows)
    report(1, f"{len(rows)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_simam_energy():
    """Closed form vs numeric minimization <= 1e-6; uniform weight = sigmoid(0.5)."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 60))
        xs = rng.normal(0, 3, size=m)
        t = float(rng.normal(0, 3))
        lam = float(10 ** rng.uniform(-5, 0))
        e_num, _, _ = energy_numeric_oracle(t, xs, lam)
        e_closed = simam_energy_min(t, float(xs.mean()), float(xs.var()), lam)
        worst = max(worst, abs(e_num - e_closed))
    assert worst <= 1e-6, worst

    out = simam_forward(Tensor4(np.full((2, 3, 4, 4), 1.7)))
    weights = out.data / 1.7
    target = 1.0 / (1.0 + math.exp(-0.5))
    assert np.abs(weights - target).max() <= 1e-9
    assert abs(target - 0.6224593) <= 1e-7
    report(2, f"energy gap {worst:.2e}, uniform weight dev "
              f"{np.abs(weights - target).max():.2e}")


def test_criterion_03_sppf_cascade():
    """Chained 5x5 pools equal 9x9 and 13x13 pools, element-exact, 20 tensors."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        h, w = int(rng.integers(5, 14)), int(rng.integers(5, 14))
        x = Tensor4(rng.normal(size=(1, int(rng.integers(1, 5)), h, w)))
        p1 = maxpool2d(x, 5, 1, 2)
        p2 = maxpool2d(p1, 5, 1, 2)
        p3 = maxpool2d(p2, 5, 1, 2)
        assert np.array_equal(p2.data, maxpool2d(x, 9, 1, 4).data), trial
        assert np.array_equal(p3.data, maxpool2d(x, 13, 1, 6).data), trial
    report(3, "20/20 random tensors element-exact for 9x9 and 13x13 equivalents")


def test_criterion_04_mish():
    """mish(0)=0 exact; mish'(0)=0.6 +- 1e-9; dense-scan minimum in [-0.309,-0.308]."""
    assert mish_np(np.array([0.0]))[0] == 0.0
    d0 = mish_value_grad(np.array([0.0]))[1][0]
    assert abs(d0 - 0.6) <= 1e-9
    xs = np.arange(-3.0, 0.0, 1e-6)
    ys = mish_np(xs)
    i = int(ys.argmin())
    assert -0.309 <= ys[i] <= -0.308
    report(4, f"derivative at 0 = {d0}, minimum {ys[i]:.6f} at x = {xs[i]:.5f}")


def test_criterion_05_ciou():
    """Zero at identity over 100 boxes; hand case 1.2 +- 1e-9; alpha, v ranges."""
    rng = np.random.default_rng(5)

    def boxes(n, lo, hi, wh_hi):
        return np.concatenate([rng.uniform(lo, hi, size=(n, 2)),
                               rng.uniform(0.05, wh_hi, size=(n, 2))], axis=1)

    same = boxes(100, 0.3, 0.7, 0.3)
    assert np.abs(ciou(same, same)[0]).max() <= 1e-12
    pred = np.array([[1 / 8, 1 / 8, 2 / 8, 2 / 8]])
    gt = np.array([[3 / 8, 1 / 8, 2 / 8, 2 / 8]])
    hand = float(ciou(pred, gt)[0][0])
    assert abs(hand - 1.2) <= 1e-9
    _, _, (_, _, v, alpha) = ciou(boxes(10_000, 0.25, 0.75, 0.35),
                                  boxes(10_000, 0.25, 0.75, 0.35))
    assert v.shape == alpha.shape == (10_000,)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all((0.0 <= alpha) & (alpha <= 1.0))
    worst_v, worst_a = v.max(), alpha.max()
    report(5, f"hand case {hand:.12f}, max v {worst_v:.3f}, max alpha {worst_a:.3f} "
              f"over 10^4 pairs")


def test_criterion_06_dfl():
    """One-hot zero; midpoint ln 2; minimizer matches the interpolation weight."""
    logits = np.full(8, -40.0)
    logits[5] = 40.0
    assert dfl(logits, 5.0)[0] <= 1e-12
    logits = np.full(8, -40.0)
    logits[2] = 10.0
    logits[3] = 10.0
    mid = float(dfl(logits, 2.5)[0])
    assert abs(mid - math.log(2)) <= 1e-9
    worst = 0.0
    ps = np.linspace(1e-9, 1 - 1e-9, 4_000_001)
    for y in (1.25, 2.5, 3.9, 6.0 + 1e-7):
        # the kernel over two-bin distributions p[y_l] = ps, p[y_r] = 1 - ps
        y_l = min(math.floor(y), 6)
        losses = np.empty(ps.size)
        for lo in range(0, ps.size, 250_000):
            part = ps[lo:lo + 250_000]
            z = np.full((part.size, 8), -np.inf)
            z[:, y_l] = np.log(part)
            z[:, y_l + 1] = np.log1p(-part)
            losses[lo:lo + 250_000] = dfl(z, np.full(part.size, y))[0]
        best = float(ps[losses.argmin()])
        worst = max(worst, abs(best - (y_l + 1 - y)))
    assert worst <= 1e-6
    report(6, f"midpoint loss {mid:.12f}, minimizer deviation {worst:.2e}")


def test_criterion_07_parameter_economy():
    """Ghost model <= 0.75x plain params; attention toggle changes exactly 0."""
    ghost = build_model(ModelConfig(use_c3ghost=True), 0).param_count()
    plain = build_model(ModelConfig(use_c3ghost=False), 0).param_count()
    ratio = ghost / plain
    assert ratio <= 0.75, ratio
    on = build_model(ModelConfig(use_simam=True), 0).param_count()
    off = build_model(ModelConfig(use_simam=False), 0).param_count()
    assert on - off == 0
    report(7, f"ghost {ghost} / plain {plain} params = {ratio:.4f}; "
              f"attention delta {on - off}")


def test_criterion_08_ablation_rows(tmp_path):
    """Five ablation configurations build, run, and take 50 finite toy steps."""
    manifest = load_manifest(generate_toy_dataset(tmp_path, seed=8, n_images=8,
                                                  num_classes=2))
    x = Tensor4(np.random.default_rng(8).normal(size=(1, 3, 64, 64)))
    for name, cfg in ablation_configs().items():
        model = build_model(cfg, 0)
        model.set_training(False)
        preds = model.forward(x)
        assert all(np.isfinite(lv.cls.data).all() and np.isfinite(lv.box.data).all()
                   for lv in preds.levels), name
        _, curve = train_toy(manifest, cfg, TrainParams(steps=50, seed=8))
        assert len(curve) == 50, name
        assert all(np.isfinite(row[2]) for row in curve), name
    report(8, "expr1..exp5 all built, ran forward, and trained 50 finite steps")


def test_criterion_09_toy_overfit(toy_twenty):
    """20-image overfit: loss <= 10% of initial within 1500 steps, mAP50 >= 0.90."""
    t0 = time.time()
    cfg = ModelConfig()
    params = TrainParams(steps=1500, seed=11)
    state, curve = train_toy(toy_twenty, cfg, params)
    initial, final = curve[0][2], curve[-1][2]
    assert len(curve) <= 1500
    assert final <= 0.10 * initial, (initial, final)
    dets, gts = predict_manifest(state.model, cfg, toy_twenty)
    rep = evaluate(dets, gts, toy_twenty.classes)
    elapsed = time.time() - t0
    assert rep.map50 >= 0.90, rep.map50
    assert elapsed <= 900, f"{elapsed:.0f}s > 15 min"
    report(9, f"loss {final / initial:.3f}x initial in {len(curve)} steps, "
              f"map50 {rep.map50:.3f}, {elapsed:.0f}s")


def test_criterion_10_metrics_oracle():
    """AP equals the exhaustive sweep to 1e-9 on 100 instances; exact fixtures."""
    from microdet.metrics import Detection, GroundTruth

    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        gts, dets = [], []
        for img in range(3):
            for _ in range(int(rng.integers(0, 6))):
                cls = int(rng.integers(3))
                cx, cy = rng.uniform(0.2, 0.8, size=2)
                w, h = rng.uniform(0.05, 0.25, size=2)
                gts.append(GroundTruth(cls, Box(cx, cy, w, h), str(img)))
                if rng.random() < 0.75:
                    j = rng.normal(0, 0.03, size=2)
                    dets.append(Detection(cls, float(rng.uniform(0, 1)),
                                          Box(cx + j[0], cy + j[1], w, h), str(img)))
            extra = int(rng.integers(0, 60))  # up to ~180 detections per instance
            for _ in range(extra):
                dets.append(Detection(int(rng.integers(3)), float(rng.uniform(0, 1)),
                                      Box(*rng.uniform(0.3, 0.7, size=2),
                                          *rng.uniform(0.05, 0.2, size=2)), str(img)))
        assert len(dets) <= 200 * 3
        cls = int(rng.integers(3))
        iou_t = float(rng.choice([0.5, 0.65, 0.8]))
        fast = average_precision(dets, gts, cls, iou_t)
        slow = ap_exhaustive_oracle(
            [(d.confidence, d.box.corners(), d.image_id)
             for d in dets if d.class_id == cls],
            [(g.box.corners(), g.image_id) for g in gts if g.class_id == cls],
            iou_t,
        )
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-9, trial

        raw, norm = confusion_matrix(dets, gts, 3)
        for i in range(4):
            if raw[i].sum() > 0:
                assert abs(norm[i].sum() - 1.0) <= 1e-9

    perfect_gts = [GroundTruth(c, Box(0.2 + 0.3 * c, 0.5, 0.15, 0.2), "0")
                   for c in range(2)]
    perfect_dets = [Detection(g.class_id, 1.0, g.box, g.image_id) for g in perfect_gts]
    map50, map5095, mf1, _, _, stats, _, _ = map_and_mf1(perfect_dets, perfect_gts, 2)
    assert map50 == 1.0 and map5095 == 1.0 and mf1 == 1.0
    assert all(s["precision"] == 1.0 and s["recall"] == 1.0 and s["f1"] == 1.0
               for s in stats.values())
    report(10, f"worst |AP - oracle| = {worst:.2e}; perfect fixture exact")


def test_criterion_11_droi():
    """Base-width revert, 6.25/4.75 fixtures, monotonicity, continuity."""
    for deadband in (True, False):
        assert critical_width(0.0, 0.0, DroiConfig(deadband=deadband)).w_c == 3.0
    v_off = critical_width(45.0, 10.0, DroiConfig(deadband=False)).w_c
    v_on = critical_width(45.0, 10.0, DroiConfig(deadband=True)).w_c
    assert abs(v_off - 6.25) <= 1e-12
    assert abs(v_on - 4.75) <= 1e-12

    thetas = np.arange(-90.0, 90.0001, 0.05)
    speeds = np.arange(0.0, 40.0001, 0.5)
    for deadband in (True, False):
        cfg = DroiConfig(deadband=deadband)
        for v in (0.0, 12.5, 40.0):
            widths = np.array([critical_width(t, v, cfg).w_c for t in thetas])
            pos = widths[thetas >= 0]
            assert (np.diff(pos) >= -1e-12).all()
            neg = widths[thetas <= 0]
            assert (np.diff(neg) <= 1e-12).all()
        for t in (0.0, 45.0, 75.0):
            ws = np.array([critical_width(t, float(v), cfg).w_c for v in speeds])
            assert (np.diff(ws) >= -1e-12).all()
    cfg = DroiConfig(deadband=True)
    widths = np.array([critical_width(t, 7.0, cfg).w_c for t in thetas])
    max_jump = np.abs(np.diff(widths)).max() - cfg.k1 * 0.05
    assert max_jump <= 1e-9
    report(11, f"fixtures {v_off} / {v_on}; max continuity excess {max_jump:.2e}")


def test_criterion_12_determinism(tmp_path):
    """selftest, train-toy, and forward are bit-identical across two runs."""
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        failures = run_selftest(out=lambda s: buf.write(s + "\n"))
        assert failures == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]

    weight_bytes, curves, det_bytes = [], [], []
    for run in ("a", "b"):
        root = tmp_path / run
        manifest = load_manifest(generate_toy_dataset(root, seed=12, n_images=6,
                                                      num_classes=2))
        cfg = ModelConfig()
        state, curve = train_toy(manifest, cfg, TrainParams(steps=10, seed=12))
        wpath = root / "weights.w1"
        save_weights(state.model, wpath)
        weight_bytes.append(wpath.read_bytes())
        curves.append(curve)
        state.model.set_training(False)
        preds = state.model.forward(manifest.load_image(0))
        dets = decode(preds, cfg)
        det_bytes.append(repr([(d.class_id, d.confidence, d.box) for d in dets]))
    assert weight_bytes[0] == weight_bytes[1]
    assert curves[0] == curves[1]
    assert det_bytes[0] == det_bytes[1]
    report(12, "selftest stdout, trained weights, loss curves, and decoded "
               "detections identical across runs")
