"""Command-line interface: selftest, gradcheck, bench, training, inference,
evaluation, ROI planning, and toy-data generation.

Exit codes: 0 success, 1 runtime failure (with a structured message on
stderr), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .activations import mish, relu, silu
from .dataio import (
    AnnotationError,
    _read_lines,
    generate_toy_dataset,
    load_annotations,
    load_config,
    load_manifest,
    load_predictions,
    read_t4,
    save_predictions,
    write_config,
)
from .droi import (
    DroiConfig,
    critical_width,
    load_trajectory_csv,
    replay_to_csv_rows,
    replay_trajectory,
)
from .ghost import (
    C3Block,
    C3GhostSpec,
    GhostConv,
    GhostSpec,
    count_params_flops,
)
from .losses import (
    Box,
    DflTarget,
    bce_logits,
    bce_logits_grad,
    ciou_loss_frozen_alpha,
    ciou_loss_grad,
    ciou_terms,
    dfl_loss,
    dfl_loss_grad,
)
from .metrics import DEFAULT_IOU_THRESHOLDS, evaluate, pr_curve_rows
from .model import (
    ModelConfig,
    build_model,
    decode,
    load_weights,
    save_weights,
)
from .neck import IgdNeck, PyramidFeatures
from .selftest import run_selftest
from .simam import SimamConfig, simam_forward
from .sppf import SimConv, SimSppf, SimSppfSpec
from .tensor import (
    ConvSpec,
    DomainError,
    ShapeError,
    Tensor4,
    add,
    grad_check,
    sum_all,
)
from .train import load_run_config, train_toy


# ---------------------------------------------------------------------------
# gradcheck


def _loss_fd_rows(seeds):
    """Scalar finite-difference checks for the loss kernels."""
    rows = []
    h = 1e-6
    worst_ciou = worst_dfl = worst_bce = 0.0
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            pred = Box(*rng.uniform(0.35, 0.65, size=2), *rng.uniform(0.1, 0.3, size=2))
            gt = Box(*rng.uniform(0.35, 0.65, size=2), *rng.uniform(0.1, 0.3, size=2))
            alpha = ciou_terms(pred, gt)[3]
            _, grad = ciou_loss_grad(pred, gt)
            for k in range(4):
                vals = [pred.cx, pred.cy, pred.w, pred.h]
                vals[k] += h
                up = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
                vals[k] -= 2 * h
                dn = ciou_loss_frozen_alpha(Box(*vals), gt, alpha)
                num = (up - dn) / (2 * h)
                rel = abs(num - grad[k]) / max(abs(num), abs(grad[k]), 1e-8)
                worst_ciou = max(worst_ciou, rel)
            z = rng.normal(size=8)
            tgt = DflTarget.for_value(float(rng.uniform(0, 7)), 8)
            _, dgrad = dfl_loss_grad(z, tgt)
            for k in range(8):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                num = (dfl_loss(zp, tgt) - dfl_loss(zm, tgt)) / (2 * h)
                rel = abs(num - dgrad[k]) / max(abs(num), abs(dgrad[k]), 1e-8)
                worst_dfl = max(worst_dfl, rel)
            x, t = float(rng.normal()), float(rng.uniform())
            _, bg = bce_logits_grad(x, t)
            num = (bce_logits(x + h, t) - bce_logits(x - h, t)) / (2 * h)
            worst_bce = max(worst_bce, abs(num - bg) / max(abs(num), abs(bg), 1e-8))
    rows.append(("ciou_loss", worst_ciou, worst_ciou <= 1e-4))
    rows.append(("dfl_loss", worst_dfl, worst_dfl <= 1e-4))
    rows.append(("bce_logits", worst_bce, worst_bce <= 1e-4))
    return rows


def gradcheck_module(module: str, seeds=range(5), tol=1e-4):
    """Returns rows of (op name, max relative error, passed)."""
    rows = []

    def run(name, make_f, shape, per_seed_tol=tol):
        worst, ok = 0.0, True
        for seed in seeds:
            rng = np.random.default_rng(9000 + seed)
            f = make_f(rng)
            rep = grad_check(f, Tensor4(rng.normal(size=shape)), tol=per_seed_tol,
                             seed=seed)
            worst = max(worst, rep.max_rel_err)
            ok = ok and rep.passed
        rows.append((name, worst, ok))

    if module in ("tensor", "all"):
        from .tensor import BatchNormState, batchnorm2d, conv2d, maxpool2d, resize_nearest

        def conv_f(rng):
            spec = ConvSpec(3, 4, k=3, s=2, p=1)
            w = Tensor4(rng.normal(size=(4, 3, 3, 3)))
            return lambda t, tape: conv2d(t, spec, w, tape=tape)

        def bn_f(rng):
            st = BatchNormState.create(3)
            st.track_stats = False
            return lambda t, tape: batchnorm2d(t, st, tape)

        run("conv2d", conv_f, (2, 3, 6, 6))
        run("batchnorm2d", bn_f, (2, 3, 5, 5))
        run("maxpool2d", lambda rng: (lambda t, tape: maxpool2d(t, 3, 1, 1, tape)),
            (1, 2, 6, 6))
        run("resize_nearest", lambda rng: (lambda t, tape: resize_nearest(t, 9, 4, tape)),
            (1, 2, 3, 4))
    if module in ("activations", "all"):
        run("mish", lambda rng: mish, (2, 2, 4, 4))
        run("silu", lambda rng: silu, (2, 2, 4, 4))

        def relu_away_from_kink(rng):
            return lambda t, tape: relu(t, tape)

        run("relu", relu_away_from_kink, (2, 2, 4, 4))
    if module in ("simam", "all"):
        run("simam_forward",
            lambda rng: (lambda t, tape: simam_forward(t, SimamConfig(), tape)),
            (2, 3, 4, 4))
    if module in ("ghost", "all"):
        def ghost_f(rng):
            gc = GhostConv(GhostSpec(3, 8), rng=rng)
            gc.set_training(True, track_stats=False)
            return gc.forward

        def c3_f(rng):
            blk = C3Block(C3GhostSpec(4, 4, n=1), rng=rng)
            blk.set_training(True, track_stats=False)
            return blk.forward

        run("ghost_conv", ghost_f, (2, 3, 4, 4))
        run("c3ghost_block", c3_f, (1, 4, 4, 4))
    if module in ("sppf", "all"):
        def simconv_f(rng):
            conv = SimConv(3, 4, k=3, rng=rng)
            conv.bn.track_stats = False
            return conv.forward

        def sppf_f(rng):
            block = SimSppf(SimSppfSpec(4), rng=rng)
            block.set_training(True, track_stats=False)
            return block.forward

        run("sim_conv", simconv_f, (2, 3, 5, 5))
        run("simsppf_forward", sppf_f, (1, 4, 5, 5))
    if module in ("neck", "all"):
        def neck_f(rng):
            neck = IgdNeck((2, 4, 6), rng=rng)
            neck.set_training(True, track_stats=False)
            p4 = Tensor4(rng.normal(size=(1, 4, 4, 4)))
            p5 = Tensor4(rng.normal(size=(1, 6, 2, 2)))

            def f(t, tape):
                out = neck.forward(PyramidFeatures(t, p4, p5), tape)
                s = sum_all(out.p3, tape)
                s = add(s, sum_all(out.p4, tape), tape)
                return add(s, sum_all(out.p5, tape), tape)

            return f

        run("igd_neck_forward", neck_f, (1, 2, 8, 8))
    if module in ("losses", "all"):
        rows.extend(_loss_fd_rows(seeds))
    if module in ("model", "all"):
        def model_f(rng):
            model = build_model(ModelConfig(), int(rng.integers(1 << 16)))
            model.set_training(True, track_stats=False)

            def f(t, tape):
                preds = model.forward(t, tape)
                acc = None
                for lv in preds.levels:
                    for tensor in (lv.cls, lv.box):
                        s = sum_all(tensor, tape)
                        acc = s if acc is None else add(acc, s, tape)
                return acc

            return f

        run("model_end_to_end", model_f, (1, 3, 32, 32), per_seed_tol=1e-3)
    if not rows:
        raise DomainError("gradcheck", f"unknown module {module!r}")
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_selftest(args):
    return 1 if run_selftest() else 0


def _cmd_gradcheck(args):
    rows = gradcheck_module(args.module, seeds=range(args.seeds))
    failed = 0
    for name, err, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name} max_rel_err={err:.3e}")
        failed += 0 if ok else 1
    print(f"{len(rows) - failed}/{len(rows)} gradient checks passed")
    return 1 if failed else 0


def _cmd_bench(args):
    print("block hxw params flops")
    blocks = [
        ("conv3x3_c64", ConvSpec(64, 64, k=3, p=1), (8, 8)),
        ("ghost_c64", GhostSpec(64, 64), (8, 8)),
        ("c3ghost_16", C3GhostSpec(16, 16, n=2, expansion=1.0), (8, 8)),
        ("c3ghost_32", C3GhostSpec(32, 32, n=2, expansion=1.0), (4, 4)),
        ("c3ghost_48", C3GhostSpec(48, 48, n=2, expansion=1.0), (2, 2)),
    ]
    for name, spec, (h, w) in blocks:
        p, f = count_params_flops(spec, h, w)
        print(f"{name} {h}x{w} {p} {f}")
    for name, spec, (h, w) in blocks[2:]:
        p, f = count_params_flops(spec, h, w, ghost=False)
        print(f"{name.replace('c3ghost', 'c3plain')} {h}x{w} {p} {f}")
    ghost_model = build_model(ModelConfig(), 0)
    plain_model = build_model(ModelConfig(use_c3ghost=False), 0)
    gp, pp = ghost_model.param_count(), plain_model.param_count()
    print(f"model_ghost_params {gp}")
    print(f"model_plain_params {pp}")
    print(f"ghost_to_plain_ratio {gp / pp:.4f}")
    ghost_model.set_training(False)
    x = Tensor4(np.random.default_rng(0).normal(size=(1, 3, 64, 64)))
    ghost_model.forward(x)  # warm up
    times = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        ghost_model.forward(x)
        times.append(time.perf_counter() - t0)
    print(f"forward_64x64_median_ms {1000 * sorted(times)[len(times) // 2]:.2f}")
    return 0


def _cmd_train_toy(args):
    model_cfg, params, data = load_run_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = generate_toy_dataset(
        out / "data", seed=params.seed, n_images=data.toy_images,
        image_size=data.image_size, num_classes=model_cfg.num_classes,
        min_objects=data.min_objects, max_objects=data.max_objects,
    )
    manifest = load_manifest(manifest_path)
    state, curve = train_toy(manifest, model_cfg, params,
                             log_every=args.log_every)
    save_weights(state.model, out / "weights.w1")
    write_config(out / "model.cfg", model_cfg, params, data)
    with open(out / "loss_curve.csv", "w") as fh:
        fh.write("step,lr,total,cls,box,dfl\n")
        for row in curve:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    first = curve[0][2] if curve else float("nan")
    last = curve[-1][2] if curve else float("nan")
    print(f"steps {len(curve)}")
    print(f"initial_total {first:.6f}")
    print(f"final_total {last:.6f}")
    return 0


def _cmd_forward(args):
    weights = Path(args.weights)
    cfg_path = Path(args.config) if args.config else weights.parent / "model.cfg"
    model_cfg, _, _ = load_run_config(cfg_path if cfg_path.exists() else None)
    model = build_model(model_cfg, 0)
    load_weights(model, weights)
    model.set_training(False)
    image = read_t4(args.input)
    preds = model.forward(image)
    dets = decode(preds, model_cfg)
    save_predictions(args.out, dets)
    print(f"detections {len(dets)}")
    return 0


def _cmd_eval(args):
    classes = [line.strip() for _, line in _read_lines(args.classes) if line.strip()]
    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    gts, dets = [], []
    for gt_file in sorted(gt_dir.glob("*.txt")):
        gts.extend(load_annotations(gt_file))
        pred_file = pred_dir / gt_file.name
        if pred_file.exists():
            dets.extend(load_predictions(pred_file))
    thresholds = list(DEFAULT_IOU_THRESHOLDS) if args.all_thresholds else [args.iou]
    report = evaluate(dets, gts, classes, iou_thresholds=thresholds)
    sys.stdout.write(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text())
        for ci, name in enumerate(classes):
            rows = pr_curve_rows(dets, gts, ci, thresholds[0])
            with open(out / f"pr_curve_{name}.csv", "w") as fh:
                fh.write("confidence,recall,precision\n")
                for conf, rec, prec in rows:
                    fh.write(f"{conf:.17g},{rec:.17g},{prec:.17g}\n")
        np.savetxt(out / "confusion_raw.csv", report.confusion_raw,
                   fmt="%d", delimiter=",")
        np.savetxt(out / "confusion_normalized.csv", report.confusion_normalized,
                   fmt="%.9f", delimiter=",")
    return 0


def _cmd_droi(args):
    (cfg,) = load_config(args.config, DroiConfig)
    res = critical_width(args.theta, args.speed, cfg)
    print(f"w_c {res.w_c:.6f}")
    print(f"regime {res.regime}")
    print(f"shift {res.shift:.6f}")
    print("roi " + " ".join(f"{v:.6f}" for v in res.roi))
    return 0


def _cmd_droi_replay(args):
    (cfg,) = load_config(args.config, DroiConfig)
    log = load_trajectory_csv(args.log)
    results, fraction = replay_trajectory(log, cfg)
    rows = replay_to_csv_rows(results)
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")
    else:
        for row in rows:
            print(row)
    print(f"mean_roi_fraction {fraction:.6f}")
    return 0


def _cmd_gen_toy(args):
    path = generate_toy_dataset(args.out, seed=args.seed, n_images=args.images,
                                image_size=args.size, num_classes=args.classes)
    print(f"manifest {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="microdet",
        description="desk-scale detector kernels: verification, toy training, "
                    "evaluation, ROI planning",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="run all invariant suites").set_defaults(
        fn=_cmd_selftest)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", default="all",
                   choices=["all", "tensor", "activations", "simam", "ghost",
                            "sppf", "neck", "losses", "model"])
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("bench", help="parameter/FLOP table and forward timing")
    p.add_argument("--reps", type=int, default=10)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("train-toy", help="train the micro model on a synthetic set")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out", required=True)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("forward", help="run inference on a T4 tensor file")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="model config; defaults to model.cfg beside the weights")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("eval", help="evaluate prediction files against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--classes", required=True, help="file with one class name per line")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--all-thresholds", action="store_true",
                   help="evaluate the 0.50:0.05:0.95 sweep")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("droi", help="critical region for one steering/speed sample")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--speed", type=float, required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_droi)

    p = sub.add_parser("droi-replay", help="replay a trajectory CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_droi_replay)

    p = sub.add_parser("gen-toy", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=20)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--size", type=int, default=64)
    p.set_defaults(fn=_cmd_gen_toy)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ShapeError, DomainError, AnnotationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
