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
from .ghost import C3GhostSpec, GhostSpec, count_params_flops
from .metrics import DEFAULT_IOU_THRESHOLDS, evaluate, pr_curve_rows
from .model import (
    ModelConfig,
    build_model,
    decode,
    load_weights,
    save_weights,
)
from .selftest import gradcheck_module, run_selftest
from .tensor import ConvSpec, DomainError, ShapeError, Tensor4
from .train import load_run_config, train_toy


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
    for flag, d in (("--gt", gt_dir), ("--pred", pred_dir)):
        if not d.is_dir():
            raise DomainError("eval", f"{flag} {d}: not a directory")
    gt_files = sorted(gt_dir.glob("*.txt"))
    if not gt_files:
        raise DomainError("eval", f"--gt {gt_dir}: no *.txt ground-truth file")
    orphans = sorted({f.name for f in pred_dir.glob("*.txt")} - {f.name for f in gt_files})
    if orphans:
        raise DomainError("eval", f"{pred_dir / orphans[0]}: no ground-truth file of that name "
                          f"(an empty one declares no objects); {len(orphans)} such file(s)")
    gts, dets = [], []
    for gt_file in gt_files:
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
