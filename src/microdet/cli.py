"""Command-line interface: selftest, gradcheck, bench, training, inference,
evaluation, ROI planning, and toy-data generation.

Exit codes: 0 success, 1 runtime failure (with a structured message on
stderr), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    AnnotationError,
    ToyData,
    generate_toy_dataset,
    load_annotations,
    load_class_names,
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
from .ghost import C3Block, GhostConv, count_params_flops
from .metrics import evaluate
from .model import (
    ModelConfig,
    build_model,
    decode,
    load_weights,
    save_weights,
)
from .selftest import gradcheck_rows, run_selftest
from .sppf import SimConv
from .tensor import DomainError, ShapeError
from .train import TrainParams, train_toy


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_selftest(args):
    return 1 if run_selftest() else 0


def _cmd_gradcheck(args):
    rows = gradcheck_rows(seeds=range(args.seeds))
    failed = 0
    for name, err, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name} max_rel_err={err:.3e}")
        failed += 0 if ok else 1
    print(f"{len(rows) - failed}/{len(rows)} gradient checks passed")
    return 1 if failed else 0


def _cmd_bench(args):
    print("block hxw params flops")
    rng = np.random.default_rng(0)
    blocks = [("conv3x3_c64", SimConv(64, 64, k=3, rng=rng), (8, 8)),
              ("ghost_c64", GhostConv(64, 64, rng=rng), (8, 8))]
    blocks += [(f"c3{kind}_{c}", C3Block(c, c, n=2, ghost=kind == "ghost", rng=rng), (h, h))
               for kind in ("ghost", "plain") for c, h in ((16, 8), (32, 4), (48, 2))]
    for name, block, (h, w) in blocks:
        p, f = count_params_flops(block, h, w)
        print(f"{name} {h}x{w} {p} {f}")
    ghost_model = build_model(ModelConfig(), 0)
    plain_model = build_model(ModelConfig(use_c3ghost=False), 0)
    gp, pp = ghost_model.param_count(), plain_model.param_count()
    print(f"model_ghost_params {gp}")
    print(f"model_plain_params {pp}")
    print(f"ghost_to_plain_ratio {gp / pp:.4f}")
    return 0


def _cmd_train_toy(args):
    model_cfg, params, data = load_config(args.config, ModelConfig, TrainParams, ToyData)
    out = Path(args.out)
    manifest_path = generate_toy_dataset(
        out / "data", seed=params.seed, n_images=data.toy_images,
        num_classes=model_cfg.num_classes, min_objects=data.min_objects,
        max_objects=data.max_objects,
    )
    manifest = load_manifest(manifest_path)
    state, curve = train_toy(manifest, model_cfg, params)
    save_weights(state.model, out / "weights.w1")
    write_config(out / "model.cfg", model_cfg, params, data)
    with open(out / "loss_curve.csv", "w") as fh:
        fh.write("step,lr,total,cls,box,dfl\n")
        for row in curve:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"steps {len(curve)}")
    print(f"initial_total {curve[0][2]:.6f}")
    print(f"final_total {curve[-1][2]:.6f}")
    return 0


def _cmd_forward(args):
    weights = Path(args.weights)
    # only the implicit model.cfg beside the weights may be absent
    beside = weights.parent / "model.cfg"
    cfg_path = args.config or (beside if beside.exists() else None)
    model_cfg, _, _ = load_config(cfg_path, ModelConfig, TrainParams, ToyData)
    model = build_model(model_cfg, 0)
    load_weights(model, weights)
    model.set_training(False)
    image = read_t4(args.input)
    if image.shape[0] != 1:  # prediction lines carry no image id
        raise ShapeError("forward", f"{args.input}: {image.shape[0]} images, not one")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite output
        preds = model.forward(image)
    if not all(np.isfinite(t.data).all() for lv in preds.levels for t in (lv.cls, lv.box)):
        raise DomainError("forward", f"{args.input}: model output not finite (a value overflowed)")
    dets = decode(preds, model_cfg)
    save_predictions(args.out, dets)
    print(f"detections {len(dets)}")
    return 0


def _cmd_eval(args):
    classes = load_class_names(args.classes)
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
    report = evaluate(dets, gts, classes)
    sys.stdout.write(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text())
        for ci, name in enumerate(classes):
            rows = report.pr_curve_rows(ci)
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
                                num_classes=args.classes)
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
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(fn=_cmd_gradcheck)

    sub.add_parser("bench", help="parameter/FLOP table and model totals").set_defaults(
        fn=_cmd_bench)

    p = sub.add_parser("train-toy", help="train the micro model on a synthetic set")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("forward", help="run inference on a T4 tensor file")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="model config; defaults to model.cfg beside the weights")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("eval", help="score prediction files at IoU 0.50:0.05:0.95")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--classes", required=True, help="file with one class name per line")
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
