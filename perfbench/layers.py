"""Per-layer metrics from a traced run, as medians over the traced ops.

Times are per op (one train step, one request, one eval pass) and in
milliseconds; `*.fwd_ms` is inclusive, `*.self_ms` excludes child spans,
`*.bwd_ms` is the time spent in the backward closures that layer's forward
ops recorded. Conv FLOPs and bytes are computed from tensor shapes, not
measured. A layer that does not run on a workload reports 0. The `dataio`
times of `train` and `infer` come from the traced set-up read of their input
files, since those workloads read no file per op.
"""

from __future__ import annotations

import numpy as np

from tracer import TENSOR_KINDS

MS = 1000.0
# spans whose recorded backward closures some `*.bwd_ms` metric reads
BACKWARD_SPANS = ("tensor.conv2d", "tensor.conv2d_grouped",
                  *sorted(set(TENSOR_KINDS.values())), "activations", "simam", "losses.loss")


def unread_backward(tracer, op_ids):
    """Backward span names with time in these ops that no metric reads."""
    incl = tracer.per_op(op_ids)[0]
    read = {name + ".bwd" for name in BACKWARD_SPANS}
    return sorted(name for name, arr in incl.items()
                  if name.endswith(".bwd") and name not in read and arr.any())


def layer_metrics(tracer, wl, op_ids, setup_op):
    incl, excl, covered, counts = tracer.per_op(op_ids)
    n = len(op_ids)
    zero = np.zeros(n)

    def t(name, table=incl):
        return table.get(name, zero)

    def c(name):
        return np.array([cnt.get(name, 0.0) for cnt in counts])

    def med(arr):
        return float(np.median(arr))

    out = {}

    def ms(metric, arr):
        out[metric] = (MS * med(arr), "ms")

    def count(metric, arr, unit="count"):
        out[metric] = (med(arr), unit)

    # tensor
    conv_fwd = t("tensor.conv2d") + t("tensor.conv2d_grouped")
    conv_bwd = t("tensor.conv2d.bwd") + t("tensor.conv2d_grouped.bwd")
    flop = c("tensor.conv2d.flop")
    count("tensor.conv2d.calls", c("tensor.conv2d.calls"))
    ms("tensor.conv2d.fwd_ms", conv_fwd)
    ms("tensor.conv2d.bwd_ms", conv_bwd)
    count("tensor.conv2d.mflop", flop / 1e6, "MFLOP-computed")
    count("tensor.conv2d.mbyte", c("tensor.conv2d.bytes") / 1e6, "MB-computed")
    busy = conv_fwd + conv_bwd
    count("tensor.conv2d.gflop_per_s",
          np.divide(flop, busy, out=np.zeros(n), where=busy > 0) / 1e9, "GFLOP/s-computed")
    ms("tensor.conv2d_grouped.fwd_ms", t("tensor.conv2d_grouped"))
    ms("tensor.conv2d_grouped.bwd_ms", t("tensor.conv2d_grouped.bwd"))
    for kind in ("maxpool2d", "batchnorm2d", "elementwise", "layout"):
        ms(f"tensor.{kind}.fwd_ms", t(f"tensor.{kind}"))
        ms(f"tensor.{kind}.bwd_ms", t(f"tensor.{kind}.bwd"))
    ms("tensor.backward_ms", t("tensor.backward"))
    ms("tensor.backward.self_ms", t("tensor.backward", excl))
    count("tensor.tape_entries", c("tensor.tape_entries"))
    # every forward op that produces a tensor: tensor ops, activations, attention
    fwd_kinds = ("tensor.conv2d", "activations", "simam", *sorted(set(TENSOR_KINDS.values())))
    fwd_ops = sum(c(k + ".calls") for k in fwd_kinds)
    count("tensor.ops_per_image", fwd_ops / wl.items_per_op)

    # activations, blocks
    count("activations.calls", c("activations.calls"))
    ms("activations.fwd_ms", t("activations"))
    ms("activations.bwd_ms", t("activations.bwd"))
    ms("simam.fwd_ms", t("simam"))
    ms("simam.bwd_ms", t("simam.bwd"))
    for span in ("ghost.c3", "ghost.conv", "sppf", "neck"):
        ms(f"{span}.fwd_ms", t(span))
        ms(f"{span}.self_ms", t(span, excl))

    # model
    ms("model.forward_ms", t("model.forward"))
    ms("model.forward.self_ms", t("model.forward", excl))
    ms("model.heads_ms", t("model.heads"))
    ms("model.decode_ms", t("model.decode"))
    ms("model.nms_ms", t("model.nms"))
    cands = c("model.decode.candidates")
    count("model.decode.candidates", cands)
    count("model.decode.kept_ratio",
          np.divide(c("model.decode.kept"), cands, out=np.zeros(n), where=cands > 0), "frac")

    # losses, train
    pos = c("losses.positives")
    ms("losses.assign_ms", t("losses.assign"))
    ms("losses.loss_ms", t("losses.loss"))
    ms("losses.bwd_ms", t("losses.loss.bwd"))
    count("losses.positives", pos)
    count("losses.loss_us_per_positive",
          np.divide(MS * MS * t("losses.loss"), pos, out=np.zeros(n), where=pos > 0), "us")
    ms("train.optimizer_ms", t("train.optimizer"))
    ms("train.batch_ms", t("op") if wl.name == "train" else zero)

    # metrics
    ms("metrics.evaluate_ms", t("metrics.evaluate"))
    ms("metrics.map_mf1_ms", t("metrics.map_mf1"))
    ms("metrics.confusion_ms", t("metrics.confusion"))
    count("metrics.match_calls", c("metrics.match_calls"))
    count("metrics.iou_calls", c("metrics.iou_calls"))
    count("metrics.mf1_thresholds", c("metrics.mf1_thresholds"))

    # dataio: per op on eval, per set-up elsewhere
    if wl.name == "eval":
        src = incl
    else:
        src, _, _, _ = tracer.per_op([setup_op])
    for fn in ("load_predictions", "load_annotations", "read_t4"):
        out[f"dataio.{fn}_ms"] = (MS * med(src.get(f"dataio.{fn}", [0.0])), "ms")

    # tracing itself
    op_wall = t("op")
    coverage = med(np.divide(covered, op_wall, out=np.zeros(n), where=op_wall > 0))
    out["trace.coverage_frac"] = (coverage, "frac")
    ms("trace.op_ms", op_wall)
    return out, coverage
